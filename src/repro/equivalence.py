"""The one equivalence policy shared by every fast path.

Each vectorized engine keeps its scalar twin as an oracle: the batch
replay (:class:`~repro.workloads.replay.FastReplay`), the Figure-10
collector (:func:`~repro.timing.fast.collect_run_fast`), the
snapshot-fork campaign (:class:`~repro.faults.campaign.FaultCampaign`)
and the Monte-Carlo kernel
(:func:`~repro.reliability.fastmc.cross_check_live`).  This module
decides *when* that oracle runs:

* ``"auto"`` — cross-check runs of at most :data:`AUTO_LIMIT` references;
* ``"always"`` / ``"never"`` — force either behaviour.

Engines validate their mode once with :func:`validate`, ask
:func:`should_check` once the run size is known, and report divergence
through :func:`raise_on`, whose :class:`~repro.errors.EquivalenceError`
formats its own mismatch detail.
"""

from __future__ import annotations

from typing import Sequence

from .errors import ConfigurationError, EquivalenceError

#: Every equivalence mode, in the order the CLIs list them.
MODES = ("auto", "always", "never")

#: The modes for engines without a run size to apply ``"auto"`` to.
EXPLICIT_MODES = tuple(mode for mode in MODES if mode != "auto")

#: ``"auto"`` cross-checks runs of at most this many references.
AUTO_LIMIT = 2048

__all__ = [
    "AUTO_LIMIT",
    "EXPLICIT_MODES",
    "MODES",
    "raise_on",
    "should_check",
    "validate",
]


def validate(
    mode: str,
    allowed: Sequence[str] = MODES,
    *,
    limit: int = AUTO_LIMIT,
    name: str = "equivalence mode",
) -> str:
    """Return ``mode``, or raise :class:`ConfigurationError` when it is
    not one of ``allowed`` or the ``"auto"`` limit is negative."""
    if mode not in allowed:
        raise ConfigurationError(
            f"{name} must be one of {tuple(allowed)}, got {mode!r}"
        )
    if limit < 0:
        raise ConfigurationError(f"equivalence limit must be >= 0, got {limit}")
    return mode


def should_check(mode: str, references: int, limit: int = AUTO_LIMIT) -> bool:
    """Whether a run of ``references`` references gets the oracle."""
    return mode == "always" or (mode == "auto" and references <= limit)


def raise_on(mismatches: Sequence[str], message: str) -> None:
    """Raise :class:`EquivalenceError` when ``mismatches`` is non-empty."""
    if mismatches:
        raise EquivalenceError(message, mismatches=mismatches)
