"""API reference generator: walks the package, emits Markdown.

::

    python -m repro.tools.gen_docs -o docs/API.md

Documentation comes straight from the docstrings, so the reference can
never drift from the code; regenerate after any public-API change.
"""

from __future__ import annotations

import argparse
import importlib
import inspect
import sys
from typing import List, Optional, Sequence

SUBPACKAGES = [
    "repro",
    "repro.equivalence",
    "repro.util",
    "repro.coding",
    "repro.memsim",
    "repro.cppc",
    "repro.faults",
    "repro.runtime",
    "repro.energy",
    "repro.timing",
    "repro.reliability",
    "repro.workloads",
    "repro.obs",
    "repro.harness",
    "repro.crosscheck",
    "repro.tools",
]


def _first_paragraph(doc: Optional[str]) -> str:
    if not doc:
        return "(undocumented)"
    paragraph: List[str] = []
    for line in inspect.cleandoc(doc).splitlines():
        if not line.strip():
            break
        paragraph.append(line.strip())
    return " ".join(paragraph)


class _QualifiedName:
    """Stands in for a default value, printing where it is defined."""

    def __init__(self, value):
        self._text = f"{value.__module__}.{value.__qualname__}"

    def __repr__(self) -> str:
        return self._text


def _signature(obj) -> str:
    try:
        signature = inspect.signature(obj)
    except (TypeError, ValueError):
        return "(...)"
    # A function's repr carries its load address, which differs on every
    # run; a function-valued default prints as its qualified name.
    parameters = [
        param.replace(default=_QualifiedName(param.default))
        if inspect.isroutine(param.default)
        else param
        for param in signature.parameters.values()
    ]
    return str(signature.replace(parameters=parameters))


def document_module(name: str) -> List[str]:
    """Markdown section for one module's public API."""
    module = importlib.import_module(name)
    lines = [f"## `{name}`", "", _first_paragraph(module.__doc__), ""]
    exported = getattr(module, "__all__", None)
    if not exported:
        return lines
    for symbol in exported:
        obj = getattr(module, symbol)
        if inspect.ismodule(obj):
            continue
        # Attribute symbols to their defining module so re-exports are
        # listed once, where they live.
        defined_in = getattr(obj, "__module__", name) or name
        if not defined_in.startswith(name) and name != "repro":
            continue
        if name == "repro" and defined_in != "repro":
            continue
        if inspect.isclass(obj):
            lines.append(f"### class `{symbol}{_signature(obj)}`")
            lines.append("")
            lines.append(_first_paragraph(obj.__doc__))
            lines.append("")
            for method_name, method in sorted(vars(obj).items()):
                if method_name.startswith("_"):
                    continue
                if callable(method):
                    lines.append(
                        f"- `{method_name}{_signature(method)}` — "
                        f"{_first_paragraph(method.__doc__)}"
                    )
                elif isinstance(method, property):
                    lines.append(
                        f"- `{method_name}` (property) — "
                        f"{_first_paragraph(method.__doc__)}"
                    )
            lines.append("")
        elif callable(obj):
            lines.append(f"### `{symbol}{_signature(obj)}`")
            lines.append("")
            lines.append(_first_paragraph(obj.__doc__))
            lines.append("")
        else:
            lines.append(f"### `{symbol}` — constant")
            lines.append("")
    return lines


def generate() -> str:
    """Full API reference as one Markdown document."""
    lines = [
        "# API reference",
        "",
        "Generated by `python -m repro.tools.gen_docs`; do not edit by hand.",
        "",
    ]
    for name in SUBPACKAGES:
        lines.extend(document_module(name))
    return "\n".join(lines) + "\n"


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-gen-docs", description="Generate docs/API.md."
    )
    parser.add_argument(
        "--output", "-o", type=argparse.FileType("w"), default=sys.stdout
    )
    args = parser.parse_args(argv)
    args.output.write(generate())
    if args.output is not sys.stdout:
        args.output.close()
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
