"""End-to-end benchmark of the CPPC reproduction (see README.md).

Run one workload with ``python3 perfbench/run.py --workload paper
--seed 0 --seconds 30 --trace 0`` from the repository root.
"""
