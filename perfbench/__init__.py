"""Seeded benchmark of the kgflrw package: four workloads, end-to-end and per-layer metrics.

Run ``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>``
from the repository root; ``BENCHMARK.json`` declares the workloads and metrics.
"""
