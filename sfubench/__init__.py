"""Steady end-to-end benchmark of the Flex-SFU reproduction.

Run one workload with ``python3 sfubench/run.py --workload <name>
--seed <n> --seconds <s> --trace <0|1>`` from the repository root; see
``sfubench/README.md`` for the workloads, metrics and layer map.
"""
