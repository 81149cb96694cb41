"""End-to-end benchmark of the passiveqkd command line, with per-layer tracing.

``perfbench/run.py`` is the entry point; this package holds the workload
definitions (:mod:`.workloads`), the output checks (:mod:`.checks`) and the
span tracer that times each library layer from outside (:mod:`.tracing`).
"""
