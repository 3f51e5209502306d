"""Benchmark harness for gst: seeded workloads, output checks and tracing.

``python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1``
runs one workload from the root of a source checkout and prints its
metrics as the last line of standard output.  See ``bench/run.py``.
"""
