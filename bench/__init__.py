"""Benchmark for blueforge; run with `python3 -m bench` (see README.md)."""
