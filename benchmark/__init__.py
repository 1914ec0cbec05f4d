"""Benchmark of curvelab's CLI experiments; see README.md."""
