"""Benchmark harness for itlmc; see run.py and NOTES.md."""
