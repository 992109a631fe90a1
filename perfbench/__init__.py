"""Benchmark of the choreocert prover; run `python3 perfbench/run.py --help`."""
