"""CI-cycle benchmark for ranwatch; run it with ``python3 cibench/run.py``."""
