"""Benchmark of homlab's scans and lemma battery; see README.md."""
