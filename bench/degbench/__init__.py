"""Layered benchmark of degloci; the entry point is ``bench/run.py``."""
