"""HyperSub benchmark package (see run.py)."""
