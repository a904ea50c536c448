"""Streaming fall detection from wearable accelerometer data.

The package namespace exports nothing: import from ``fallstream.<module>``.
"""

import os

# Set before anything imports numpy: importing any fallstream module runs
# this file first. The largest matrix product here is (32 x 58) @ (58 x 64),
# far below OpenBLAS's threading threshold, so its thread pool would only
# cost start-up time; a value set by the user wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

__version__ = "0.1.0"
