"""Learned perceptual audio similarity metric, desk-scale and self-contained.

The package root imports no submodule, so that the CLI can apply the CDPAM_THREADS
cap before numpy initializes its thread pool.
"""

__version__ = "0.1.0"
