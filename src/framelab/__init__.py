"""framelab: a numerical laboratory for analog coding of sources with
erasures — frame constructions, inverse-energy statistics over erasure
patterns, rate-distortion accounting, spectral limits, and MLIE search."""

__version__ = "0.1.0"
