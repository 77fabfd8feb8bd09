"""Context-dependent classification of multichannel biosignal records.

The library covers the whole pipeline for sequential movement control:
loading and windowing labelled signal records, wavelet feature extraction
with a mutual-information filter, pluggable base classifiers, nested box
contexts with per-box class interpretation, combinatorial optimization of
the movement-to-class binding (exhaustive and evolutionary), a finite-state
ensemble runtime, and sequence-level evaluation (ZO / SqCov) with rank and
significance aggregation.
"""

__version__ = "0.1.0"
