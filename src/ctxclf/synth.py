"""Synthetic multichannel signal sets for demos and end-to-end tests.

Each class is an AR(2) resonator with a class-specific peak frequency and
bandwidth, so the wavelet-subband features separate the classes without
being trivially disjoint. Channels of one record share the class resonance
but use independent noise and a small per-channel detuning.
"""

from __future__ import annotations

import numpy as np

from ctxclf.rng import derive_rng
from ctxclf.signals import SignalRecord, SignalSet


def _ar2_resonator(rng: np.random.Generator, n: int, freq: float, radius: float) -> np.ndarray:
    """White noise through a two-pole resonator at the given normalized frequency."""
    a1 = 2.0 * radius * np.cos(2.0 * np.pi * freq)
    a2 = -(radius**2)
    e = rng.standard_normal(n + 64)
    x = np.empty(n + 64)
    x[0] = e[0]
    x[1] = a1 * x[0] + e[1]
    for t in range(2, n + 64):
        x[t] = a1 * x[t - 1] + a2 * x[t - 2] + e[t]
    return x[64:]  # drop the transient


def synth_signalset(
    num_classes: int,
    records_per_class: int = 100,
    num_channels: int = 2,
    samples: int = 512,
    sample_rate_hz: int = 1000,
    noise: float = 0.6,
    seed: int = 0,
) -> SignalSet:
    """Class-separable random signal set with the given shape."""
    if num_classes < 2:
        raise ValueError("need at least two classes")
    records = []
    for cls in range(1, num_classes + 1):
        # spread the class resonances over (0.04, 0.42) of the sample rate
        freq = 0.04 + 0.38 * (cls - 1) / max(num_classes - 1, 1)
        radius = 0.90 + 0.06 * ((cls - 1) % 3) / 2.0
        for r in range(records_per_class):
            rng = derive_rng(seed, "record", cls, r)
            chans = []
            for ch in range(num_channels):
                detune = 0.01 * (ch - (num_channels - 1) / 2.0) / max(num_channels, 1)
                clean = _ar2_resonator(rng, samples, freq + detune, radius)
                chans.append(clean + noise * rng.standard_normal(samples))
            records.append(
                SignalRecord(
                    record_id=f"c{cls}r{r}",
                    channels=np.vstack(chans),
                    sample_rate_hz=int(sample_rate_hz),
                    class_label=cls,
                )
            )
    return SignalSet(tuple(records))
