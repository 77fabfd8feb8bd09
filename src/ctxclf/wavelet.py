"""Cascade filter-bank decomposition with the 12-tap Daubechies-6 pair.

Two boundary modes are provided. The default half-sample symmetric
extension is what feature extraction uses; it avoids edge artifacts but is
redundant. The periodic mode is a square orthonormal transform (exact
Parseval, exact inverse) and backs the reconstruction and energy checks.

The decomposition takes one vector or a block of equal-length rows (for
instance every channel of a record). In symmetric mode each level gathers
only the windows the decimated outputs keep, and one matrix product applies
both filters to them. Each output has the bits of the 12-tap dot product
that ``np.correlate`` gives over the extended row, as the tests check (an
equality of two BLAS paths, measured on OpenBLAS), and each row of a block
gets the same bits as that row decomposed on its own.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from ctxclf.errors import CtxclfError

# Orthonormal Daubechies-6 scaling (low-pass) filter, 12 taps.
# Satisfies sum(h) = sqrt(2), sum(h^2) = 1 and the even-shift
# orthogonality sum_n h[n] h[n+2k] = 0 for k != 0.
DB6_LOWPASS = np.array(
    [
        0.11154074335008017,
        0.4946238903983854,
        0.7511339080215775,
        0.3152503517092432,
        -0.22626469396516913,
        -0.12976686756709563,
        0.09750160558707936,
        0.02752286553001629,
        -0.031582039318031156,
        0.0005538422009938016,
        0.004777257511010651,
        -0.00107730108499558,
    ]
)

# Quadrature-mirror high-pass: g[n] = (-1)^n h[L-1-n].
DB6_HIGHPASS = (DB6_LOWPASS[::-1] * np.where(np.arange(12) % 2 == 0, 1.0, -1.0)).copy()

TAPS = len(DB6_LOWPASS)

# Both filters as the columns of one (TAPS, 2) matrix: high-pass, then low-pass.
# Fortran order maps fewer OpenBLAS code pages than C order, for the same bits.
FILTERS = np.asfortranarray(np.stack([DB6_HIGHPASS, DB6_LOWPASS], axis=1))
FILTERS.flags.writeable = False

# Rows are gathered in chunks of at most this many values (128 KB, glibc's
# default mmap threshold), so a block's windows never need a fresh mapping.
GATHER_VALUES = 1 << 14


@lru_cache(maxsize=256)
def _window_index(n: int) -> np.ndarray:
    """Sample index under each tap of each kept window of the symmetric extension
    of n samples: (outputs, TAPS), read-only. Window j starts at extended position
    2j, so the odd shifts are never computed."""
    ext = np.pad(np.arange(n), TAPS - 1, mode="symmetric")
    idx = ext[np.arange(0, n + TAPS - 1, 2)[:, None] + np.arange(TAPS)]
    idx.flags.writeable = False
    return idx


def _analysis_symmetric(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(high-pass, low-pass) outputs, decimated by 2, of each row of x.

    Both are views into one (rows, outputs, 2) product, so the last axis of
    each has a stride of two doubles; the AR features' bits rest on that.
    """
    rows, n = x.shape
    idx = _window_index(n)
    out = np.empty((rows, len(idx), 2))
    step = max(1, GATHER_VALUES // idx.size)
    for lo in range(0, rows, step):
        np.matmul(x[lo : lo + step].take(idx, axis=1), FILTERS, out=out[lo : lo + step])
    return out[..., 0], out[..., 1]


def _analysis_periodic(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    n = x.shape[1]
    if n % 2:
        raise CtxclfError("periodic mode requires even length at every level")
    k = np.arange(n // 2)
    windows = x.take((2 * k[:, None] + np.arange(TAPS)[None, :]) % n, axis=1)
    return windows @ DB6_HIGHPASS, windows @ DB6_LOWPASS


def dwt_db6(samples, levels: int = 3, mode: str = "symmetric") -> list[np.ndarray]:
    """Decompose into subbands ordered [A_levels, D_levels, ..., D2, D1].

    ``samples`` is one vector of n samples, or a (rows, n) block that is
    decomposed row by row. A vector gives 1-D subbands; a block gives
    (rows, length) subbands whose row i is the decomposition of row i.
    """
    x = np.asarray(samples, dtype=np.float64)
    if x.ndim not in (1, 2):
        raise ValueError(f"expected a 1-D sample vector or a 2-D block of rows, got {x.ndim}-D")
    if x.ndim == 2 and x.shape[0] == 0:
        raise ValueError(f"empty block of shape {x.shape}: need at least one row")
    if levels < 1:
        raise ValueError("levels must be >= 1")
    n = x.shape[-1]
    if n < 2**levels:
        raise CtxclfError(f"need >= {2 ** levels} samples for {levels} levels, got {n}")
    if mode not in ("symmetric", "periodic"):
        raise ValueError(f"unknown boundary mode {mode!r}")
    analyze = _analysis_symmetric if mode == "symmetric" else _analysis_periodic
    details = []
    approx = x.reshape(-1, n)
    for _ in range(levels):
        detail, approx = analyze(approx)
        details.append(detail)
    subbands = [approx] + details[::-1]
    return subbands if x.ndim == 2 else [sb[0] for sb in subbands]


def idwt_db6_periodic(subbands: list[np.ndarray]) -> np.ndarray:
    """Invert a periodic-mode decomposition (synthesis bank)."""
    approx = np.asarray(subbands[0], dtype=np.float64)
    for detail in subbands[1:]:
        d = np.asarray(detail, dtype=np.float64)
        if len(d) != len(approx):
            raise ValueError("subband lengths inconsistent with a periodic cascade")
        n = 2 * len(approx)
        k = np.arange(len(approx))
        x = np.zeros(n)
        for coeffs, filt in ((approx, DB6_LOWPASS), (d, DB6_HIGHPASS)):
            idx = (2 * k[:, None] + np.arange(TAPS)[None, :]) % n
            np.add.at(x, idx.ravel(), (coeffs[:, None] * filt[None, :]).ravel())
        approx = x
    return approx
