"""Imputation settings and the grid neighbor solve.

An ``Imputer`` says how the metrics fill masked features: with zeros, with
dataset means, or by solving the grid neighbor-average linear system
(masked pixels become weighted averages of their 8-neighbors, direct
neighbors weighted twice as heavily as diagonal ones), optionally plus
Gaussian noise on the imputed entries only.  The metrics' sweep engine
keeps the masks and the zero and mean fills, updating only the features a
step changes; ``impute_grid`` solves one grid for the noisy-linear fill.
``round_half_away`` turns every ratio into a feature count.

scipy serves only that solve, so it is imported on first use
(``load_solver``), not with this module.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .core import ConfigError, DataError

if TYPE_CHECKING:
    from scipy.sparse import csr_matrix

IMPUTER_KINDS = ("zero", "mean", "noisy_linear")

# 8-neighborhood weights before border renormalization
_DIRECT_W = 1.0 / 6.0
_DIAGONAL_W = 1.0 / 12.0


def round_half_away(x: float) -> int:
    """round() with .5 going away from zero, used for every count derived from a ratio."""
    if x < 0:
        raise ConfigError(f"negative count {x}")
    return int(np.floor(x + 0.5))


@dataclass(frozen=True)
class Imputer:
    """How masked features get filled.

    noise_std is the standard deviation of Gaussian noise added to imputed
    entries (never to unmasked ones); zero disables the noise entirely.
    """

    kind: str = "mean"
    noise_std: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in IMPUTER_KINDS:
            raise ConfigError(f"unknown imputer kind {self.kind!r}")
        if self.noise_std < 0:
            raise ConfigError("noise_std must be non-negative")


@functools.cache
def load_solver() -> tuple:
    """scipy's ``(csr_matrix, spsolve)``, imported on the first call.

    Importing scipy.sparse costs about 30 MiB and 0.3 s, and only the
    noisy-linear fill needs it.  A process that forks lanes to solve grids
    calls this before it forks, so that every lane inherits the modules
    instead of importing them itself.
    """
    from scipy.sparse import csr_matrix
    from scipy.sparse.linalg import spsolve

    return csr_matrix, spsolve


# 8-neighborhood offsets in the order their entries appear in each row of W
_OFFSETS = tuple(
    (dr, dc) for dr in (-1, 0, 1) for dc in (-1, 0, 1) if (dr, dc) != (0, 0)
)
# distinct grid shapes whose neighbor system stays built
_NEIGHBOR_CACHE_SIZE = 8


@functools.lru_cache(maxsize=_NEIGHBOR_CACHE_SIZE)
def _neighbor_system(h: int, w: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-pixel neighbor indices and border-renormalized weights.

    Returns (rows, cols, weights) of the dense-in-concept weight matrix W
    where row p holds the averaging weights of pixel p's neighbors; each row
    sums to one.  Entries run row-major by pixel, then through ``_OFFSETS``;
    ``_system_pattern`` relies on that order for its sorted CSR columns, and
    ``_plane_system`` for the order in which it sums the right-hand side.
    The arrays are cached per shape and read-only.
    """
    r, c = np.divmod(np.arange(h * w), w)
    dr, dc = np.array(_OFFSETS).T
    rr, cc = r[:, None] + dr, c[:, None] + dc
    inside = (rr >= 0) & (rr < h) & (cc >= 0) & (cc < w)
    wgt = np.array([_DIRECT_W if 0 in off else _DIAGONAL_W for off in _OFFSETS])
    # cumsum adds each row's weights one by one in entry order, which fixes
    # the totals' rounding; a pairwise sum could differ in the last bit
    total = np.cumsum(np.where(inside, wgt, 0.0), axis=1)[:, -1]
    rows, k = np.nonzero(inside)  # row-major: by pixel, then by offset
    cols = rr[rows, k] * w + cc[rows, k]
    weights = wgt[k] / total[rows]
    for arr in (rows, cols, weights):
        arr.flags.writeable = False
    return rows, cols, weights


@functools.lru_cache(maxsize=_NEIGHBOR_CACHE_SIZE)
def _system_pattern(h: int, w: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """I - W over the whole grid as (rows, cols, values) in canonical CSR order.

    Each pixel's row holds its neighbors in ascending flat index (the order
    ``_OFFSETS`` visits them) with the unit diagonal placed between those
    before and after the pixel itself.  Keeping the entries whose row and
    column are both masked, in this order, therefore yields the reduced
    system's CSR arrays with sorted column indices and no duplicates.  The
    off-diagonal values are the exact negations of W's weights.  The arrays
    are cached per shape and read-only.
    """
    rows, cols, weights = _neighbor_system(h, w)
    n = h * w
    pixels = np.arange(n)
    at = np.searchsorted(rows * n + cols, pixels * (n + 1))
    pattern = (
        np.insert(rows, at, pixels),
        np.insert(cols, at, pixels),
        np.insert(-weights, at, 1.0),
    )
    for arr in pattern:
        arr.flags.writeable = False
    return pattern


def _plane_system(
    mflat: np.ndarray, values: np.ndarray, h: int, w: int
) -> tuple[csr_matrix, np.ndarray]:
    """A x = b for the masked pixels of one flat (h * w) plane.

    A = I - W[unknown, unknown] and b = W[unknown, known] v, unknowns in
    ascending flat index.  A is cut from ``_system_pattern`` straight into
    canonical CSR arrays; b is summed entry by entry in W's row-major order.
    """
    csr_matrix, _ = load_solver()
    rows, cols, vals = _system_pattern(h, w)
    unknown = np.flatnonzero(mflat)
    pos = np.cumsum(mflat) - 1  # index among the unknowns, for masked pixels
    row_in = mflat[rows]
    col_in = mflat[cols]
    in_a = row_in & col_in
    a_rows = rows[in_a]
    indptr = np.append(np.searchsorted(a_rows, unknown), a_rows.size)
    A = csr_matrix(
        (vals[in_a], pos[cols[in_a]], indptr), shape=(unknown.size, unknown.size)
    )
    in_b = row_in & ~col_in
    b = np.bincount(
        pos[rows[in_b]],
        weights=-vals[in_b] * values[cols[in_b]],
        minlength=unknown.size,
    )
    return A, b


def impute_grid(features: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Linear neighbor imputation on an (h, w) or (h, w, c) grid.

    Masked pixels satisfy x_p = sum_q W[p, q] * x_q with unmasked pixels as
    boundary values; each channel is solved independently.  The neighbor
    system W is built once per grid shape and reused, and each channel's
    reduced system is cut from it straight into CSR form.  When everything
    is masked the system is homogeneous and the mean-zero solution (all
    zeros) is used, with a warning.  The noise of the noisy-linear imputer is
    not drawn here: the metrics add their pre-drawn noise to the fill.

    The result depends only on the arguments, so the metrics' noisy-linear
    fill may solve its samples in any process (it splits them over forked
    lanes by rows) with byte-identical results.
    """
    squeeze = features.ndim == 2
    feats = features[..., None] if squeeze else features
    msk = mask[..., None] if (squeeze and mask.ndim == 2) else mask
    if feats.ndim != 3:
        raise DataError("grid imputation needs (h, w) or (h, w, c) features")
    if msk.shape != feats.shape:
        if msk.shape == feats.shape[:2]:
            msk = np.repeat(msk[..., None], feats.shape[2], axis=2)
        else:
            raise DataError("mask shape does not match grid features")
    h, w, c = feats.shape
    _, spsolve = load_solver()
    # C order makes the reshape below a view, so the solves land in ``out``
    out = np.array(feats, dtype=np.float64, order="C")
    out_planes = out.reshape(h * w, c)
    feat_planes = feats.reshape(h * w, c)
    mask_planes = msk.reshape(h * w, c)

    for ch in range(c):
        mflat = mask_planes[:, ch]
        n_unknown = np.count_nonzero(mflat)
        if n_unknown == 0:
            continue
        if n_unknown == h * w:
            warnings.warn("fully masked grid; using the mean-zero solution")
            out_planes[:, ch] = 0.0
            continue
        A, b = _plane_system(mflat, feat_planes[:, ch], h, w)
        out_planes[mflat, ch] = spsolve(A, b)

    return out[..., 0] if squeeze else out

