"""The grid neighbor solve behind the noisy-linear fill, and ratio rounding.

The metrics fill masked features with zeros, with dataset means, or by
solving the grid neighbor-average linear system (masked pixels become
weighted averages of their 8-neighbors, direct neighbors weighted twice as
heavily as diagonal ones), optionally plus Gaussian noise on the imputed
entries only; the metric options ``imputer`` and ``noise_std`` choose the
fill.  The metrics' sweep engine keeps the masks, the zero and mean fills
and the noise; ``impute_grid`` solves one grid for the noisy-linear fill.
``round_half_away`` turns every ratio into a feature count.

scipy serves only that solve, through LAPACK's banded Cholesky: its LAPACK
extension alone is loaded on first use (``load_solver``), never the
``scipy.linalg`` package, and not with this module.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import warnings

import numpy as np

from .core import ConfigError, DataError

# 8-neighborhood weights before border renormalization
_DIRECT_W = 1.0 / 6.0
_DIAGONAL_W = 1.0 / 12.0


def round_half_away(x: float) -> int:
    """round() with .5 going away from zero, used for every count derived from a ratio."""
    if x < 0:
        raise ConfigError(f"negative count {x}")
    return int(np.floor(x + 0.5))


@functools.cache
def load_solver():
    """LAPACK's banded Cholesky solver ``dpbsv``, loaded on the first call.

    Only scipy's LAPACK extension ``scipy.linalg._flapack`` is loaded, from
    the directory of the ``scipy.linalg`` package, whose own init (about 280
    more modules) never runs; the routine is the one
    ``scipy.linalg.lapack.dpbsv`` names.  After ``import soco`` this costs
    about 3 MiB and 0.02 s, where importing ``scipy.linalg`` cost about
    20 MiB and 0.3 s, and only the noisy-linear fill needs it.  A process
    that forks lanes to solve grids calls this before it forks, so that
    every lane inherits the solver instead of loading it itself.
    """
    name = "scipy.linalg._flapack"
    # the package's directory; this imports the top-level scipy only
    where = importlib.util.find_spec("scipy.linalg").submodule_search_locations[0]
    extensions = (importlib.machinery.ExtensionFileLoader, importlib.machinery.EXTENSION_SUFFIXES)
    spec = importlib.machinery.FileFinder(where, extensions).find_spec(name)
    if spec is None:
        raise ImportError(f"no LAPACK extension {name} in {where}", name=name, path=where)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.dpbsv


# 8-neighborhood offsets in the order their entries appear in each row of W
_OFFSETS = tuple(
    (dr, dc) for dr in (-1, 0, 1) for dc in (-1, 0, 1) if (dr, dc) != (0, 0)
)
# distinct grid shapes whose neighbor system stays built
_NEIGHBOR_CACHE_SIZE = 8


@functools.lru_cache(maxsize=_NEIGHBOR_CACHE_SIZE)
def _neighbor_system(
    h: int, w: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per-pixel neighbor indices, raw weights and border-renormalization totals.

    Returns (rows, cols, weights, totals): entry i says that pixel rows[i]
    averages pixel cols[i] with raw weight weights[i] (1/6 for a direct
    neighbor, 1/12 for a diagonal one), and totals[p] is the sum of pixel
    p's raw weights, so W[p, q] = weight / totals[p] and each row of W sums
    to one.  Entries run row-major by pixel, then through ``_OFFSETS``;
    ``_plane_band`` sums the right-hand side in that order.  The arrays are
    cached per shape and read-only.
    """
    r, c = np.divmod(np.arange(h * w), w)
    dr, dc = np.array(_OFFSETS).T
    rr, cc = r[:, None] + dr, c[:, None] + dc
    inside = (rr >= 0) & (rr < h) & (cc >= 0) & (cc < w)
    wgt = np.array([_DIRECT_W if 0 in off else _DIAGONAL_W for off in _OFFSETS])
    # cumsum adds each row's weights one by one in entry order, which fixes
    # the totals' rounding; a pairwise sum could differ in the last bit
    totals = np.cumsum(np.where(inside, wgt, 0.0), axis=1)[:, -1]
    rows, k = np.nonzero(inside)  # row-major: by pixel, then by offset
    cols = rr[rows, k] * w + cc[rows, k]
    weights = wgt[k]
    for arr in (rows, cols, weights, totals):
        arr.flags.writeable = False
    return rows, cols, weights, totals


def _plane_band(
    mflat: np.ndarray, values: np.ndarray, h: int, w: int
) -> tuple[np.ndarray, np.ndarray]:
    """D(I - W) x = D b for the masked pixels of one flat (h * w) plane.

    The reduced system A x = b, with A = I - W[unknown, unknown] and
    b = W[unknown, known] v, has each row scaled by its pixel's total D, so
    the matrix holds the totals on its diagonal and the exact negated raw
    weights (-1/6, -1/12) off it: symmetric, and positive definite once any
    pixel is known.  Unknowns run in ascending flat index, so two coupled
    unknowns lie at most w + 1 apart.  Returns the matrix in LAPACK's lower
    band storage, ``(kd + 1, n)`` and Fortran-ordered, with kd the largest
    distance between coupled unknowns, and the right-hand side, the raw
    weights times the known values summed entry by entry in W's row-major
    order.
    """
    rows, cols, weights, totals = _neighbor_system(h, w)
    unknown = np.flatnonzero(mflat)
    pos = np.cumsum(mflat) - 1  # index among the unknowns, for masked pixels
    row_in = mflat[rows]
    col_in = mflat[cols]
    below = row_in & col_in & (cols > rows)  # one entry of each coupled pair
    column = pos[rows[below]]
    offset = pos[cols[below]] - column
    band = np.zeros((unknown.size, int(offset.max(initial=0)) + 1))
    band[:, 0] = totals[unknown]
    band[column, offset] = -weights[below]
    in_b = row_in & ~col_in
    rhs = np.bincount(
        pos[rows[in_b]], weights=weights[in_b] * values[cols[in_b]], minlength=unknown.size
    )
    return band.T, rhs


def impute_grid(features: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Linear neighbor imputation on an (h, w) or (h, w, c) grid.

    Masked pixels satisfy x_p = sum_q W[p, q] * x_q with unmasked pixels as
    boundary values; each channel is solved independently.  The neighbor
    system W is built once per grid shape and reused; each channel's reduced
    system, scaled to a symmetric positive definite band (``_plane_band``),
    is solved by LAPACK's banded Cholesky ``dpbsv``.  A plane wider than it
    is tall is solved transposed, so the band is at most min(h, w) + 2
    wide.  When everything is masked the system is homogeneous and the
    mean-zero solution (all zeros) is used, with a warning.  The noise of
    the noisy-linear imputer is not drawn here: the metrics add their
    pre-drawn noise to the fill.

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
    dpbsv = load_solver()
    out = np.array(feats, dtype=np.float64)

    for ch in range(feats.shape[2]):
        # views into ``out``, so the solves land there
        plane, mplane = out[..., ch], msk[..., ch]
        if plane.shape[1] > plane.shape[0]:
            plane, mplane = plane.T, mplane.T
        n_unknown = np.count_nonzero(mplane)
        if n_unknown == 0:
            continue
        if n_unknown == plane.size:
            warnings.warn("fully masked grid; using the mean-zero solution")
            plane[...] = 0.0
            continue
        band, rhs = _plane_band(mplane.reshape(-1), plane.reshape(-1), *plane.shape)
        _, x, info = dpbsv(band, rhs, lower=1, overwrite_ab=1, overwrite_b=1)
        if info != 0:
            raise DataError(
                f"no Cholesky factor for the masked {plane.shape[0]}x{plane.shape[1]} "
                f"neighbor system (LAPACK dpbsv info {info})"
            )
        plane[mplane] = x

    return out[..., 0] if squeeze else out
