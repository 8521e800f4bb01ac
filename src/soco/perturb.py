"""Feature ranking, masking, and imputation.

Masking is defined on the flattened (row-major) feature order so tabular and
grid maps share one rank semantics.  Imputation fills masked features either
with zeros, with dataset means, or by solving the grid neighbor-average
linear system (masked pixels become weighted averages of their 8-neighbors,
direct neighbors weighted twice as heavily as diagonal ones), optionally
plus Gaussian noise on the imputed entries only.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.linalg import spsolve

from .core import AttributionMap, ConfigError, DataError, Dataset, Mask

IMPUTER_KINDS = ("zero", "mean", "noisy_linear")

# 8-neighborhood weights before border renormalization
_DIRECT_W = 1.0 / 6.0
_DIAGONAL_W = 1.0 / 12.0


def round_half_away(x: float) -> int:
    """round() with .5 going away from zero, used for every count derived from a ratio."""
    if x < 0:
        raise ConfigError(f"negative count {x}")
    return int(np.floor(x + 0.5))


def rank_features(attr_map: AttributionMap) -> np.ndarray:
    """Flat feature indices sorted by ascending attribution, ties by ascending index."""
    return np.argsort(attr_map.flat(), axis=0, kind="stable")


def mask_by_ratio(attr_map: AttributionMap, ratio: float) -> Mask:
    """Mask exactly round(ratio * d) lowest-attribution features.

    The unmasked complement is therefore the top-attribution set of the map.
    """
    if not 0.0 <= ratio <= 1.0:
        raise ConfigError(f"mask ratio outside [0, 1]: {ratio}")
    k = round_half_away(ratio * attr_map.size)
    order = rank_features(attr_map)
    flat = np.zeros(attr_map.size, dtype=bool)
    flat[order[:k]] = True
    return flat.reshape(attr_map.values.shape)


def mask_by_threshold(attr_map: AttributionMap, threshold: float) -> Mask:
    """Mask features with attribution strictly greater than ``threshold``."""
    return attr_map.values > threshold


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


def default_noise_std(dataset: Dataset, fraction: float = 0.01) -> float:
    """Noise scale as a fraction of the observed feature value range."""
    feats = dataset.feature_matrix()
    return fraction * float(feats.max() - feats.min())


def _add_noise(
    filled: np.ndarray, mask: Mask, noise_std: float, rng: Optional[np.random.Generator]
) -> np.ndarray:
    if noise_std == 0.0:
        return filled
    if rng is None:
        raise ConfigError("imputation noise requested without a generator")
    noisy = filled.copy()
    noisy[mask] += noise_std * rng.standard_normal(int(mask.sum()))
    return noisy


def impute_tabular(
    features: np.ndarray,
    mask: Mask,
    means: np.ndarray,
    noise_std: float = 0.0,
    rng: Optional[np.random.Generator] = None,
) -> np.ndarray:
    """Replace masked entries with their dataset mean plus optional noise."""
    if features.shape != mask.shape or features.shape != means.shape:
        raise DataError("features, mask, and means must share one shape")
    filled = np.where(mask, means, features)
    return _add_noise(filled, mask, noise_std, rng)


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
    that order fixes how ``impute_grid`` accumulates its right-hand side.
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


def impute_grid(
    features: np.ndarray,
    mask: Mask,
    noise_std: float = 0.0,
    rng: Optional[np.random.Generator] = None,
) -> np.ndarray:
    """Noisy linear imputation on an (h, w) or (h, w, c) grid.

    Masked pixels satisfy x_p = sum_q W[p, q] * x_q with unmasked pixels as
    boundary values; each channel is solved independently.  The neighbor
    system W is built once per grid shape and reused.  When everything
    is masked the system is homogeneous and the mean-zero solution (all
    zeros) is used, with a warning.  Noise is added to imputed pixels only,
    after the solve.
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
    out = feats.astype(np.float64).copy()

    rows, cols, wgts = _neighbor_system(h, w)
    for ch in range(c):
        mflat = msk[:, :, ch].reshape(-1)
        vflat = feats[:, :, ch].reshape(-1)
        unknown = np.flatnonzero(mflat)
        if unknown.size == 0:
            continue
        if unknown.size == h * w:
            warnings.warn("fully masked grid; using the mean-zero solution")
            out[:, :, ch] = 0.0
            continue
        pos = np.full(h * w, -1, dtype=np.int64)
        pos[unknown] = np.arange(unknown.size)
        take = mflat[rows]  # entries whose row is an unknown pixel
        r_u = pos[rows[take]]
        q = cols[take]
        wq = wgts[take]
        inner = mflat[q]
        # A x = b with A = I - W[unknown, unknown], b = W[unknown, known] v
        a_rows = np.concatenate([np.arange(unknown.size), r_u[inner]])
        a_cols = np.concatenate([np.arange(unknown.size), pos[q[inner]]])
        a_vals = np.concatenate([np.ones(unknown.size), -wq[inner]])
        A = csr_matrix((a_vals, (a_rows, a_cols)), shape=(unknown.size, unknown.size))
        b = np.zeros(unknown.size)
        np.add.at(b, r_u[~inner], wq[~inner] * vflat[q[~inner]])
        solved = spsolve(A, b)
        plane = out[:, :, ch].reshape(-1)
        plane[unknown] = solved
        out[:, :, ch] = plane.reshape(h, w)

    out = _add_noise(out, msk, noise_std, rng)
    return out[..., 0] if squeeze else out


def apply_imputer(
    features: np.ndarray,
    mask: Mask,
    imputer: Imputer,
    dataset: Dataset,
    rng: Optional[np.random.Generator] = None,
) -> np.ndarray:
    """Dispatch one sample through the configured imputer."""
    if imputer.kind == "zero":
        filled = np.where(mask, 0.0, features)
        return _add_noise(filled, mask, imputer.noise_std, rng)
    if imputer.kind == "mean":
        return impute_tabular(features, mask, dataset.feature_means, imputer.noise_std, rng)
    if features.ndim not in (2, 3):
        raise ConfigError("noisy_linear requires grid-shaped samples")
    return impute_grid(features, mask, imputer.noise_std, rng)
