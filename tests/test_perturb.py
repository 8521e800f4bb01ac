import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from soco import (
    AttributionMap,
    ConfigError,
    DataError,
    Imputer,
    generate_synthetic,
    impute_grid,
    impute_tabular,
    mask_by_ratio,
    mask_by_threshold,
    rank_features,
)
from soco.perturb import (
    _neighbor_system,
    apply_imputer,
    default_noise_std,
    round_half_away,
)

# -- reference implementations (kept deliberately naive) ----------------------


def dense_neighbor_solve(features: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Direct dense solve of the neighbor-average system, one channel."""
    h, w = features.shape
    n = h * w
    W = np.zeros((n, n))
    for r in range(h):
        for c in range(w):
            p = r * w + c
            for dr, dc, base in (
                (-1, 0, 1 / 6), (1, 0, 1 / 6), (0, -1, 1 / 6), (0, 1, 1 / 6),
                (-1, -1, 1 / 12), (-1, 1, 1 / 12), (1, -1, 1 / 12), (1, 1, 1 / 12),
            ):
                rr, cc = r + dr, c + dc
                if 0 <= rr < h and 0 <= cc < w:
                    W[p, rr * w + cc] = base
            W[p] /= W[p].sum()
    v = features.reshape(-1).astype(float).copy()
    m = mask.reshape(-1)
    idx = np.flatnonzero(m)
    known = np.flatnonzero(~m)
    A = np.eye(idx.size) - W[np.ix_(idx, idx)]
    b = W[np.ix_(idx, known)] @ v[known]
    v[idx] = np.linalg.solve(A, b)
    return v.reshape(h, w)


def neighbor_system_loops(h: int, w: int):
    """W's entries pixel by pixel, neighbors in (dr, dc) loop order."""
    rows, cols, weights = [], [], []
    for r in range(h):
        for c in range(w):
            entries = []
            for dr in (-1, 0, 1):
                for dc in (-1, 0, 1):
                    if dr == 0 and dc == 0:
                        continue
                    rr, cc = r + dr, c + dc
                    if 0 <= rr < h and 0 <= cc < w:
                        wgt = 1 / 6 if (dr == 0 or dc == 0) else 1 / 12
                        entries.append((rr * w + cc, wgt))
            total = sum(wgt for _, wgt in entries)
            for q, wgt in entries:
                rows.append(r * w + c)
                cols.append(q)
                weights.append(wgt / total)
    return np.array(rows), np.array(cols), np.array(weights)


def neighbor_average(values: np.ndarray, r: int, c: int) -> float:
    h, w = values.shape
    total_w = 0.0
    acc = 0.0
    for dr in (-1, 0, 1):
        for dc in (-1, 0, 1):
            if dr == dc == 0:
                continue
            rr, cc = r + dr, c + dc
            if 0 <= rr < h and 0 <= cc < w:
                wgt = 1 / 6 if (dr == 0 or dc == 0) else 1 / 12
                total_w += wgt
                acc += wgt * values[rr, cc]
    return acc / total_w


# -- ranking and masking -------------------------------------------------------


def test_rank_features_examples():
    assert rank_features(AttributionMap(np.array([0.3, 0.1, 0.2]))).tolist() == [1, 2, 0]
    assert rank_features(AttributionMap(np.array([0.5, 0.5]))).tolist() == [0, 1]


@given(hnp.arrays(np.float64, st.integers(2, 30), elements=st.floats(0, 1)))
def test_rank_permutation_equivariance(values):
    base = rank_features(AttributionMap(values))
    perm = np.random.default_rng(0).permutation(values.size)
    permuted = rank_features(AttributionMap(values[perm]))
    # permuted map must rank feature perm[j] wherever the original ranked j,
    # up to tie order; compare the sorted value sequences instead
    assert np.array_equal(values[perm][permuted], np.sort(values))
    assert np.array_equal(values[base], np.sort(values))


def test_mask_by_ratio_examples():
    m = AttributionMap(np.arange(10) / 10.0)
    assert np.flatnonzero(mask_by_ratio(m, 0.3)).tolist() == [0, 1, 2]
    assert not mask_by_ratio(m, 0.0).any()
    assert mask_by_ratio(m, 1.0).all()
    with pytest.raises(ConfigError):
        mask_by_ratio(m, 1.5)


def test_mask_by_threshold_examples():
    m = AttributionMap(np.array([0.2, 0.95, 0.5]), normalized=True)
    assert np.flatnonzero(mask_by_threshold(m, 0.9)).tolist() == [1]
    assert not mask_by_threshold(m, 1.0).any()
    assert mask_by_threshold(m, 0.0).all()  # strictly positive map


@given(
    hnp.arrays(np.float64, st.integers(1, 40), elements=st.floats(0, 1)),
    st.floats(0, 1),
    st.floats(0, 1),
)
def test_threshold_masks_antitone(values, t1, t2):
    t1, t2 = min(t1, t2), max(t1, t2)
    m = AttributionMap(values, normalized=True)
    high = mask_by_threshold(m, t2)
    low = mask_by_threshold(m, t1)
    assert not np.any(high & ~low)  # mask(t2) subset of mask(t1)


@given(
    hnp.arrays(np.float64, st.integers(1, 40), elements=st.floats(0, 1)),
    st.floats(0, 1),
    st.floats(0, 1),
)
def test_ratio_masks_monotone(values, m1, m2):
    m1, m2 = min(m1, m2), max(m1, m2)
    amap = AttributionMap(values, normalized=True)
    small = mask_by_ratio(amap, m1)
    big = mask_by_ratio(amap, m2)
    assert not np.any(small & ~big)


def test_round_half_away():
    assert round_half_away(0.5) == 1
    assert round_half_away(1.5) == 2
    assert round_half_away(2.5) == 3  # python round() would give 2
    assert round_half_away(0.49) == 0


# -- imputation ----------------------------------------------------------------


def test_impute_tabular_examples():
    out = impute_tabular(
        np.array([1.0, 2.0]), np.array([True, False]), np.zeros(2)
    )
    assert out.tolist() == [0.0, 2.0]
    x = np.array([3.0, 4.0])
    assert np.array_equal(impute_tabular(x, np.zeros(2, bool), np.ones(2)), x)
    means = np.array([9.0, 8.0])
    assert np.array_equal(impute_tabular(x, np.ones(2, bool), means), means)


def test_impute_tabular_shape_mismatch():
    with pytest.raises(DataError):
        impute_tabular(np.zeros(3), np.zeros(2, bool), np.zeros(3))


@pytest.mark.parametrize("h, w", [(1, 1), (1, 5), (5, 1), (2, 2), (3, 7), (28, 28)])
def test_neighbor_system_matches_loops_in_order(h, w):
    got = _neighbor_system(h, w)
    for have, want in zip(got, neighbor_system_loops(h, w)):
        assert np.array_equal(have, want)
    again = _neighbor_system(h, w)
    assert all(a is b for a, b in zip(again, got))
    for arr in got:
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[...] = 0


def test_impute_grid_constant_field_fixed_point(rng):
    grid = np.full((5, 5), 2.5)
    mask = rng.random((5, 5)) < 0.5
    assert np.allclose(impute_grid(grid, mask), 2.5)


def test_impute_grid_single_hole_surrounded_by_ones():
    grid = np.ones((3, 3))
    grid[1, 1] = 99.0
    mask = np.zeros((3, 3), bool)
    mask[1, 1] = True
    assert impute_grid(grid, mask)[1, 1] == pytest.approx(1.0)


def test_impute_grid_matches_dense_solve(rng):
    # the package solves a sparse reduced system; this rebuilds the full
    # dense one from scratch and compares
    for trial in range(8):
        h, w = rng.integers(2, 8, size=2)
        grid = rng.standard_normal((h, w))
        mask = rng.random((h, w)) < 0.4
        if mask.all():
            mask[0, 0] = False
        got = impute_grid(grid, mask)
        want = dense_neighbor_solve(grid, mask)
        assert np.allclose(got, want, atol=1e-9)


def test_impute_grid_residual_property(rng):
    grid = rng.standard_normal((9, 7))
    mask = rng.random((9, 7)) < 0.35
    out = impute_grid(grid, mask)
    for r, c in zip(*np.nonzero(mask)):
        assert abs(out[r, c] - neighbor_average(out, r, c)) < 1e-6


def test_impute_grid_preserves_unmasked(rng):
    grid = rng.standard_normal((6, 6))
    mask = rng.random((6, 6)) < 0.5
    out = impute_grid(grid, mask, noise_std=0.7, rng=np.random.default_rng(0))
    assert np.array_equal(out[~mask], grid[~mask])


def test_impute_grid_fully_masked_warns_zeros():
    grid = np.ones((3, 3))
    with pytest.warns(UserWarning, match="fully masked"):
        out = impute_grid(grid, np.ones((3, 3), bool))
    assert np.array_equal(out, np.zeros((3, 3)))


def test_impute_grid_channels_independent(rng):
    grid = rng.standard_normal((4, 4, 2))
    mask = rng.random((4, 4)) < 0.4
    out = impute_grid(grid, mask)
    for ch in range(2):
        assert np.allclose(out[:, :, ch], impute_grid(grid[:, :, ch], mask))


def test_noise_only_on_masked_positions(rng):
    x = rng.standard_normal(10)
    mask = np.zeros(10, bool)
    mask[:4] = True
    out = impute_tabular(x, mask, np.zeros(10), noise_std=0.5, rng=np.random.default_rng(3))
    assert np.array_equal(out[~mask], x[~mask])
    assert not np.array_equal(out[mask], np.zeros(4))


def test_noise_determinism():
    x = np.zeros(6)
    mask = np.ones(6, bool)
    a = impute_tabular(x, mask, np.zeros(6), 1.0, np.random.default_rng(9))
    b = impute_tabular(x, mask, np.zeros(6), 1.0, np.random.default_rng(9))
    assert np.array_equal(a, b)


def test_noise_without_rng_rejected():
    with pytest.raises(ConfigError):
        impute_tabular(np.zeros(3), np.ones(3, bool), np.zeros(3), noise_std=0.1)


class TestImputerDispatch:
    def test_kinds_validated(self):
        with pytest.raises(ConfigError):
            Imputer(kind="oracle")
        with pytest.raises(ConfigError):
            Imputer(noise_std=-1.0)

    def test_zero_and_mean_on_tabular(self):
        ds = generate_synthetic(10, 4, seed=0)
        x = ds.samples[0].features
        mask = np.array([True, False, True, False])
        zero = apply_imputer(x, mask, Imputer(kind="zero"), ds)
        assert zero[0] == 0.0 and zero[2] == 0.0
        mean = apply_imputer(x, mask, Imputer(kind="mean"), ds)
        assert mean[0] == ds.feature_means[0]

    def test_noisy_linear_rejects_tabular(self):
        ds = generate_synthetic(5, 4, seed=0)
        with pytest.raises(ConfigError):
            apply_imputer(
                ds.samples[0].features,
                np.ones(4, bool),
                Imputer(kind="noisy_linear"),
                ds,
            )


def test_default_noise_std_is_range_fraction():
    ds = generate_synthetic(20, 6, seed=1)
    feats = ds.feature_matrix()
    expected = 0.01 * (feats.max() - feats.min())
    assert default_noise_std(ds) == pytest.approx(expected)
