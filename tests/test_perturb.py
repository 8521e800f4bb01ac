import importlib.machinery
import importlib.util
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from soco import (
    ConfigError,
    DataError,
    Dataset,
    MapSet,
    completeness_curve,
    generate_synthetic,
    impute_grid,
    soundness_curve,
)
from scipy.linalg.lapack import dpbsv
from scipy.sparse import csr_matrix
from scipy.sparse.linalg import spsolve

from soco import metrics, perturb
from soco.perturb import _neighbor_system, round_half_away

from per_sample import applied_masks, swept_fill

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
    """W's entries pixel by pixel, neighbors in (dr, dc) loop order: rows,
    columns, raw weights, and each pixel's total of raw weights."""
    rows, cols, weights, totals = [], [], [], []
    for r in range(h):
        for c in range(w):
            total = 0.0
            for dr in (-1, 0, 1):
                for dc in (-1, 0, 1):
                    if dr == 0 and dc == 0:
                        continue
                    rr, cc = r + dr, c + dc
                    if 0 <= rr < h and 0 <= cc < w:
                        wgt = 1 / 6 if (dr == 0 or dc == 0) else 1 / 12
                        rows.append(r * w + c)
                        cols.append(rr * w + cc)
                        weights.append(wgt)
                        total += wgt
            totals.append(total)
    return np.array(rows), np.array(cols), np.array(weights), np.array(totals)


def plane_system_coo(mflat: np.ndarray, values: np.ndarray, h: int, w: int):
    """One plane's unscaled (A, b), A = I - W[unknown, unknown] and
    b = W[unknown, known] v, assembled through COO and np.add.at."""
    rows, cols, raw, totals = _neighbor_system(h, w)
    wgts = raw / totals[rows]
    unknown = np.flatnonzero(mflat)
    pos = np.full(h * w, -1, dtype=np.int64)
    pos[unknown] = np.arange(unknown.size)
    take = mflat[rows]  # entries whose row is an unknown pixel
    r_u = pos[rows[take]]
    q = cols[take]
    wq = wgts[take]
    inner = mflat[q]
    a_rows = np.concatenate([np.arange(unknown.size), r_u[inner]])
    a_cols = np.concatenate([np.arange(unknown.size), pos[q[inner]]])
    a_vals = np.concatenate([np.ones(unknown.size), -wq[inner]])
    A = csr_matrix((a_vals, (a_rows, a_cols)), shape=(unknown.size, unknown.size))
    b = np.zeros(unknown.size)
    np.add.at(b, r_u[~inner], wq[~inner] * values[q[~inner]])
    return A, b


def plane_band_loops(mask: np.ndarray, values: np.ndarray):
    """One (h, w) plane's system with each row scaled by its pixel's total,
    built pixel by pixel: LAPACK lower band storage of the matrix, and the
    right-hand side summed over known neighbors in (dr, dc) loop order.
    Unknowns run row-major, so the plane must already have w <= h."""
    h, w = mask.shape
    unknown = [(r, c) for r in range(h) for c in range(w) if mask[r, c]]
    index = {pixel: i for i, pixel in enumerate(unknown)}
    diagonal, below, rhs = [], {}, []
    for i, (r, c) in enumerate(unknown):
        total = acc = 0.0
        for dr in (-1, 0, 1):
            for dc in (-1, 0, 1):
                rr, cc = r + dr, c + dc
                if (dr, dc) == (0, 0) or not (0 <= rr < h and 0 <= cc < w):
                    continue
                wgt = 1 / 6 if (dr == 0 or dc == 0) else 1 / 12
                total += wgt
                if not mask[rr, cc]:
                    acc += wgt * values[rr, cc]
                elif index[rr, cc] > i:
                    below[index[rr, cc], i] = -wgt
        diagonal.append(total)
        rhs.append(acc)
    kd = max((i - j for i, j in below), default=0)
    band = np.zeros((kd + 1, len(unknown)), order="F")
    band[0] = diagonal
    for (i, j), value in below.items():
        band[i - j, j] = value
    return band, np.array(rhs)


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


# -- ranking and masking, as the metrics' sweep builds them ---------------------


def rank_of(values):
    """Flat feature indices of one map by ascending value, ties by index."""
    return metrics._order(np.asarray(values, dtype=np.float64)[None])[0]


def ratio_masks(values, ratios):
    """The soundness sweep's masks of one map at the mask ratios ``ratios``,
    in sweep order, from applying its change sets in order."""
    v = np.asarray(values, dtype=np.float64)[None]
    ks = [round_half_away(r * v.shape[1]) for r in ratios]
    return applied_masks(*metrics._rank_steps(metrics._order(v), ks, True), v.size)


def ratio_mask(values, ratio):
    """The sweep's mask of one map at a mask ratio: its round(ratio * d)
    lowest-ranked features."""
    return ratio_masks(values, [ratio])[0]


def threshold_masks(values, thresholds):
    """Completeness's masks of one map at the descending ``thresholds``,
    from applying its change sets in order (the first, empty, set is the
    clean inputs')."""
    v = np.asarray(values, dtype=np.float64)[None]
    return applied_masks(*metrics._threshold_steps(v, thresholds), v.size)[1:]


def threshold_mask(values, t):
    """Completeness's mask of one map: the features attributed above t."""
    return threshold_masks(values, [t])[0]


def literal_ranks(values):
    """Each feature's position in the stable ascending order of one map."""
    return np.argsort(np.argsort(values, kind="stable"), kind="stable")


def test_rank_features_examples():
    assert rank_of([0.3, 0.1, 0.2]).tolist() == [1, 2, 0]
    assert rank_of([0.5, 0.5]).tolist() == [0, 1]


@given(hnp.arrays(np.float64, st.integers(2, 30), elements=st.floats(0, 1)))
def test_rank_permutation_equivariance(values):
    base = rank_of(values)
    perm = np.random.default_rng(0).permutation(values.size)
    permuted = rank_of(values[perm])
    # permuted map must rank feature perm[j] wherever the original ranked j,
    # up to tie order; compare the sorted value sequences instead
    assert np.array_equal(values[perm][permuted], np.sort(values))
    assert np.array_equal(values[base], np.sort(values))


def test_mask_by_ratio_examples(step_model, small_dataset, gt_maps):
    m = np.arange(10) / 10.0
    assert np.flatnonzero(ratio_mask(m, 0.3)).tolist() == [0, 1, 2]
    assert not ratio_mask(m, 0.0).any()
    assert ratio_mask(m, 1.0).all()
    with pytest.raises(ConfigError):
        soundness_curve(step_model, small_dataset, gt_maps, mask_ratios=(1.5,))


def test_mask_by_threshold_examples():
    m = np.array([0.2, 0.95, 0.5])
    assert np.flatnonzero(threshold_mask(m, 0.9)).tolist() == [1]
    assert not threshold_mask(m, 1.0).any()
    assert threshold_mask(m, 0.0).all()  # strictly positive map


@given(
    hnp.arrays(np.float64, st.integers(1, 40), elements=st.floats(0, 1)),
    st.floats(0, 1),
    st.floats(0, 1),
)
def test_threshold_masks_antitone(values, t1, t2):
    t1, t2 = min(t1, t2), max(t1, t2)
    high, low = threshold_masks(values, [t2, t1])
    assert not np.any(high & ~low)  # mask(t2) subset of mask(t1)
    assert np.array_equal(high, values > t2) and np.array_equal(low, values > t1)


@given(
    hnp.arrays(np.float64, st.integers(1, 40), elements=st.floats(0, 1)),
    st.floats(0, 1),
    st.floats(0, 1),
)
def test_ratio_masks_monotone(values, m1, m2):
    m1, m2 = min(m1, m2), max(m1, m2)
    big, small = ratio_masks(values, [m2, m1])
    assert not np.any(small & ~big)
    ranks = literal_ranks(values)
    for m, mask in ((m2, big), (m1, small)):
        assert np.array_equal(mask, ranks < round_half_away(m * values.size))


def test_round_half_away():
    assert round_half_away(0.5) == 1
    assert round_half_away(1.5) == 2
    assert round_half_away(2.5) == 3  # python round() would give 2
    assert round_half_away(0.49) == 0


# -- imputation ----------------------------------------------------------------


def mean_fill(features, masks):
    """The metrics' mean fill of a tabular batch, with the batch's own means."""
    ds = Dataset(features, np.zeros(len(features)), n_classes=2)
    return swept_fill("mean", ds, features, masks)


def test_impute_tabular_examples():
    # means of the two rows below: (0, 2)
    rows = np.array([[1.0, 2.0], [-1.0, 2.0]])
    out = mean_fill(rows, [[True, False], [False, False]])
    assert out.tolist() == [[0.0, 2.0], [-1.0, 2.0]]
    assert np.array_equal(mean_fill(rows, np.zeros((2, 2), bool)), rows)
    full = mean_fill(rows, np.ones((2, 2), bool))
    assert np.array_equal(full, [[0.0, 2.0], [0.0, 2.0]])


def test_impute_tabular_shape_mismatch(step_model, small_dataset):
    # the masks come from the maps, so maps of another shape never reach the fill
    wrong = MapSet(np.ones((len(small_dataset), small_dataset.n_features + 1)), normalized=True)
    with pytest.raises(DataError, match="shape does not match"):
        completeness_curve(step_model, small_dataset, wrong, imputer="mean")


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


@pytest.mark.parametrize(
    "shape",
    [
        (1, 1, 1), (1, 5, 1), (5, 1, 1), (7, 13, 2), (28, 28, 1), (32, 32, 3),
        (3, 40, 1), (40, 3, 2),
    ],
)
def test_plane_band_matches_loops(shape, rng):
    # bit for bit: the band and right-hand side built pixel by pixel, solved
    # by dpbsv, on each plane turned so that it is no wider than tall
    h, w, c = shape
    single = np.zeros(shape, bool)
    single[h // 2, w // 2] = True
    masks = [np.zeros(shape, bool), single, ~single, np.ones(shape, bool)]
    masks += [rng.random(shape) < p for p in (0.1, 0.5, 0.9)]
    for mask in masks:
        grid = rng.standard_normal(shape)
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", message="fully masked grid")
            out = impute_grid(grid, mask)
        for ch in range(c):
            m, want = mask[..., ch], grid[..., ch].copy()
            got = out[..., ch]
            if w > h:
                m, want, got = m.T, want.T, got.T
            if m.all():
                want[...] = 0.0
            elif m.any():
                band, rhs = plane_band_loops(m, want)
                _, x, info = dpbsv(band, rhs, lower=1)
                assert info == 0
                want[m] = x
            assert np.array_equal(got, want)


@st.composite
def plane_problems(draw):
    """A plane of up to 32 x 32, with a random mask, one pixel left known,
    or a single row or column."""
    h, w = draw(st.integers(1, 32)), draw(st.integers(1, 32))
    kind = draw(st.sampled_from(["random", "all_but_one", "row", "column"]))
    if kind == "row":
        h = 1
    elif kind == "column":
        w = 1
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    if kind == "all_but_one":
        mask = np.ones((h, w), bool)
        mask[draw(st.integers(0, h - 1)), draw(st.integers(0, w - 1))] = False
    else:
        mask = rng.random((h, w)) < draw(st.floats(0.0, 1.0))
    if mask.all():
        mask.flat[draw(st.integers(0, h * w - 1))] = False
    return rng.standard_normal((h, w)), mask


@settings(max_examples=200, deadline=None)
@given(plane_problems())
def test_impute_grid_matches_the_unscaled_sparse_solve(problem):
    grid, mask = problem
    h, w = grid.shape
    mflat, values = mask.reshape(-1), grid.reshape(-1)
    want = values.copy()
    if mflat.any():
        A, b = plane_system_coo(mflat, values, h, w)
        want[mflat] = spsolve(A, b)
    got = impute_grid(grid, mask).reshape(-1)
    assert np.array_equal(got[~mflat], values[~mflat])
    assert np.max(np.abs(got - want)) <= 1e-12


def test_impute_grid_raises_instead_of_filling_when_the_factorisation_fails(monkeypatch, rng):
    def failing_dpbsv(band, rhs, **_):
        return band, rhs, 2  # LAPACK's "leading minor 2 is not positive definite"

    monkeypatch.setattr(perturb, "load_solver", lambda: failing_dpbsv)
    mask = np.zeros((5, 4), bool)
    mask[1:3, 1:3] = True
    with pytest.raises(DataError, match=r"dpbsv info 2"):
        impute_grid(rng.standard_normal((5, 4)), mask)


def test_load_solver_names_the_directory_it_finds_no_lapack_extension_in(monkeypatch, tmp_path):
    package = importlib.machinery.ModuleSpec("scipy.linalg", None, is_package=True)
    package.submodule_search_locations = [str(tmp_path)]
    monkeypatch.setattr(importlib.util, "find_spec", lambda name: package)
    perturb.load_solver.cache_clear()  # the next caller loads the solver again
    with pytest.raises(ImportError) as info:
        perturb.load_solver()
    assert str(info.value) == f"no LAPACK extension scipy.linalg._flapack in {tmp_path}"


@pytest.mark.parametrize("shape", [(7, 5), (7, 5, 3)])
@pytest.mark.parametrize("layout", ["fortran", "transposed", "strided"])
@pytest.mark.parametrize("noise_std", [0.0, 0.3])
def test_impute_grid_ignores_memory_layout(shape, layout, noise_std, rng):
    # the solved planes are written through a view of the output; an input
    # that is not C-ordered must not turn that view into a discarded copy.
    # Checked through the metrics' noisy-linear fill too, which adds its
    # pre-drawn noise to the solve.
    if layout == "fortran":
        grid = np.asfortranarray(rng.standard_normal(shape))
        mask = np.asfortranarray(rng.random(shape) < 0.4)
    elif layout == "transposed":
        axes = (1, 0) + tuple(range(2, len(shape)))
        grid = rng.standard_normal(shape).transpose(axes)
        mask = (rng.random(shape) < 0.4).transpose(axes)
    else:
        grid = rng.standard_normal((2 * shape[0],) + shape[1:])[::2]
        mask = (rng.random((2 * shape[0],) + shape[1:]) < 0.4)[::2]
    mask.flat[0] = True  # one fully known plane would hide nothing
    if len(shape) == 3:
        mask[..., -1] = True  # a fully masked plane as well
    assert not grid.flags.c_contiguous and not mask.flags.c_contiguous
    sample = grid.shape if grid.ndim == 3 else grid.shape + (1,)
    grid_set = Dataset(np.zeros((1,) + sample), [0], n_classes=2)  # gives the fill its shape
    noise = noise_std * np.random.default_rng(3).standard_normal((1,) + sample)
    if noise_std == 0.0:
        noise = None

    def grid_fill(grid, mask):
        """The noisy-linear fill of one step that masks ``mask``."""
        step = (np.flatnonzero(mask), True)
        fills = metrics._grid_fills(grid.reshape(1, -1), grid_set, noise, False, [step])
        return next(fills)[0].reshape(grid.shape)

    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", message="fully masked grid")
        got = impute_grid(grid, mask)
        want = impute_grid(np.ascontiguousarray(grid), np.ascontiguousarray(mask))
        got_fill = grid_fill(grid, mask)
        want_fill = grid_fill(np.ascontiguousarray(grid), np.ascontiguousarray(mask))
    assert np.array_equal(got, want)
    assert not np.array_equal(got[mask], grid[mask])
    assert np.array_equal(got_fill, want_fill)
    assert np.array_equal(got_fill[~mask], grid[~mask])
    with_noise = want if noise is None else want + noise.reshape(grid.shape)
    assert np.array_equal(got_fill[mask], with_noise[mask])


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
    # the package solves a banded reduced system; this rebuilds the full
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
    out = impute_grid(grid, mask)
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
    x = rng.standard_normal((1, 10))
    mask = np.zeros((1, 10), bool)
    mask[0, :4] = True
    ds = Dataset(np.zeros((2, 10)), [0, 1], n_classes=2)
    noise = metrics._predrawn_noise(ds, 0.5, 3)[[True, False]]
    out = swept_fill("mean", ds, x, mask, noise)
    assert np.array_equal(out[~mask], x[~mask])
    assert np.array_equal(out[mask], noise[mask])  # the means are all zero
    assert np.count_nonzero(out[mask]) == 4


def test_noise_determinism():
    ds = Dataset(np.zeros((3, 6)), [0, 1, 0], n_classes=2)
    a = metrics._predrawn_noise(ds, 1.0, 9)
    b = metrics._predrawn_noise(ds, 1.0, 9)
    assert a.shape == (3, 6) and np.array_equal(a, b)
    assert metrics._predrawn_noise(ds, 0.0, 9) is None


class TestImputerDispatch:
    def test_zero_and_mean_on_tabular(self):
        ds = generate_synthetic(10, 4, seed=0)
        x = ds.feature_matrix()[:1]
        mask = np.array([[True, False, True, False]])
        zero = swept_fill("zero", ds, x, mask)
        assert zero[0, 0] == 0.0 and zero[0, 2] == 0.0
        assert zero[0, 1] == x[0, 1] and zero[0, 3] == x[0, 3]
        mean = swept_fill("mean", ds, x, mask)
        assert mean[0, 0] == ds.feature_means[0] and mean[0, 2] == ds.feature_means[2]
        assert mean[0, 1] == x[0, 1]

    def test_noisy_linear_rejects_tabular(self, step_model):
        ds = generate_synthetic(5, 4, seed=0)
        maps = MapSet(np.ones((5, 4)), normalized=True)
        with pytest.raises(ConfigError, match="noisy_linear requires grid"):
            completeness_curve(step_model, ds, maps, imputer="noisy_linear")
