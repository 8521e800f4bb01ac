import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from soco import (
    ConfigError,
    DataError,
    MapSet,
    ModScheme,
    OracleInfo,
    apply_scheme,
    normalize_attribution,
    oracle_info,
)
from soco.modify import DIRECTIONS, SCHEME_KINDS

from per_sample import apply_scheme_per_map, per_map_oracles


def amap(values):
    """A one-map set."""
    return MapSet(np.asarray(values, dtype=float)[None], normalized=True)


def apply_one(values, oracle=None, **scheme):
    """apply_scheme on a one-map set; the map's stream is keyed by index 0."""
    return apply_scheme(amap(values), ModScheme(**scheme), oracle).values[0]


# -- constant shift ----------------------------------------------------------------


def test_constant_remove_shifts_and_clips():
    out = apply_one([0.9, 0.5, 0.1], kind="constant", magnitude=0.6)
    np.testing.assert_allclose(out, [0.3, 0.0, 0.0], atol=1e-12)


def test_constant_introduce_clips_at_one():
    out = apply_one([0.9, 0.5, 0.0], kind="constant", direction="introduce", magnitude=0.6)
    np.testing.assert_allclose(out, [1.0, 1.0, 0.6], atol=1e-12)


def test_constant_preserves_interior_order():
    out = apply_one([0.95, 0.8, 0.7, 0.65], kind="constant", magnitude=0.3)
    assert np.all(np.diff(out) < 0)  # strictly decreasing stays so


def test_constant_rejects_bad_direction():
    with pytest.raises(ConfigError):
        ModScheme(kind="constant", direction="sideways")


# -- random shift ------------------------------------------------------------------


def test_random_zero_span_is_identity():
    vals = [0.2, 0.7, 1.0]
    out = apply_one(vals, kind="random", magnitude=0.0, seed=3)
    np.testing.assert_array_equal(out, vals)


def test_random_remove_never_increases():
    vals = np.linspace(0, 1, 50)
    out = apply_one(vals, kind="random", magnitude=0.6, seed=11)
    assert np.all(out <= vals + 1e-15)
    assert np.any(out < vals)


def test_random_shift_mean_matches_span():
    # all-ones map and span [-0.6, 0] never clip, so the mean shift is -0.3
    out = apply_one(np.full(100_000, 1.0), kind="random", magnitude=0.6, seed=0)
    assert np.mean(1.0 - out) == pytest.approx(0.3, abs=0.01)


def test_random_is_seed_deterministic():
    vals = np.linspace(0, 1, 20)
    scheme = dict(kind="random", direction="introduce", magnitude=0.4)
    a = apply_one(vals, seed=9, **scheme)
    b = apply_one(vals, seed=9, **scheme)
    c = apply_one(vals, seed=10, **scheme)
    np.testing.assert_array_equal(a, b)
    assert np.any(a != c)


# -- partial bands -----------------------------------------------------------------


def test_partial_remove_zeroes_upper_band():
    vals = np.linspace(0.05, 1.0, 10)  # rank i holds vals[i]
    out = apply_one(vals, kind="partial")
    # ranks 6 and 7 of ten features fall in the (0.6, 0.8] band
    assert out[6] == 0.0
    assert out[7] == 0.0
    kept = [i for i in range(10) if i not in (6, 7)]
    np.testing.assert_array_equal(out[kept], vals[kept])


def test_partial_introduce_raises_lower_band():
    vals = np.linspace(0.05, 1.0, 10)
    q = np.quantile(vals, 0.8)
    out = apply_one(vals, kind="partial", direction="introduce")
    changed = out != vals
    assert changed[:4].all() and not changed[4:].any()
    assert np.all(out[:4] >= min(q, vals[3]) - 1e-12)
    assert np.all(out <= 1.0)


def test_partial_requires_enough_features():
    with pytest.raises(DataError, match="too small for partial"):
        apply_one([0.1, 0.2, 0.3, 0.4], kind="partial")


# -- synthetic remove --------------------------------------------------------------


def test_synth_remove_zero_fraction_is_identity():
    vals = [0.0, 0.4, 0.8, 1.0]
    out = apply_one(vals, kind="synth_remove", fraction=0.0, seed=1)
    np.testing.assert_array_equal(out, vals)


def test_synth_remove_zeroes_a_support_subset():
    vals = np.linspace(0, 1, 40)
    out = apply_one(vals, kind="synth_remove", fraction=0.5, seed=4)
    support = vals > 0
    zeroed = (out == 0) & support
    assert zeroed.sum() == round(0.5 * support.sum())
    untouched = ~zeroed
    np.testing.assert_array_equal(out[untouched], vals[untouched])


def test_synth_remove_renormalize_restores_unit_max():
    out = apply_one(np.linspace(0, 1, 40), kind="synth_remove", fraction=0.9, seed=4,
                    renormalize=True)
    assert out.max() == pytest.approx(1.0)


def test_synth_remove_rejects_empty_support_and_full_removal():
    with pytest.raises(DataError, match="no positive support"):
        apply_one([0.0, 0.0], kind="synth_remove", fraction=0.3)
    with pytest.raises(DataError, match="entire support"):
        apply_one([0.5, 1.0], kind="synth_remove", fraction=1.0)
    # the first map that fails is the one reported, as in a map-by-map loop
    both = MapSet([[0.5, 1.0, 0.0], [0.0, 0.0, 0.0]], normalized=True)
    with pytest.raises(DataError, match="entire support"):
        apply_scheme(both, ModScheme(kind="synth_remove", fraction=0.9))
    with pytest.raises(DataError, match="no positive support"):
        apply_scheme(MapSet(both.values[::-1], normalized=True),
                     ModScheme(kind="synth_remove", fraction=0.9))


# -- synthetic introduce -----------------------------------------------------------


@pytest.fixture(scope="module")
def tiny_world():
    from soco import generate_synthetic, ground_truth_attribution

    ds = generate_synthetic(12, 30, seed=3)
    return ds, ground_truth_attribution(ds), oracle_info(ds)


def introduce(maps, oracles, fraction, magnitude, seed):
    scheme = ModScheme(kind="synth_introduce", direction="introduce", fraction=fraction,
                       magnitude=magnitude, seed=seed)
    return apply_scheme(maps, scheme, oracles).values


def test_synth_introduce_targets_uninformative_zeros(tiny_world):
    ds, maps, oracles = tiny_world
    out = introduce(maps, oracles, 0.5, 0.7, seed=2)
    new = (out > 0) & (maps.values == 0)
    assert new.any()
    assert not np.any(new & oracles.informative)
    peak = np.broadcast_to(out.max(axis=1, keepdims=True), out.shape)
    assert np.all(out[new] <= 0.7 / peak[new] + 1e-12)


def test_synth_introduce_keeps_existing_support(tiny_world):
    ds, maps, oracles = tiny_world
    out = introduce(maps, oracles, 0.4, 0.5, seed=6)
    old = maps.values > 0
    assert np.all(out[old] > 0)


def test_synth_introduce_fraction_zero_changes_nothing(tiny_world):
    ds, maps, oracles = tiny_world
    out = introduce(maps, oracles, 0.0, 0.5, seed=6)
    np.testing.assert_allclose(out, maps.values, atol=1e-12)


# -- scheme application ------------------------------------------------------------


def test_apply_scheme_remove_never_increases(tiny_world):
    ds, maps, oracles = tiny_world
    scheme = ModScheme(kind="constant", direction="remove", magnitude=0.3)
    out = apply_scheme(maps, scheme)
    assert np.all(out.values <= maps.values + 1e-15)


def test_apply_scheme_introduce_never_decreases(tiny_world):
    ds, maps, oracles = tiny_world
    scheme = ModScheme(kind="random", direction="introduce", magnitude=0.4, seed=8)
    out = apply_scheme(maps, scheme)
    assert np.all(out.values >= maps.values - 1e-15)


def test_apply_scheme_uses_per_map_streams(tiny_world):
    ds, maps, oracles = tiny_world
    scheme = ModScheme(kind="synth_remove", fraction=0.4, seed=5)
    out = apply_scheme(maps, scheme)
    # same seed, distinct per-map keys: removal patterns differ across maps
    zeroed = [tuple(np.flatnonzero((m > 0) & (o == 0)))
              for m, o in zip(maps.values, out.values)]
    assert len(set(zeroed)) > 1


def test_apply_scheme_synth_introduce_needs_oracle(tiny_world):
    ds, maps, oracles = tiny_world
    scheme = ModScheme(kind="synth_introduce", fraction=0.3, magnitude=0.5)
    with pytest.raises(ConfigError, match="oracle"):
        apply_scheme(maps, scheme)
    short = OracleInfo(phi=oracles.phi[:-1], informative=oracles.informative[:-1])
    with pytest.raises(DataError, match="one oracle entry per map"):
        apply_scheme(maps, scheme, oracle=short)
    narrow = OracleInfo(phi=oracles.phi[:, :-1], informative=oracles.informative[:, :-1])
    with pytest.raises(DataError, match="oracle shape"):
        apply_scheme(maps, scheme, oracle=narrow)
    with pytest.raises(ConfigError, match="magnitude"):
        apply_scheme(maps, ModScheme(kind="synth_introduce", magnitude=0.0), oracle=oracles)
    out = apply_scheme(maps, scheme, oracle=oracles)
    assert len(out) == len(maps)


def test_scheme_defaults_resolve_per_kind():
    assert ModScheme(kind="constant").resolved_magnitude() == 0.6
    assert ModScheme(kind="random").resolved_magnitude() == 0.6
    assert ModScheme(kind="synth_introduce").resolved_magnitude() == 0.5
    assert ModScheme(kind="constant", magnitude=0.25).resolved_magnitude() == 0.25


def test_scheme_validation():
    with pytest.raises(ConfigError):
        ModScheme(kind="blur")
    with pytest.raises(ConfigError):
        ModScheme(kind="constant", direction="both")
    with pytest.raises(ConfigError):
        ModScheme(kind="synth_remove", fraction=1.5)


# -- the stacked schemes against the per-map oracle --------------------------------


@st.composite
def scheme_problems(draw):
    if draw(st.booleans()):
        shape = (draw(st.integers(1, 40)),)
    else:
        shape = (draw(st.integers(1, 5)), draw(st.integers(1, 5)), draw(st.integers(1, 3)))
    n = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    size = (n,) + shape
    # few distinct levels, so maps carry ties and exact zeros
    density = draw(st.sampled_from((0.3, 0.9, 1.0)))
    raw = rng.integers(0, 4, size=size) * (rng.random(size) < density)
    raw.reshape(n, -1)[:, rng.integers(0, raw[0].size)] = 4  # mass in every map
    if draw(st.integers(0, 3)) == 0:
        raw[0] = 0  # an all-zero map
    maps = normalize_attribution(raw.astype(np.float64))
    phi = rng.standard_normal(size)
    scheme = ModScheme(
        kind=draw(st.sampled_from(SCHEME_KINDS)),
        direction=draw(st.sampled_from(DIRECTIONS)),
        magnitude=draw(st.sampled_from((-1.0, 0.0, 0.25, 1.0))),
        fraction=draw(st.sampled_from((0.0, 0.1, 0.3, 0.5, 0.9, 0.999, 1.0))),
        seed=draw(st.integers(0, 1000)),
        renormalize=draw(st.booleans()),
    )
    return maps, scheme, OracleInfo(phi=phi, informative=phi > 0)


def outcome(run):
    try:
        return run()
    except (ConfigError, DataError) as exc:
        return type(exc), str(exc)


@settings(max_examples=800, deadline=None)
@given(scheme_problems())
def test_stacked_schemes_match_the_per_map_oracle(problem):
    maps, scheme, oracle = problem
    got = outcome(lambda: apply_scheme(maps, scheme, oracle).values)
    want = outcome(lambda: np.stack(
        apply_scheme_per_map(maps.values, scheme, per_map_oracles(oracle))
    ))
    if isinstance(want, tuple):
        assert got == want
    else:
        assert np.array_equal(got, want) and got.tobytes() == want.tobytes()
