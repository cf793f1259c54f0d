from fractions import Fraction

import numpy as np
import pytest

import fracarray.core
from fracarray import (
    SensorArray,
    beampattern,
    cantor,
    coprime,
    difference_coarray,
    economy,
    expand,
    fractal_weight,
    nested,
    product_beampattern,
    ula,
)
from conftest import (
    S_ELEMS,
    G_ELEMS,
    oracle_collision_free,
    oracle_economy,
    oracle_essential,
    oracle_fractal_weight,
    oracle_hole_free,
    oracle_weight_map,
    random_elements,
    weight_expand,
)


def test_weight_expand_spreads_support():
    w = np.array([4, 1, 1, 0, 1], dtype=np.int64)
    out = weight_expand(w, 3)
    assert out.dtype == np.int64
    assert out.shape == (13,)
    assert list(out[::3]) == [4, 1, 1, 0, 1]
    stripped = np.delete(out, np.arange(0, 13, 3))
    assert not stripped.any()


def test_weight_expand_identity_and_errors():
    w = np.array([2, 1], dtype=np.int64)
    assert np.array_equal(weight_expand(w, 1), w)
    with pytest.raises(ValueError):
        weight_expand(w, 0)


def test_fractal_weight_order_one_is_plain_count():
    gen = SensorArray((0, 1, 4, 6))
    assert np.array_equal(fractal_weight(gen, 1), difference_coarray(gen).counts)


def test_fractal_weight_order_zero():
    assert list(fractal_weight(SensorArray((0, 1, 4, 6)), 0)) == [1]


@pytest.mark.parametrize("r", (1, 2, 3))
def test_fractal_weight_matches_counted_weights(r):
    gen = SensorArray((0, 1, 4, 6))
    via_conv = fractal_weight(gen, r)
    counted = difference_coarray(expand(gen, r)).counts
    assert via_conv.shape == counted.shape
    assert np.array_equal(via_conv, counted)


@pytest.mark.parametrize("seed", range(10))
def test_fractal_weight_matches_counted_weights_random(seed):
    # the convolution identity needs the expansion to keep every translate
    # distinct, so draws whose blocks collide are resampled
    rng = np.random.default_rng(seed)
    while True:
        gen = SensorArray(random_elements(rng, 8))
        if oracle_collision_free(gen.elements, 3):
            break
    for r in (2, 3):
        assert np.array_equal(
            fractal_weight(gen, r), difference_coarray(expand(gen, r)).counts
        )


def test_fractal_weight_scope_boundary():
    # when translates collide the expansion loses sensors and the closed form
    # overcounts; this pins the hypothesis instead of hiding it
    gen = SensorArray((0, 3, 4))
    grown = expand(gen, 2)
    assert len(grown) < len(gen) ** 2
    w = fractal_weight(gen, 2)
    assert int(w[0]) == 11  # predicts more sensor pairs than survive
    assert int(difference_coarray(grown).counts[0]) == len(grown)


# random generators, then ones whose order-2 translates collide (so the
# closed form overcounts): the sparse route must match the dense one on both
RANDOM_GENERATORS = [random_elements(np.random.default_rng(500 + s), 6) for s in range(12)]
COLLIDING = [(0, 3, 4), (0, 2, 5), (0, 1, 5, 7), (0, 4, 5, 6)]


@pytest.mark.parametrize("elems", RANDOM_GENERATORS + COLLIDING)
def test_fractal_weight_equals_dense_convolution(elems):
    for r in range(5):
        w = fractal_weight(SensorArray(elems), r)
        dense = oracle_fractal_weight(elems, r)
        assert w.dtype == dense.dtype == np.int64
        assert np.array_equal(w, dense)


def test_colliding_generators_collide():
    assert not any(oracle_collision_free(e, 2) for e in COLLIDING)


def test_fractal_weight_total_mass():
    # weights always sum to (number of sensors)^2 over the full coarray
    gen = cantor(2)
    for r in (1, 2, 3):
        w = fractal_weight(gen, r)
        n = len(expand(gen, r))
        assert 2 * int(w.sum()) - int(w[0]) == n * n


def test_beampattern_basics():
    arr = SensorArray((0, 1, 4, 6))
    om = np.linspace(-np.pi, np.pi, 101)
    bp = beampattern(arr, om)
    assert bp.values.dtype == np.float64
    assert bp.values[50] == pytest.approx(16.0)  # omega = 0 gives N^2
    assert np.allclose(bp.values, bp.values[::-1], atol=1e-12)  # even in omega


def test_beampattern_single_sensor_is_flat():
    bp = beampattern(SensorArray((0,)), np.linspace(-3, 3, 17))
    assert np.allclose(bp.values, 1.0)


def test_beampattern_matches_direct_exponential_sum():
    rng = np.random.default_rng(7)
    arr = SensorArray(random_elements(rng, 25))
    om = rng.uniform(-np.pi, np.pi, size=64)
    direct = np.abs(
        np.exp(1j * om[:, None] * arr.as_array()[None, :]).sum(axis=1)
    ) ** 2
    bp = beampattern(arr, om)
    assert np.allclose(bp.values, direct, rtol=1e-10, atol=1e-9)


def test_beampattern_chunks_sum_each_row_like_a_lone_omega():
    # aperture 14,280 fits 280 omega rows in one chunk of the cosine table,
    # so 600 samples span three chunks; every row must come out bit-equal
    # to a transform of that omega alone
    arr = expand(SensorArray((0, 1, 4, 6)), 4)
    om = np.linspace(-np.pi, np.pi, 600)
    w = difference_coarray(arr).counts
    lags = np.arange(1, w.size)
    wf = w[1:].astype(float)
    oracle = np.array([w[0] + 2.0 * (wf * np.cos(o * lags)).sum() for o in om])
    assert np.array_equal(beampattern(arr, om).values, oracle)


def test_beampattern_of_profile_equals_beampattern_of_array():
    arr = SensorArray((0, 1, 4, 6), name="g")
    for a in (arr, expand(arr, 3)):
        om = np.linspace(-np.pi, np.pi, 257)
        direct = beampattern(a, om)
        reused = beampattern(difference_coarray(a), om)
        assert reused.values.tobytes() == direct.values.tobytes()
        assert reused.source == direct.source
        assert np.array_equal(reused.omegas, direct.omegas)


@pytest.mark.parametrize("seed", range(6))
def test_product_beampattern_matches_expanded_direct(seed):
    rng = np.random.default_rng(40 + seed)
    while True:
        gen = SensorArray(random_elements(rng, 8))
        if oracle_collision_free(gen.elements, 3):
            break
    om = np.linspace(-np.pi, np.pi, 256, endpoint=False)
    for r in (2, 3):
        prod = product_beampattern(gen, r, om)
        direct = beampattern(expand(gen, r), om)
        scale = max(direct.values.max(), 1.0)
        assert np.max(np.abs(prod.values - direct.values)) / scale < 1e-9


def test_economy_all_essential():
    rep = economy(SensorArray((0, 1, 4, 6)))
    assert rep.essential == (0, 1, 4, 6)
    assert rep.inessential == ()
    assert rep.fragility == 1
    assert rep.maximally_economic
    assert rep.satisfies_C1


@pytest.mark.parametrize("n", (4, 5, 8, 13))
def test_ula_fragility_two_over_n(n):
    rep = economy(ula(n))
    assert rep.essential == (0, n - 1)
    assert rep.fragility == Fraction(2, n)
    assert not rep.maximally_economic


def test_tiny_ulas_fully_essential():
    assert economy(ula(2)).fragility == 1
    assert economy(ula(3)).fragility == 1


def test_single_sensor_is_essential_by_convention():
    rep = economy(SensorArray((0,)))
    assert rep.fragility == 1
    assert rep.maximally_economic
    assert rep.satisfies_C1


def test_reference_design_fragilities():
    s = economy(SensorArray(S_ELEMS))
    assert s.fragility == Fraction(3, 11)
    g = economy(SensorArray(G_ELEMS))
    assert g.fragility == Fraction(3, 10)


def test_expanded_reference_fragility():
    s2 = economy(expand(SensorArray(S_ELEMS), 2))
    assert s2.fragility == Fraction(4, 121)
    g2 = economy(expand(SensorArray(G_ELEMS), 2))
    assert g2.fragility == Fraction(9, 100)


def _middle_only(elems):
    # essential sensors that end no weight-1 pair: only the middle of a
    # g - d, g, g + d triple at a weight-2 lag makes them essential
    w = oracle_weight_map(elems)
    ends = {g for g in elems for h in elems if h != g and w[g - h] == 1}
    return [g for g, f in zip(elems, oracle_essential(elems)) if f and g not in ends]


def _assert_pair_route_matches_oracles(elems):
    assert economy(SensorArray(elems)) == oracle_economy(elems)


@pytest.mark.parametrize("seed", range(25))
def test_fast_essentialness_equals_removal_definition(seed):
    rng = np.random.default_rng(seed)
    _assert_pair_route_matches_oracles(random_elements(rng, 14))


def test_fast_essentialness_on_pool(small_pool):
    middles = 0
    for elems in small_pool:
        _assert_pair_route_matches_oracles(elems)
        middles += len(elems) > 1 and bool(_middle_only(elems))
    assert middles > 0


@pytest.mark.parametrize("seed", range(10))
def test_pair_route_on_random_arrays_with_inessential_sensors(seed):
    # sparse draws (12-16 sensors over apertures 30-60) so that some
    # sensors are inessential and some are essential only as a middle
    rng = np.random.default_rng(700 + seed)
    while True:
        span = int(rng.integers(30, 61))
        inner = rng.choice(np.arange(1, span), int(rng.integers(10, 15)), replace=False)
        elems = tuple(sorted({0, span, *map(int, inner)}))
        if not all(oracle_essential(elems)) and _middle_only(elems):
            break
    _assert_pair_route_matches_oracles(elems)


@pytest.mark.parametrize("arr", (
    expand(SensorArray(S_ELEMS), 2),
    coprime(3, 4),
    nested(4, 4),
), ids=("S^2", "coprime(3,4)", "nested(4,4)"))
def test_pair_route_on_reference_arrays(arr):
    _assert_pair_route_matches_oracles(arr.elements)


def test_pair_route_across_chunk_boundaries(monkeypatch):
    # a tiny budget splits even small arrays into many pair blocks
    monkeypatch.setattr(fracarray.core, "PAIR_BUDGET", 7)
    rng = np.random.default_rng(11)
    for _ in range(20):
        elems = random_elements(rng, 40, min_aperture=10)
        arr = SensorArray(elems)
        pos = arr.as_array()
        blocks = list(fracarray.core.pair_blocks(pos))
        assert len(blocks) > 1
        pairs = sorted((i + r, i + 1 + c) for i, d in blocks for r, c in zip(*np.nonzero(d > 0)))
        n = len(elems)
        assert pairs == [(i, j) for i in range(n) for j in range(i + 1, n)]
        assert all(d.size <= 7 or d.shape[0] == 1 for _, d in blocks)
        w = oracle_weight_map(elems)
        assert difference_coarray(arr).counts.tolist() == [
            w.get(lag, 0) for lag in range(arr.aperture + 1)]
        _assert_pair_route_matches_oracles(elems)


@pytest.mark.parametrize("arr", (
    SensorArray((0,)),
    SensorArray((0, 1, 4, 6)),
    ula(7),
    coprime(3, 4),
    expand(SensorArray(G_ELEMS), 2),
))
def test_economy_of_profile_equals_economy_of_array(arr):
    assert economy(difference_coarray(arr)) == economy(arr) == oracle_economy(arr.elements)


def test_laws_one_order_higher():
    # (0,1,4,6)^6: N = 4096, aperture 2,413,404; the pair pass spans
    # several blocks at this size
    gen = SensorArray((0, 1, 4, 6))
    big = expand(gen, 6)
    prof = difference_coarray(big)
    assert len(list(fracarray.core.pair_blocks(big.as_array()))) > 1
    assert prof.hole_free and prof.dof == 13 ** 6
    w = fractal_weight(gen, 6)
    assert w.dtype == prof.counts.dtype and np.array_equal(w, prof.counts)
    rep = economy(prof)
    assert rep.fragility <= economy(gen).fragility
    assert rep.satisfies_C1


def test_weight_one_condition_implies_maximal_economy(small_pool):
    for elems in small_pool:
        rep = economy(SensorArray(elems))
        if rep.satisfies_C1:
            assert rep.maximally_economic
        if rep.maximally_economic:
            assert rep.fragility == 1


def test_weight_one_condition_survives_expansion(small_pool):
    # hypothesis: generator coarray hole-free (otherwise the claim can fail)
    for elems in small_pool:
        arr = SensorArray(elems)
        if not oracle_hole_free(elems) or not economy(arr).satisfies_C1:
            continue
        for r in (2, 3):
            assert economy(expand(arr, r)).satisfies_C1


def test_fragility_never_grows_under_expansion(small_pool):
    for elems in small_pool:
        arr = SensorArray(elems)
        if not oracle_hole_free(elems) or len(arr) < 2:
            continue
        base = economy(arr).fragility
        for r in (2, 3):
            assert economy(expand(arr, r)).fragility <= base


def test_essential_plus_inessential_partition():
    rng = np.random.default_rng(99)
    for _ in range(10):
        elems = random_elements(rng, 20)
        rep = economy(SensorArray(elems))
        merged = tuple(sorted(rep.essential + rep.inessential))
        assert merged == elems
