from fractions import Fraction

import numpy as np
import pytest

from fracarray import (
    SensorArray,
    beampattern,
    cantor,
    difference_coarray,
    economy,
    expand,
    fractal_weight,
    product_beampattern,
    ula,
    weight_expand,
)
from conftest import (
    S_ELEMS,
    G_ELEMS,
    oracle_collision_free,
    oracle_essential,
    oracle_fragility,
    oracle_hole_free,
    random_elements,
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


@pytest.mark.parametrize("seed", range(25))
def test_fast_essentialness_equals_removal_definition(seed):
    rng = np.random.default_rng(seed)
    elems = random_elements(rng, 14)
    arr = SensorArray(elems)
    fast = economy(arr)
    direct = economy(arr, direct=True)
    assert fast.essential == direct.essential
    assert fast.fragility == direct.fragility
    flags = oracle_essential(elems)
    assert fast.essential == tuple(e for e, f in zip(elems, flags) if f)
    assert fast.fragility == oracle_fragility(elems)


def test_fast_essentialness_on_pool(small_pool):
    for elems in small_pool:
        arr = SensorArray(elems)
        rep = economy(arr)
        assert rep.fragility == oracle_fragility(elems)
        assert rep.essential == economy(arr, direct=True).essential


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
