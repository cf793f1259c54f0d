from fractions import Fraction

import numpy as np
import pytest

import fracarray.analysis
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
    mra,
    nested,
    product_beampattern,
    ula,
)
from conftest import (
    S_ELEMS,
    G_ELEMS,
    arrays_with_aperture_upto,
    mixed_sequences,
    oracle_central_halfwidth,
    oracle_collision_free,
    oracle_differences,
    oracle_economy,
    oracle_essential,
    oracle_fractal_weight,
    oracle_grid_beampattern,
    oracle_hole_free,
    oracle_product,
    oracle_weight_map,
    random_elements,
    random_products,
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
    bp = beampattern(SensorArray((0,)), np.linspace(-np.pi, np.pi, 17))
    assert np.allclose(bp.values, 1.0)


def test_beampattern_matches_direct_exponential_sum():
    rng = np.random.default_rng(7)
    arr = SensorArray(random_elements(rng, 25))
    om = np.linspace(-np.pi, np.pi, 64)
    direct = np.abs(
        np.exp(1j * om[:, None] * arr.as_array()[None, :]).sum(axis=1)
    ) ** 2
    bp = beampattern(arr, om)
    assert np.allclose(bp.values, direct, rtol=1e-10, atol=1e-9)


@pytest.mark.parametrize("om", [
    np.linspace(-np.pi, np.pi, 256, endpoint=False),
    np.linspace(-np.pi, np.pi, 101)[:-1],
    np.random.default_rng(3).uniform(-np.pi, np.pi, 77),
    np.linspace(-np.pi, np.pi, 101) * (1 + 1e-15),
    np.linspace(-np.pi, np.pi, 101).reshape(1, -1),
], ids=["endpoint-false", "grid-prefix", "random", "nudged-grid", "2-d"])
def test_off_grid_omegas_are_rejected(om):
    gen = SensorArray((0, 1, 4, 6))
    for call in (lambda: beampattern(gen, om),
                 lambda: product_beampattern(gen, 2, om),
                 lambda: product_beampattern([gen, SensorArray((0, 1))], 2, om)):
        with pytest.raises(ValueError, match=r"np\.linspace\(-pi, pi, S\)"):
            call()


_GRID_ARRAYS = {"S": SensorArray(S_ELEMS)}
_GRID_ARRAYS.update((f"g^{r}", expand(SensorArray((0, 1, 4, 6)), r)) for r in range(1, 6))


@pytest.fixture(scope="module")
def grid_profiles():
    return {key: difference_coarray(arr) for key, arr in _GRID_ARRAYS.items()}


@pytest.mark.parametrize("samples", [1, 2, 3, 14, 101, 1024])
@pytest.mark.parametrize("key", list(_GRID_ARRAYS))
def test_grid_beampattern_matches_exact_phase_oracle(grid_profiles, key, samples):
    # lags -A..A alias when L < 2A + 1: on every array at 3 samples, on all
    # but g^1 (L = 13 = 2A + 1 exactly) at 14, from g^2 on at 101 and from
    # g^3 on at 1024
    arr, prof = _GRID_ARRAYS[key], grid_profiles[key]
    om = np.linspace(-np.pi, np.pi, samples)
    bp = beampattern(arr, om)
    # the fixture's coarray is the one beampattern read
    assert difference_coarray(arr) is prof
    n2 = len(arr) ** 2
    assert np.array_equal(bp.omegas, om)
    assert bp.values.shape == (samples,)
    oracle = oracle_grid_beampattern(prof.counts, samples)
    assert np.max(np.abs(bp.values - oracle)) <= 1e-14 * n2
    assert bp.values[-1] == bp.values[0]
    assert np.array_equal(bp.values, bp.values[::-1])


@pytest.mark.parametrize("samples", [1, 2, 3, 101, 1024])
def test_grid_product_beampattern_matches_expanded_direct(grid_profiles, samples):
    gen = SensorArray((0, 1, 4, 6))
    om = np.linspace(-np.pi, np.pi, samples)
    for r in range(6):
        prod = product_beampattern(gen, r, om)
        big = _GRID_ARRAYS[f"g^{r}"] if r else SensorArray((0,))
        direct = beampattern(big, om)
        if r:
            assert difference_coarray(big) is grid_profiles[f"g^{r}"]
        assert np.max(np.abs(prod.values - direct.values)) <= 1e-14 * 16 ** r


@pytest.mark.parametrize("seed", range(4))
def test_grid_product_beampattern_on_random_generators(seed):
    rng = np.random.default_rng(70 + seed)
    while True:
        gen = SensorArray(random_elements(rng, 9))
        if oracle_collision_free(gen.elements, 3):
            break
    for samples in (2, 64, 257):
        om = np.linspace(-np.pi, np.pi, samples)
        for r in (1, 2, 3):
            prod = product_beampattern(gen, r, om).values
            direct = beampattern(expand(gen, r), om).values
            assert np.max(np.abs(prod - direct)) <= 1e-13 * len(gen) ** (2 * r)


def test_beampattern_of_profile_equals_beampattern_of_array():
    # a coarray built first is the one beampattern reads, and it gives the
    # bytes an array without a coarray yet gets from its own
    om = np.linspace(-np.pi, np.pi, 257)
    gen = SensorArray((0, 1, 4, 6), name="g")
    for elems in (gen.elements, expand(gen, 3).elements):
        a = SensorArray(elems)
        prof = difference_coarray(a)
        reused = beampattern(a, om)
        assert difference_coarray(a) is prof
        direct = beampattern(SensorArray(elems), om)
        assert reused.values.tobytes() == direct.values.tobytes()
        assert np.array_equal(reused.omegas, direct.omegas)
        oracle = oracle_grid_beampattern(prof.counts, om.size)
        assert np.max(np.abs(reused.values - oracle)) <= 1e-14 * len(a) ** 2


@pytest.mark.parametrize("seed", range(6))
def test_weight_and_beampattern_laws_for_mixed_sequences(seed, hole_free_pool):
    # one hole-free generator per order: the weights are the stretched
    # convolution bit for bit, and the beampattern the stretched product
    om = np.linspace(-np.pi, np.pi, 257)
    for gens in mixed_sequences(hole_free_pool, np.random.default_rng(80 + seed), 5):
        for r in (1, 2, 3):
            big = expand(gens, r)
            counted = difference_coarray(big).counts
            w = fractal_weight(gens, r)
            assert w.dtype == counted.dtype and np.array_equal(w, counted)
            prod = product_beampattern(gens, r, om).values
            direct = beampattern(big, om).values
            assert np.max(np.abs(prod - direct)) <= 1e-9 * len(big) ** 2


def test_laws_take_a_repeated_sequence_as_the_one_generator_form():
    gen = SensorArray((0, 1, 2, 6, 9))
    om = np.linspace(-np.pi, np.pi, 101)
    for r in (1, 2, 3):
        assert np.array_equal(fractal_weight([gen] * 3, r), fractal_weight(gen, r))
        assert (product_beampattern([gen] * r, r, om).values.tobytes()
                == product_beampattern(gen, r, om).values.tobytes())


@pytest.mark.parametrize("seed", range(6))
def test_product_beampattern_matches_expanded_direct(seed):
    rng = np.random.default_rng(40 + seed)
    while True:
        gen = SensorArray(random_elements(rng, 8))
        if oracle_collision_free(gen.elements, 3):
            break
    om = np.linspace(-np.pi, np.pi, 257)
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


def _assert_pair_route_matches_oracles(elems, monkeypatch=None):
    expected = oracle_economy(elems)
    assert economy(SensorArray(elems)) == expected
    if monkeypatch is not None:
        # one folded row per block from four sensors up, so the economy
        # walk can stop between blocks
        with monkeypatch.context() as m:
            m.setattr(fracarray.core, "PAIR_BUDGET", 7)
            assert economy(SensorArray(elems)) == expected


def _spy_walks(monkeypatch):
    # the first row of every block economy's walk takes, one list per walk
    walks = []

    def spy(pos, rows=None):
        walks.append([])
        for g, d in fracarray.core.pair_blocks(pos, rows):
            walks[-1].append(g)
            yield g, d

    monkeypatch.setattr(fracarray.analysis, "pair_blocks", spy)
    return walks


@pytest.mark.parametrize("seed", range(25))
def test_fast_essentialness_equals_removal_definition(seed, monkeypatch):
    rng = np.random.default_rng(seed)
    _assert_pair_route_matches_oracles(random_elements(rng, 14), monkeypatch)


def test_fast_essentialness_on_pool(small_pool, monkeypatch):
    middles = 0
    for elems in small_pool:
        _assert_pair_route_matches_oracles(elems)
        middles += len(elems) > 1 and bool(_middle_only(elems))
    assert middles > 0
    monkeypatch.setattr(fracarray.core, "PAIR_BUDGET", 7)
    walks = _spy_walks(monkeypatch)
    for elems in small_pool:
        assert economy(SensorArray(elems)) == oracle_economy(elems)
    # some walks stop before their last block, row 1
    assert any(w and w[-1] > 1 for w in walks)


def test_economy_stops_once_every_sensor_ends_a_weight_one_pair(monkeypatch):
    # (0,1,4,6)^4: 256 sensors, every one ending a weight-1 pair; the walk
    # is 8 blocks of 16 rows, from row 128 down. economy counts this array
    # from its factors, so the pair pass is called on its positions directly
    arr = expand(SensorArray((0, 1, 4, 6)), 4)
    assert economy(arr) == oracle_economy(arr.elements)
    walks = _spy_walks(monkeypatch)
    ends, _ = fracarray.analysis._pair_pass(arr.as_array(), difference_coarray(arr).counts)
    assert ends.all()
    (starts,) = walks
    assert starts[0] == 113 and 1 < starts[-1]


def _sparse_with_middle_only(seed):
    # sparse draws (12-16 sensors over apertures 30-60) until some sensors
    # are inessential and some are essential only as a middle
    rng = np.random.default_rng(700 + seed)
    while True:
        span = int(rng.integers(30, 61))
        inner = rng.choice(np.arange(1, span), int(rng.integers(10, 15)), replace=False)
        elems = tuple(sorted({0, span, *map(int, inner)}))
        if not all(oracle_essential(elems)) and _middle_only(elems):
            return elems


def test_economy_walks_every_block_for_a_middle_only_sensor(monkeypatch):
    # a sensor that is essential only as the middle of a weight-2 triple
    # ends no weight-1 pair, so the stop never fires
    monkeypatch.setattr(fracarray.core, "PAIR_BUDGET", 7)
    elems = _sparse_with_middle_only(0)
    walks = _spy_walks(monkeypatch)
    assert economy(SensorArray(elems)) == oracle_economy(elems)
    assert walks == [list(range(len(elems) // 2, 0, -1))]


@pytest.mark.parametrize("seed", range(10))
def test_pair_route_on_random_arrays_with_inessential_sensors(seed, monkeypatch):
    _assert_pair_route_matches_oracles(_sparse_with_middle_only(seed), monkeypatch)


@pytest.mark.parametrize("arr", (
    expand(SensorArray(S_ELEMS), 2),
    coprime(3, 4),
    nested(4, 4),
), ids=("S^2", "coprime(3,4)", "nested(4,4)"))
def test_pair_route_on_reference_arrays(arr):
    _assert_pair_route_matches_oracles(arr.elements)


def _assert_folded_walk(elems, rows=None):
    # every pair i < j in exactly one block entry, at its lag; the only zero
    # entries are the repeated second half of row n/2 for even n
    pos = np.asarray(elems, dtype=np.int64)
    n = pos.size
    views = list(fracarray.core.pair_blocks(pos, rows))
    assert all(d.base is views[0][1].base for _, d in views)  # one reused buffer
    blocks = [(g, d.copy()) for g, d in fracarray.core.pair_blocks(pos, rows)]
    top, pairs, zeros = n // 2, [], 0
    for g, d in blocks:
        assert g + d.shape[0] - 1 == top >= g >= 1
        assert d.size <= fracarray.core.PAIR_BUDGET or d.shape[0] == 1
        top = g - 1
        for r, c in np.ndindex(d.shape):
            if d[r, c] == 0:
                assert n % 2 == 0 and g + r == n // 2 and c >= n // 2
                zeros += 1
                continue
            i, j = sorted((c, (c + g + r) % n))
            assert d[r, c] == pos[j] - pos[i]
            pairs.append((i, j))
    assert top == 0
    assert zeros == (n // 2 if n % 2 == 0 else 0)
    assert sorted(pairs) == [(i, j) for i in range(n) for j in range(i + 1, n)]
    return blocks


def test_pair_route_across_chunk_boundaries(monkeypatch):
    # a tiny budget gives one folded row per block from four sensors up
    monkeypatch.setattr(fracarray.core, "PAIR_BUDGET", 7)
    rng = np.random.default_rng(11)
    drawn = [random_elements(rng, 40, min_aperture=10) for _ in range(20)]
    assert {len(e) % 2 for e in drawn} == {0, 1}
    for elems in [(0,), (0, 3), (0, 1, 5), *drawn]:
        n = len(elems)
        blocks = _assert_folded_walk(elems)
        assert len(blocks) == n // 2
        with monkeypatch.context() as m:
            m.setattr(fracarray.core, "PAIR_BUDGET", 4_000_000)
            for rows in (None, 1, 2, 3):
                _assert_folded_walk(elems, rows)
        # the zeroed repeat adds nothing: lag 0 counts the n sensors
        arr = SensorArray(elems)
        w = oracle_weight_map(elems)
        assert difference_coarray(arr).counts.tolist() == [
            w.get(lag, 0) for lag in range(arr.aperture + 1)]
        assert economy(arr) == oracle_economy(elems)


@pytest.mark.parametrize("arr", (
    SensorArray((0,)),
    SensorArray((0, 1, 4, 6)),
    ula(7),
    coprime(3, 4),
    expand(SensorArray(G_ELEMS), 2),
))
def test_economy_of_profile_equals_economy_of_array(arr):
    # economy of an array whose coarray is built equals that of a fresh one
    # and the oracle, and leaves the built coarray in place
    prof = difference_coarray(arr)
    assert economy(arr) == economy(SensorArray(arr.elements)) == oracle_economy(arr.elements)
    assert difference_coarray(arr) is prof


def test_laws_one_order_higher():
    # (0,1,4,6)^6: N = 4096, aperture 2,413,404; the folded walk over its
    # 2,048 rows spans several budget-sized blocks at this size
    gen = SensorArray((0, 1, 4, 6))
    big = expand(gen, 6)
    prof = difference_coarray(big)
    starts = [g for g, _ in fracarray.core.pair_blocks(big.as_array())]
    assert len(starts) > 1 and starts[-1] == 1
    assert prof.hole_free and prof.dof == 13 ** 6
    w = fractal_weight(gen, 6)
    assert w.dtype == prof.counts.dtype and np.array_equal(w, prof.counts)
    rep = economy(big)
    assert difference_coarray(big) is prof
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


# The product route: an array X = G + m * Y of FACTOR_MIN sensors or more
# has its counts and essential sensors from its factors. The oracle tests
# lower the switch with the factor_from_four fixture, so that arrays small
# enough for the removal definition take that route.

def _assert_summary(prof, elems):
    # dof, hole_free and the half-width each equal their definition on the
    # set of differences
    h = oracle_central_halfwidth(elems)
    assert (prof.dof, prof.hole_free, prof.central_ula_halfwidth, prof.ula_size) == (
        len(oracle_differences(elems)), oracle_hole_free(elems), h, 2 * h + 1)
    assert type(prof.dof) is int and type(prof.hole_free) is bool
    assert type(prof.central_ula_halfwidth) is int


def _assert_route(arr, factored):
    # the coarray took the route named; its summary equals the oracle's,
    # and a factored profile has built no counts for it, nor for economy,
    # which equals the removal definition; its counts, once read, equal the
    # oracle's and the direct walk's, element for element and in dtype
    prof = difference_coarray(arr)
    assert (prof.factors is not None) is factored
    _assert_summary(prof, arr.elements)
    rep = economy(arr)
    assert rep == oracle_economy(arr.elements)
    assert ("counts" in vars(prof)) is not factored
    w = oracle_weight_map(arr.elements)
    walked = fracarray.core._pair_counts(arr.as_array())
    assert prof.counts.dtype == walked.dtype == np.int64
    assert prof.counts.tolist() == walked.tolist() == [
        w.get(lag, 0) for lag in range(arr.aperture + 1)]
    assert not prof.counts.flags.writeable
    return rep


def test_product_route_on_expansions_of_the_hole_free_pool(hole_free_pool, factor_from_four):
    reps = []
    for elems in hole_free_pool:
        gen = SensorArray(elems)
        for r in (2, 3):
            if len(gen) ** r <= 64:
                reps.append(_assert_route(expand(gen, r), len(gen) > 1))
    assert len(reps) > 100 and not all(rep.satisfies_C1 for rep in reps)
    assert not all(rep.maximally_economic for rep in reps)


@pytest.mark.parametrize("seed", range(4))
def test_product_route_on_mixed_sequences(seed, hole_free_pool, factor_from_four):
    rng = np.random.default_rng(500 + seed)
    for gens in mixed_sequences([g for g in hole_free_pool if len(g) <= 4], rng, 10):
        for r in (2, 3):
            _assert_route(expand(gens, r), True)


@pytest.mark.parametrize("seed", range(6))
def test_product_route_on_random_products(seed, factor_from_four):
    # G holed or not, m above its least value, Y a product in a third
    reps = [_assert_route(SensorArray(elems), True)
            for elems in random_products(np.random.default_rng(900 + seed), 40)
            if len(elems) <= 40]
    assert len(reps) >= 20 and not all(rep.maximally_economic for rep in reps)


def test_product_route_on_cantor_arrays(factor_from_four):
    for r in range(2, 6):
        assert _assert_route(cantor(r), True).satisfies_C1


def test_arrays_that_do_not_factor_take_the_walk(factor_from_four):
    rng = np.random.default_rng(41)
    # holed generators that are no product themselves: their expansions
    # space the copies by m = |U| < 2 * max(G) + 1
    holed = [SensorArray(e) for e in arrays_with_aperture_upto(7)
             if 2 < len(e) <= 4 and not oracle_hole_free(e)
             and fracarray.core._factor(np.asarray(e)) is None]
    assert len(holed) > 10
    for gen in holed:
        for r in (2, 3):
            _assert_route(expand(gen, r), False)
    for arr in (ula(12), nested(4, 4), nested(6, 5), coprime(3, 4), coprime(5, 7), mra(8),
                mra(10)):
        _assert_route(arr, False)
    # a product with its second sensor moved to a free position
    moved = 0
    for elems in random_products(rng, 40):
        free = sorted(set(range(elems[-1])) - set(elems))
        if 4 < len(elems) <= 40 and free:
            moved += 1
            pick = free[int(rng.integers(len(free)))]
            _assert_route(SensorArray(elems[:1] + elems[2:] + (pick,)), False)
    assert moved >= 20


def test_fault_survivors_take_the_walk():
    # DOA survivors of (0,1,4,6)^2 are under the switch arrays use, even
    # where a failure leaves a product behind
    assert fracarray.core.FACTOR_MIN > 16
    full = expand(SensorArray((0, 1, 4, 6)), 2).as_array()
    rng = np.random.default_rng(43)
    for p in (0.1, 0.25, 0.5):
        for _ in range(10):
            alive = full[rng.random(full.size) >= p]
            if alive.size:
                _assert_route(SensorArray(alive.tolist()), False)
    # the 12 sensors left when every copy loses its 6 are (0,1,4) + 13 (0,1,4,6)
    survivors = SensorArray([e for e in full.tolist() if e % 13 != 6])
    assert fracarray.core._factor(survivors.as_array()) == (3, 13)
    _assert_route(survivors, False)


def test_factor_takes_the_smallest_block_and_the_gcd_of_the_translates():
    factor = fracarray.core._factor
    assert factor(expand(SensorArray((0, 1, 4, 6)), 3).as_array()) == (4, 13)
    assert factor(cantor(5).as_array()) == (2, 3)
    # translates 0, 30, 60 share m = 30 > 2 * 6, though 13 would serve
    assert factor(np.asarray(oracle_product((0, 1, 4, 6), 30, (0, 1, 2)))) == (4, 30)
    # m = 2 * max(G) leaves lag 6 = 6 + 0 m = -6 + 1 m ambiguous
    assert factor(np.asarray(oracle_product((0, 1, 4, 6), 12, (0, 1, 3)))) is None
    for elems in [(0,), (0, 1), (0, 1, 2), (0, 5)]:
        assert factor(np.asarray(elems)) is None


@pytest.mark.parametrize("arr", (
    expand(SensorArray((0, 1, 4, 6)), 4),
    expand(SensorArray((0, 1, 2, 6, 9)), 4),
    cantor(8),
    expand([SensorArray(e) for e in ((0, 1, 2), (0, 1, 4, 6), (0, 1, 2, 6, 9), (0, 1, 4, 6),
                                     (0, 2, 3))], 5),
), ids=("(0,1,4,6)^4", "MRA(5)^4", "cantor(8)", "mixed"))
def test_product_route_at_the_switch_equals_the_walk(arr, monkeypatch):
    assert len(arr) >= fracarray.core.FACTOR_MIN
    prof = difference_coarray(arr)
    rep = economy(arr)
    assert prof.factors is not None
    monkeypatch.setattr(fracarray.core, "FACTOR_MIN", len(arr) + 1)
    fresh = SensorArray(arr.elements)
    walked = difference_coarray(fresh)
    assert walked.factors is None
    assert prof.counts.dtype == walked.counts.dtype and np.array_equal(prof.counts, walked.counts)
    assert economy(fresh) == rep


@pytest.mark.parametrize("g, m, y, halfwidth", [
    ((0, 1, 4, 9), 19, (0, 1, 4, 6), 1),    # G has a hole: h_G
    ((0, 1, 4, 9), 19, (0, 1, 4, 9), 1),    # G and Y have holes: h_G
    ((0, 1, 4, 6), 14, (0, 1, 4, 6), 6),    # m > |U_G|: the gap after max(G)
    ((0, 1, 4, 6), 20, (0, 1, 2), 6),
    ((0, 1, 4, 6), 13, (0, 1, 4, 9), 19),   # m = |U_G|: max(G) + m h_Y
    ((0, 1, 4, 6), 13, (0, 1, 2), 32),      # ... hole-free, h_Y = max(Y)
    ((0, 1, 2), 5, (0, 2, 5, 9), 2),        # h_Y = 0: max(G)
], ids=("G-holed", "both-holed", "m-wide", "m-wide-Y-ula", "tiled-Y-holed", "tiled",
        "tiled-Y-holed-at-1"))
def test_factored_half_width_in_each_case(g, m, y, halfwidth, factor_from_four):
    arr = SensorArray(oracle_product(g, m, y))
    prof = difference_coarray(arr)
    fg, fm, fy = prof.factors
    assert (fg.elements, fm, fy.elements) == (g, m, y)
    assert prof.central_ula_halfwidth == halfwidth
    assert prof.hole_free is (halfwidth == arr.aperture)
    assert prof.dof == difference_coarray(fg).dof * difference_coarray(fy).dof
    _assert_summary(prof, arr.elements)
    assert "counts" not in vars(prof)


def test_factored_counts_are_built_when_first_read(factor_from_four):
    arr = expand(SensorArray((0, 1, 4, 6)), 3)
    prof = difference_coarray(arr)
    assert prof.factors is not None and "counts" not in vars(prof)
    economy(arr)
    assert "counts" not in vars(prof)
    counts = prof.counts
    assert vars(prof)["counts"] is counts and prof.counts is counts
    assert counts.dtype == np.int64 and not counts.flags.writeable
    assert np.array_equal(counts, fracarray.core._pair_counts(arr.as_array()))
    with pytest.raises(ValueError):
        counts[0] = 0
    # a walked profile counts on construction
    walked = difference_coarray(SensorArray((0, 1, 4, 6)))
    assert walked.factors is None and "counts" in vars(walked)


def test_each_factor_profile_is_built_once(factor_from_four, coarray_builds):
    # (0,1,4,6)^4 = G + 13 (0,1,4,6)^3, down to (0,1,4,6) = G, which walks;
    # each factor is its own array and keeps its own profile
    arr = expand(SensorArray((0, 1, 4, 6)), 4)
    coarray_builds.clear()
    prof = difference_coarray(arr)
    g = (0, 1, 4, 6)
    assert [a.elements for a in coarray_builds] == [
        arr.elements, g, expand(SensorArray(g), 3).elements, g,
        expand(SensorArray(g), 2).elements, g, g]
    assert len({id(a) for a in coarray_builds}) == len(coarray_builds)
    for a in coarray_builds:
        assert a._coarray is difference_coarray(a)
    coarray_builds.clear()
    economy(arr)
    assert prof.counts.size == arr.aperture + 1 and difference_coarray(arr) is prof
    assert coarray_builds == []


def test_a_factored_product_walks_no_pairs_of_its_own(monkeypatch):
    # (0,1,4,6)^5 = G + 13 Y with Y = (0,1,4,6)^4 = G + 13 (0,1,4,6)^3: the
    # route walks only the factors below the switch, G twice and
    # (0,1,4,6)^3, for its coarray and again for economy
    arr = expand(SensorArray((0, 1, 4, 6)), 5)
    walked = []
    blocks = fracarray.core.pair_blocks

    def spy(pos, rows=None):
        walked.append(pos.size)
        yield from blocks(pos, rows)

    monkeypatch.setattr(fracarray.core, "pair_blocks", spy)
    monkeypatch.setattr(fracarray.analysis, "pair_blocks", spy)
    prof = difference_coarray(arr)
    assert walked == [4, 4, 64]
    rep = economy(arr)
    assert sorted(walked[3:]) == [4, 4, 64] and rep.satisfies_C1 and rep.fragility == 1
    assert prof.hole_free and prof.dof == 13 ** 5
