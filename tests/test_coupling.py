import math

import numpy as np
import pytest

from fracarray import (
    CouplingModel,
    SensorArray,
    coupling_matrix,
    difference_coarray,
    expand,
    leakage_from_profile,
    verify_leakage_preservation,
)
from fracarray.coupling import _near_lag_counts, leakage_from_counts, smallest_size_within
from conftest import (
    S_ELEMS,
    G_ELEMS,
    matrix_leakage,
    mixed_sequences,
    oracle_hole_free,
    oracle_leakage,
    oracle_leakage_size,
    random_elements,
)


def test_model_defaults():
    m = CouplingModel()
    assert m.q == 15
    assert m.c1_magnitude == pytest.approx(0.3)
    assert m.phase_mode == "fixed"


def test_model_validation():
    with pytest.raises(ValueError):
        CouplingModel(q=-1)
    with pytest.raises(ValueError):
        CouplingModel(c1_magnitude=1.0)
    with pytest.raises(ValueError):
        CouplingModel(c1_magnitude=-0.1)
    with pytest.raises(ValueError):
        CouplingModel(phase_mode="chaotic")


@pytest.mark.parametrize("phase", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("mode", ["fixed", "random"])
def test_model_rejects_a_non_finite_phase(phase, mode):
    with pytest.raises(ValueError, match=f"^c1 phase must be finite, got {phase}$"):
        CouplingModel(c1_magnitude=0.2, c1_phase=phase, phase_mode=mode)


def test_coefficients_magnitude_decay():
    c = CouplingModel(q=6, c1_magnitude=0.3).coefficients()
    assert c.shape == (6,)
    assert np.allclose(np.abs(c), 0.3 / np.arange(1, 7))


def test_coefficients_fixed_phase_progression():
    c = CouplingModel(q=4, c1_phase=np.pi / 3).coefficients()
    want = np.pi / 3 - np.arange(4) * np.pi / 8
    assert np.allclose(np.angle(c), want)


def test_coefficients_empty_when_q_zero():
    assert CouplingModel(q=0).coefficients().size == 0


def test_random_phases_reproducible_from_seed():
    m = CouplingModel(q=5, phase_mode="random", seed=42)
    assert np.allclose(m.coefficients(), m.coefficients())
    other = CouplingModel(q=5, phase_mode="random", seed=43)
    assert not np.allclose(m.coefficients(), other.coefficients())


def test_random_phases_use_supplied_rng():
    m = CouplingModel(q=5, phase_mode="random")
    a = m.coefficients(np.random.default_rng(1))
    b = m.coefficients(np.random.default_rng(1))
    c = m.coefficients(np.random.default_rng(2))
    assert np.allclose(a, b)
    assert not np.allclose(a, c)


def test_matrix_structure():
    arr = SensorArray((0, 1, 4, 6))
    model = CouplingModel(q=3, c1_magnitude=0.2)
    C = coupling_matrix(arr, model)
    c = model.coefficients()
    assert C.shape == (4, 4)
    assert np.allclose(np.diag(C), 1.0)
    assert C[0, 1] == pytest.approx(c[0])  # separation 1
    assert C[1, 2] == pytest.approx(c[2])  # separation 3
    assert C[0, 2] == 0.0  # separation 4 beyond q
    assert C[0, 3] == 0.0  # separation 6 beyond q
    assert np.array_equal(C, C.T)  # symmetric in separation


def oracle_coupling_matrix(elems, coefficients):
    """The dense definition, entry by entry: 1 on the diagonal, c_d at
    separation d = 1..q, 0 beyond q."""
    q = len(coefficients)
    C = np.zeros((len(elems), len(elems)), dtype=complex)
    for i, a in enumerate(elems):
        for j, b in enumerate(elems):
            d = abs(a - b)
            C[i, j] = 1.0 if d == 0 else coefficients[d - 1] if d <= q else 0.0
    return C


# q = 0, q inside the aperture (20), q at and past it
@pytest.mark.parametrize("q", [0, 1, 7, 20, 33])
@pytest.mark.parametrize("phase_mode", ["fixed", "random"])
def test_matrix_equals_dense_definition(q, phase_mode):
    arr = SensorArray(S_ELEMS)
    model = CouplingModel(q=q, c1_magnitude=0.4, phase_mode=phase_mode)
    C = coupling_matrix(arr, model, np.random.default_rng(5))
    want = oracle_coupling_matrix(S_ELEMS, model.coefficients(np.random.default_rng(5)))
    assert C.dtype == complex
    assert np.array_equal(C, want)


def test_matrix_without_coupling_is_identity():
    C = coupling_matrix(SensorArray((0, 2, 5)), CouplingModel(c1_magnitude=0.0))
    assert np.allclose(C, np.eye(3))
    assert matrix_leakage(coupling_matrix(SensorArray((0, 2, 5)), CouplingModel(c1_magnitude=0.0))) == 0.0


@pytest.mark.parametrize("elems,q", [((0, 1, 4, 6), 3), ((0, 1, 2, 6, 9), 5), (S_ELEMS, 15)])
def test_leakage_matches_double_sum_oracle(elems, q):
    model = CouplingModel(q=q, c1_magnitude=0.3)
    got = matrix_leakage(coupling_matrix(SensorArray(elems), model))
    assert got == pytest.approx(oracle_leakage(elems, q, 0.3), abs=1e-12)


@pytest.mark.parametrize("seed", range(10))
def test_profile_route_equals_matrix_route(seed):
    rng = np.random.default_rng(seed)
    arr = SensorArray(random_elements(rng, 25))
    model = CouplingModel(q=int(rng.integers(0, 12)), c1_magnitude=float(rng.uniform(0, 0.9)))
    via_matrix = matrix_leakage(coupling_matrix(arr, model))
    via_profile = leakage_from_profile(difference_coarray(arr), model)
    assert via_profile == pytest.approx(via_matrix, abs=1e-12)
    assert 0.0 <= via_profile <= 1.0


def test_leakage_ignores_phases():
    arr = SensorArray(S_ELEMS)
    fixed = matrix_leakage(coupling_matrix(arr, CouplingModel()))
    rand = matrix_leakage(
        coupling_matrix(arr, CouplingModel(phase_mode="random", seed=3))
    )
    assert fixed == pytest.approx(rand, abs=1e-12)


def test_reference_design_leakage_values():
    model = CouplingModel()  # q=15, |c1|=0.3
    s = leakage_from_profile(difference_coarray(SensorArray(S_ELEMS)), model)
    g = leakage_from_profile(difference_coarray(SensorArray(G_ELEMS)), model)
    assert s == pytest.approx(0.3039, abs=1e-4)
    assert g == pytest.approx(0.3106, abs=1e-4)


def test_leakage_model_band_wider_than_aperture():
    # q beyond the aperture must behave like q = aperture
    arr = SensorArray((0, 1, 3))
    wide = leakage_from_profile(difference_coarray(arr), CouplingModel(q=50))
    tight = leakage_from_profile(difference_coarray(arr), CouplingModel(q=3))
    assert wide == pytest.approx(tight, abs=1e-15)


def _preservation_cases(pool):
    for elems in pool:
        if not oracle_hole_free(elems) or len(elems) < 2:
            continue
        span = max(elems)
        for q in range(0, span):
            # for hole-free coarrays |U| = 2*span+1, so q < span covers both
            # sufficient conditions
            yield elems, q


def test_expansion_preserves_leakage(hole_free_pool):
    for elems, q in _preservation_cases(hole_free_pool):
        model = CouplingModel(q=q, c1_magnitude=0.25)
        for r in (2, 3):
            rep = verify_leakage_preservation(SensorArray(elems), model, r)
            assert rep.hypotheses_hold
            assert rep.preserved is True
            assert rep.expanded_leakage == pytest.approx(rep.generator_leakage, abs=1e-12)


def test_expanded_matrix_is_block_replication(hole_free_pool):
    # under the isolation conditions the expanded coupling matrix is exactly
    # identity-kron-generator, i.e. independent replicas of the generator
    model_mag = 0.3
    for elems, q in _preservation_cases(hole_free_pool):
        if max(elems) > 4:
            continue  # keep matrices small in the unit suite
        gen = SensorArray(elems)
        model = CouplingModel(q=q, c1_magnitude=model_mag)
        Cg = coupling_matrix(gen, model)
        for r in (2, 3):
            grown = expand(gen, r)
            Cr = coupling_matrix(grown, model)
            want = np.kron(np.eye(len(gen) ** (r - 1)), Cg)
            assert np.array_equal(Cr, want)


def test_preservation_report_when_hypotheses_fail():
    # q >= max(G) violates the first condition
    rep = verify_leakage_preservation(SensorArray((0, 1, 3)), CouplingModel(q=3), 2)
    assert not rep.hypotheses_hold
    assert rep.preserved is None
    assert rep.generator_leakage > 0


@pytest.mark.parametrize("seed", range(6))
def test_leakage_law_for_mixed_sequences(seed, hole_free_pool):
    # the hypotheses are read on the innermost generator G_1 alone; for a
    # hole-free G_1, |U| = 2 max(G_1) + 1, so they hold iff q < max(G_1)
    rng = np.random.default_rng(500 + seed)
    held = 0
    for gens in mixed_sequences(hole_free_pool, rng, 5):
        g1 = gens[0]
        for r in (1, 2, 3):
            model = CouplingModel(q=int(rng.integers(0, 9)), c1_magnitude=0.25)
            rep = verify_leakage_preservation(gens, model, r)
            assert rep.hypotheses_hold == (model.q < g1.aperture)
            assert rep.generator_leakage == leakage_from_profile(difference_coarray(g1), model)
            big = expand(gens, r)
            assert rep.expanded_leakage == leakage_from_profile(difference_coarray(big), model)
            assert rep.preserved is (True if rep.hypotheses_hold else None)
            held += rep.hypotheses_hold
    assert held


def test_leakage_law_reads_the_innermost_generator():
    # at q = 2, G_1 = (0, 1) fails q < max(G_1), though (0, 1, 4, 6) outside
    # it meets both conditions: no verdict, and both leakages reported
    inner, outer = SensorArray((0, 1)), SensorArray((0, 1, 4, 6))
    model = CouplingModel(q=2, c1_magnitude=0.3)
    assert verify_leakage_preservation(outer, model, 1).hypotheses_hold
    rep = verify_leakage_preservation([inner, outer], model, 2)
    assert not rep.hypotheses_hold and rep.preserved is None
    big = expand([inner, outer], 2)
    assert rep.generator_leakage == pytest.approx(oracle_leakage(inner.elements, 2, 0.3),
                                                  abs=1e-12)
    assert rep.expanded_leakage == pytest.approx(oracle_leakage(big.elements, 2, 0.3),
                                                 abs=1e-12)
    assert rep.expanded_leakage != pytest.approx(rep.generator_leakage, abs=1e-6)
    # swapped, G_1 = (0, 1, 4, 6) meets them and the law holds
    swapped = verify_leakage_preservation([outer, inner], model, 2)
    assert swapped.hypotheses_hold and swapped.preserved is True


def test_leakage_law_builds_the_generator_coarray_once(coarray_builds):
    gen = SensorArray((0, 1, 4, 6))
    assert verify_leakage_preservation(gen, CouplingModel(q=5), 4).preserved is True
    assert [id(a) for a in coarray_builds] == [id(gen)]


def test_preservation_for_nested_generator():
    # nested-style generator inside its isolation band
    gen = SensorArray((0, 1, 2, 3, 4, 9, 14, 19))
    rep = verify_leakage_preservation(gen, CouplingModel(q=15), 2)
    assert rep.hypotheses_hold  # q=15 < 19 and 15+19 < 39
    assert rep.preserved is True


def test_near_lag_counts_equal_the_full_coarray():
    # single sensors, q = 0, q below, at and beyond the aperture
    rng = np.random.default_rng(41)
    arrays = [(0,), S_ELEMS, G_ELEMS] + [random_elements(rng, 40) for _ in range(200)]
    for elems in arrays:
        prof = difference_coarray(SensorArray(elems))
        pos = SensorArray(elems).as_array()
        for q in {0, 1, 3, prof.aperture, prof.aperture + 5, int(rng.integers(0, 50))}:
            got = _near_lag_counts(pos, q)
            assert got.dtype == np.int64
            assert np.array_equal(got, prof.counts[1:min(q, prof.aperture) + 1])


def test_preservation_report_equals_the_full_coarray_route():
    # the expanded leakage is bit for bit leakage_from_profile of the
    # expanded array's whole coarray, whether or not the hypotheses hold
    rng = np.random.default_rng(42)
    cases = [((0,), 3, 3), ((0, 1), 2, 4), ((0, 1, 4, 6), 5, 4)]
    cases += [(random_elements(rng, 12), int(rng.integers(0, 30)), int(rng.integers(1, 4)))
              for _ in range(60)]
    for elems, q, r in cases:
        model = CouplingModel(q=q, c1_magnitude=float(rng.uniform(0, 0.9)))
        rep = verify_leakage_preservation(SensorArray(elems), model, r)
        want = leakage_from_profile(difference_coarray(expand(SensorArray(elems), r)), model)
        assert rep.expanded_leakage == want


@pytest.mark.parametrize("lags,c1", [(15, 0.3), (40, 0.9), (4, 0.05), (0, 0.3), (15, 0.0)])
def test_smallest_size_within_equals_the_size_scan(lags, c1):
    # at a cap equal to one row's exact leakage at some size, one ulp on
    # either side of it, caps near 1 and caps whose square underflows or is
    # subnormal, the closed form gives each row the size the scan of
    # leakage_from_counts does, with no numpy warning (any fails the suite)
    rng = np.random.default_rng(lags * 100 + int(c1 * 10))
    pairs = rng.integers(0, 30, size=(300, lags)).astype(np.uint8)
    pairs[:3] = 0
    most = 40
    caps = [1 - 1e-10, float(np.nextafter(1, 0)), 1 + 1e-9, 1e-300, 1e-160, 1e-4, 0.01]
    for row in pairs[::37]:
        for n in (1, 2, 7, most - 1, most):
            leak = float(leakage_from_counts(row, n, c1))
            caps += [leak, float(np.nextafter(leak, 0)), float(np.nextafter(leak, 1))]
    for cap in caps:
        if cap <= 0:
            continue
        sizes = smallest_size_within(pairs, cap, c1, most)
        assert sizes.tolist() == oracle_leakage_size(pairs, cap, c1, most).tolist(), cap
