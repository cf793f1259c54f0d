"""Acceptance gate: one test per release criterion, with the stated
tolerances and runtime budgets. Each test prints a PASS line with the
numbers it measured so the gate can be audited from the log."""

import itertools
import math
import time
from fractions import Fraction

import numpy as np

from fracarray import (
    CouplingModel,
    DesignConstraints,
    Scenario,
    SensorArray,
    beampattern,
    cantor,
    check_constraints,
    coarray_music,
    coarray_statistics,
    coprime,
    coupling_matrix,
    difference_coarray,
    economy,
    equally_spaced_thetas,
    expand,
    fractal_weight,
    leakage_from_profile,
    nested,
    product_beampattern,
    run_sweep,
    solve_p1,
    synthesize,
)
from conftest import S_ELEMS, G_ELEMS, oracle_differences, oracle_solve_p1, oracle_weight_map

GRID = 1 << 14


def test_a01_cantor_coarray_law():
    t0 = time.perf_counter()
    for r in range(9):
        prof = difference_coarray(cantor(r))
        assert prof.hole_free
        assert prof.dof == 3 ** r
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print(f"ACCEPTANCE 1 PASS: cantor orders 0..8 hole-free with |D|=3^r, {elapsed:.3f}s")


def test_a02_hole_free_expansion_power_law(hole_free_pool):
    t0 = time.perf_counter()
    checked = 0
    for elems in hole_free_pool:
        d = len(oracle_differences(elems))
        gen = SensorArray(elems)
        for r in (2, 3):
            prof = difference_coarray(expand(gen, r))
            assert prof.hole_free, (elems, r)
            assert prof.dof == d ** r, (elems, r)
            checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    print(f"ACCEPTANCE 2 PASS: {len(hole_free_pool)} hole-free generators x r in "
          f"{{2,3}} ({checked} expansions), |D_r| = |D|^r, {elapsed:.1f}s")


def test_a03_weight_convolution_and_beampattern_product():
    rng = np.random.default_rng(2025)
    om = np.linspace(-math.pi, math.pi, 256, endpoint=False)
    count = 0
    worst_rel = 0.0
    while count < 200:
        span = int(rng.integers(1, 11))
        middle = [i for i in range(1, span) if rng.random() < 0.5]
        gen = SensorArray((0, *middle, span))
        # the closed forms assume the expansion keeps every translate
        # distinct, so colliding draws are rejected
        if len(expand(gen, 3)) != len(gen) ** 3:
            continue
        count += 1
        for r in (1, 2, 3):
            grown = expand(gen, r)
            assert np.array_equal(fractal_weight(gen, r),
                                  difference_coarray(grown).counts), gen.elements
            direct = beampattern(grown, om).values
            prod = product_beampattern(gen, r, om).values
            rel = float(np.max(np.abs(direct - prod)) / np.max(direct))
            worst_rel = max(worst_rel, rel)
            assert rel < 1e-9, (gen.elements, r, rel)
    print(f"ACCEPTANCE 3 PASS: 200 random generators, exact weight-map equality "
          f"r<=3, beampattern product worst rel err {worst_rel:.2e} < 1e-9")


def test_a04_economy_preservation(hole_free_pool):
    c1_checked = frag_checked = 0
    for elems in hole_free_pool:
        gen = SensorArray(elems)
        rep = economy(gen)
        for r in (2, 3):
            grown_rep = economy(expand(gen, r))
            if rep.satisfies_C1:
                assert grown_rep.satisfies_C1, (elems, r)
                c1_checked += 1
            assert grown_rep.fragility <= rep.fragility, (elems, r)
            frag_checked += 1
    print(f"ACCEPTANCE 4 PASS: weight-1 condition preserved in {c1_checked} "
          f"expansions, fragility monotone in {frag_checked}, 0 violations")


def test_a05_leakage_preservation_and_block_structure(hole_free_pool):
    pairs = matrices = 0
    worst = 0.0
    for elems in hole_free_pool:
        span = max(elems)
        if span < 1:
            continue
        gen = SensorArray(elems)
        prof = difference_coarray(gen)
        ula_size = 2 * prof.central_ula_halfwidth + 1
        for q in range(0, span):
            assert q < span and q + span < ula_size  # hypotheses by construction
            model = CouplingModel(q=q, c1_magnitude=0.3)
            lg = leakage_from_profile(prof, model)
            Cg = coupling_matrix(gen, model)
            for r in (2, 3):
                grown = expand(gen, r)
                lr = leakage_from_profile(difference_coarray(grown), model)
                worst = max(worst, abs(lr - lg))
                assert abs(lr - lg) <= 1e-12, (elems, q, r)
                pairs += 1
                Cr = coupling_matrix(grown, model)
                want = np.kron(np.eye(len(gen) ** (r - 1)), Cg)
                assert np.array_equal(Cr, want), (elems, q, r)
                matrices += 1
    print(f"ACCEPTANCE 5 PASS: leakage invariant over {pairs} (generator,q,r) "
          f"cases, worst gap {worst:.1e} <= 1e-12; {matrices} block-replication "
          f"matrices exact")


def test_a06_multi_generator_dof_products():
    pool = [SensorArray(e) for e in
            ((0, 1), (0, 1, 2), (0, 1, 3), (0, 2, 3), (0, 1, 4, 6))]
    dofs = {g.elements: len(oracle_differences(g.elements)) for g in pool}
    pair_count = triple_count = 0
    for combo in itertools.product(pool, repeat=2):
        out = expand(list(combo), 2)
        prof = difference_coarray(out)
        assert prof.hole_free
        assert prof.dof == dofs[combo[0].elements] * dofs[combo[1].elements]
        pair_count += 1
    for combo in itertools.product(pool, repeat=3):
        out = expand(list(combo), 3)
        prof = difference_coarray(out)
        want = 1
        for g in combo:
            want *= dofs[g.elements]
        assert prof.hole_free
        assert prof.dof == want
        triple_count += 1
    print(f"ACCEPTANCE 6 PASS: {pair_count} ordered pairs and {triple_count} "
          f"ordered triples of hole-free generators, |D| = product exactly")


def test_a07_design_search_reproduction():
    t0 = time.perf_counter()
    sym = solve_p1(DesignConstraints(max_aperture=20, require_symmetric=True))
    assert sym.optimum_size == 11
    assert S_ELEMS in tuple(a.elements for a in sym.optimum)
    for arr in sym.optimum:
        assert check_constraints(
            arr, DesignConstraints(max_aperture=20, require_symmetric=True)).feasible

    free = solve_p1(DesignConstraints(max_aperture=20))
    assert free.optimum_size == 10
    assert G_ELEMS in tuple(a.elements for a in free.optimum)
    for arr in free.optimum:
        assert check_constraints(arr, DesignConstraints(max_aperture=20)).feasible
    main_elapsed = time.perf_counter() - t0
    assert main_elapsed < 1800.0

    t1 = time.perf_counter()
    for kw in (dict(max_aperture=10),
               dict(max_aperture=10, max_leakage=0.36),
               dict(max_aperture=10, require_symmetric=True, max_leakage=0.40)):
        cons = DesignConstraints(**kw)
        fast = solve_p1(cons)
        assert (fast.optimum_size, tuple(a.elements for a in fast.optimum)) == \
            oracle_solve_p1(cons), kw
    naive_elapsed = time.perf_counter() - t1
    assert naive_elapsed < 60.0
    print(f"ACCEPTANCE 7 PASS: symmetric minimum 11 (S found), free minimum 10 "
          f"(G found) in {main_elapsed:.1f}s; pruned == naive at aperture 10 in "
          f"{naive_elapsed:.1f}s")


def test_a08_comparison_table_rows():
    model = CouplingModel()  # q=15, |c1|=0.3
    na = nested(8, 92)
    assert (len(na), economy(na).fragility) == (100, Fraction(1))
    cp = coprime(5, 92)
    assert len(cp) == 101
    assert round(float(economy(cp).fragility), 2) == 0.95

    s2 = expand(SensorArray(S_ELEMS), 2)
    assert len(s2) == 121
    s2_frag = economy(s2).fragility
    assert s2_frag == Fraction(4, 121)
    assert round(float(s2_frag), 2) == 0.03
    g2 = expand(SensorArray(G_ELEMS), 2)
    assert len(g2) == 100
    assert economy(g2).fragility == Fraction(9, 100)

    s3 = expand(SensorArray(S_ELEMS), 3)
    assert len(s3) == 1331
    assert round(float(economy(s3).fragility), 3) == 0.006
    g3 = expand(SensorArray(G_ELEMS), 3)
    assert len(g3) == 1000
    assert economy(g3).fragility == Fraction(27, 1000)

    s2_leak = leakage_from_profile(difference_coarray(s2), model)
    g2_leak = leakage_from_profile(difference_coarray(g2), model)
    assert abs(s2_leak - 0.30) <= 0.03
    assert abs(g2_leak - 0.31) <= 0.03
    print(f"ACCEPTANCE 8 PASS: sensor counts/fragilities for NA(8,92), CP(5,92), "
          f"expanded designs all exact; leakages {s2_leak:.4f}/{g2_leak:.4f} "
          f"within 0.03 of 0.30/0.31")


def test_a09_monte_carlo_orderings():
    t0 = time.perf_counter()
    thetas = equally_spaced_thetas(20)
    s_scenario = Scenario(array=SensorArray(S_ELEMS), thetas=thetas,
                          snapshots=1000, trials=100, seed=0, grid_size=GRID)

    snr = run_sweep(s_scenario, "snr_db", [-10.0, 20.0])
    lo, hi = snr.points
    assert lo.success_count and hi.success_count
    assert hi.rmse < lo.rmse

    coup = run_sweep(s_scenario, "coupling_c1_mag", [0.05, 0.5])
    weak, strong = coup.points
    assert weak.success_count > 0
    assert weak.rmse <= (strong.rmse if strong.rmse is not None else math.inf)

    fail_s = run_sweep(s_scenario, "failure_probability", [0.2]).points[0]
    na_scenario = Scenario(array=nested(4, 4), thetas=thetas, snapshots=1000,
                           trials=100, seed=0, grid_size=GRID)
    fail_na = run_sweep(na_scenario, "failure_probability", [0.2]).points[0]
    assert fail_s.success_count > fail_na.success_count
    elapsed = time.perf_counter() - t0
    assert elapsed < 1200.0
    print(f"ACCEPTANCE 9 PASS: rmse {hi.rmse:.2e} @20dB < {lo.rmse:.2e} @-10dB; "
          f"rmse {weak.rmse:.2e} @|c1|=0.05 <= "
          f"{'inf' if strong.rmse is None else format(strong.rmse, '.2e')} @0.5; "
          f"successes at failure 0.2: {fail_s.success_count} > "
          f"{fail_na.success_count}; {elapsed:.0f}s")


def test_a10_doa_floor_and_convergence():
    rng = np.random.default_rng(77)
    worst = 0.0
    for _ in range(20):
        theta = float(rng.uniform(-0.5, 0.5))
        sc = Scenario(array=SensorArray(S_ELEMS), thetas=(theta,),
                      snapshots=200, snr_db=math.inf, trials=1, grid_size=GRID)
        surviving, x = synthesize(sc, np.random.default_rng(rng.integers(1 << 31)))
        est = coarray_music(coarray_statistics(x, surviving), 1, GRID)
        worst = max(worst, abs(float(est[0]) - theta))
        assert abs(float(est[0]) - theta) <= 1.0 / GRID

    sc = Scenario(array=SensorArray((0, 1, 4, 6)), thetas=(0.3, -0.25),
                  powers=(1.0, 2.0), snapshots=100_000, snr_db=0.0, trials=1)
    surviving, x = synthesize(sc, np.random.default_rng(5))
    v = coarray_statistics(x, surviving)
    m = (v.size - 1) // 2
    lags = np.arange(-m, m + 1)
    want = (np.exp(2j * np.pi * 0.3 * lags) + 2.0 * np.exp(2j * np.pi * -0.25 * lags))
    want[m] += 1.0
    gap = float(np.max(np.abs(v - want)))
    assert gap < 0.05
    print(f"ACCEPTANCE 10 PASS: noiseless single-source worst error {worst:.2e} "
          f"<= one grid cell {1.0 / GRID:.2e}; statistics converge to the "
          f"closed form within {gap:.3f} < 0.05 at 1e5 snapshots")
