import hashlib
import os
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

from fracarray import (
    APERTURE_GUARD,
    CouplingModel,
    DesignConstraints,
    SensorArray,
    check_constraints,
    difference_coarray,
    leakage_from_profile,
    solve_p1,
)
from fracarray import search
from conftest import S_ELEMS, G_ELEMS, oracle_essential, oracle_solve_p1


def test_constraint_defaults():
    cons = DesignConstraints(max_aperture=20)
    assert cons.max_fragility == Fraction(3, 10)
    assert cons.max_leakage == pytest.approx(1 / 3)
    assert cons.require_hole_free
    assert not cons.require_symmetric
    assert cons.exact_aperture
    assert cons.coupling.q == 15


def test_float_fragility_read_as_decimal_literal():
    cons = DesignConstraints(max_aperture=5, max_fragility=0.3)
    assert cons.max_fragility == Fraction(3, 10)
    cons = DesignConstraints(max_aperture=5, max_fragility=0.27)
    assert cons.max_fragility == Fraction(27, 100)


def test_constraint_validation():
    with pytest.raises(ValueError):
        DesignConstraints(max_aperture=0)
    with pytest.raises(ValueError):
        DesignConstraints(max_aperture=5, max_fragility=0)
    with pytest.raises(ValueError):
        DesignConstraints(max_aperture=5, max_leakage=0.0)
    with pytest.raises(ValueError):
        DesignConstraints(max_aperture=5, max_leakage=1.5)


def test_check_constraints_reference_designs():
    cons = DesignConstraints(max_aperture=20, require_symmetric=True)
    rep = check_constraints(SensorArray(S_ELEMS), cons)
    assert rep.feasible
    assert rep.fragility == Fraction(3, 11)
    assert rep.leakage == pytest.approx(0.3039, abs=1e-4)

    rep_g = check_constraints(SensorArray(G_ELEMS), cons)
    assert rep_g.hole_free_ok and rep_g.fragility_ok and rep_g.leakage_ok
    assert not rep_g.symmetric
    assert not rep_g.feasible  # symmetry required but absent
    free = DesignConstraints(max_aperture=20)
    assert check_constraints(SensorArray(G_ELEMS), free).feasible


def test_check_constraints_aperture_modes():
    cons = DesignConstraints(max_aperture=20)
    short = SensorArray(tuple(range(10)))
    assert not check_constraints(short, cons).aperture_ok
    relaxed = DesignConstraints(max_aperture=20, exact_aperture=False,
                                max_fragility=1, max_leakage=1)
    assert check_constraints(short, relaxed).feasible


def test_minimal_hole_free_span_three():
    cons = DesignConstraints(max_aperture=3, max_fragility=1, max_leakage=1)
    res = solve_p1(cons)
    assert res.optimum_size == 3
    assert tuple(a.elements for a in res.optimum) == ((0, 1, 3), (0, 2, 3))
    assert res.message == ""


def test_infeasible_reports_empty():
    # defaults are too strict for a tiny aperture
    res = solve_p1(DesignConstraints(max_aperture=7))
    assert res.optimum == ()
    assert res.optimum_size == 0
    assert "no feasible array" in res.message


def test_trivial_array_wins_when_rules_allow():
    cons = DesignConstraints(max_aperture=6, exact_aperture=False,
                             max_fragility=1, max_leakage=1)
    res = solve_p1(cons)
    assert res.optimum_size == 1
    assert res.optimum[0].elements == (0,)


MIXES = [
    dict(max_aperture=7),
    dict(max_aperture=8, max_leakage=0.36),
    dict(max_aperture=8, require_symmetric=True, max_fragility=1, max_leakage=0.45),
    dict(max_aperture=6, exact_aperture=False, max_fragility=1, max_leakage=1),
    dict(max_aperture=8, require_hole_free=False, max_fragility=1, max_leakage=0.2),
    dict(max_aperture=8, require_symmetric=True, max_fragility=1, max_leakage=1),
    dict(max_aperture=5, exact_aperture=False, require_symmetric=True,
         max_fragility=1, max_leakage=1),
]


@pytest.mark.parametrize("kw", MIXES)
def test_pruned_route_equals_naive_route(kw):
    cons = DesignConstraints(**kw)
    fast = solve_p1(cons)
    assert (fast.optimum_size, tuple(a.elements for a in fast.optimum)) == oracle_solve_p1(cons)


def test_search_is_deterministic():
    cons = DesignConstraints(max_aperture=8, max_leakage=0.36)
    a = solve_p1(cons)
    b = solve_p1(cons)
    assert tuple(x.elements for x in a.optimum) == tuple(x.elements for x in b.optimum)
    assert (a.optimum_size, a.explored, a.pruned) == (b.optimum_size, b.explored, b.pruned)


def test_every_returned_array_is_feasible():
    cons = DesignConstraints(max_aperture=8, max_leakage=0.4)
    res = solve_p1(cons)
    assert res.optimum
    for arr in res.optimum:
        assert check_constraints(arr, cons).feasible


def test_symmetric_search_returns_symmetric_minimum():
    cons = DesignConstraints(max_aperture=20, require_symmetric=True)
    res = solve_p1(cons)
    assert res.optimum_size == 11
    assert tuple(a.elements for a in res.optimum) == (S_ELEMS,)
    assert res.pruned > 0
    assert res.wall_time >= 0.0


def test_aperture_guard():
    with pytest.raises(ValueError):
        solve_p1(DesignConstraints(max_aperture=APERTURE_GUARD + 1))


def test_custom_coupling_changes_feasibility():
    weak = DesignConstraints(max_aperture=8, coupling=CouplingModel(q=15, c1_magnitude=0.05))
    strong = DesignConstraints(max_aperture=8)
    assert solve_p1(weak).optimum_size <= 8
    assert solve_p1(weak).optimum  # tiny coupling makes leakage easy
    assert not solve_p1(strong).optimum


def _outcome(res):
    return (res.optimum_size, tuple(a.elements for a in res.optimum), res.explored, res.pruned)


def _digest(res):
    return hashlib.sha256(repr([a.elements for a in res.optimum]).encode()).hexdigest()


# outcomes of the benchmark queries, recorded from the per-candidate route
# the block kernel replaced: optima, order, explored and pruned
G2 = (0, 1, 2, 3, 7, 9, 15, 17, 19, 20)


def test_pinned_symmetric_aperture_20():
    res = solve_p1(DesignConstraints(max_aperture=20, require_symmetric=True))
    assert _outcome(res) == (11, (S_ELEMS,), 456, 56)


def test_pinned_aperture_20():
    res = solve_p1(DesignConstraints(max_aperture=20))
    assert _outcome(res) == (10, (G2, G_ELEMS), 164_730, 5_036)


def test_pinned_aperture_22():
    res = solve_p1(DesignConstraints(max_aperture=22))
    assert (res.optimum_size, len(res.optimum), res.explored, res.pruned) == (11, 156, 667_964, 27_896)
    assert res.optimum[0].elements == (0, 1, 2, 3, 4, 6, 8, 10, 17, 21, 22)
    assert res.optimum[-1].elements == (0, 2, 5, 7, 11, 12, 18, 19, 20, 21, 22)
    assert _digest(res) == "90624447d17165247b736af03213a70c077d1d54fae289e997930aa5c0acf187"


def test_pinned_infeasible_aperture_18():
    res = solve_p1(DesignConstraints(max_aperture=18, max_leakage=0.25))
    assert _outcome(res) == (0, (), 127_858, 3_214)
    assert res.message == "no feasible array within aperture 18"


def _random_mix(rng):
    return DesignConstraints(
        max_aperture=int(rng.integers(2, 12)),
        require_symmetric=bool(rng.integers(2)),
        require_hole_free=bool(rng.integers(4)),
        exact_aperture=bool(rng.integers(2)),
        max_fragility=[Fraction(1), Fraction(2, 7), Fraction(3, 10), Fraction(1, 2),
                       Fraction(2, 3), Fraction(5, 9)][int(rng.integers(6))],
        max_leakage=float(rng.uniform(0.15, 1.0)),
        coupling=CouplingModel(q=int(rng.integers(0, 16)),
                               c1_magnitude=float(rng.uniform(0.0, 0.6)),
                               phase_mode="random", seed=int(rng.integers(100))),
    )


@pytest.mark.parametrize("seed", range(24))
def test_kernel_equals_naive_route_on_random_mixes(seed):
    cons = _random_mix(np.random.default_rng(seed))
    fast = solve_p1(cons)
    assert (fast.optimum_size, tuple(a.elements for a in fast.optimum)) == oracle_solve_p1(cons)


def test_essential_counts_equal_economy_at_span_12():
    span, checked, hole_free = 12, 0, 0
    for k in range(2, span + 2):
        for masks in search._candidate_blocks(span, k, False):
            counts = search._essential_counts(masks, span, k)
            for mask, count in zip(masks.tolist(), counts.tolist()):
                elems = tuple(e for e in range(span + 1) if mask >> e & 1)
                assert count == sum(oracle_essential(elems)), elems
                checked += 1
                hole_free += difference_coarray(SensorArray(elems)).hole_free
    assert checked == 2 ** (span - 1)
    assert hole_free > 100


@pytest.mark.parametrize("kw", [
    dict(max_aperture=15),
    dict(max_aperture=20, require_symmetric=True),
    dict(max_aperture=10, exact_aperture=False, max_fragility=Fraction(2, 7), max_leakage=0.45),
])
def test_results_do_not_depend_on_the_block_size(kw, monkeypatch):
    cons = DesignConstraints(**kw)
    whole = solve_p1(cons)
    monkeypatch.setattr(search, "BLOCK", 7)
    assert _outcome(solve_p1(cons)) == _outcome(whole)


def test_candidate_blocks_are_bounded_and_complete(monkeypatch):
    monkeypatch.setattr(search, "BLOCK", 7)
    for span, k, sym in [(16, 5, False), (27, 3, False), (63, 4, False), (20, 7, True),
                         (19, 4, True)]:
        blocks = list(search._candidate_blocks(span, k, sym))
        masks = np.concatenate(blocks)
        assert max(b.size for b in blocks) <= 7
        assert masks.size == np.unique(masks).size == search._count_candidates(span, k, sym)
        assert (np.bitwise_count(masks) == k).all()
        assert ((masks & 1) == 1).all() and ((masks >> span) == 1).all()


def test_apertures_beyond_a_mask_are_rejected_even_with_force():
    cons = DesignConstraints(max_aperture=search.MAX_SPAN, require_hole_free=False,
                             max_fragility=1)
    res = solve_p1(cons, force=True)
    assert tuple(a.elements for a in res.optimum) == ((0, search.MAX_SPAN),)
    wide = DesignConstraints(max_aperture=search.MAX_SPAN + 1, require_hole_free=False,
                             max_fragility=1)
    with pytest.raises(ValueError, match="64-bit"):
        solve_p1(wide, force=True)


def test_mask_table_is_built_on_first_use():
    code = ("import fracarray.search as s; "
            "print(s._popcount_groups.cache_info().currsize)")
    src = os.path.dirname(os.path.dirname(search.__file__))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=dict(os.environ, PYTHONPATH=src))
    assert out.stdout.strip() == "0"


def test_kernel_leakage_decisions_match_check_constraints_at_the_cap():
    # the kernel sums leakage lag by lag, check_constraints through numpy's
    # pairwise sum; at a cap equal to the library value both must accept,
    # one ulp below it both must reject
    model = DesignConstraints(max_aperture=20).coupling
    cq = [(model.c1_magnitude / d) ** 2 for d in range(1, model.q + 1)]
    first = np.array([sum(1 << e for e in (0, 1, 2, 3, 4, 5, 6, 7, 8, 20))], dtype=np.uint64)
    masks = np.concatenate([first, next(search._candidate_blocks(20, 10, False))[:200]])
    sums_differ = 0
    for mask in masks:
        mask = mask.reshape(1)
        arr = SensorArray(search._elements(int(mask[0]), 20))
        lib = leakage_from_profile(difference_coarray(arr), model)
        sums_differ += search._leakage(mask, 20, 10, cq)[0] != lib
        for cap, accept in ((lib, True), (np.nextafter(lib, 0), False)):
            cons = DesignConstraints(max_aperture=20, require_hole_free=False,
                                     max_fragility=1, max_leakage=float(cap))
            assert check_constraints(arr, cons).feasible is accept
            assert search._feasible(mask, 20, 10, cons, cq).size == accept
    assert sums_differ > 10  # the two sums really do part on this block
