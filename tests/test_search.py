import collections
import functools
import hashlib
import itertools
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
    is_symmetric,
    leakage_from_profile,
    solve_p1,
)
from fracarray import coupling, search
from conftest import S_ELEMS, G_ELEMS, oracle_differences, oracle_essential, oracle_solve_p1


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


# outcomes of the benchmark queries. The optima and their order were
# recorded from the per-candidate route the block kernel replaced. explored
# and pruned are those of the outside-in build, which never builds a mask
# whose outermost lags are uncovered or whose outer positions already make
# too many sensors essential; complete counts the hole-free masks among those
# built. The hole-free candidates of each size are pinned through the kernel
# with the fragility bound off, which builds every candidate covering the
# outer lags
G2 = (0, 1, 2, 3, 7, 9, 15, 17, 19, 20)


def _complete(res):
    return [row[3] for row in res.by_size]


def _hole_free_counts(A, res, symmetric=False):
    t = search._LOW_BITS // 2
    return [sum(search._hole_free(masks, A - t - 1).size
                for masks in search._candidate_blocks(A, k, symmetric, t))
            for k, *_ in res.by_size]


def test_pinned_symmetric_aperture_20():
    res = solve_p1(DesignConstraints(max_aperture=20, require_symmetric=True))
    assert _outcome(res) == (11, (S_ELEMS,), 18, 494)
    assert _complete(res) == [0] * 10 + [2]
    assert _hole_free_counts(20, res, symmetric=True) == [0] * 9 + [1, 9]


def test_pinned_aperture_20():
    res = solve_p1(DesignConstraints(max_aperture=20))
    assert _outcome(res) == (10, (G2, G_ELEMS), 3_502, 166_264)
    assert _complete(res) == [0] * 8 + [8, 1_630]
    assert _hole_free_counts(20, res) == [0] * 7 + [150, 4_064, 19_107]


def test_pinned_aperture_22():
    res = solve_p1(DesignConstraints(max_aperture=22))
    assert (res.optimum_size, len(res.optimum), res.explored, res.pruned) == (11, 156, 21_010, 674_850)
    assert _complete(res) == [0] * 9 + [1_084, 10_844]
    assert _hole_free_counts(22, res) == [0] * 7 + [18, 2_558, 25_308, 84_768]
    assert res.optimum[0].elements == (0, 1, 2, 3, 4, 6, 8, 10, 17, 21, 22)
    assert res.optimum[-1].elements == (0, 2, 5, 7, 11, 12, 18, 19, 20, 21, 22)
    assert _digest(res) == "90624447d17165247b736af03213a70c077d1d54fae289e997930aa5c0acf187"


def test_pinned_infeasible_aperture_18():
    res = solve_p1(DesignConstraints(max_aperture=18, max_leakage=0.25))
    assert _outcome(res) == (0, (), 26_736, 104_336)
    assert _complete(res) == [0] * 8 + [48, 1_654, 4_345, 6_151, 5_813, 5_046, 2_166,
                                        657, 135, 17, 1]
    assert _hole_free_counts(18, res) == [0] * 7 + [500, 4_140, 10_445, 14_655, 14_184, 10_208,
                                                5_538, 2_246, 663, 135, 17, 1]
    assert res.message == "no feasible array within aperture 18"


def test_pinned_aperture_28():
    # the optima and their digest as the kernel without the outer fragility
    # cut found them
    res = solve_p1(DesignConstraints(max_aperture=28))
    assert (res.optimum_size, len(res.optimum), res.explored, res.pruned) == (12, 4, 286_986,
                                                                              16_341_823)
    assert res.optimum[0].elements == (0, 1, 2, 3, 7, 9, 13, 19, 23, 24, 27, 28)
    assert res.optimum[-1].elements == (0, 1, 4, 5, 9, 15, 19, 21, 25, 26, 27, 28)
    assert _digest(res) == "33eb794d7c3c0c475b90b87d0e84bd41e5eacced6cd6ec55b4c06ba3e7c1481e"


def test_pinned_forced_aperture_29():
    res = solve_p1(DesignConstraints(max_aperture=29), force=True)
    assert (res.optimum_size, len(res.optimum), res.explored, res.pruned) == (13, 4_280, 1_215_007,
                                                                              45_080_506)
    assert res.optimum[0].elements == (0, 1, 2, 3, 4, 5, 6, 13, 15, 20, 23, 27, 29)
    assert res.optimum[-1].elements == (0, 2, 6, 9, 14, 16, 23, 24, 25, 26, 27, 28, 29)
    assert _digest(res) == "071b4a77cbc5c4de346a216a48491582be1f4d3ae7b87339dc98a4cc7ff4026a"


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


@functools.cache
def _random_mix_and_oracle(seed):
    cons = _random_mix(np.random.default_rng(seed))
    return cons, oracle_solve_p1(cons)


@pytest.mark.parametrize("seed", range(24))
def test_kernel_equals_naive_route_on_random_mixes(seed):
    cons, oracle = _random_mix_and_oracle(seed)
    fast = solve_p1(cons)
    assert (fast.optimum_size, tuple(a.elements for a in fast.optimum)) == oracle


def test_pools_split_inside_a_size_keep_the_random_mix_optima(monkeypatch):
    # tiny blocks make the leakage and fragility pass run on many pools per
    # (span, k); a pool never outgrows one block, which bounds its temporaries
    monkeypatch.setattr(search, "BLOCK", 16)
    feasible, pools = search._feasible, []

    def spy(masks, span, k, cons):
        pools.append(((seed, span, k), masks.size))
        return feasible(masks, span, k, cons)

    monkeypatch.setattr(search, "_feasible", spy)
    for seed in range(24):
        cons, oracle = _random_mix_and_oracle(seed)
        fast = solve_p1(cons)
        assert (fast.optimum_size, tuple(a.elements for a in fast.optimum)) == oracle
    assert max(size for _, size in pools) <= search.BLOCK
    assert max(collections.Counter(key for key, _ in pools).values()) > 1


def _built(c, t, bound):
    """Whether the kernel builds candidate c: every lag span - t .. span - 1
    has a pair, and at most bound sensors are essential to one of lags
    span - t .. span by the removal definition. t = 0 builds everything."""
    span = c[-1]
    outer = range(max(1, span - t), span + 1) if t else range(0)
    if not set(outer[:-1]) <= oracle_differences(c):
        return False
    essential = [g for g in c
                 if not set(outer) <= oracle_differences([e for e in c if e != g])]
    return len(essential) <= bound


@pytest.mark.parametrize("kw", [
    dict(max_aperture=9),
    dict(max_aperture=8, exact_aperture=False, max_fragility=1, max_leakage=1),
    dict(max_aperture=8, require_symmetric=True, max_fragility=1, max_leakage=0.45),
    dict(max_aperture=7, require_hole_free=False, max_fragility=1, max_leakage=0.3),
    # wide enough for the outer prune to use all its bits
    dict(max_aperture=16, require_symmetric=True),
    dict(max_aperture=14, max_fragility=Fraction(2, 5), max_leakage=0.3),
])
def test_by_size_counts_every_size_tried(kw):
    # explored counts the candidates the kernel builds and complete the
    # hole-free ones among them; the rest of each size is pruned unbuilt
    cons = DesignConstraints(**kw)
    res = solve_p1(cons)
    A = cons.max_aperture
    t = search._LOW_BITS // 2 if cons.require_hole_free else 0
    last = res.optimum_size or A + 1
    assert [row[0] for row in res.by_size] == list(range(1, last + 1))
    assert sum(row[1] for row in res.by_size) == res.explored
    assert sum(row[2] for row in res.by_size) == res.pruned
    for k, explored, pruned, complete in res.by_size:
        cands = [(0,) + rest for rest in itertools.combinations(range(1, A + 1), k - 1)
                 if (not cons.exact_aperture or rest[-1:] == (A,))
                 and (not cons.require_symmetric or is_symmetric(SensorArray((0,) + rest)))]
        assert explored + pruned == len(cands)
        bound = cons.max_fragility.numerator * k // cons.max_fragility.denominator
        built = [c for c in cands if _built(c, t, bound)
                 and (not cons.require_hole_free or k * (k - 1) >= 2 * c[-1])]
        assert explored == len(built)
        passing = [c for c in built if difference_coarray(SensorArray(c)).hole_free
                   or not cons.require_hole_free]
        assert complete == len(passing)


def test_essential_counts_equal_economy_at_span_12():
    # the running cut keeps a mask exactly when its essential count, from
    # the removal definition, is at most the bound, for every bound 0..k
    span, checked, hole_free = 12, 0, 0
    for k in range(2, span + 2):
        for masks in search._candidate_blocks(span, k, False, 0):
            counts = {}
            for mask in masks.tolist():
                elems = search._elements(mask, span)
                counts[mask] = sum(oracle_essential(elems))
                checked += 1
                hole_free += difference_coarray(SensorArray(elems)).hole_free
            for bound in range(k + 1):
                kept = search._fragility_cut(masks, span, k, bound).tolist()
                assert kept == [m for m in masks.tolist() if counts[m] <= bound], (k, bound)
    assert checked == 2 ** (span - 1)
    assert hole_free > 100
    # the single sensor is essential, and span 0 has no lag to walk
    single = np.array([1], dtype=np.uint64)
    assert search._fragility_cut(single, 0, 1, 0).tolist() == []
    assert search._fragility_cut(single, 0, 1, 1).tolist() == [1]


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
    # t = 0 yields every candidate; with the outer prune on, the joined
    # outer x inner blocks keep the same bound ((18, 8) and (26, 12) keep
    # 2,161 and 134 masks at t = 6)
    monkeypatch.setattr(search, "BLOCK", 7)
    for span, k, sym in [(16, 5, False), (27, 3, False), (63, 4, False), (20, 7, True),
                         (19, 4, True), (18, 8, False), (26, 12, True)]:
        for t in (0, search._LOW_BITS // 2):
            blocks = list(search._candidate_blocks(span, k, sym, t))
            masks = np.concatenate(blocks or [np.zeros(0, dtype=np.uint64)])
            assert max((b.size for b in blocks), default=0) <= 7
            assert masks.size == np.unique(masks).size
            assert t or masks.size == search._count_candidates(span, k, sym)
            assert (np.bitwise_count(masks) == k).all()
            assert ((masks & 1) == 1).all() and ((masks >> span) == 1).all()


@pytest.mark.parametrize("symmetric", [False, True])
def test_outer_prune_drops_exactly_the_candidates_missing_a_long_lag(symmetric):
    # against itertools: the kernel builds exactly the candidates with a pair
    # at every lag span - t .. span - 1, and each one it skips has a hole
    t = search._LOW_BITS // 2
    for span in range(2, 17):
        longest = set(range(max(1, span - t), span))
        for k in range(1, span + 2):
            rests = itertools.combinations(range(1, span), k - 2) if k > 1 else ()
            cands = [(0, *rest, span) for rest in rests]
            if symmetric:
                cands = [c for c in cands if is_symmetric(SensorArray(c))]
            blocks = list(search._candidate_blocks(span, k, symmetric, t))
            built = [search._elements(m, span) for b in blocks for m in b.tolist()]
            covered = [c for c in cands if longest <= oracle_differences(c)]
            assert sorted(built) == covered, (span, k)
            for c in set(cands) - set(covered):
                assert not difference_coarray(SensorArray(c)).hole_free, c


@pytest.mark.parametrize("symmetric", [False, True])
def test_outer_fragility_cut_skips_only_infeasible_candidates(symmetric):
    # for every bound: each candidate the kernel skips leaves one of lags
    # span - t .. span - 1 without a pair, or has more than bound essential
    # sensors by the removal definition; each one built is built once
    t, cut = search._LOW_BITS // 2, 0
    for span in range(2, 17):
        longest = set(range(max(1, span - t), span))
        for k in range(2, span + 2):
            cands = [(0, *rest, span) for rest in itertools.combinations(range(1, span), k - 2)]
            if symmetric:
                cands = [c for c in cands if is_symmetric(SensorArray(c))]
            covered = {c for c in cands if longest <= oracle_differences(c)}
            essential = {}
            for bound in range(k + 1):
                blocks = search._candidate_blocks(span, k, symmetric, t, bound)
                built = [search._elements(m, span) for b in blocks for m in b.tolist()]
                assert len(built) == len(set(built)) and set(built) <= covered, (span, k, bound)
                for c in covered - set(built):
                    if c not in essential:
                        essential[c] = sum(oracle_essential(c))
                    assert essential[c] > bound, (c, bound)
                cut += len(covered) - len(built)
    assert cut > 0


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
    # the kernel and check_constraints share one leakage formula: at a cap
    # equal to the library value both accept, one ulp below it both reject
    model = DesignConstraints(max_aperture=20).coupling
    first = np.array([sum(1 << e for e in (0, 1, 2, 3, 4, 5, 6, 7, 8, 20))], dtype=np.uint64)
    masks = np.concatenate([first, next(search._candidate_blocks(20, 10, False, 0))[:200]])
    for mask in masks:
        mask = mask.reshape(1)
        arr = SensorArray(search._elements(int(mask[0]), 20))
        lib = leakage_from_profile(difference_coarray(arr), model)
        for cap, accept in ((lib, True), (np.nextafter(lib, 0), False)):
            cons = DesignConstraints(max_aperture=20, require_hole_free=False,
                                     max_fragility=1, max_leakage=float(cap))
            assert check_constraints(arr, cons).feasible is accept
            assert search._feasible(mask, 20, k=10, cons=cons).size == accept


@pytest.mark.parametrize("span,k,q,c1", [
    (20, 10, 15, 0.3),   # the default model, with (0, 1, ..., 8, 20)
    (12, 6, 40, 0.5),    # coupling limit beyond the span
    (63, 12, 30, 0.9),
    (33, 9, 7, 0.1),
    (7, 4, 0, 0.3),      # nothing couples
])
def test_kernel_leakage_equals_leakage_from_profile_bit_for_bit(span, k, q, c1):
    model = CouplingModel(q=q, c1_magnitude=c1)
    rng = np.random.default_rng(span * 1000 + k)
    inner = [rng.choice(np.arange(1, span), size=k - 2, replace=False) for _ in range(1500)]
    masks = np.array([sum(1 << int(e) for e in (0, span, *row)) for row in inner]
                     + [sum(1 << e for e in (*range(k - 1), span))], dtype=np.uint64)
    kernel = coupling.leakage_from_counts(search._lag_pairs(masks, min(q, span)), k, c1)
    lib = [leakage_from_profile(difference_coarray(SensorArray(search._elements(m, span))), model)
           for m in masks.tolist()]
    assert kernel.tolist() == lib
