import collections
import functools
import gc
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
from conftest import (
    S_ELEMS,
    G_ELEMS,
    oracle_complete,
    oracle_differences,
    oracle_elements,
    oracle_essential,
    oracle_fragility_cut,
    oracle_lag_essential,
    oracle_lag_pairs,
    oracle_outer_seed,
    oracle_outer_table,
    oracle_smallest_sizes,
    oracle_solve_p1,
)


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


def test_check_constraints_builds_the_coarray_once(coarray_builds):
    arr = SensorArray(G_ELEMS)
    assert check_constraints(arr, DesignConstraints(max_aperture=20)).feasible
    assert [id(a) for a in coarray_builds] == [id(arr)]


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
# non-symmetric rule sets the oracle meets at every span 1..12, where the
# mirror cut keeps one of each reflected pair of whole candidates
SMALL_SPAN_RULES = [
    dict(),
    dict(max_leakage=0.25),
    dict(exact_aperture=False),
    dict(max_fragility=Fraction(1, 2), max_leakage=0.5),
    dict(require_hole_free=False, max_fragility=Fraction(1, 3)),
    dict(exact_aperture=False, require_hole_free=False, max_fragility=1, max_leakage=1),
]


@pytest.mark.parametrize("kw", MIXES + [dict(max_aperture=A, **rules)
                                        for rules in SMALL_SPAN_RULES for A in range(1, 13)])
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
    # the result holds only what the constraints decide, so a rerun equals it
    assert solve_p1(cons) == res


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
# whose outermost lags are uncovered, or whose outer positions already make
# too many sensors essential or hold too much coupling for the size, and
# builds one candidate of each reflected pair at a non-symmetric span;
# complete counts the hole-free masks among those built (every
# mask built without the hole-free rule). The hole-free candidates of each
# size are pinned through the kernel without rules, which builds every
# candidate covering the outer lags, or its reflection
G2 = (0, 1, 2, 3, 7, 9, 15, 17, 19, 20)

# the outer tables with every rule but the hole-free one off: a pattern
# covering the longest lags makes no more sensors essential than it holds,
# so it joins every size it fits
_NO_RULES = functools.cache(functools.partial(
    search._outer_table, cons=DesignConstraints(max_aperture=1, max_fragility=1, max_leakage=1)))
# the outer tables with every rule off: no pattern is filtered but by the
# mirror cut, so every candidate or its reflection is built
_EVERY = functools.cache(functools.partial(
    search._outer_table, cons=DesignConstraints(max_aperture=1, require_hole_free=False,
                                                max_fragility=1, max_leakage=1)))


def _mirror(c):
    """The reflection e -> span - e of a candidate's element tuple."""
    return tuple(c[-1] - e for e in reversed(c))


def _mask(c):
    return sum(1 << e for e in c)


def _reflect(masks, span):
    """The masks of the reflections e -> span - e, one bit at a time."""
    out = np.zeros_like(masks)
    for e in range(span + 1):
        out |= ((masks >> e) & 1) << (span - e)
    return out


def _complete(res):
    return [row[3] for row in res.by_size]


def _hole_free_counts(A, res, symmetric=False):
    return [sum(search._hole_free(masks, A - search._OUTER - 1).size
                for masks in search._candidate_blocks(A, k, symmetric, _NO_RULES))
            for k, *_ in res.by_size]


def test_pinned_symmetric_aperture_20():
    res = solve_p1(DesignConstraints(max_aperture=20, require_symmetric=True))
    assert _outcome(res) == (11, (S_ELEMS,), 10, 502)
    assert _complete(res) == [0] * 10 + [1]
    assert _hole_free_counts(20, res, symmetric=True) == [0] * 9 + [1, 9]


def test_pinned_aperture_20():
    res = solve_p1(DesignConstraints(max_aperture=20))
    assert _outcome(res) == (10, (G2, G_ELEMS), 1_387, 168_379)
    assert _complete(res) == [0] * 8 + [4, 737]
    assert _hole_free_counts(20, res) == [0] * 7 + [75, 2_033, 9_582]


def test_pinned_aperture_22():
    res = solve_p1(DesignConstraints(max_aperture=22))
    assert (res.optimum_size, len(res.optimum), res.explored, res.pruned) == (11, 156, 8_888, 686_972)
    assert _complete(res) == [0] * 9 + [513, 4_897]
    assert _hole_free_counts(22, res) == [0] * 7 + [9, 1_279, 12_679, 42_522]
    assert res.optimum[0].elements == (0, 1, 2, 3, 4, 6, 8, 10, 17, 21, 22)
    assert res.optimum[-1].elements == (0, 2, 5, 7, 11, 12, 18, 19, 20, 21, 22)
    assert _digest(res) == "90624447d17165247b736af03213a70c077d1d54fae289e997930aa5c0acf187"


def test_pinned_aperture_22_without_the_hole_free_rule():
    # the outer cuts apply under every rule set: every pattern that joins a
    # size here already fits its fragility bound and leakage cap
    res = solve_p1(DesignConstraints(max_aperture=22, require_hole_free=False))
    assert (res.optimum_size, len(res.optimum), res.explored, res.pruned) == (8, 20, 1_355, 80_805)
    assert _complete(res) == [0] * 6 + [483, 872]
    assert res.optimum[0].elements == (0, 2, 4, 6, 10, 14, 20, 22)
    assert res.optimum[-1].elements == (0, 6, 8, 10, 12, 14, 16, 22)
    assert _digest(res) == "27b82cb3f3ff9e24f1dc67ee96c802e196263ce10c34ba3d9809239ba0bc531e"


def test_pinned_infeasible_aperture_28_without_the_hole_free_rule():
    # under fragility 1/10 no size below 20 admits the essential sensors of
    # any outer pattern; without the outer cuts this query built all 134M
    # candidates, and without the mirror cut 3.34M
    res = solve_p1(DesignConstraints(max_aperture=28, require_hole_free=False,
                                     max_fragility=Fraction(1, 10)))
    assert _outcome(res) == (0, (), 1_736_928, 132_480_800)
    assert _complete(res) == [0] * 19 + [881_681, 499_711, 231_156, 86_714, 28_797, 7_230,
                                         1_413, 205, 20, 1]
    assert _digest(res) == hashlib.sha256(b"[]").hexdigest()
    assert res.message == "no feasible array within aperture 28"


def test_pinned_infeasible_aperture_18():
    res = solve_p1(DesignConstraints(max_aperture=18, max_leakage=0.25))
    assert _outcome(res) == (0, (), 40, 131_032)
    assert _complete(res) == [0] * 11 + [10, 11, 19] + [0] * 5
    assert _hole_free_counts(18, res) == [0] * 7 + [250, 2_074, 5_242, 7_372, 7_151, 5_164,
                                                2_817, 1_155, 349, 75, 11, 1]
    assert res.message == "no feasible array within aperture 18"


@pytest.mark.parametrize("enabled", (True, False), ids=("gc-on", "gc-off"))
def test_optima_build_pauses_the_collector_and_restores_its_state(enabled, monkeypatch):
    # the 156 optima at A=22 are built with the collector paused, and
    # solve_p1 leaves it as it found it, also when the build raises
    trusted = SensorArray._trusted
    paused = []

    def spy(elements):
        paused.append(not gc.isenabled())
        return trusted(elements)

    was = gc.isenabled()
    try:
        gc.enable() if enabled else gc.disable()
        want = solve_p1(DesignConstraints(max_aperture=22))
        assert gc.isenabled() is enabled
        monkeypatch.setattr(SensorArray, "_trusted", spy)
        res = solve_p1(DesignConstraints(max_aperture=22))
        assert gc.isenabled() is enabled
        assert len(paused) == 156 and all(paused)
        assert res == want
        assert _digest(res) == "90624447d17165247b736af03213a70c077d1d54fae289e997930aa5c0acf187"

        def fail(elements):
            raise RuntimeError("build failed")

        monkeypatch.setattr(SensorArray, "_trusted", fail)
        with pytest.raises(RuntimeError, match="build failed"):
            solve_p1(DesignConstraints(max_aperture=22))
        assert gc.isenabled() is enabled
    finally:
        gc.enable() if was else gc.disable()


def test_pinned_aperture_28():
    # the optima and their digest as the kernel without the outer fragility
    # cut found them
    res = solve_p1(DesignConstraints(max_aperture=28))
    assert (res.optimum_size, len(res.optimum), res.explored, res.pruned) == (12, 4, 135_941,
                                                                              16_492_868)
    assert _complete(res) == [0] * 9 + [4, 2_275, 39_957]
    assert res.optimum[0].elements == (0, 1, 2, 3, 7, 9, 13, 19, 23, 24, 27, 28)
    assert res.optimum[-1].elements == (0, 1, 4, 5, 9, 15, 19, 21, 25, 26, 27, 28)
    assert _digest(res) == "33eb794d7c3c0c475b90b87d0e84bd41e5eacced6cd6ec55b4c06ba3e7c1481e"


def test_pinned_forced_aperture_29():
    res = solve_p1(DesignConstraints(max_aperture=29), force=True)
    assert (res.optimum_size, len(res.optimum), res.explored, res.pruned) == (13, 4_280, 586_891,
                                                                              45_708_622)
    assert _complete(res) == [0] * 9 + [2, 1_653, 38_987, 254_750]
    assert res.optimum[0].elements == (0, 1, 2, 3, 4, 5, 6, 13, 15, 20, 23, 27, 29)
    assert res.optimum[-1].elements == (0, 2, 6, 9, 14, 16, 23, 24, 25, 26, 27, 28, 29)
    assert _digest(res) == "071b4a77cbc5c4de346a216a48491582be1f4d3ae7b87339dc98a4cc7ff4026a"


def test_pinned_infeasible_aperture_28_under_a_tight_leakage_cap():
    # no outer pattern of any size keeps its own leakage within 0.01, so
    # nothing is built; without the leakage cut this query built 69.4M masks
    res = solve_p1(DesignConstraints(max_aperture=28, max_fragility=1, max_leakage=0.01))
    assert _outcome(res) == (0, (), 0, 2 ** 27)
    assert [row[0] for row in res.by_size] == list(range(1, 30))


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


def _random_leakage_mix(rng):
    # wide enough for inner bits, with a leakage cap that binds
    return DesignConstraints(
        max_aperture=int(rng.integers(12, 17)),
        require_symmetric=bool(rng.integers(2)),
        require_hole_free=bool(rng.integers(4)),
        exact_aperture=bool(rng.integers(2)),
        max_fragility=[Fraction(1), Fraction(2, 7), Fraction(3, 10), Fraction(1, 2),
                       Fraction(2, 3), Fraction(5, 9)][int(rng.integers(6))],
        max_leakage=float(rng.uniform(0.15, 0.4)),
        coupling=CouplingModel(q=int(rng.integers(0, 16)),
                               c1_magnitude=float(rng.uniform(0.0, 0.6))),
    )


@pytest.mark.parametrize("seed", range(10))
def test_leakage_cut_keeps_the_optima_of_wide_random_mixes(seed):
    cons = _random_leakage_mix(np.random.default_rng(1000 + seed))
    fast = solve_p1(cons)
    assert (fast.optimum_size, tuple(a.elements for a in fast.optimum)) == oracle_solve_p1(cons)


def test_pools_split_inside_a_size_keep_the_random_mix_optima(monkeypatch):
    # tiny blocks make the leakage and fragility pass run on many pools per
    # (span, k); a pool never outgrows one block, which bounds its temporaries.
    # With one candidate of each reflected pair built, no pool of these mixes
    # splits at 4 masks, and five (seed, span, k) split at 2
    monkeypatch.setattr(search, "BLOCK", 2)
    feasible, pools = search._feasible, []

    def spy(masks, span, k, cons, outer_table):
        pools.append(((seed, span, k), masks.size))
        return feasible(masks, span, k, cons, outer_table)

    monkeypatch.setattr(search, "_feasible", spy)
    for seed in range(24):
        cons, oracle = _random_mix_and_oracle(seed)
        fast = solve_p1(cons)
        assert (fast.optimum_size, tuple(a.elements for a in fast.optimum)) == oracle
    assert max(size for _, size in pools) <= search.BLOCK
    assert max(collections.Counter(key for key, _ in pools).values()) > 1


def _outer_essential(c):
    """The sensors of candidate c essential to one of its lags among
    span - t .. span (t = _OUTER) by the removal definition."""
    span = c[-1]
    outer = set(range(max(1, span - search._OUTER), span + 1)) & oracle_differences(c)
    return [g for g in c if not outer <= oracle_differences([e for e in c if e != g])]


def _outer_bits(c):
    """The sensors of candidate c at most t (t = _OUTER) from an end, read as
    the kernel's n_out outer bits: e <= t is bit e - 1, and span - e <= t is
    bit n_out - span + e, which is also e - 1 when every free bit is outer."""
    span, t = c[-1], search._OUTER
    n_out = min(2 * t, span - 1)
    return sum(1 << (e - 1 if e <= t else n_out - span + e)
               for e in c[1:-1] if min(e, span - e) <= t)


def _built(c, bound, cons):
    """Whether the kernel builds candidate c, with t = _OUTER: without the
    symmetry rule, its outer bits are at most those of its reflection; under
    the hole-free rule every lag span - t .. span - 1 has a pair; at most
    bound sensors are essential to one of lags span - t .. span; and, under
    a leakage rule, the sensors at most t from an end (with a symmetric
    family's centre) hold pairs whose leakage at size len(c) stays within
    the cap and its margin."""
    span, t = c[-1], search._OUTER
    if not cons.require_symmetric and _outer_bits(c) > _outer_bits(_mirror(c)):
        return False
    if cons.require_hole_free and not set(range(max(1, span - t), span)) <= oracle_differences(c):
        return False
    if len(_outer_essential(c)) > bound:
        return False
    if cons.max_leakage == 1:
        return True
    outer = [e for e in c
             if min(e, span - e) <= t or (cons.require_symmetric and 2 * e == span)]
    lags = collections.Counter(b - a for a, b in itertools.combinations(outer, 2))
    counts = np.array([lags[d] for d in range(1, min(cons.coupling.q, span) + 1)])
    leak = coupling.leakage_from_counts(counts, len(c), cons.coupling.c1_magnitude)
    return leak <= cons.max_leakage * (1 + search.LEAKAGE_MARGIN)


@pytest.mark.parametrize("kw", [
    dict(max_aperture=9),
    dict(max_aperture=8, exact_aperture=False, max_fragility=1, max_leakage=1),
    dict(max_aperture=8, require_symmetric=True, max_fragility=1, max_leakage=0.45),
    dict(max_aperture=7, require_hole_free=False, max_fragility=1, max_leakage=0.3),
    # wide enough for the outer prune to use all its bits
    dict(max_aperture=16, require_symmetric=True),
    dict(max_aperture=14, max_fragility=Fraction(2, 5), max_leakage=0.3),
    dict(max_aperture=16, require_hole_free=False, max_fragility=Fraction(1, 4)),
])
def test_by_size_counts_every_size_tried(kw):
    # explored counts the candidates the kernel builds and complete the
    # hole-free ones among them; the rest of each size is pruned unbuilt
    cons = DesignConstraints(**kw)
    res = solve_p1(cons)
    A = cons.max_aperture
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
        built = [c for c in cands if _built(c, bound, cons)
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
        cands = _spanning(span, k, False)
        masks = np.array([_mask(c) for c in cands], dtype=np.uint64)
        counts = [sum(oracle_essential(c)) for c in cands]
        checked += len(cands)
        hole_free += sum(difference_coarray(SensorArray(c)).hole_free for c in cands)
        seed = oracle_outer_seed(masks, span)
        for bound in range(k + 1):
            kept = search._fragility_cut(masks, span, k, bound, seed).tolist()
            assert kept == [m for m, n in zip(masks.tolist(), counts) if n <= bound], (k, bound)
            assert oracle_fragility_cut(masks, span, k, bound).tolist() == kept, (k, bound)
    assert checked == 2 ** (span - 1)
    assert hole_free > 100
    # the single sensor is essential, and span 0 has no lag to walk
    single = np.array([1], dtype=np.uint64)
    seed = oracle_outer_seed(single, 0)
    assert search._fragility_cut(single, 0, 1, 0, seed).tolist() == []
    assert search._fragility_cut(single, 0, 1, 1, seed).tolist() == [1]


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


@pytest.mark.parametrize("kw", [
    dict(max_aperture=15),
    dict(max_aperture=20, require_symmetric=True),
    dict(max_aperture=10, exact_aperture=False, max_fragility=Fraction(2, 7), max_leakage=0.45),
])
@pytest.mark.parametrize("small", [0, 1, search.BLOCK])
def test_results_do_not_depend_on_the_small_pool_size(kw, small, monkeypatch):
    # 0 walks every lag one at a time (an empty pool still takes the 2-D
    # pass), and BLOCK takes every pool's lags in one 2-D pass
    cons = DesignConstraints(**kw)
    whole = solve_p1(cons)
    monkeypatch.setattr(search, "SMALL_POOL", small)
    res = solve_p1(cons)
    assert (_outcome(res), res.by_size) == (_outcome(whole), whole.by_size)


def _random_masks(rng, n, span, k):
    """n random size-k masks spanning exactly span; a mask may repeat."""
    inner = rng.random((n, span - 1)).argsort(axis=1)[:, :k - 2] + 1
    return (np.uint64(1 | 1 << span)
            | (np.uint64(1) << inner.astype(np.uint64)).sum(axis=1, dtype=np.uint64))


# the pool sizes around the switch from the lag-by-lag walk to one 2-D pass
POOL_SIZES = [0, 1, search.SMALL_POOL, search.SMALL_POOL + 1, search.BLOCK]


@pytest.mark.parametrize("n", POOL_SIZES)
def test_hole_free_pass_equals_the_per_lag_oracle(n):
    rng = np.random.default_rng(n)
    for span, k in ((18, 9), (20, 11), (33, 12)):
        masks = _random_masks(rng, n, span, k)
        for lags in (0, 1, span - search._OUTER - 1, span):
            assert search._hole_free(masks, lags).tolist() == oracle_complete(masks, lags).tolist()
    if n > search.SMALL_POOL:
        # at (18, 9) about a fifth of the masks are hole-free
        masks = _random_masks(rng, n, 18, 9)
        assert 0 < search._hole_free(masks, 18).size < n


@pytest.mark.parametrize("n", POOL_SIZES)
def test_fragility_cut_equals_the_per_lag_oracle_seeded_or_not(n):
    # the seed is built lag by lag here, and read from the outer table in
    # the search (test_outer_seed_holds_the_essential_sensors_of_the_outer_lags)
    rng = np.random.default_rng(100 + n)
    for span, k, bound in ((24, 10, 8), (20, 9, 6), (9, 5, 3), (6, 4, 2), (40, 14, 10)):
        masks = _random_masks(rng, n, span, k)
        want = oracle_fragility_cut(masks, span, k, bound).tolist()
        seed = oracle_outer_seed(masks, span)
        assert search._fragility_cut(masks, span, k, bound, seed).tolist() == want, (span, k)
        # the cut leaves its seed as it was
        assert (seed == oracle_outer_seed(masks, span)).all()
        if n > search.SMALL_POOL and span == 24:
            # the bound keeps some masks and drops others
            assert 0 < len(want) < n


@pytest.mark.parametrize("n", POOL_SIZES)
def test_lag_pairs_equal_the_per_lag_oracle_in_a_contiguous_uint8_matrix(n):
    # a C-contiguous (masks x lags) matrix keeps each row's leakage sum in
    # the order leakage_from_profile takes, bit for bit
    rng = np.random.default_rng(200 + n)
    for span, k in ((40, 12), (20, 10), (63, 30)):
        masks = _random_masks(rng, n, span, k)
        for lags in (0, 1, 15, span):
            pairs = search._lag_pairs(masks, lags)
            assert pairs.dtype == np.uint8 and pairs.shape == (n, lags)
            assert pairs.flags.c_contiguous
            assert np.array_equal(pairs, oracle_lag_pairs(masks, lags))


def test_candidate_blocks_are_bounded_and_complete(monkeypatch):
    # every rule off yields every candidate or its reflection; with the outer
    # prune on, the joined outer x inner blocks keep the same bound ((18, 8)
    # and (26, 12) keep 1,083 and 134 masks under the hole-free rule)
    monkeypatch.setattr(search, "BLOCK", 7)
    for span, k, sym in [(16, 5, False), (27, 3, False), (63, 4, False), (20, 7, True),
                         (19, 4, True), (18, 8, False), (26, 12, True)]:
        for table in (_EVERY, _NO_RULES):
            blocks = list(search._candidate_blocks(span, k, sym, table))
            masks = np.concatenate(blocks or [np.zeros(0, dtype=np.uint64)])
            assert max((b.size for b in blocks), default=0) <= 7
            assert masks.size == np.unique(masks).size
            every = np.union1d(masks, _reflect(masks, span))
            assert table is _NO_RULES or every.size == search._count_candidates(span, k, sym)
            assert (np.bitwise_count(masks) == k).all()
            assert ((masks & 1) == 1).all() and ((masks >> span) == 1).all()


def test_mirror_cut_builds_one_candidate_of_each_reflected_pair():
    # every rule off, at each non-symmetric span 2..20 and each size: the
    # built masks and their reflections are every candidate, and a mask is
    # built with its reflection only when its outer band, the sensors at
    # most t from an end, equals its reflection's, a tie that keeps both;
    # up to span 13 the band is every free sensor, so a tie is a palindrome
    t = search._OUTER
    for span in range(2, 21):
        band = sum(1 << e for e in range(1, span) if min(e, span - e) <= t)
        every = np.arange(1 << (span - 1), dtype=np.uint64) << 1 | 1 | 1 << span
        for k in range(2, span + 2):
            blocks = list(search._candidate_blocks(span, k, False, _EVERY))
            built = np.concatenate(blocks or [np.zeros(0, dtype=np.uint64)])
            mirror = _reflect(built, span)
            assert built.size == np.unique(built).size
            want = every[np.bitwise_count(every) == k]
            assert np.union1d(built, mirror).tolist() == want.tolist(), (span, k)
            both = np.intersect1d(built, mirror)
            assert ((both & band) == (_reflect(both, span) & band)).all(), (span, k)
            # fewer than all are built unless every candidate is a palindrome
            assert (built.size < want.size) != (want == _reflect(want, span)).all(), (span, k)


@functools.cache
def _spanning(span, k, symmetric):
    """The size-k candidates spanning exactly span >= 1, by itertools."""
    rests = itertools.combinations(range(1, span), k - 2) if k > 1 else ()
    return [c for c in ((0, *rest, span) for rest in rests)
            if not symmetric or is_symmetric(SensorArray(c))]


@pytest.mark.parametrize("symmetric", [False, True])
def test_outer_prune_drops_exactly_the_candidates_missing_a_long_lag(symmetric):
    # against itertools: the kernel builds exactly the candidates with a pair
    # at every lag span - t .. span - 1, and each one it skips has a hole
    t = search._OUTER
    for span in range(2, 17):
        longest = set(range(max(1, span - t), span))
        for k in range(1, span + 2):
            cands = _spanning(span, k, symmetric)
            blocks = list(search._candidate_blocks(span, k, symmetric, _NO_RULES))
            built = [oracle_elements(m, span) for b in blocks for m in b.tolist()]
            covered = [c for c in cands if longest <= oracle_differences(c)]
            # a covered candidate is skipped only when its reflection is built
            assert len(built) == len(set(built))
            assert sorted(set(built) | set(map(_mirror, built))) == covered, (span, k)
            for c in set(cands) - set(covered):
                assert not difference_coarray(SensorArray(c)).hole_free, c


@pytest.mark.parametrize("symmetric", [False, True])
def test_outer_fragility_cut_skips_only_infeasible_candidates(symmetric):
    # for every bound b = 0..k, under the fragility rule (2b + 1) / 2k (or
    # 1 at b = k), whose floor(f k) is b: each candidate the kernel skips
    # has its reflection built, leaves one of lags span - t .. span - 1
    # without a pair, or has more than b essential sensors by the removal
    # definition; each one built is built once
    t, cut = search._OUTER, 0
    for span in range(2, 17):
        longest = set(range(max(1, span - t), span))
        for k in range(2, span + 2):
            cands = _spanning(span, k, symmetric)
            covered = {c for c in cands if longest <= oracle_differences(c)}
            essential = {}
            for bound in range(k + 1):
                frag = Fraction(2 * bound + 1, 2 * k) if bound < k else Fraction(1)
                cons = DesignConstraints(max_aperture=span, max_fragility=frag, max_leakage=1)
                assert search._essential_bound(cons, k) == bound
                table = functools.partial(search._outer_table, cons=cons)
                blocks = search._candidate_blocks(span, k, symmetric, table)
                built = [oracle_elements(m, span) for b in blocks for m in b.tolist()]
                assert len(built) == len(set(built)) and set(built) <= covered, (span, k, bound)
                built = set(built)
                for c in covered - built:
                    if _mirror(c) in built:
                        continue
                    if c not in essential:
                        essential[c] = sum(oracle_essential(c))
                    assert essential[c] > bound, (c, bound)
                    cut += 1
    assert cut > 0


# the outer-cut oracle meets each small candidate under every rule set
_differences = functools.cache(oracle_differences)


@functools.cache
def _coarray(c):
    return difference_coarray(SensorArray(c))


# (q, c1, max_leakage, max_fragility) of the outer-cut oracle
CUT_RULES = [
    (15, 0.3, 0.25, Fraction(3, 10)),
    (4, 0.5, 0.3, Fraction(1)),
    (40, 0.2, 0.12, Fraction(1, 2)),
    (2, 0.6, 0.4, Fraction(2, 7)),
]


@pytest.mark.parametrize("q,c1,max_leakage,max_fragility", CUT_RULES)
@pytest.mark.parametrize("symmetric", [False, True])
def test_outer_cut_skips_only_infeasible_candidates(symmetric, q, c1, max_leakage,
                                                    max_fragility):
    # against itertools, with and without the hole-free rule: each candidate
    # the kernel skips under the rules' table has its reflection built,
    # leaves one of lags span - t .. span - 1 without a pair (under the
    # hole-free rule only), has more sensors essential to its lags among
    # span - t .. span than the fragility rule allows, or fails
    # check_constraints' leakage rule; each one built is built once
    t, by_leakage = search._OUTER, 0
    for span, hole_free in itertools.product(range(2, 17), (True, False)):
        cons = DesignConstraints(max_aperture=span, require_symmetric=symmetric,
                                 require_hole_free=hole_free, max_fragility=max_fragility,
                                 max_leakage=max_leakage,
                                 coupling=CouplingModel(q=q, c1_magnitude=c1))
        table = functools.partial(search._outer_table, cons=cons)
        longest = set(range(max(1, span - t), span))
        for k in range(2, span + 2):
            cands = _spanning(span, k, symmetric)
            blocks = search._candidate_blocks(span, k, symmetric, table)
            built = [oracle_elements(m, span) for b in blocks for m in b.tolist()]
            assert len(built) == len(set(built)) and set(built) <= set(cands), (span, k)
            built = set(built)
            bound = max_fragility.numerator * k // max_fragility.denominator
            for c in set(cands) - built:
                if _mirror(c) in built:
                    continue
                if hole_free and not longest <= _differences(c):
                    continue
                # check_constraints' leakage rule, without its other metrics
                if leakage_from_profile(_coarray(c), cons.coupling) > max_leakage:
                    by_leakage += 1
                else:
                    assert len(_outer_essential(c)) > bound, (c, hole_free)
    assert by_leakage > 0


def test_leakage_margin_keeps_an_array_at_its_own_leakage():
    # at span <= 13 every free bit is outer, so an outer pattern's leakage
    # is its array's own: a cap equal to it keeps the array, one ulp lower
    # the margin still builds it (or, under the mirror cut, its reflection)
    # and the leaf drops it, and a cap lower by more than the margin cuts
    # both before they are built
    model = DesignConstraints(max_aperture=13).coupling
    for span, symmetric in ((13, False), (12, False), (12, True)):
        rulers = solve_p1(DesignConstraints(max_aperture=span, require_symmetric=symmetric,
                                            max_fragility=1, max_leakage=1)).optimum
        best = min(rulers, key=lambda a: leakage_from_profile(difference_coarray(a), model))
        lib = leakage_from_profile(difference_coarray(best), model)
        for cap, kept, built in ((lib, True, True), (np.nextafter(lib, 0), False, True),
                                 (lib * (1 - 1e-6), False, False)):
            cons = DesignConstraints(max_aperture=span, require_symmetric=symmetric,
                                     max_fragility=1, max_leakage=float(cap))
            assert check_constraints(best, cons).feasible is kept
            assert (best in solve_p1(cons).optimum) is kept, (span, cap)
            table = functools.partial(search._outer_table, cons=cons)
            blocks = search._candidate_blocks(span, len(best.elements), symmetric, table)
            masks = {oracle_elements(m, span) for b in blocks for m in b.tolist()}
            assert bool({best.elements, _mirror(best.elements)} & masks) is built, (span, cap)


PINNED_QUERIES = [
    dict(max_aperture=20, require_symmetric=True),
    dict(max_aperture=20),
    dict(max_aperture=22),
    dict(max_aperture=18, max_leakage=0.25),
    dict(max_aperture=28),
    dict(max_aperture=29),
    dict(max_aperture=28, max_fragility=1, max_leakage=0.01),
]

# rule sets at the edges of the closed-form leakage size: nothing couples,
# caps within 1e-9 of 1 (one above 1 once widened by the margin), and caps
# whose square underflows, with and without coupling
EDGE_QUERIES = [
    dict(max_aperture=20, coupling=CouplingModel(c1_magnitude=0.0)),
    dict(max_aperture=20, coupling=CouplingModel(q=0)),
    dict(max_aperture=20, require_symmetric=True, coupling=CouplingModel(q=0, c1_magnitude=0.0)),
    dict(max_aperture=20, max_leakage=1 - 1e-10),
    dict(max_aperture=20, max_leakage=1 - 5e-10, require_symmetric=True),
    dict(max_aperture=20, max_leakage=float(np.nextafter(1, 0))),
    dict(max_aperture=16, max_leakage=1e-300),
    dict(max_aperture=16, max_leakage=1e-300, coupling=CouplingModel(c1_magnitude=0.0)),
    dict(max_aperture=20, max_leakage=1e-160, coupling=CouplingModel(c1_magnitude=1e-155)),
]


def _table_mix(rng):
    return dict(
        max_aperture=int(rng.integers(2, 30)),
        require_symmetric=bool(rng.integers(2)),
        require_hole_free=bool(rng.integers(4)),
        exact_aperture=bool(rng.integers(3)),
        max_fragility=Fraction(int(rng.integers(1, 11)), 10),
        max_leakage=float(10 ** rng.uniform(-4, 0) if rng.integers(3) else rng.uniform(0.1, 1)),
        coupling=CouplingModel(q=int(rng.integers(0, 40)),
                               c1_magnitude=float(rng.uniform(0, 0.99))),
    )


@pytest.mark.parametrize("kw", PINNED_QUERIES + EDGE_QUERIES
                         + [_table_mix(np.random.default_rng(2400 + i)) for i in range(60)])
def test_outer_table_kmin_equals_the_size_scan(kw):
    # on every table a search under the rules builds: each pattern's kmin,
    # from the first size the fragility bound admits and the leakage formula
    # solved for n, equals the ceiling of ess * den / num and the scan of
    # the pattern's own leakage over sizes 1 .. span + 1
    cons = DesignConstraints(**kw)
    A, symmetric, t = cons.max_aperture, cons.require_symmetric, search._OUTER
    shapes = {(span, fixed, bits) for span in ([A] if cons.exact_aperture else range(A + 1))
              for k in range(1, span + 2) for fixed, bits, _ in search._families(span, k, symmetric)}
    for span, fixed, bits in shapes:
        _, _, by_popcount, _ = search._outer_table(span, fixed, bits, symmetric, cons)
        masks = np.concatenate([m for m, _ in by_popcount])
        kmin = np.concatenate([k for _, k in by_popcount])
        ess = np.zeros_like(masks)
        for d in range(max(1, span - t), span + 1):
            ess |= oracle_lag_essential(masks, d)
        pairs = search._lag_pairs(masks, min(cons.coupling.q, span))
        expected = oracle_smallest_sizes(pairs, np.bitwise_count(ess).tolist(), span, cons,
                                         search.LEAKAGE_MARGIN)
        assert kmin.tolist() == expected.tolist(), (span, fixed, bits)


TABLE_RULES = [dict(), dict(require_hole_free=False), dict(max_fragility=1), dict(max_leakage=1),
               dict(max_leakage=0.25)]


@pytest.mark.parametrize("rules", TABLE_RULES)
@pytest.mark.parametrize("symmetric", [False, True])
def test_outer_table_equals_the_per_lag_table(symmetric, rules):
    # the one pass over the lag band builds the table the per-lag loop
    # builds, element for element, at every family shape of spans 1..24;
    # up to span 2t the lag band holds weight-2 middles
    cons = DesignConstraints(max_aperture=1, **rules)
    t, middles = search._OUTER, 0
    for span in range(1, 25):
        shapes = {(fixed, bits) for k in range(1, span + 2)
                  for fixed, bits, _ in search._families(span, k, symmetric)}
        for fixed, bits in shapes:
            left, n_out, by_popcount, seed = search._outer_table(span, fixed, bits, symmetric,
                                                                 cons)
            want_left, want_n_out, want_by_popcount, want_seed = oracle_outer_table(
                span, fixed, bits, symmetric, cons)
            assert (left, n_out) == (want_left, want_n_out)
            assert len(by_popcount) == len(want_by_popcount)
            for got, want in zip(by_popcount, want_by_popcount):
                for a, b in zip(got, want):
                    assert a.dtype == b.dtype and a.tolist() == b.tolist(), (span, fixed)
            assert seed.dtype == want_seed.dtype and seed.tolist() == want_seed.tolist()
            # the seed's sensors beyond the ends of weight-1 pairs are middles
            masks = np.concatenate([m for m, _ in by_popcount])
            ends = np.zeros_like(masks)
            for d in range(max(1, span - t), span + 1):
                pairs = masks & (masks >> d)
                ends |= np.where(np.bitwise_count(pairs) == 1, pairs | pairs << d, 0)
            middles += int(np.bitwise_count(seed).sum() - np.bitwise_count(ends).sum())
    assert middles > 0


@pytest.mark.parametrize("kw", PINNED_QUERIES + [None])
def test_optima_equal_the_checked_arrays_of_their_elements(kw):
    # the optima skip the constructor's checks: each equals, and hashes
    # equal to, the array the checked constructor makes of its elements, is
    # unnamed, holds exact ints, and the definitional metrics accept it
    seen = 0
    for cons in [DesignConstraints(**kw)] if kw else _mix_queries():
        for a in solve_p1(cons, force=True).optimum:
            checked = SensorArray(list(a.elements))
            assert a == checked and hash(a) == hash(checked)
            assert a.name == "" and type(a.elements) is tuple
            assert all(type(e) is int for e in a.elements)
            assert difference_coarray(a).aperture == a.aperture
            assert check_constraints(a, cons).feasible
            seen += 1
    # the tight-leakage query and the one at aperture 18 have no optimum
    assert seen or kw["max_leakage"] in (0.01, 0.25)


def _mix_queries():
    """The random mixes the brute-force oracle checks, as constraints."""
    return ([_random_mix_and_oracle(seed)[0] for seed in range(24)]
            + [_random_leakage_mix(np.random.default_rng(1000 + seed)) for seed in range(10)])


@pytest.mark.parametrize("kw", PINNED_QUERIES + [None])
def test_seeded_fragility_cut_equals_the_full_lag_cut_on_every_pool(kw, monkeypatch):
    # every pool the search cuts starts from its outer table's essential
    # sets at lag span - t - 1, and keeps exactly the masks that the cut
    # walking every lag keeps
    cut, seeded = search._fragility_cut, []

    def spy(masks, span, k, bound, seed):
        kept = cut(masks, span, k, bound, seed)
        assert seed is not None and seed.shape == masks.shape
        assert kept.tolist() == oracle_fragility_cut(masks, span, k, bound).tolist(), (span, k)
        seeded.append(masks.size)
        return kept

    monkeypatch.setattr(search, "_fragility_cut", spy)
    for cons in [DesignConstraints(**kw)] if kw else _mix_queries():
        solve_p1(cons, force=True)
    # the tight-leakage query builds nothing, and at aperture 18 no mask
    # passes leakage, so no pool reaches the cut
    assert seeded or kw["max_leakage"] in (0.01, 0.25)


@pytest.mark.parametrize("symmetric", [False, True])
def test_outer_seed_holds_the_essential_sensors_of_the_outer_lags(symmetric):
    # every candidate built from a kept outer pattern, at spans 1..24: the
    # seed read by its pattern holds the sensors lags span - t .. span make
    # essential in the whole candidate, middles included
    t, middles = search._OUTER, 0
    for span in range(1, 25):
        for k in range(1, span + 2):
            for masks in search._candidate_blocks(span, k, symmetric, _EVERY):
                ess = oracle_outer_seed(masks, span)
                seed = search._outer_seed(masks, span, k, symmetric, _EVERY)
                assert (seed == ess).all(), (span, k)
                if 2 * t >= span:
                    ends = np.zeros_like(masks)
                    for d in range(max(1, span - t), span + 1):
                        pairs = masks & (masks >> d)
                        ends |= np.where(np.bitwise_count(pairs) == 1, pairs | pairs << d, 0)
                    middles += int((ess != ends).sum())
    assert middles > 0


def _leaf_calls(monkeypatch):
    """The _mark_essential lags and _lag_pairs calls made inside _feasible,
    one list of (function, span, lag) per leaf call."""
    calls, leaf = [], [None, None]
    feasible, mark, lag_pairs = search._feasible, search._mark_essential, search._lag_pairs

    def spy_feasible(masks, span, k, cons, outer_table):
        leaf[:] = [[], span]
        calls.append(leaf[0])
        try:
            return feasible(masks, span, k, cons, outer_table)
        finally:
            leaf[:] = [None, None]

    def spy_mark(pairs, d, middles):
        # d is one lag, or a column of lags that one call marks in its order
        if leaf[0] is not None:
            leaf[0].extend(("mark", leaf[1], lag) for lag in np.ravel(d).tolist())
        return mark(pairs, d, middles)

    def spy_pairs(masks, lags):
        if leaf[0] is not None:
            leaf[0].append(("pairs", None, lags))
        return lag_pairs(masks, lags)

    monkeypatch.setattr(search, "_feasible", spy_feasible)
    monkeypatch.setattr(search, "_mark_essential", spy_mark)
    monkeypatch.setattr(search, "_lag_pairs", spy_pairs)
    return calls


def test_the_leaf_cut_marks_only_the_lags_below_the_seed(monkeypatch):
    # the seeded cut marks lags span - t - 1, span - t - 2, ... in turn and
    # none that the outer table already marked
    calls = _leaf_calls(monkeypatch)
    t, marked = search._OUTER, 0
    for A in (18, 20, 22):
        solve_p1(DesignConstraints(max_aperture=A))
    for call in calls:
        lags = [(span, d) for name, span, d in call if name == "mark"]
        if lags:
            span = lags[0][0]
            assert lags == [(span, span - t - 1 - i) for i in range(len(lags))]
            marked += len(lags)
    assert marked > 0


def _full_leaf(masks, span, k, cons, outer_table):
    """The leaf with both passes run on every pool, whatever the rules:
    leakage by the shared formula, then the cut that walks every lag."""
    pairs = search._lag_pairs(masks, min(cons.coupling.q, span))
    masks = masks[coupling.leakage_from_counts(pairs, k, cons.coupling.c1_magnitude)
                  <= cons.max_leakage]
    return oracle_fragility_cut(masks, span, k, search._essential_bound(cons, k))


RULES_AT_1 = [dict(max_fragility=1), dict(max_leakage=1), dict(max_fragility=1, max_leakage=1)]


@pytest.mark.parametrize("rules", RULES_AT_1)
def test_a_rule_set_to_1_makes_no_leaf_pass(rules, monkeypatch):
    # a rule at 1 passes every mask, so the leaf skips its pass: no
    # _mark_essential call under fragility 1, no _lag_pairs call under
    # leakage 1, and every result equals that of the leaf running both
    results = []
    for leaf in ("library", "full"):
        if leaf == "full":
            monkeypatch.setattr(search, "_feasible", _full_leaf)
        else:
            calls = _leaf_calls(monkeypatch)
        results.append([solve_p1(DesignConstraints(max_aperture=A, **rules))
                        for A in range(1, 23)])
        monkeypatch.undo()
    library, full = results
    assert [(_outcome(a), a.by_size) for a in library] == [(_outcome(b), b.by_size) for b in full]
    assert calls
    names = {name for call in calls for name, _, _ in call}
    assert ("mark" in names) is ("max_fragility" not in rules)
    assert ("pairs" in names) is ("max_leakage" not in rules)


def test_a_cap_whose_square_underflows_is_decided_without_warnings():
    # any warning fails the suite; with coupling no pattern fits a 1e-300
    # cap and nothing is built, and without it every leakage is 0, so the
    # cap binds nothing and the search equals the default-cap one
    res = solve_p1(DesignConstraints(max_aperture=16, max_leakage=1e-300))
    assert _outcome(res) == (0, (), 0, 2 ** 15)
    free = CouplingModel(c1_magnitude=0.0)
    res = solve_p1(DesignConstraints(max_aperture=16, max_leakage=1e-300, coupling=free))
    assert (res.optimum_size, len(res.optimum), res.explored, res.pruned) == (10, 576, 694,
                                                                              22_125)
    assert _outcome(res) == _outcome(solve_p1(DesignConstraints(max_aperture=16, coupling=free)))


def test_optima_decode_equals_the_bit_walk():
    # the optima are the bit-walk rows of the masks and their reflections,
    # each once, in lexicographic order
    rng = np.random.default_rng(23)
    for span, k in ((0, 1), (5, 3), (22, 11), (63, 2), (63, 40)):
        inner = [rng.choice(np.arange(1, span), size=k - 2, replace=False) if k > 2 else ()
                 for _ in range(300)]
        masks = list({sum(1 << int(e) for e in {0, span, *row}) for row in inner})
        rows = {oracle_elements(m, span) for m in masks}
        decoded = search._optima(masks, k)
        assert decoded == [list(c) for c in sorted(rows | set(map(_mirror, rows)))]
    # a symmetric row is its own reflection, and a row found with its
    # reflection (a tie of the mirror cut) gives each once
    assert search._optima([_mask(S_ELEMS)], len(S_ELEMS)) == [list(S_ELEMS)]
    pair = [G_ELEMS, _mirror(G_ELEMS)]
    for found in ([_mask(G_ELEMS)], [_mask(c) for c in pair], [_mask(c) for c in pair[::-1]]):
        assert search._optima(found, len(G_ELEMS)) == [list(c) for c in sorted(pair)]
    assert search._optima([], 4) == []


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
    blocks = search._candidate_blocks(20, 10, False, _EVERY)
    masks = np.concatenate([first, next(blocks)[:200]])
    for mask in masks:
        mask = mask.reshape(1)
        arr = SensorArray(oracle_elements(int(mask[0]), 20))
        lib = leakage_from_profile(difference_coarray(arr), model)
        for cap, accept in ((lib, True), (np.nextafter(lib, 0), False)):
            cons = DesignConstraints(max_aperture=20, require_hole_free=False,
                                     max_fragility=1, max_leakage=float(cap))
            assert check_constraints(arr, cons).feasible is accept
            outer_table = functools.partial(search._outer_table, cons=cons)
            assert search._feasible(mask, 20, 10, cons, outer_table).size == accept


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
    lib = [leakage_from_profile(difference_coarray(SensorArray(oracle_elements(m, span))), model)
           for m in masks.tolist()]
    assert kernel.tolist() == lib
