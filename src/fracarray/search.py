"""Exhaustive minimum-sensor array design under symmetry, hole-free-coarray,
fragility, coupling-leakage and aperture constraints.

The solver enumerates candidate element sets by ascending cardinality, so
the first feasible cardinality is the optimum. Candidates are uint64
bitmasks over {0..max_aperture}, so apertures stop at MAX_SPAN = 63. One
numpy kernel builds them outside-in, block by block (at most BLOCK masks
each): a pair at one of the t = _OUTER = 6 longest lags joins sensors at
most t from either end, so the patterns of those outer positions are
tabulated first, once per search for each family shape. Each pattern
carries kmin, the smallest size it may join: the first size whose fragility
bound admits the sensors it makes essential at lags span - t .. span, and
the first at which its own pairs fit the leakage cap, by the leakage
formula solved for n. One 2-D pass over the lag band span - t .. span
gives every pattern's pairs at all of those lags, and from them its
essential sensors and the hole-free filter. A pattern joins the inner
positions at each size from kmin on. Under the hole-free rule only
patterns covering lags span - t .. span - 1 join. Consecutive blocks of one
(span, k) are pooled, up to BLOCK masks, and under the hole-free rule each
pool keeps its complete rulers, those with a pair at every shorter lag.
The kept masks are pooled again, up to BLOCK masks, and each pool goes
through leakage and then fragility, all exact; a rule set to 1 passes every
mask and makes no pass. Fragility is a running cut: lags from the longest
add their essential sensors, and a mask leaves as soon as it holds too
many. The outer table already holds each pattern's essential sensors at
lags span - t .. span, and one family builds each (span, k), so the cut
starts from the set its pattern holds, at lag span - t - 1. The hole-free
filter and the fragility cut walk the lags one AND-shift at a time while a
pool is large, so it shrinks early, and take the lags left in one
(lags x masks) pass once it holds at most SMALL_POOL masks; leakage counts
a pool that small at every lag in one pass too. So a small pool pays
numpy's per-call cost once, not once per lag. The optima are decoded from
their masks, already sorted, distinct and 0-based, so they become arrays
without the constructor's checks.

The reflection e -> span - e keeps a candidate's span, size and coarray
counts, so every rule decides a candidate and its mirror image alike. A
non-symmetric family tabulates one outer pattern of each reflected pair,
and keeps a pattern that is its own reflection, so it builds a candidate or
its mirror image, as exhaustive Golomb-ruler search does; the optima are
decoded with their reflections.
"""

import functools
import gc
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .analysis import economy
from .core import SensorArray, difference_coarray, is_symmetric
from .coupling import (CouplingModel, leakage_from_counts, leakage_from_profile,
                       smallest_size_within)

# with the default rules A=28 takes 0.017-0.018 s in process on a 2-core
# shared VM and A=29 about 0.07 s. The outer cuts depend on the rules: at
# A=28 the infeasible --max-leakage 0.25 query builds 9.5M candidates in
# 1.0-1.2 s (and the infeasible --no-hole-free --max-fragility 1/10 one
# 1.7M in 0.11-0.15 s); the guard moves only when a measurement justifies it
APERTURE_GUARD = 28


@dataclass(frozen=True)
class DesignConstraints:
    """Feasibility rules for candidate arrays.

    With exact_aperture (the default) only candidates spanning the whole
    allowed aperture compete, i.e. every candidate contains both 0 and
    max_aperture; set it False to also admit shorter spans. Fragility is
    compared as an exact rational (floats are read as their decimal
    literal, so 0.3 means 3/10). Setting max_fragility or max_leakage to 1
    disables that rule.
    """

    max_aperture: int
    require_symmetric: bool = False
    require_hole_free: bool = True
    max_fragility: Fraction = Fraction(3, 10)
    max_leakage: float = 1 / 3
    coupling: CouplingModel = CouplingModel()
    exact_aperture: bool = True

    def __post_init__(self):
        if self.max_aperture < 1:
            raise ValueError("max_aperture must be >= 1")
        f = self.max_fragility
        f = Fraction(str(f)) if isinstance(f, float) else Fraction(f)
        if not 0 < f <= 1:
            raise ValueError("max_fragility must lie in (0, 1]")
        object.__setattr__(self, "max_fragility", f)
        if not 0 < self.max_leakage <= 1:
            raise ValueError("max_leakage must lie in (0, 1]")


@dataclass(frozen=True)
class FeasibilityReport:
    """Measured value and pass flag for every design rule on one array.
    Inactive rules pass automatically but still report their value."""

    array: SensorArray
    aperture: int
    aperture_ok: bool
    symmetric: bool
    symmetric_ok: bool
    hole_free: bool
    hole_free_ok: bool
    fragility: Fraction
    fragility_ok: bool
    leakage: float
    leakage_ok: bool

    @property
    def feasible(self):
        return (self.aperture_ok and self.symmetric_ok and self.hole_free_ok
                and self.fragility_ok and self.leakage_ok)


def check_constraints(array, constraints):
    """Evaluate every design rule on one array through the definitional
    metric code (coarray, economy, leakage)."""
    prof = difference_coarray(array)
    ap = array.aperture
    if constraints.exact_aperture:
        ap_ok = ap == constraints.max_aperture
    else:
        ap_ok = ap <= constraints.max_aperture
    sym = is_symmetric(array)
    hf = prof.hole_free
    frag = economy(array).fragility
    leak = leakage_from_profile(prof, constraints.coupling)
    return FeasibilityReport(
        array=array, aperture=ap, aperture_ok=ap_ok,
        symmetric=sym, symmetric_ok=sym or not constraints.require_symmetric,
        hole_free=hf, hole_free_ok=hf or not constraints.require_hole_free,
        fragility=frag, fragility_ok=frag <= constraints.max_fragility,
        leakage=leak, leakage_ok=leak <= constraints.max_leakage,
    )


@dataclass(frozen=True)
class SearchResult:
    """All minimum-cardinality feasible arrays, in lexicographic order.
    Every field is decided by the constraints alone, so equal constraints
    give equal results.

    explored counts candidates built and tested by the block kernel;
    pruned counts candidates ruled out by sound bounds without being built:
    under the hole-free rule, too few sensors for a hole-free coarray or
    outer positions that leave one of the _OUTER longest lags without a
    pair; under every rule set, outer positions that already make more
    sensors essential than the fragility rule allows, or whose own pairs
    already hold more coupling leakage than the rule allows for the size;
    and, without the symmetry rule, mirror images of candidates that are
    built, which the rules decide alike.
    by_size holds (k, explored, pruned, complete) for each size tried;
    explored + pruned is the number of candidates of that size, and
    complete counts the hole-free ones among those explored, or every one
    explored when the hole-free rule is off.
    """

    optimum: tuple
    optimum_size: int
    explored: int
    pruned: int
    message: str = ""
    by_size: tuple = ()


# A candidate is a uint64 bitmask: bit e marks a sensor at position e, so a
# span of at most MAX_SPAN fits. The kernel evaluates candidates in blocks
# of at most BLOCK masks; the popcount table covers the low _LOW_BITS bits,
# which also hold the 2 * _OUTER outer bits of a candidate. A pool of at
# most SMALL_POOL masks takes its lags left in one 2-D pass; 256, 512 and
# 1,024 measured alike in process.
MAX_SPAN = 63
BLOCK = 1 << 13
SMALL_POOL = 512
_LOW_BITS = 13
_OUTER = _LOW_BITS // 2
# _REVERSED[b] is the _OUTER-bit mask b with its bits in reverse order
_REVERSED = np.array([int(f"{b:0{_OUTER}b}"[::-1], 2) for b in range(1 << _OUTER)],
                     dtype=np.uint64)


@functools.cache
def _popcount_groups():
    # every _LOW_BITS-bit mask, ascending, grouped by popcount; built on
    # first use
    masks = np.arange(1 << _LOW_BITS, dtype=np.uint64)
    counts = np.bitwise_count(masks)
    return tuple(masks[counts == c] for c in range(_LOW_BITS + 1))


def _combinations(nbits, c, limit):
    """Yield every nbits-bit mask with popcount c, in blocks of at most
    limit masks: high-bit prefixes joined to the low-bit table group with
    the remaining popcount."""
    groups = _popcount_groups()
    if nbits <= _LOW_BITS:
        group = groups[c]
        group = group[:np.searchsorted(group, 1 << nbits)]
        for s in range(0, group.size, limit):
            yield group[s:s + limit]
        return
    for h in range(max(0, c - _LOW_BITS), min(nbits - _LOW_BITS, c) + 1):
        low = groups[c - h]
        for high in _combinations(nbits - _LOW_BITS, h, max(1, limit // low.size)):
            joined = ((high[:, None] << _LOW_BITS) | low).ravel()
            for s in range(0, joined.size, limit):
                yield joined[s:s + limit]


def _families(span, k, symmetric):
    """The size-k candidates spanning exactly span, as (fixed, bits, count)
    families: both ends (and an even span's centre, or not) fixed, joined to
    every bits-bit free mask of popcount count. Free bit j is the sensor at
    j + 1 and, in symmetric mode, also its mirror at span - 1 - j."""
    if span == 0:
        return [(1, 0, 0)] if k == 1 else []
    if k < 2:
        return []
    ends = 1 | 1 << span
    if not symmetric:
        return [(ends, span - 1, k - 2)]
    families = []
    for center in (0, 1 << span // 2) if span % 2 == 0 else (0,):
        rem = k - 2 - (center > 0)
        if rem >= 0 and rem % 2 == 0:
            families.append((ends | center, (span + 1) // 2 - 1, rem // 2))
    return families


def _place(free, first, span, symmetric):
    """Sensor masks of free-bit masks whose bit j is the sensor at first + j
    and, in symmetric mode, also its mirror at span - first - j."""
    masks = free << first
    if symmetric:
        for j in range(int(free.max(initial=0)).bit_length()):
            masks |= ((free >> j) & 1) << (span - first - j)
    return masks


# relative margin on the leakage cap of the outer cut: far above the
# rounding of the leakage formula (about 1e-16), and it lets through only
# patterns within a billionth of the cap, which the leaf then decides
LEAKAGE_MARGIN = 1e-9


def _outer_table(span, fixed, bits, symmetric, cons):
    """(left, n_out, by_popcount, seed) for one (span, fixed, bits) family
    shape: by_popcount[h] holds (masks, kmin) for the n_out-bit outer
    patterns of popcount h (under the hole-free rule, those covering lags
    span - t .. span - 1), kmin being the smallest size at which one may
    pass cons, and seed[p] holds the sensors essential to lags
    span - t .. span in kept pattern p's mask (0 for a pattern not kept).

    A pattern's low left bits are the sensors from 1 (and their mirrors), its
    other bits those ending at span - 1. With t = _OUTER, a pair at lag
    d >= span - t joins sensors at most t from either end, so the outer
    positions alone decide those lags' pairs, and with them their essential
    sensors: a middle g of g - d, g, g + d lies at most t from both ends, so
    none exists unless span <= 2t, where every free bit is outer. Every
    candidate holding the pattern keeps those sensors essential and holds its
    pairs, whose leakage at a fixed size only grows with more pairs, so kmin
    is the first size whose _essential_bound admits them and at which, under
    a leakage rule, the pairs leak at most max_leakage * (1 + LEAKAGE_MARGIN).
    The same sensors are essential to those lags in every candidate holding
    the pattern, so the leaf's fragility cut starts from seed.

    All of this comes from one (lags x patterns) pass over the lag band:
    one AND-shift gives every pattern's pairs at every lag span - t .. span,
    the hole-free rule keeps the patterns with a pair in each row but the
    last, and the essential sensors are those of every row OR-ed together."""
    t = _OUTER
    left = min(t, bits)
    n_out = left if symmetric else min(2 * t, bits)
    outer = np.concatenate(_popcount_groups()[:n_out + 1])
    outer = outer[outer < 1 << n_out]
    if not symmetric:
        # bit j is the sensor at j + 1 or, past the left bits, at
        # span - n_out + j, so the reflection e -> span - e reverses the
        # n_out bits and keeps every count the rules read: of each pair only
        # the smaller pattern is kept, and a palindrome is its own reflection
        reverse = _REVERSED[outer & ((1 << t) - 1)] << t | _REVERSED[outer >> t]
        outer = outer[outer <= reverse >> (2 * t - n_out)]
    masks = (np.uint64(fixed) | _place(outer & ((1 << left) - 1), 1, span, symmetric)
             | (outer >> left) << (span - n_out + left))
    # row j holds every pattern's pairs at lag first + j: with the lags down
    # the rows, numpy's inner loops run along the patterns, not the few lags
    first = max(1, span - t)
    lags = np.arange(first, span + 1, dtype=np.uint64)[:, None]
    pairs = masks & (masks >> lags)
    if cons.require_hole_free:
        covered = pairs[:-1].all(axis=0)
        outer, masks = outer[covered], masks[covered]
        pairs = np.compress(covered, pairs, axis=1)
    ess = np.bitwise_or.reduce(_mark_essential(pairs, lags, 2 * first <= span), axis=0)
    # no candidate holds more than span + 1 sensors, so larger sizes clip
    bounds = [_essential_bound(cons, n) for n in range(span + 2)]
    kmin = np.searchsorted(bounds, np.bitwise_count(ess))
    if cons.max_leakage < 1:
        pairs = _lag_pairs(masks, min(cons.coupling.q, span))
        kmin = np.maximum(kmin, smallest_size_within(
            pairs, cons.max_leakage * (1 + LEAKAGE_MARGIN), cons.coupling.c1_magnitude, span + 1))
    # the table runs in popcount order, so each popcount is one slice
    edges = np.searchsorted(np.bitwise_count(outer), np.arange(n_out + 2)).tolist()
    seed = np.zeros(1 << n_out, dtype=np.uint64)
    seed[outer] = ess
    return left, n_out, [(masks[a:b], kmin[a:b]) for a, b in zip(edges, edges[1:])], seed


def _candidate_blocks(span, k, symmetric, outer_table):
    """Yield the masks of the size-k candidates spanning exactly span whose
    outer patterns are in outer_table with kmin at most k, in blocks, family
    by family.

    Each family's outer patterns come from outer_table, an _outer_table
    with its rules bound, and each one kept is joined to every inner mask,
    the n_in bits from 1 + left, of the remaining popcount. Under rules that
    are all off, the hole-free one included, every candidate is yielded."""
    for fixed, bits, count in _families(span, k, symmetric):
        left, n_out, by_popcount, _ = outer_table(span, fixed, bits, symmetric)
        n_in = bits - n_out
        for h in range(max(0, count - n_in), min(n_out, count) + 1):
            masks, kmin = by_popcount[h]
            masks = masks[kmin <= k]
            if not masks.size:
                continue
            for free in _combinations(n_in, count - h, max(1, BLOCK // masks.size)):
                joined = (_place(free, 1 + left, span, symmetric)[:, None] | masks).ravel()
                for s in range(0, joined.size, BLOCK):
                    yield joined[s:s + BLOCK]


def _lag_pairs(masks, lags):
    """C-contiguous (masks x lags) uint8 pair counts at lags 1..lags, one
    column per lag, or for a pool of at most SMALL_POOL masks all columns in
    one 2-D pass. leakage_from_counts sums each row along its lags, so the
    layout keeps every row's sum in the order leakage_from_profile takes."""
    if masks.size <= SMALL_POOL:
        col = masks[:, None]
        return np.bitwise_count(col & (col >> np.arange(1, lags + 1, dtype=np.uint64)))
    pairs = np.empty((masks.size, lags), dtype=np.uint8)
    # one scratch buffer for every lag, and each count written in place
    shifted = np.empty_like(masks)
    for d in range(1, lags + 1):
        np.right_shift(masks, d, out=shifted)
        shifted &= masks
        np.bitwise_count(shifted, out=pairs[:, d - 1])
    return pairs


def _mark_essential(pairs, d, middles):
    """The sensors that lag d makes essential, from pairs = masks & (masks >> d),
    whose bit i marks the sensors at i and i + d: the ends of its pair at
    weight 1 and the middle of g - d, g, g + d at weight 2, the rule
    analysis.economy reads from its pair pass. d is one lag, or the column
    of lags of a (lags x masks) pairs matrix, which gets one set per entry.
    Middles are looked for only when middles is true: a middle needs
    g - d >= 0 and g + d <= span, so a lag with 2d > span has none."""
    w = np.bitwise_count(pairs)
    ess = np.where(w == 1, pairs | (pairs << d), 0)
    if middles:
        ess |= np.where(w == 2, (pairs & (pairs >> d)) << d, 0)
    return ess


def _fragility_cut(masks, span, k, bound, seed):
    """The size-k masks with at most bound essential sensors, by
    _mark_essential at every lag. A single sensor counts as essential. seed
    holds each mask's essential sensors at lags span - t .. span (t =
    _OUTER), and the cut goes on from lag span - t - 1. Lags run from the
    longest, whose pairs are rarest; the essential set only grows, so a
    mask leaves once it holds more than bound. Once the pool holds at most
    SMALL_POOL masks, the lags left take one (lags x masks) pass."""
    ess = seed | masks if k == 1 else seed.copy()
    for d in range(span - _OUTER - 1, 0, -1):
        if masks.size <= SMALL_POOL:
            # lag 1 may have a middle once span >= 2, so the pass looks for them
            lags = np.arange(d, 0, -1, dtype=np.uint64)[:, None]
            ess |= np.bitwise_or.reduce(_mark_essential(masks & (masks >> lags), lags, span >= 2),
                                        axis=0)
            break
        ess |= _mark_essential(masks & (masks >> d), d, 2 * d <= span)
        keep = np.bitwise_count(ess) <= bound
        masks, ess = masks[keep], ess[keep]
    # the loop is empty for the single sensor, span 0
    return masks[np.bitwise_count(ess) <= bound]


def _optima(masks, k):
    """The element lists of size-k masks and of their reflections, without
    duplicates, in lexicographic order: row i of the little-endian bit
    matrix holds bit e of mask i in column e, and its nonzero columns are
    mask i's elements, ascending. A row reflects about its own span."""
    bits = np.unpackbits(np.asarray(masks, dtype="<u8").view(np.uint8).reshape(-1, 8),
                         axis=1, bitorder="little")
    elems = np.nonzero(bits)[1].reshape(-1, k)
    elems = np.concatenate([elems, elems[:, -1:] - elems[:, ::-1]])
    # lexsort's last key is the primary one; equal rows end up adjacent
    elems = elems[np.lexsort(elems.T[::-1])]
    new = np.ones(len(elems), dtype=bool)
    new[1:] = (elems[1:] != elems[:-1]).any(axis=1)
    return elems[new].tolist()


def _hole_free(masks, lags):
    """The masks of one pool with a pair at every lag 1..lags; the longest
    (rarest) lags go first so the pool shrinks early. Once it holds at most
    SMALL_POOL masks, the lags left take one (lags x masks) pass."""
    for d in range(lags, 0, -1):
        if masks.size <= SMALL_POOL:
            rest = np.arange(d, 0, -1, dtype=np.uint64)[:, None]
            return masks[(masks & (masks >> rest)).all(axis=0)]
        masks = masks[(masks & (masks >> d)) != 0]
    return masks


def _outer_seed(masks, span, k, symmetric, outer_table):
    """Each size-k mask's essential sensors at lags span - t .. span, read
    from outer_table by its outer pattern: bit j is the sensor at j + 1 or,
    past the left bits, at span - n_out + j. The parity of k picks a
    symmetric centre, so one family builds each (span, k)."""
    (fixed, bits, _), = _families(span, k, symmetric)
    left, n_out, _, ess = outer_table(span, fixed, bits, symmetric)
    low = (1 << left) - 1
    return ess[(masks >> 1) & low | (masks >> (span - n_out)) & ((1 << n_out) - 1 - low)]


def _feasible(masks, span, k, cons, outer_table):
    """The masks of one pool that pass leakage, then fragility; the pool
    holds only hole-free masks when that rule is on. A rule set to 1 passes
    every mask and makes no pass. The fragility cut starts from the
    essential sensors that outer_table, the one the pool was built from,
    holds for each mask's outer pattern."""
    if cons.max_leakage < 1:
        # the leakage formula check_constraints uses, on the coupled lags
        pairs = _lag_pairs(masks, min(cons.coupling.q, span))
        masks = masks[leakage_from_counts(pairs, k, cons.coupling.c1_magnitude)
                      <= cons.max_leakage]
    bound = _essential_bound(cons, k)
    # a mask holds k sensors, so at most k are essential
    if bound >= k or not masks.size:
        return masks
    seed = _outer_seed(masks, span, k, cons.require_symmetric, outer_table)
    return _fragility_cut(masks, span, k, bound, seed)


def _essential_bound(cons, k):
    """The most essential sensors a size-k array may hold: fragility
    ess / k <= num / den, compared as exact integers."""
    f = cons.max_fragility
    return f.numerator * k // f.denominator


def _count_candidates(span, k, symmetric):
    return sum(math.comb(bits, count) for _, bits, count in _families(span, k, symmetric))


def _pooled(blocks):
    """Join consecutive mask blocks into pools of at most BLOCK masks, so
    each pass pays numpy's per-call cost once per pool; the bound keeps the
    (masks x lags) float temporaries of leakage small. A pool of one block
    is that block, not a copy."""
    pool, held = [], 0
    for masks in blocks:
        if held + masks.size > BLOCK:
            yield pool[0] if len(pool) == 1 else np.concatenate(pool)
            pool, held = [], 0
        pool.append(masks)
        held += masks.size
    if held:
        yield pool[0] if len(pool) == 1 else np.concatenate(pool)


def _build_optima(decoded):
    # each new array is a tuple and an instance dict, which count towards
    # the cyclic collector's thresholds but make no cycle; a large result
    # would pay for many full collections, so the collector waits
    enabled = gc.isenabled()
    gc.disable()
    try:
        return [SensorArray._trusted(e) for e in decoded]
    finally:
        if enabled:
            gc.enable()


def solve_p1(constraints, force=False):
    """Find every minimum-cardinality array satisfying the constraints.

    Candidates contain 0; ascending cardinality with lexicographic order
    inside each size makes the result deterministic, and it holds nothing
    but what the constraints decide, so repeated calls return equal
    results. Apertures above APERTURE_GUARD require force=True
    (enumeration is exponential); apertures above MAX_SPAN do not fit a
    candidate mask and raise ValueError even then.

    For each span and size, the candidate blocks are pooled, up to BLOCK
    masks, before the hole-free filter, and the complete rulers are pooled
    again before leakage and fragility. Every count is taken per mask, so
    the pool and SMALL_POOL sizes change no field of the result.
    """
    cons = constraints
    A = cons.max_aperture
    if A > MAX_SPAN:
        raise ValueError(f"aperture {A} exceeds {MAX_SPAN}, "
                         f"the largest span a 64-bit candidate mask holds")
    if A > APERTURE_GUARD and not force:
        raise ValueError(f"aperture {A} exceeds the "
                         f"exhaustive-search guard {APERTURE_GUARD}; pass force=True")
    spans = [A] if cons.exact_aperture else list(range(A + 1))
    # the outer tables of a family shape serve every size
    outer_table = functools.cache(functools.partial(_outer_table, cons=cons))
    by_size, sols, size = [], [], 0
    for k in range(1, A + 2):
        # every candidate of size k not explored is pruned unbuilt
        found, candidates, explored, complete = [], 0, 0, 0
        for span in spans:
            candidates += _count_candidates(span, k, cons.require_symmetric)
            # a hole-free coarray over [-span, span] needs k(k-1) >= 2*span
            if cons.require_hole_free and span and k * (k - 1) < 2 * span:
                continue

            def complete_rulers():
                nonlocal explored
                for masks in _pooled(_candidate_blocks(span, k, cons.require_symmetric,
                                                       outer_table)):
                    explored += masks.size
                    if cons.require_hole_free:
                        # the outer table has covered lags span - _OUTER .. span - 1
                        masks = _hole_free(masks, span - _OUTER - 1)
                    yield masks

            for pool in _pooled(complete_rulers()):
                complete += pool.size
                found += _feasible(pool, span, k, cons, outer_table).tolist()
        by_size.append((k, explored, candidates - explored, complete))
        if found:
            sols, size = _build_optima(_optima(found, k)), k
            break
    msg = "" if sols else f"no feasible array within aperture {A}"
    return SearchResult(tuple(sols), size, sum(s[1] for s in by_size),
                        sum(s[2] for s in by_size), msg, tuple(by_size))
