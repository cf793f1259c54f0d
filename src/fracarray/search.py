"""Exhaustive minimum-sensor array design under symmetry, hole-free-coarray,
fragility, coupling-leakage and aperture constraints.

The solver enumerates candidate element sets by ascending cardinality, so
the first feasible cardinality is the optimum. Candidates are uint64
bitmasks over {0..max_aperture}, so apertures stop at MAX_SPAN = 63. One
numpy kernel builds them block by block (at most BLOCK masks each, from a
table of low-bit masks grouped by popcount) and tests each block with one
AND-shift per lag: hole-free first, then leakage, then the essential-sensor
count behind fragility, all exact.
"""

import functools
import math
import time
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .analysis import economy
from .core import SensorArray, difference_coarray, is_symmetric
from .coupling import CouplingModel, leakage_from_profile

# unconstrained A=28 takes about 2 s on a 2-core VM, A=29 about 6-8 s
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
    coupling: CouplingModel = CouplingModel(q=15, c1_magnitude=0.3)
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
    frag = economy(prof).fragility
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

    explored counts candidates built and tested by the block kernel;
    pruned counts candidates ruled out in bulk by sound bounds without
    being built.
    """

    optimum: tuple
    optimum_size: int
    explored: int
    pruned: int
    wall_time: float
    message: str = ""


# A candidate is a uint64 bitmask: bit e marks a sensor at position e, so a
# span of at most MAX_SPAN fits. The kernel evaluates candidates in blocks
# of at most BLOCK masks; the popcount table covers the low _LOW_BITS bits.
MAX_SPAN = 63
BLOCK = 1 << 13
_LOW_BITS = 13


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
    if not 0 <= c <= nbits:
        return
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


def _candidate_blocks(span, k, symmetric):
    """Yield the masks of every size-k candidate spanning exactly span, in
    blocks; symmetric mode builds mirror-closed masks from half-masks."""
    if span == 0:
        if k == 1:
            yield np.ones(1, dtype=np.uint64)
        return
    if k < 2:
        return
    ends = np.uint64(1 | 1 << span)
    if not symmetric:
        for inner in _combinations(span - 1, k - 2, BLOCK):
            yield ends | (inner << 1)
        return
    pairs = (span + 1) // 2 - 1
    for center in (0, 1 << span // 2) if span % 2 == 0 else (0,):
        rem = k - 2 - (center > 0)
        if rem < 0 or rem % 2:
            continue
        for half in _combinations(pairs, rem // 2, BLOCK):
            masks = ends | center | (half << 1)
            for j in range(pairs):
                # bit j of half is the sensor at j + 1, mirrored to span - 1 - j
                masks |= ((half >> j) & 1) << (span - 1 - j)
            yield masks


def _leakage(masks, span, k, coupling_sq):
    # one add per lag in ascending order: the float sum of a scalar loop
    # over the lags, so accept/reject decisions do not depend on blocking
    off = np.zeros(masks.size)
    for d in range(1, min(span, len(coupling_sq)) + 1):
        off += 2.0 * np.bitwise_count(masks & (masks >> d)) * coupling_sq[d - 1]
    return np.sqrt(off / (k + off))


def _essential_counts(masks, span, k):
    """Essential sensors of each size-k candidate: the ends of the pair at
    a weight-1 lag and the middle of g - d, g, g + d at a weight-2 lag, the
    rule analysis.economy reads from its pair pass. A single sensor counts
    as essential."""
    ess = masks.copy() if k == 1 else np.zeros_like(masks)
    for d in range(1, span + 1):
        pairs = masks & (masks >> d)  # bit i: sensors at i and i + d
        w = np.bitwise_count(pairs)
        ess |= np.where(w == 1, pairs | (pairs << d), 0)
        ess |= np.where(w == 2, (pairs & (pairs >> d)) << d, 0)
    return np.bitwise_count(ess)


def _elements(mask, span):
    return tuple(e for e in range(span + 1) if mask >> e & 1)


def _feasible(masks, span, k, cons, coupling_sq):
    """The masks of one block that pass every rule, cheapest rule first."""
    if cons.require_hole_free:
        # every lag has a pair; the longest (rarest) lags go first so the
        # block shrinks early, and lag span is the pair (0, span)
        for d in range(span - 1, 0, -1):
            masks = masks[(masks & (masks >> d)) != 0]
    leak = _leakage(masks, span, k, coupling_sq)
    keep = leak <= cons.max_leakage
    # the lag-by-lag sum and check_constraints' pairwise one (at most 63
    # positive terms each) differ by under 64 ulps, so a candidate that
    # close to the cap is decided by the library's value
    tol = 64 * np.spacing(cons.max_leakage)
    near = (leak >= cons.max_leakage - tol) & (leak <= cons.max_leakage + tol)
    for i in np.flatnonzero(near):
        prof = difference_coarray(SensorArray(_elements(int(masks[i]), span)))
        keep[i] = leakage_from_profile(prof, cons.coupling) <= cons.max_leakage
    masks = masks[keep]
    # fragility ess / k <= num / den, compared as exact integers
    f = cons.max_fragility
    return masks[_essential_counts(masks, span, k) <= f.numerator * k // f.denominator]


def _count_candidates(span, k, symmetric):
    if span == 0:
        return 1 if k == 1 else 0
    if k < 2:
        return 0
    if not symmetric:
        return math.comb(span - 1, k - 2)
    pairs = (span + 1) // 2 - 1
    total = 0
    for take_center in (0, 1) if span % 2 == 0 else (0,):
        rem = k - 2 - take_center
        if rem >= 0 and rem % 2 == 0:
            total += math.comb(pairs, rem // 2)
    return total


def _solve_pruned(cons):
    A = cons.max_aperture
    spans = [A] if cons.exact_aperture else list(range(A + 1))
    cq = [(cons.coupling.c1_magnitude / d) ** 2 for d in range(1, cons.coupling.q + 1)]
    explored = pruned = 0
    for k in range(1, A + 2):
        found = []
        for span in spans:
            # a hole-free coarray over [-span, span] needs k(k-1) >= 2*span
            if cons.require_hole_free and span and k * (k - 1) < 2 * span:
                pruned += _count_candidates(span, k, cons.require_symmetric)
                continue
            for masks in _candidate_blocks(span, k, cons.require_symmetric):
                explored += masks.size
                for mask in _feasible(masks, span, k, cons, cq).tolist():
                    found.append(_elements(mask, span))
        if found:
            return [SensorArray(e) for e in sorted(found)], k, explored, pruned
    return [], 0, explored, pruned


def solve_p1(constraints, force=False):
    """Find every minimum-cardinality array satisfying the constraints.

    Candidates contain 0; ascending cardinality with lexicographic order
    inside each size makes the result deterministic. Apertures above
    APERTURE_GUARD require force=True (enumeration is exponential);
    apertures above MAX_SPAN do not fit a candidate mask and raise
    ValueError even then.
    """
    if constraints.max_aperture > MAX_SPAN:
        raise ValueError(f"aperture {constraints.max_aperture} exceeds {MAX_SPAN}, "
                         f"the largest span a 64-bit candidate mask holds")
    if constraints.max_aperture > APERTURE_GUARD and not force:
        raise ValueError(f"aperture {constraints.max_aperture} exceeds the "
                         f"exhaustive-search guard {APERTURE_GUARD}; pass force=True")
    t0 = time.perf_counter()
    sols, size, explored, pruned = _solve_pruned(constraints)
    elapsed = time.perf_counter() - t0
    msg = "" if sols else f"no feasible array within aperture {constraints.max_aperture}"
    return SearchResult(tuple(sols), size, explored, pruned, elapsed, msg)
