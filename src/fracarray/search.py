"""Exhaustive minimum-sensor array design under symmetry, hole-free-coarray,
fragility, coupling-leakage and aperture constraints.

The solver enumerates candidate element sets by ascending cardinality, so
the first feasible cardinality is the optimum. Candidates are bitmasks over
{0..max_aperture}; feasibility checks run cheapest-first. A deliberately
naive route (build every subset containing 0 and evaluate it through the
definitional metric code) exists for oracle-equivalence testing.
"""

import itertools
import math
import time
from dataclasses import dataclass
from fractions import Fraction

from .analysis import economy
from .core import SensorArray, difference_coarray, is_symmetric
from .coupling import CouplingModel, leakage_from_profile

APERTURE_GUARD = 24


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

    explored counts candidates evaluated individually; pruned counts
    candidates ruled out in bulk by sound bounds without being built.
    """

    optimum: tuple
    optimum_size: int
    explored: int
    pruned: int
    wall_time: float
    message: str = ""


# bitmask helpers: bit e of a mask marks a sensor at position e

def _mask_hole_free(mask, span, elems):
    target = (1 << (span + 1)) - 1
    acc = 0
    for e in elems:
        acc |= mask >> e
        if acc == target:
            return True
    return False


def _mask_weights(mask, span):
    # w[d - 1] = pair count at lag d
    return [(mask & (mask >> d)).bit_count() for d in range(1, span + 1)]


def _mask_fragility(elems, w, mask):
    n = len(elems)
    if n == 1:
        return Fraction(1)
    span = len(w)
    essential = 0
    for g in elems:
        for d in range(1, span + 1):
            wd = w[d - 1]
            if wd == 0 or wd > 2:
                continue
            cnt = ((mask >> (g - d)) & 1 if g >= d else 0) + ((mask >> (g + d)) & 1)
            if cnt and cnt == wd:
                essential += 1
                break
    return Fraction(essential, n)


def _mask_leakage(w, n, coupling_sq):
    off = 0.0
    for d in range(1, min(len(coupling_sq), len(w)) + 1):
        if w[d - 1]:
            off += 2.0 * w[d - 1] * coupling_sq[d - 1]
    return math.sqrt(off / (n + off)) if off else 0.0


def _candidates(span, k, symmetric):
    """Yield (elements, mask) for every size-k candidate spanning exactly
    span, lexicographically; symmetric mode yields mirror-closed sets only."""
    if span == 0:
        if k == 1:
            yield (0,), 1
        return
    if k < 2:
        return
    base = 1 | (1 << span)
    if not symmetric:
        for mid in itertools.combinations(range(1, span), k - 2):
            mask = base
            for e in mid:
                mask |= 1 << e
            yield (0,) + mid + (span,), mask
        return
    half = range(1, (span + 1) // 2)
    center = span // 2 if span % 2 == 0 else None
    for take_center in (0, 1) if center else (0,):
        rem = k - 2 - take_center
        if rem < 0 or rem % 2:
            continue
        for picks in itertools.combinations(half, rem // 2):
            elems = {0, span}
            mask = base
            for i in picks:
                elems.add(i)
                elems.add(span - i)
                mask |= (1 << i) | (1 << (span - i))
            if take_center:
                elems.add(center)
                mask |= 1 << center
            yield tuple(sorted(elems)), mask


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
            for elems, mask in _candidates(span, k, cons.require_symmetric):
                explored += 1
                if cons.require_hole_free and not _mask_hole_free(mask, span, elems):
                    continue
                w = _mask_weights(mask, span)
                if _mask_fragility(elems, w, mask) > cons.max_fragility:
                    continue
                if _mask_leakage(w, k, cq) > cons.max_leakage:
                    continue
                found.append(elems)
        if found:
            return [SensorArray(e) for e in sorted(found)], k, explored, pruned
    return [], 0, explored, pruned


def _solve_naive(cons):
    A = cons.max_aperture
    explored = 0
    for k in range(1, A + 2):
        found = []
        for rest in itertools.combinations(range(1, A + 1), k - 1):
            explored += 1
            cand = SensorArray((0,) + rest)
            if check_constraints(cand, cons).feasible:
                found.append(cand)
        if found:
            return found, k, explored
    return [], 0, explored


def solve_p1(constraints, force=False, naive=False):
    """Find every minimum-cardinality array satisfying the constraints.

    Candidates contain 0; ascending cardinality with lexicographic order
    inside each size makes the result deterministic. Apertures above
    APERTURE_GUARD require force=True (enumeration is exponential).

    naive=True switches to the unpruned definitional route (small apertures
    only); both routes must agree and the tests enforce that.
    """
    if constraints.max_aperture > APERTURE_GUARD and not force:
        raise ValueError(f"aperture {constraints.max_aperture} exceeds the "
                         f"exhaustive-search guard {APERTURE_GUARD}; pass force=True")
    t0 = time.perf_counter()
    if naive:
        sols, size, explored = _solve_naive(constraints)
        pruned = 0
    else:
        sols, size, explored, pruned = _solve_pruned(constraints)
    elapsed = time.perf_counter() - t0
    msg = "" if sols else f"no feasible array within aperture {constraints.max_aperture}"
    return SearchResult(tuple(sols), size, explored, pruned, elapsed, msg)
