"""Shared fixtures and brute-force oracles.

The oracles here are deliberately naive (python sets and double loops) so
they cannot share a bug with the vectorized implementations under test.
"""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from fracarray import (ArrayFormatError, CoarrayProfile, EconomyReport, EstimationFailure,
                       IdentifiabilityError, SensorArray, check_constraints, coupling_matrix,
                       difference_coarray)
from fracarray import core, search
from fracarray.coupling import leakage_from_counts, smallest_size_within

# reference designs used across the suite
S_ELEMS = (0, 1, 2, 4, 7, 10, 13, 16, 18, 19, 20)
G_ELEMS = (0, 1, 3, 5, 11, 13, 17, 18, 19, 20)


def oracle_differences(elems):
    return {a - b for a in elems for b in elems}


def oracle_elements(mask, span):
    """The sensor positions of a search candidate mask, one bit at a time."""
    return tuple(e for e in range(span + 1) if mask >> e & 1)


def oracle_weight_map(elems):
    w = {}
    for a in elems:
        for b in elems:
            d = a - b
            w[d] = w.get(d, 0) + 1
    return w


def oracle_normalize(elements):
    """SensorArray's normalization element by element: each element is
    checked and converted, then the set is sorted and shifted to start at 0."""
    cleaned = []
    for raw in elements:
        if isinstance(raw, (bool, np.bool_)):
            raise ArrayFormatError(f"bad element {raw!r}")
        try:
            v = int(raw)
        except (TypeError, ValueError, OverflowError):
            raise ArrayFormatError(f"bad element {raw!r}") from None
        if v != raw:
            raise ArrayFormatError(f"non-integer element {raw!r}")
        cleaned.append(v)
    if not cleaned:
        raise ArrayFormatError("array needs at least one element")
    lo, hi = min(cleaned), max(cleaned)
    if hi - lo >= 2 ** 63:
        raise ArrayFormatError(f"aperture {hi - lo} does not fit a 64-bit integer")
    return tuple(sorted({v - lo for v in cleaned}))


def oracle_reflect(array):
    """Reflection about the aperture midpoint, renormalized to start at 0."""
    return SensorArray(tuple(array.aperture - e for e in array.elements), name=array.name)


def coarray_lags(profile):
    """Sorted tuple of every lag of a CoarrayProfile with a nonzero count."""
    nonneg = [d for d, c in enumerate(profile.counts.tolist()) if c]
    return tuple([-d for d in reversed(nonneg[1:])] + nonneg)


def oracle_hole_free(elems):
    span = max(elems) - min(elems)
    return oracle_differences(elems) == set(range(-span, span + 1))


def oracle_central_halfwidth(elems):
    d = oracle_differences(elems)
    m = 0
    while (m + 1) in d and -(m + 1) in d:
        m += 1
    return m


def oracle_essential(elems):
    """Essentialness straight from the definition: drop the sensor, recompute."""
    full = oracle_differences(elems)
    flags = []
    for g in elems:
        rest = [e for e in elems if e != g]
        flags.append(not rest or oracle_differences(rest) != full)
    return flags


def oracle_c1(elems):
    """C1 straight from the definition: every sensor ends some pair whose lag
    occurs once among the positive lags."""
    w = oracle_weight_map(elems)
    return all(any(w[g - h] == 1 for h in elems if h != g) for g in elems)


def oracle_economy(elems):
    """economy() from the removal definition and C1 sensor by sensor; a
    single sensor counts as essential and satisfies C1 by convention."""
    flags = oracle_essential(elems)
    essential = tuple(e for e, f in zip(elems, flags) if f)
    inessential = tuple(e for e, f in zip(elems, flags) if not f)
    c1 = len(elems) == 1 or oracle_c1(elems)
    fragility = Fraction(len(essential), len(elems))
    return EconomyReport(essential, inessential, fragility, not inessential, c1)


def weight_expand(w, ell):
    """Stretch a weight map by ell: entry at lag n moves to lag n * ell,
    with zeros in between."""
    if ell < 1:
        raise ValueError("expansion factor must be >= 1")
    w = np.asarray(w, dtype=np.int64)
    out = np.zeros((w.size - 1) * ell + 1, dtype=np.int64)
    out[::ell] = w
    return out


def oracle_fractal_weight(gen_elems, r):
    """The weight convolution in its dense closed form: np.convolve over the
    generator's full weight map stretched by 1, M, M^2, ... (M the central
    ULA size). Exact int64; returns the non-negative half."""
    w = oracle_weight_map(gen_elems)
    span = max(gen_elems) - min(gen_elems)
    full = np.array([w.get(d, 0) for d in range(-span, span + 1)], dtype=np.int64)
    m = 2 * oracle_central_halfwidth(gen_elems) + 1
    out = np.ones(1, dtype=np.int64)
    for i in range(r):
        out = np.convolve(out, weight_expand(full, m ** i))
    return out[out.size // 2:]


def oracle_fragility(elems):
    flags = oracle_essential(elems)
    return Fraction(sum(flags), len(flags))


def oracle_leakage(elems, q, c1_mag):
    """Coupling leakage by an explicit dense double sum over sensor pairs."""
    off = 0.0
    total = 0.0
    for i, gi in enumerate(elems):
        for j, gj in enumerate(elems):
            sep = abs(gi - gj)
            if i == j:
                c = 1.0
            elif 1 <= sep <= q:
                c = c1_mag / sep
            else:
                c = 0.0
            total += c * c
            if i != j:
                off += c * c
    return math.sqrt(off / total)


def matrix_leakage(C):
    """Coupling leakage from a dense coupling matrix: the fraction of its
    Frobenius energy sitting off the diagonal."""
    off = C - np.diag(np.diag(C))
    return float(np.linalg.norm(off) / np.linalg.norm(C))


def oracle_solve_p1(cons):
    """solve_p1 by brute force: every subset containing 0 (and, under
    exact_aperture, max_aperture, as no other subset passes the aperture
    rule), in ascending cardinality and lexicographic order, through
    check_constraints. Returns (size, optima as element tuples); (0, ())
    when nothing is feasible."""
    A = cons.max_aperture
    # a subset holding both 0 and max_aperture >= 1 has at least 2 sensors
    for k in range(1 + cons.exact_aperture, A + 2):
        if cons.exact_aperture:
            subsets = [(0, *rest, A) for rest in itertools.combinations(range(1, A), k - 2)]
        else:
            subsets = [(0, *rest) for rest in itertools.combinations(range(1, A + 1), k - 1)]
        found = tuple(c for c in subsets if check_constraints(SensorArray(c), cons).feasible)
        if found:
            return k, found
    return 0, ()


def oracle_lag_essential(masks, d):
    """The sensors lag d makes essential in each uint64 search mask: both
    ends of the lag's only pair, or the shared middle g of its two pairs
    g - d, g, g + d; the middle is looked for at every lag."""
    pairs = masks & (masks >> d)
    w = np.bitwise_count(pairs)
    ends = np.where(w == 1, pairs | (pairs << d), 0)
    middle = np.where(w == 2, (pairs & (pairs >> d)) << d, 0)
    return ends | middle


def oracle_outer_seed(masks, span):
    """The sensors lags span - t .. span make essential in each mask, t =
    search._OUTER, one lag at a time: the seed the fragility cut starts
    from, which the search reads from its outer table."""
    ess = np.zeros_like(masks)
    for d in range(max(1, span - search._OUTER), span + 1):
        ess |= oracle_lag_essential(masks, d)
    return ess


def oracle_complete(masks, lags):
    """search._hole_free one lag at a time, with no early exit: the masks
    with a pair at every lag 1..lags."""
    keep = np.ones(masks.shape, dtype=bool)
    for d in range(1, lags + 1):
        keep &= (masks & (masks >> d)) != 0
    return masks[keep]


def oracle_lag_pairs(masks, lags):
    """search._lag_pairs one mask and one lag at a time: row i, column
    d - 1 holds the number of pairs of mask i at lag d."""
    rows = [[(m & (m >> d)).bit_count() for d in range(1, lags + 1)] for m in masks.tolist()]
    return np.array(rows, dtype=np.uint8).reshape(len(rows), lags)


def oracle_outer_table(span, fixed, bits, symmetric, cons):
    """search._outer_table one lag at a time: the hole-free rule drops the
    patterns missing a pair at each of lags span - t .. span - 1 in turn
    (t = _OUTER), and each of lags span - t .. span adds its essential
    sensors by oracle_lag_essential, which looks for a middle at every lag."""
    t = search._OUTER
    left = min(t, bits)
    n_out = left if symmetric else min(2 * t, bits)
    outer = np.concatenate(search._popcount_groups()[:n_out + 1])
    outer = outer[outer < 1 << n_out]
    if not symmetric:
        reverse = (search._REVERSED[outer & ((1 << t) - 1)] << t
                   | search._REVERSED[outer >> t])
        outer = outer[outer <= reverse >> (2 * t - n_out)]
    masks = (np.uint64(fixed) | search._place(outer & ((1 << left) - 1), 1, span, symmetric)
             | (outer >> left) << (span - n_out + left))
    for d in range(max(1, span - t), span) if cons.require_hole_free else ():
        covered = (masks & (masks >> d)) != 0
        outer, masks = outer[covered], masks[covered]
    ess = np.zeros_like(masks)
    for d in range(max(1, span - t), span + 1):
        ess |= oracle_lag_essential(masks, d)
    bounds = [search._essential_bound(cons, n) for n in range(span + 2)]
    kmin = np.searchsorted(bounds, np.bitwise_count(ess))
    if cons.max_leakage < 1:
        pairs = search._lag_pairs(masks, min(cons.coupling.q, span))
        kmin = np.maximum(kmin, smallest_size_within(
            pairs, cons.max_leakage * (1 + search.LEAKAGE_MARGIN), cons.coupling.c1_magnitude,
            span + 1))
    edges = np.searchsorted(np.bitwise_count(outer), np.arange(n_out + 2)).tolist()
    seed = np.zeros(1 << n_out, dtype=np.uint64)
    seed[outer] = ess
    return left, n_out, [(masks[a:b], kmin[a:b]) for a, b in zip(edges, edges[1:])], seed


def oracle_fragility_cut(masks, span, k, bound):
    """The size-k masks of one span with at most bound essential sensors:
    the search's fragility cut with no seed, no early exit and no lag
    skipped, every lag span .. 1 marked on every mask. A single sensor
    counts as essential."""
    ess = masks.copy() if k == 1 else np.zeros_like(masks)
    for d in range(span, 0, -1):
        ess |= oracle_lag_essential(masks, d)
    return masks[np.bitwise_count(ess) <= bound]


def oracle_leakage_size(pair_counts, cap, c1_magnitude, most):
    """The smallest n in 1..most at which each row's leakage is at most
    cap, or most + 1, by a scan: 1 + the number of sizes 1..most at which
    leakage_from_counts exceeds cap, as the leakage falls with n."""
    n = np.arange(1, most + 1)
    pairs = np.asarray(pair_counts)[:, None, :]
    return 1 + (leakage_from_counts(pairs, n, c1_magnitude) > cap).sum(axis=1)


def oracle_smallest_sizes(pair_counts, ess, span, cons, margin):
    """The smallest size each search outer pattern may join, from its pair
    counts and essential count: ess * den <= num * n for fragility, exact
    in integers, then the leakage scan under a cap widened by margin when
    max_leakage < 1. Sizes clip at span + 2."""
    f, top = cons.max_fragility, span + 1
    kmin = np.array([min(-(-e * f.denominator // f.numerator), top + 1) for e in ess],
                    dtype=np.int64)
    if cons.max_leakage < 1:
        cap = cons.max_leakage * (1 + margin)
        kmin = np.maximum(kmin, oracle_leakage_size(pair_counts, cap,
                                                    cons.coupling.c1_magnitude, top))
    return kmin


def oracle_noise_subspace(virtual, num_sources):
    """The m + 1 - num_sources noise eigenvectors, as columns, from a complex
    eigh of the smoothed covariance Z Z^H / (m + 1) built from every lag of
    the virtual measurement."""
    v = np.asarray(virtual)
    m = (v.size - 1) // 2
    if m + 1 <= num_sources:
        raise IdentifiabilityError(
            f"smoothed subarray of {m + 1} cannot separate {num_sources} sources")
    idx = np.arange(m + 1)
    Z = v[m + idx[:, None] - idx[None, :]]
    R = (Z @ Z.conj().T) / (m + 1)
    _, vecs = np.linalg.eigh(R)
    return vecs[:, : m + 1 - num_sources]


def oracle_noise_denominator(noise, grid_size):
    """MUSIC denominator from the noise projector P = U U^H: its diagonal
    sums c_d = sum_l P[l, l + d], each signed (-1)^d into bin d mod
    grid_size, and one complex inverse DFT."""
    n = noise.shape[0]
    P = noise @ noise.conj().T
    # row l moved right by n - 1 - l, so column d + n - 1 collects P[l, l + d]
    shifted = np.zeros(n * (2 * n - 1), dtype=complex)
    shifted[(np.arange(n) * (2 * n - 2) + n - 1)[:, None] + np.arange(n)] = P
    c = shifted.reshape(n, 2 * n - 1).sum(axis=0)
    d = np.arange(1 - n, n)
    b = np.zeros(grid_size, dtype=complex)
    np.add.at(b, d % grid_size, np.where(d % 2, -c, c))
    return np.fft.ifft(b, norm="forward").real


def centro_unitary(n):
    """The dense n x n unitary Q that makes Q^H Z Q real for every Hermitian
    Toeplitz Z: columns (e_k + e_{n-1-k}) / sqrt(2) for k < n // 2, then
    e_{n // 2} when n is odd, then j (e_k - e_{n-1-k}) / sqrt(2)."""
    p = n // 2
    Q = np.zeros((n, n), dtype=complex)
    for k in range(p):
        Q[k, k] = Q[n - 1 - k, k] = 1 / math.sqrt(2)
        Q[k, n - p + k] = 1j / math.sqrt(2)
        Q[n - 1 - k, n - p + k] = -1j / math.sqrt(2)
    if n % 2:
        Q[p, p] = 1.0
    return Q


def oracle_synthesize(scenario, rng):
    """synthesize with its complex normals drawn as two separate real
    blocks and the noise added out of place."""
    pos = scenario.array.as_array()
    if scenario.failure_probability > 0:
        alive = rng.random(pos.size) >= scenario.failure_probability
        if not alive.any():
            raise EstimationFailure("all sensors failed")
        pos = pos[alive]
    surviving = SensorArray(tuple(int(e) for e in pos))
    C = None
    if scenario.coupling is not None:
        C = coupling_matrix(surviving, scenario.coupling, rng)
    th = np.asarray(scenario.thetas)
    steer = np.exp(2j * np.pi * np.outer(pos, th))
    amp = np.sqrt(np.asarray(scenario.powers) / 2.0)
    shape = (th.size, scenario.snapshots)
    s = amp[:, None] * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    x = steer @ s
    if C is not None:
        x = C @ x
    pw = scenario.noise_power
    if pw > 0:
        nshape = (pos.size, scenario.snapshots)
        x = x + math.sqrt(pw / 2.0) * (rng.standard_normal(nshape) + 1j * rng.standard_normal(nshape))
    return surviving, x


def oracle_coarray_statistics(x, array):
    """coarray_statistics with the lags accumulated by np.add.at."""
    pos = array.as_array()
    R = (x @ x.conj().T) / x.shape[1]
    prof = difference_coarray(array)
    m = prof.central_ula_halfwidth
    lag = pos[:, None] - pos[None, :]
    sel = np.abs(lag) <= m
    acc = np.zeros(2 * m + 1, dtype=complex)
    np.add.at(acc, lag[sel] + m, R[sel])
    return acc / prof.counts[np.abs(np.arange(-m, m + 1))]


def oracle_music_denominator(noise, grid_size):
    """MUSIC denominator sum_k |u_k^H a(theta)|^2 straight from the
    (m+1) x grid_size steering matrix on the grid g / grid_size - 1/2."""
    idx = np.arange(noise.shape[0])
    grid = np.arange(grid_size) / grid_size - 0.5
    steer = np.exp(2j * np.pi * np.outer(idx, grid))
    return (np.abs(noise.conj().T @ steer) ** 2).sum(axis=0)


def oracle_grid_beampattern(counts, S):
    """Beampattern of a non-negative weight map on np.linspace(-pi, pi, S),
    taken as the exact grid omega_k = pi (2k - L) / L with L = max(S - 1, 1).

    Each phase omega_k d is pi p / L with p = d (2k - L) mod 2L reduced in
    integers, so lags are first folded mod 2L in int64 and every row is a
    math.fsum of at most 2L terms."""
    L = max(S - 1, 1)
    folded = np.zeros(2 * L, dtype=np.int64)
    np.add.at(folded, np.arange(1, counts.size) % (2 * L), counts[1:])
    q = np.arange(2 * L)
    cosines = np.cos(np.pi * q / L)
    return np.array([int(counts[0]) + 2 * math.fsum(folded * cosines[q * (2 * k - L) % (2 * L)])
                     for k in range(S)])


def oracle_expand(gen_elems, half_u, r):
    """Fractal expansion via the unrolled digit sum with base 2*half_u + 1."""
    base = 2 * half_u + 1
    points = set()
    for digits in itertools.product(gen_elems, repeat=r):
        points.add(sum(n * base ** i for i, n in enumerate(digits)))
    return tuple(sorted(points))


def oracle_collision_free(elems, r):
    """True when the order-r expansion keeps all len(elems)**r translates distinct."""
    m = oracle_central_halfwidth(elems)
    return len(oracle_expand(elems, m, r)) == len(elems) ** r


def arrays_with_aperture_upto(limit):
    """Every normalized integer array with aperture <= limit (contains 0, max)."""
    pool = [(0,)]
    for span in range(1, limit + 1):
        inner = range(1, span)
        for k in range(span):
            for middle in itertools.combinations(inner, k):
                pool.append((0,) + middle + (span,))
    return pool


def random_elements(rng, max_aperture, min_aperture=1):
    """One random normalized array: endpoints fixed, interior sensors coin-flipped."""
    span = int(rng.integers(min_aperture, max_aperture + 1))
    if span == 0:
        return (0,)
    middle = [i for i in range(1, span) if rng.random() < 0.5]
    return (0, *middle, span)


def mixed_sequences(pool, rng, count):
    """count lists of three SensorArrays, drawn from a pool of element
    tuples with at least two sensors each: expand's one-generator-per-order
    argument."""
    pool = [g for g in pool if len(g) >= 2]
    return [[SensorArray(pool[i]) for i in rng.integers(len(pool), size=3)]
            for _ in range(count)]


def oracle_product(g, m, y):
    """The positions of G + m * Y, each sum g + m * y one at a time."""
    return tuple(sorted({a + m * b for b in y for a in g}))


def random_products(rng, count):
    """count element tuples G + m * Y with m >= 2 max(G) + 1, the condition
    under which every lag splits uniquely: G of 2..9 sensors, holed or not,
    m up to 4 past its least value, and Y itself such a product in about a
    third of the draws."""
    out = []
    while len(out) < count:
        g = random_elements(rng, 8)
        if len(g) < 2:
            continue
        if rng.random() < 1 / 3:
            inner = random_elements(rng, 4)
            y = oracle_product(inner, 2 * inner[-1] + 1 + int(rng.integers(3)),
                               random_elements(rng, 4))
        else:
            y = random_elements(rng, 12)
        if len(y) >= 2:
            out.append(oracle_product(g, 2 * g[-1] + 1 + int(rng.integers(5)), y))
    return out


@pytest.fixture
def factor_from_four(monkeypatch):
    """Counts every array of four sensors or more that factors from its
    factors, so that small arrays the oracles can afford take that route."""
    monkeypatch.setattr(core, "FACTOR_MIN", 4)


@pytest.fixture(scope="session")
def small_pool():
    return arrays_with_aperture_upto(6)


@pytest.fixture(scope="session")
def hole_free_pool():
    return [t for t in arrays_with_aperture_upto(8) if oracle_hole_free(t)]


@pytest.fixture
def coarray_builds(monkeypatch):
    """The arrays a CoarrayProfile is built for while the test runs, in
    build order."""
    built = []
    init = CoarrayProfile.__init__

    def spy(self, array):
        built.append(array)
        init(self, array)

    monkeypatch.setattr(CoarrayProfile, "__init__", spy)
    return built
