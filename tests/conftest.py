"""Shared fixtures and brute-force oracles.

The oracles here are deliberately naive (python sets and double loops) so
they cannot share a bug with the vectorized implementations under test.
"""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from fracarray import EconomyReport, SensorArray, check_constraints

# reference designs used across the suite
S_ELEMS = (0, 1, 2, 4, 7, 10, 13, 16, 18, 19, 20)
G_ELEMS = (0, 1, 3, 5, 11, 13, 17, 18, 19, 20)


def oracle_differences(elems):
    return {a - b for a in elems for b in elems}


def oracle_weight_map(elems):
    w = {}
    for a in elems:
        for b in elems:
            d = a - b
            w[d] = w.get(d, 0) + 1
    return w


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
    """solve_p1 by brute force: every subset containing 0, in ascending
    cardinality and lexicographic order, through check_constraints. Returns
    (size, optima as element tuples); (0, ()) when nothing is feasible."""
    A = cons.max_aperture
    for k in range(1, A + 2):
        found = tuple((0,) + rest for rest in itertools.combinations(range(1, A + 1), k - 1)
                      if check_constraints(SensorArray((0,) + rest), cons).feasible)
        if found:
            return k, found
    return 0, ()


def oracle_music_denominator(noise, grid_size):
    """MUSIC denominator sum_k |u_k^H a(theta)|^2 straight from the
    (m+1) x grid_size steering matrix on the grid g / grid_size - 1/2."""
    idx = np.arange(noise.shape[0])
    grid = np.arange(grid_size) / grid_size - 0.5
    steer = np.exp(2j * np.pi * np.outer(idx, grid))
    return (np.abs(noise.conj().T @ steer) ** 2).sum(axis=0)


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


@pytest.fixture(scope="session")
def small_pool():
    return arrays_with_aperture_upto(6)


@pytest.fixture(scope="session")
def hole_free_pool():
    return [t for t in arrays_with_aperture_upto(8) if oracle_hole_free(t)]
