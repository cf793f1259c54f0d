"""Array quality metrics: weight maps, beampatterns, essentialness, fragility.

Weight maps are stored on the non-negative lags only, as exact int64 vectors
w[0..A]; negative lags follow from symmetry. All weight arithmetic stays in
integers so structural identities can be checked for exact equality.
"""

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .core import SensorArray, difference_coarray


def weight_expand(w, ell):
    """Stretch a weight map by ell: entry at lag n moves to lag n * ell,
    with zeros in between."""
    if ell < 1:
        raise ValueError("expansion factor must be >= 1")
    w = np.asarray(w, dtype=np.int64)
    out = np.zeros((w.size - 1) * ell + 1, dtype=np.int64)
    out[::ell] = w
    return out


def _full(w):
    # symmetric extension from lags 0..A to -A..A
    return np.concatenate([w[:0:-1], w])


def fractal_weight(generator, r):
    """Predicted weight map of the order-r expansion of a generator, without
    building the expanded array: the convolution of stretched copies of the
    generator weight map, one per order, stretch factors 1, M, M^2, ...

    Returns the non-negative half. Exact integer arithmetic throughout.
    Matches the counted weights of expand(generator, r) whenever the
    expansion keeps all len(generator)**r translated sensors distinct, which
    holds in particular for generators with hole-free coarrays; colliding
    translates lose sensors and the closed form overcounts.
    """
    if r < 0:
        raise ValueError("order must be non-negative")
    prof = difference_coarray(generator)
    M = prof.ula_size
    out = np.ones(1, dtype=np.int64)
    for i in range(r):
        out = np.convolve(out, _full(weight_expand(prof.counts, M ** i)))
    return out[out.size // 2:]


@dataclass(frozen=True, eq=False)
class Beampattern:
    """Sampled spatial spectrum of an array's weight map.

    Lag symmetry makes the values exactly real; the DC value equals the
    squared sensor count. Not normalized.
    """

    omegas: np.ndarray
    values: np.ndarray
    source: str = ""


def _weight_dtft(w, om):
    # cosine form keeps the result exactly real; chunked over the omega rows
    # so the samples x lags table stays bounded for large apertures
    lags = np.arange(1, w.size)
    wf = np.asarray(w[1:], float)
    sums = np.empty(om.size)
    step = max(1, 4_000_000 // max(lags.size, 1))
    for i in range(0, om.size, step):
        sums[i:i + step] = (wf[None, :] * np.cos(np.outer(om[i:i + step], lags))).sum(axis=1)
    return w[0] + 2.0 * sums


def beampattern(array, omegas):
    """Beampattern sum_m w(m) exp(-j w m) at the given angular frequencies
    (radians per unit spacing)."""
    prof = difference_coarray(array)
    om = np.atleast_1d(np.asarray(omegas, dtype=float))
    return Beampattern(om, _weight_dtft(prof.counts, om), source=array.name)


def product_beampattern(generator, r, omegas):
    """Beampattern of the order-r expansion evaluated as a product of
    generator beampatterns at frequencies scaled by powers of the
    central-ULA size. Equals the direct transform of the expanded array
    under the same no-collision proviso as fractal_weight."""
    if r < 0:
        raise ValueError("order must be non-negative")
    prof = difference_coarray(generator)
    M = prof.ula_size
    om = np.atleast_1d(np.asarray(omegas, dtype=float))
    vals = np.ones_like(om)
    for i in range(r):
        vals = vals * _weight_dtft(prof.counts, om * M ** i)
    return Beampattern(om, vals, source=generator.name)


@dataclass(frozen=True)
class EconomyReport:
    """Essentialness breakdown of one array.

    essential holds the sensors whose removal shrinks the difference
    coarray; fragility is their exact fraction. satisfies_C1 reports the
    sufficient single-pair condition (every sensor participates in some
    weight-1 lag), which implies maximal economy but not conversely.
    """

    essential: tuple
    inessential: tuple
    fragility: Fraction
    maximally_economic: bool
    satisfies_C1: bool


def _essential_mask(elems, counts):
    # a sensor g is essential iff some lag d > 0 would lose all its pairs:
    # the pair count at d equals the number of pairs g itself forms at d,
    # which is [g - d present] + [g + d present], at most 2
    A = int(elems[-1])
    member = np.zeros(A + 1, dtype=bool)
    member[elems] = True
    d = np.arange(1, A + 1)
    w = counts[1:]
    out = np.zeros(elems.size, dtype=bool)
    step = max(1, 4_000_000 // (A + 1))
    for i in range(0, elems.size, step):
        g = elems[i:i + step, None]
        lo = g - d[None, :]
        hi = g + d[None, :]
        with_g = ((lo >= 0) & member[np.clip(lo, 0, A)]).astype(np.int8)
        with_g += (hi <= A) & member[np.clip(hi, 0, A)]
        out[i:i + step] = ((with_g > 0) & (with_g == w[None, :])).any(axis=1)
    return out


def _removal_changes_coarray(elems, i, profile):
    rest = tuple(int(e) for e in np.delete(elems, i))
    sub = difference_coarray(SensorArray(rest))
    return set(sub.differences) != set(profile.differences)


def _satisfies_c1(elems, counts):
    diffs = np.abs(elems[:, None] - elems[None, :])
    return bool((counts[diffs] == 1).any(axis=1).all())


def economy(array, direct=False):
    """Partition sensors into essential and inessential, with the essential
    fraction as an exact rational.

    direct=True recomputes the coarray once per removed sensor, straight
    from the definition. The default uses an equivalent incremental update
    of the pair counts (a sensor is essential iff it carries every pair at
    some lag); the test suite holds the two routes equal.

    A single-sensor array counts as essential by convention, fragility 1.
    """
    elems = array.as_array()
    n = elems.size
    if n == 1:
        return EconomyReport(tuple(array.elements), (), Fraction(1), True, True)
    profile = difference_coarray(array)
    if direct:
        mask = np.array([_removal_changes_coarray(elems, i, profile) for i in range(n)])
    else:
        mask = _essential_mask(elems, profile.counts)
    essential = tuple(int(e) for e in elems[mask])
    inessential = tuple(int(e) for e in elems[~mask])
    return EconomyReport(
        essential,
        inessential,
        Fraction(int(mask.sum()), n),
        not inessential,
        _satisfies_c1(elems, profile.counts),
    )
