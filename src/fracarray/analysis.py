"""Array quality metrics: weight maps, beampatterns, essentialness, fragility.

Weight maps are stored on the non-negative lags only, as exact int64 vectors
w[0..A]; negative lags follow from symmetry. All weight arithmetic stays in
integers so structural identities can be checked for exact equality.
"""

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .core import CoarrayProfile, difference_coarray, pair_blocks


def fractal_weight(generator, r):
    """Predicted weight map of the order-r expansion of a generator, without
    building the expanded array: the convolution of stretched copies of the
    generator weight map, one per order, stretch factors 1, M, M^2, ...

    Returns the non-negative half. Exact integer arithmetic throughout.
    Matches the counted weights of expand(generator, r) whenever the
    expansion keeps all len(generator)**r translated sensors distinct, which
    holds in particular for generators with hole-free coarrays; colliding
    translates lose sensors and the closed form overcounts.

    Each order is a sparse shift-and-add over the generator's nonzero lags
    (at most 2 * aperture + 1 of them), so the cost is that of the output.
    """
    if r < 0:
        raise ValueError("order must be non-negative")
    prof = difference_coarray(generator)
    M = prof.ula_size
    A = prof.aperture
    full = np.concatenate([prof.counts[:0:-1], prof.counts])
    taps = [(k, int(full[k])) for k in np.nonzero(full)[0]]
    out = np.ones(1, dtype=np.int64)
    for i in range(r):
        # out convolved with the full map stretched by M**i: the tap at
        # full-map index k adds w * out shifted by k * M**i
        stride = M ** i
        grown = np.zeros(out.size + 2 * A * stride, dtype=np.int64)
        for k, w in taps:
            start = k * stride
            grown[start:start + out.size] += out if w == 1 else w * out
        out = grown
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
    (radians per unit spacing).

    array is a SensorArray, or its CoarrayProfile when the coarray is
    already built; the profile is then reused instead of recomputed.
    """
    prof = array if isinstance(array, CoarrayProfile) else difference_coarray(array)
    om = np.atleast_1d(np.asarray(omegas, dtype=float))
    return Beampattern(om, _weight_dtft(prof.counts, om), source=prof.array.name)


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


def _pair_pass(elems, counts):
    # Removing sensor g empties lag d exactly when the count at d equals the
    # pairs g forms there, and it forms at most two. So g is essential iff
    # it ends a pair at a weight-1 lag (ends; C1 asks this of every sensor)
    # or is the middle of g - d, g, g + d at a weight-2 lag (middle). One
    # pass over the pairs j > i finds both; a triple is seen from (g - d, g).
    n = elems.size
    ends = np.zeros(n, dtype=bool)
    middle = np.zeros(n, dtype=bool)
    for i, d in pair_blocks(elems):
        np.maximum(d, 0, out=d)  # no-pair entries become lag 0 and fail d > 0
        r, c = np.nonzero((d > 0) & (counts[d] <= 2))
        lag = d[r, c]
        one = counts[lag] == 1
        ends[i + r[one]] = True
        ends[i + 1 + c[one]] = True
        g = i + 1 + c[~one]
        far = elems[g] + lag[~one]
        at = np.minimum(np.searchsorted(elems, far), n - 1)
        middle[g[elems[at] == far]] = True
    return ends | middle, bool(ends.all())


def economy(array):
    """Partition sensors into essential and inessential, with the essential
    fraction as an exact rational.

    array is a SensorArray, or its CoarrayProfile when the coarray is
    already built; the profile is then reused instead of recomputed.

    Both essentialness and C1 come from one chunked pass over the sensor
    pairs, O(N^2) like the coarray itself: a sensor is essential iff it
    ends a pair at a weight-1 lag or sits between the two pairs of a
    weight-2 lag.

    A single-sensor array counts as essential by convention, fragility 1.
    """
    if isinstance(array, CoarrayProfile):
        profile, array = array, array.array
    else:
        profile = None
    elems = array.as_array()
    n = elems.size
    if n == 1:
        return EconomyReport(tuple(array.elements), (), Fraction(1), True, True)
    if profile is None:
        profile = difference_coarray(array)
    mask, c1 = _pair_pass(elems, profile.counts)
    essential = tuple(int(e) for e in elems[mask])
    inessential = tuple(int(e) for e in elems[~mask])
    return EconomyReport(
        essential,
        inessential,
        Fraction(int(mask.sum()), n),
        not inessential,
        c1,
    )
