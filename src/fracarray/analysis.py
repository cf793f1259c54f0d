"""Array quality metrics: weight maps, beampatterns, essentialness, fragility.

Weight maps are stored on the non-negative lags only, as exact int64 vectors
w[0..A]; negative lags follow from symmetry. All weight arithmetic stays in
integers so structural identities can be checked for exact equality.
"""

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .core import difference_coarray, pair_blocks
from .fractal import _orders


def fractal_weight(generators, r):
    """Predicted weight map of the order-r expansion, without building the
    expanded array: the convolution of the generators' weight maps, one per
    order, each stretched by its order's stride (1, M_1, M_1 M_2, ...).

    generators is expand's argument. Returns the non-negative half. Exact
    integer arithmetic throughout. Matches the counted weights of
    expand(generators, r) whenever the expansion keeps every translated
    sensor distinct, which holds in particular for generators with
    hole-free coarrays; colliding translates lose sensors and the closed
    form overcounts.

    Each order is a sparse shift-and-add over its generator's nonzero lags
    (at most 2 * aperture + 1 of them), so the cost is that of the output.
    """
    out = np.ones(1, dtype=np.int64)
    for g, stride in _orders(generators, r):
        counts = difference_coarray(g).counts
        full = np.concatenate([counts[:0:-1], counts])
        # out convolved with the full map stretched by the stride: the tap
        # at full-map index k adds w * out shifted by k * stride
        grown = np.zeros(out.size + (full.size - 1) * stride, dtype=np.int64)
        for k in np.flatnonzero(full).tolist():
            w = int(full[k])
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


def _grid(omegas):
    """(om, L, k) for omegas equal to np.linspace(-pi, pi, S) exactly, the
    grid omega_k = -pi + 2 pi k / L that analyze --beampattern samples, with
    L = max(S - 1, 1) and k the per-sample index into a period of L; the
    last sample repeats the first. Any other frequencies raise ValueError."""
    om = np.atleast_1d(np.asarray(omegas, dtype=float))
    if om.ndim != 1 or not np.array_equal(om, np.linspace(-np.pi, np.pi, om.size)):
        raise ValueError("omegas must be exactly np.linspace(-pi, pi, S) for some S")
    L = max(om.size - 1, 1)
    return om, L, np.arange(om.size) % L


def _grid_dtft(w, L):
    """w[0] + 2 sum_d w[d] cos(omega_j d) at omega_j = -pi + 2 pi j / L for
    j = 0..L-1, through one real FFT of length L.

    exp(-j omega_j d) = (-1)^d exp(-2j pi j d / L), so lag d goes to bin
    d mod L with sign (-1)^d; lags that alias to one bin add, exactly, as
    integer-valued floats. Bins j and L - j mirror, so the result is even.
    """
    lags = np.arange(1, w.size)
    signed = np.where(lags % 2, -1.0, 1.0) * w[1:]
    b = np.bincount(lags % L, weights=signed, minlength=L)
    half = np.fft.rfft(b).real
    j = np.arange(L)
    return w[0] + 2.0 * half[np.minimum(j, L - j)]


def beampattern(array, omegas):
    """Beampattern sum_m w(m) exp(-j w m) of a SensorArray on the grid
    np.linspace(-pi, pi, S) that analyze --beampattern samples; any other
    omegas raise ValueError.

    One FFT of the weight map gives every sample in O(A + S log S) for
    aperture A.
    """
    om, L, k = _grid(omegas)
    return Beampattern(om, _grid_dtft(difference_coarray(array).counts, L)[k])


def product_beampattern(generators, r, omegas):
    """Beampattern of the order-r expansion evaluated as a product of
    generator beampatterns, one per order, each at frequencies scaled by
    its order's stride. generators is expand's argument. Equals the direct
    transform of the expanded array under the same no-collision proviso as
    fractal_weight.

    omegas must be the np.linspace(-pi, pi, S) grid, as for beampattern.
    The factor of an order with stride s is, at sample k, its generator's
    grid value at index k * s mod L: s is a product of odd M, so the -pi
    offset keeps its (-1)^d sign under the stretch."""
    om, L, k = _grid(omegas)
    vals = np.ones_like(om)
    for g, stride in _orders(generators, r):
        vals = vals * _grid_dtft(difference_coarray(g).counts, L)[k * (stride % L) % L]
    return Beampattern(om, vals)


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
    # or is the middle of g - d, g, g + d at a weight-2 lag (middle); the
    # triple is seen from its lower pair (g - d, g). Returns (ends, middle).
    # The walk goes from the middle row of the folded pair table down, in
    # blocks of about an eighth of it but at least 4,096 entries (up to 64
    # sensors take one block), and stops once every sensor ends a weight-1
    # pair: ends only grows, and once it is full every sensor is essential
    # and C1 holds, whatever middle holds by then.
    n = elems.size
    # lag 0, the zeroed repeat of an even row, passes only when n == 2; its
    # one pair has weight 1, so that walk stops before the middle rule
    low = counts <= 2
    ends = np.zeros(n, dtype=bool)
    middle = np.zeros(n, dtype=bool)
    for g, d in pair_blocks(elems, max(n // 16, 4096 // n)):
        k = np.flatnonzero(low[d])
        r, i = np.divmod(k, n)
        j = i + g + r
        j[j >= n] -= n
        lag = d.ravel()[k]
        one = counts[lag] == 1
        ends[i[one]] = True
        ends[j[one]] = True
        if ends.all():
            break
        top = np.maximum(i, j)[~one]
        far = elems[top] + lag[~one]
        at = np.minimum(np.searchsorted(elems, far), n - 1)
        middle[top[elems[at] == far]] = True
    return ends, middle


def _weight_one_ends(array):
    # E1, the sensors that end a weight-1 pair. For X = G + m * Y, w_X is
    # w_G(l1) * w_Y(l2), and l1 = 0 or l2 = 0 weighs |G| or |Y| >= 2, so
    # E1(X) = E1(G) x E1(Y) in X's order: Y's sensors in the rows
    prof = difference_coarray(array)
    if prof.factors is None:
        return _pair_pass(array.as_array(), prof.counts)[0]
    g, _, y = prof.factors
    return np.logical_and.outer(_weight_one_ends(y), _weight_one_ends(g)).ravel()


def economy(array):
    """Partition sensors into essential and inessential, with the essential
    fraction as an exact rational.

    A sensor is essential iff it ends a pair at a weight-1 lag or sits
    between the two pairs of a weight-2 lag. When the array's profile
    factors it as X = G + M * Y (core.CoarrayProfile.factors), no sensor is
    such a middle: the triple x - L, x, x + L needs a triple at l1 in G (or
    l1 = 0) and one at l2 in Y (or l2 = 0), so w_X(L) = w_G(l1) w_Y(l2) >=
    2 * 2. The essential set is then E1(G) x E1(Y), each factor's sensors
    that end a weight-1 pair, found the same way from the factor's own
    profile, and C1 holds iff it holds for both factors. The cost is that
    of the factors, not O(N^2), and X's count vector is never read.

    Any other array takes one walk over the folded pair blocks of
    core.pair_blocks, O(N^2) at worst, which stops as soon as every sensor
    ends a weight-1 pair: that settles both answers.

    A single-sensor array counts as essential by convention, fragility 1.
    """
    elems = array.as_array()
    n = elems.size
    if n == 1:
        return EconomyReport(tuple(array.elements), (), Fraction(1), True, True)
    prof = difference_coarray(array)
    if prof.factors is None:
        ends, middle = _pair_pass(elems, prof.counts)
        mask = ends | middle
    else:
        mask = ends = _weight_one_ends(array)
    essential = tuple(elems[mask].tolist())
    inessential = tuple(elems[~mask].tolist())
    return EconomyReport(essential, inessential, Fraction(int(mask.sum()), n),
                         not inessential, bool(ends.all()))
