"""Banded mutual-coupling model and its leakage metric."""

from dataclasses import dataclass

import numpy as np

from .core import difference_coarray
from .fractal import _orders, expand


@dataclass(frozen=True)
class CouplingModel:
    """Coupling coefficients c_1..c_q indexed by sensor separation.

    Magnitudes decay as |c_i| = |c_1| / i; separations beyond q do not
    couple and the self term is 1. Phases either follow the fixed
    progression arg(c_i) = c1_phase - (i - 1) * pi / 8 or are drawn
    uniformly from [-pi, pi), using the model seed when no generator is
    supplied at draw time.
    """

    q: int = 15
    c1_magnitude: float = 0.3
    c1_phase: float = np.pi / 3
    phase_mode: str = "fixed"
    seed: int | None = None

    def __post_init__(self):
        if self.q < 0:
            raise ValueError("coupling limit q must be >= 0")
        if not np.isfinite(self.c1_phase):
            raise ValueError(f"c1 phase must be finite, got {self.c1_phase}")
        if not 0 <= self.c1_magnitude < 1:
            raise ValueError("c1 magnitude must lie in [0, 1)")
        if self.phase_mode not in ("fixed", "random"):
            raise ValueError("phase_mode must be 'fixed' or 'random'")

    def coefficients(self, rng=None):
        """c_1..c_q as a complex vector (empty when q = 0)."""
        i = np.arange(1, self.q + 1)
        mags = self.c1_magnitude / i
        if self.phase_mode == "fixed":
            phases = self.c1_phase - (i - 1) * np.pi / 8
        else:
            if rng is None:
                rng = np.random.default_rng(self.seed)
            phases = rng.uniform(-np.pi, np.pi, self.q)
        return mags * np.exp(1j * phases)


def coupling_matrix(array, model, rng=None):
    """Dense complex coupling matrix for an array under a model: unit
    diagonal, c_|gi-gj| within the coupling limit, zero beyond, symmetric by
    construction. rng only matters for random-phase models (phases are drawn
    once per call)."""
    pos = array.as_array()
    # table[d] is the coefficient at separation d: 1, c_1..c_q, then 0
    table = np.concatenate(([1.0], model.coefficients(rng), [0.0]))
    sep = np.abs(pos[:, None] - pos[None, :])
    return table[np.minimum(sep, model.q + 1)]


def _off_diagonal(pair_counts, c1_magnitude):
    # off-diagonal Frobenius energy: each pair at lag d holds (c1 / d)^2 twice
    d = np.arange(1, pair_counts.shape[-1] + 1)
    return 2.0 * (pair_counts * (c1_magnitude / d) ** 2).sum(axis=-1)


def _leakage(off, n):
    return np.sqrt(off / (n + off))


def leakage_from_counts(pair_counts, n, c1_magnitude):
    """Coupling leakage of n sensors from their pair counts at lags 1..L,
    L = min(q, aperture), along the last axis: a (rows x lags) matrix gives
    each row, bit for bit, the value of that row alone."""
    return _leakage(_off_diagonal(pair_counts, c1_magnitude), n)


def smallest_size_within(pair_counts, cap, c1_magnitude, most):
    """For each row of pair counts, the smallest n in 1..most at which
    leakage_from_counts is at most cap, or most + 1 where none is.

    The leakage falls as n grows, and sqrt(off / (n + off)) <= cap solves to
    n >= off (1 - cap^2) / cap^2. Rounding may carry that bound across an
    integer, so the formula itself decides the sizes on either side."""
    off = _off_diagonal(pair_counts, c1_magnitude)
    c2 = cap * cap
    if c2 == 0:
        # cap^2 underflows: only an array without coupling fits
        return np.where(off > 0, most + 1, 1)
    # clip past most + 1 before dividing, so a subnormal c2 stays finite
    n = np.ceil(np.minimum(off * (1 - c2), (most + 1) * c2) / c2)
    n = np.clip(n, 1, most + 1).astype(np.int64)
    n -= (n > 1) & (_leakage(off, np.maximum(n - 1, 1)) <= cap)
    n += (n <= most) & (_leakage(off, n) > cap)
    return n


def _near_lag_counts(pos, q):
    """Pair counts at lags 1..min(q, aperture) of sorted distinct positions,
    as int64: the same values as a CoarrayProfile's counts there.

    A pair at lag d <= q has index gap at most d, so gaps 1..q cover every
    one of them at O(N q), without the O(N^2) coarray.
    """
    qa = min(q, int(pos[-1]))
    counts = np.zeros(qa + 1, dtype=np.int64)
    for gap in range(1, min(qa, pos.size - 1) + 1):
        d = pos[gap:] - pos[:-gap]
        counts += np.bincount(d[d <= qa], minlength=qa + 1)
    return counts[1:]


def leakage_from_profile(profile, model):
    """Coupling leakage: the fraction of the coupling matrix's Frobenius
    energy that sits off the diagonal, in [0, 1], computed from pair counts
    without building the matrix.

    Phases cancel in the Frobenius norms, so only the magnitude rule
    enters; the test suite holds this against the dense-matrix route.
    """
    qa = min(model.q, profile.aperture)
    counts = profile.counts
    return float(leakage_from_counts(counts[1:qa + 1], int(counts[0]), model.c1_magnitude))


@dataclass(frozen=True)
class LeakagePreservationReport:
    """Outcome of the leakage-invariance check for one generator and order.

    preserved is None when the hypotheses fail; both leakages are reported
    either way.
    """

    hypotheses_hold: bool
    generator_leakage: float
    expanded_leakage: float
    preserved: object


PRESERVATION_TOL = 1e-12


def verify_leakage_preservation(generators, model, r):
    """Check whether expansion leaves the coupling leakage unchanged.

    generators is expand's argument. The sufficient conditions are read on
    the innermost generator G_1: q < max(G_1) and q + max(G_1) < |U| of
    G_1. Copies of G_1 then sit at offsets that differ by nonzero multiples
    of that |U|, so they are coupling-isolated, and the expanded array's
    leakage equals G_1's.
    """
    orders = _orders(generators, r)
    # order 0 takes only the one-generator form
    g1 = orders[0][0] if orders else generators
    prof = difference_coarray(g1)
    hyp = model.q < g1.aperture and model.q + g1.aperture < prof.ula_size
    lg = leakage_from_profile(prof, model)
    pos = expand(generators, r).as_array()
    lr = float(leakage_from_counts(_near_lag_counts(pos, model.q), pos.size, model.c1_magnitude))
    preserved = bool(abs(lr - lg) <= PRESERVATION_TOL) if hyp else None
    return LeakagePreservationReport(hyp, lg, lr, preserved)
