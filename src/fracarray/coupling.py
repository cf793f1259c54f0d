"""Banded mutual-coupling model and its leakage metric."""

from dataclasses import dataclass

import numpy as np

from .core import difference_coarray
from .fractal import expand


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
    c = model.coefficients(rng)
    sep = np.abs(pos[:, None] - pos[None, :])
    C = np.zeros(sep.shape, dtype=complex)
    np.fill_diagonal(C, 1.0)
    inband = (sep >= 1) & (sep <= model.q)
    C[inband] = c[sep[inband] - 1]
    return C


def leakage_from_profile(profile, model):
    """Coupling leakage: the fraction of the coupling matrix's Frobenius
    energy that sits off the diagonal, in [0, 1], computed from pair counts
    without building the matrix.

    Phases cancel in the Frobenius norms, so only the magnitude rule
    enters; the test suite holds this against the dense-matrix route.
    """
    qa = min(model.q, profile.aperture)
    d = np.arange(1, qa + 1)
    off = 2.0 * float((profile.counts[1:qa + 1] * (model.c1_magnitude / d) ** 2).sum())
    n = int(profile.counts[0])
    return float(np.sqrt(off / (n + off)))


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
    order: int


def verify_leakage_preservation(generator, model, r, tol=1e-12):
    """Check whether expansion leaves the coupling leakage unchanged.

    The sufficient conditions are q < max(G) and q + max(G) < |U| of the
    generator; when they hold the expanded array decomposes into coupling-
    isolated replicas of the generator and the leakage is identical.
    """
    prof = difference_coarray(generator)
    hyp = model.q < generator.aperture and model.q + generator.aperture < prof.ula_size
    lg = leakage_from_profile(prof, model)
    lr = leakage_from_profile(difference_coarray(expand(generator, r)), model)
    preserved = bool(abs(lr - lg) <= tol) if hyp else None
    return LeakagePreservationReport(hyp, lg, lr, preserved, r)
