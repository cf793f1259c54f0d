"""Monte-Carlo DOA evaluation on the difference coarray.

Snapshots follow the narrowband model x = C A s + w with circular complex
Gaussian source amplitudes and noise. Lag statistics of the sample
covariance form a virtual ULA measurement; spatial smoothing turns it into
a covariance whose MUSIC pseudospectrum yields the estimates. Directions
are normalized as sin(theta) / 2 in [-0.5, 0.5].

The smoothed covariance is Z Z^H / (m + 1), where Z, the (m+1) x (m+1)
Toeplitz matrix of the lags 0..m, is Hermitian, so both share Z's
eigenvectors. Z is centro-Hermitian, and a fixed sparse unitary Q makes
T = Q^H Z Q real symmetric (Lee 1980; Huarng and Yeh 1991). T is built in
O(m^2) from the non-negative lags, and one real eigh of it yields the
eigenvectors; the num_sources of largest |eigenvalue| (Z can be
indefinite), mapped back by Q, span the signal subspace. No Z Z^H product
and no complex eigh are formed.

The pseudospectrum is 1 / a^H P a, with P = I - U U^H the projector onto
the noise subspace. a^H P a is a trigonometric polynomial whose lag-d
coefficient is the d-th diagonal sum of P. One FFT of the signal vectors
gives those sums, and one inverse real FFT of length grid_size scores the
whole direction grid, not a steering matrix of (m + 1) x grid_size
entries. The eigh is the O(m^3) step: at m = 1,098 ((0,1,4,6)^3, 100
sources) it is most of the 0.34 s a trial's MUSIC takes. The tests hold
this route against the complex eigh of Z Z^H and the direct steering
product.
"""

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .core import SensorArray, difference_coarray
from .coupling import CouplingModel, coupling_matrix

DEFAULT_GRID = 1 << 14
SWEEP_AXES = ("coupling_c1_mag", "failure_probability", "snr_db")


class IdentifiabilityError(ValueError):
    """Smoothed coarray too small for the requested source count."""


class EstimationFailure(RuntimeError):
    """Trial produced no usable estimate."""


@dataclass(frozen=True)
class Scenario:
    """One simulation configuration.

    thetas are the normalized source directions (distinct); powers default
    to all ones. snr_db is per-source power over noise power, so noise
    power is 10^(-snr/10); math.inf means noiseless. Each sensor fails
    independently per trial with failure_probability, shrinking the array
    for that trial.
    """

    array: SensorArray
    thetas: tuple
    powers: tuple = ()
    snapshots: int = 1000
    snr_db: float = 0.0
    coupling: CouplingModel | None = None
    failure_probability: float = 0.0
    trials: int = 500
    seed: int = 0
    grid_size: int = DEFAULT_GRID

    def __post_init__(self):
        th = tuple(float(t) for t in self.thetas)
        if not th:
            raise ValueError("need at least one source")
        if len(set(th)) != len(th):
            raise ValueError("source directions must be distinct")
        if any(not -0.5 <= t <= 0.5 for t in th):
            raise ValueError("normalized directions must lie in [-0.5, 0.5]")
        object.__setattr__(self, "thetas", th)
        p = tuple(float(x) for x in self.powers) or (1.0,) * len(th)
        if len(p) != len(th):
            raise ValueError("powers must match the source count")
        for x in p:
            if not 0 < x < math.inf:
                raise ValueError(f"source powers must be positive and finite, got {x}")
        object.__setattr__(self, "powers", p)
        if self.snapshots < 1:
            raise ValueError("need at least one snapshot")
        if math.isnan(self.snr_db) or self.snr_db == -math.inf:
            raise ValueError(f"SNR must be finite, or inf for noiseless, got {self.snr_db} dB")
        if not 0 <= self.failure_probability < 1:
            raise ValueError("failure probability must lie in [0, 1)")
        if self.trials < 1:
            raise ValueError("need at least one trial")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if self.grid_size < 4:
            raise ValueError("grid too coarse")

    @property
    def noise_power(self):
        return 10.0 ** (-self.snr_db / 10.0)


def equally_spaced_thetas(k, lo=-0.45, hi=0.45):
    """k distinct normalized directions covering [lo, hi] uniformly."""
    if k < 1:
        raise ValueError("need at least one source")
    if k == 1:
        return ((lo + hi) / 2.0,)
    return tuple(float(t) for t in np.linspace(lo, hi, k))


def synthesize(scenario, rng):
    """Draw one trial's surviving array and its N x T snapshot matrix.

    Draw order is fixed for reproducibility: sensor failures, coupling
    phases (random-phase models only), source amplitudes, then noise.
    Raises EstimationFailure if every sensor fails.
    """
    pos = _survivors(scenario, rng)
    surviving = SensorArray(pos.tolist())
    return surviving, _snapshots(scenario, pos, surviving, rng)


def _survivors(scenario, rng):
    """The first draw of a trial: the raw positions of the sensors that did
    not fail."""
    pos = scenario.array.as_array()
    if scenario.failure_probability > 0:
        alive = rng.random(pos.size) >= scenario.failure_probability
        if not alive.any():
            raise EstimationFailure("all sensors failed")
        pos = pos[alive]
    return pos


def _snapshots(scenario, pos, surviving, rng):
    """The draws after the failures: the snapshot matrix of the sensors at
    the raw positions pos, whose SensorArray (shifted to start at 0) is
    surviving."""
    C = None
    if scenario.coupling is not None:
        C = coupling_matrix(surviving, scenario.coupling, rng)
    th = np.asarray(scenario.thetas)
    steer = np.exp(2j * np.pi * np.outer(pos, th))
    amp = np.sqrt(np.asarray(scenario.powers) / 2.0)
    # one draw of (2, rows, T) is the stream of two (rows, T) draws
    g = rng.standard_normal((2, th.size, scenario.snapshots))
    x = steer @ (amp[:, None] * (g[0] + 1j * g[1]))
    if C is not None:
        x = C @ x
    pw = scenario.noise_power
    if pw > 0:
        g = rng.standard_normal((2, pos.size, scenario.snapshots))
        scale = math.sqrt(pw / 2.0)
        x.real += scale * g[0]
        x.imag += scale * g[1]
    return x


def coarray_statistics(x, array):
    """Average sample-covariance entries over equal lags.

    Returns the virtual ULA measurement restricted to the central
    contiguous lag run of the array's coarray, ordered lag -m..m. Each lag
    averages its w(m) duplicate entries.
    """
    pos = array.as_array()
    if x.shape[0] != pos.size:
        raise ValueError("snapshot rows must match the array size")
    prof = difference_coarray(array)
    R = (x @ x.conj().T) / x.shape[1]
    m = prof.central_ula_halfwidth
    lag = pos[:, None] - pos[None, :]
    sel = np.abs(lag) <= m
    bins = lag[sel] + m
    cells = R[sel]
    acc = np.empty(2 * m + 1, dtype=complex)
    acc.real = np.bincount(bins, cells.real, 2 * m + 1)
    acc.imag = np.bincount(bins, cells.imag, 2 * m + 1)
    return acc / prof.counts[np.abs(np.arange(-m, m + 1))]


def _real_form(lags):
    """T = Re(Q^H Z Q) of the (m+1) x (m+1) smoothing matrix Z[i, j] = z_{i-j},
    built in O(m^2) from the lags z_0..z_m; z_{-d} = conj(z_d) makes Z
    Hermitian Toeplitz and T exactly symmetric.

    Q's first p = (m+1) // 2 columns are (e_k + e_{m-k}) / sqrt(2), then e_p
    when m + 1 is odd, then j (e_k - e_{m-k}) / sqrt(2). With r, s the real
    and imaginary parts of the lags, the symmetric block is Toeplitz plus
    Hankel, r_{i-j} + r_{i+j-m}, and the antisymmetric block Toeplitz minus
    Hankel; they couple through s_{i-j} + s_{i+j-m}.
    """
    m = lags.size - 1
    p = (m + 1) // 2
    q = m + 1 - p  # first antisymmetric column
    # r[d + m] and s[d + m] for d = -m..m
    r = np.concatenate([lags.real[:0:-1], lags.real])
    s = np.concatenate([-lags.imag[:0:-1], lags.imag])
    i = np.arange(p)
    toeplitz = m + i[:, None] - i[None, :]
    hankel = i[:, None] + i[None, :]
    T = np.empty((m + 1, m + 1))
    T[:p, :p] = r[toeplitz] + r[hankel]
    T[q:, q:] = r[toeplitz] - r[hankel]
    T[q:, :p] = s[toeplitz] + s[hankel]
    T[:p, q:] = T[q:, :p].T
    if p < q:
        T[p, p] = r[m]
        T[p, :p] = T[:p, p] = math.sqrt(2.0) * r[m + p - i]
        T[p, q:] = T[q:, p] = -math.sqrt(2.0) * s[m + p - i]
    return T


def _signal_subspace(virtual, num_sources):
    """Spatially smooth a virtual ULA measurement and return the
    num_sources eigenvectors of largest |eigenvalue| as columns.

    The eigenvectors come from one real eigh of _real_form; Q maps them
    back. The smoothing matrix can be indefinite, so the order is by
    magnitude.
    """
    v = np.asarray(virtual)
    if v.ndim != 1 or v.size % 2 == 0:
        raise ValueError("virtual measurement must be an odd-length vector")
    m = (v.size - 1) // 2
    if m + 1 <= num_sources:
        raise IdentifiabilityError(
            f"smoothed subarray of {m + 1} cannot separate {num_sources} sources")
    vals, vecs = np.linalg.eigh(_real_form(v[m:]))
    top = vecs[:, np.argsort(np.abs(vals), kind="stable")[m + 1 - num_sources:]]
    p, q = (m + 1) // 2, m + 1 - (m + 1) // 2
    signal = np.empty(top.shape, dtype=complex)
    signal[:p] = (top[:p] + 1j * top[q:]) / math.sqrt(2.0)
    signal[p:q] = top[p:q]
    signal[q:] = signal[:p][::-1].conj()
    return signal


def _music_denominator(signal, grid_size):
    """sum_k |u_k^H a(theta)|^2 over the noise eigenvectors u_k, on the grid
    theta_g = g / grid_size - 1/2, from the signal eigenvectors alone.

    It equals a^H P a = sum_d c_d exp(2j pi d theta) with P = I - U U^H the
    noise projector, so c_d = (m+1) [d = 0] - sum_k sum_l u_k[l] conj(u_k[l+d]):
    one FFT of the signal vectors, of length >= 2m + 1, gives every lag sum.
    On the grid each c_d picks up (-1)^d, and lag d lands in bin d mod
    grid_size, where aliased lags (grid_size < 2m + 1) add. c_{-d} =
    conj(c_d), so one irfft of the half spectrum yields the real result.
    """
    n = signal.shape[0]
    size = 1 << (2 * n - 2).bit_length()
    spectrum = np.fft.fft(signal, size, axis=0)
    power = (spectrum.real ** 2 + spectrum.imag ** 2).sum(axis=1)
    # rfft of the real power is size * conj(autocorrelation), so entry d is
    # size * sum_k sum_l u_k[l] conj(u_k[l + d])
    c = np.fft.rfft(power)[:n] / -size
    c[0] += n
    c[1::2] *= -1
    lags = np.arange(1 - n, n) % grid_size
    weights = np.concatenate([c[:0:-1].conj(), c])
    half = grid_size // 2 + 1
    keep = lags < half
    folded = np.empty(half, dtype=complex)
    folded.real = np.bincount(lags[keep], weights.real[keep], half)
    folded.imag = np.bincount(lags[keep], weights.imag[keep], half)
    return np.fft.irfft(folded, grid_size, norm="forward")


def _peak_directions(den, num_sources):
    """The num_sources largest strict local peaks of the pseudospectrum
    1 / den, as ascending grid directions."""
    grid_size = den.size
    spectrum = 1.0 / np.maximum(den, 1e-300)
    # strictly above both neighbours, circularly (the direction grid wraps)
    peaks = np.nonzero((spectrum > np.roll(spectrum, 1))
                       & (spectrum > np.roll(spectrum, -1)))[0]
    if peaks.size < num_sources:
        raise EstimationFailure(
            f"found {peaks.size} spectrum peaks, need {num_sources}")
    top = peaks[np.argsort(spectrum[peaks])[-num_sources:]]
    return np.sort(top / grid_size - 0.5)


def coarray_music(virtual, num_sources, grid_size=DEFAULT_GRID):
    """MUSIC estimates from a virtual ULA measurement vector.

    Spatial smoothing stacks the m+1 length-(m+1) shifted subvectors into a
    positive-semidefinite covariance; its noise eigenvectors score a
    pseudospectrum on a uniform direction grid and the num_sources largest
    strict local peaks come back sorted ascending.
    """
    signal = _signal_subspace(virtual, num_sources)
    return _peak_directions(_music_denominator(signal, grid_size), num_sources)


def trial_seed(seed, value, index):
    """Deterministic per-trial seed from the campaign seed, the swept value
    and the trial index; independent of execution order."""
    bits = int(np.float64(value).view(np.uint64))
    return np.random.SeedSequence((int(seed), bits, int(index)))


FAILURE_CAUSES = ("all_dead", "identifiability", "peaks")


def run_trial(scenario, seed):
    """One synthesize-estimate cycle: (ascending estimates, None), or
    (None, cause) with cause one of FAILURE_CAUSES.

    The failures are drawn first; a surviving array whose smoothed coarray
    cannot separate the sources fails without drawing its snapshots. Each
    trial has its own stream, so skipping those draws changes no other
    trial."""
    rng = np.random.default_rng(seed)
    try:
        pos = _survivors(scenario, rng)
    except EstimationFailure:
        return None, "all_dead"
    surviving = SensorArray(pos.tolist())
    num_sources = len(scenario.thetas)
    # coarray_music's identifiability test, known before any snapshot
    if difference_coarray(surviving).central_ula_halfwidth + 1 <= num_sources:
        return None, "identifiability"
    virtual = coarray_statistics(_snapshots(scenario, pos, surviving, rng), surviving)
    try:
        return coarray_music(virtual, num_sources, scenario.grid_size), None
    except EstimationFailure:
        return None, "peaks"


@dataclass(frozen=True)
class SweepPoint:
    """One grid value's outcome. trials[i] is run_trial's (estimates,
    failure) for trial i, with the ascending estimates as a tuple of floats
    (None if the trial failed) and failure its cause from FAILURE_CAUSES."""

    value: float
    rmse: object            # float, or None when every trial failed
    success_count: int
    trial_count: int
    trials: tuple


def _with_axis_value(scenario, axis, value):
    if axis not in SWEEP_AXES:
        raise ValueError(f"unknown sweep axis {axis!r}; choose from {SWEEP_AXES}")
    if axis != "coupling_c1_mag":
        return replace(scenario, **{axis: value})
    model = scenario.coupling or CouplingModel(phase_mode="random")
    return replace(scenario, coupling=replace(model, c1_magnitude=value))


def run_sweep(base, axis, grid, workers=1):
    """Monte-Carlo sweep of one scenario parameter; returns one SweepPoint
    per grid value, in grid order.

    Runs base.trials independent trials per grid value; each trial's RNG
    stream derives from (base.seed, value, trial index), so the result does
    not depend on worker count or scheduling. Per-point RMSE averages the
    per-trial root-mean-square direction errors over successful trials
    (None if all failed); truth and estimates pair by sorted order. Every
    grid value is validated before the first trial runs.

    The whole grid's trials run on one pool of min(workers, cores) threads;
    a trial that raises, or an interrupt, cancels those not yet started.
    Each point keeps its trials' outcomes in trial order.
    """
    if not len(grid):
        raise ValueError("sweep grid must be non-empty")
    values = [float(value) for value in grid]
    scenarios = [_with_axis_value(base, axis, value) for value in values]
    n = base.trials
    jobs = [(sc, trial_seed(base.seed, value, i))
            for value, sc in zip(values, scenarios) for i in range(n)]
    with ThreadPoolExecutor(max_workers=min(workers, os.cpu_count() or 1)) as pool:
        # drained inside the pool, so map's cancel runs before shutdown waits
        outcomes = list(pool.map(run_trial, *zip(*jobs)))
    points = []
    for p, (value, sc) in enumerate(zip(values, scenarios)):
        results = outcomes[p * n:(p + 1) * n]
        truth = np.sort(np.asarray(sc.thetas))
        errs = [math.sqrt(float(np.mean((est - truth) ** 2)))
                for est, _ in results if est is not None]
        rmse = float(np.mean(errs)) if errs else None
        trials = tuple((None if est is None else tuple(est.tolist()), failure)
                       for est, failure in results)
        points.append(SweepPoint(value, rmse, len(errs), n, trials))
    return tuple(points)
