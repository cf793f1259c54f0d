import itertools
import math
import time
from dataclasses import replace

import numpy as np
import pytest

from fracarray import (
    FAILURE_CAUSES,
    CouplingModel,
    EstimationFailure,
    IdentifiabilityError,
    Scenario,
    SensorArray,
    coarray_music,
    coarray_statistics,
    difference_coarray,
    equally_spaced_thetas,
    expand,
    nested,
    run_sweep,
    run_trial,
    synthesize,
    trial_seed,
)
from fracarray import doa
from fracarray.doa import _music_denominator, _peak_directions, _real_form, _signal_subspace
from conftest import (
    S_ELEMS,
    centro_unitary,
    oracle_coarray_statistics,
    oracle_music_denominator,
    oracle_noise_denominator,
    oracle_noise_subspace,
    oracle_synthesize,
)


def _faults_scenario(**kw):
    # the benchmark's failure sweep: (0,1,4,6)^2 (m = 84 intact), ten
    # sources and random-phase coupling, so m differs from trial to trial
    base = dict(array=expand(SensorArray((0, 1, 4, 6)), 2),
                thetas=equally_spaced_thetas(10), failure_probability=0.1,
                coupling=CouplingModel(q=15, c1_magnitude=0.3, phase_mode="random"),
                trials=4)
    base.update(kw)
    return Scenario(**base)


def _virtual(sc, seed):
    surviving, x = synthesize(sc, np.random.default_rng(seed))
    return coarray_statistics(x, surviving)


def _scenario(**kw):
    base = dict(array=SensorArray((0, 1, 4, 6)), thetas=(0.1, -0.2), snapshots=200,
                trials=4, grid_size=2048)
    base.update(kw)
    return Scenario(**base)


def test_scenario_validation():
    with pytest.raises(ValueError):
        _scenario(thetas=())
    with pytest.raises(ValueError):
        _scenario(thetas=(0.1, 0.1))
    with pytest.raises(ValueError):
        _scenario(thetas=(0.7,))
    with pytest.raises(ValueError):
        _scenario(powers=(1.0,))
    with pytest.raises(ValueError):
        _scenario(powers=(1.0, -1.0))
    with pytest.raises(ValueError):
        _scenario(failure_probability=1.0)
    with pytest.raises(ValueError):
        _scenario(trials=0)
    with pytest.raises(ValueError):
        _scenario(snapshots=0)
    with pytest.raises(ValueError):
        _scenario(grid_size=2)


@pytest.mark.parametrize("power", [math.nan, math.inf, 0.0, -1.0])
def test_scenario_rejects_a_power_that_is_not_positive_and_finite(power):
    with pytest.raises(ValueError,
                       match=f"^source powers must be positive and finite, got {power}$"):
        _scenario(powers=(1.0, power))


@pytest.mark.parametrize("snr", [math.nan, -math.inf])
def test_scenario_rejects_nan_and_minus_inf_snr(monkeypatch, snr):
    with pytest.raises(ValueError, match="SNR must be finite"):
        _scenario(snr_db=snr)
    seen = []
    monkeypatch.setattr(doa, "run_trial", lambda *job: seen.append(job))
    with pytest.raises(ValueError, match="SNR must be finite"):
        run_sweep(_scenario(), "snr_db", [0.0, snr])
    assert seen == []  # the grid is validated before the first trial


def test_infinite_snr_is_noiseless():
    point = run_sweep(_scenario(trials=2), "snr_db", [math.inf])[0]
    assert point.value == math.inf and point.success_count == 2


def test_noise_power_mapping():
    assert _scenario(snr_db=0.0).noise_power == 1.0
    assert _scenario(snr_db=-10.0).noise_power == pytest.approx(10.0)
    assert _scenario(snr_db=20.0).noise_power == pytest.approx(0.01)
    assert _scenario(snr_db=math.inf).noise_power == 0.0


def test_equally_spaced_thetas():
    th = equally_spaced_thetas(20)
    assert len(th) == len(set(th)) == 20
    assert th[0] == pytest.approx(-0.45)
    assert th[-1] == pytest.approx(0.45)
    assert equally_spaced_thetas(1) == (0.0,)
    with pytest.raises(ValueError):
        equally_spaced_thetas(0)
    # numpy's linspace raised IndexError on a count from 2^63 on
    for k in (2 ** 63, 10 ** 20):
        with pytest.raises(ValueError, match="does not fit a 64-bit integer"):
            equally_spaced_thetas(k)


def test_synthesize_shapes_and_determinism():
    sc = _scenario()
    arr1, x1 = synthesize(sc, np.random.default_rng(5))
    arr2, x2 = synthesize(sc, np.random.default_rng(5))
    assert arr1.elements == sc.array.elements  # no failures configured
    assert x1.shape == (4, 200)
    assert np.array_equal(x1, x2)
    _, x3 = synthesize(sc, np.random.default_rng(6))
    assert not np.array_equal(x1, x3)


def test_synthesize_broadside_noiseless_is_rank_one():
    sc = _scenario(thetas=(0.0,), snr_db=math.inf)
    _, x = synthesize(sc, np.random.default_rng(0))
    # steering at broadside is all ones, so every sensor sees the same signal
    assert np.allclose(x, x[0:1, :])


def test_synthesize_zero_coupling_matches_no_coupling():
    sc_none = _scenario(snr_db=math.inf)
    sc_zero = _scenario(snr_db=math.inf, coupling=CouplingModel(c1_magnitude=0.0))
    _, a = synthesize(sc_none, np.random.default_rng(9))
    _, b = synthesize(sc_zero, np.random.default_rng(9))
    assert np.allclose(a, b)


@pytest.mark.parametrize("kw", [
    dict(),
    dict(snr_db=math.inf),
    dict(failure_probability=0.2),
    dict(coupling=CouplingModel(phase_mode="random")),
    dict(coupling=CouplingModel(), snr_db=-10.0, failure_probability=0.1),
    dict(coupling=CouplingModel(phase_mode="random"), snr_db=math.inf, failure_probability=0.3),
])
def test_synthesis_and_statistics_equal_the_two_draw_add_at_formulas(kw):
    # with and without failures, coupling and noise: the same surviving
    # arrays, snapshots and lag averages, and the same stream left behind
    sc = _scenario(array=expand(SensorArray((0, 1, 4, 6)), 2),
                   thetas=equally_spaced_thetas(10), snapshots=300, **kw)
    for seed in range(12):
        rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        surviving, x = synthesize(sc, rng)
        want_surviving, want_x = oracle_synthesize(sc, oracle_rng)
        assert surviving == want_surviving
        assert np.array_equal(x, want_x)
        assert np.array_equal(coarray_statistics(x, surviving),
                              oracle_coarray_statistics(x, surviving))
        assert rng.random() == oracle_rng.random()


def test_coarray_statistics_matches_per_lag_average():
    arr = SensorArray((0, 1, 4, 6))
    rng = np.random.default_rng(3)
    x = rng.standard_normal((4, 50)) + 1j * rng.standard_normal((4, 50))
    v = coarray_statistics(x, arr)
    R = x @ x.conj().T / 50
    pos = arr.elements
    m = difference_coarray(arr).central_ula_halfwidth
    assert v.shape == (2 * m + 1,)
    for lag in range(-m, m + 1):
        cells = [R[i, j] for i in range(4) for j in range(4) if pos[i] - pos[j] == lag]
        assert cells, "central run must be covered"
        assert v[lag + m] == pytest.approx(np.mean(cells), abs=1e-12)
    assert v[m].imag == pytest.approx(0.0, abs=1e-12)
    assert v[m].real > 0  # lag zero is a mean power


def test_coarray_statistics_duplicate_count_is_weight():
    arr = SensorArray(S_ELEMS)
    prof = difference_coarray(arr)
    # every lag inside the central run averages exactly w(m) covariance cells
    pos = np.asarray(arr.elements)
    lag = pos[:, None] - pos[None, :]
    m = prof.central_ula_halfwidth
    for d in range(-m, m + 1):
        assert int((lag == d).sum()) == prof.counts[abs(d)]


def test_coarray_statistics_rejects_shape_mismatch():
    with pytest.raises(ValueError):
        coarray_statistics(np.zeros((3, 10), dtype=complex), SensorArray((0, 1, 4, 6)))


def test_noiseless_virtual_vector_has_exact_phase_ramp():
    theta = 0.1234567
    sc = _scenario(thetas=(theta,), snr_db=math.inf)
    surviving, x = synthesize(sc, np.random.default_rng(11))
    v = coarray_statistics(x, surviving)
    m = (v.size - 1) // 2
    ramp = v / v[m]
    want = np.exp(2j * np.pi * theta * np.arange(-m, m + 1))
    assert np.allclose(ramp, want, atol=1e-10)


def test_virtual_vector_converges_to_closed_form():
    # many snapshots: lag-m entry approaches sum_k p_k e^{j2 pi theta_k m},
    # plus the noise power at lag zero
    sc = _scenario(thetas=(0.3, -0.25), powers=(1.0, 2.0), snapshots=100_000,
                   snr_db=0.0)
    surviving, x = synthesize(sc, np.random.default_rng(2))
    v = coarray_statistics(x, surviving)
    m = (v.size - 1) // 2
    lags = np.arange(-m, m + 1)
    want = (1.0 * np.exp(2j * np.pi * 0.3 * lags)
            + 2.0 * np.exp(2j * np.pi * -0.25 * lags))
    want[m] += sc.noise_power
    assert np.max(np.abs(v - want)) < 0.05


def test_music_recovers_grid_aligned_sources_exactly():
    grid_size = 2048
    thetas = np.array([-0.25, 0.0, 0.125])  # all multiples of 1/2048
    m = 6
    lags = np.arange(-m, m + 1)
    v = np.exp(2j * np.pi * np.outer(lags, thetas)).sum(axis=1)
    est = coarray_music(v, 3, grid_size)
    assert np.allclose(est, np.sort(thetas), atol=1e-12)


@pytest.mark.parametrize("seed", range(50))
def test_noiseless_single_source_within_one_cell(seed):
    rng = np.random.default_rng(700 + seed)
    theta = float(rng.uniform(-0.5, 0.5))
    sc = _scenario(thetas=(theta,), snr_db=math.inf, grid_size=4096)
    surviving, x = synthesize(sc, np.random.default_rng(seed))
    est = coarray_music(coarray_statistics(x, surviving), 1, 4096)
    assert abs(est[0] - theta) <= 1 / 4096


def test_music_identifiability_limit():
    v = np.ones(5, dtype=complex)  # m = 2 -> at most 2 sources
    with pytest.raises(IdentifiabilityError):
        coarray_music(v, 3)
    with pytest.raises(ValueError):
        coarray_music(np.ones(4, dtype=complex), 1)  # even length is malformed


@pytest.mark.parametrize("grid_size", [4096, 4095, 64, 101])
def test_music_denominator_matches_steering_product(grid_size):
    # even and odd grids; 64 and 101 are below 2m + 1, so lags alias. The
    # library takes the signal vectors of the real form, the oracles the
    # noise vectors of the complex covariance.
    sc = _faults_scenario()
    virtuals = [_virtual(sc, trial_seed(0, 0.1, i)) for i in range(6)]
    virtuals.append(_virtual(replace(sc, failure_probability=0.0), 1))
    virtuals.append(_virtual(replace(sc, array=SensorArray(S_ELEMS)), 1))
    halfwidths = set()
    for v in virtuals:
        m = (v.size - 1) // 2
        halfwidths.add(m)
        for k in (1, min(10, m)):
            signal = _signal_subspace(v, k)
            assert signal.shape == (m + 1, k)
            noise = oracle_noise_subspace(v, k)
            den = _music_denominator(signal, grid_size)
            for oracle in (oracle_music_denominator, oracle_noise_denominator):
                assert np.abs(den - oracle(noise, grid_size)).max() <= 1e-12 * (m + 1)
    assert len(halfwidths) > 2 and 2 * max(halfwidths) + 1 > 101


def _outcome(estimate):
    # the estimates, or the class of the failure that stopped them
    try:
        return estimate()
    except (IdentifiabilityError, EstimationFailure) as exc:
        return type(exc)


def test_music_estimates_match_oracle_spectrum():
    # faulty, coupled trials at the default grid: the library estimates
    # equal the steering-product spectrum through the same peak pick
    sc = _faults_scenario(failure_probability=0.05)
    compared = peaks_failed = 0
    for i in range(20):
        v = _virtual(sc, trial_seed(0, 0.05, i))
        try:
            noise = oracle_noise_subspace(v, 10)
        except IdentifiabilityError:
            with pytest.raises(IdentifiabilityError):
                coarray_music(v, 10, sc.grid_size)
            continue
        compared += 1
        den = oracle_music_denominator(noise, sc.grid_size)
        try:
            want = _peak_directions(den, 10)
        except EstimationFailure:
            peaks_failed += 1
            with pytest.raises(EstimationFailure):
                coarray_music(v, 10, sc.grid_size)
            continue
        assert np.array_equal(coarray_music(v, 10, sc.grid_size), want)
    assert compared >= 15 and peaks_failed >= 1


_SNRS = (math.inf, 40.0, 20.0, 0.0, -10.0)


@pytest.mark.parametrize("order, sources, trials, snr_db",
                         [(1, 3, 12, s) for s in _SNRS] + [(2, 10, 8, s) for s in _SNRS]
                         + [(3, 100, 2, 0.0)])
def test_music_estimates_match_oracle_at_orders_and_snrs(order, sources, trials, snr_db):
    # faulty, coupled trials on (0,1,4,6)^order. At order 3 the first trial
    # loses sensors and the second keeps all 64, the 100-source case of
    # m = 1,098.
    sc = _faults_scenario(array=expand(SensorArray((0, 1, 4, 6)), order),
                          thetas=equally_spaced_thetas(sources), snr_db=snr_db,
                          failure_probability={1: 0.1, 2: 0.05, 3: 0.01}[order])
    halfwidths = []
    successes = 0
    for i in range(trials):
        v = _virtual(sc, trial_seed(0, snr_db, i))
        halfwidths.append((v.size - 1) // 2)
        want = _outcome(lambda: _peak_directions(oracle_noise_denominator(
            oracle_noise_subspace(v, sources), sc.grid_size), sources))
        got = _outcome(lambda: coarray_music(v, sources, sc.grid_size))
        if isinstance(want, type):
            assert got is want
        else:
            assert np.array_equal(got, want)
            successes += 1
    assert successes >= trials // 2
    full = difference_coarray(sc.array).central_ula_halfwidth
    assert max(halfwidths) == full and min(halfwidths) < full


@pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 8, 85, 86])
def test_real_form_is_the_unitary_transform_of_the_smoothing_matrix(n):
    # z_0 real and z_{-d} = conj(z_d): Z is Hermitian Toeplitz, Q^H Z Q is real
    rng = np.random.default_rng(n)
    lags = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    lags[0] = lags[0].real
    m = n - 1
    v = np.concatenate([lags[:0:-1].conj(), lags])
    idx = np.arange(n)
    Z = v[m + idx[:, None] - idx[None, :]]
    Q = centro_unitary(n)
    assert np.allclose(Q.conj().T @ Q, np.eye(n), rtol=0, atol=1e-15)
    dense = Q.conj().T @ Z @ Q
    T = _real_form(lags)
    assert np.array_equal(T, T.T)
    assert np.abs(dense.imag).max() <= 1e-14 * n
    assert np.abs(T - dense.real).max() <= 1e-14 * n
    # the signal vectors span Z's eigenvectors of largest |eigenvalue|
    vals, vecs = np.linalg.eigh(Z)
    for k in range(1, n):
        want = vecs[:, np.argsort(np.abs(vals))[n - k:]]
        got = _signal_subspace(v, k)
        assert np.allclose(got.conj().T @ got, np.eye(k), rtol=0, atol=1e-12)
        assert np.allclose(got @ got.conj().T, want @ want.conj().T, rtol=0, atol=1e-10)


def test_smoothed_covariance_is_positive_semidefinite():
    sc = _scenario(snr_db=0.0)
    surviving, x = synthesize(sc, np.random.default_rng(21))
    v = coarray_statistics(x, surviving)
    m = (v.size - 1) // 2
    idx = np.arange(m + 1)
    Z = v[m + idx[:, None] - idx[None, :]]
    R = (Z @ Z.conj().T) / (m + 1)
    ev = np.linalg.eigvalsh(R)
    assert ev.min() >= -1e-10 * max(ev.max(), 1.0)


def test_run_trial_none_when_sources_exceed_identifiability():
    sc = Scenario(array=nested(4, 4), thetas=equally_spaced_thetas(20),
                  snapshots=100, trials=1, grid_size=2048)
    # central run halfwidth 19 gives a 20-sensor smoothed subarray: 20 sources
    # is one too many
    assert run_trial(sc, 0) == (None, "identifiability")


def test_run_trial_none_when_every_sensor_fails():
    sc = Scenario(array=SensorArray((0, 1)), thetas=(0.1,), snapshots=20,
                  trials=1, failure_probability=0.97, grid_size=512)
    outcomes = {run_trial(sc, s)[0] is None for s in range(60)}
    assert True in outcomes  # some seed kills both sensors
    with pytest.raises(EstimationFailure):
        for s in range(60):
            rng = np.random.default_rng(s)
            synthesize(sc, rng)


def test_trial_seed_is_order_free_and_distinct():
    a = np.random.default_rng(trial_seed(7, 0.25, 3)).integers(0, 1 << 30, 8)
    b = np.random.default_rng(trial_seed(7, 0.25, 3)).integers(0, 1 << 30, 8)
    c = np.random.default_rng(trial_seed(7, 0.25, 4)).integers(0, 1 << 30, 8)
    d = np.random.default_rng(trial_seed(7, 0.5, 3)).integers(0, 1 << 30, 8)
    e = np.random.default_rng(trial_seed(8, 0.25, 3)).integers(0, 1 << 30, 8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)
    assert not np.array_equal(a, e)


def test_run_trial_builds_one_coarray_per_trial(coarray_builds):
    # the surviving array's coarray serves the identifiability test and the
    # lag statistics; the scenario's own array gets none
    sc = _faults_scenario()
    causes = set()
    for i in range(12):
        coarray_builds.clear()
        _, cause = run_trial(sc, trial_seed(0, 0.1, i))
        causes.add(cause)
        assert len(coarray_builds) == (cause != "all_dead")
        assert all(a is not sc.array for a in coarray_builds)
    assert None in causes


def test_run_trial_deterministic():
    sc = _scenario()
    a = run_trial(sc, trial_seed(0, 0.0, 0))[0]
    b = run_trial(sc, trial_seed(0, 0.0, 0))[0]
    assert a is not None and np.array_equal(a, b)


def test_sweep_points_and_determinism():
    sc = _scenario(trials=5)
    res1 = run_sweep(sc, "snr_db", [-10.0, 20.0])
    res2 = run_sweep(sc, "snr_db", [-10.0, 20.0])
    assert [p.value for p in res1] == [-10.0, 20.0]
    for p1, p2 in zip(res1, res2):
        assert p1.trial_count == 5
        assert p1.success_count == p2.success_count
        assert p1.rmse == p2.rmse  # bit-identical reruns
        assert 0 <= p1.success_count <= p1.trial_count


def test_sweep_clean_conditions_all_trials_succeed():
    # no failures, no coupling, generous SNR: every trial must resolve
    sc = _scenario(trials=5, snr_db=20.0)
    point = run_sweep(sc, "failure_probability", [0.0])[0]
    assert point.success_count == point.trial_count == 5
    assert point.rmse is not None and point.rmse >= 0.0


def test_sweep_worker_count_does_not_change_results():
    sc = _scenario(trials=6)
    serial = run_sweep(sc, "snr_db", [0.0])
    threaded = run_sweep(sc, "snr_db", [0.0], workers=3)
    assert serial[0].rmse == threaded[0].rmse
    assert serial[0].success_count == threaded[0].success_count


@pytest.mark.parametrize("cores, threads", [(2, 2), (None, 1)])
def test_sweep_threads_never_exceed_the_cores(monkeypatch, cores, threads):
    asked = []

    class Spy(doa.ThreadPoolExecutor):
        def __init__(self, max_workers):
            asked.append(max_workers)
            super().__init__(max_workers=max_workers)

    monkeypatch.setattr(doa, "ThreadPoolExecutor", Spy)
    monkeypatch.setattr(doa.os, "cpu_count", lambda: cores)
    point, = run_sweep(_scenario(trials=3), "snr_db", [0.0], workers=10_000)
    assert asked == [threads] and point.trial_count == 3


def test_a_failing_trial_stops_the_sweep(monkeypatch):
    calls = itertools.count()  # next() on it is atomic across threads

    def trial(scenario, seed):
        if next(calls) == 0:
            raise RuntimeError("trial failed")
        time.sleep(0.01)
        return None, "peaks"

    monkeypatch.setattr(doa, "run_trial", trial)
    with pytest.raises(RuntimeError, match="trial failed"):
        run_sweep(_scenario(trials=200), "snr_db", [0.0], workers=2)
    # the trials not yet started were cancelled, not run
    assert next(calls) < 20


def test_sweep_worker_count_does_not_change_ragged_results():
    # failure axis with random-phase coupling: every trial has its own
    # surviving array, so m (and the MUSIC problem size) varies per trial
    sc = _faults_scenario(trials=5, grid_size=2048)
    serial = run_sweep(sc, "failure_probability", [0.1, 0.3], workers=1)
    threaded = run_sweep(sc, "failure_probability", [0.1, 0.3], workers=3)
    assert serial == threaded  # trials included
    sizes = {_virtual(replace(sc, failure_probability=p), trial_seed(0, p, i)).size
             for p in (0.1, 0.3) for i in range(5)}
    assert len(sizes) > 2


def _replayed_cause(sc, seed):
    # stage by stage, as a user would diagnose one trial
    rng = np.random.default_rng(seed)
    try:
        surviving, x = synthesize(sc, rng)
    except EstimationFailure:
        return "all_dead"
    try:
        coarray_music(coarray_statistics(x, surviving), len(sc.thetas), sc.grid_size)
    except IdentifiabilityError:
        return "identifiability"
    except EstimationFailure:
        return "peaks"
    return None


@pytest.mark.parametrize("sc, grid, seen_causes", [
    (_faults_scenario(trials=6, seed=1), [0.0, 0.05, 0.1, 0.2], {"identifiability", "peaks"}),
    # a lone survivor leaves m = 0, too few lags for one source
    (Scenario(array=SensorArray((0, 1)), thetas=(0.1,), snapshots=20, trials=30,
              grid_size=512), [0.9], {"all_dead", "identifiability"}),
])
def test_sweep_counts_failures_by_cause(sc, grid, seen_causes):
    res = run_sweep(sc, "failure_probability", grid, workers=2)
    found = set()
    for point in res:
        causes = [_replayed_cause(replace(sc, failure_probability=point.value),
                                  trial_seed(sc.seed, point.value, i))
                  for i in range(sc.trials)]
        assert [f for _, f in point.trials] == causes
        assert set(causes) <= {None, *FAILURE_CAUSES}
        assert point.success_count == causes.count(None)
        assert all((est is None) == (f is not None) for est, f in point.trials)
        found.update(causes)
    assert found - {None} == seen_causes


def test_an_unidentifiable_survivor_set_draws_no_snapshots(monkeypatch):
    # the failures are drawn first; a lone survivor (m = 0) fails before any
    # phase, amplitude or noise draw
    sc = Scenario(array=SensorArray((0, 1)), thetas=(0.1,), snapshots=20, trials=30,
                  grid_size=512, failure_probability=0.5)
    snapshots, drawn = doa._snapshots, []
    monkeypatch.setattr(doa, "_snapshots", lambda *args: drawn.append(args) or snapshots(*args))
    causes = [run_trial(sc, trial_seed(sc.seed, 0.5, i))[1] for i in range(sc.trials)]
    assert {"identifiability", "all_dead", None} <= set(causes)
    assert len(drawn) == sum(cause not in ("identifiability", "all_dead") for cause in causes)
    assert causes == [_replayed_cause(sc, trial_seed(sc.seed, 0.5, i)) for i in range(sc.trials)]


def test_sweep_rmse_averages_only_successful_trials():
    # heavy coupling makes some trials fail; the reported rmse must equal the
    # mean of per-trial rms errors recomputed over the surviving trials only
    sc = Scenario(array=SensorArray(S_ELEMS), thetas=equally_spaced_thetas(20),
                  snapshots=400, trials=6, seed=3, grid_size=4096)
    value = 0.5
    point = run_sweep(sc, "coupling_c1_mag", [value])[0]
    assert 0 < point.success_count < point.trial_count, "need a mixed outcome"

    probe = Scenario(array=sc.array, thetas=sc.thetas, snapshots=sc.snapshots,
                     trials=sc.trials, seed=sc.seed, grid_size=sc.grid_size,
                     coupling=CouplingModel(q=15, c1_magnitude=value,
                                            phase_mode="random"))
    truth = np.sort(np.asarray(sc.thetas))
    errs = []
    for i in range(sc.trials):
        est = run_trial(probe, trial_seed(sc.seed, value, i))[0]
        if est is not None:
            errs.append(math.sqrt(float(np.mean((est - truth) ** 2))))
    assert len(errs) == point.success_count
    assert point.rmse == float(np.mean(errs))


def test_sweep_points_keep_their_trials_in_order():
    sc = _scenario(trials=3)
    points = run_sweep(sc, "snr_db", [0.0, 10.0])
    assert [p.value for p in points] == [0.0, 10.0]
    for point in points:
        assert len(point.trials) == point.trial_count == 3
        for i, trial in enumerate(point.trials):
            est, failure = run_trial(replace(sc, snr_db=point.value),
                                     trial_seed(sc.seed, point.value, i))
            assert trial == (None if est is None else tuple(est.tolist()), failure)
        assert point.success_count > 0  # estimates are compared, not only causes


def test_sweep_axis_validation():
    sc = _scenario()
    with pytest.raises(ValueError):
        run_sweep(sc, "bandwidth", [1.0])
    # a Scenario field that is not a sweep axis
    with pytest.raises(ValueError, match="unknown sweep axis 'trials'"):
        run_sweep(sc, "trials", [2.0])
    with pytest.raises(ValueError):
        run_sweep(sc, "snr_db", [])


def test_sweep_failure_axis_reports_none_rmse_when_hopeless():
    sc = Scenario(array=nested(4, 4), thetas=equally_spaced_thetas(20),
                  snapshots=50, trials=3, grid_size=1024)
    point = run_sweep(sc, "failure_probability", [0.0])[0]
    assert point.rmse is None
    assert point.success_count == 0
