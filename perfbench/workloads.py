"""The benchmark's workloads.

Each workload runs one pass of ordinary CLI calls (fracarray.cli.main with
the argv a user would type, files in a scratch directory), checks what the
calls produced, and can replay the same work through the layers' public
functions under a tracer. Why each workload exists is in README.md.

Only the DOA workloads draw anything at random, and only through the
seed the benchmark is given, passed to `simulate --seed`.
"""

import contextlib
import io
import json
import math
import os
import sys
import time
import traceback
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from fracarray import cli
from fracarray.analysis import beampattern, economy, fractal_weight, product_beampattern
from fracarray.baselines import BaselineSpec, build_baseline
from fracarray.core import SensorArray, difference_coarray, dump_array, load_array
from fracarray.coupling import CouplingModel, leakage_from_profile, verify_leakage_preservation
from fracarray.doa import (EstimationFailure, IdentifiabilityError, Scenario, coarray_music,
                           coarray_statistics, equally_spaced_thetas, synthesize, trial_seed)
from fracarray.fractal import expand
from fracarray.search import DesignConstraints, check_constraints, solve_p1

from tracer import NullTracer

S = (0, 1, 2, 4, 7, 10, 13, 16, 18, 19, 20)    # symmetric minimum over aperture 20
G = (0, 1, 3, 5, 11, 13, 17, 18, 19, 20)       # unconstrained minimum over aperture 20

# the coupling model the CLI builds from its default flags
CLI_COUPLING = dict(q=15, c1_magnitude=0.3, c1_phase=math.pi / 3, phase_mode="fixed", seed=0)


@dataclass
class Step:
    """One benchmark operation: a CLI call or a library call."""

    label: str
    out: str = ""
    value: object = None
    ok: bool = True


class Runner:
    """Executes steps and counts attempted ones, failed ones and checks.

    A step fails when it raises, exits with an unexpected code or fails an
    output check; each failed step counts once.

    Every step's time goes to `timings`. With a calibrate function (seconds
    a fixed kernel takes now), the kernel is timed at the start of a pass
    and after every step, and each step's time is kept with the kernel
    times on either side of it, so that the step can be rescaled to a
    reference host speed; without one, those two are None.
    """

    def __init__(self, tracer=None, calibrate=None):
        self.tracer = tracer or NullTracer()
        self.calibrate = calibrate
        self.timings = []   # (step seconds, kernel seconds before, after) in this pass
        self._kernel_s = None
        self.attempted = 0
        self.failed = 0
        self.checks = 0

    def start_pass(self):
        self.timings = []
        if self.calibrate:
            self._kernel_s = self.calibrate()

    @contextlib.contextmanager
    def _timed(self):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - t0
            before = self._kernel_s
            if self.calibrate:
                self._kernel_s = self.calibrate()
            self.timings.append((elapsed, before, self._kernel_s))

    def _fail(self, step, message):
        if step.ok:
            self.failed += 1
            step.ok = False
        print(f"FAIL {step.label}: {message}", file=sys.stderr)

    def cli(self, argv, expect=0):
        step = Step("cli " + " ".join(argv))
        self.attempted += 1
        out, err = io.StringIO(), io.StringIO()
        with self._timed(), self.tracer.span("cli." + argv[0]):
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    rc = cli.main(argv)
            except SystemExit as exc:
                rc = exc.code
            except Exception:
                rc = "raised"
                err.write(traceback.format_exc())
        step.out = out.getvalue()
        if rc != expect:
            self._fail(step, f"exit {rc!r}, expected {expect}: {err.getvalue()[-2000:]}")
        return step

    def call(self, name, fn, *args):
        step = Step(name)
        self.attempted += 1
        with self._timed(), self.tracer.span(name):
            try:
                step.value = fn(*args)
            except Exception:
                self._fail(step, traceback.format_exc())
        return step

    def check(self, step, cond, message):
        self.checks += 1
        if not cond:
            self._fail(step, message)


# design_search

@dataclass(frozen=True)
class Query:
    aperture: int
    symmetric: bool = False
    max_leakage: float | None = None
    write_json: bool = False
    size: int | None = None         # None: infeasible, the CLI must exit 1
    count: int = 0
    includes: tuple = ()

    def argv(self, work):
        argv = ["search", "--max-aperture", str(self.aperture)]
        if self.symmetric:
            argv.append("--symmetric")
        if self.max_leakage is not None:
            argv += ["--max-leakage", str(self.max_leakage)]
        if self.size is not None:
            argv.append("--all-solutions")
        if self.write_json:
            argv += ["--json", os.path.join(work, "search.json")]
        return argv

    def constraints(self):
        return DesignConstraints(
            max_aperture=self.aperture, require_symmetric=self.symmetric,
            max_fragility=Fraction("3/10"),
            max_leakage=1 / 3 if self.max_leakage is None else self.max_leakage,
            coupling=CouplingModel(**CLI_COUPLING))


class DesignSearch:
    name = "design_search"
    seeded = False
    calibrated = True

    def __init__(self, tiny):
        if tiny:
            self.queries = (
                Query(20, symmetric=True, size=11, count=1, includes=(S,)),
                Query(14, size=9, count=10, includes=((0, 1, 2, 3, 6, 9, 11, 13, 14),)),
                Query(14, write_json=True, size=9, count=10),
                Query(10, max_leakage=0.25),
            )
        else:
            self.queries = (
                Query(20, symmetric=True, size=11, count=1, includes=(S,)),
                Query(20, size=10, count=2, includes=(G,)),
                Query(22, write_json=True, size=11, count=156),
                Query(18, max_leakage=0.25),
            )

    def prepare(self, work):
        pass

    def final_check(self, run, work, seed):
        pass

    def outcome(self, result):
        return None

    def cli_pass(self, run, work, seed):
        return [(q, run.cli(q.argv(work), expect=0 if q.size else 1)) for q in self.queries]

    @staticmethod
    def _solutions(q, step, work):
        if q.write_json:
            with open(os.path.join(work, "search.json")) as fh:
                return [tuple(s) for s in json.load(fh)["optimum"]]
        return [tuple(int(e) for e in line.split()) for line in step.out.splitlines()
                if line.startswith("  ") and not line.startswith("  ...")]

    def check(self, run, work, seed, result):
        for q, step in result:
            if not step.ok:
                continue
            if q.size is None:
                run.check(step, "no feasible array" in step.out, "infeasible query found an array")
                continue
            sols = self._solutions(q, step, work)
            run.check(step, len(sols) == q.count and all(len(s) == q.size for s in sols),
                      f"expected {q.count} optima of size {q.size}, got {len(sols)}")
            for arr in q.includes:
                run.check(step, arr in sols, f"optimum {arr} missing")
            cons = q.constraints()
            run.check(step, all(check_constraints(SensorArray(s), cons).feasible for s in sols),
                      "an optimum fails check_constraints")

    def replay(self, run, tracer, work, seed, result):
        for q, step in result:
            with tracer.span("search.solve_p1"):
                res = solve_p1(q.constraints())
            tracer.count("search.explored", res.explored)
            tracer.count("search.pruned", res.pruned)
            tracer.count("search.solutions", len(res.optimum))
            if q.size is not None and step.ok:
                run.check(step, [a.elements for a in res.optimum] == self._solutions(q, step, work),
                          "solve_p1 disagrees with the CLI")


# expansion_analysis

GENERATORS = {"g": ((0, 1, 4, 6), "(0,1,4,6)"), "mra5": ((0, 1, 2, 6, 9), "MRA(5)")}
COMPARE_METRICS = "n,aperture,dof,ula,hole_free,symmetric,fragility,economy,c1,leakage"
BASELINES = (("ula", (11,)), ("nested", (4, 4)), ("coprime", (3, 4)))
# couples only separations below max(G) and well inside the central ULA of
# both generators, so the leakage-preservation hypotheses hold
LAW_COUPLING = CouplingModel(q=5, c1_magnitude=0.3)


class ExpansionAnalysis:
    name = "expansion_analysis"
    seeded = False
    calibrated = True

    def __init__(self, tiny):
        lo = 2 if tiny else 4
        self.expansions = (("g", lo), ("g", lo + 1), ("mra5", lo))
        self.samples = 64 if tiny else 1024

    def prepare(self, work):
        for key, (elems, name) in GENERATORS.items():
            dump_array(SensorArray(elems, name=name), os.path.join(work, key + ".json"))

    def final_check(self, run, work, seed):
        pass

    def outcome(self, result):
        return None

    @staticmethod
    def _file(work, key, r, suffix=".json"):
        return os.path.join(work, f"{key}_{r}{suffix}")

    def _omegas(self):
        return np.linspace(-math.pi, math.pi, self.samples)

    def cli_pass(self, run, work, seed):
        out = {"expand": [], "analyze": []}
        for key, r in self.expansions:
            out["expand"].append(run.cli(["expand", os.path.join(work, key + ".json"),
                                          "--order", str(r), "--out", self._file(work, key, r)]))
        for key, r in self.expansions:
            out["analyze"].append(run.cli(["analyze", self._file(work, key, r), "--json",
                                           self._file(work, key, r, ".report.json")]))
        key, r = self.expansions[0]
        out["beampattern"] = run.cli(["analyze", self._file(work, key, r), "--beampattern",
                                      self._file(work, key, r, ".bp.csv"),
                                      "--samples", str(self.samples)])
        order_lo = [self._file(work, k, q) for k, q in self.expansions if q == r]
        out["compare"] = run.cli([
            "compare", "--arrays", ",".join(order_lo),
            "--baselines", ";".join(f"{k}:{','.join(map(str, p))}" for k, p in BASELINES),
            "--metrics", COMPARE_METRICS, "--json", os.path.join(work, "compare.json")])
        gens = {k: SensorArray(e, name=n) for k, (e, n) in GENERATORS.items()}
        out["fractal_weight"] = [run.call("analysis.fractal_weight", fractal_weight, gens[k], q)
                                 for k, q in self.expansions]
        out["product_beampattern"] = run.call("analysis.product_beampattern", product_beampattern,
                                              gens[key], r, self._omegas())
        out["leakage"] = [run.call("coupling.verify_leakage_preservation",
                                   verify_leakage_preservation, gens[k], LAW_COUPLING, q)
                          for k, q in self.expansions]
        return out

    def check(self, run, work, seed, out):
        gens = {k: SensorArray(e) for k, (e, _) in GENERATORS.items()}
        ula_size = {k: 2 * difference_coarray(g).central_ula_halfwidth + 1 for k, g in gens.items()}
        for (key, r), exp_step, an_step, fw_step, lk_step in zip(
                self.expansions, out["expand"], out["analyze"], out["fractal_weight"],
                out["leakage"]):
            if not (exp_step.ok and an_step.ok):
                continue
            with open(self._file(work, key, r, ".report.json")) as fh:
                rep = json.load(fh)
            lags = ula_size[key] ** r
            run.check(an_step, rep["hole_free"] and rep["dof"] == lags,
                      f"{key}^{r}: expected a hole-free coarray of {lags} lags, got {rep['dof']}")
            frag = Fraction(rep["fragility"]["numerator"], rep["fragility"]["denominator"])
            run.check(an_step, frag <= economy(gens[key]).fragility,
                      f"{key}^{r}: fragility {frag} exceeds the generator's")
            if fw_step.ok:
                counted = difference_coarray(load_array(self._file(work, key, r))).counts
                fw = fw_step.value
                run.check(fw_step, fw.dtype == counted.dtype and np.array_equal(fw, counted),
                          f"{key}^{r}: fractal_weight differs from the counted weights")
            if lk_step.ok:
                rep_lk = lk_step.value
                run.check(lk_step, rep_lk.hypotheses_hold and rep_lk.preserved is True,
                          f"{key}^{r}: leakage not preserved ({rep_lk})")
        key, r = self.expansions[0]
        bp_step, pb_step = out["beampattern"], out["product_beampattern"]
        if bp_step.ok and pb_step.ok:
            rows = np.loadtxt(self._file(work, key, r, ".bp.csv"), delimiter=",", skiprows=1,
                              ndmin=2)
            n2 = len(GENERATORS[key][0]) ** (2 * r)
            run.check(bp_step, rows.shape == (self.samples, 2), "beampattern CSV has wrong shape")
            run.check(pb_step, rows.shape == (self.samples, 2)
                      and np.allclose(pb_step.value.values, rows[:, 1], rtol=0, atol=1e-9 * n2),
                      "product_beampattern differs from the CLI beampattern")
        cmp_step = out["compare"]
        if cmp_step.ok:
            with open(os.path.join(work, "compare.json")) as fh:
                table = json.load(fh)
            fractal = [k for k, q in self.expansions if q == r]
            run.check(cmp_step, len(table) == len(fractal) + len(BASELINES),
                      f"compare returned {len(table)} rows")
            for k, row in zip(fractal, table):
                run.check(cmp_step, row["hole_free"] is True and row["dof"] == ula_size[k] ** r,
                          f"compare row {row['array']} is not hole-free with M^r lags")
            want = [len(build_baseline(BaselineSpec(k, p))) for k, p in BASELINES]
            run.check(cmp_step, [row["n"] for row in table[len(fractal):]] == want,
                      "compare baseline sizes are wrong")

    def replay(self, run, tracer, work, seed, out):
        arrays = {}
        for (key, r), step in zip(self.expansions, out["expand"]):
            gen = SensorArray(GENERATORS[key][0], name=GENERATORS[key][1])
            with tracer.span("fractal.expand"):
                arrays[(key, r)] = expand(gen, r)
            if step.ok:
                run.check(step, arrays[(key, r)].elements
                          == load_array(self._file(work, key, r)).elements,
                          f"expand {key}^{r} disagrees with the CLI")
        for (key, r), step in zip(self.expansions, out["analyze"]):
            with tracer.span("core.difference_coarray"):
                difference_coarray(arrays[(key, r)])
            with tracer.span("analysis.economy"):
                rep = economy(arrays[(key, r)])
            if step.ok:
                with open(self._file(work, key, r, ".report.json")) as fh:
                    frag = json.load(fh)["fragility"]
                run.check(step, rep.fragility == Fraction(frag["numerator"], frag["denominator"]),
                          f"economy {key}^{r} disagrees with the CLI")
        key, r = self.expansions[0]
        with tracer.span("analysis.beampattern"):
            beampattern(arrays[(key, r)], self._omegas())
        model = CouplingModel(**CLI_COUPLING)
        compared = [a for (k, q), a in arrays.items() if q == r]
        compared += [build_baseline(BaselineSpec(k, p)) for k, p in BASELINES]
        leaks = []
        for arr in compared:
            with tracer.span("core.difference_coarray"):
                prof = difference_coarray(arr)
            with tracer.span("analysis.economy"):
                economy(arr)
            with tracer.span("coupling.leakage_from_profile"):
                leaks.append(leakage_from_profile(prof, model))
        if out["compare"].ok:
            with open(os.path.join(work, "compare.json")) as fh:
                table = json.load(fh)
            run.check(out["compare"], [row["leakage"] for row in table] == leaks,
                      "leakage_from_profile disagrees with the CLI")


# DOA sweeps

@dataclass(frozen=True)
class DoaConfig:
    name: str
    generator: tuple
    order: int
    sources: int
    sweep: str
    grid: str
    trials: int
    threads: int
    coupling_c1_mag: float = 0.0


class DoaSweep:
    """simulate on one array; the output check replays every trial."""

    seeded = True

    def __init__(self, cfg):
        self.cfg = cfg
        self.name = cfg.name
        # the kernel runs on one core; a pass on two averages both cores' speeds
        self.calibrated = cfg.threads == 1
        self.first = None

    def prepare(self, work):
        arr = expand(SensorArray(self.cfg.generator), self.cfg.order)
        dump_array(arr, os.path.join(work, "array.json"))

    def _csv(self, work):
        return os.path.join(work, "sweep.csv")

    def cli_pass(self, run, work, seed):
        c = self.cfg
        argv = ["simulate", "--array", os.path.join(work, "array.json"),
                "--sources", str(c.sources), "--sweep", c.sweep, "--grid", c.grid,
                "--trials", str(c.trials), "--threads", str(c.threads),
                "--seed", str(seed), "--out", self._csv(work)]
        if c.coupling_c1_mag:
            argv += ["--coupling-c1-mag", str(c.coupling_c1_mag)]
        step = run.cli(argv)
        if step.ok:
            with open(self._csv(work)) as fh:
                step.value = fh.read()
        return step

    def check(self, run, work, seed, step):
        """Every pass must write the same CSV as the first; final_check
        holds the first against the trial replay."""
        if not step.ok:
            return
        if self.first is None:
            self.first = step
            rows = step.value.splitlines()
            run.check(step, rows[0] == "axis_value,rmse,success_count,trial_count"
                      and len(rows) == 1 + len(self.cfg.grid.split(",")),
                      "sweep CSV has the wrong shape")
        else:
            run.check(step, step.value == self.first.value, "rerun with the same seed differs")

    def final_check(self, run, work, seed):
        if self.first is not None:
            self.replay(run, NullTracer(), work, seed, self.first)

    @staticmethod
    def outcome(step):
        """(trials, successes, mean RMSE over grid points) from the sweep CSV."""
        if not step.ok:
            return None
        trials = successes = 0
        rmses = []
        for row in step.value.splitlines()[1:]:
            _, rmse, ok, n = row.split(",")
            trials += int(n)
            successes += int(ok)
            if rmse:
                rmses.append(float(rmse))
        return trials, successes, (sum(rmses) / len(rmses) if rmses else math.nan)

    def scenario(self, work, seed):
        c = self.cfg
        coupling = None
        if c.coupling_c1_mag:
            coupling = CouplingModel(q=15, c1_magnitude=c.coupling_c1_mag,
                                     c1_phase=math.pi / 3, phase_mode="random", seed=seed)
        return Scenario(array=load_array(os.path.join(work, "array.json")),
                        thetas=equally_spaced_thetas(c.sources, -0.45, 0.45),
                        coupling=coupling, trials=c.trials, seed=seed)

    def replay(self, run, tracer, work, seed, step):
        """Re-run every trial through synthesize, coarray_statistics and
        coarray_music, count failures by cause, and rebuild the CLI's CSV."""
        base = self.scenario(work, seed)
        field = {"snr": "snr_db", "failure": "failure_probability"}[self.cfg.sweep]
        lines = ["axis_value,rmse,success_count,trial_count"]
        for value in (float(v) for v in self.cfg.grid.split(",")):
            sc = replace(base, **{field: value})
            truth = np.sort(np.asarray(sc.thetas))
            errs = []
            for i in range(sc.trials):
                tracer.count("doa.trials")
                with tracer.span("doa.run_trial"):
                    est = self._trial(tracer, sc, trial_seed(seed, value, i))
                if est is not None:
                    errs.append(math.sqrt(float(np.mean((est - truth) ** 2))))
            rmse = float(np.mean(errs)) if errs else None
            lines.append(f"{value:.12g},{'' if rmse is None else f'{rmse:.12g}'},"
                         f"{len(errs)},{sc.trials}")
        replayed = "\n".join(lines) + "\n"
        if step.ok:
            run.check(step, replayed == step.value,
                      f"replayed sweep differs from the CLI:\n{replayed}---\n{step.value}")

    @staticmethod
    def _trial(tracer, sc, seed):
        rng = np.random.default_rng(seed)
        try:
            with tracer.span("doa.synthesize"):
                surviving, x = synthesize(sc, rng)
        except EstimationFailure:
            tracer.count("doa.fail.all_dead")
            return None
        with tracer.span("doa.coarray_statistics"):
            virtual = coarray_statistics(x, surviving)
        tracer.count("doa.virtual_halfwidth.sum", (virtual.size - 1) // 2)
        tracer.count("doa.virtual_halfwidth.trials")
        try:
            with tracer.span("doa.coarray_music"):
                return coarray_music(virtual, len(sc.thetas), sc.grid_size)
        except IdentifiabilityError:
            tracer.count("doa.fail.identifiability")
        except EstimationFailure:
            tracer.count("doa.fail.peaks")
        return None


def make(name, tiny):
    """The workload with this name, at full or tiny size."""
    if name == "design_search":
        return DesignSearch(tiny)
    if name == "expansion_analysis":
        return ExpansionAnalysis(tiny)
    if name == "doa_snr":
        return DoaSweep(DoaConfig(name, generator=S, order=1, sources=10, sweep="snr",
                                  grid="0,10", trials=4 if tiny else 200, threads=1))
    if name == "doa_faults":
        return DoaSweep(DoaConfig(name, generator=(0, 1, 4, 6), order=2, sources=10,
                                  sweep="failure", grid="0,0.05,0.1,0.2",
                                  trials=3 if tiny else 50, threads=2, coupling_c1_mag=0.3))
    raise KeyError(name)
