"""Command-line front end.

Subcommands: analyze, expand, baseline, search, simulate, compare.
Every file the tool writes gets a sidecar <file>.manifest.json recording
the command line, resolved configuration, version and output digests, so a
run can be reproduced byte for byte from its manifest.
"""

import argparse
import functools
import hashlib
import json
import math
import os
import platform
import sys
from dataclasses import replace
from datetime import datetime, timezone
from fractions import Fraction

import numpy as np

from . import __version__
from .analysis import beampattern, economy
from .baselines import _BUILDERS, BaselineSpec, build_baseline
from .core import (ArrayFormatError, SensorArray, _array_json, difference_coarray, is_symmetric,
                   load_array)
from .coupling import CouplingModel, leakage_from_profile
from .doa import Scenario, equally_spaced_thetas, run_sweep
from .fractal import MAX_ORDER, _orders, expand
from .search import APERTURE_GUARD, MAX_SPAN, DesignConstraints, solve_p1


def _config_of(args):
    cfg = {}
    for k, v in sorted(vars(args).items()):
        cfg[k] = str(v) if isinstance(v, Fraction) else v
    return cfg


def _write_output(path, text, argv, args):
    """Write text to path as UTF-8, then the <path>.manifest.json sidecar,
    whose digest and size are those of the same bytes."""
    data = text.encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(data)
    manifest = {
        "tool": "fracarray",
        "version": __version__,
        "command": ["fracarray"] + list(argv),
        "config": _config_of(args),
        "seed": getattr(args, "seed", None),
        "created": datetime.now(timezone.utc).isoformat(),
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "platform": platform.platform(),
        },
        "outputs": [{
            "path": os.path.basename(str(path)),
            "sha256": hashlib.sha256(data).hexdigest(),
            "bytes": len(data),
        }],
    }
    with open(str(path) + ".manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, default=str)
        fh.write("\n")


def _summary_line(array, hole_free=False):
    """One line of sizes and coarray facts. hole_free=True states that the
    array is known to be hole-free, as an expansion of hole-free generators
    is: then |D| = |U| = 2 * aperture + 1 and no pair is counted."""
    if hole_free:
        dof = ula = 2 * array.aperture + 1
    else:
        p = difference_coarray(array)
        dof, ula, hole_free = p.dof, p.ula_size, p.hole_free
    return (f"N={len(array)} aperture={array.aperture} |D|={dof} "
            f"|U|={ula} hole_free={hole_free} "
            f"symmetric={is_symmetric(array)}")


def _emit_array(array, args, argv, hole_free=False):
    text = _array_json(array)
    if args.out:
        _write_output(args.out, text, argv, args)
        print(_summary_line(array, hole_free))
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)
        print(_summary_line(array, hole_free), file=sys.stderr)
    return 0


def _add_coupling_flags(sub, default_mag=CouplingModel.c1_magnitude):
    sub.add_argument("--coupling-q", type=int, default=CouplingModel.q, metavar="Q",
                     help="coupling limit: separations above Q do not couple")
    sub.add_argument("--coupling-c1-mag", type=float, default=default_mag, metavar="MAG",
                     help="magnitude of the unit-separation coefficient")


def _coupling_from_args(args):
    return CouplingModel(q=args.coupling_q, c1_magnitude=args.coupling_c1_mag)


def _parse_baseline_token(token):
    # e.g. ula:5  nested:4,4  coprime:3,4  mra:10  mha:4  cantor:4
    kind, sep, rest = token.partition(":")
    if not sep:
        raise ArrayFormatError(f"baseline spec {token!r} needs kind:params")
    try:
        params = tuple(int(p) for p in rest.split(",") if p != "")
    except ValueError:
        raise ArrayFormatError(f"baseline spec {token!r} has non-integer parameters") from None
    return build_baseline(BaselineSpec(kind, params))


# largest number of points a start:stop:step grid may expand to
MAX_GRID_POINTS = 100_000


def _parse_grid(text):
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ArrayFormatError(f"grid {text!r} must be start:stop:step or a comma list")
        a, b, step = (float(p) for p in parts)
        if not all(math.isfinite(x) for x in (a, b, step)):
            raise ArrayFormatError(f"grid {text!r} needs a finite start, stop and step")
        if step <= 0 or b < a:
            raise ArrayFormatError(f"grid {text!r} must ascend with a positive step")
        # the tolerance keeps a stop a whole number of steps away, such as
        # 1 in 0:1:0.1, in the grid despite rounding in the division
        steps = (b - a) / step + 1e-9
        if steps >= MAX_GRID_POINTS:
            raise ArrayFormatError(f"grid {text!r} has more than {MAX_GRID_POINTS} points")
        n = math.floor(steps) + 1
        # each point is the decimal the CSV prints ({:.12g}), so 0:0.3:0.1
        # seeds its trials as 0,0.1,0.2,0.3 does
        return [float(f"{a + i * step:.12g}") for i in range(n)]
    return [float(p) for p in text.split(",") if p != ""]


def _parse_range(text):
    try:
        lo, hi = (float(p) for p in text.rsplit(":", 1))
    except ValueError:
        raise ArrayFormatError(f"range {text!r} must be lo:hi") from None
    if hi <= lo:
        raise ArrayFormatError("range must have lo < hi")
    return lo, hi


# One row per metric, in display order: the compare key, the analyze label
# and the analyze JSON key (None where analyze omits the metric).
_METRICS = (
    ("n", "sensors", "sensors"),
    ("aperture", "aperture", "aperture"),
    ("dof", "coarray size |D|", "dof"),
    ("ula", "central ULA |U|", "ula_size"),
    ("hole_free", "hole-free", "hole_free"),
    ("symmetric", "symmetric", "symmetric"),
    ("fragility", "fragility", "fragility"),
    ("economy", "maximally economic", "maximally_economic"),
    ("c1", "C1 satisfied", "satisfies_C1"),
    ("leakage", None, None),
)
_COMPARE_METRICS = tuple(row[0] for row in _METRICS)


def _measure(array, model=None):
    """Every metric of one array keyed by compare key, plus the essential
    sensors; leakage needs a coupling model."""
    prof = difference_coarray(array)
    rep = economy(array)
    return {
        "n": len(array),
        "aperture": array.aperture,
        "dof": prof.dof,
        "ula": prof.ula_size,
        "hole_free": prof.hole_free,
        "symmetric": is_symmetric(array),
        "fragility": rep.fragility,
        "economy": rep.maximally_economic,
        "c1": rep.satisfies_C1,
        "leakage": None if model is None else leakage_from_profile(prof, model),
        "essential": list(rep.essential),
    }


def _cell(value):
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator} ({float(value):.4f})"
    if isinstance(value, float):
        return f"{value:.4f}"
    return str(value)


# subcommand handlers

def _cmd_analyze(args, argv):
    if args.samples < 1:
        raise ArrayFormatError(f"beampattern sample count must be at least 1, got {args.samples}")
    array = load_array(args.array)
    values = _measure(array)
    rows = [("name", array.name or "(unnamed)"),
            ("elements", " ".join(str(e) for e in array.elements))]
    rows += [(label, _cell(values[key])) for key, label, _ in _METRICS if label]
    report = {"name": array.name, "elements": list(array.elements)}
    report.update((json_key, values[key]) for key, _, json_key in _METRICS if json_key)
    f = report["fragility"]
    report["fragility"] = {"numerator": f.numerator, "denominator": f.denominator,
                           "value": float(f)}
    report["essential"] = values["essential"]
    width = max(len(r[0]) for r in rows)
    for key, val in rows:
        print(f"{key:<{width}}  {val}")
    if args.json:
        _write_output(args.json, json.dumps(report, indent=2) + "\n", argv, args)
    if args.beampattern:
        om = np.linspace(-math.pi, math.pi, args.samples)
        bp = beampattern(array, om)
        vals = bp.values / len(array) ** 2 if args.normalize else bp.values
        text = "omega,value\n" + "".join(f"{o:.12g},{v:.12g}\n" for o, v in zip(om, vals))
        _write_output(args.beampattern, text, argv, args)
    return 0


def _cmd_expand(args, argv):
    if args.order > args.max_order:
        # expand raises here too, but its message names the library's max_order
        raise ArrayFormatError(f"order {args.order} exceeds the safety cap {args.max_order}; "
                               "pass --max-order to override")
    gens = [load_array(p) for p in args.generators]
    # one file is reused at every order; several give one generator per order
    generators = gens[0] if len(gens) == 1 else gens
    out = expand(generators, args.order, max_order=args.max_order)
    if args.name:
        out = SensorArray(out.elements, name=args.name)
    # hole-free generators expand to a hole-free array (the M^r law), so
    # the summary line needs no pair count
    orders = _orders(generators, args.order)
    hole_free = bool(orders) and all(difference_coarray(g).hole_free for g, _ in orders)
    return _emit_array(out, args, argv, hole_free)


def _cmd_baseline(args, argv):
    return _emit_array(_parse_baseline_token(args.spec), args, argv)


def _cmd_search(args, argv):
    try:
        max_fragility = Fraction(args.max_fragility)
    except (ValueError, ZeroDivisionError):
        raise ArrayFormatError(
            f"--max-fragility {args.max_fragility!r} is not a rational number") from None
    constraints = DesignConstraints(
        max_aperture=args.max_aperture,
        require_symmetric=args.symmetric,
        require_hole_free=args.hole_free,
        max_fragility=max_fragility,
        max_leakage=args.max_leakage,
        coupling=_coupling_from_args(args),
        exact_aperture=args.exact_aperture,
    )
    if APERTURE_GUARD < args.max_aperture <= MAX_SPAN and not args.force:
        # solve_p1 raises here too, but its message names the library's force=True
        raise ArrayFormatError(f"aperture {args.max_aperture} exceeds the exhaustive-search "
                               f"guard {APERTURE_GUARD}; pass --force")
    result = solve_p1(constraints, force=args.force)
    if args.json:
        doc = {
            "constraints": _config_of(args),
            "optimum_size": result.optimum_size,
            "optimum": [list(a.elements) for a in result.optimum],
            "explored": result.explored,
            "pruned": result.pruned,
            "by_size": [dict(zip(("k", "explored", "pruned", "complete"), row))
                        for row in result.by_size],
            "wall_time": result.wall_time,
            "message": result.message,
        }
        _write_output(args.json, json.dumps(doc, indent=2) + "\n", argv, args)
    if not result.optimum:
        print(result.message)
        return 1
    print(f"minimum size {result.optimum_size}, {len(result.optimum)} solution(s), "
          f"explored {result.explored}, pruned {result.pruned}, {result.wall_time:.2f}s")
    shown = result.optimum if args.all_solutions else result.optimum[:1]
    for a in shown:
        print("  " + " ".join(str(e) for e in a.elements))
    if not args.all_solutions and len(result.optimum) > 1:
        print(f"  ... {len(result.optimum) - 1} more (use --all-solutions)")
    return 0


def _cmd_simulate(args, argv):
    if args.threads < 1:
        raise ArrayFormatError(f"thread count must be at least 1, got {args.threads}")
    if bool(args.array) == bool(args.baseline):
        raise ArrayFormatError("give exactly one of --array or --baseline")
    coupled = args.sweep == "coupling" or args.coupling_c1_mag > 0
    if args.coupling_c1_phase is not None and not coupled:
        raise ArrayFormatError("--coupling-c1-phase needs coupling: a --coupling-c1-mag "
                               "above 0 or --sweep coupling")
    array = load_array(args.array) if args.array else _parse_baseline_token(args.baseline)
    lo, hi = _parse_range(args.range)
    thetas = equally_spaced_thetas(args.sources, lo, hi)
    axis = {"coupling": "coupling_c1_mag", "failure": "failure_probability",
            "snr": "snr_db"}[args.sweep]
    # a given phase fixes the progression; without one every phase is drawn
    phases = ({"phase_mode": "random"} if args.coupling_c1_phase is None
              else {"c1_phase": args.coupling_c1_phase})
    coupling = replace(_coupling_from_args(args), **phases) if coupled else None
    base = Scenario(
        array=array,
        thetas=thetas,
        snapshots=args.snapshots,
        snr_db=args.snr,
        coupling=coupling,
        trials=args.trials,
        seed=args.seed,
        grid_size=args.grid_size,
    )
    grid = _parse_grid(args.grid)
    points = run_sweep(base, axis, grid, workers=args.threads)
    # written only once the sweep returns, so a rejected grid or a sweep
    # stopped part-way leaves no dump behind
    if args.dump_trials:
        records = (json.dumps({"axis_value": p.value, "trial": i, "success": est is not None,
                               "estimates": None if est is None else list(est),
                               "failure": failure}) + "\n"
                   for p in points for i, (est, failure) in enumerate(p.trials))
        _write_output(args.dump_trials, "".join(records), argv, args)
    lines = ["axis_value,rmse,success_count,trial_count"]
    for p in points:
        rmse = "" if p.rmse is None else f"{p.rmse:.12g}"
        lines.append(f"{p.value:.12g},{rmse},{p.success_count},{p.trial_count}")
    text = "\n".join(lines) + "\n"
    if args.out:
        _write_output(args.out, text, argv, args)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)
    if all(p.success_count == 0 for p in points):
        print("every trial failed at every grid point", file=sys.stderr)
        return 1
    return 0


def _cmd_compare(args, argv):
    arrays = []
    if args.arrays:
        arrays += [load_array(p) for p in args.arrays.split(",") if p]
    for group in args.baselines or ():
        arrays += [_parse_baseline_token(t) for t in group.split(";") if t]
    if not arrays:
        raise ArrayFormatError("give --arrays and/or --baselines")
    metrics = [m.strip() for m in args.metrics.split(",") if m.strip()]
    for i, m in enumerate(metrics):
        if m not in _COMPARE_METRICS:
            raise ArrayFormatError(f"unknown metric {m!r}; choose from {_COMPARE_METRICS}")
        if m in metrics[:i]:
            raise ArrayFormatError(f"metric {m!r} is named twice")
    model = _coupling_from_args(args)
    headers = ["array"] + metrics
    rows = []
    while arrays:
        # each array, and the coarray kept on it, is dropped once measured
        arr = arrays.pop(0)
        values = _measure(arr, model)
        values["array"] = arr.name or " ".join(str(e) for e in arr.elements)
        rows.append({h: values[h] for h in headers})
    cells = [{h: _cell(v) for h, v in row.items()} for row in rows]
    widths = {h: max(len(h), max(len(c[h]) for c in cells)) for h in headers}
    print("  ".join(f"{h:<{widths[h]}}" for h in headers))
    for c in cells:
        print("  ".join(f"{c[h]:<{widths[h]}}" for h in headers))
    # the JSON and CSV carry fragility as a float
    rows = [{h: float(v) if isinstance(v, Fraction) else v for h, v in row.items()}
            for row in rows]
    if args.json:
        _write_output(args.json, json.dumps(rows, indent=2) + "\n", argv, args)
    if args.csv:
        lines = [headers] + [[str(row[h]) for h in headers] for row in rows]
        _write_output(args.csv, "".join(",".join(line) + "\n" for line in lines), argv, args)
    return 0


@functools.cache
def _build_parser():
    parser = argparse.ArgumentParser(
        prog="fracarray",
        description="sparse sensor-array design and analysis")
    parser.add_argument("--version", action="version", version=f"fracarray {__version__}")
    subs = parser.add_subparsers(dest="subcommand", required=True)

    p = subs.add_parser("analyze", help="coarray, symmetry and robustness report for one array")
    p.add_argument("array", help="array JSON file")
    p.add_argument("--json", metavar="PATH", help="write the report as JSON")
    p.add_argument("--beampattern", metavar="PATH", help="write beampattern samples as CSV")
    p.add_argument("--samples", type=int, default=1024, help="beampattern sample count")
    p.add_argument("--normalize", action="store_true", help="scale the beampattern by its DC value")

    p = subs.add_parser("expand", help="fractal expansion of one or more generators")
    p.add_argument("generators", nargs="+", metavar="FILE",
                   help="generator JSON file, reused at every order; several give one per order")
    p.add_argument("--order", type=int, required=True,
                   help="expansion order, at most the file count when several are given")
    p.add_argument("--max-order", type=int, default=MAX_ORDER, help="safety cap on the order")
    p.add_argument("--name", help="name for the output array")
    p.add_argument("--out", metavar="PATH", help="write the array JSON here instead of stdout")

    p = subs.add_parser("baseline", help="standard comparison arrays and Cantor arrays")
    kinds = " ".join(f"{k}:{','.join(names)}" for k, (_, names) in _BUILDERS.items())
    p.add_argument("spec", metavar="KIND:P,P", help=f"one of {kinds}, e.g. nested:4,4")
    p.add_argument("--out", metavar="PATH", help="write the array JSON here instead of stdout")

    p = subs.add_parser("search", help="exhaustive minimum-sensor design search")
    p.add_argument("--max-aperture", type=int, required=True)
    p.add_argument("--symmetric", action="store_true", help="admit only mirror-symmetric arrays")
    p.add_argument("--hole-free", action=argparse.BooleanOptionalAction,
                   default=DesignConstraints.require_hole_free,
                   help="require a hole-free difference coarray")
    p.add_argument("--max-fragility", default=DesignConstraints.max_fragility,
                   help="largest allowed essential-sensor fraction, exact rational (e.g. 0.3 or 3/10)")
    p.add_argument("--max-leakage", type=float, default=DesignConstraints.max_leakage)
    p.add_argument("--exact-aperture", action=argparse.BooleanOptionalAction,
                   default=DesignConstraints.exact_aperture,
                   help="candidates span exactly max-aperture; --no-exact-aperture admits shorter arrays")
    _add_coupling_flags(p)
    p.add_argument("--all-solutions", action="store_true")
    p.add_argument("--force", action="store_true", help="allow apertures beyond the guard")
    p.add_argument("--json", metavar="PATH")

    p = subs.add_parser("simulate", help="Monte-Carlo DOA sweep with coarray MUSIC")
    p.add_argument("--array", metavar="PATH", help="array JSON file")
    p.add_argument("--baseline", metavar="KIND:P,P", help="baseline spec, e.g. nested:4,4")
    p.add_argument("--sources", type=int, required=True, help="number of sources")
    p.add_argument("--range", default="-0.45:0.45", help="normalized direction range lo:hi")
    p.add_argument("--snapshots", type=int, default=Scenario.snapshots)
    p.add_argument("--trials", type=int, default=Scenario.trials)
    p.add_argument("--snr", type=float, default=Scenario.snr_db, help="SNR in dB outside snr sweeps")
    p.add_argument("--sweep", required=True, choices=("coupling", "failure", "snr"))
    p.add_argument("--grid", required=True, help="sweep grid, start:stop:step or comma list")
    p.add_argument("--grid-size", type=int, default=Scenario.grid_size, help="direction grid resolution")
    p.add_argument("--seed", type=int, default=Scenario.seed)
    p.add_argument("--threads", type=int, default=1,
                   help="worker threads; outputs do not depend on the count")
    # coupling stays off in snr/failure sweeps unless a magnitude is given
    _add_coupling_flags(p, default_mag=0.0)
    # only simulate draws coupling matrices: leakage, all that search and
    # compare read, cancels the phases
    p.add_argument("--coupling-c1-phase", type=float, metavar="RAD",
                   help="fixes the phase progression RAD - (i-1) pi/8; "
                        "without it every phase is drawn at random")
    p.add_argument("--out", metavar="PATH", help="write sweep CSV here instead of stdout")
    p.add_argument("--dump-trials", metavar="PATH", help="write per-trial JSONL here")

    p = subs.add_parser("compare", help="metric table across several arrays")
    p.add_argument("--arrays", metavar="A,B,...", help="comma-separated array JSON files")
    p.add_argument("--baselines", action="append", metavar="SPEC[;SPEC]",
                   help="baseline specs like nested:4,4; repeat the flag or separate with ;")
    p.add_argument("--metrics", default="n,fragility,leakage",
                   help=f"comma list from {','.join(_COMPARE_METRICS)}")
    _add_coupling_flags(p)
    p.add_argument("--json", metavar="PATH")
    p.add_argument("--csv", metavar="PATH")

    return parser


def main(argv=None):
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    args = _build_parser().parse_args(argv)
    # looked up per call, so a handler replaced after the parser was built runs
    handler = globals()["_cmd_" + args.subcommand]
    try:
        code = handler(args, argv)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the stdout reader went away: point fd 1 at devnull so the flush at
        # exit cannot raise again, and exit as SIGPIPE would (128 + 13)
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, 1)
        os.close(devnull)
        return 141
    except MemoryError as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2
    except (ValueError, OSError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        # the shell's code for a process ended by SIGINT
        print("error: interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
