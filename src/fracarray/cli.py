"""Command-line front end.

Subcommands: analyze, expand, cantor, baseline, search, simulate, compare.
Every file the tool writes gets a sidecar <file>.manifest.json recording
the command line, resolved configuration, version and output digests, so a
run can be reproduced byte for byte from its manifest.
"""

import argparse
import hashlib
import json
import math
import os
import sys
from datetime import datetime, timezone
from fractions import Fraction

import numpy as np

from . import __version__
from .analysis import beampattern, economy
from .baselines import _BUILDERS, BaselineSpec, build_baseline
from .core import ArrayFormatError, SensorArray, difference_coarray, dump_array, is_symmetric, load_array
from .coupling import CouplingModel, leakage_from_profile
from .doa import DEFAULT_GRID, Scenario, equally_spaced_thetas, run_sweep
from .fractal import MAX_ORDER, cantor, expand
from .search import DesignConstraints, solve_p1


def _sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _config_of(args):
    cfg = {}
    for k, v in sorted(vars(args).items()):
        if k == "func":
            continue
        cfg[k] = str(v) if isinstance(v, Fraction) else v
    return cfg


def _write_manifest(out_path, argv, args):
    manifest = {
        "tool": "fracarray",
        "version": __version__,
        "command": ["fracarray"] + list(argv),
        "config": _config_of(args),
        "seed": getattr(args, "seed", None),
        "created": datetime.now(timezone.utc).isoformat(),
        "outputs": [{
            "path": os.path.basename(str(out_path)),
            "sha256": _sha256(out_path),
            "bytes": os.path.getsize(out_path),
        }],
    }
    with open(str(out_path) + ".manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, default=str)
        fh.write("\n")


def _summary_line(array):
    p = difference_coarray(array)
    return (f"N={len(array)} aperture={array.aperture} |D|={p.dof} "
            f"|U|={p.ula_size} hole_free={p.hole_free} "
            f"symmetric={is_symmetric(array)}")


def _emit_array(array, args, argv):
    doc = {"name": array.name, "elements": list(array.elements)}
    if getattr(args, "out", None):
        dump_array(array, args.out)
        _write_manifest(args.out, argv, args)
        print(_summary_line(array))
        print(f"wrote {args.out}")
    else:
        json.dump(doc, sys.stdout)
        sys.stdout.write("\n")
        print(_summary_line(array), file=sys.stderr)
    return 0


def _add_coupling_flags(sub, default_phases, default_mag=0.3):
    sub.add_argument("--coupling-q", type=int, default=15, metavar="Q",
                     help="coupling limit: separations above Q do not couple")
    sub.add_argument("--coupling-c1-mag", type=float, default=default_mag, metavar="MAG",
                     help="magnitude of the unit-separation coefficient")
    sub.add_argument("--coupling-c1-phase", type=float, default=math.pi / 3, metavar="RAD",
                     help="phase of the unit-separation coefficient (fixed mode)")
    sub.add_argument("--coupling-phases", choices=("fixed", "random"), default=default_phases,
                     help="fixed phase progression or uniform random phases")


def _coupling_from_args(args, magnitude=None):
    return CouplingModel(
        q=args.coupling_q,
        c1_magnitude=args.coupling_c1_mag if magnitude is None else magnitude,
        c1_phase=args.coupling_c1_phase,
        phase_mode=args.coupling_phases,
        seed=getattr(args, "seed", None),
    )


def _parse_baseline_token(token):
    # e.g. ula:5  nested:4,4  coprime:3,4  mra:10  mha:4
    kind, sep, rest = token.partition(":")
    if not sep:
        raise ArrayFormatError(f"baseline spec {token!r} needs kind:params")
    try:
        params = tuple(int(p) for p in rest.split(",") if p != "")
    except ValueError:
        raise ArrayFormatError(f"baseline spec {token!r} has non-integer parameters") from None
    return build_baseline(BaselineSpec(kind, params))


def _parse_grid(text):
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ArrayFormatError(f"grid {text!r} must be start:stop:step or a comma list")
        a, b, step = (float(p) for p in parts)
        if step <= 0 or b < a:
            raise ArrayFormatError(f"grid {text!r} must ascend with a positive step")
        # the tolerance keeps a stop a whole number of steps away, such as
        # 1 in 0:1:0.1, in the grid despite rounding in the division
        n = math.floor((b - a) / step + 1e-9) + 1
        return [a + i * step for i in range(n)]
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
    sensors and the coarray profile; leakage needs a coupling model."""
    prof = difference_coarray(array)
    rep = economy(prof)
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
        "profile": prof,
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
        with open(args.json, "w") as fh:
            json.dump(report, fh, indent=2)
            fh.write("\n")
        _write_manifest(args.json, argv, args)
    if args.beampattern:
        om = np.linspace(-math.pi, math.pi, args.samples)
        bp = beampattern(values["profile"], om)
        vals = bp.values / len(array) ** 2 if args.normalize else bp.values
        with open(args.beampattern, "w") as fh:
            fh.write("omega,value\n")
            for o, v in zip(om, vals):
                fh.write(f"{o:.12g},{v:.12g}\n")
        _write_manifest(args.beampattern, argv, args)
    return 0


def _cmd_expand(args, argv):
    if args.generators:
        paths = [p for p in args.generators.split(",") if p]
        gens = [load_array(p) for p in paths]
    elif args.generator:
        gens = [load_array(args.generator)]
    else:
        raise ArrayFormatError("give a generator file or --generators")
    # one file is reused at every order, as a positional generator is
    out = expand(gens[0] if len(gens) == 1 else gens, args.order, max_order=args.max_order)
    if args.name:
        out = SensorArray(out.elements, name=args.name)
    return _emit_array(out, args, argv)


def _cmd_cantor(args, argv):
    return _emit_array(cantor(args.order), args, argv)


def _cmd_baseline(args, argv):
    params = []
    for name in _BUILDERS[args.kind][1]:
        val = getattr(args, name)
        if val is None:
            raise ArrayFormatError(f"baseline {args.kind} needs --{name}")
        params.append(val)
    return _emit_array(build_baseline(BaselineSpec(args.kind, tuple(params))), args, argv)


def _cmd_search(args, argv):
    constraints = DesignConstraints(
        max_aperture=args.max_aperture,
        require_symmetric=args.symmetric,
        require_hole_free=args.hole_free,
        max_fragility=Fraction(args.max_fragility),
        max_leakage=args.max_leakage,
        coupling=_coupling_from_args(args),
        exact_aperture=args.exact_aperture,
    )
    result = solve_p1(constraints, force=args.force)
    if args.json:
        doc = {
            "constraints": _config_of(args),
            "optimum_size": result.optimum_size,
            "optimum": [list(a.elements) for a in result.optimum],
            "explored": result.explored,
            "pruned": result.pruned,
            "wall_time": result.wall_time,
            "message": result.message,
        }
        with open(args.json, "w") as fh:
            json.dump(doc, fh, indent=2)
            fh.write("\n")
        _write_manifest(args.json, argv, args)
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
    if args.threads is None:
        env = os.environ.get("FRACARRAY_THREADS", "1")
        try:
            args.threads = int(env)
        except ValueError:
            raise ArrayFormatError(f"FRACARRAY_THREADS={env!r} is not an integer") from None
    if args.threads < 1:
        raise ArrayFormatError(f"thread count must be at least 1, got {args.threads}")
    if bool(args.array) == bool(args.baseline):
        raise ArrayFormatError("give exactly one of --array or --baseline")
    array = load_array(args.array) if args.array else _parse_baseline_token(args.baseline)
    lo, hi = _parse_range(args.range)
    thetas = equally_spaced_thetas(args.sources, lo, hi)
    axis = {"coupling": "coupling_c1_mag", "failure": "failure_probability",
            "snr": "snr_db"}[args.sweep]
    coupling = None
    if axis == "coupling_c1_mag" or args.coupling_c1_mag > 0:
        coupling = _coupling_from_args(args)
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
    # opened at the first record: run_sweep validates the whole grid before
    # any trial runs, so a rejected grid leaves no dump file behind
    dump_fh = None

    def on_trial(value, index, est, failure):
        nonlocal dump_fh
        if args.dump_trials:
            if dump_fh is None:
                dump_fh = open(args.dump_trials, "w")
            rec = {"axis_value": value, "trial": index, "success": est is not None,
                   "estimates": None if est is None else [float(e) for e in est],
                   "failure": failure}
            dump_fh.write(json.dumps(rec) + "\n")

    try:
        result = run_sweep(base, axis, grid, workers=args.threads, on_trial=on_trial)
    finally:
        if dump_fh is not None:
            dump_fh.close()
            _write_manifest(args.dump_trials, argv, args)
    lines = ["axis_value,rmse,success_count,trial_count"]
    for p in result.points:
        rmse = "" if p.rmse is None else f"{p.rmse:.12g}"
        lines.append(f"{p.value:.12g},{rmse},{p.success_count},{p.trial_count}")
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
        _write_manifest(args.out, argv, args)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)
    if all(p.success_count == 0 for p in result.points):
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
    for m in metrics:
        if m not in _COMPARE_METRICS:
            raise ArrayFormatError(f"unknown metric {m!r}; choose from {_COMPARE_METRICS}")
    model = _coupling_from_args(args)
    headers = ["array"] + metrics
    rows = []
    for arr in arrays:
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
        with open(args.json, "w") as fh:
            json.dump(rows, fh, indent=2)
            fh.write("\n")
        _write_manifest(args.json, argv, args)
    if args.csv:
        with open(args.csv, "w") as fh:
            fh.write(",".join(headers) + "\n")
            for row in rows:
                fh.write(",".join(str(row[h]) for h in headers) + "\n")
        _write_manifest(args.csv, argv, args)
    return 0


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
    p.set_defaults(func=_cmd_analyze)

    p = subs.add_parser("expand", help="fractal expansion of one or more generators")
    p.add_argument("generator", nargs="?", help="generator JSON file")
    p.add_argument("--generators", metavar="A,B,...", help="comma-separated generator files, one per order")
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--max-order", type=int, default=MAX_ORDER, help="safety cap on the order")
    p.add_argument("--name", help="name for the output array")
    p.add_argument("--out", metavar="PATH", help="write the array JSON here instead of stdout")
    p.set_defaults(func=_cmd_expand)

    p = subs.add_parser("cantor", help="Cantor array of a given order")
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--out", metavar="PATH")
    p.set_defaults(func=_cmd_cantor)

    p = subs.add_parser("baseline", help="standard comparison arrays")
    p.add_argument("--kind", required=True, choices=tuple(_BUILDERS))
    p.add_argument("--n", type=int)
    p.add_argument("--n1", type=int)
    p.add_argument("--n2", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--out", metavar="PATH")
    p.set_defaults(func=_cmd_baseline)

    p = subs.add_parser("search", help="exhaustive minimum-sensor design search")
    p.add_argument("--max-aperture", type=int, required=True)
    p.add_argument("--symmetric", action="store_true", help="admit only mirror-symmetric arrays")
    p.add_argument("--hole-free", action=argparse.BooleanOptionalAction, default=True,
                   help="require a hole-free difference coarray")
    p.add_argument("--max-fragility", default="3/10",
                   help="largest allowed essential-sensor fraction, exact rational (e.g. 0.3 or 3/10)")
    p.add_argument("--max-leakage", type=float, default=1 / 3)
    p.add_argument("--exact-aperture", action=argparse.BooleanOptionalAction, default=True,
                   help="candidates span exactly max-aperture; --no-exact-aperture admits shorter arrays")
    _add_coupling_flags(p, "fixed")
    p.add_argument("--seed", type=int, default=0, help="seed for random coupling phases")
    p.add_argument("--all-solutions", action="store_true")
    p.add_argument("--force", action="store_true", help="allow apertures beyond the guard")
    p.add_argument("--json", metavar="PATH")
    p.set_defaults(func=_cmd_search)

    p = subs.add_parser("simulate", help="Monte-Carlo DOA sweep with coarray MUSIC")
    p.add_argument("--array", metavar="PATH", help="array JSON file")
    p.add_argument("--baseline", metavar="KIND:P,P", help="baseline spec, e.g. nested:4,4")
    p.add_argument("--sources", type=int, required=True, help="number of sources")
    p.add_argument("--range", default="-0.45:0.45", help="normalized direction range lo:hi")
    p.add_argument("--snapshots", type=int, default=1000)
    p.add_argument("--trials", type=int, default=500)
    p.add_argument("--snr", type=float, default=0.0, help="SNR in dB outside snr sweeps")
    p.add_argument("--sweep", required=True, choices=("coupling", "failure", "snr"))
    p.add_argument("--grid", required=True, help="sweep grid, start:stop:step or comma list")
    p.add_argument("--grid-size", type=int, default=DEFAULT_GRID, help="direction grid resolution")
    p.add_argument("--seed", type=int, default=0)
    # default: $FRACARRAY_THREADS or 1, read when the command runs
    p.add_argument("--threads", type=int)
    # coupling stays off in snr/failure sweeps unless a magnitude is given
    _add_coupling_flags(p, "random", default_mag=0.0)
    p.add_argument("--out", metavar="PATH", help="write sweep CSV here instead of stdout")
    p.add_argument("--dump-trials", metavar="PATH", help="write per-trial JSONL here")
    p.set_defaults(func=_cmd_simulate)

    p = subs.add_parser("compare", help="metric table across several arrays")
    p.add_argument("--arrays", metavar="A,B,...", help="comma-separated array JSON files")
    p.add_argument("--baselines", action="append", metavar="SPEC[;SPEC]",
                   help="baseline specs like nested:4,4; repeat the flag or separate with ;")
    p.add_argument("--metrics", default="n,fragility,leakage",
                   help=f"comma list from {','.join(_COMPARE_METRICS)}")
    _add_coupling_flags(p, "fixed")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", metavar="PATH")
    p.add_argument("--csv", metavar="PATH")
    p.set_defaults(func=_cmd_compare)

    return parser


def main(argv=None):
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args, argv)
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
