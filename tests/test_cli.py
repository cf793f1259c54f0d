import argparse
import hashlib
import json
import os
import platform
import re
import subprocess
import sys
import tracemalloc
import weakref
from dataclasses import fields, replace

import numpy as np
import pytest

from fracarray import (
    APERTURE_GUARD,
    CouplingModel,
    DesignConstraints,
    Scenario,
    SensorArray,
    cantor,
    difference_coarray,
    economy,
    equally_spaced_thetas,
    expand,
    mra,
    nested,
    product_beampattern,
    run_sweep,
    solve_p1,
)
from fracarray import cli, core
from fracarray.baselines import _BUILDERS
from fracarray.cli import _parse_grid, main
from fracarray.core import load_array
from conftest import S_ELEMS, oracle_hole_free, oracle_solve_p1


def _write(path, elements, name=""):
    path.write_text(json.dumps({"name": name, "elements": list(elements)}))
    return str(path)


def _exits_two_with_error(argv, capsys):
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert err.startswith("error:") and "Traceback" not in out + err
    return err


def test_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "fracarray" in capsys.readouterr().out


def test_subcommand_required():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_cantor_stdout(capsys):
    assert main(["baseline", "cantor:2"]) == 0
    out, err = capsys.readouterr()
    doc = json.loads(out)
    assert doc["elements"] == [0, 1, 3, 4]
    assert "N=4" in err and "hole_free=True" in err


def test_cantor_out_file_with_manifest(tmp_path, capsys):
    out = tmp_path / "c3.json"
    assert main(["baseline", "cantor:3", "--out", str(out)]) == 0
    assert "wrote" in capsys.readouterr().out
    doc = json.loads(out.read_text())
    assert doc["elements"] == [0, 1, 3, 4, 9, 10, 12, 13]
    manifest = json.loads((tmp_path / "c3.json.manifest.json").read_text())
    assert manifest["tool"] == "fracarray"
    assert manifest["command"][:3] == ["fracarray", "baseline", "cantor:3"]
    assert manifest["outputs"][0]["sha256"] == hashlib.sha256(out.read_bytes()).hexdigest()
    assert manifest["outputs"][0]["bytes"] == out.stat().st_size
    assert manifest["environment"] == {"python": platform.python_version(),
                                       "numpy": np.__version__,
                                       "platform": platform.platform()}


def test_analyze_report(tmp_path, capsys):
    src = _write(tmp_path / "s.json", S_ELEMS, name="S")
    report = tmp_path / "report.json"
    assert main(["analyze", src, "--json", str(report)]) == 0
    out = capsys.readouterr().out
    assert "3/11" in out
    assert "41" in out  # coarray size
    doc = json.loads(report.read_text())
    assert doc["sensors"] == 11
    assert doc["dof"] == 41
    assert doc["hole_free"] is True
    assert doc["symmetric"] is True
    assert doc["fragility"]["numerator"] == 3
    assert doc["essential"] == [0, 10, 20]


def test_analyze_beampattern_csv(tmp_path):
    src = _write(tmp_path / "a.json", (0, 1, 4, 6))
    csv = tmp_path / "bp.csv"
    assert main(["analyze", src, "--beampattern", str(csv), "--samples", "101",
                 "--normalize"]) == 0
    lines = csv.read_text().strip().splitlines()
    assert lines[0] == "omega,value"
    assert len(lines) == 102
    omega_mid, value_mid = lines[51].split(",")
    assert float(omega_mid) == pytest.approx(0.0, abs=1e-12)
    assert float(value_mid) == pytest.approx(1.0)  # normalized DC


def test_analyze_beampattern_of_order_five_matches_the_product(tmp_path):
    # aperture 185,646: one FFT of the weight map serves all 1024 samples
    gen = SensorArray((0, 1, 4, 6))
    src = _write(tmp_path / "g5.json", expand(gen, 5).elements)
    csv = tmp_path / "bp.csv"
    assert main(["analyze", src, "--beampattern", str(csv), "--samples", "1024"]) == 0
    rows = np.loadtxt(csv, delimiter=",", skiprows=1)
    om = np.linspace(-np.pi, np.pi, 1024)
    assert rows.shape == (1024, 2)
    assert np.array_equal(rows[:, 0], [float(f"{o:.12g}") for o in om])
    want = product_beampattern(gen, 5, om).values
    # the CSV keeps 12 significant digits of values up to N^2 = 4**10
    assert np.max(np.abs(rows[:, 1] - want)) <= 1e-11 * 4 ** 10


@pytest.mark.parametrize("samples", ("0", "-1"))
def test_analyze_rejects_sample_count_below_one(samples, tmp_path, capsys):
    src = _write(tmp_path / "a.json", (0, 1, 4, 6))
    csv = tmp_path / "bp.csv"
    report = tmp_path / "r.json"
    assert main(["analyze", src, "--json", str(report), "--beampattern", str(csv),
                 "--samples", samples]) == 2
    assert "error: beampattern sample count must be at least 1" in capsys.readouterr().err
    assert not csv.exists() and not report.exists()


def test_analyze_missing_file(capsys):
    assert main(["analyze", "/nonexistent/arr.json"]) == 2
    assert "error:" in capsys.readouterr().err


def test_analyze_malformed_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    assert main(["analyze", str(bad)]) == 2
    assert "error:" in capsys.readouterr().err
    # json reads these as floats that int() cannot convert; true reads as 1
    for text in ("[0, Infinity]", "[-Infinity, 3]", "[true, 3]"):
        bad.write_text(text)
        assert "bad element" in _exits_two_with_error(["analyze", str(bad)], capsys)


@pytest.mark.parametrize("last,message", [
    (10 ** 20, "does not fit a 64-bit integer"),  # no int64 vector holds it
    (10 ** 15, "Unable to allocate"),  # the lag-count vector alone needs 8 PB
], ids=("1e20", "1e15"))
def test_analyze_oversized_positions_exit_two(last, message, tmp_path, capsys):
    src = _write(tmp_path / "big.json", (0, last))
    assert main(["analyze", src]) == 2
    out, err = capsys.readouterr()
    assert err.startswith("error: ") and message in err
    assert "Traceback" not in out + err


# counts past 2**63 overflow before anything is allocated
@pytest.mark.parametrize("argv", [
    ["baseline", f"ula:{10 ** 20}"],
    ["expand", "g.json", "--order", str(10 ** 20), "--max-order", str(10 ** 20)],
    ["compare", "--baselines", f"ula:{10 ** 20}"],
    ["simulate", "--baseline", f"ula:{10 ** 20}", "--sources", "1", "--sweep", "snr",
     "--grid", "0", "--trials", "1"],
], ids=["baseline", "expand", "compare", "simulate"])
def test_overflowing_counts_exit_two(argv, tmp_path, monkeypatch, capsys):
    _write(tmp_path / "g.json", (0, 1, 4, 6))
    monkeypatch.chdir(tmp_path)
    err = _exits_two_with_error(argv, capsys)
    assert len(err.splitlines()) == 1


def test_expand_single_generator(tmp_path, capsys):
    gen = _write(tmp_path / "g.json", (0, 1, 4, 6))
    out = tmp_path / "g2.json"
    assert main(["expand", gen, "--order", "2", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    want = expand(SensorArray((0, 1, 4, 6)), 2)
    assert doc["elements"] == list(want.elements)


def test_expand_multi_generators(tmp_path):
    a = _write(tmp_path / "a.json", (0, 1))
    b = _write(tmp_path / "b.json", (0, 1, 2))
    out = tmp_path / "m.json"
    assert main(["expand", a, b, "--order", "2", "--name", "combo", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    want = expand([SensorArray((0, 1)), SensorArray((0, 1, 2))], 2)
    assert doc["elements"] == list(want.elements)
    assert doc["name"] == "combo"


def _expand_summary(gens, order, tmp_path, capsys, monkeypatch):
    """Run expand on generator element tuples; return its summary line, the
    counted line of the array it wrote, and every array a coarray was
    built for during the run."""
    files = [_write(tmp_path / f"gen{i}.json", g) for i, g in enumerate(gens)]
    out = tmp_path / "out.json"
    built = []
    init = core.CoarrayProfile.__init__

    def spy(self, array):
        built.append(array)
        init(self, array)

    with monkeypatch.context() as m:
        m.setattr(core.CoarrayProfile, "__init__", spy)
        assert main(["expand", *files, "--order", str(order), "--out", str(out)]) == 0
    line = capsys.readouterr().out.splitlines()[0]
    return line, cli._summary_line(load_array(out)), built


@pytest.mark.parametrize("gens, order", [
    *[([(0, 1, 4, 6)], r) for r in range(7)],
    *[([(0, 1, 2, 6, 9)], r) for r in range(1, 5)],
    ([(0, 1, 4)], 1), ([(0, 1, 4)], 3), ([(0, 1, 4, 6), (0, 1, 4)], 2),
    ([(0, 1, 4), (0, 1, 4, 6), (0, 1, 2)], 3), ([(0, 1, 4, 6), (0, 2, 3)], 1),
], ids=[*[f"g^{r}" for r in range(7)], *[f"mra5^{r}" for r in range(1, 5)],
        "holed^1", "holed^3", "g,holed", "holed,g,ula", "g,holed@1"])
def test_expand_summary_line_equals_the_counted_line(gens, order, tmp_path, capsys,
                                                     monkeypatch):
    line, counted, built = _expand_summary(gens, order, tmp_path, capsys, monkeypatch)
    assert line == counted
    used = gens[:order]
    if used and all(oracle_hole_free(g) for g in used):
        # the M^r law gives the line: only generators get a coarray
        assert all(a.elements in gens for a in built)


def _holed_elements(rng):
    """Four random sensors over aperture 9 whose coarray has a hole."""
    while True:
        g = (0, *sorted(rng.choice(np.arange(1, 9), size=2, replace=False).tolist()), 9)
        if not oracle_hole_free(g):
            return g


@pytest.mark.parametrize("seed", range(12))
def test_expand_summary_line_on_random_mixed_sequences(seed, hole_free_pool, tmp_path, capsys,
                                                       monkeypatch):
    rng = np.random.default_rng(seed)
    pool = [g for g in hole_free_pool if len(g) >= 2]
    gens = [pool[i] for i in rng.integers(len(pool), size=3)]
    if seed % 3 == 0:
        # one holed generator at a random order sends the line to the counted route
        gens[int(rng.integers(3))] = _holed_elements(rng)
    line, counted, built = _expand_summary(gens, 3, tmp_path, capsys, monkeypatch)
    assert line == counted
    if all(oracle_hole_free(g) for g in gens):
        assert all(a.elements in gens for a in built)
    else:
        assert load_array(tmp_path / "out.json") in built


def test_expand_order_8_in_bounded_memory(tmp_path, capsys, monkeypatch):
    # (0,1,4,6)^8: N = 65,536 and A = 407,865,360, whose counted summary line
    # would allocate a 3 GiB count vector per block; the line comes from
    # the generator instead
    gen = _write(tmp_path / "g.json", (0, 1, 4, 6))
    out = tmp_path / "g8.json"
    init = core.CoarrayProfile.__init__

    def generators_only(self, array):
        # fail at once, not after gigabytes, if the expansion gets counted
        assert len(array) <= 4, f"coarray of {len(array)} sensors built"
        init(self, array)

    monkeypatch.setattr(core.CoarrayProfile, "__init__", generators_only)
    tracemalloc.start()
    try:
        code = main(["expand", gen, "--order", "8", "--out", str(out)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    aperture = (13 ** 8 - 1) // 2
    assert capsys.readouterr().out == (
        f"N=65536 aperture={aperture} |D|={2 * aperture + 1} |U|={2 * aperture + 1} "
        f"hole_free=True symmetric=False\nwrote {out}\n")
    assert load_array(out) == expand(SensorArray((0, 1, 4, 6)), 8)
    assert peak < 200 * 2 ** 20


def test_parser_is_built_once_and_handlers_looked_up_per_call(tmp_path, monkeypatch, capsys):
    cli._build_parser.cache_clear()
    gen = _write(tmp_path / "g.json", (0, 1, 4, 6))
    report = tmp_path / "r.json"
    assert main(["baseline", "ula:4"]) == 0
    assert main(["search", "--max-aperture", "6", "--json", str(tmp_path / "s.json")]) == 1
    assert main(["expand", gen, "--order", "2", "--name", "x",
                 "--out", str(tmp_path / "g2.json")]) == 0
    assert main(["analyze", gen, "--json", str(report)]) == 0
    info = cli._build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 3)
    # nothing of the earlier calls, and no handler, reaches the manifest
    manifest = json.loads((tmp_path / "r.json.manifest.json").read_text())
    assert manifest["config"] == {"array": gen, "beampattern": None, "json": str(report),
                                  "normalize": False, "samples": 1024,
                                  "subcommand": "analyze"}
    calls = []
    monkeypatch.setattr(cli, "_cmd_baseline", lambda args, argv: calls.append(argv) or 5)
    assert main(["baseline", "ula:4"]) == 5
    assert calls == [["baseline", "ula:4"]]
    assert cli._build_parser.cache_info().misses == 1


def test_expand_requires_a_generator(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["expand", "--order", "2"])
    assert exc.value.code == 2
    assert "the following arguments are required: FILE" in capsys.readouterr().err


def test_expand_order_cap_and_override(tmp_path, capsys):
    # each message names a way out that exists: expand its --max-order flag,
    # Cantor arrays none, and the library its max_order for its own callers
    gen = _write(tmp_path / "g.json", (0, 1))
    assert _exits_two_with_error(["expand", gen, "--order", "9"], capsys) == (
        "error: order 9 exceeds the safety cap 8; pass --max-order to override\n")
    assert _exits_two_with_error(["baseline", "cantor:9"], capsys) == (
        "error: order 9 exceeds the safety cap 8\n")
    with pytest.raises(ValueError, match="pass max_order to override"):
        expand(SensorArray((0, 1)), 9)
    assert main(["expand", gen, "--order", "9", "--max-order", "9"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["elements"]) == 512


def test_expand_then_analyze_matches_library(tmp_path, capsys):
    # piping expand output into analyze must agree with direct library calls
    gen = _write(tmp_path / "g.json", (0, 1, 4, 6))
    grown = tmp_path / "g2.json"
    report = tmp_path / "g2.report.json"
    assert main(["expand", gen, "--order", "2", "--out", str(grown)]) == 0
    assert main(["analyze", str(grown), "--json", str(report)]) == 0
    doc = json.loads(report.read_text())
    arr = expand(SensorArray((0, 1, 4, 6)), 2)
    prof = difference_coarray(arr)
    eco = economy(arr)
    assert doc["sensors"] == len(arr)
    assert doc["dof"] == prof.dof
    assert doc["hole_free"] is prof.hole_free
    assert doc["fragility"]["numerator"] == eco.fragility.numerator
    assert doc["fragility"]["denominator"] == eco.fragility.denominator
    assert doc["essential"] == list(eco.essential)


def test_baseline_build(capsys):
    assert main(["baseline", "nested:4,4"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["elements"] == [0, 1, 2, 3, 4, 9, 14, 19]
    assert doc["name"] == "NA(4,4)"


def test_baseline_missing_parameter(capsys):
    assert main(["baseline", "nested:4"]) == 2
    assert "n2" in capsys.readouterr().err


def test_search_small_feasible(capsys):
    rc = main(["search", "--max-aperture", "3", "--max-fragility", "1",
               "--max-leakage", "1", "--all-solutions"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "minimum size 3" in out
    assert "0 1 3" in out and "0 2 3" in out


def test_search_infeasible_exit_code(capsys):
    assert main(["search", "--max-aperture", "7"]) == 1
    assert "no feasible array" in capsys.readouterr().out


def test_search_json_matches_library(tmp_path, capsys):
    doc_path = tmp_path / "res.json"
    assert main(["search", "--max-aperture", "8", "--max-leakage", "0.36",
                 "--json", str(doc_path)]) == 0
    doc = json.loads(doc_path.read_text())
    lib = solve_p1(DesignConstraints(max_aperture=8, max_leakage=0.36))
    assert doc["optimum_size"] == lib.optimum_size
    assert doc["optimum"] == [list(a.elements) for a in lib.optimum]
    assert [[row[key] for key in ("k", "explored", "pruned", "complete")]
            for row in doc["by_size"]] == [list(row) for row in lib.by_size]
    assert (tmp_path / "res.json.manifest.json").exists()


# a bare MemoryError() has no text of its own; numpy's names the allocation
@pytest.mark.parametrize("exc,line", [
    (MemoryError(), "error: out of memory\n"),
    (MemoryError("Unable to allocate 3.04 GiB for an array with shape (408000000,) "
                 "and data type int64"),
     "error: Unable to allocate 3.04 GiB for an array with shape (408000000,) "
     "and data type int64\n"),
], ids=["bare", "numpy"])
def test_memory_error_exits_two_with_one_line(exc, line, monkeypatch, capsys):
    def out_of_memory(args, argv):
        raise exc

    monkeypatch.setattr(cli, "_cmd_search", out_of_memory)
    assert main(["search", "--max-aperture", "5"]) == 2
    out, err = capsys.readouterr()
    assert (out, err) == ("", line)


def test_interrupt_exits_130_with_one_line(monkeypatch, capsys):
    def interrupted(args, argv):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "_cmd_search", interrupted)
    assert main(["search", "--max-aperture", "5"]) == 130
    err = capsys.readouterr().err
    assert err == "error: interrupted\n"


@pytest.mark.parametrize("argv", [
    ["analyze", "g.json"], ["expand", "g.json", "--order", "3"], ["baseline", "nested:4,4"],
], ids=["analyze", "expand", "baseline"])
def test_closed_stdout_exits_141_quietly(tmp_path, argv):
    # the read end is closed before the child starts, so its first write to
    # stdout fails; that is the reader's choice, not an input error
    _write(tmp_path / "g.json", (0, 1, 4, 6))
    src = os.path.dirname(os.path.dirname(cli.__file__))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        out = subprocess.run([sys.executable, "-m", "fracarray.cli", *argv], cwd=tmp_path,
                             stdout=write_end, stderr=subprocess.PIPE, text=True,
                             env=dict(os.environ, PYTHONPATH=src))
    finally:
        os.close(write_end)
    assert out.returncode == 141
    for marker in ("error:", "Traceback", "Exception ignored"):
        assert marker not in out.stderr


def test_search_naive_route_agrees(tmp_path):
    path = tmp_path / "f.json"
    assert main(["search", "--max-aperture", "6", "--max-fragility", "1",
                 "--max-leakage", "1", "--json", str(path)]) == 0
    doc = json.loads(path.read_text())
    size, optima = oracle_solve_p1(
        DesignConstraints(max_aperture=6, max_fragility=1, max_leakage=1))
    assert (doc["optimum_size"], doc["optimum"]) == (size, [list(e) for e in optima])


def test_search_bad_fragility_string(capsys):
    assert main(["search", "--max-aperture", "5", "--max-fragility", "abc"]) == 2
    err = _exits_two_with_error(["search", "--max-aperture", "5", "--max-fragility", "1/0"],
                                capsys)
    assert "'1/0'" in err


def test_search_guard_needs_force(capsys):
    # the CLI names its --force flag; the library keeps naming force=True
    A = APERTURE_GUARD + 1
    assert _exits_two_with_error(["search", "--max-aperture", str(A)], capsys) == (
        f"error: aperture {A} exceeds the exhaustive-search guard {APERTURE_GUARD}; "
        "pass --force\n")
    with pytest.raises(ValueError, match="pass force=True"):
        solve_p1(DesignConstraints(max_aperture=A))


def test_search_rejects_aperture_beyond_a_mask(capsys):
    argv = ["search", "--max-aperture", "64", "--force", "--no-hole-free",
            "--max-fragility", "1"]
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        "error: aperture 64 exceeds 63, the largest span a 64-bit candidate mask holds\n")


# stdout with seconds masked: the optima as the per-candidate route printed
# them, the counts of the outside-in build with its outer fragility and
# leakage cut
SEARCH_20_GOLDEN = """\
minimum size 10, 2 solution(s), explored 2744, pruned 167022, X.XXs
  0 1 2 3 7 9 15 17 19 20
  0 1 3 5 11 13 17 18 19 20
"""


def test_search_golden_output(capsys):
    assert main(["search", "--max-aperture", "20", "--all-solutions"]) == 0
    out = re.sub(r", \d+\.\d\ds$", ", X.XXs", capsys.readouterr().out, flags=re.M)
    assert out == SEARCH_20_GOLDEN


SIM_BASE = ["simulate", "--baseline", "mra:4", "--sources", "1",
            "--snapshots", "100", "--trials", "3", "--grid-size", "1024",
            "--sweep", "snr", "--grid", "0"]


def test_simulate_csv_and_reproducibility(tmp_path, capsys):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(SIM_BASE + ["--out", str(out1)]) == 0
    assert main(SIM_BASE + ["--out", str(out2)]) == 0
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()
    header, row = out1.read_text().strip().splitlines()
    assert header == "axis_value,rmse,success_count,trial_count"
    cells = row.split(",")
    assert cells[0] == "0"
    assert cells[2] == "3" and cells[3] == "3"
    assert float(cells[1]) >= 0


def test_simulate_threads_match_serial(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(SIM_BASE + ["--out", str(a), "--threads", "1"]) == 0
    assert main(SIM_BASE + ["--out", str(b), "--threads", "2"]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_simulate_bad_thread_env(monkeypatch, capsys):
    # only --threads sets the thread count; the environment is not read
    assert main(SIM_BASE) == 0
    want = capsys.readouterr()
    monkeypatch.setenv("FRACARRAY_THREADS", "abc")
    assert main(SIM_BASE) == 0
    assert capsys.readouterr() == want


@pytest.mark.parametrize("threads", ["0", "-3"])
def test_simulate_rejects_thread_count_below_one(threads, capsys):
    assert _exits_two_with_error(SIM_BASE + ["--threads", threads], capsys) == (
        f"error: thread count must be at least 1, got {threads}\n")


def test_simulate_dump_trials(tmp_path, capsys):
    dump = tmp_path / "trials.jsonl"
    assert main(SIM_BASE + ["--out", str(tmp_path / "o.csv"),
                            "--dump-trials", str(dump)]) == 0
    lines = [json.loads(l) for l in dump.read_text().splitlines()]
    assert len(lines) == 3
    assert all(rec["success"] for rec in lines)
    assert all(len(rec["estimates"]) == 1 for rec in lines)
    assert [rec["trial"] for rec in lines] == [0, 1, 2]


def test_simulate_dump_names_failure_causes(tmp_path, capsys):
    dump = tmp_path / "trials.jsonl"
    assert main(["simulate", "--baseline", "ula:2", "--sources", "1", "--snapshots", "20",
                 "--trials", "12", "--grid-size", "512", "--sweep", "failure",
                 "--grid", "0.8", "--dump-trials", str(dump)]) == 0
    recs = [json.loads(l) for l in dump.read_text().splitlines()]
    for rec in recs:
        assert list(rec) == ["axis_value", "trial", "success", "estimates", "failure"]
        assert rec["success"] == (rec["failure"] is None) == (rec["estimates"] is not None)
    assert {rec["failure"] for rec in recs} == {None, "all_dead", "identifiability"}
    assert capsys.readouterr().out.splitlines()[0] == "axis_value,rmse,success_count,trial_count"


def test_simulate_threads_match_serial_on_ragged_trials(tmp_path):
    # failure sweep with random-phase coupling: m differs from trial to trial
    src = _write(tmp_path / "g2.json", expand(SensorArray((0, 1, 4, 6)), 2).elements)
    outs = []
    for threads in ("1", "2"):
        csv, dump = tmp_path / f"{threads}.csv", tmp_path / f"{threads}.jsonl"
        assert main(["simulate", "--array", src, "--sources", "10", "--snapshots", "200",
                     "--trials", "4", "--grid-size", "2048", "--sweep", "failure",
                     "--grid", "0,0.1,0.2", "--coupling-c1-mag", "0.3",
                     "--threads", threads, "--out", str(csv), "--dump-trials", str(dump)]) == 0
        outs.append((csv.read_bytes(), dump.read_bytes()))
    assert outs[0] == outs[1]
    assert b'"failure": "identifiability"' in outs[0][1]


@pytest.mark.parametrize("flags", [["--grid", "nan"], ["--grid=-inf"], ["--grid", "0,nan"],
                                   ["--grid", "0", "--snr", "nan"]])
def test_simulate_rejects_nan_and_minus_inf_snr(flags, tmp_path, capsys):
    dump = tmp_path / "trials.jsonl"
    assert main(SIM_BASE[:-2] + flags + ["--dump-trials", str(dump)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: SNR must be finite, or inf for noiseless, got ")
    assert not dump.exists()
    assert not (tmp_path / "trials.jsonl.manifest.json").exists()


def test_simulate_rejected_failure_grid_leaves_no_dump(tmp_path, capsys):
    dump = tmp_path / "trials.jsonl"
    assert main(SIM_BASE[:-4] + ["--sweep", "failure", "--grid", "1.5",
                                 "--dump-trials", str(dump)]) == 2
    assert capsys.readouterr().err == "error: failure probability must lie in [0, 1)\n"
    assert sorted(tmp_path.iterdir()) == []


def test_simulate_infinite_snr_is_noiseless(capsys):
    assert main(SIM_BASE[:-1] + ["inf"]) == 0
    assert capsys.readouterr().out.splitlines()[1].startswith("inf,")


def test_simulate_total_failure_exit_code(tmp_path, capsys):
    rc = main(["simulate", "--baseline", "nested:4,4", "--sources", "20",
               "--snapshots", "50", "--trials", "2", "--grid-size", "1024",
               "--sweep", "failure", "--grid", "0"])
    assert rc == 1
    out, err = capsys.readouterr()
    assert "every trial failed" in err
    assert ",,0,2" in out  # empty rmse cell


def test_simulate_source_choice_validation(capsys):
    assert main(["simulate", "--sources", "1", "--sweep", "snr", "--grid", "0"]) == 2
    assert main(["simulate", "--array", "x.json", "--baseline", "mra:4",
                 "--sources", "1", "--sweep", "snr", "--grid", "0"]) == 2


@pytest.mark.parametrize("text,want", [
    ("0:10:3.5", [0, 3.5, 7]),
    ("0:0.9:0.35", [0, 0.35, 0.7]),
    ("0:1:0.1", [i / 10 for i in range(11)]),
    ("-10:20:5", [-10, -5, 0, 5, 10, 15, 20]),
    ("0:0:1", [0]),
])
def test_grid_points_stop_at_stop(text, want):
    # each point is exactly the decimal the CSV prints
    assert _parse_grid(text) == want


def test_range_and_list_grids_run_the_same_trials(capsys):
    base = ["simulate", "--baseline", "mra:5", "--sources", "3", "--sweep", "failure",
            "--trials", "20", "--grid"]
    assert main(base + ["0:0.3:0.1"]) == 0
    ranged = capsys.readouterr().out
    assert main(base + ["0,0.1,0.2,0.3"]) == 0
    assert capsys.readouterr().out == ranged


def test_simulate_failure_grid_within_range(capsys):
    assert main(SIM_BASE[:-4] + ["--sweep", "failure", "--grid", "0:0.9:0.35"]) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert [row.split(",")[0] for row in rows] == ["0", "0.35", "0.7"]


def test_simulate_bad_grid_and_range(capsys, tmp_path):
    assert main(SIM_BASE[:-1] + ["5:1:1"]) == 2
    assert main(SIM_BASE + ["--range", "nonsense"]) == 2
    # the last grid would need 10**18 points, so it must fail before any is built
    for grid, message in (("0:inf:1", "finite"), ("nan:1:1", "finite"),
                          ("0:1e9:1e-9", "more than 100000 points")):
        err = _exits_two_with_error(SIM_BASE[:-1] + [grid], capsys)
        assert f"grid {grid!r}" in err and message in err
    assert len(_parse_grid("0:99999:1")) == 100_000
    err = _exits_two_with_error(SIM_BASE + ["--seed", "-1"], capsys)
    assert "seed must be non-negative, got -1" in err


def test_compare_table(tmp_path, capsys):
    src = _write(tmp_path / "s.json", S_ELEMS, name="S")
    rc = main(["compare", "--arrays", src, "--baselines", "ula:5;mra:4",
               "--metrics", "n,dof,fragility,leakage"])
    assert rc == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert lines[0].split() == ["array", "n", "dof", "fragility", "leakage"]
    assert len(lines) == 4
    assert lines[1].startswith("S")
    assert "ULA(5)" in out and "MRA(4)" in out


def test_compare_outputs(tmp_path, capsys):
    csv, js = tmp_path / "t.csv", tmp_path / "t.json"
    rc = main(["compare", "--baselines", "ula:4", "--metrics", "n,aperture",
               "--csv", str(csv), "--json", str(js)])
    assert rc == 0
    rows = csv.read_text().strip().splitlines()
    assert rows[0] == "array,n,aperture"
    assert rows[1] == "ULA(4),4,3"
    doc = json.loads(js.read_text())
    assert doc[0]["n"] == 4
    assert (tmp_path / "t.csv.manifest.json").exists()
    assert (tmp_path / "t.json.manifest.json").exists()


def test_compare_validation(capsys):
    assert main(["compare", "--baselines", "ula:5", "--metrics", "sparkle"]) == 2
    capsys.readouterr()
    # a row is a dict, so a repeated metric would give the JSON one column
    # and the table and CSV two
    assert main(["compare", "--baselines", "ula:3", "--metrics", "n,n"]) == 2
    assert capsys.readouterr().err == "error: metric 'n' is named twice\n"
    assert main(["compare", "--metrics", "n"]) == 2
    assert main(["compare", "--baselines", "ula-5"]) == 2


@pytest.mark.parametrize("command", [["search", "--max-aperture", "6"],
                                     ["compare", "--baselines", "ula:5"]])
# no subcommand takes --coupling-phases: in simulate a given phase fixes them
@pytest.mark.parametrize("flag", [["--coupling-phases", "random"],
                                  ["--coupling-c1-phase", "1"], ["--seed", "3"]])
def test_search_and_compare_take_no_phase_or_seed_flags(command, flag, capsys):
    with pytest.raises(SystemExit) as exc:
        main(command + flag)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_simulate_takes_phase_and_seed_flags(capsys):
    assert main(SIM_BASE + ["--coupling-c1-mag", "0.2", "--coupling-c1-phase", "1",
                            "--seed", "3"]) == 0


@pytest.mark.parametrize("coupling", [[], ["--coupling-c1-mag", "0"]])
def test_simulate_rejects_a_phase_without_coupling(coupling, tmp_path, capsys):
    # a phase is never silently ignored
    out, dump = tmp_path / "sim.csv", tmp_path / "trials.jsonl"
    assert _exits_two_with_error(SIM_BASE + coupling + [
        "--coupling-c1-phase", "1", "--out", str(out), "--dump-trials", str(dump)], capsys) == (
        "error: --coupling-c1-phase needs coupling: a --coupling-c1-mag above 0 "
        "or --sweep coupling\n")
    assert sorted(tmp_path.iterdir()) == []


@pytest.mark.parametrize("phase", ["nan", "inf", "-inf"])
def test_simulate_rejects_a_non_finite_phase(phase, tmp_path, capsys):
    # CouplingModel rejects it, before any draw can warn or LAPACK fail
    src = _write(tmp_path / "g.json", (0, 1, 4, 6))
    dump = tmp_path / "trials.jsonl"
    assert _exits_two_with_error([
        "simulate", "--array", src, "--sources", "3", "--sweep", "snr", "--grid", "0",
        "--trials", "2", "--coupling-c1-mag", "0.2", f"--coupling-c1-phase={phase}",
        "--dump-trials", str(dump)], capsys) == f"error: c1 phase must be finite, got {phase}\n"
    assert not dump.exists()


def test_each_array_builds_its_coarray_once_per_request(tmp_path, capsys, coarray_builds):
    big = expand(SensorArray((0, 1, 4, 6)), 3)
    src = _write(tmp_path / "g3.json", big.elements)
    holed = _write(tmp_path / "h.json", (0, 2, 3, 9))
    coarray_builds.clear()  # expand's build of the generator's
    assert main(["analyze", src, "--json", str(tmp_path / "r.json"),
                 "--beampattern", str(tmp_path / "bp.csv")]) == 0
    assert [a.elements for a in coarray_builds] == [big.elements]
    coarray_builds.clear()
    assert main(["compare", "--arrays", f"{src},{holed}", "--baselines", "nested:2,2;mra:5",
                 "--metrics", ",".join(cli._COMPARE_METRICS)]) == 0
    assert [a.elements for a in coarray_builds] == [
        big.elements, (0, 2, 3, 9), nested(2, 2).elements, mra(5).elements]


def test_compare_keeps_no_array_past_its_row(monkeypatch, capsys):
    # an array keeps its coarray, so a table of large arrays holds one
    # count vector at a time, not one per row
    seen = []
    measure = cli._measure

    def spy(array, model=None):
        assert all(ref() is None for ref in seen)
        seen.append(weakref.ref(array))
        return measure(array, model)

    monkeypatch.setattr(cli, "_measure", spy)
    assert main(["compare", "--baselines", "ula:5;nested:2,2;mra:5"]) == 0
    assert len(seen) == 3


def _sweep_csv(points):
    return "axis_value,rmse,success_count,trial_count\n" + "".join(
        f"{p.value:.12g},{'' if p.rmse is None else f'{p.rmse:.12g}'},"
        f"{p.success_count},{p.trial_count}\n" for p in points)


def test_simulate_phase_fixes_the_progression(tmp_path):
    common = ["simulate", "--baseline", "mra:4", "--sources", "2", "--snapshots", "100",
              "--trials", "3", "--grid-size", "1024", "--sweep", "coupling", "--grid", "0.3"]
    csv = {}
    for key, phase in (("random", []), ("pi/3", ["--coupling-c1-phase", repr(np.pi / 3)]),
                       ("1", ["--coupling-c1-phase", "1"])):
        csv[key] = tmp_path / f"{len(csv)}.csv"
        assert main(common + phase + ["--out", str(csv[key])]) == 0
        csv[key] = csv[key].read_text()
    base = Scenario(array=mra(4), thetas=equally_spaced_thetas(2, -0.45, 0.45),
                    snapshots=100, snr_db=0.0, trials=3, seed=0, grid_size=1024,
                    coupling=CouplingModel(c1_magnitude=0.0, phase_mode="fixed"))
    points = run_sweep(base, "coupling_c1_mag", [0.3])
    assert csv["pi/3"] == _sweep_csv(points)
    random = replace(base, coupling=replace(base.coupling, phase_mode="random"))
    assert csv["random"] == _sweep_csv(run_sweep(random, "coupling_c1_mag", [0.3]))
    assert len({csv["random"], csv["pi/3"], csv["1"]}) == 3


def test_unknown_flag_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["baseline", "cantor:2", "--frobnicate"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --frobnicate" in capsys.readouterr().err


# every settable value of every subcommand, -h aside: a second spelling of
# an input cannot return unnoticed
CLI_SURFACE = {
    "analyze": {"array", "--json", "--beampattern", "--samples", "--normalize"},
    "expand": {"generators", "--order", "--max-order", "--name", "--out"},
    "baseline": {"spec", "--out"},
    "search": {"--max-aperture", "--symmetric", "--hole-free", "--max-fragility",
               "--max-leakage", "--exact-aperture", "--coupling-q", "--coupling-c1-mag",
               "--all-solutions", "--force", "--json"},
    "simulate": {"--array", "--baseline", "--sources", "--range", "--snapshots", "--trials",
                 "--snr", "--sweep", "--grid", "--grid-size", "--seed", "--threads",
                 "--coupling-q", "--coupling-c1-mag", "--coupling-c1-phase", "--out",
                 "--dump-trials"},
    "compare": {"--arrays", "--baselines", "--metrics", "--coupling-q", "--coupling-c1-mag",
                "--json", "--csv"},
}


def test_cli_surface_has_one_spelling_per_input(capsys):
    subs = next(a for a in cli._build_parser()._actions
                if isinstance(a, argparse._SubParsersAction))
    assert list(subs.choices) == list(CLI_SURFACE)
    for name, sub in subs.choices.items():
        # a BooleanOptionalAction's --no- form sets the same value
        got = {a.option_strings[0] if a.option_strings else a.dest
               for a in sub._actions if not isinstance(a, argparse._HelpAction)}
        assert got == CLI_SURFACE[name], name
    assert sum(len(v) for v in CLI_SURFACE.values()) == 47
    for name in CLI_SURFACE:
        with pytest.raises(SystemExit) as exc:
            main([name, "--help"])
        assert exc.value.code == 0
        text = capsys.readouterr().out
        if name == "baseline":
            assert all(f"{kind}:" in text for kind in _BUILDERS)


# each parser default the library also states, as (subcommand, dest, owner,
# field); simulate's --coupling-c1-mag 0.0 is CLI policy and not listed
LIBRARY_DEFAULTS = [
    ("search", "symmetric", DesignConstraints, "require_symmetric"),
    ("search", "hole_free", DesignConstraints, "require_hole_free"),
    ("search", "max_fragility", DesignConstraints, "max_fragility"),
    ("search", "max_leakage", DesignConstraints, "max_leakage"),
    ("search", "exact_aperture", DesignConstraints, "exact_aperture"),
    ("search", "coupling_q", CouplingModel, "q"),
    ("search", "coupling_c1_mag", CouplingModel, "c1_magnitude"),
    ("compare", "coupling_q", CouplingModel, "q"),
    ("compare", "coupling_c1_mag", CouplingModel, "c1_magnitude"),
    ("simulate", "coupling_q", CouplingModel, "q"),
    ("simulate", "snapshots", Scenario, "snapshots"),
    ("simulate", "trials", Scenario, "trials"),
    ("simulate", "snr", Scenario, "snr_db"),
    ("simulate", "seed", Scenario, "seed"),
    ("simulate", "grid_size", Scenario, "grid_size"),
]


def test_parser_defaults_are_the_library_defaults():
    minimal = {"search": ["--max-aperture", "5"], "compare": [],
               "simulate": ["--sources", "1", "--sweep", "snr", "--grid", "0"]}
    parser = cli._build_parser()
    parsed = {sub: parser.parse_args([sub] + argv) for sub, argv in minimal.items()}
    for sub, dest, owner, name in LIBRARY_DEFAULTS:
        default = next(f.default for f in fields(owner) if f.name == name)
        got = getattr(parsed[sub], dest)
        assert (type(got), got) == (type(default), default), (sub, dest)
    # the search's coupling model is the rules' default one
    assert cli._coupling_from_args(parsed["search"]) == DesignConstraints(1).coupling


def test_compare_takes_cantor_baselines(tmp_path):
    js = tmp_path / "t.json"
    assert main(["compare", "--baselines", "cantor:3;nested:4,4", "--metrics", ALL_METRICS,
                 "--json", str(js)]) == 0
    want = []
    for arr in (cantor(3), nested(4, 4)):
        values = cli._measure(arr, CouplingModel())
        values["fragility"] = float(values["fragility"])
        want.append({"array": arr.name, **{m: values[m] for m in ALL_METRICS.split(",")}})
    assert json.loads(js.read_text()) == want


# Golden outputs captured before analyze and compare shared one metric
# table; they pin every byte of the text, CSV and JSON the commands write.

GOLDEN_ANALYZE_S = "\n".join([
    "name                S",
    "elements            0 1 2 4 7 10 13 16 18 19 20",
    "sensors             11",
    "aperture            20",
    "coarray size |D|    41",
    "central ULA |U|     41",
    "hole-free           True",
    "symmetric           True",
    "fragility           3/11 (0.2727)",
    "maximally economic  False",
    "C1 satisfied        False",
]) + "\n"

GOLDEN_ANALYZE_S_JSON = {
    "name": "S",
    "elements": list(S_ELEMS),
    "sensors": 11,
    "aperture": 20,
    "dof": 41,
    "ula_size": 41,
    "hole_free": True,
    "symmetric": True,
    "fragility": {"numerator": 3, "denominator": 11, "value": 0.2727272727272727},
    "maximally_economic": False,
    "satisfies_C1": False,
    "essential": [0, 10, 20],
}

ALL_METRICS = "n,aperture,dof,ula,hole_free,symmetric,fragility,economy,c1,leakage"

GOLDEN_COMPARE = "\n".join([
    "array    n   aperture  dof  ula  hole_free  symmetric  fragility      economy  c1     leakage",
    "S        11  20        41   41   True       True       3/11 (0.2727)  False    False  0.3039 ",
    "H4^2     16  84        169  169  True       False      1/1 (1.0000)   True     True   0.2529 ",
    "ULA(5)   5   4         9    9    True       True       2/5 (0.4000)   False    False  0.3917 ",
    "MRA(4)   4   6         13   13   True       False      1/1 (1.0000)   True     True   0.2508 ",
    "CP(3,4)  9   20        35   29   False      False      2/3 (0.6667)   False    False  0.2584 ",
]) + "\n"

GOLDEN_COMPARE_CSV = "\n".join([
    "array,n,aperture,dof,ula,hole_free,symmetric,fragility,economy,c1,leakage",
    "S,11,20,41,41,True,True,0.2727272727272727,False,False,0.30394613259513803",
    "H4^2,16,84,169,169,True,False,1.0,True,True,0.25287476606578907",
    "ULA(5),5,4,9,9,True,True,0.4,False,False,0.39171310092866873",
    "MRA(4),4,6,13,13,True,False,1.0,True,True,0.25078214049707026",
    "CP(3,4),9,20,35,29,False,False,0.6666666666666666,False,False,0.2584202820168557",
]) + "\n"

GOLDEN_COMPARE_JSON = [
    {"array": name, "n": n, "aperture": a, "dof": dof, "ula": u, "hole_free": hf,
     "symmetric": sym, "fragility": frag, "economy": eco, "c1": c1, "leakage": leak}
    for name, n, a, dof, u, hf, sym, frag, eco, c1, leak in [
        ("S", 11, 20, 41, 41, True, True, 0.2727272727272727, False, False, 0.30394613259513803),
        ("H4^2", 16, 84, 169, 169, True, False, 1.0, True, True, 0.25287476606578907),
        ("ULA(5)", 5, 4, 9, 9, True, True, 0.4, False, False, 0.39171310092866873),
        ("MRA(4)", 4, 6, 13, 13, True, False, 1.0, True, True, 0.25078214049707026),
        ("CP(3,4)", 9, 20, 35, 29, False, False, 0.6666666666666666, False, False, 0.2584202820168557),
    ]
]


def test_analyze_golden_output(tmp_path, capsys):
    src = _write(tmp_path / "s.json", S_ELEMS, name="S")
    report = tmp_path / "report.json"
    assert main(["analyze", src, "--json", str(report)]) == 0
    assert capsys.readouterr().out == GOLDEN_ANALYZE_S
    assert report.read_text() == json.dumps(GOLDEN_ANALYZE_S_JSON, indent=2) + "\n"


def test_compare_golden_output(tmp_path, capsys):
    s = _write(tmp_path / "s.json", S_ELEMS, name="S")
    h = _write(tmp_path / "h.json", expand(SensorArray((0, 1, 4, 6)), 2).elements, name="H4^2")
    csv, js = tmp_path / "t.csv", tmp_path / "t.json"
    assert main(["compare", "--arrays", f"{s},{h}", "--baselines", "ula:5;mra:4;coprime:3,4",
                 "--metrics", ALL_METRICS, "--csv", str(csv), "--json", str(js)]) == 0
    assert capsys.readouterr().out == GOLDEN_COMPARE
    assert csv.read_text() == GOLDEN_COMPARE_CSV
    assert js.read_text() == json.dumps(GOLDEN_COMPARE_JSON, indent=2) + "\n"


# every file the CLI writes: argv with {d} for the test directory, the file
# written, and text it must hold once decoded as UTF-8
GEN_NAME = "Ω-génér"
WRITTEN_FILES = [
    (["expand", "{d}/g.json", "--order", "2", "--out", "{d}/g2.json"], "g2.json", ""),
    (["baseline", "cantor:3", "--out", "{d}/c3.json"], "c3.json", ""),
    (["baseline", "nested:2,3", "--out", "{d}/na.json"], "na.json", ""),
    (["analyze", "{d}/g.json", "--json", "{d}/report.json"], "report.json", ""),
    (["analyze", "{d}/g.json", "--beampattern", "{d}/bp.csv", "--samples", "16"], "bp.csv", ""),
    (["search", "--max-aperture", "6", "--max-fragility", "1", "--max-leakage", "1",
      "--json", "{d}/search.json"], "search.json", ""),
    (SIM_BASE + ["--out", "{d}/sim.csv"], "sim.csv", ""),
    (SIM_BASE + ["--dump-trials", "{d}/trials.jsonl"], "trials.jsonl", ""),
    (["compare", "--arrays", "{d}/g.json", "--baselines", "ula:4", "--json", "{d}/cmp.json"],
     "cmp.json", ""),
    (["compare", "--arrays", "{d}/g.json", "--baselines", "ula:4", "--csv", "{d}/cmp.csv"],
     "cmp.csv", GEN_NAME),
]


@pytest.mark.parametrize("argv,written,holds", WRITTEN_FILES,
                         ids=[w for _, w, _ in WRITTEN_FILES])
def test_every_written_file_has_a_matching_manifest(argv, written, holds, tmp_path, capsys):
    _write(tmp_path / "g.json", (0, 1, 4, 6), name=GEN_NAME)
    assert main([a.format(d=tmp_path) for a in argv]) == 0
    data = (tmp_path / written).read_bytes()
    assert holds in data.decode("utf-8")
    manifest = json.loads((tmp_path / f"{written}.manifest.json").read_text())
    assert manifest["outputs"] == [{"path": written,
                                    "sha256": hashlib.sha256(data).hexdigest(),
                                    "bytes": len(data)}]
