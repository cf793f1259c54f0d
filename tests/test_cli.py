import hashlib
import json
import re

import pytest

from fracarray import (
    APERTURE_GUARD,
    DesignConstraints,
    SensorArray,
    difference_coarray,
    economy,
    expand,
    solve_p1,
)
from fracarray.cli import _parse_grid, main
from conftest import S_ELEMS, oracle_solve_p1


def _write(path, elements, name=""):
    path.write_text(json.dumps({"name": name, "elements": list(elements)}))
    return str(path)


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
    assert main(["cantor", "--order", "2"]) == 0
    out, err = capsys.readouterr()
    doc = json.loads(out)
    assert doc["elements"] == [0, 1, 3, 4]
    assert "N=4" in err and "hole_free=True" in err


def test_cantor_out_file_with_manifest(tmp_path, capsys):
    out = tmp_path / "c3.json"
    assert main(["cantor", "--order", "3", "--out", str(out)]) == 0
    assert "wrote" in capsys.readouterr().out
    doc = json.loads(out.read_text())
    assert doc["elements"] == [0, 1, 3, 4, 9, 10, 12, 13]
    manifest = json.loads((tmp_path / "c3.json.manifest.json").read_text())
    assert manifest["tool"] == "fracarray"
    assert manifest["command"][:2] == ["fracarray", "cantor"]
    assert manifest["outputs"][0]["sha256"] == hashlib.sha256(out.read_bytes()).hexdigest()
    assert manifest["outputs"][0]["bytes"] == out.stat().st_size


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
    assert main(["expand", "--generators", f"{a},{b}", "--order", "2",
                 "--name", "combo", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    want = expand([SensorArray((0, 1)), SensorArray((0, 1, 2))], 2)
    assert doc["elements"] == list(want.elements)
    assert doc["name"] == "combo"


def test_expand_requires_a_generator(capsys):
    assert main(["expand", "--order", "2"]) == 2


def test_expand_order_cap_and_override(tmp_path, capsys):
    gen = _write(tmp_path / "g.json", (0, 1))
    assert main(["expand", gen, "--order", "9"]) == 2
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
    assert main(["baseline", "--kind", "nested", "--n1", "4", "--n2", "4"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["elements"] == [0, 1, 2, 3, 4, 9, 14, 19]
    assert doc["name"] == "NA(4,4)"


def test_baseline_missing_parameter(capsys):
    assert main(["baseline", "--kind", "nested", "--n1", "4"]) == 2
    assert "--n2" in capsys.readouterr().err


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
    assert (tmp_path / "res.json.manifest.json").exists()


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


def test_search_guard_needs_force(capsys):
    assert main(["search", "--max-aperture", str(APERTURE_GUARD + 1)]) == 2
    assert "force" in capsys.readouterr().err


def test_search_rejects_aperture_beyond_a_mask(capsys):
    argv = ["search", "--max-aperture", "64", "--force", "--no-hole-free",
            "--max-fragility", "1"]
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        "error: aperture 64 exceeds 63, the largest span a 64-bit candidate mask holds\n")


# stdout of the per-candidate route the block kernel replaced, seconds masked
SEARCH_20_GOLDEN = """\
minimum size 10, 2 solution(s), explored 164730, pruned 5036, X.XXs
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


def test_simulate_thread_env_default(tmp_path, monkeypatch):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(SIM_BASE + ["--out", str(a)]) == 0
    monkeypatch.setenv("FRACARRAY_THREADS", "3")
    assert main(SIM_BASE + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_simulate_bad_thread_env(monkeypatch, capsys):
    # the variable is read only by simulate, and a bad value is an input error
    monkeypatch.setenv("FRACARRAY_THREADS", "abc")
    assert main(["cantor", "--order", "2"]) == 0
    capsys.readouterr()
    assert main(SIM_BASE) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "FRACARRAY_THREADS" in err


@pytest.mark.parametrize("threads", ["0", "-3"])
def test_simulate_rejects_thread_count_below_one(threads, monkeypatch, capsys):
    assert main(SIM_BASE + ["--threads", threads]) == 2
    assert capsys.readouterr().err.startswith("error:")
    monkeypatch.setenv("FRACARRAY_THREADS", threads)
    assert main(SIM_BASE) == 2
    assert capsys.readouterr().err.startswith("error:")


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
    assert _parse_grid(text) == pytest.approx(want, abs=1e-12)


def test_simulate_failure_grid_within_range(capsys):
    assert main(SIM_BASE[:-4] + ["--sweep", "failure", "--grid", "0:0.9:0.35"]) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert [row.split(",")[0] for row in rows] == ["0", "0.35", "0.7"]


def test_simulate_bad_grid_and_range(capsys, tmp_path):
    assert main(SIM_BASE[:-1] + ["5:1:1"]) == 2
    assert main(SIM_BASE + ["--range", "nonsense"]) == 2


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
    assert main(["compare", "--metrics", "n"]) == 2
    assert main(["compare", "--baselines", "ula-5"]) == 2


def test_unknown_flag_exits_two():
    with pytest.raises(SystemExit) as exc:
        main(["cantor", "--order", "2", "--frobnicate"])
    assert exc.value.code == 2


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
