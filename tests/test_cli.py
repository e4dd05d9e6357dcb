import json
import subprocess
import sys
from pathlib import Path

import pytest

from mtfloer import cli
from mtfloer.errors import BadParams

GOLDEN = Path(__file__).resolve().parent.parent / "golden" / "sweep_g4_n3.json"


def run_main(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- helpers --------------------------------------------------------------------


def test_parse_n_range():
    assert cli._parse_n_range("-2..2") == [-2, -1, 1, 2]
    assert cli._parse_n_range("3") == [3]
    assert cli._parse_n_range("-3") == [-3]
    assert cli._parse_n_range("2..2") == [2]
    with pytest.raises(BadParams):
        cli._parse_n_range("3..1")
    with pytest.raises(BadParams):
        cli._parse_n_range("0")
    with pytest.raises(BadParams):
        cli._parse_n_range("0..0")


def test_worker_count(monkeypatch):
    monkeypatch.delenv("MTFLOER_THREADS", raising=False)
    assert 1 <= cli._worker_count() <= 4
    monkeypatch.setenv("MTFLOER_THREADS", "1")
    assert cli._worker_count() == 1
    monkeypatch.setenv("MTFLOER_THREADS", "0")
    assert cli._worker_count() == 1
    monkeypatch.setenv("MTFLOER_THREADS", "abc")
    with pytest.raises(BadParams):
        cli._worker_count()


# -- compute -----------------------------------------------------------------------


def test_compute_both_json(capsys):
    code, out, err = run_main(
        capsys, "compute", "--g", "3", "--n", "2", "--k", "1", "--format", "json"
    )
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert payload["match"] is True
    assert payload["shift"] == 0
    assert payload["oracle"]["gate"] == "passed"
    assert payload["oracle"]["degrees"] == payload["closed"]["degrees"]
    assert payload["closed"]["degrees"] == [
        {"degree": 2, "rank": 7, "torsion": []},
        {"degree": 3, "rank": 3, "torsion": []},
    ]


def test_compute_csv_exact_bytes(capsys):
    code, out, err = run_main(
        capsys, "compute", "--g", "3", "--n", "2", "--k", "1", "--format", "csv"
    )
    assert code == 0
    assert out == (
        "g,n,k,degree,rank_oracle,rank_closed,match\n"
        "3,2,1,2,7,7,true\n"
        "3,2,1,3,3,3,true\n"
    )


def test_compute_table_format(capsys):
    code, out, err = run_main(capsys, "compute", "--g", "3", "--n", "-2", "--k", "1")
    assert code == 0
    assert "(g=3, n=-2, k=1) oracle:" in out
    assert "(g=3, n=-2, k=1) closed form:" in out
    assert "match: true" in out


def test_compute_single_method_csv(capsys):
    code, out, err = run_main(
        capsys,
        "compute", "--g", "2", "--n", "1", "--k", "1",
        "--method", "oracle", "--format", "csv",
    )
    assert code == 0
    assert out.splitlines() == [
        "g,n,k,degree,rank_oracle,rank_closed,match",
        "2,1,1,2,1,,",
    ]


def test_compute_adjunction_vanishing(capsys):
    code, out, err = run_main(
        capsys, "compute", "--g", "3", "--n", "2", "--k", "5", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["match"] is True
    assert payload["oracle"]["vanishes_by_adjunction"] is True
    assert payload["oracle"]["pipeline"] == "adjunction"
    assert payload["closed"]["degrees"] == []

    code, out, err = run_main(capsys, "compute", "--g", "3", "--n", "2", "--k", "5")
    assert code == 0
    assert "vanishes by adjunction" in out


def test_compute_bad_params_exit_two(capsys):
    code, out, err = run_main(capsys, "compute", "--g", "3", "--n", "2", "--k", "0")
    assert code == 2
    assert "error:" in err
    code, out, err = run_main(capsys, "compute", "--g", "3", "--n", "0", "--k", "1")
    assert code == 2
    code, out, err = run_main(capsys, "compute", "--g", "1", "--n", "1", "--k", "1")
    assert code == 2


# -- verify --------------------------------------------------------------------------


def test_verify_default_grid(capsys):
    code, out, err = run_main(capsys, "verify", "--g-max", "2")
    assert code == 0 and err == ""
    report = json.loads(out)
    assert report["schema"] == "1"
    assert report["g_max"] == 2
    assert report["n_values"] == [-2, -1, 1, 2]
    assert len(report["entries"]) == 4
    for entry in report["entries"]:
        assert entry["match"] is True
        assert entry["shift"] == 0
        assert entry["gate"] == "passed"
        assert entry["wall_time"] == 0.0


def test_verify_single_n_and_csv(capsys):
    code, out, err = run_main(
        capsys, "verify", "--g-max", "3", "--n", "2", "--format", "csv"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "g,n,k,degree,rank_oracle,rank_closed,match"
    assert all(line.split(",")[1] == "2" for line in lines[1:])
    assert all(line.endswith("true") for line in lines[1:])


def test_verify_emit_writes_report(capsys, tmp_path):
    target = tmp_path / "report.json"
    code, out, err = run_main(
        capsys, "verify", "--g-max", "2", "--n", "1", "--emit", str(target)
    )
    assert code == 0
    assert out == f"verify: 1/1 triples match; report written to {target}\n"
    report = json.loads(target.read_text())
    assert report["schema"] == "1"
    assert len(report["entries"]) == 1


def test_verify_output_is_deterministic(capsys, monkeypatch):
    args = ("verify", "--g-max", "3", "--n", "-1..1")
    _, first, _ = run_main(capsys, *args)
    _, second, _ = run_main(capsys, *args)
    assert first == second
    monkeypatch.setenv("MTFLOER_THREADS", "1")
    _, serial, _ = run_main(capsys, *args)
    assert serial == first


def test_verify_timing_flag_records_nonzero(capsys):
    code, out, err = run_main(capsys, "verify", "--g-max", "2", "--n", "1", "--timing")
    assert code == 0
    entry = json.loads(out)["entries"][0]
    assert entry["wall_time"] > 0.0


def test_verify_corrupt_hook_fails_the_sweep(capsys):
    code, out, err = run_main(
        capsys, "verify", "--g-max", "4", "--n", "2", "--corrupt-d2"
    )
    assert code == 3
    assert "verify: first mismatch at g=4 n=2 k=1" in err
    report = json.loads(out)
    by_params = {
        (e["params"]["g"], e["params"]["k"]): e["match"] for e in report["entries"]
    }
    assert by_params[(2, 1)] and by_params[(3, 1)] and by_params[(3, 2)]
    assert not by_params[(4, 1)]


def test_verify_bad_range_exit_two(capsys):
    code, out, err = run_main(capsys, "verify", "--n", "3..1")
    assert code == 2
    assert "error:" in err


def test_verify_range_without_nonzero_n_exit_two(capsys):
    code, out, err = run_main(capsys, "verify", "--n", "0..0", "--g-max", "3")
    assert code == 2
    assert out == ""
    assert "no nonzero twist power" in err


def test_sweep_matches_golden_file(capsys):
    report = cli.run_sweep(4, [-3, -2, -1, 1, 2, 3])
    assert cli._dumps(report) == GOLDEN.read_text()


# -- tables ---------------------------------------------------------------------------


def test_tables_json(capsys):
    code, out, err = run_main(
        capsys, "tables", "hfk_Mn", "--n", "2", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["table"] == "hfk_Mn"
    assert payload["n"] == 2
    assert "top" not in payload
    levels = {row["j"]: row["degrees"] for row in payload["filtration"]}
    assert levels[1] == [{"degree": 1, "rank": 1, "torsion": []}]


def test_tables_tower_includes_top(capsys):
    code, out, err = run_main(
        capsys, "tables", "hfplus_Z", "--n", "2", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["top"] == 6
    assert payload["degrees"][0] == {"degree": 0, "rank": 2, "torsion": []}


def test_tables_text(capsys):
    code, out, err = run_main(capsys, "tables", "hf_hat_Mn", "--n", "-3")
    assert code == 0
    assert out.startswith("table hf_hat_Mn at n=-3\n")
    assert "degree  rank  torsion" in out


def test_tables_filtered_text(capsys):
    code, out, err = run_main(capsys, "tables", "hfk_M1", "--n", "1")
    assert code == 0
    assert "filtration j=1:" in out


def test_tables_bad_params(capsys):
    code, out, err = run_main(capsys, "tables", "hfk_M1", "--n", "2")
    assert code == 2
    assert "error:" in err


# -- xgd -------------------------------------------------------------------------------


def test_xgd_module(capsys):
    code, out, err = run_main(
        capsys, "xgd", "--g", "2", "--d", "1", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["homology"] is False
    assert "matches_formula" not in payload
    assert payload["degrees"] == [
        {"degree": 0, "rank": 1, "torsion": []},
        {"degree": 1, "rank": 4, "torsion": []},
        {"degree": 2, "rank": 1, "torsion": []},
    ]


def test_xgd_homology(capsys):
    code, out, err = run_main(
        capsys, "xgd", "--g", "2", "--d", "1", "--homology", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["matches_formula"] is True
    assert payload["degrees"] == [
        {"degree": 1, "rank": 3, "torsion": []},
        {"degree": 2, "rank": 1, "torsion": []},
    ]


def test_xgd_left_text(capsys):
    code, out, err = run_main(
        capsys, "xgd", "--g", "2", "--d", "1", "--homology", "--left"
    )
    assert code == 0
    assert out.startswith("homology of (X, d1) at g=2, d=1 (left)")
    assert "matches formula: true" in out


def test_xgd_bad_genus(capsys):
    code, out, err = run_main(capsys, "xgd", "--g", "1", "--d", "0", "--homology")
    assert code == 2


# -- corollary -----------------------------------------------------------------------------


def test_corollary_right_twist(capsys):
    code, out, err = run_main(
        capsys, "corollary", "--g", "3", "--n", "2", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["match"] is True
    assert payload["shift"] == 1
    assert payload["reference_kind"] == "relative"
    assert payload["theorem"] == payload["corollary"]


def test_corollary_left_twist(capsys):
    code, out, err = run_main(
        capsys, "corollary", "--g", "3", "--n", "-2", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["match"] is True
    assert payload["reference_kind"] == "complement"
    assert payload["shift"] == 1


def test_corollary_text(capsys):
    code, out, err = run_main(capsys, "corollary", "--g", "4", "--n", "1")
    assert code == 0
    assert "match: true" in out


def test_corollary_needs_genus_three(capsys):
    code, out, err = run_main(capsys, "corollary", "--g", "2", "--n", "1")
    assert code == 2


# -- degshift -------------------------------------------------------------------------------


def test_degshift_json(capsys):
    code, out, err = run_main(
        capsys, "degshift", "--n", "2", "--k", "1", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == {"num": 1, "den": 4}
    assert payload["argmax"] == 0


def test_degshift_text_and_negative_x(capsys):
    code, out, err = run_main(capsys, "degshift", "--n", "2", "--k", "1", "--x", "-1")
    assert code == 0
    assert out == "deg(n=2, k=1, x=-1) = -7/4; argmax = 0\n"


def test_degshift_bad_level(capsys):
    code, out, err = run_main(capsys, "degshift", "--n", "2", "--k", "2")
    assert code == 2


# -- end to end through the interpreter -------------------------------------------------------


def run_proc(*argv):
    return subprocess.run(
        [sys.executable, "-m", "mtfloer", *argv],
        capture_output=True,
        text=True,
        timeout=300,
    )


def test_subprocess_compute_json():
    proc = run_proc("compute", "--g", "3", "--n", "2", "--k", "1", "--format", "json")
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    assert payload["match"] is True


def test_subprocess_negative_range_argument():
    proc = run_proc("verify", "--g-max", "2", "--n", "-1..1")
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["n_values"] == [-1, 1]


def test_subprocess_bad_params_exit_code():
    proc = run_proc("compute", "--g", "3", "--n", "2", "--k", "0")
    assert proc.returncode == 2
    assert "error:" in proc.stderr


def test_subprocess_help():
    proc = run_proc("--help")
    assert proc.returncode == 0
    assert "compute" in proc.stdout and "verify" in proc.stdout
