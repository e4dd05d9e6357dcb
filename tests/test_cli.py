import json
import subprocess
import sys
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mtfloer import cli, knot_model
from mtfloer.errors import BadParams, NotAComplex
from mtfloer.knot_model import region_size
from mtfloer.params import Params

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
    for text in ("3..", "..2", "abc", "1..x"):
        with pytest.raises(BadParams, match="neither an integer nor a range"):
            cli._parse_n_range(text)


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


def _no_enumeration(spec):
    raise AssertionError(f"region enumerated at {spec}")


def test_compute_refuses_an_oversized_region_before_enumerating(capsys, monkeypatch):
    monkeypatch.setattr(knot_model, "_surface_generators", _no_enumeration)
    code, out, err = run_main(capsys, "compute", "--g", "11", "--n", "3", "--k", "1")
    assert (code, out) == (2, "")
    assert err == "error: the region at g=11 n=3 k=1 has 5086660 generators, more than --max-generators 2000000\n"
    code, out, err = run_main(capsys, "compute", "--g", "3", "--n", "2", "--k", "1", "--method", "oracle", "--max-generators", "11")
    assert (code, out) == (2, "")
    assert err == "error: the region at g=3 n=2 k=1 has 12 generators, more than --max-generators 11\n"
    # the closed form and a vanishing level build no region, so the limit does not apply
    assert run_main(capsys, "compute", "--g", "11", "--n", "3", "--k", "1", "--method", "closed")[0] == 0
    assert run_main(capsys, "compute", "--g", "3", "--n", "2", "--k", "3", "--max-generators", "0")[0] == 0


def test_default_generator_limit_admits_g10_and_refuses_g11():
    assert region_size(Params(10, 3, 1)) == 1164038 <= cli.MAX_GENERATORS < region_size(Params(11, 3, 1))


def test_compute_at_the_limit_runs(capsys):
    code, out, err = run_main(capsys, "compute", "--g", "3", "--n", "2", "--k", "1", "--max-generators", "12")
    assert (code, err) == (0, "")


# -- verify --------------------------------------------------------------------------


def test_verify_refuses_an_oversized_grid_before_any_triple(capsys, monkeypatch, tmp_path):
    monkeypatch.setenv("MTFLOER_THREADS", "1")
    monkeypatch.setattr(knot_model, "_surface_generators", _no_enumeration)
    monkeypatch.setattr(cli, "_verify_triple", lambda task: pytest.fail(f"triple {task[:3]} started"))
    target = tmp_path / "r.json"
    # only g = 4, n = +-3, k = 1 of the grid has more than 90 generators
    code, out, err = run_main(capsys, "verify", "--g-max", "4", "--n", "-3..3", "--max-generators", "90", "--emit", str(target))
    assert (code, out) == (2, "")
    assert err == "error: the region at g=4 n=-3 k=1 has 95 generators, more than --max-generators 90\n"
    assert not target.exists()


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


def _raise_at(route, triple):
    """``route``, except that it raises NotAComplex at ``triple``."""

    def patched(g, n, k, **kwargs):
        if (g, n, k) == triple:
            raise NotAComplex("planted failure")
        return route(g, n, k, **kwargs)

    return patched


@pytest.mark.parametrize("route", ["oracle_hfplus", "theorem_answer"])
def test_verify_records_a_raising_triple_and_keeps_the_rest(capsys, monkeypatch, tmp_path, route):
    monkeypatch.setenv("MTFLOER_THREADS", "1")
    argv = ["verify", "--g-max", "4", "--n", "1"]
    _, clean, _ = run_main(capsys, *argv)
    monkeypatch.setattr(cli, route, _raise_at(getattr(cli, route), (3, 1, 2)))
    target = tmp_path / "r.json"
    code, out, err = run_main(capsys, *argv, "--emit", str(target))
    assert code == 3
    assert out == f"verify: 5/6 triples match; report written to {target}\n"
    assert err == "verify: first mismatch at g=3 n=1 k=2 (gate: error: NotAComplex: planted failure)\n"
    clean_entries = json.loads(clean)["entries"]
    entries = json.loads(target.read_text())["entries"]
    assert [e["params"] for e in entries] == [e["params"] for e in clean_entries]
    for entry, clean_entry in zip(entries, clean_entries):
        if entry["params"] != {"g": 3, "n": 1, "k": 2}:
            assert entry == clean_entry
            continue
        side = "oracle" if route == "oracle_hfplus" else "closed"
        assert entry[side] is None and entry["shift"] is None
        assert entry["match"] is False
        assert entry["gate"] == "error: NotAComplex: planted failure"

    code, out, err = run_main(capsys, *argv, "--format", "csv")
    assert code == 3
    failed_rows = [line for line in out.splitlines() if line.startswith("3,1,2,")]
    present = "3,1,2,3,,1,false" if route == "oracle_hfplus" else "3,1,2,3,1,,false"
    assert failed_rows == [present]


class DyingPool:
    """A stand-in for ProcessPoolExecutor whose workers die after two results."""

    def __init__(self, max_workers):
        self.max_workers = max_workers

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return False

    def map(self, fn, tasks):
        for task in list(tasks)[:2]:
            yield fn(task)
        raise BrokenProcessPool("a worker died")


def test_verify_keeps_the_sweep_when_a_worker_dies(capsys, monkeypatch, tmp_path):
    argv = ["verify", "--g-max", "3", "--n", "1..2"]
    monkeypatch.setenv("MTFLOER_THREADS", "1")
    _, clean, _ = run_main(capsys, *argv)
    monkeypatch.setenv("MTFLOER_THREADS", "2")
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 4)
    monkeypatch.setattr(cli, "ProcessPoolExecutor", DyingPool)
    target = tmp_path / "r.json"
    code, out, err = run_main(capsys, *argv, "--emit", str(target))
    assert code == 3
    assert out == f"verify: 2/6 triples match; report written to {target}\n"
    assert err == "verify: first mismatch at g=3 n=1 k=1 (gate: error: BrokenProcessPool: a worker died)\n"
    report = json.loads(target.read_text())
    assert set(report) == set(json.loads(clean))
    clean_entries = json.loads(clean)["entries"]
    entries = report["entries"]
    assert [e["params"] for e in entries] == [e["params"] for e in clean_entries]
    assert entries[:2] == clean_entries[:2]
    for entry in entries[2:]:
        assert set(entry) == set(clean_entries[0])
        assert entry["match"] is False
        assert entry["gate"] == "error: BrokenProcessPool: a worker died"
        assert entry["oracle"] is None and entry["closed"] is None and entry["shift"] is None


def test_csv_rows_are_built_only_for_csv(capsys, monkeypatch):
    def unwanted(*args):
        raise AssertionError("CSV rows built for another format")

    monkeypatch.setenv("MTFLOER_THREADS", "1")
    monkeypatch.setattr(cli, "_comparison_rows", unwanted)
    for argv in (
        ("verify", "--g-max", "3", "--n", "1"),
        ("compute", "--g", "3", "--n", "1", "--k", "1", "--format", "json"),
        ("compute", "--g", "3", "--n", "1", "--k", "1"),
    ):
        code, out, err = run_main(capsys, *argv)
        assert (code, err) == (0, "")
    with pytest.raises(AssertionError, match="CSV rows built"):
        cli.main(["verify", "--g-max", "2", "--n", "1", "--format", "csv"])


def test_verify_bad_range_exit_two(capsys):
    code, out, err = run_main(capsys, "verify", "--n", "3..1")
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize("text", ["3..", "abc"])
def test_verify_unparsable_n_exit_two(capsys, text):
    code, out, err = run_main(capsys, "verify", "--n", text, "--g-max", "2")
    assert (code, out) == (2, "")
    assert err == f"error: --n {text!r} is neither an integer nor a range lo..hi\n"


def test_verify_emit_into_a_missing_directory_exit_two(capsys, monkeypatch, tmp_path):
    def unwanted(*args, **kwargs):
        raise AssertionError("the sweep ran")

    monkeypatch.setattr(cli, "run_sweep", unwanted)
    target = tmp_path / "missing" / "report.json"
    code, out, err = run_main(capsys, "verify", "--g-max", "2", "--n", "1", "--emit", str(target))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot write the report to {target}")
    assert not target.parent.exists()


def test_verify_emit_to_an_existing_directory_exit_two(capsys, monkeypatch, tmp_path):
    def unwanted(*args, **kwargs):
        raise AssertionError("the sweep ran")

    monkeypatch.setattr(cli, "run_sweep", unwanted)
    code, out, err = run_main(capsys, "verify", "--g-max", "2", "--n", "1", "--emit", str(tmp_path))
    assert (code, out) == (2, "")
    assert err == f"error: cannot write the report to {tmp_path}: it is a directory\n"
    assert list(tmp_path.iterdir()) == []


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


def _no_x_basis(genus, d, **kwargs):
    raise AssertionError(f"X({genus}, {d}) built")


def test_xgd_homology_refuses_before_building_the_module(capsys, monkeypatch):
    monkeypatch.setattr(cli, "build_x_complex", _no_x_basis)
    # outside the formula's domain
    code, out, err = run_main(capsys, "xgd", "--g", "7", "--d", "30", "--homology")
    assert (code, out, err) == (2, "", "error: need 0 <= d <= g-1, got d=30\n")
    # inside it, but larger than a compute would start
    code, out, err = run_main(capsys, "xgd", "--g", "11", "--d", "10", "--homology")
    assert (code, out, err) == (2, "", "error: X(g=11, d=10) has 3879876 elements, more than 2000000\n")


def test_xgd_homology_at_the_size_limit_runs(capsys, monkeypatch):
    # X(2, 1) has 6 elements
    monkeypatch.setattr(cli, "MAX_GENERATORS", 6)
    assert run_main(capsys, "xgd", "--g", "2", "--d", "1", "--homology")[0] == 0
    monkeypatch.setattr(cli, "MAX_GENERATORS", 5)
    monkeypatch.setattr(cli, "build_x_complex", _no_x_basis)
    code, out, err = run_main(capsys, "xgd", "--g", "2", "--d", "1", "--homology")
    assert (code, out, err) == (2, "", "error: X(g=2, d=1) has 6 elements, more than 5\n")


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
    assert err == "error: the k=g-2 level needs genus >= 3, got 2\n"


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


# -- exact bytes of every command and format -----------------------------------------------


def _degrees(*pairs):
    return [{"degree": d, "rank": r, "torsion": []} for d, r in pairs]


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


G3_TABLE = "  degree  rank  torsion\n       3     3  -\n       2     7  -\n"

EXACT_TEXT = [
    (
        ["compute", "--g", "3", "--n", "2", "--k", "1"],
        "(g=3, n=2, k=1) oracle:\n" + G3_TABLE
        + "(g=3, n=2, k=1) closed form:\n" + G3_TABLE + "match: true\n",
    ),
    (
        ["compute", "--g", "3", "--n", "2", "--k", "1", "--method", "oracle"],
        "(g=3, n=2, k=1) oracle:\n" + G3_TABLE,
    ),
    (
        ["compute", "--g", "3", "--n", "2", "--k", "1", "--method", "closed"],
        "(g=3, n=2, k=1) closed form:\n" + G3_TABLE,
    ),
    (
        ["compute", "--g", "3", "--n", "2", "--k", "5"],
        "(g=3, n=2, k=5) vanishes by adjunction: zero group\n",
    ),
    (
        ["compute", "--g", "3", "--n", "2", "--k", "-3", "--method", "oracle"],
        "(g=3, n=2, k=-3) vanishes by adjunction: zero group\n",
    ),
    (
        ["compute", "--g", "3", "--n", "2", "--k", "3", "--format", "csv"],
        "g,n,k,degree,rank_oracle,rank_closed,match\n",
    ),
    (
        ["verify", "--g-max", "3", "--n", "-1..1", "--format", "csv"],
        "g,n,k,degree,rank_oracle,rank_closed,match\n"
        "2,-1,1,2,1,1,true\n"
        "2,1,1,2,1,1,true\n"
        "3,-1,1,1,2,2,true\n"
        "3,-1,1,2,6,6,true\n"
        "3,-1,2,3,1,1,true\n"
        "3,1,1,2,6,6,true\n"
        "3,1,1,3,2,2,true\n"
        "3,1,2,3,1,1,true\n",
    ),
    (
        ["tables", "hfk_M1", "--n", "1"],
        "table hfk_M1 at n=1\n"
        "filtration j=1:\n  degree  rank  torsion\n       1     1  -\n"
        "filtration j=0:\n  degree  rank  torsion\n       1     1  -\n       0     3  -\n"
        "filtration j=-1:\n  degree  rank  torsion\n      -1     1  -\n",
    ),
    (
        ["tables", "hfplus_Z", "--n", "2", "--top", "2"],
        "table hfplus_Z at n=2\n  degree  rank  torsion\n"
        "       2     1  -\n       1     1  -\n       0     2  -\n",
    ),
    (
        ["xgd", "--g", "2", "--d", "1", "--homology", "--left"],
        "homology of (X, d1) at g=2, d=1 (left)\n  degree  rank  torsion\n"
        "       1     3  -\n       0     1  -\nmatches formula: true\n",
    ),
    (
        ["corollary", "--g", "3", "--n", "2"],
        "(g=3, n=2, k=1) closed form:\n" + G3_TABLE
        + "reference (relative cohomology) shift: 1\nmatch: true\n",
    ),
    (
        ["corollary", "--g", "3", "--n", "-2"],
        "(g=3, n=-2, k=1) closed form:\n  degree  rank  torsion\n       2     7  -\n       1     3  -\n"
        "reference (complement cohomology) shift: 1\nmatch: true\n",
    ),
    (
        ["degshift", "--n", "5", "--k", "2", "--x", "-1"],
        "deg(n=5, k=2, x=-1) = -19/5; argmax = 0\n",
    ),
]


def _closed_payload(g, n, k, degrees, **extra):
    payload = {
        "degrees": degrees, "g": g, "gate": "n/a", "grading_convention": "X",
        "k": k, "n": n, "pipeline": "closed",
    }
    payload.update(extra)
    return payload


def _oracle_payload(g, n, k, degrees):
    return {
        "degrees": degrees, "g": g, "gate": "passed", "grading_convention": "X",
        "k": k, "n": n, "page": "final", "pipeline": "oracle",
    }


EXACT_JSON = [
    (
        ["compute", "--g", "2", "--n", "1", "--k", "1"],
        {
            "closed": _closed_payload(2, 1, 1, _degrees((2, 1))),
            "g": 2, "k": 1, "match": True, "n": 1,
            "oracle": _oracle_payload(2, 1, 1, _degrees((2, 1))),
            "shift": 0,
        },
    ),
    (
        ["compute", "--g", "3", "--n", "-2", "--k", "1", "--method", "oracle"],
        _oracle_payload(3, -2, 1, _degrees((1, 3), (2, 7))),
    ),
    (
        ["compute", "--g", "3", "--n", "2", "--k", "1", "--method", "closed"],
        _closed_payload(3, 2, 1, _degrees((2, 7), (3, 3))),
    ),
    (
        ["compute", "--g", "3", "--n", "2", "--k", "-4"],
        {
            "closed": _closed_payload(3, 2, -4, [], vanishes_by_adjunction=True),
            "g": 3, "k": -4, "match": True, "n": 2,
            "oracle": _closed_payload(
                3, 2, -4, [], pipeline="adjunction", vanishes_by_adjunction=True
            ),
            "shift": 0,
        },
    ),
    (
        ["compute", "--g", "3", "--n", "2", "--k", "3", "--method", "oracle"],
        _closed_payload(3, 2, 3, [], pipeline="adjunction", vanishes_by_adjunction=True),
    ),
    (
        ["compute", "--g", "3", "--n", "2", "--k", "-3", "--method", "closed"],
        _closed_payload(3, 2, -3, [], vanishes_by_adjunction=True),
    ),
    (
        ["xgd", "--g", "2", "--d", "1", "--homology", "--left"],
        {
            "d": 1, "degrees": _degrees((0, 1), (1, 3)), "g": 2,
            "homology": True, "left": True, "matches_formula": True,
        },
    ),
    (
        ["tables", "hfk_M1", "--n", "1"],
        {
            "filtration": [
                {"degrees": _degrees((-1, 1)), "j": -1},
                {"degrees": _degrees((0, 3), (1, 1)), "j": 0},
                {"degrees": _degrees((1, 1)), "j": 1},
            ],
            "n": 1,
            "table": "hfk_M1",
        },
    ),
    (
        ["corollary", "--g", "3", "--n", "2"],
        {
            "corollary": {"degrees": _degrees((2, 7), (3, 3))},
            "g": 3, "k": 1, "match": True, "n": 2,
            "reference": {"degrees": _degrees((2, 7), (3, 3))},
            "reference_kind": "relative",
            "shift": 1,
            "theorem": {"degrees": _degrees((2, 7), (3, 3))},
        },
    ),
    (
        ["degshift", "--n", "5", "--k", "2", "--x", "-1"],
        {"argmax": 0, "k": 2, "n": 5, "value": {"den": 5, "num": -19}, "x": -1},
    ),
]


@pytest.mark.parametrize("argv, expected", EXACT_TEXT, ids=[" ".join(a) for a, _ in EXACT_TEXT])
def test_exact_text_output(capsys, argv, expected):
    code, out, err = run_main(capsys, *argv)
    assert (code, out, err) == (0, expected, "")


@pytest.mark.parametrize("argv, expected", EXACT_JSON, ids=[" ".join(a) for a, _ in EXACT_JSON])
def test_exact_json_output(capsys, argv, expected):
    code, out, err = run_main(capsys, *argv, "--format", "json")
    assert (code, out, err) == (0, _json_text(expected), "")


# every command's JSON payload, and the float wall times of a timed sweep
DUMPS_ARGV = [argv for argv, _ in EXACT_JSON] + [
    ["compute", "--g", "4", "--n", "-3", "--k", "1"],
    ["verify", "--g-max", "3", "--n", "-2..2", "--timing"],
    *(["tables", name, "--n", "2"] for name in ("hfk_Mn", "hf_hat_Mn", "hfplus_Z", "hfplus_Mn")),
    ["xgd", "--g", "3", "--d", "1"],
    ["corollary", "--g", "4", "--n", "-2"],
]


def test_writer_matches_json_dumps_on_every_command(capsys, monkeypatch):
    real = cli._dumps
    checked = []

    def compared(obj):
        text = real(obj)
        checked.append(text == _json_text(obj))
        return text

    monkeypatch.setenv("MTFLOER_THREADS", "1")
    monkeypatch.setattr(cli, "_dumps", compared)
    for argv in DUMPS_ARGV:
        code, _, err = run_main(capsys, *argv, "--format", "json")
        assert (code, err) == (0, ""), argv
    assert checked == [True] * len(DUMPS_ARGV)


JSON_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(-(2**200), 2**200)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text()
)
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.lists(inner) | st.lists(inner).map(tuple) | st.dictionaries(st.text(), inner),
    max_leaves=40,
)


@given(JSON_VALUES)
def test_writer_matches_json_dumps(value):
    assert cli._dumps(value) == _json_text(value)


def test_writer_matches_json_dumps_on_edge_values():
    value = {
        "floats": [float("nan"), float("inf"), -float("inf"), -0.0, 1e300, 5e-324],
        "text": ["", "\x00\x1f\\\"", "é漢\U0001f600", "\u2028"],
        "empty": [{}, [], ()],
        "": None,
    }
    assert cli._dumps(value) == _json_text(value)


@pytest.mark.parametrize(
    "value",
    [{1: 2}, {(1,): 2}, {"a": 1, 2: 3}, {"a": object()}, [b"x"], {1, 2}, [1.5j]],
    ids=["int key", "tuple key", "mixed keys", "object", "bytes", "set", "complex"],
)
def test_writer_refuses_what_it_cannot_write(value):
    with pytest.raises(TypeError):
        cli._dumps(value)


def test_writer_refuses_a_circular_value():
    loop = []
    loop.append({"loop": loop})
    with pytest.raises(ValueError, match="circular"):
        cli._dumps(loop)


def test_parser_is_built_once_and_commands_are_looked_up_per_call(capsys, monkeypatch):
    run_main(capsys, "degshift", "--n", "2", "--k", "1")
    assert cli._parser() is cli._parser()
    monkeypatch.setattr(cli, "cmd_degshift", lambda args: cli.Output(lines=lambda: [f"patched n={args.n}"]))
    assert run_main(capsys, "degshift", "--n", "2", "--k", "1") == (0, "patched n=2\n", "")


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
