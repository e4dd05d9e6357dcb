import hashlib
import io
import json
import os
import subprocess
import sys
import tracemalloc
import weakref
from collections import Counter
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mtfloer import cli, closed_form, homology, knot_model
from mtfloer.closed_form import theorem_answer
from mtfloer.exterior import x_ranks
from mtfloer.errors import BadParams, NotAComplex
from mtfloer.params import Params

GOLDEN = Path(__file__).resolve().parent.parent / "golden" / "sweep_g4_n3.json"


def run_main(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- helpers --------------------------------------------------------------------


def test_parse_n_range():
    # the ends of the range, 0 still inside: nothing is listed
    assert cli._parse_n_range("-2..2") == (-2, 2)
    assert cli._parse_n_range("3") == (3, 3)
    assert cli._parse_n_range("-3") == (-3, -3)
    assert cli._parse_n_range("2..2") == (2, 2)
    assert cli._parse_n_range("0..1") == (0, 1)
    assert cli._parse_n_range(f"1..{10**4000}") == (1, 10**4000)
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


def _no_enumeration(*args):
    raise AssertionError(f"region runs enumerated at {args}")


def test_compute_refuses_too_many_runs_before_enumerating(capsys, monkeypatch):
    monkeypatch.setattr(knot_model, "_surface_runs", _no_enumeration)
    code, out, err = run_main(capsys, "compute", "--g", "260", "--n", "1", "--k", "1")
    assert (code, out) == (2, "")
    assert err == "error: the region at g=260 |k|=1 has 100492 runs, more than 100000\n"
    # the count is taken at |k| = 1, so a level near g with few runs of long monomials is refused too
    code, out, err = run_main(capsys, "compute", "--g", "260", "--n", "1", "--k", "-258", "--method", "oracle")
    assert (code, out) == (2, "")
    assert err == "error: the region at g=260 |k|=1 has 100492 runs, more than 100000\n"
    # and at any n: a circle run holds every label
    code, out, err = run_main(capsys, "compute", "--g", "260", "--n", "-300", "--k", "259", "--method", "oracle")
    assert (code, out) == (2, "")
    assert err == "error: the region at g=260 |k|=1 has 100492 runs, more than 100000\n"
    # the closed form and a vanishing level build no region, so the bound does not apply
    assert run_main(capsys, "compute", "--g", "260", "--n", "1", "--k", "1", "--method", "closed")[0] == 0
    assert run_main(capsys, "compute", "--g", "260", "--n", "1", "--k", "260")[0] == 0


def test_run_bound_does_not_grow_with_the_twist(capsys):
    # the count, like the cost, does not see |n|: a large twist runs where a small one does
    assert knot_model.run_count(Params(30, -300, 1).d) == knot_model.run_count(Params(30, 1, 1).d) == 1247
    code, out, err = run_main(capsys, "compute", "--g", "30", "--n", "-300", "--k", "29", "--format", "json")
    assert (code, err) == (0, "")
    assert json.loads(out)["match"] is True


def test_run_bound_is_a_constant_not_an_option(capsys):
    assert cli.MAX_RUNS == 100_000
    assert knot_model.run_count(257) <= cli.MAX_RUNS < knot_model.run_count(258)
    with pytest.raises(SystemExit) as refused:
        cli.main(["compute", "--g", "3", "--n", "2", "--k", "1", "--max-generators", "12"])
    assert refused.value.code == 2
    assert "unrecognized arguments: --max-generators 12" in capsys.readouterr().err


def test_compute_at_the_run_bound_runs(capsys, monkeypatch):
    # the region at g=3, |k|=1 has 3 surface runs and 2 circle runs
    monkeypatch.setattr(cli, "MAX_RUNS", 5)
    code, out, err = run_main(capsys, "compute", "--g", "3", "--n", "-2", "--k", "2")
    assert (code, err) == (0, "")
    monkeypatch.setattr(cli, "MAX_RUNS", 4)
    code, out, err = run_main(capsys, "compute", "--g", "3", "--n", "-2", "--k", "2")
    assert (code, out, err) == (2, "", "error: the region at g=3 |k|=1 has 5 runs, more than 4\n")


def test_compute_at_g60_is_admitted_and_matches(capsys):
    assert knot_model.run_count(Params(60, 3, 1).d) == 5192
    code, out, err = run_main(capsys, "compute", "--g", "60", "--n", "3", "--k", "1", "--format", "json")
    assert (code, err) == (0, "")
    assert json.loads(out)["match"] is True


# ranks pass 2^63 from g = 33 on; the largest at g = 40, n = 3, k = 1 sits at degree 2
BIG_RANK = 297667626190834285259294


def test_ranks_past_two_to_the_63_print_exactly(capsys):
    assert BIG_RANK > 2**63
    code, out, err = run_main(capsys, "compute", "--g", "40", "--n", "3", "--k", "1", "--format", "json")
    assert (code, err) == (0, "")
    assert out.count(f'"degree": 2,\n        "rank": {BIG_RANK},\n') == 2  # the oracle's and the closed form's
    payload = json.loads(out)
    assert payload["match"] is True
    assert {"degree": 2, "rank": BIG_RANK, "torsion": []} in payload["oracle"]["degrees"]
    assert payload["oracle"]["degrees"] == payload["closed"]["degrees"]
    code, out, err = run_main(capsys, "compute", "--g", "40", "--n", "3", "--k", "1", "--format", "csv")
    assert code == 0
    assert f"40,3,1,2,{BIG_RANK},{BIG_RANK},true\n" in out
    assert all(line.endswith(",true") for line in out.splitlines()[1:])
    code, out, err = run_main(capsys, "compute", "--g", "40", "--n", "3", "--k", "1", "--format", "table")
    assert code == 0
    assert out.count(f"     2  {BIG_RANK}  -\n") == 2  # the oracle's and the closed form's
    assert out.endswith("match: true\n")


def _no_ranks(*args, **kwargs):
    raise AssertionError(f"ranks computed at {args}")


def test_unprintable_ranks_are_refused_before_any_rank(capsys, monkeypatch):
    for name in ("theorem_answer", "oracle_hfplus", "x_ranks", "x_homology_formula", "run_sweep"):
        monkeypatch.setattr(cli, name, _no_ranks)
    for argv, shown in [
        (["compute", "--method", "closed", "--g", "7200", "--n", "1", "--k", "1"], "g=7200 d=7198 |n|=1 may have 4335"),
        (["compute", "--g", "7200", "--n", "-5", "--k", "1"], "g=7200 d=7198 |n|=5 may have 4336"),
        (["xgd", "--g", "7200", "--d", "7199"], "g=7200 d=7199 |n|=1 may have 4335"),
        (["xgd", "--g", "7200", "--d", "7199", "--homology"], "g=7200 d=7199 |n|=1 may have 4335"),
        (["verify", "--g-max", "7200", "--n", "1"], "g=7200 d=7198 |n|=1 may have 4335"),
    ]:
        code, out, err = run_main(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert err == (f"error: the ranks at {shown} digits; Python prints at most 4300 "
                       "(PYTHONINTMAXSTRDIGITS sets the limit, 0 lifts it)\n"), argv


def test_printable_ranks_are_admitted(capsys, monkeypatch):
    # a shallow tower keeps every rank short at any genus
    code, out, err = run_main(capsys, "compute", "--method", "closed", "--g", "100000", "--n", "1", "--k", "99998",
                              "--format", "json")
    assert (code, err) == (0, "")
    assert [row["rank"] for row in json.loads(out)["degrees"]] == [200000, 2]
    assert run_main(capsys, "xgd", "--g", "100000", "--d", "2")[0] == 0
    # the limit is the interpreter's: 0 lifts it, and so does an interpreter without one
    monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 0)
    cli._refuse_unprintable(7200, 7199)
    monkeypatch.delattr(sys, "get_int_max_str_digits")
    cli._refuse_unprintable(7200, 7199)


def test_the_digit_bound_holds_every_printed_rank(monkeypatch):
    # with the limit one digit below the longest rank, the bound must refuse
    def longest(group):
        return max(len(str(rank)) for _, rank, _ in group.entries)

    for g in range(2, 41):
        cases = [((g, d, 1), x_ranks(g, d)) for d in range(0, g + 3)]
        cases += [((g, g - 1 - k, n), theorem_answer(g, n, k)) for n in (1, -1, 3, -7) for k in range(1, g)]
        for (genus, d, n), group in cases:
            monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: longest(group) - 1)
            if longest(group) > 1:
                with pytest.raises(BadParams, match="may have"):
                    cli._refuse_unprintable(genus, d, n)


# -- verify --------------------------------------------------------------------------


def test_verify_refuses_too_many_runs_before_any_triple(capsys, monkeypatch, tmp_path):
    monkeypatch.setenv("MTFLOER_THREADS", "1")
    monkeypatch.setattr(knot_model, "_surface_runs", _no_enumeration)
    monkeypatch.setattr(cli, "_verify_group", lambda task: pytest.fail(f"group {task[0]} started"))
    # the bound is crossed by genus: g = 4 has 6 + 6 runs at |k| = 1, g = 3 has 3 + 2, whatever n
    monkeypatch.setattr(cli, "MAX_RUNS", 11)
    target = tmp_path / "r.json"
    code, out, err = run_main(capsys, "verify", "--g-max", "4", "--n", "-3..3", "--emit", str(target))
    assert (code, out) == (2, "")
    assert err == "error: the region at g=4 |k|=1 has 12 runs, more than 11\n"
    assert not target.exists()
    with pytest.raises(BadParams, match="g=4 [|]k[|]=1 has 12 runs"):
        cli.run_sweep(4, [1])
    cli._refuse_oversized(3)


def test_verify_refuses_by_g_max_before_listing_the_grid():
    # the grid up to g = 2000 holds about 2 million triples; the bound reads g_max alone
    tracemalloc.start()
    try:
        with pytest.raises(BadParams, match="the region at g=2000 [|]k[|]=1 has 5993002 runs, more than 100000"):
            cli.run_sweep(2000, [1])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_verify_refuses_a_grid_by_its_count_before_listing_it(capsys):
    # ten trillion twist powers at g = 2: the count is taken from the ends of the range
    tracemalloc.start()
    try:
        code, out, err = run_main(capsys, "verify", "--g-max", "2", "--n", "1..9999999999999")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (code, out) == (2, "")
    assert err == "error: the grid up to g=2 has 9999999999999 triples, more than 100000\n"
    assert peak < 1_000_000
    # g = 2 .. g-max holds g-max (g-max - 1) / 2 levels per twist power, and 0 is no twist power:
    # -5000..5001 holds 10,001 of them, ten levels each up to g = 5
    code, out, err = run_main(capsys, "verify", "--g-max", "5", "--n", "-5000..5001")
    assert (code, out, err) == (2, "", "error: the grid up to g=5 has 100010 triples, more than 100000\n")
    cli._refuse_grid(5, 10_000)
    with pytest.raises(BadParams, match="the grid up to g=5 has 100010 triples, more than 100000"):
        cli.run_sweep(5, list(range(1, 10_002)))
    # the run bound and a bad g-max speak first, as before
    assert run_main(capsys, "verify", "--g-max", "2000", "--n", "1..9999999999999")[2].startswith("error: the region at g=2000")
    assert run_main(capsys, "verify", "--g-max", "1", "--n", "1..9999999999999")[2] == "error: g-max 1 < 2\n"


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
    """A stand-in for the process pool whose workers die after two results."""

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
    monkeypatch.setattr(cli, "_process_pool", DyingPool)
    target = tmp_path / "r.json"
    code, out, err = run_main(capsys, *argv, "--emit", str(target))
    assert code == 3
    # the unit of work is a group of one (g, |k|, handedness): the groups at (g, |k|) = (2, 1)
    # and (3, 1) came back, two triples each; the group at (3, 2) was lost whole
    assert out == f"verify: 4/6 triples match; report written to {target}\n"
    assert err == "verify: first mismatch at g=3 n=1 k=2 (gate: error: BrokenProcessPool: a worker died)\n"
    report = json.loads(target.read_text())
    assert set(report) == set(json.loads(clean))
    clean_entries = json.loads(clean)["entries"]
    entries = report["entries"]
    assert [e["params"] for e in entries] == [e["params"] for e in clean_entries]
    lost = [i for i, e in enumerate(entries) if (e["params"]["g"], e["params"]["k"]) == (3, 2)]
    assert lost == [3, 5]
    assert [e for i, e in enumerate(entries) if i not in lost] == [e for i, e in enumerate(clean_entries) if i not in lost]
    for entry in (entries[i] for i in lost):
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


def test_verify_csv_reads_ranks_off_the_report_entries(capsys, monkeypatch):
    # each row's ranks come from the entry's degree list: no group is rebuilt from the report
    def unwanted(obj):
        raise AssertionError("a group was rebuilt from the report")

    monkeypatch.setenv("MTFLOER_THREADS", "1")
    monkeypatch.setattr(cli.GradedGroup, "from_json_dict", unwanted)
    code, out, err = run_main(capsys, "verify", "--g-max", "3", "--n", "-1..1", "--format", "csv")
    assert (code, err) == (0, "")
    assert out.splitlines()[1:3] == ["2,-1,1,2,1,1,true", "2,1,1,2,1,1,true"]


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


def test_make_golden_loads_from_a_checkout_without_pythonpath(tmp_path):
    # the script puts this checkout's src/ first on sys.path; loaded under another name, it writes nothing
    script = GOLDEN.parent.parent / "scripts" / "make_golden.py"
    golden = GOLDEN.read_bytes()
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    code = f"import runpy; names = runpy.run_path({str(script)!r}, run_name='make_golden'); print(names['run_sweep'].__code__.co_filename)"
    proc = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert Path(proc.stdout.strip()) == GOLDEN.parent.parent / "src" / "mtfloer" / "cli.py"
    assert GOLDEN.read_bytes() == golden


def test_pooled_sweep_gives_the_serial_report(monkeypatch):
    n_values = [-4, -3, -2, -1, 1, 2, 3, 4]
    monkeypatch.setenv("MTFLOER_THREADS", "1")
    serial = cli._dumps(cli.run_sweep(5, n_values))
    monkeypatch.setenv("MTFLOER_THREADS", "2")
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    assert cli._worker_count() == 2
    assert cli._dumps(cli.run_sweep(5, n_values)) == serial


def test_each_surface_page_is_built_once_a_sweep_and_dies_with_it(capsys, monkeypatch):
    monkeypatch.setenv("MTFLOER_THREADS", "1")
    built = []
    real = knot_model.build_surface_page

    def counted(spec, pd_sign=1):
        page = real(spec, pd_sign)
        built.append((knot_model.surface_key(spec), weakref.ref(page)))
        calls.update({"boundaries": len(page.complex._strips)})
        return page

    def counted_circles(spec, _real=knot_model._circle_page):
        circles = _real(spec)
        calls.update({"_circle_page": 1, "boundaries": len(circles._strips)})
        return circles

    monkeypatch.setattr(knot_model, "build_surface_page", counted)
    monkeypatch.setattr(knot_model, "_circle_page", counted_circles)
    calls = Counter()
    for owner, name in [(knot_model, "_ranked_page"), (knot_model, "_layout"), (knot_model, "_circle_runs"),
                        (homology, "_invariant_factors")]:
        monkeypatch.setattr(owner, name, lambda *args, _name=name, _real=getattr(owner, name): calls.update([_name]) or _real(*args))
    # the benchmark's sweep grid: 120 triples in 20 groups
    n_values = [n for n in range(-6, 7) if n]
    keys = sorted({(g, k, n > 0) for g in range(2, 6) for k in range(1, g) for n in n_values})
    assert len(keys) == 20
    for _ in range(2):
        # once per (g, |k|, handedness) in each call, none carried from the call before
        built.clear()
        calls.clear()
        entries = cli.run_sweep(5, n_values)["entries"]
        assert len(entries) == 120 and all(entry["match"] for entry in entries)
        assert sorted(key for key, _ in built) == keys
        assert all(page() is None for _, page in built)
        # each page ranks, lays out and reduces X(g, d) and one label's circle page, each boundary
        # once, and lays out the circle runs once more for page one's counts; every group has a
        # triple with |n| >= 2, so page two is ranked once a group, and no triple lays out a run or
        # works out a factor
        boundaries = calls.pop("boundaries")
        assert calls == {
            "_ranked_page": 40, "_layout": 60, "_circle_runs": 40, "_circle_page": 20, "_invariant_factors": boundaries
        }
    # compute builds its own page, every time
    built.clear()
    for _ in range(2):
        assert run_main(capsys, "compute", "--g", "4", "--n", "2", "--k", "1")[0] == 0
    assert [key for key, _ in built] == [(4, 1, True)] * 2


def test_a_lone_twist_never_ranks_the_circle_page(capsys, monkeypatch):
    # |n| = 1 has no page-two copy: page one takes the circle counts from the run layout
    def unwanted(spec):
        raise AssertionError(f"the circle page was ranked for {spec}")

    monkeypatch.setattr(knot_model, "_circle_page", unwanted)
    for n in ("1", "-1"):
        code, out, err = run_main(capsys, "compute", "--g", "8", "--n", n, "--k", "1", "--format", "json")
        assert (code, err, json.loads(out)["match"]) == (0, "", True), n


def test_the_process_pool_is_imported_only_when_a_sweep_starts_workers():
    script = (
        "import contextlib, io, sys\n"
        "import mtfloer.cli\n"
        "assert 'concurrent.futures' not in sys.modules, 'on import'\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert mtfloer.cli.main(['compute', '--g', '4', '--n', '2', '--k', '1']) == 0\n"
        "assert 'concurrent.futures' not in sys.modules, 'by compute'\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


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


def test_tower_tables_are_bounded_before_they_are_built(capsys, monkeypatch):
    assert cli.MAX_DEGREES == 100_000
    monkeypatch.setattr(cli, "reference_tables", _no_ranks)
    for name in ("hfplus_Z", "hfplus_Mn"):
        code, out, err = run_main(capsys, "tables", name, "--n", "1", "--top", "1000000")
        assert (code, out, err) == (2, "", f"error: {name} up to slot 1000000 has 1000001 degrees, more than 100000\n")
    monkeypatch.undo()
    # the bound counts slots 0 .. top; the other tables take no top
    monkeypatch.setattr(cli, "MAX_DEGREES", 7)
    assert run_main(capsys, "tables", "hfplus_Mn", "--n", "1", "--top", "6")[0] == 0
    assert run_main(capsys, "tables", "hfplus_Mn", "--n", "1", "--top", "7")[0] == 2
    assert run_main(capsys, "tables", "hfk_Mn", "--n", "2", "--top", "1000000")[0] == 0


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


def test_xgd_degrees_are_bounded_before_the_ranks(capsys, monkeypatch):
    monkeypatch.setattr(cli, "x_ranks", _no_ranks)
    code, out, err = run_main(capsys, "xgd", "--g", "2", "--d", "50000")
    assert (code, out, err) == (2, "", "error: X(g=2, d=50000) has 100001 degrees, more than 100000\n")
    monkeypatch.undo()
    # X(g, d) sits in the 2d + 1 degrees g - 2d .. g
    monkeypatch.setattr(cli, "MAX_DEGREES", 7)
    assert run_main(capsys, "xgd", "--g", "2", "--d", "3")[0] == 0
    assert run_main(capsys, "xgd", "--g", "2", "--d", "4")[0] == 2


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
    # inside it, but its genus has a tower with more runs than a compute would start
    code, out, err = run_main(capsys, "xgd", "--g", "447", "--d", "3", "--homology")
    assert (code, out, err) == (2, "", "error: X(g=447, d=446) has 100128 runs, more than 100000\n")


def test_xgd_homology_refuses_before_any_rank(capsys, monkeypatch):
    for module in (cli, closed_form):
        monkeypatch.setattr(module, "x_ranks", _no_ranks)
    monkeypatch.setattr(cli, "build_x_complex", _no_x_basis)
    code, out, err = run_main(capsys, "xgd", "--g", "5000", "--d", "4999", "--homology")
    assert (code, out, err) == (2, "", "error: X(g=5000, d=4999) has 12502500 runs, more than 100000\n")
    code, out, err = run_main(capsys, "xgd", "--g", "5000", "--d", "6000", "--homology")
    assert (code, out, err) == (2, "", "error: need 0 <= d <= g-1, got d=6000\n")
    code, out, err = run_main(capsys, "xgd", "--g", "1", "--d", "0", "--homology")
    assert (code, out, err) == (2, "", "error: genus 1 < 2\n")


def test_xgd_homology_at_the_run_bound_runs(capsys, monkeypatch):
    # X(2, 1), the largest tower of genus 2, has 3 runs
    monkeypatch.setattr(cli, "MAX_RUNS", 3)
    assert run_main(capsys, "xgd", "--g", "2", "--d", "1", "--homology")[0] == 0
    monkeypatch.setattr(cli, "MAX_RUNS", 2)
    monkeypatch.setattr(cli, "build_x_complex", _no_x_basis)
    code, out, err = run_main(capsys, "xgd", "--g", "2", "--d", "0", "--homology")
    assert (code, out, err) == (2, "", "error: X(g=2, d=1) has 3 runs, more than 2\n")


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


def test_corollary_left_twist_takes_no_time_per_annulus(capsys):
    # the n - 1 annuli of the complement are one summand: a trillion of them cost nothing
    n = -10**12
    code, out, err = run_main(capsys, "corollary", "--g", "3", "--n", str(n), "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["match"] is True
    ranks = {row["degree"]: row["rank"] for row in payload["reference"]["degrees"]}
    assert ranks == {0: abs(n) + 1, 1: 2 * 3 + abs(n) - 1}


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


# -- numbers Python cannot print ---------------------------------------------------------------

NINES = 10**4300 - 1  # the longest int the default limit parses and prints
REFUSED_TAIL = "; Python prints at most 4300 (PYTHONINTMAXSTRDIGITS sets the limit, 0 lifts it)\n"


def test_cheap_commands_refuse_what_they_cannot_print(capsys):
    for argv, what in [
        (["degshift", "--n", "3", "--k", "1", "--x", str(10**3000 - 1)], "the degree shift"),
        (["tables", "hfplus_Mn", "--n", str(NINES), "--top", "0"], "a rank of hfplus_Mn"),
        (["tables", "hfk_Mn", "--n", str(NINES)], "a rank of hfk_Mn"),
        (["tables", "hfk_Mn", "--n", str(-NINES), "--format", "json"], "a rank of hfk_Mn"),
        (["corollary", "--g", "3", "--n", str(NINES)], "a rank of the k=g-2 groups"),
        (["tables", "hfplus_Z", "--n", "1", "--top", str(NINES)],
         f"the degree count of hfplus_Z up to slot {NINES}"),
        (["xgd", "--g", "3", "--d", str(NINES)], f"the degree count of X(g=3, d={NINES})"),
    ]:
        code, out, err = run_main(capsys, *argv)
        assert (code, out, err) == (2, "", f"error: {what} has more than 4300 digits{REFUSED_TAIL}"), argv[:2]
    # one digit less prints
    code, out, err = run_main(capsys, "tables", "hfk_Mn", "--n", str(10**4300 - 3), "--format", "json")
    assert (code, err) == (0, "")
    assert f'"rank": {10**4300 - 1},' in out


def test_a_level_of_depth_zero_is_not_charged_for_n(capsys):
    # at d = 0 every rank is C(2g - 2, 0) = 1, which n does not reach: the longest n prints its rank
    for method in ("closed", "both"):
        code, out, err = run_main(capsys, "compute", "--method", method, "--g", "3", "--n", str(NINES), "--k", "2",
                                  "--format", "json")
        assert (code, err) == (0, ""), method
        payload = json.loads(out)
        for group in [payload] if method == "closed" else [payload["oracle"], payload["closed"]]:
            assert group["degrees"] == _degrees((3, 1)), method
    # from d = 1 on, |n| is charged as before
    code, out, err = run_main(capsys, "compute", "--method", "closed", "--g", "3", "--n", str(NINES), "--k", "1")
    assert (code, out) == (2, "")
    assert err == f"error: the ranks at g=3 d=1 |n|={NINES} may have 4302 digits{REFUSED_TAIL}"
    # a grid at g = 2 is d = 0 too, and its triple count is refused before it is printed
    code, out, err = run_main(capsys, "verify", "--g-max", "2", "--n", f"{-NINES}..{NINES}")
    assert (code, out, err) == (2, "", f"error: the triple count of the grid has more than 4300 digits{REFUSED_TAIL}")


def test_the_digit_bound_is_safe_past_the_floats(capsys):
    # g and d + 1 past a float: the bound is summed exactly, to the same digits
    with pytest.raises(BadParams, match=f"g={10**400} d=10 [|]n[|]=1 may have 4404 digits"):
        cli._refuse_unprintable(10**400, 10)
    cli._refuse_unprintable(10**400, 2)
    cli._refuse_unprintable(3, 10**400)
    # a negative d is a vanishing level: nothing to print
    cli._refuse_unprintable(10**400, -10**400, 10**4000)
    for argv in (["compute", "--g", str(NINES), "--n", "1", "--k", "1"], ["verify", "--g-max", str(NINES)],
                 ["xgd", "--g", str(NINES), "--d", "3"]):
        code, out, err = run_main(capsys, *argv)
        assert (code, out) == (2, "") and err.startswith(f"error: the ranks at g={NINES} d=") and err.endswith(REFUSED_TAIL)
    assert run_main(capsys, "compute", "--method", "closed", "--g", "1000", "--n", "1", "--k", "1")[0] == 0
    code, out, err = run_main(capsys, "xgd", "--g", str(10**400), "--d", "2", "--format", "json")
    assert (code, err) == (0, "")
    assert json.loads(out)["degrees"][-1] == {"degree": 10**400, "rank": 1, "torsion": []}
    code, out, err = run_main(capsys, "compute", "--g", "3", "--n", "1", "--k", str(-NINES), "--format", "json")
    assert (code, err) == (0, "")
    assert json.loads(out)["match"] is True


# each single-integer option of every command, with the other options at valid values
INT_OPTIONS = [
    (["compute", "--g", "3", "--n", "2", "--k", "1"], ("--g", "--n", "--k")),
    (["compute", "--g", "3", "--n", "2", "--k", "1", "--method", "closed"], ("--g", "--n", "--k")),
    (["verify", "--g-max", "3", "--n", "2"], ("--g-max", "--n")),
    (["tables", "hfplus_Mn", "--n", "2", "--top", "2"], ("--n", "--top")),
    (["tables", "hfk_Mn", "--n", "2", "--top", "2"], ("--n", "--top")),
    (["xgd", "--g", "3", "--d", "1"], ("--g", "--d")),
    (["xgd", "--g", "3", "--d", "1", "--homology"], ("--g", "--d")),
    (["corollary", "--g", "3", "--n", "2"], ("--g", "--n")),
    (["degshift", "--n", "3", "--k", "1", "--x", "2"], ("--n", "--k", "--x")),
]


@pytest.mark.parametrize("argv, options", INT_OPTIONS, ids=[" ".join(argv) for argv, _ in INT_OPTIONS])
def test_every_integer_option_prints_or_refuses_at_any_length(capsys, monkeypatch, argv, options):
    monkeypatch.setenv("MTFLOER_THREADS", "1")
    for option in options:
        for value in (10**400 - 1, -(10**400 - 1), NINES, -NINES):
            given = list(argv)
            given[given.index(option) + 1] = str(value)
            for fmt in ("json", "table"):
                code, out, err = run_main(capsys, *given, "--format", fmt if argv[0] != "verify" else "json")
                assert code in (0, 2), (given[:2], option, value)
                if code == 2:
                    assert out == "" and err.startswith("error: ") and err.count("\n") == 1, (option, value)
                else:
                    assert out and err == "", (option, value)


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


def _captured_payloads(monkeypatch) -> list:
    """The payload of each JSON report written from now on, captured where the writer is handed it."""
    real = cli._dump
    payloads = []

    def captured(obj, write):
        payloads.append(obj)
        real(obj, write)

    monkeypatch.setattr(cli, "_dump", captured)
    return payloads


def _csv_reference(payload) -> str:
    """The CSV of a compute or verify payload, written out from its JSON groups by hand."""
    if "entries" in payload:
        items = [(entry["params"], entry["oracle"], entry["closed"], entry["match"]) for entry in payload["entries"]]
    elif "match" in payload:
        items = [(payload, payload["oracle"], payload["closed"], payload["match"])]
    elif payload["pipeline"] == "closed":
        items = [(payload, None, payload, None)]
    else:
        items = [(payload, payload, None, None)]
    lines = ["g,n,k,degree,rank_oracle,rank_closed,match"]
    for params, *groups, match in items:
        ranks = [None if group is None else {d["degree"]: d["rank"] for d in group["degrees"]} for group in groups]
        for degree in sorted({d for found in ranks if found for d in found}):
            cells = ["" if found is None else str(found.get(degree, 0)) for found in ranks]
            lines.append(",".join([str(params[key]) for key in "gnk"] + [str(degree), *cells, "" if match is None else str(match).lower()]))
    return "".join(line + "\n" for line in lines)


def test_writer_matches_json_dumps_on_every_command(capsys, monkeypatch, tmp_path):
    # the bytes each command writes, on stdout and under --emit, against the payload it was handed
    monkeypatch.setenv("MTFLOER_THREADS", "1")
    payloads = _captured_payloads(monkeypatch)
    for argv in DUMPS_ARGV:
        code, out, err = run_main(capsys, *argv, "--format", "json")
        assert (code, err) == (0, ""), argv
        assert len(payloads) == 1 and out == _json_text(payloads.pop()), argv
        if argv[0] == "verify":
            report = tmp_path / "report.json"
            code, out, err = run_main(capsys, *argv, "--format", "json", "--emit", str(report))
            assert (code, err) == (0, "") and out.endswith(f"report written to {report}\n"), argv
            assert len(payloads) == 1 and report.read_text() == _json_text(payloads.pop()), argv


def test_streamed_csv_matches_the_rows_of_the_json_payload_on_every_command(capsys, monkeypatch, tmp_path):
    monkeypatch.setenv("MTFLOER_THREADS", "1")
    payloads = _captured_payloads(monkeypatch)
    checked = 0
    for argv in DUMPS_ARGV:
        if argv[0] not in ("compute", "verify"):
            continue
        # wall times differ from run to run, but no CSV cell holds one
        assert run_main(capsys, *argv, "--format", "json")[0] == 0
        expected = _csv_reference(payloads.pop())
        assert run_main(capsys, *argv, "--format", "csv") == (0, expected, ""), argv
        if argv[0] == "verify":
            report = tmp_path / "report.csv"
            code, _, err = run_main(capsys, *argv, "--format", "csv", "--emit", str(report))
            assert (code, err, report.read_text()) == (0, "", expected), argv
        checked += 1
    assert payloads == [] and checked == 8


@pytest.fixture(scope="module")
def verify_g6_report():
    """The report of serial verify --g-max 6 --n -6..6."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("MTFLOER_THREADS", "1")
        return cli.run_sweep(6, [n for n in range(-6, 7) if n])


def test_the_json_writer_holds_a_small_share_of_the_report(verify_g6_report):
    # the finished report is held; writing it to a stream that keeps only a digest takes little more
    digest, written = hashlib.sha256(), []

    class Sink:
        def write(self, text):
            digest.update(text.encode())
            written.append(len(text))

    tracemalloc.start()
    try:
        cli._render(cli.Output(verify_g6_report), "json", Sink())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    expected = _json_text(verify_g6_report)
    assert (digest.hexdigest(), sum(written)) == (hashlib.sha256(expected.encode()).hexdigest(), len(expected))
    assert len(written) > 10
    assert peak < len(expected) / 4, (peak, len(expected))


def test_the_csv_writer_writes_each_row_as_it_is_made(verify_g6_report):
    # csv.writer's fixed record buffer (128 KiB on CPython) and the interpreter's tuple free lists
    # outweigh a small report under tracemalloc, so the streaming itself is pinned: each row is
    # made only once every row before it has been written
    made, written, ahead = 0, [], []

    def rows():
        nonlocal made
        for row in cli._verify_rows(verify_g6_report["entries"]):
            made += 1
            yield row

    class Sink:
        def write(self, text):
            ahead.append(made - len(written))
            written.append(text)

    cli._render(cli.Output(verify_g6_report, rows=rows), "csv", Sink())
    assert "".join(written) == _csv_reference(verify_g6_report)
    assert len(written) == made + 1 > 500
    assert ahead == [0] * len(written)


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
