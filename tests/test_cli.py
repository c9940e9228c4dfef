import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from hankelab import cli, hankel
from hankelab.cache import TOOL_VERSION, CacheEntry
from hankelab.checks import REGISTRY, CheckDef
from hankelab.cli import UsageError, main, pool_size
from hankelab.poly import InexactDivision, Poly
from hankelab.rat import format_rat
from hankelab.report import fail_row, finding_row, ok_row
from hankelab.sequences import F21, F31


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_det_symbolic(capsys):
    code, out, _ = run(capsys, "det", "--family", "3,1", "--n", "1", "--x", "symbolic")
    assert code == 0
    assert out.strip() == "5 - 2x"


def test_det_at_point(capsys):
    code, out, _ = run(capsys, "det", "--family", "2,1", "--n", "3", "--x", "2")
    assert code == 0
    assert out.strip() == "-7"


def test_det_n0(capsys):
    code, out, _ = run(capsys, "det", "--family", "3,1", "--n", "0")
    assert code == 0
    assert out.strip() == "1"


def test_det_json_roundtrips_poly(capsys):
    code, out, _ = run(
        capsys, "det", "--family", "3,1", "--n", "2", "--format", "json"
    )
    assert code == 0
    data = json.loads(out)
    assert Poly.from_json(data["value"]) == Poly([74, -60, 12])


def test_det_usage_errors(capsys):
    code, _, err = run(capsys, "det", "--family", "9x", "--n", "1")
    assert code == 2 and "unknown family" in err
    code, _, err = run(capsys, "det", "--family", "3,1", "--n", "0", "--variant", "M")
    assert code == 2


def test_factor_golden_display(capsys):
    code, out, err = run(capsys, "factor", "--family", "3,1", "--n", "10", "--x", "0")
    assert code == 0
    assert out.strip() == "2^2·7^2·37·41^2·43^3·47^2·53 · 41740796329"
    assert "prime" in err


def test_factor_n0(capsys):
    code, out, _ = run(capsys, "factor", "--family", "3,1", "--n", "0")
    assert code == 0
    assert out.strip() == "1"


def test_factor_zero_determinant_is_message_not_failure(capsys):
    # H_1^{(3,1)}(5/2) = 0
    code, out, _ = run(capsys, "factor", "--family", "3,1", "--n", "1", "--x", "5/2")
    assert code == 0
    assert "zero" in out


def test_factor_rational_value(capsys):
    # aex determinants take rational values; both parts get factored
    code, out, _ = run(capsys, "factor", "--family", "aex", "--n", "1", "--x", "3/7")
    assert code == 0
    assert "/" in out


def test_series_commands(capsys):
    code, out, _ = run(capsys, "series", "--t", "--beta", "3", "--order", "3")
    assert code == 0 and out.strip() == "1, 1, 3, 12"
    code, out, _ = run(capsys, "series", "--tau", "--order", "2")
    assert code == 0 and out.strip() == "1, 3/2, 5"
    code, out, _ = run(
        capsys, "series", "--f", "--family", "2,1", "--form", "closed", "--order", "1"
    )
    assert code == 0 and out.strip() == "[1], [3, 1]"


def test_series_usage(capsys):
    code, _, err = run(capsys, "series", "--t", "--order", "2")
    assert code == 2 and "--beta" in err


def test_formula(capsys):
    # golden values frozen from the brute-force (3,2) determinant at x = 0
    code, out, _ = run(capsys, "formula", "--id", "p32", "--n", "1..3")
    assert code == 0
    assert out.splitlines() == ["n=1: 3", "n=2: 26", "n=3: 646"]


def test_verify_pass(capsys):
    code, out, _ = run(capsys, "verify", "--check", "de1", "--n", "1..4")
    assert code == 0
    assert out.count("PASS de1") == 4


def test_verify_unknown_check(capsys):
    code, _, err = run(capsys, "verify", "--check", "bogus", "--n", "1..2")
    assert code == 2


def test_exit_status_contract(capsys):
    # an injected failing check turns the exit status nonzero;
    # findings alone leave it zero
    REGISTRY["selftest"] = CheckDef(
        "selftest", lambda fam, n: [fail_row("selftest", n=n)], default_range=(1, 1)
    )
    REGISTRY["selffinding"] = CheckDef(
        "selffinding",
        lambda fam, n: [finding_row("selffinding", n=n), ok_row("selffinding", n=n)],
        default_range=(1, 1),
    )
    try:
        code, out, _ = run(capsys, "verify", "--check", "selftest")
        assert code == 1 and "FAIL" in out
        code, out, _ = run(capsys, "verify", "--check", "selffinding")
        assert code == 0 and "FINDING" in out
    finally:
        REGISTRY.pop("selftest")
        REGISTRY.pop("selffinding")


def test_verify_json_and_csv(capsys, tmp_path):
    code, out, _ = run(
        capsys, "verify", "--check", "p21at2", "--n", "0..3", "--format", "json"
    )
    assert code == 0
    rows = [json.loads(line) for line in out.strip().splitlines()]
    assert all(r["status"] == "pass" for r in rows)
    out_file = tmp_path / "rows.csv"
    code, _, _ = run(
        capsys,
        "verify", "--check", "p21at2", "--n", "0..3",
        "--format", "csv", "--output", str(out_file),
    )
    assert code == 0
    assert out_file.read_text().startswith("check,family,n,x,status,detail")


def test_cache_and_recheck(capsys, tmp_path):
    cache_path = tmp_path / "dets.jsonl"
    for _ in range(2):
        code, out, _ = run(
            capsys,
            "det", "--family", "3,1", "--n", "4", "--cache", str(cache_path),
        )
        assert code == 0
    assert cache_path.exists()
    lines = cache_path.read_text().strip().splitlines()
    assert len(lines) == 1  # second run was a cache hit
    code, out, _ = run(
        capsys,
        "det", "--family", "3,1", "--n", "4",
        "--cache", str(cache_path), "--recheck",
    )
    assert code == 0


def test_recheck_detects_corruption(capsys, tmp_path):
    cache_path = tmp_path / "dets.jsonl"
    run(capsys, "det", "--family", "3,1", "--n", "3", "--cache", str(cache_path))
    # corrupt the cached value and confirm --recheck trips
    line = json.loads(cache_path.read_text())
    line["value"] = ["999"]
    cache_path.write_text(json.dumps(line) + "\n")
    code, _, err = run(
        capsys,
        "det", "--family", "3,1", "--n", "3",
        "--cache", str(cache_path), "--recheck",
    )
    assert code == 1 and "mismatch" in err


def test_sweep_fast(capsys):
    code, out, _ = run(capsys, "sweep", "--suite", "fast")
    assert code == 0
    assert "FAIL" not in out


def test_parallel_jobs(capsys):
    code, out, _ = run(capsys, "verify", "--check", "p32,p30", "--n", "0..3", "--jobs", "2")
    assert code == 0
    assert out.count("PASS") == 8


def test_report_command(capsys, tmp_path):
    code, out, _ = run(
        capsys, "report", "--suite", "fast", "--output", str(tmp_path / "rep")
    )
    assert code == 0
    assert (tmp_path / "rep" / "report.jsonl").exists()
    assert (tmp_path / "rep" / "report.csv").exists()
    assert "0 fail" in out


def test_checks_listing(capsys):
    code, out, _ = run(capsys, "checks")
    assert code == 0
    assert "de1" in out and "dodgson" in out


def count_dets(monkeypatch):
    """Count the determinants formed, by kind, through the hankel module."""
    counts = {"symbolic": 0, "point": 0}

    def counting(kind, fn):
        def wrapped(rows):
            counts[kind] += 1
            return fn(rows)

        return wrapped

    monkeypatch.setattr(
        hankel, "det_fraction_free", counting("symbolic", hankel.det_fraction_free)
    )
    monkeypatch.setattr(hankel, "det_rational", counting("point", hankel.det_rational))
    return counts


def test_det_forms_only_the_requested_determinant(capsys, monkeypatch, tmp_path):
    want = format_rat(hankel.quartet_at(F31, 3, "1/2")["K"])
    want_n = str(hankel.quartet(F21, 4).N)
    counts = count_dets(monkeypatch)
    code, out, _ = run(
        capsys, "det", "--family", "3,1", "--n", "3", "--x", "1/2", "--variant", "K"
    )
    assert code == 0 and counts == {"symbolic": 0, "point": 1}
    assert out.strip() == want

    cache_path = str(tmp_path / "dets.jsonl")
    for argv, symbolic in (
        ((), 1),  # miss: one determinant, then cached
        ((), 1),  # hit: nothing new
        (("--recheck",), 2),  # hit rechecked: one fresh determinant
    ):
        code, out, _ = run(
            capsys, "det", "--family", "2,1", "--n", "4", "--variant", "N",
            "--cache", cache_path, *argv,
        )
        assert code == 0 and counts["symbolic"] == symbolic
        assert out.strip() == want_n


def write_two_entries(capsys, cache_path):
    for n in ("2", "3"):
        run(capsys, "det", "--family", "3,1", "--n", n, "--cache", str(cache_path))
    return cache_path.read_text().splitlines(keepends=True)


def test_cache_truncated_final_line_is_a_miss(capsys, tmp_path):
    cache_path = tmp_path / "dets.jsonl"
    lines = write_two_entries(capsys, cache_path)
    cache_path.write_text(lines[0] + lines[1][:40])  # a put cut short
    code, out, err = run(
        capsys, "det", "--family", "3,1", "--n", "3", "--format", "json",
        "--cache", str(cache_path),
    )
    assert code == 0 and json.loads(out)["cached"] is False
    assert "dets.jsonl:2" in err and "truncated" in err
    # the recomputed entry replaced the partial line: the file is whole again
    assert cache_path.read_text() == "".join(lines)
    code, out, err = run(
        capsys, "det", "--family", "3,1", "--n", "3", "--format", "json",
        "--cache", str(cache_path),
    )
    assert code == 0 and json.loads(out)["cached"] is True and err == ""


def test_cache_corrupt_middle_line_is_an_error(capsys, tmp_path):
    cache_path = tmp_path / "dets.jsonl"
    lines = write_two_entries(capsys, cache_path)
    cache_path.write_text(lines[0][:40] + "\n" + lines[1])
    code, out, err = run(
        capsys, "det", "--family", "3,1", "--n", "2", "--cache", str(cache_path)
    )
    # a damaged file is not a usage error: exit 1, naming the line
    assert code == 1 and out == ""
    assert "error:" in err and "dets.jsonl:1: corrupt cache line" in err
    code, _, err = run(
        capsys, "det", "--family", "9x", "--n", "2", "--cache", str(cache_path)
    )
    assert code == 2 and "unknown family" in err


def test_stale_cache_version_is_a_miss(capsys, tmp_path):
    cache_path = tmp_path / "dets.jsonl"
    stale = CacheEntry("3,1", 2, "H", Poly([999]), version="hankelab-0.0.1")
    cache_path.write_text(stale.to_json() + "\n")
    argv = ("det", "--family", "3,1", "--n", "2", "--format", "json",
            "--cache", str(cache_path))
    code, out, _ = run(capsys, *argv)
    data = json.loads(out)
    assert code == 0 and data["cached"] is False
    assert Poly.from_json(data["value"]) == Poly([74, -60, 12])
    # recomputed and rewritten: the current entry is the last writer
    lines = cache_path.read_text().splitlines()
    assert len(lines) == 2 and json.loads(lines[1])["version"] == TOOL_VERSION
    code, out, _ = run(capsys, *argv)
    assert code == 0 and json.loads(out)["cached"] is True


def test_usage_errors_exit_2(capsys):
    for argv in (
        ("verify", "--check", "p32", "--n", "one..two"),
        ("formula", "--id", "p32", "--n=-1..2"),
        ("formula", "--id", "ap31at0", "--n", "2", "--x", "3"),
        ("formula", "--id", "p32", "--n", "1", "--x", "3"),
        ("formula", "--id", "nope", "--n", "2"),
        ("factor", "--family", "3,1", "--n=-1"),
        ("factor", "--family", "3,1", "--n", "3", "--bound", "1"),
        ("series", "--t", "--beta", "0", "--order", "2"),
        ("series", "--f", "--family", "3,-2", "--order", "2"),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "" and err.startswith("error:"), argv


def test_internal_error_is_not_a_usage_error(capsys, monkeypatch):
    def broken(*_args):
        raise InexactDivision("tripwire")

    monkeypatch.setattr(cli, "variant_det", broken)
    with pytest.raises(InexactDivision):
        main(["det", "--family", "3,1", "--n", "2"])


def test_one_bad_n_is_one_fail_row(capsys, monkeypatch):
    def run_check(fam, n):
        if n == 2:
            raise InexactDivision(f"inexact at n={n}")
        return [ok_row("selfraise", n=n)]

    monkeypatch.setitem(REGISTRY, "selfraise", CheckDef("selfraise", run_check))
    code, out, _ = run(capsys, "verify", "--check", "selfraise", "--n", "1..3")
    assert code == 1
    assert out.splitlines() == [
        "PASS selfraise n=1",
        "FAIL selfraise n=2 (InexactDivision: inexact at n=2)",
        "PASS selfraise n=3",
    ]


def test_jobs_must_be_positive(capsys, tmp_path):
    for argv in (
        ("verify", "--check", "p32", "--n", "0..1", "--jobs", "0"),
        ("sweep", "--suite", "fast", "--jobs", "-1"),
        ("report", "--suite", "fast", "--jobs", "0", "--output", str(tmp_path)),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2 and "--jobs" in err and out == ""


def test_pool_size_clamps_to_tasks_and_cpus():
    assert pool_size(4, 10, 2) == 2
    assert pool_size(8, 3, 16) == 3
    assert pool_size(1, 100, 8) == 1
    assert pool_size(2, 0, 2) == 1
    with pytest.raises(UsageError):
        pool_size(0, 10, 2)


SRC = Path(__file__).resolve().parents[1] / "src"


def modules_loaded_by(*argv):
    """The hankelab modules a fresh interpreter holds after `main(argv)`."""
    script = (
        "import json, sys\n"
        "from hankelab import cli\n"
        f"code = cli.main({list(argv)!r})\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('hankelab'))),"
        " file=sys.stderr)\n"
        "sys.exit(code)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stderr.splitlines()[-1]))


def test_det_loads_only_the_layers_it_runs():
    loaded = modules_loaded_by("det", "--family", "3,1", "--n", "3", "--x", "2")
    assert "hankelab.hankel" in loaded
    unused = ("checks", "identities", "closed_forms", "sturm", "jet", "factor", "report")
    assert loaded.isdisjoint(f"hankelab.{m}" for m in unused)


def test_factor_loads_factor_but_not_the_checks():
    loaded = modules_loaded_by("factor", "--family", "3,1", "--n", "10")
    assert "hankelab.factor" in loaded
    assert loaded.isdisjoint({"hankelab.checks", "hankelab.identities"})


def test_sweep_and_report_look_up_the_acceptance_suite_when_run(
    capsys, monkeypatch, tmp_path
):
    # the benchmark runs a slice of the suite by replacing this name
    monkeypatch.setattr(cli, "acceptance_suite", lambda: [("p32", None, 1, 2)])
    code, out, _ = run(capsys, "sweep", "--suite", "acceptance")
    assert code == 0
    assert out.splitlines() == ["PASS p32 n=1", "PASS p32 n=2"]
    code, out, _ = run(capsys, "report", "--output", str(tmp_path))
    assert code == 0 and out.startswith("2 pass, 0 fail, 0 findings")
