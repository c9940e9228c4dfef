import errno
import hashlib
import json
import os
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from reference_det import reconstruct

from hankelab import checks, cli, commands, hankel, hankel_checks
from hankelab.cache import TOOL_VERSION, CacheEntry, DetCache
from hankelab.checks import REGISTRY, CheckDef, acceptance_suite
from hankelab.cli import UsageError, main
from hankelab.commands import pool_size, pool_tasks
from hankelab.closed_forms import ALMOST_PRODUCTS, AP_POINTS, PRODUCTS
from hankelab.hankel import hankel_det, hankel_det_at
from hankelab.poly import InexactDivision, Poly
from hankelab.report import fail_row, finding_row, ok_row
from hankelab.sequences import F21, F30, F31, F32, F3K2M, FAEX, FSHIFT22, FSHIFT31


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


@pytest.mark.parametrize("argv, want", [
    (("det", "--family", "3,1", "--n", "2"), "191\n"),
    (("factor", "--family", "3,1", "--n", "2"), "191\n"),
    (("formula", "--id", "ap21", "--n", "2"), "n=2: 19\n"),
], ids=["det", "factor", "formula"])
def test_a_negative_fraction_after_x_is_a_point(capsys, argv, want):
    # argparse reads only negative ints and decimals as values, so -3/2
    # after --x would be an option; it is the point, as with --x=-3/2.
    # H^{(3,1)}_2(-3/2) = 191 (a prime) and H^{(2,1)}_2(-3/2) = 1 + 9 + 9
    assert run(capsys, *argv, "--x", "-3/2") == (0, want, "")
    assert run(capsys, *argv, "--x=-3/2") == (0, want, "")


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
    for name in ("a,b", "3,1,2"):
        code, _, err = run(capsys, "det", "--family", name, "--n", "2")
        assert code == 2 and err == f"error: unknown family '{name}'\n"
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


# sha256 of the stdout of `hankelab series` at order 25.  A family's direct
# and closed forms expand to the same series, so they share one digest.
F_SERIES_SHA256 = {
    "3,1": "3adf3656c60b30b39c89ff2539321688e6881ed6a0eaba15d5a0cba6ec413daf",
    "2,1": "375d64d20e98b4ec7f7770213a803f9fa92454718128f71abbdf115168f9d3da",
    "3,0": "e8ad497d7acca3a4e1c99641494550f630ed1959ac61676cb8abab91ad8c4b33",
    "3k-2m": "f68288443323b7d5a9af88a6177390fe17326a03c064be03f810217d732dd389",
    "aex": "a7586153f60b14cc9bcc314276eeba02b55b1dc26af59ace312bc6e929751ede",
}
SERIES_SHA256 = [
    *((("--f", "--family", fam, "--form", form), digest)
      for fam, digest in F_SERIES_SHA256.items() for form in ("direct", "closed")),
    (("--t", "--beta", "2"), "ac605a71110e8dca2ef2bd8583b1fa4d7f41b0dd1418640b58514f64f99dff09"),
    (("--t", "--beta", "3"), "fcb411a626bcedddb07a9946bede17cf8e0ec2ab5d696f0b62c7704d54875d22"),
    (("--tau",), "62e0d44391bd7a621d5f9a5a8db4c8eaaf3f6f2cbdb0bb0e6dcbdf8112dc9dca"),
]


@pytest.mark.parametrize("args,digest", SERIES_SHA256,
                         ids=[" ".join(a) for a, _d in SERIES_SHA256])
def test_series_output_is_pinned(capsys, args, digest):
    code, out, _ = run(capsys, "series", *args, "--order", "25")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_series_usage(capsys):
    code, _, err = run(capsys, "series", "--t", "--order", "2")
    assert code == 2 and "--beta" in err


def test_formula(capsys):
    # golden values frozen from the brute-force (3,2) determinant at x = 0
    code, out, _ = run(capsys, "formula", "--id", "p32", "--n", "1..3")
    assert code == 0
    assert out.splitlines() == ["n=1: 3", "n=2: 26", "n=3: 646"]


# Each formula id's check value at n: H_n at the product's point, H_n itself
# for the parametric almost products, and the specialized targets.
FORMULA_CHECK_VALUES = {
    "p32": lambda n: hankel_det_at(F32, n, 0),
    "p30": lambda n: hankel_det_at(F30, n, 0),
    "p31at3": lambda n: hankel_det_at(F31, n, 3),
    "p31at3half": lambda n: hankel_det_at(F31, n, Fraction(3, 2)),
    "p31at3quarter": lambda n: hankel_det_at(F31, n, Fraction(3, 4)),
    "p30at3": lambda n: hankel_det_at(F30, n, 3),
    "p30at3half": lambda n: hankel_det_at(F30, n, Fraction(3, 2)),
    "paexat3sevenths": lambda n: hankel_det_at(FAEX, n, Fraction(3, 7)),
    "p21at0": lambda n: hankel_det_at(F21, n, 0),
    "p21at2": lambda n: hankel_det_at(F21, n, 2),
    "ap31": lambda n: hankel_det(F31, n),
    "ap31alt": lambda n: hankel_det(F31, n),
    "ap21": lambda n: hankel_det(F21, n),
    "ap31at0": lambda n: hankel_det(F31, n)(0),
    "ap31at1": lambda n: hankel_det_at(F32, n, 0),  # the (3,2) product
    "ap21at0": lambda n: Fraction(1),
    "ap21at1": lambda n: Fraction((-1) ** (n * (n + 1) // 2)),
}


@pytest.mark.parametrize("fid", [*PRODUCTS, *ALMOST_PRODUCTS, *AP_POINTS])
def test_formula_prints_the_value_its_check_compares_with(capsys, fid):
    code, out, _ = run(capsys, "formula", "--id", fid, "--n", "0..8")
    assert code == 0
    want = [FORMULA_CHECK_VALUES[fid](n) for n in range(9)]
    assert out.splitlines() == [f"n={n}: {v}" for n, v in enumerate(want)]


def test_formula_without_a_point_rejects_any_x(capsys):
    # the products and the specialised almost products take no --x, symbolic included
    no_point = [*PRODUCTS, *AP_POINTS]
    assert len(no_point) == 14
    for fid in no_point:
        for x in ("symbolic", "3"):
            code, out, err = run(capsys, "formula", "--id", fid, "--n", "2", "--x", x)
            assert (code, out, err) == (2, "", f"error: {fid} takes no --x\n"), (fid, x)


def test_verify_pass(capsys):
    code, out, _ = run(capsys, "verify", "--check", "de1", "--n", "1..4")
    assert code == 0
    assert out.count("PASS de1") == 4


def test_verify_zero_minor_family_runs_both_fallbacks(capsys):
    # the (1,0) family has H_2 = 0: dodgson's own H_j past that zero pivot
    # are eliminated alone and pass; the Table-1 adjugates from n = 2 on
    # are of singular matrices, one fail row each, and verify exits 1
    code, out, _ = run(capsys, "verify", "--check", "table1,dodgson", "--family", "1,0",
                       "--n", "1..4")
    assert code == 1
    assert out.splitlines() == [
        *(f"PASS dodgson family=1,0 n={n}" for n in range(1, 5)),
        "PASS table1 family=1,0 n=1 (11 rules)",
        *(f"FAIL table1 family=1,0 n={n} (ValueError: singular matrix)" for n in range(2, 5)),
    ]


def test_verify_unknown_check(capsys):
    code, _, err = run(capsys, "verify", "--check", "bogus", "--n", "1..2")
    assert code == 2


def test_exit_status_contract(capsys):
    # an injected failing check turns the exit status nonzero;
    # findings alone leave it zero
    REGISTRY["selftest"] = CheckDef(
        lambda fam, n: [fail_row("selftest", n=n)], (("acceptance", None, 1, 1),)
    )
    REGISTRY["selffinding"] = CheckDef(
        lambda fam, n: [finding_row("selffinding", n=n), ok_row("selffinding", n=n)],
        (("acceptance", None, 1, 1),),
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
    lines = {line.split()[0]: line for line in out.splitlines()}
    assert lines["dodgson"].startswith("dodgson            n=1..10 [family, default 3,1]  H_")
    assert lines["p21at0"] == "p21at0             n=0..20  product formula vs determinant"


def test_acceptance_suite_is_the_golden_suite():
    golden = json.loads((ROOT / "perfbench" / "golden" / "acceptance.json").read_text())
    suite = [[name, fam and fam.name, lo, hi] for name, fam, lo, hi in acceptance_suite()]
    assert sorted(map(tuple, suite), key=repr) == sorted(map(tuple, golden["suite"]), key=repr)
    # every check is in the suite, and its first item is what `verify` runs
    assert {name for name, *_ in suite} == set(REGISTRY)


def test_fast_suite_is_pinned():
    assert Counter(checks.suite("fast")) == Counter([
        ("de1", None, 1, 5),
        ("de2np1", None, 1, 5),
        ("fig4", None, 1, 4),
        ("p31at3", None, 0, 5),
        ("ap31", None, 0, 5),
        ("ap21", None, 0, 6),
        ("l1_31", None, 10, 10),
        ("r_det01", None, 2, 5),
        ("dodgson", F31, 1, 5),
        ("weights", F21, 1, 5),
        ("gfequiv", F31, 10, 10),
        ("tseries", None, 10, 10),
    ])


def test_deep_suite_is_pinned():
    # the 77 items past acceptance; CI runs the suite and gates its rows
    products = ("p32", "p30", "p31at3", "p31at3half", "p31at3quarter", "p30at3", "p30at3half",
                "paexat3sevenths", "p21at0", "p21at2")
    tables = ("de1", "de2np1", "de2np2ak", "thme1", "thme2", "thme3", "thme4", "fig4",
              "r_det01", "r_linear", "r_secondder", "r_rhs", "r_x3", "r_x3half", "r_x3quarter",
              "r_crec", "r_21_first", "r_21_second", "r_21_factored", "r_21_third", "r_21_x0",
              "r_21_x2", "threeterm31", "threeterm21")
    almost = ("ap31", "ap31alt", "ap21", "ap31at0", "ap31at1", "ap21at0", "ap21at1", "rec31at1")
    lemma_ids = ("l1_31", "l2_31", "l1_21", "l2_21", "l1_30", "l2_30", "l1_3k2m", "l2_3k2m",
                 "l1_aex", "l2_aex")
    generating = (F31, F21, F30, F3K2M, FAEX)
    assert Counter(checks.suite("deep")) == Counter([
        *((name, None, 0, 60) for name in products),
        *((name, None, 2, 20) for name in tables),
        *((name, None, 0, 30) for name in almost),
        ("explicit-weights", F31, 2, 20),
        ("explicit-weights", F21, 1, 20),
        *((name, fam, 60, 60) for name in ("gfequiv", "fcoeffs") for fam in generating),
        ("tseries", None, 60, 60),
        *((name, None, 60, 60) for name in lemma_ids),
        ("chebjac", None, 0, 30),
        ("interlace", None, 1, 30),
        ("dodgson", F31, 1, 20),
        *(("dodgson", fam, 1, 12) for fam in (F21, F30, F32, F3K2M, FAEX, FSHIFT31, FSHIFT22)),
        ("table1", F31, 1, 8),
        ("table1", F21, 1, 8),
    ])


def test_a_suite_is_added_in_the_check_table_alone(capsys, monkeypatch, tmp_path):
    # a check whose only item names a new suite: the suite runs that item,
    # and `verify` defaults to it since the check has no acceptance item
    monkeypatch.setitem(REGISTRY, "selfsmoke",
                        CheckDef(lambda fam, n: fam == F21, (("smoke", F21, 1, 2),)))
    want = ["PASS selfsmoke family=2,1 n=1", "PASS selfsmoke family=2,1 n=2"]
    for argv in (("sweep", "--suite", "smoke"), ("verify", "--check", "selfsmoke")):
        code, out, _ = run(capsys, *argv)
        assert (code, out.splitlines()) == (0, want), argv
    code, out, _ = run(capsys, "report", "--suite", "smoke", "--output", str(tmp_path))
    assert code == 0 and out.startswith("2 pass, 0 fail, 0 findings")
    rows = [json.loads(line) for line in (tmp_path / "report.jsonl").read_text().splitlines()]
    assert [(r["check"], r["family"], r["n"]) for r in rows] == [
        ("selfsmoke", "2,1", 1), ("selfsmoke", "2,1", 2)
    ]
    for command in ("sweep", "report"):
        code, out, err = run(capsys, command, "--suite", "nope", "--output", str(tmp_path))
        # the message names every suite the table carries, the patched one too
        assert (code, out, err) == (
            2, "", "error: unknown suite 'nope' (acceptance, deep, fast, smoke)\n"
        )


def test_an_output_that_cannot_be_written_is_an_error(capsys, monkeypatch, tmp_path):
    # not a usage error: exit 1 with the path and the system's reason, and
    # `verify` and `sweep` open the file before they run any check
    missing = tmp_path / "missing" / "rows.txt"
    want = (1, "", f"error: {missing}: {os.strerror(errno.ENOENT)}\n")
    with monkeypatch.context() as patch:
        patch.setattr(checks, "run_check", lambda *_args: pytest.fail("ran a check"))
        for argv in (("verify", "--check", "p32", "--n", "1"), ("sweep", "--suite", "fast")):
            assert run(capsys, *argv, "--output", str(missing)) == want, argv
    # `report` makes its directory before it runs any check
    (tmp_path / "file").write_text("")
    outdir = tmp_path / "file" / "rep"
    monkeypatch.setattr(commands, "_run_suite", lambda *_args: pytest.fail("ran the suite"))
    assert run(capsys, "report", "--suite", "fast", "--output", str(outdir)) == (
        1, "", f"error: {outdir}: {os.strerror(errno.ENOTDIR)}\n"
    )


def test_verify_defaults_to_the_first_acceptance_item(capsys):
    code, out, _ = run(capsys, "verify", "--check", "explicit-weights,p21at0")
    assert code == 0
    lines = out.splitlines()
    assert [line for line in lines if "explicit-weights" in line][0].startswith(
        "PASS explicit-weights family=3,1 n=2 "
    )
    assert sum("explicit-weights family=3,1" in line for line in lines) == 7
    assert sum(line.startswith("PASS p21at0 n=") for line in lines) == 21


def test_run_check_calls_the_layer_functions_bound_when_it_runs(monkeypatch):
    # a tracer rebinds these module globals after the registry is built
    calls = []

    def dodgson(family, n):
        calls.append((family, n))
        return n != 2

    monkeypatch.setattr(checks, "dodgson_check", dodgson)
    monkeypatch.setattr(checks, "product_matches_determinant", lambda pid, n: False)
    rows = checks.run_check("dodgson", None, range(1, 4))
    assert calls == [(F31, 3), (F31, 2), (F31, 1)]  # from the top; rows ascend
    assert [r.status for r in rows] == ["pass", "fail", "pass"]
    assert checks.run_check("p32", F21, [0]) == [fail_row("p32", n=0)]


def test_run_check_rows_are_those_of_each_n_in_ascending_order():
    # every acceptance item, n cut at 4 and given shuffled: run_check walks
    # the n from the top, and its rows are those each n gives on its own
    import random

    rng = random.Random(20)
    for name, fam, lo, hi in acceptance_suite():
        ns = list(range(lo, min(hi, max(lo, 4)) + 1))
        rng.shuffle(ns)
        want = [row for n in sorted(ns) for row in checks.run_check(name, fam, [n])]
        assert checks.run_check(name, fam, ns) == want, name


def test_fail_row_of_a_fixed_label_check_names_its_label(monkeypatch):
    def raises(*_args):
        raise ValueError("no value")

    assert checks.run_check("ap31", None, [1]) == [ok_row("ap31", family="3,1", n=1)]
    monkeypatch.setattr(checks, "almost_product_eval", raises)
    detail = "ValueError: no value"
    assert checks.run_check("ap31", None, [1]) == [
        fail_row("ap31", family="3,1", n=1, detail=detail)
    ]
    assert checks.run_check("ap31at0", None, [2]) == [
        fail_row("ap31at0", family="3,1", n=2, x="0", detail=detail)
    ]


def test_a_finding_check_that_raises_gives_a_fail_row(monkeypatch):
    # a mismatch of the unproven fig4 ODE is a finding; an exception is not
    monkeypatch.setattr(checks, "ode_residual_for_det", lambda *_args: 1 / 0)
    label = checks.ODES["fig4"].family.name
    assert checks.run_check("fig4", None, [1]) == [
        fail_row("fig4", family=label, n=1, detail="ZeroDivisionError: division by zero")
    ]


def count_dets(monkeypatch):
    """Count the eliminations formed through the hankel module, by kind,
    starting from an empty ladder cache."""
    counts = {"symbolic": 0, "point": 0}

    def counting(fn):
        def wrapped(rows, ring, *rest):
            counts["symbolic" if ring is hankel.INT_POLY else "point"] += 1
            return fn(rows, ring, *rest)

        return wrapped

    monkeypatch.setattr(hankel, "ladder", counting(hankel.ladder))
    monkeypatch.setattr(hankel, "det_bareiss", counting(hankel.det_bareiss))
    monkeypatch.setattr(hankel, "_ladders", {})
    return counts


def test_det_forms_only_the_requested_determinant(capsys, monkeypatch, tmp_path):
    want = "22988"
    want_n = "78 - 1452x + 3969x^2 - 3132x^3 + 492x^4 + 120x^5 + 16x^6"
    counts = count_dets(monkeypatch)
    code, out, _ = run(
        capsys, "det", "--family", "3,1", "--n", "3", "--x", "1/2", "--variant", "K"
    )
    assert code == 0 and counts == {"symbolic": 0, "point": 1}
    assert out.strip() == want

    cache_path = str(tmp_path / "dets.jsonl")
    for argv, symbolic in (
        ((), 1),  # miss: one elimination, then cached
        ((), 1),  # hit: nothing new
        (("--recheck",), 2),  # hit rechecked: one fresh elimination
    ):
        hankel._ladders.clear()  # each run is a fresh process
        code, out, _ = run(
            capsys, "det", "--family", "2,1", "--n", "4", "--variant", "N",
            "--cache", cache_path, *argv,
        )
        assert code == 0 and counts["symbolic"] == symbolic
        assert out.strip() == want_n


def test_negative_fractions_print_as_p_over_q_on_every_path(capsys, tmp_path):
    # the printed forms, recorded before rationals were printed by str(Fraction)
    det_m = ("det", "--family", "3,1", "--n", "3", "--x", "1/2", "--variant", "M")
    assert run(capsys, *det_m) == (0, "-216377/2\n", "")
    code, out, _ = run(capsys, *det_m, "--format", "json")
    assert code == 0 and json.loads(out)["value"] == "-216377/2"
    cache_path = tmp_path / "dets.jsonl"
    for _ in ("miss", "hit"):  # a point read off the cached polynomial
        assert run(capsys, *det_m, "--cache", str(cache_path)) == (0, "-216377/2\n", "")

    code, out, _ = run(capsys, "formula", "--id", "ap21", "--n", "1..3", "--x", "1/3")
    assert code == 0 and out == "n=1: 1/3\nn=2: -5/9\nn=3: -29/27\n"
    # tau has no negative coefficient; its fractions print as p/q all the same
    code, out, _ = run(capsys, "series", "--tau", "--order", "6")
    assert code == 0 and out == "1, 3/2, 5, 21, 99, 1001/2, 2652\n"

    cache_path = tmp_path / "planted.jsonl"
    DetCache(str(cache_path)).put("3,1", 2, "M", Poly([Fraction(-3, 7), 0, Fraction(5, 2), -1]))
    (line,) = cache_path.read_text().splitlines()
    assert line.startswith(
        '{"family": "3,1", "n": 2, "value": ["-3/7", "0", "5/2", "-1"], "variant": "M", '
    )
    cached = ("det", "--family", "3,1", "--n", "2", "--variant", "M", "--cache", str(cache_path))
    assert run(capsys, *cached) == (0, "-3/7 + 5/2 x^2 - x^3\n", "")
    assert run(capsys, *cached, "--x", "3") == (0, "-69/14\n", "")


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


# A line of the cache whose fields do not have the types `to_json` writes,
# by field: each must be an error naming its line, never a hit or a traceback.
MALFORMED_CACHE_FIELDS = [
    ("value", [[1]]), ("family", ["3,1"]), ("n", 2.5), ("n", True), ("n", "2"),
    ("value", "74"), ("value", [74, -60, 12]), ("family", 31), ("variant", None),
    ("version", 2),
]


@pytest.mark.parametrize("field,bad", MALFORMED_CACHE_FIELDS,
                         ids=[f"{f}={json.dumps(v)}" for f, v in MALFORMED_CACHE_FIELDS])
def test_cache_line_with_a_malformed_field_is_an_error(capsys, tmp_path, field, bad):
    cache_path = tmp_path / "dets.jsonl"
    good = json.loads(CacheEntry("3,1", 2, "H", Poly([74, -60, 12])).to_json())
    malformed = json.dumps({**good, field: bad})
    argv = ("det", "--family", "3,1", "--n", "2", "--format", "json",
            "--cache", str(cache_path))
    cache_path.write_text(malformed + "\n" + json.dumps(good) + "\n")
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith(f"error: {cache_path}:1: corrupt cache line")
    # as the final line it is what a crash leaves: a miss, then truncated away
    cache_path.write_text(malformed + "\n")
    code, out, err = run(capsys, *argv)
    assert code == 0 and json.loads(out)["cached"] is False
    assert f"{cache_path}:1: skipping truncated final cache line" in err
    assert cache_path.read_text() == json.dumps(good, sort_keys=True) + "\n"


def test_cache_path_that_cannot_be_opened_is_an_error(capsys, tmp_path):
    # not a usage error: exit 1 with the path and the system's reason
    for path, errno_ in (
        (tmp_path / "missing" / "dets.jsonl", errno.ENOENT),  # written on the miss
        (tmp_path, errno.EISDIR),  # read when the cache is loaded
    ):
        code, out, err = run(
            capsys, "det", "--family", "3,1", "--n", "2", "--cache", str(path)
        )
        assert code == 1 and out == ""
        assert err == f"error: {path}: {os.strerror(errno_)}\n"
    assert not (tmp_path / "missing").exists()


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
        ("factor", "--family", "3,1", "--n", "20", "--bound", "200000000"),  # sieve too large
        ("series", "--t", "--beta", "0", "--order", "2"),
        ("series", "--f", "--family", "3,-2", "--order", "2"),
        # an option the chosen series does not read
        ("series", "--t", "--beta", "3", "--family", "3,1", "--order", "2"),
        ("series", "--tau", "--beta", "3", "--order", "2"),
        ("series", "--f", "--family", "3,1", "--beta", "2", "--order", "2"),
        ("series", "--t", "--beta", "3", "--form", "closed", "--order", "2"),
        ("verify", "--check", "dodgson", "--family", "3,1", "--n", "0"),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "" and err.startswith("error:"), argv
    # a range wholly below the check's min_n would run nothing and read as a pass
    _, _, err = run(capsys, "verify", "--check", "dodgson", "--family", "3,1", "--n", "0")
    assert err == "error: check 'dodgson' needs n >= 1\n"


def test_family_on_a_check_that_reads_none_is_a_usage_error(capsys):
    # the family would be dropped, and the row would name none: a pass of
    # something other than what was asked
    for check, n in (("r_det01", "2"), ("p32", "2"), ("degree-random", "1"),
                     ("dodgson,r_det01", "2")):
        code, out, err = run(capsys, "verify", "--check", check, "--family", "2,1", "--n", n)
        name = check.split(",")[-1]
        assert (code, out, err) == (2, "", f"error: check {name!r} takes no --family\n"), check
    # a family check runs the family it is given, as before
    for check, n in (("dodgson", "2"), ("table1", "1")):
        code, out, _ = run(capsys, "verify", "--check", check, "--family", "2,1", "--n", n)
        assert code == 0 and out.startswith(f"PASS {check} family=2,1 n={n}"), (check, out)


def test_internal_error_is_not_a_usage_error(capsys, monkeypatch):
    def broken(*_args):
        raise InexactDivision("tripwire")

    # `det` imports the elimination layer when it runs, so patch it there
    monkeypatch.setattr(hankel, "variant_det", broken)
    with pytest.raises(InexactDivision):
        main(["det", "--family", "3,1", "--n", "2"])


def test_one_bad_n_is_one_fail_row(capsys, monkeypatch):
    def run_check(fam, n):
        if n == 2:
            raise InexactDivision(f"inexact at n={n}")
        return [ok_row("selfraise", n=n)]

    monkeypatch.setitem(REGISTRY, "selfraise",
                        CheckDef(run_check, (("acceptance", None, 1, 3),)))
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


def test_pool_tasks_group_items_by_family_largest_n_first():
    dodgson21, l1_21 = ("dodgson", "2,1", 1, 10), ("l1_21", None, 30, 30)
    dodgson, de1, l1_31 = ("dodgson", "3,1", 1, 10), ("de1", None, 1, 12), ("l1_31", None, 30, 30)
    tseries, random = ("tseries", None, 25, 25), ("degree-random", None, 200, 200)
    tasks = [dodgson21, l1_21, dodgson, de1, l1_31, tseries, random]
    # keyed by the item's family, else the family its check reads, else the
    # check; groups by hi descending, ties to the one with more n (23
    # against 11), and a group's items by hi descending
    groups = [[random], [l1_31, de1, dodgson], [l1_21, dodgson21], [tseries]]
    assert pool_tasks(tasks, 2) == groups
    assert pool_tasks(tasks, 4) == groups
    # fewer groups than workers: one task per n, so every worker runs
    assert pool_tasks([("dodgson", "3,1", 1, 3)], 2) == [
        [("dodgson", "3,1", 3, 3)], [("dodgson", "3,1", 2, 2)], [("dodgson", "3,1", 1, 1)],
    ]
    assert pool_tasks([dodgson, de1], 2) == [[task] for task in sorted(
        [(name, fam, n, n) for name, fam, lo, hi in (dodgson, de1) for n in range(lo, hi + 1)],
        key=lambda task: -task[3],
    )]
    assert len(pool_tasks(tasks, 5)) == sum(hi - lo + 1 for *_, lo, hi in tasks)


def test_pool_tasks_merge_the_groups_of_families_a_check_reads_together():
    # chebjac reads (2,1) and 2k+2-shift, so it joins l1_21's items and the
    # 2k+2-shift ones in one group
    chebjac, shift = ("chebjac", None, 0, 12), ("dodgson", FSHIFT22.name, 1, 10)
    l1_21, de1 = ("l1_21", None, 30, 30), ("de1", None, 1, 12)
    assert pool_tasks([shift, de1, l1_21, chebjac], 2) == [[l1_21, chebjac, shift], [de1]]


def test_pool_workers_are_forked_where_the_platform_offers_fork(capsys, monkeypatch):
    import concurrent.futures
    import multiprocessing

    contexts = []

    class Recorded(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, *args, mp_context=None, **kwargs):
            contexts.append(mp_context)
            super().__init__(*args, mp_context=mp_context, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recorded)
    monkeypatch.setattr(commands, "_available_cpus", lambda: 2)
    code, _, _ = run(capsys, "verify", "--check", "p32", "--n", "0..3", "--jobs", "2")
    assert code == 0 and len(contexts) == 1
    if "fork" in multiprocessing.get_all_start_methods():
        assert contexts[0].get_start_method() == "fork"
    else:
        assert contexts[0] is None


def test_checks_state_the_family_their_test_reads(monkeypatch):
    # each acceptance item that names no family, run alone at its least n
    # with the a_k, convolution, packed-sequence and ladder memos empty,
    # builds the a_k of every family its check states and of no other
    from hankelab import lemmas, sequences

    for name, fam, lo, _hi in acceptance_suite():
        if fam is not None:
            continue
        for memo in ("_a_memo", "_conv_memo"):
            monkeypatch.setattr(sequences, memo, {})
        monkeypatch.setattr(lemmas, "_packed", {})
        monkeypatch.setattr(hankel, "_ladders", {})
        rows = checks.run_check(name, None, [lo])
        assert rows and all(row.status == "pass" for row in rows), name
        assert {family for family, _k in sequences._a_memo} == set(REGISTRY[name].reads), name


def test_pooled_sweep_builds_each_symbolic_ladder_in_one_worker(capsys, monkeypatch, tmp_path):
    # forked workers inherit a ladder memo that logs, per process, each
    # family whose symbolic ladder it builds
    import multiprocessing

    if "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("the workers inherit the logging memo only when forked")
    log = tmp_path / "built.log"

    class Logged(dict):
        def __setitem__(self, key, lad):
            if key not in self and key[1] is None:
                with open(log, "a", encoding="utf-8") as fh:
                    fh.write(f"{os.getpid()} {key[0].name}\n")
            super().__setitem__(key, lad)

    monkeypatch.setattr(hankel, "_ladders", Logged())
    monkeypatch.setattr(commands, "_available_cpus", lambda: 2)
    code, out, _ = run(capsys, "sweep", "--suite", "acceptance", "--format", "json",
                       "--jobs", "2")
    assert code == 0 and out.count("\n") == 802
    builders: dict[str, set] = {}
    for line in log.read_text(encoding="utf-8").splitlines():
        pid, family = line.split(" ", 1)
        builders.setdefault(family, set()).add(pid)
    assert len(set().union(*builders.values())) == 2  # both workers ran
    assert {f for f, pids in builders.items() if len(pids) > 1} == set()


def test_sweep_with_jobs_gives_the_serial_rows(capsys, monkeypatch):
    serial = run(capsys, "sweep", "--suite", "fast", "--format", "json")
    monkeypatch.setattr(commands, "_available_cpus", lambda: 2)  # a pool on any machine
    assert run(capsys, "sweep", "--suite", "fast", "--format", "json", "--jobs", "2") == serial
    assert serial[0] == 0 and serial[1].count("\n") > 50


def test_parser_of_one_command_prints_what_the_full_parser_prints(capsys, monkeypatch):
    cases = [
        ("--help",), ("-h", "det"), ("det", "--help"), ("verify", "-h"), ("nope",),
        ("nope", "--help"), (), ("det",), ("det", "--family", "3,1", "--n", "2", "extra"),
        ("sweep", "--suite", "nope"), ("checks", "extra"), ("det", "--family", "3,1", "--n", "1"),
    ]
    built = cli.build_parser(["det", "--family", "3,1", "--n", "1"])
    assert list(built._subparsers._group_actions[0].choices) == ["det"]
    lazy = [run(capsys, *argv) for argv in cases]
    full = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda argv=(): full())
    assert [run(capsys, *argv) for argv in cases] == lazy
    assert [code for code, *_ in lazy] == [0, 0, 0, 0, 2, 2, 2, 2, 2, 2, 2, 0]


ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


# Imported before the count starts: every command needs them, so what a
# query adds beyond them is what its layers cost at start-up.
BASELINE = "import argparse, json, fractions"


def run_fresh(script, *args):
    """Run a script in a fresh interpreter without site hooks (-S), so the
    machine's site packages do not add modules."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run(
        [sys.executable, "-S", "-c", script, *args],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc


def modules_loaded_by(*argv):
    """The modules `main(argv)` adds to a fresh interpreter beyond BASELINE."""
    script = (
        f"{BASELINE}\n"
        "import sys\n"
        "before = set(sys.modules)\n"
        "from hankelab import cli\n"
        "code = cli.main(sys.argv[1:])\n"
        "print(json.dumps(sorted(set(sys.modules) - before)), file=sys.stderr)\n"
        "sys.exit(code)\n"
    )
    return set(json.loads(run_fresh(script, *argv).stderr.splitlines()[-1]))


# Heavy standard-library modules that no det or factor query runs:
# dataclasses pulls in inspect, ast, dis and tokenize.
NOT_AT_START_UP = {"dataclasses", "inspect", "typing", "pathlib"}


def test_det_loads_only_the_layers_it_runs():
    loaded = modules_loaded_by("det", "--family", "3,1", "--n", "3", "--x", "2")
    assert "hankelab.hankel" in loaded
    unused = ("checks", "identities", "lemmas", "closed_forms", "sturm", "jet", "factor",
              "report", "series", "commands", "hankel_checks", "identity_checks", "odes")
    assert loaded.isdisjoint(f"hankelab.{m}" for m in unused)
    assert loaded.isdisjoint(NOT_AT_START_UP)


def test_det_cache_hit_loads_no_elimination(tmp_path):
    argv = ("det", "--family", "2,1", "--n", "4", "--variant", "N",
            "--cache", str(tmp_path / "dets.jsonl"))
    miss = modules_loaded_by(*argv)
    hit = modules_loaded_by(*argv)
    recheck = modules_loaded_by(*argv, "--recheck")
    assert "hankelab.hankel" in miss and "hankelab.hankel" in recheck
    assert {m for m in hit if m.startswith("hankelab")} == {
        "hankelab", "hankelab.cli", "hankelab.cache", "hankelab.poly", "hankelab.sequences"
    }
    assert "hankelab.hankel" not in hit
    for loaded in (miss, hit, recheck):
        # a miss eliminates on the ladder alone: no check-side determinant code
        assert loaded.isdisjoint({"hankelab.series", "hankelab.commands",
                                  "hankelab.hankel_checks"})
        assert loaded.isdisjoint(NOT_AT_START_UP)


def test_verify_loads_no_heavy_standard_library_module():
    loaded = modules_loaded_by("verify", "--check", "p32", "--n", "1")
    assert "hankelab.checks" in loaded
    assert loaded.isdisjoint(NOT_AT_START_UP)


def test_factor_loads_factor_but_not_the_checks():
    loaded = modules_loaded_by("factor", "--family", "3,1", "--n", "10")
    assert "hankelab.factor" in loaded
    assert loaded.isdisjoint({"hankelab.checks", "hankelab.identities", "hankelab.series",
                              "hankelab.commands"})
    assert loaded.isdisjoint(NOT_AT_START_UP)


def test_series_and_sweep_load_the_commands_and_the_series():
    for argv in (("series", "--t", "--beta", "3", "--order", "3"), ("sweep", "--suite", "fast")):
        loaded = modules_loaded_by(*argv)
        assert {"hankelab.commands", "hankelab.series"} <= loaded, argv


def test_point_screen_loads_no_generating_function():
    script = (
        "import json, sys\n"
        "from fractions import Fraction\n"
        "from hankelab import identities\n"
        "for rid in identities.SYMBOLIC_RELATIONS:\n"
        "    assert not any(identities.relation_residuals_at(rid, 3, Fraction(7, 5)))\n"
        "print(json.dumps(sorted(sys.modules)))\n"
    )
    loaded = set(json.loads(run_fresh(script).stdout))
    assert {"hankelab.identities", "hankelab.hankel"} <= loaded
    unused = ("series", "checks", "commands", "closed_forms", "sturm", "lemmas",
              "identity_checks", "hankel_checks", "jet")
    assert loaded.isdisjoint(f"hankelab.{m}" for m in unused)


def test_sweep_runs_one_cli_run_task_per_item(capsys, monkeypatch):
    # the benchmark counts pool tasks by wrapping this name in `cli`
    tasks, run_task = [], cli._run_task
    monkeypatch.setattr(cli, "_run_task", lambda task: tasks.append(task) or run_task(task))
    code, _, _ = run(capsys, "sweep", "--suite", "fast")
    assert code == 0
    assert tasks == [(name, fam.name if fam else None, lo, hi)
                     for name, fam, lo, hi in checks.suite("fast")]


def test_python_m_hankelab_runs_the_cli():
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    for argv, code, out in (
        (("det", "--family", "3,1", "--n", "1"), 0, "5 - 2x\n"),
        (("det", "--family", "3,1", "--n", "-1"), 2, ""),
    ):
        proc = subprocess.run(
            [sys.executable, "-m", "hankelab", *argv],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert (proc.returncode, proc.stdout) == (code, out), proc.stderr


def test_python_m_hankelab_cli_keeps_the_exit_codes_of_the_moved_commands():
    # run as `__main__`, cli.py must still be the module whose UsageError the
    # commands raise and `main` catches
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    for argv in (("verify", "--check", "nope"), ("sweep", "--suite", "nope"),
                 ("sweep", "--suite", "fast", "--jobs", "0"),
                 ("formula", "--id", "p30", "--n", "3..1"),
                 ("factor", "--family", "3,1", "--n", "2", "--bound", "1")):
        proc = subprocess.run(
            [sys.executable, "-m", "hankelab.cli", *argv],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 2, (argv, proc.stderr)
        assert proc.stderr.startswith("error: "), (argv, proc.stderr)
        assert proc.stdout == "", argv


def test_package_exports_load_on_first_use():
    # the package exports nothing: each layer loads when it is first imported
    script = (
        "import json, sys\n"
        "import hankelab\n"
        "print(json.dumps({\n"
        "    'loaded': sorted(m for m in sys.modules if m.startswith('hankelab.')),\n"
        "    'names': sorted(n for n in vars(hankelab) if not n.startswith('__')),\n"
        "    'all': hasattr(hankelab, '__all__')}))\n"
    )
    got = json.loads(run_fresh(script).stdout)
    assert got == {"loaded": [], "names": [], "all": False}


def test_record_classes_keep_equality_hash_and_validation():
    import pickle

    from hankelab.closed_forms import ODES
    from hankelab.factor import FactorReport, factor_smooth
    from hankelab.report import Row
    from hankelab.sequences import FamilyId

    fam = FamilyId(kind="binom", beta=3, alpha=1)
    assert fam == F31 and fam != F21 and hash(fam) == hash(("binom", 3, 1))
    assert repr(fam) == "FamilyId(kind='binom', beta=3, alpha=1)" and str(fam) == "3,1"
    assert FamilyId("aex") == FamilyId("aex", 0, 0) and pickle.loads(pickle.dumps(fam)) == fam
    with pytest.raises(ValueError, match="beta >= 1"):
        FamilyId("binom", 0, 1)
    with pytest.raises(AttributeError):
        fam.beta = 2

    entry = CacheEntry("2,1", 3, "K", Poly([1, 0, -4]))
    assert entry.version == TOOL_VERSION
    assert entry == CacheEntry("2,1", 3, "K", Poly([1, -2]) * Poly([1, 2]))
    assert entry != CacheEntry("2,1", 3, "K", Poly([1]))
    assert entry != CacheEntry("2,1", 3, "K", entry.value, "hankelab-0.0.1")
    assert hash(entry) == hash(CacheEntry.from_json(entry.to_json()))

    assert hankel.INT == hankel.Ring(hankel.INT.cross, hankel.INT.neg)
    assert hankel.INT != hankel.INT_POLY
    assert hash(hankel.INT) == hash(hankel.Ring(hankel.INT.cross, hankel.INT.neg))
    e = [list(hankel.a_poly(F21, k).num) for k in range(7)]
    assert hankel.ladder(e, hankel.INT_POLY) == hankel.ladder(e, hankel.INT_POLY)

    q = hankel.quartet(F21, 2)
    same = hankel.HankelQuartet(F21, 2, q.H, q.K, q.M, q.N)
    assert q == same and hash(q) == hash(same)
    assert q != hankel.HankelQuartet(F21, 3, q.H, q.K, q.M, q.N)

    inst = hankel_checks.make_degree_instance([0, 1], [1, 0], [1, 2], [0, "1/2"], 1)
    same = hankel_checks.DegreeInstance((0, 1), (1, 0), (1, 2), (0, Fraction(1, 2)), 1)
    assert inst == same and hash(inst) == hash(same) and inst.n == 1
    with pytest.raises(ValueError, match="equal length"):
        hankel_checks.DegreeInstance((0, 1), (1,), (1, 2), (0, 1), 1)
    with pytest.raises(ValueError, match="nonempty"):
        hankel_checks.make_degree_instance([], [], [], [], 1)

    rep = factor_smooth(-360)
    assert rep == FactorReport(-360, -1, ((2, 3), (3, 2), (5, 1)), 1, 10**6)
    assert hash(rep) == hash(factor_smooth(-360)) and reconstruct(rep) == -360
    with pytest.raises(AttributeError):
        rep.cofactor = 2

    row = fail_row("dodgson", family="3,1", n=2)
    assert row == Row("dodgson", "3,1", 2, None, "fail", "")
    assert pickle.loads(pickle.dumps(row)) == row  # rows cross pool workers
    assert list(row.as_dict().items()) == [
        ("check", "dodgson"), ("family", "3,1"), ("n", 2),
        ("x", None), ("status", "fail"), ("detail", ""),
    ]
    assert Row("p32") == Row("p32", None, None, None, "pass", "")
    with pytest.raises(AttributeError):
        row.status = "pass"
    assert ODES["de1"].proven and not ODES["fig4"].proven and len(ODES["fig4"].table) - 1 == 4


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
