"""Command-line front end: exit codes, determinism, output formats."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import oconf.mixed
from oconf.cli import main


def run(capsys, argv):
    rc = main(argv)
    out = capsys.readouterr().out
    return rc, out


def test_scan_exit_codes(capsys):
    rc, out = run(capsys, ["scan", "--series", "D", "--n", "2", "--mu", "1,0", "--b", "1/3", "--max-degree", "4"])
    assert rc == 0 and "irreducible-up-to-4" in out
    rc, out = run(capsys, ["scan", "--series", "D", "--n", "2", "--mu", "1,0", "--b", "3", "--max-degree", "2"])
    assert rc == 1 and "proper-submodule-found" in out


def test_classify_output(capsys):
    rc, out = run(capsys, ["classify", "--series", "B", "--n", "2", "--mu", "1/2,1/2", "--b", "2"])
    assert rc == 0
    assert "excluded(b in n-N/2 = 2-N/2)" in out
    rc, out = run(capsys, ["classify", "--series", "D", "--n", "2", "--mu", "0,0", "--b", "-2"])
    assert rc == 1  # mu = 0 exclusion is reducibility
    assert "reducible" in out


def test_charpoly_verb(capsys):
    rc, out = run(capsys, ["charpoly", "--series", "D", "--mu", "1,0"])
    assert rc == 0
    assert "(t-(1))^9 (t-(-1))^6 (t-(-3))^1" in out


def test_usage_errors_exit_2(capsys):
    rc = main(["charpoly", "--series", "D", "--mu", "1,oops"])
    assert rc == 2
    rc = main(["scan", "--series", "D", "--mu", "1,0"])  # missing --b
    assert rc == 2
    with pytest.raises(SystemExit) as exc:
        main(["no-such-verb"])
    assert exc.value.code == 2


@pytest.mark.parametrize("verb,k", [
    pytest.param(verb, k, id=f"{verb[0]}{k}")
    for verb, ks in [(["t-operator", "--series", "D", "--mu", "1,0", "--b", "1"], ["-1", "-3"]),
                     (["harmonic", "--series", "D", "--n", "2"], ["-1", "-2"])]
    for k in ks
])
def test_negative_degree_exits_2(capsys, verb, k):
    rc = main(verb + ["--k", k])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert f"slice degree k must be >= 0, got {k}" in captured.err


@pytest.mark.parametrize("b", ["-1/2", "-3/2"])
@pytest.mark.parametrize("verb", [
    ["scan", "--series", "B", "--n", "2", "--mu", "0,0", "--max-degree", "1"],
    ["classify", "--series", "B", "--n", "2", "--mu", "0,0"],
    ["t-operator", "--series", "D", "--mu", "1,0", "--k", "1"],
])
def test_negative_rational_b_parses_after_a_space(capsys, verb, b):
    # argparse alone reads -1/2 as an option; both spellings must agree
    spaced = run(capsys, verb + ["--b", b, "--format", "json"])
    joined = run(capsys, verb + [f"--b={b}", "--format", "json"])
    assert spaced == joined
    assert json.loads(spaced[1])["b"] == b


def test_bare_b_before_another_option_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["scan", "--series", "B", "--n", "2", "--mu", "0,0", "--b", "--max-degree", "1"])
    assert exc.value.code == 2
    assert "argument --b: expected one argument" in capsys.readouterr().err


@pytest.mark.parametrize("verb", [
    ["scan", "--b", "1", "--max-degree", "1"], ["classify", "--b", "1"], ["harmonic", "--k", "2"], ["verify-brackets"],
])
@pytest.mark.parametrize("series,least", [("D", 2), ("B", 1)])
@pytest.mark.parametrize("n", ["0", "-1"])
def test_rank_below_the_series_minimum_exits_2(capsys, verb, series, least, n):
    rc = main([verb[0], "--series", series, "--n", n] + verb[1:])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err == f"error: --n {n} is below the least rank {least} of series {series}\n"


@pytest.mark.parametrize("verb", [
    ["build-irrep"], ["charpoly"], ["pieri"], ["scan", "--b", "1"], ["t-operator", "--b", "1"], ["classify", "--b", "1"],
])
def test_weight_rank_below_the_series_minimum_exits_2(capsys, verb):
    # one message for a one-entry D weight, whichever verb reads it
    rc = main([verb[0], "--series", "D", "--mu", "1"] + verb[1:])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err == "error: the rank 1 of --mu 1 is below the least rank 2 of series D\n"


@pytest.mark.parametrize("verb", [
    ["build-irrep"], ["charpoly"], ["pieri"], ["scan", "--n", "2", "--b", "1"], ["t-operator", "--b", "1"],
    ["classify", "--n", "2", "--b", "1"],
])
def test_weight_that_is_not_dominant_exits_2(capsys, verb):
    # one message for a weight that is not dominant, whichever verb reads it
    rc = main([verb[0], "--series", "D", "--mu", "1/2,0"] + verb[1:])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err == "error: weight 1/2,0 is not dominant for series D\n"


@pytest.mark.parametrize("verb", [["scan", "--b", "1", "--max-degree", "1"], ["classify", "--b", "1"]])
def test_zero_mu_shorthand_takes_the_rank_of_n(capsys, verb):
    # with --n, --mu 0 is the zero weight of rank n, not a weight of rank 1
    for n in ("2", None):
        rank = [] if n is None else ["--n", n]
        rc, out = run(capsys, [verb[0], "--series", "D", "--mu", "0"] + rank + verb[1:] + ["--format", "json"])
        assert rc in (0, 1) and json.loads(out)["mu"] == "0,0"


def test_json_output_deterministic(capsys):
    argv = ["scan", "--series", "D", "--n", "2", "--mu", "1,0", "--b", "1/3", "--max-degree", "2", "--format", "json"]
    rc1, out1 = run(capsys, argv)
    rc2, out2 = run(capsys, argv)
    assert rc1 == rc2 == 0
    assert out1 == out2  # byte-identical
    doc = json.loads(out1)
    assert doc["schema"] == 1 and doc["verdict"] == "irreducible-up-to-2"


def test_build_irrep_json_round_trip(capsys, tmp_path):
    path = tmp_path / "v.json"
    rc = main(["build-irrep", "--series", "B", "--mu", "1/2,1/2", "--format", "json", "--output", str(path)])
    assert rc == 0
    with open(path) as fh:
        doc = json.load(fh)
    from oconf.irreps import build_irrep
    from oconf.weights import parse_weight

    assert doc.pop("validation")["ok"]
    assert doc == build_irrep(parse_weight("1/2,1/2", "B")).to_json_dict()


def test_caps_are_checked_before_any_slice_is_built(capsys, monkeypatch):
    # a slice above degree 40 is never enumerated: each verb refuses first
    from oconf import mixed

    real = mixed.monomial_basis

    def bounded(nv, k):
        if k > 40:
            raise AssertionError(f"built the monomials of degree {k}")
        return real(nv, k)

    monkeypatch.setattr(mixed, "monomial_basis", bounded)
    for argv in (["scan", "--series", "D", "--n", "3", "--b", "1", "--max-degree", "400"],
                 ["harmonic", "--series", "D", "--n", "2", "--k", "400"],
                 ["t-operator", "--series", "D", "--mu", "1,0", "--b", "1", "--k", "400"]):
        assert main(argv) == 2, argv
        assert capsys.readouterr().err.startswith("cap exceeded: slice dimension "), argv


def test_harmonic_verb(capsys):
    rc, out = run(capsys, ["harmonic", "--series", "D", "--n", "2", "--k", "2"])
    assert rc == 0
    assert "dim H_k=9" in out
    # B-series: the stated commutator form fails, the exact one holds, and
    # the decomposition itself is fine, so the verb still exits 0
    rc, out = run(capsys, ["harmonic", "--series", "B", "--n", "2", "--k", "2"])
    assert rc == 0
    assert "stated form: False" in out and "exact form: True" in out


def test_verify_verbs(capsys):
    rc, out = run(capsys, ["verify-brackets", "--series", "B", "--n", "1"])
    assert rc == 0 and "0 failures" in out
    rc, out = run(capsys, ["verify-theta", "--series", "D", "--n", "2"])
    assert rc == 0 and "pass" in out
    rc, out = run(capsys, ["verify-shen", "--series", "D", "--n", "2", "--format", "json"])
    assert rc == 0
    assert json.loads(out)["ok"] is True


def test_pieri_verb_dimension_check(capsys):
    rc, out = run(capsys, ["pieri", "--series", "D", "--mu", "2,0"])
    assert rc == 0
    assert "36 = " in out


def test_suite_self_check_with_injected_sign_error(capsys, monkeypatch):
    # flipping one sign in a closed-form table must make exactly the
    # embedding check fail while an unrelated check still passes
    import oconf.suite as suite_mod

    original = oconf.mixed.shen_closed_forms

    def broken(n, series):
        forms = original(n, series)
        lbl = "J_1"
        forms[lbl] = forms[lbl].scale(-1)
        return forms

    monkeypatch.setattr(oconf.mixed, "shen_closed_forms", broken)
    ok_shen, detail = suite_mod.check_shen_embedding()
    assert not ok_shen and "closed-form" in detail
    ok_brackets, _ = suite_mod.check_bracket_tables()
    assert ok_brackets


@pytest.mark.parametrize("degree", ["-1", "0"])
def test_scan_rejects_nonpositive_max_degree(capsys, degree):
    rc = main(["scan", "--mu", "1,0", "--b", "1/3", "--max-degree", degree])
    captured = capsys.readouterr()
    assert rc == 2
    assert "irreducible-up-to" not in captured.out
    assert "max degree" in captured.err


def test_scan_checks_the_degree_before_building_the_module(capsys):
    # V(3,3,3,3) is over the irrep cap, but the degree is refused first
    rc = main(["scan", "--series", "D", "--mu", "3,3,3,3", "--b", "1", "--max-degree", "0"])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert captured.err == "error: max degree must be at least 1, got 0\n"


def test_scan_rejects_mu_length_differing_from_n(capsys):
    rc = main(["scan", "--n", "3", "--mu", "1,0", "--b", "1/3", "--max-degree", "1"])
    err = capsys.readouterr().err
    assert rc == 2
    assert "--n is 3" in err and "2 entries" in err
    # without --n the rank follows the weight
    rc, out = run(capsys, ["scan", "--mu", "1,0,0", "--b", "1/3", "--max-degree", "1"])
    assert rc == 0 and "n=3" in out


def test_scan_checks_slice_cap_before_any_degree(capsys, monkeypatch):
    # the degree-17 slice is over the cap; no lower degree may be computed
    import oconf.reducibility

    def no_work(mod, level):
        raise AssertionError(f"degree {level + 1} computed before the cap check")

    monkeypatch.setattr(oconf.reducibility, "_j_span_rank", no_work)
    rc = main(["scan", "--mu", "1,0", "--b", "1/3", "--max-degree", "17"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err == "cap exceeded: slice dimension 4560 at degree 17 exceeds cap 4096\n"


def test_exceeded_irrep_cap_is_labelled(capsys):
    rc = main(["build-irrep", "--mu", "2,0", "--cap", "5"])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert captured.err == "cap exceeded: dim V(mu) = 9 exceeds cap 5\n"


def test_suite_json_matches_golden(capsys):
    # the recorded golden of the benchmark's suite workload, byte for byte
    golden = Path(__file__).resolve().parent.parent / "perfbench" / "golden" / "suite.json"
    rc, out = run(capsys, ["suite", "--format", "json"])
    assert rc == 0
    assert out == golden.read_text()


def test_build_irrep_json_matches_golden(capsys):
    # B(3/2,1/2), byte for byte: the basis, every matrix entry and the
    # validation report of the verb
    golden = Path(__file__).resolve().parent / "golden" / "build-irrep-B-3_2-1_2.json"
    rc, out = run(capsys, ["build-irrep", "--series", "B", "--mu", "3/2,1/2", "--format", "json"])
    assert rc == 0
    assert out == golden.read_text()


@pytest.mark.parametrize("golden,argv,code", [
    ("scan-D-1_0-b1_3-deg8.json", ["--series", "D", "--mu", "1,0", "--b", "1/3", "--max-degree", "8"], 0),
    ("scan-D-1_0-b1-deg2.json", ["--series", "D", "--mu", "1,0", "--b", "1", "--max-degree", "2"], 1),
    ("scan-B-1_2-1_2-b-1-deg7.json", ["--series", "B", "--mu", "1/2,1/2", "--b", "-1", "--max-degree", "7"], 1),
    ("scan-D-1_0-b8_7-deg12.json", ["--series", "D", "--mu", "1,0", "--b", "8/7", "--max-degree", "12"], 0),
])
def test_scan_json_matches_golden(capsys, golden, argv, code):
    # byte for byte: every slice full at a generic b, deficient from degree 1
    # at b = 1, deficient only at the top degree, and full up to a top slice
    # of dimension 1,820
    rc, out = run(capsys, ["scan", *argv, "--format", "json"])
    assert rc == code
    assert out == (Path(__file__).resolve().parent / "golden" / golden).read_text()


def test_unwritable_output_is_a_usage_error(capsys, tmp_path):
    # a missing directory is not a failed check: exit 2, one line, no traceback
    path = tmp_path / "missing" / "x.json"
    rc = main(["build-irrep", "--mu", "1,0", "--output", str(path)])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert captured.err == f"error: cannot write {path}: No such file or directory\n"
    assert not path.exists()


def test_startup_imports_neither_dataclasses_nor_inspect():
    # each verb runs in a fresh interpreter, so every module the package
    # imports is paid on every invocation; -S keeps a site .pth file from
    # importing either module first
    code = ("import sys, oconf, oconf.cli, oconf.suite; "
            "print(sorted(m for m in ('dataclasses', 'inspect') if m in sys.modules))")
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(src)), timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
