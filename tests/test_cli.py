import csv
import importlib
import io
import json
import os
import subprocess
import sys
from math import gcd
from pathlib import Path

import pytest

from triforms.cli import CSV_COLUMNS, main, parse_primes
from triforms.dwork import theorem_classifier
from triforms.halphen import HGParams, TriangleType
from triforms.hypergeom import mirror_map, series_f
from triforms.lab import empirical_integrality
from triforms.rationals import QQ, primes
from triforms.series import PAdicCheck

PROFILE_KEYS = {"N", "firstNegativeIndex", "minValuation"}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def count_calls(monkeypatch, module, name):
    """Record the arguments of every call to triforms.<module>.<name>
    made through the cli or lab bindings."""
    import triforms
    original = getattr(importlib.import_module(f"triforms.{module}"), name)
    calls = []

    def counted(*args):
        calls.append(args)
        return original(*args)

    for mod in (triforms.cli, triforms.lab):
        if getattr(mod, name, None) is original:
            monkeypatch.setattr(mod, name, counted)
    return calls


class TestParsePrimes:
    def test_range_inclusive(self):
        assert parse_primes("10..20") == [11, 13, 17, 19]

    def test_single(self):
        assert parse_primes("13") == [13]

    def test_rejects_composite(self):
        with pytest.raises(ValueError):
            parse_primes("15")

    @pytest.mark.parametrize("spec", ["1..2..3", "5..", "..7", "", "x"])
    def test_malformed_text_is_named(self, spec):
        with pytest.raises(ValueError) as raised:
            parse_primes(spec)
        assert str(raised.value) == (
            f"expected a prime or lo..hi, got {spec!r}")

    @pytest.mark.parametrize("spec", ["1..2..3", "5.."])
    def test_malformed_range_is_usage_error(self, capsys, spec):
        code, out, err = run(capsys, "classify", "--type", "2,3",
                             "--primes", spec)
        assert (code, out) == (2, "")
        assert err == f"error: expected a prime or lo..hi, got {spec!r}\n"


class TestExpand:
    def test_t2_low_order(self, capsys):
        code, out, _ = run(capsys, "expand", "--type", "2,3",
                           "--series", "t2", "--N", "1")
        assert code == 0
        payload = json.loads(out)
        assert payload["result"]["coeffs"][:2] == ["-1/1", "-11/1"]

    def test_hauptmodul_laurent(self, capsys):
        code, out, _ = run(capsys, "expand", "--type", "2,3",
                           "--series", "J", "--N", "5")
        payload = json.loads(out)
        assert code == 0
        assert payload["result"]["lowest_exponent"] == -1
        assert payload["result"]["coeffs"][0] == "1/72"

    def test_generator_series(self, capsys):
        code, out, _ = run(capsys, "expand", "--type", "2,5",
                           "--series", "E2_4", "--N", "3")
        payload = json.loads(out)
        assert code == 0
        assert payload["result"]["coeffs"][0] == "1/1"

    def test_infinite_vertex_token(self, capsys):
        code, out, _ = run(capsys, "expand", "--type", "2,inf",
                           "--series", "F", "--N", "4")
        assert code == 0
        assert json.loads(out)["type"] == "(2,inf)"

    def test_unknown_series_is_usage_error(self, capsys):
        code, _, err = run(capsys, "expand", "--type", "2,3",
                           "--series", "bogus", "--N", "4")
        assert code == 2
        assert "unknown series" in err

    @pytest.mark.parametrize("series", ["E1_x", "E2_", "E2_4.0"])
    def test_malformed_generator_weight_is_unknown_series(self, capsys,
                                                          series):
        code, out, err = run(capsys, "expand", "--type", "2,5",
                             "--series", series, "--N", "3")
        assert (code, out) == (2, "")
        assert err.startswith(f"error: unknown series {series.lower()!r}; "
                              "expected one of")

    @pytest.mark.parametrize("series", ["E1_0", "E2_-4", "E2_5", "E1_3"])
    def test_generator_weight_is_usage_error(self, capsys, series):
        # the weight is checked where it enters, in the user's terms
        code, out, err = run(capsys, "expand", "--type", "2,5",
                             "--series", series, "--N", "4")
        assert code == 2
        assert out == ""
        assert "generator weights are even and at least 2" in err

    @pytest.mark.parametrize("alias", ["zofq", "q", "z"])
    def test_undocumented_alias_is_usage_error(self, capsys, alias):
        # the mirror maps are named qmap and zmap only
        code, out, err = run(capsys, "expand", "--type", "2,3",
                             "--series", alias, "--N", "4")
        assert code == 2
        assert out == ""
        assert "unknown series" in err

    def test_mirror_maps_at_order_zero(self, capsys):
        # q(a,b|z) needs no reversion; z(q) has no linear term to invert
        code, out, _ = run(capsys, "expand", "--type", "2,3",
                           "--series", "qmap", "--N", "0")
        assert code == 0
        assert json.loads(out)["result"]["coeffs"] == ["0/1"]
        code, out, err = run(capsys, "expand", "--type", "2,3",
                             "--series", "zmap", "--N", "0")
        assert code == 2
        assert out == ""
        assert err == "error: need s(0) = 0 and nonzero linear coefficient\n"

    @pytest.mark.parametrize("series", ["J", "t1", "qmap"])
    def test_negative_order_is_usage_error(self, capsys, series):
        code, out, err = run(capsys, "expand", "--type", "2,3",
                             "--series", series, "--N", "-1")
        assert code == 2
        assert out == ""
        assert "--N must be at least 0, not -1" in err

    def test_deterministic_json(self, capsys):
        _, out1, _ = run(capsys, "expand", "--type", "3,4",
                         "--series", "D", "--N", "10")
        _, out2, _ = run(capsys, "expand", "--type", "3,4",
                         "--series", "D", "--N", "10")
        assert out1 == out2

    def test_coefficients_past_the_digit_limit(self, capsys):
        # str(int) refuses more than 4300 digits unless the limit is
        # lifted; main lifts it, so the test restores it afterwards
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        try:
            code, out, err = run(capsys, "expand", "--type", "7,8",
                                 "--series", "F", "--N", "900")
            assert code == 0, err
            coeffs = json.loads(out)["result"]["coeffs"]
            assert max(map(len, coeffs)) > 4300
            assert QQ(coeffs[-1]) == series_f(
                HGParams.for_type(TriangleType(7, 8)), 900).coeffs[-1]
        finally:
            if limit:
                sys.set_int_max_str_digits(limit)


class TestClassify:
    def test_json_payload(self, capsys):
        code, out, _ = run(capsys, "classify", "--type", "2,5",
                           "--primes", "21..31")
        payload = json.loads(out)
        assert code == 0
        by_p = {r["p"]: r for r in payload["results"]}
        assert by_p[29]["verdict"] == "integral"
        assert by_p[23]["verdict"] == "nonIntegral"
        assert not by_p[29]["belowTheoremRange"]
        # without --N no row carries a mirror-map profile
        assert all(not PROFILE_KEYS & set(r) for r in payload["results"])

    def test_skips_conductor_primes(self, capsys):
        _, out, _ = run(capsys, "classify", "--type", "2,5",
                        "--primes", "2..7")
        payload = json.loads(out)
        assert [r["p"] for r in payload["results"]] == [3, 7]

    def test_below_range_flag(self, capsys):
        _, out, _ = run(capsys, "classify", "--type", "2,5",
                        "--primes", "13")
        row = json.loads(out)["results"][0]
        assert row["verdict"] == "belowTheoremRange"
        assert row["belowTheoremRange"] is True

    def test_csv_format(self, capsys):
        code, out, _ = run(capsys, "classify", "--type", "2,3",
                           "--primes", "5..13", "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "type,p,N,verdict,firstNegativeIndex,minValuation"
        assert len(lines) == 1 + 4  # 5, 7, 11, 13
        # without --N the profile columns stay empty
        for row in csv.DictReader(io.StringIO(out)):
            assert [row[k] for k in PROFILE_KEYS] == ["", "", ""]

    def test_order_adds_mirror_map_profile(self, capsys):
        # each row carries the exact profile of q(a,b|z) through z^(N+1)
        tri = TriangleType(2, 5)
        q = mirror_map(HGParams.for_type(tri), 61)
        argv = ["classify", "--type", "2,5", "--primes", "2..31", "--N", "60"]
        code, out, _ = run(capsys, *argv, "--format", "csv")
        assert code == 0
        header, *rows = list(csv.reader(io.StringIO(out)))
        assert header == CSV_COLUMNS
        assert [int(r[1]) for r in rows] == [
            p for p in primes(2, 31) if gcd(p, tri.conductor) == 1]
        profiles = {}
        for row in rows:
            p = int(row[1])
            v = profiles[p] = empirical_integrality(tri, p, q)
            expected = [str(tri), p, 60,
                        theorem_classifier(tri, p).verdict,
                        v.first_failure, v.min_valuation]
            assert row == ["" if x is None else str(x) for x in expected]
        assert {v.holds() for v in profiles.values()} == {True, False}
        code, out, _ = run(capsys, *argv)
        assert code == 0
        for r in json.loads(out)["results"]:
            v = profiles[r["p"]]
            assert {k: r[k] for k in PROFILE_KEYS} == {
                "N": 60, "firstNegativeIndex": v.first_failure,
                "minValuation": v.min_valuation}

    def test_range_without_primes_is_usage_error(self, capsys):
        code, out, err = run(capsys, "classify", "--type", "2,5",
                             "--primes", "24..28")
        assert code == 2
        assert out == ""
        assert "no prime" in err


class TestVerify:
    def test_cross_route(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "cross-route",
                           "--type", "2,3", "--N", "15")
        payload = json.loads(out)
        assert code == 0
        assert payload["failures"] == []
        assert payload["cells"][0]["kappa"] == "72/1"

    def test_schwarz_mixed_verdicts(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "schwarz",
                           "--type", "2,5", "--primes", "11..13",
                           "--N", "40")
        payload = json.loads(out)
        assert code == 0
        verdicts = {c["cell"]: c["verdict"] for c in payload["cells"]}
        assert verdicts["schwarz-vs-empirical (2,5) p=11"] == "integralEvidence"
        assert verdicts["schwarz-vs-empirical (2,5) p=13"] == "nonIntegralEvidence"

    @pytest.mark.parametrize("suite, module, name, calls", [
        # no D(a,b|z) at all: the congruences and the mirror map's
        # verdict are decided on F and G, built once per type; the
        # schwarz congruence also builds the Dwork image's F and G at
        # each prime that moves (a, b), as 11 and 13 both do for (2,5)
        ("schwarz", "hypergeom", "schwarz_map", 0),
        ("schwarz", "hypergeom", "frobenius_basis", 3),
        ("dwork", "hypergeom", "schwarz_map", 0),
        # one Halphen solve per type, shared by both primes
        ("generators", "halphen", "solve_halphen", 1),
    ])
    def test_type_series_built_once(self, capsys, monkeypatch,
                                    suite, module, name, calls):
        count = count_calls(monkeypatch, module, name)
        code, _, _ = run(capsys, "verify", "--suite", suite, "--type", "2,5",
                         "--primes", "11..13", "--N", "30")
        assert code == 0
        assert len(count) == calls

    @pytest.mark.parametrize("suite, module, name", [
        ("schwarz", "hypergeom", "frobenius_basis"),
        ("dwork", "hypergeom", "frobenius_basis"),
        ("generators", "halphen", "solve_halphen"),
    ])
    def test_shared_factor_fails_before_type_work(self, capsys, monkeypatch,
                                                  suite, module, name):
        # every given prime is checked against the conductor before the
        # per-type series is built
        count = count_calls(monkeypatch, module, name)
        code, out, err = run(capsys, "verify", "--suite", suite,
                             "--type", "2,5", "--primes", "5..11", "--N", "20")
        assert code == 2
        assert out == ""
        assert err == "error: p = 5 shares a factor with 20\n"
        assert count == []

    def test_unpredicted_generator_failure_fails_the_cell(self, capsys,
                                                           monkeypatch):
        # every generator profile fails: only the cells the classifier
        # calls integral (11 and 19 by the conjectural flag, 29 and 31
        # above the theorem range) fail; 13, 17 and 23 predict it
        import triforms.cli
        monkeypatch.setattr(
            triforms.cli, "generator_integrality",
            lambda tri, p, generators: [(label, PAdicCheck(p, 1, 1, -1, -1))
                                        for label, _ in generators])
        code, out, err = run(capsys, "verify", "--suite", "generators",
                             "--type", "2,5", "--primes", "11..31", "--N", "10")
        assert code == 2
        assert "verification failed" in err
        payload = json.loads(out)
        assert payload["failures"] == [
            f"generators (2,5) p={p}" for p in (11, 19, 29, 31)]
        assert all(c["E2_4"] == "nonIntegralEvidence" for c in payload["cells"])

    def test_lemma2(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "lemma2",
                           "--primes", "5")
        assert code == 0
        assert json.loads(out)["cells"][0]["counterexamples"] == 0

    def test_classifier_suite(self, capsys):
        code, _, _ = run(capsys, "verify", "--suite", "classifier",
                         "--type", "2,5", "--primes", "21..60")
        assert code == 0

    def test_suite_without_type_runs_the_default_types(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "classifier",
                           "--primes", "11..13")
        assert code == 0
        cells = json.loads(out)["cells"]
        assert [c["cell"] for c in cells] == sorted(
            f"classifier {t} p={p}" for t in
            ("(2,3)", "(2,5)", "(3,4)", "(3,3)", "(2,inf)") for p in (11, 13))
        assert all(c["ok"] for c in cells)

    @pytest.mark.parametrize("suite", ["schwarz", "lemma2", "dieudonne"])
    def test_range_without_primes_is_usage_error(self, capsys, suite):
        # an empty range must not fall back to the suite's default primes
        type_opt = ["--type", "2,5"] if suite == "schwarz" else []
        code, out, err = run(capsys, "verify", "--suite", suite, *type_opt,
                             "--primes", "24..28")
        assert code == 2
        assert out == ""
        assert "no prime" in err

    def test_long_gate(self, capsys):
        # a usage error, raised before any cell runs
        code, out, err = run(capsys, "verify", "--suite", "remark")
        assert code == 2
        assert out == ""
        assert err.startswith("error:")
        assert "--long" in err

    @pytest.mark.parametrize("argv, unread", [
        (["--suite", "lemma2", "--type", "2,5", "--primes", "5", "--N", "3"],
         "--type, --N"),
        (["--suite", "remark", "--long", "--type", "2,3", "--primes", "7"],
         "--type, --primes"),
        (["--suite", "cross-route", "--type", "2,3", "--primes", "11"],
         "--primes"),
        (["--suite", "classifier", "--N", "40"], "--N"),
        (["--suite", "dieudonne", "--long"], "--long"),
    ])
    def test_unread_option_is_usage_error(self, capsys, argv, unread):
        code, out, err = run(capsys, "verify", *argv)
        assert code == 2
        assert out == ""
        assert f"does not read {unread}" in err

    @pytest.mark.parametrize("argv", [
        ["verify", "--suite", "schwarz", "--type", "2,5", "--primes", "11"],
        ["verify", "--suite", "dieudonne"],
        ["classify", "--type", "2,5", "--primes", "11"],
    ])
    @pytest.mark.parametrize("order", ["0", "-3"])
    def test_empty_window_is_usage_error(self, capsys, argv, order):
        # an order below 1 checks no coefficient past the leading one
        code, out, err = run(capsys, *argv, "--N", order)
        assert code == 2
        assert out == ""
        assert f"--N must be at least 1, not {order}" in err

    def test_default_order_echoed(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "lemma2",
                           "--primes", "5")
        assert code == 0
        assert json.loads(out)["N"] == 60


class TestFormat:
    def test_format_only_on_classify(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["expand", "--type", "2,3", "--series", "J", "--N", "5",
                  "--format", "csv"])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""


class TestTakeuchi:
    def test_default_bound(self, capsys):
        code, out, _ = run(capsys, "takeuchi")
        payload = json.loads(out)
        assert code == 0
        assert payload["matches_expected"] is True
        assert len(payload["types"]) == 8
        assert "(2,inf)" in payload["types"]

    def test_small_bound_usage_error(self, capsys):
        code, _, err = run(capsys, "takeuchi", "--bound", "3")
        assert code == 2
        assert "bound" in err


class TestExitCodes:
    def test_bad_type_string(self, capsys):
        code, _, err = run(capsys, "expand", "--type", "2;3",
                           "--series", "J")
        assert code == 2
        assert err

    @pytest.mark.parametrize("text", ["2,x", "x,5", "2,3,4"])
    def test_malformed_type_is_named(self, capsys, text):
        code, out, err = run(capsys, "classify", "--type", text,
                             "--primes", "5")
        assert (code, out) == (2, "")
        assert err == (f"error: expected 'm1,m2' of integers, m2 may be "
                       f"'inf', got {text!r}\n")

    def test_non_hyperbolic_type(self, capsys):
        code, _, _ = run(capsys, "classify", "--type", "2,2",
                         "--primes", "7")
        assert code == 2

    def test_missing_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2


def test_closed_stdout_pipe_exits_quietly():
    # a reader that leaves after one line (`| head -1`) gets no
    # traceback: the 300-term F is far longer than the pipe buffer, so
    # the CLI is still writing when the pipe closes
    env = {**os.environ,
           "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    proc = subprocess.Popen(
        [sys.executable, "-m", "triforms.cli", "expand", "--type", "2,5",
         "--series", "F", "--N", "300"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.readline() == b"{\n"
    proc.stdout.close()
    assert proc.stderr.read() == b""
    assert proc.wait() == 1
