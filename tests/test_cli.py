import csv
import importlib
import io
import json
from math import gcd

import pytest

from triforms.cli import CSV_COLUMNS, main, parse_primes
from triforms.dwork import theorem_classifier
from triforms.halphen import TriangleType
from triforms.lab import empirical_integrality, mirror_map_unit
from triforms.rationals import primes

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
        assert "nonzero linear coefficient" in err

    def test_deterministic_json(self, capsys):
        _, out1, _ = run(capsys, "expand", "--type", "3,4",
                         "--series", "D", "--N", "10")
        _, out2, _ = run(capsys, "expand", "--type", "3,4",
                         "--series", "D", "--N", "10")
        assert out1 == out2


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
        unit = mirror_map_unit(tri, 60)
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
            v = profiles[p] = empirical_integrality(tri, p, unit)
            expected = [str(tri), p, 60,
                        theorem_classifier(tri, p).verdict.value,
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
        # one D(a,b|z) per type, then one twisted map per prime
        ("schwarz", "hypergeom", "schwarz_map", 3),
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
        ("schwarz", "hypergeom", "schwarz_map"),
        ("dwork", "hypergeom", "schwarz_map"),
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
        assert "p = 5 shares a factor with 20" in err
        assert count == []

    def test_lemma2(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "lemma2",
                           "--primes", "5")
        assert code == 0
        assert json.loads(out)["cells"][0]["counterexamples"] == 0

    def test_classifier_suite(self, capsys):
        code, _, _ = run(capsys, "verify", "--suite", "classifier",
                         "--type", "2,5", "--primes", "21..60")
        assert code == 0

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
        code, _, err = run(capsys, "verify", "--suite", "remark")
        assert code == 2
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

    def test_non_hyperbolic_type(self, capsys):
        code, _, _ = run(capsys, "classify", "--type", "2,2",
                         "--primes", "7")
        assert code == 2

    def test_missing_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2
