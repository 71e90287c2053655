"""Command line: class-spec parsing, job validation, exit codes, and
deterministic JSON output."""

import hashlib
import json
import os
import signal
import subprocess
import sys
import time
from collections import OrderedDict
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nahilb.cli as cli
import nahilb.localization as localization
import nahilb.verify as verify
from nahilb.algebra import FactoredRational, SparsePolynomial, rational_equal
from nahilb.cli import JobSpec, main, parse_class_spec, run, write_json
from nahilb.errors import (IndexOutOfRange, NahilbError, NotBisymmetric,
                           ParseError, SizeGuardExceeded)
from nahilb.localization import (
    IntegralResult,
    TautClass,
    chern_taut,
    integrate_localization,
    reduce_full_flag,
)
from nahilb.serialize import SharedDoc, poly_from_json, rational_from_json


def eta(j):
    return SparsePolynomial.variable(("eta", j))


def theta(i):
    return SparsePolynomial.variable(("theta", i))


class TestClassSpecParser:
    def test_constant(self):
        assert parse_class_spec("1", 0, 2).poly == SparsePolynomial.one()

    def test_dual_power(self):
        got = parse_class_spec("c2^dual^3", 0, 3)
        assert got.poly == chern_taut(2, 0, 3, dual=True).poly ** 3

    def test_arithmetic(self):
        got = parse_class_spec("2*c1 - (eta1 + 1)^2", 0, 2)
        want = chern_taut(1, 0, 2).poly * 2 - (eta(1) + 1) ** 2
        assert got.poly == want

    def test_theta_needs_roots(self):
        assert parse_class_spec("theta1", 1, 2).poly == theta(1)
        with pytest.raises(IndexOutOfRange, match=r"theta_1 outside 1\.\.0$"):
            parse_class_spec("theta1", 0, 2)
        with pytest.raises(IndexOutOfRange, match=r"theta_0 outside 1\.\.1$"):
            parse_class_spec("theta0", 1, 3)

    def test_eta_needs_points(self):
        with pytest.raises(IndexOutOfRange, match=r"eta_2 outside 1\.\.1$"):
            parse_class_spec("eta2", 0, 2)
        with pytest.raises(IndexOutOfRange, match=r"eta_0 outside 1\.\.2$"):
            parse_class_spec("eta0", 0, 3)

    def test_symmetry_still_enforced(self):
        # the parser knows no layers; eta_1 and eta_2 share one of (1, 2)
        P = parse_class_spec("eta1", 0, 3)
        for command in ("integrate", "contribution", "compare"):
            with pytest.raises(NotBisymmetric):
                run(JobSpec(command, n=2, dims=(1, 2), space="nilfil",
                            class_spec="eta1"))
        assert P.poly == eta(1)

    def test_bad_character(self):
        with pytest.raises(ParseError):
            parse_class_spec("c1 @ c2", 0, 3)

    def test_trailing_input(self):
        with pytest.raises(ParseError):
            parse_class_spec("c1 c2", 0, 3)

    def test_exponent_above_field_limit(self):
        # refused before any power is formed
        with pytest.raises(ParseError):
            parse_class_spec("3^40000", 0, 1)
        # x^a^b is x^(a*b), so the product is bounded too
        with pytest.raises(ParseError):
            parse_class_spec("2^200^200", 0, 1)
        assert parse_class_spec("(eta1 + 1)^2^3", 0, 2).poly \
            == (eta(1) + 1) ** 6

    def test_power_refused_by_its_expanded_size(self):
        # (eta1 + eta2)^E has E + 1 terms of up to 2E bits, past
        # MAX_POWER_BITS at E = 4000 and 16000; refused before it expands
        for exponent in (4000, 16000):
            start = time.perf_counter()
            with pytest.raises(ParseError, match="would expand to about"):
                parse_class_spec(f"(eta1 + eta2)^{exponent}", 0, 3)
            assert time.perf_counter() - start < 0.1
        # a power of many terms is bounded by its monomial count instead
        with pytest.raises(ParseError, match="would expand to about"):
            parse_class_spec("c1^8", 0, 14)
        assert parse_class_spec("(eta1 + eta2)^3", 0, 3).poly \
            == (eta(1) + eta(2)) ** 3

    def test_product_refused_by_its_work(self):
        # c1^9 over 8 eta has 11440 terms; c1^9*c1^9 would take about 131M
        # term products and c1^6*c1^6 about 2.9M: both refused before the
        # product is formed, like c1^12 and c1^18 are by their size
        for spec in ("c1^9*c1^9", "c1^6*c1^6"):
            start = time.perf_counter()
            with pytest.raises(ParseError, match="a product would take"):
                parse_class_spec(spec, 0, 9)
            assert time.perf_counter() - start < 0.5
        assert parse_class_spec("c1^2*c1^3", 0, 9).poly \
            == chern_taut(1, 0, 9).poly ** 5

    def test_power_refused_by_its_work(self):
        # within MAX_POWER_BITS in size, but the squarings of these take
        # about 2.8M and 3.4M term products
        for spec, d in (("c1^14", 8), ("(eta1+eta2+eta3+eta4)^43", 5)):
            with pytest.raises(ParseError, match=r"power \d+ would take"):
                parse_class_spec(spec, 0, d)

    def test_work_is_counted_over_the_whole_spec(self, monkeypatch):
        # each product of two variables takes one term product
        monkeypatch.setattr(cli, "MAX_PRODUCT_WORK", 2)
        assert parse_class_spec("eta1*eta1 + eta1*eta1", 0, 2).poly \
            == eta(1) ** 2 * 2
        with pytest.raises(ParseError, match="a product would take about 1"):
            parse_class_spec("eta1*eta1*eta1*eta1", 0, 2)
        with pytest.raises(ParseError, match="a product would take about 1"):
            parse_class_spec("eta1*eta1 + eta1*eta1 + eta1*eta1", 0, 2)

    def test_overlong_literal(self):
        with pytest.raises(ParseError, match="position 0"):
            parse_class_spec("1" + "0" * 5000, 0, 1)

    def test_constant_too_long_to_print(self):
        # 2^16000 has 4817 decimal digits; products and sums fold too
        limit = str(sys.get_int_max_str_digits())
        for spec in ("2^16000", "2^14000*2^14000", "9*10^4299 + 10^4299"):
            with pytest.raises(ParseError, match=limit):
                parse_class_spec(spec, 0, 1)

    def test_repeated_signs(self):
        assert parse_class_spec("-" * 3001 + "2", 0, 1).poly \
            == SparsePolynomial.constant(-2)

    def test_dangling_operator(self):
        with pytest.raises(ParseError):
            parse_class_spec("c1 +", 0, 2)

    def test_dual_only_on_chern(self):
        with pytest.raises(ParseError):
            parse_class_spec("eta1^dual", 0, 2)
        with pytest.raises(ParseError):
            parse_class_spec("c2^2^dual", 0, 3)

    def test_unknown_name(self):
        with pytest.raises(ParseError):
            parse_class_spec("gamma1", 0, 2)

    def test_negation(self):
        got = parse_class_spec("-eta1*eta1", 0, 2)
        assert got.poly == -(eta(1) * eta(1))

    def test_chern_atom_refused_by_its_work(self):
        # c8 over 6 roots at 8 points has 125,879 terms and took seconds;
        # c8 at q = 16, d = 1 builds fast, but its theta check took ~1 s
        for spec, q, d in (("c8", 6, 8), ("c10", 6, 8), ("c8", 16, 1),
                           ("c1 + c7", 6, 8)):
            start = time.perf_counter()
            with pytest.raises(ParseError, match=r"c\d+ would take about"):
                parse_class_spec(spec, q, d)
            assert time.perf_counter() - start < 0.1
        assert parse_class_spec("c5", 2, 9).poly == chern_taut(5, 2, 9).poly

    def test_chern_atom_refusals_keep_their_order(self):
        # the q cap and the index range come before the work charge
        with pytest.raises(SizeGuardExceeded, match="q = 60 exceeds"):
            parse_class_spec("c3", 60, 9)
        with pytest.raises(IndexOutOfRange, match="no c_1000 with q=16"):
            parse_class_spec("c1000", 16, 14)
        with pytest.raises(IndexOutOfRange, match="block sizes q=0, d=0"):
            parse_class_spec("c0", 0, 0)


# class specs from the parser's grammar, with names, exponents, literals
# and ^dual drawn from legal and illegal ranges
_SPEC_ATOMS = st.one_of(
    st.integers(0, 10 ** 6).map(str),
    st.sampled_from(["9" * 4301, "2^16000", "0", "00"]),
    st.builds("c{}{}".format, st.integers(0, 60),
              st.sampled_from(["", "^dual", "^dual^2", "^2^dual"])),
    st.builds("theta{}".format, st.integers(0, 8)),
    st.builds("eta{}".format, st.integers(0, 10)),
    st.sampled_from(["c", "dual", "theta", "gamma1", "c1x", "x"]),
)
_SPECS = st.recursive(_SPEC_ATOMS, lambda inner: st.one_of(
    st.builds("({})".format, inner),
    st.builds("{} {} {}".format, inner, st.sampled_from("+-*"), inner),
    st.builds("-{}".format, inner),
    st.builds("{}^{}".format, inner, st.integers(0, 5000)),
    st.builds("{}^dual".format, inner),
), max_leaves=12)
# a spec with a broken or foreign token spliced in
_BROKEN = st.builds(lambda spec, at, junk: spec[:at] + junk + spec[at:],
                    _SPECS, st.integers(0, 40),
                    st.sampled_from(["(", ")", "^", "*", "+", "$", "1.5",
                                     "^^", "()", "c1(", "é", "\x00"]))


class _TooSlow(Exception):
    pass


def _raise_too_slow(signum, frame):
    raise _TooSlow


@settings(max_examples=400, deadline=None, derandomize=True)
@given(spec=_SPECS | _BROKEN, q=st.integers(0, 6), d=st.integers(0, 9))
def test_class_spec_fuzz_returns_or_raises_typed(spec, q, d):
    # every spec parses to a TautClass or is refused with a NahilbError,
    # within a fixed time (a timer signal, so no thread is started)
    previous = signal.signal(signal.SIGALRM, _raise_too_slow)
    signal.setitimer(signal.ITIMER_REAL, 2.0)
    slow = False
    try:
        assert isinstance(parse_class_spec(spec, q, d), TautClass)
    except NahilbError:
        pass
    except _TooSlow:  # reported below, apart from the signal's traceback
        slow = True
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert not slow, f"{spec!r} at q = {q}, d = {d} took over 2 s"


class TestJobValidation:
    def test_needs_positive_n(self):
        with pytest.raises(ParseError):
            JobSpec("integrate", n=0, dims=(1, 1)).validate()

    def test_needs_dims(self):
        with pytest.raises(ParseError):
            JobSpec("integrate", n=2, dims=()).validate()

    def test_rejects_unknown_space(self):
        with pytest.raises(ParseError):
            JobSpec("integrate", n=2, dims=(1, 1), space="proj").validate()

    def test_rejects_unknown_method(self):
        with pytest.raises(ParseError):
            JobSpec("integrate", n=2, dims=(1, 1), method="guess").validate()

    def test_rejects_negative_q(self):
        with pytest.raises(ParseError):
            JobSpec("integrate", n=2, dims=(1, 1), q=-1).validate()

    def test_verify_needs_no_shape(self):
        JobSpec("verify").validate()

    def test_fields_defaults_and_repr(self):
        assert repr(JobSpec("integrate", n=2, dims=(1, 2))) == (
            "JobSpec(command='integrate', n=2, dims=(1, 2), space='nhilb',"
            " method='localization', class_spec='1', q=0, cy=False,"
            " expand=False, seed=None, checks=(), output=None,"
            " max_points=None)")


def run_main(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestMain:
    def test_integrate_document(self, capsys):
        code, out, _ = run_main(capsys, [
            "integrate", "-n", "2", "--dims", "1,1",
            "--space", "nilfil", "--class", "eta1"])
        assert code == 0
        doc = json.loads(out)
        assert doc["command"] == "integrate"
        assert doc["method"] == "localization"
        assert doc["vdim"] == 1
        direct = integrate_localization(2, (1, 1), "nilfil",
                                        TautClass(eta(1), 0, 2))
        got = rational_from_json(doc["value"]["factored"])
        assert rational_equal(got, direct.value)

    def test_residue_method(self, capsys):
        code, out, _ = run_main(capsys, [
            "integrate", "-n", "2", "--dims", "1,1,1",
            "--space", "nilfil", "--method", "residue", "--class", "1"])
        assert code == 0
        doc = json.loads(out)
        assert doc["method"] == "residue"
        got = rational_from_json(doc["value"]["factored"])
        assert got.evaluate({}) == 2

    def test_residue_method_keeps_the_point_budget(self, capsys):
        code, out, err = run_main(capsys, [
            "integrate", "-n", "2", "--dims", "1,60",
            "--space", "nilfil", "--method", "residue", "--class", "1"])
        assert code == 1
        assert out == ""
        assert "total size 61 exceeds the point budget 12" in err

    def test_residue_requires_nilfil(self, capsys):
        code, _, err = run_main(capsys, [
            "integrate", "-n", "2", "--dims", "1,1",
            "--method", "residue", "--class", "1"])
        assert code == 1
        assert err.startswith("error:")

    def test_costly_product_exits_1(self, capsys):
        code, out, err = run_main(capsys, [
            "integrate", "-n", "1", "--dims", "9", "--class", "c1^9*c1^9"])
        assert (code, out) == (1, "")
        assert "term products" in err

    def test_coefficients_too_long_to_print_exit_1(self, capsys):
        limit = str(sys.get_int_max_str_digits())
        # refused by the parser; then a constant under the limit whose
        # integral is past it, refused when the document is written
        for n, dims, spec in (("1", "1", "2^16000"),
                              ("2", "1,2", "2^14283*c2")):
            code, out, err = run_main(capsys, [
                "integrate", "-n", n, "--dims", dims, "--class", spec])
            assert (code, out) == (1, "")
            assert err.startswith("error:") and limit in err

    def test_expand_skips_unclearable_denominators(self, capsys):
        code, out, _ = run_main(capsys, [
            "integrate", "-n", "3", "--dims", "3",
            "--class", "c2^dual^3", "--cy", "--expand"])
        assert code == 0
        doc = json.loads(out)
        assert "expanded" not in doc["value"]
        assert poly_from_json(doc["cy_value"]["expanded"]) == \
            SparsePolynomial.constant(11)

    def test_output_is_byte_identical(self, capsys):
        argv = ["integrate", "-n", "3", "--dims", "1,1,1",
                "--class", "c2^dual", "--cy", "--expand"]
        _, first, _ = run_main(capsys, argv)
        _, second, _ = run_main(capsys, argv)
        assert first == second

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "result.json"
        argv = ["enumerate", "-n", "2", "--dims", "1,1"]
        code, out, _ = run_main(capsys, argv + ["--output", str(target)])
        assert code == 0
        assert out == ""
        _, stdout_doc, _ = run_main(capsys, argv)
        assert target.read_text() == stdout_doc

    def test_output_to_a_missing_directory_exits_1(self, capsys, tmp_path):
        target = tmp_path / "missing" / "x.json"
        code, out, err = run_main(capsys, [
            "integrate", "-n", "2", "--dims", "1,1", "--output", str(target)])
        assert code == 1
        assert out == ""
        assert err.startswith("error: cannot write output")
        assert not target.exists()

    def test_failed_write_leaves_no_file(self, capsys, tmp_path, monkeypatch):
        def half_written(doc, write):
            write("{")
            raise OSError("no space left on device")

        monkeypatch.setattr(cli, "write_json", half_written)
        target = tmp_path / "x.json"
        code, out, err = run_main(capsys, [
            "integrate", "-n", "2", "--dims", "1,1", "--output", str(target)])
        assert code == 1
        assert "no space left" in err
        assert not target.exists()

    def test_enumerate_counts_and_classify(self, capsys):
        code, out, _ = run_main(capsys, [
            "classify", "-n", "2", "--dims", "1,1"])
        assert code == 0
        doc = json.loads(out)
        assert doc["count"] == 2
        fibers = sorted(row["identity_fiber"] for row in doc["chains"])
        assert fibers == [False, True]
        for row in doc["chains"]:
            assert row["admissible"] is True
            assert row["nilfil"] is True
            assert row["fixed_ranks"] == [0, 0]

    def test_classify_chains_longer_than_the_flag(self, capsys):
        # d - 1 > n: nilfil chains have no identity fiber to test
        code, out, _ = run_main(capsys, [
            "classify", "-n", "2", "--dims", "1,1,1,1"])
        assert code == 0
        doc = json.loads(out)
        assert doc["count"] == len(doc["chains"]) > 0
        for row in doc["chains"]:
            assert row["nilfil"] is True
            assert row["identity_fiber"] is None

    def test_classify_unpointed_dims(self, capsys):
        code, out, _ = run_main(capsys, [
            "classify", "-n", "2", "--dims", "2,1"])
        assert code == 0
        doc = json.loads(out)
        assert doc["count"] == len(doc["chains"]) > 0
        for row in doc["chains"]:
            assert row["nilfil"] is None
            assert row["identity_fiber"] is None
            assert isinstance(row["admissible"], bool)

    def test_contribution_single_point(self, capsys):
        code, out, _ = run_main(capsys, [
            "contribution", "-n", "3", "--dims", "1", "--class", "1"])
        assert code == 0
        doc = json.loads(out)
        assert len(doc["points"]) == 1
        value = rational_from_json(doc["points"][0]["value"]["factored"])
        point = {("s", i): i + 1 for i in range(1, 4)}
        assert value.evaluate(point) == Fraction(1, 24)

    def test_compare_agrees(self, capsys):
        code, out, _ = run_main(capsys, [
            "compare", "-n", "2", "--dims", "1,2", "--class", "c1"])
        assert code == 0
        doc = json.loads(out)
        assert doc["equal"] is True
        assert doc["method_a"] == "localization"
        assert doc["method_b"] == "residue"

    def test_compare_detects_mismatch(self, capsys, monkeypatch):
        def skewed(n, dims, P):
            res = integrate_localization(n, dims, "nilfil", P)
            wrong = FactoredRational.from_poly(SparsePolynomial.constant(7))
            return IntegralResult(wrong, res.vdim, "residue", "nilfil")

        monkeypatch.setattr(cli, "integrate_residue_nilfil", skewed)
        code, out, _ = run_main(capsys, [
            "compare", "-n", "2", "--dims", "1,1", "--class", "eta1"])
        assert code == 2
        assert json.loads(out)["equal"] is False

    def test_compare_parses_its_class_once(self, capsys, monkeypatch):
        calls = []

        def counting(*args):
            calls.append(args)
            return parse_class_spec(*args)

        monkeypatch.setattr(cli, "parse_class_spec", counting)
        code, out, _ = run_main(capsys, [
            "compare", "-n", "2", "--dims", "1,2,1", "--class", "c1^2"])
        assert (code, json.loads(out)["equal"]) == (0, True)
        assert calls == [("c1^2", 0, 4)]

    def test_verify_subset(self, capsys):
        code, out, _ = run_main(capsys, [
            "verify", "--checks", "hilb3-closed-form"])
        assert code == 0
        doc = json.loads(out)
        assert (doc["all_ok"], doc["seed"]) == (True, verify.DEFAULT_SEED)
        assert [r["name"] for r in doc["results"]] == ["hilb3-closed-form"]
        assert doc["results"][0]["ok"] is True

    def test_verify_unknown_check(self, capsys, monkeypatch):
        code, _, err = run_main(capsys, [
            "verify", "--checks", "no-such-check"])
        assert code == 1
        assert "unknown checks" in err
        # the library refuses the whole list before running any check
        ran = []
        monkeypatch.setitem(verify.CHECKS, "hilb3-closed-form",
                            lambda seed: ran.append(seed))
        with pytest.raises(ParseError, match="unknown checks"):
            verify.run_checks(["hilb3-closed-form", "no-such-check"])
        assert ran == []

    def test_check_results_are_tuples(self, monkeypatch):
        monkeypatch.setitem(verify.CHECKS, "hilb3-closed-form",
                            lambda seed: (False, f"seed {seed}"))
        [r] = verify.run_checks(["hilb3-closed-form"], seed=7)
        name, ok, detail, seconds = r
        assert r._fields == ("name", "ok", "detail", "seconds")
        assert (name, ok, detail) == ("hilb3-closed-form", False, "seed 7")
        assert r == verify.CheckResult(name, ok, detail, seconds)

    def test_bad_dims_exit_code(self, capsys):
        code, _, err = run_main(capsys, [
            "enumerate", "-n", "2", "--dims", "1,x"])
        assert code == 1
        assert err.startswith("error:")

    def test_config_defaults_and_override(self, capsys, tmp_path):
        config = tmp_path / "job.json"
        config.write_text(json.dumps({
            "n": 2, "dims": [1, 1], "space": "nilfil", "class": "eta1"}))
        code, out, _ = run_main(capsys, [
            "integrate", "--config", str(config)])
        assert code == 0
        got = rational_from_json(
            json.loads(out)["value"]["factored"])
        assert got.evaluate({}) == -1

        code, out, _ = run_main(capsys, [
            "integrate", "--config", str(config), "--class", "eta1^2"])
        assert code == 0
        got = rational_from_json(
            json.loads(out)["value"]["factored"])
        point = {("s", 1): 5, ("s", 2): 2}
        assert got.evaluate(point) == -7

    def test_config_rejects_unknown_keys(self, capsys, tmp_path):
        config = tmp_path / "job.json"
        # compare is always exact, so "samples" is no job field
        for command, doc in [("enumerate", {"shape": [1, 1]}),
                             ("compare", {"n": 2, "dims": [1, 1],
                                          "samples": 4})]:
            config.write_text(json.dumps(doc))
            code, out, err = run_main(capsys, [
                command, "--config", str(config)])
            assert code == 1
            assert out == ""
            assert "unknown config keys" in err

    @pytest.mark.parametrize("argv", [
        ["integrate", "-n", "x", "--dims", "1"],
        ["integrate", "-n", "1", "--dims", "1", "--no-such-flag"],
        ["integrate", "-n", "1", "--dims", "1", "--space", "nope"],
        ["compare", "-n", "2", "--dims", "1,1", "--class", "eta1",
         "--samples", "-3"],
        ["integrate", "-n", "1", "--dims", "1",
         "--class", "(" * 3000 + "1" + ")" * 3000],
        ["enumerate", "-n", "2", "--dims", "1,1", "--classify"],
        ["compare", "-n", "2", "--dims", "1,1", "--class", "eta1",
         "--samples", "4"],
        ["compare", "-n", "2", "--dims", "1,1", "--class", "eta1",
         "--seed", "11"],
        ["integrate", "-n", "1", "--dims", "1", "--class", "(9^3000)^3000"],
        ["integrate", "-n", "1", "--dims", "1", "--class", "(9^6000)^6000"],
        ["integrate", "-n", "2", "--dims", "1,1,1", "--class",
         "(eta1+eta2)^16000"],
    ])
    def test_parser_errors_exit_1(self, capsys, argv):
        code, out, err = run_main(capsys, argv)
        assert code == 1
        assert out == ""
        assert err.startswith("error:")

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["integrate", "--help"])
        assert exc.value.code == 0
        assert "--dims" in capsys.readouterr().out

    def test_verify_flags_have_the_shared_help(self, capsys):
        with pytest.raises(SystemExit):
            main(["verify", "--help"])
        out = capsys.readouterr().out
        assert "JSON file with default job fields" in out
        assert "point budget override (capped at 14)" in out

    def test_main_builds_the_parser_once(self, capsys, monkeypatch):
        built = []
        init = cli._ArgumentParser.__init__

        def counting(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(cli._ArgumentParser, "__init__", counting)
        cli._build_parser.cache_clear()
        for _ in range(2):
            code, out, err = run_main(capsys, ["enumerate", "-n", "2",
                                               "--dims", "1,1"])
            assert (code, err) == (0, "")
        assert built.count("nahilb") == 1

    @pytest.mark.parametrize("config", [
        {"dims": 5},
        {"checks": 5},
        {"seed": None},
        {"cy": "no"},
        {"n": 2.7},
    ])
    def test_config_values_of_the_wrong_type(self, capsys, tmp_path, config):
        path = tmp_path / "job.json"
        path.write_text(json.dumps({"n": 2, "dims": [1, 1], **config}))
        code, out, err = run_main(capsys, ["integrate", "--config", str(path)])
        assert code == 1
        assert out == ""
        assert err.startswith("error: config")

    def test_max_points_budget(self, capsys):
        code, _, err = run_main(capsys, [
            "enumerate", "-n", "2", "--dims", "6", "--max-points", "5"])
        assert code == 1
        assert err.startswith("error:")

    @pytest.mark.parametrize("argv, message", [
        (["integrate", "-n", "2", "--dims", "1,2", "--class", "eta1"],
         "error: not symmetric under eta_1 <-> eta_2\n"),
        (["integrate", "-n", "99999", "--dims", "1", "--class", "1",
          "--max-points", "1"],
         "error: ambient dimension 99999 exceeds the cap 64\n"),
        (["integrate", "-n", "1", "--dims", "1", "--q", "60", "--class", "c3"],
         "error: q = 60 exceeds the cap 16\n"),
    ])
    def test_refused_jobs_exit_1(self, capsys, argv, message):
        assert run_main(capsys, argv) == (1, "", message)

    def test_symmetry_per_layer(self, capsys):
        # eta_2 is alone in its layer of (1, 1, 1)
        for method in ("localization", "residue"):
            code, out, _ = run_main(capsys, [
                "integrate", "-n", "2", "--dims", "1,1,1", "--space",
                "nilfil", "--method", method, "--class", "eta2"])
            assert code == 0
            assert json.loads(out)["display"] == "(6)*(s1 + s2)"

    def test_max_points_does_not_outlive_its_call(self, capsys):
        env = dict(os.environ)
        code, _, err = run_main(capsys, [
            "enumerate", "-n", "2", "--dims", "6", "--max-points", "5"])
        assert code == 1
        assert "exceeds the point budget 5" in err
        code, out, _ = run_main(capsys, ["enumerate", "-n", "2", "--dims", "6"])
        assert code == 0
        assert json.loads(out)["count"] == 11
        assert dict(os.environ) == env


class TestBudgetBeforeWork:
    """A job past the point budget is refused before anything that grows
    with its size runs: parsing the class (c_k is built over every
    point), the layer symmetry check and the net rank count."""

    @pytest.fixture(autouse=True)
    def tripwires(self, monkeypatch):
        def tripped(*args, **kwargs):
            raise AssertionError("ran before the point budget refused")
        monkeypatch.setattr(cli, "parse_class_spec", tripped)
        monkeypatch.setattr(localization, "check_layer_symmetry", tripped)
        monkeypatch.setattr(localization, "_net_rank", tripped)

    @pytest.mark.parametrize("argv", [
        ["integrate"], ["contribution"], ["compare", "--space", "nilfil"],
        ["integrate", "--space", "nilfil", "--method", "residue"],
    ])
    def test_command_line(self, capsys, argv):
        argv = argv + ["-n", "2", "--dims", "1,40", "--class", "c1"]
        assert run_main(capsys, argv) == (
            1, "", "error: total size 41 exceeds the point budget 12\n")

    def test_library(self):
        with pytest.raises(SizeGuardExceeded, match="point budget 12$"):
            integrate_localization(2, (40,), "nhilb", TautClass(1, 0, 40))
        with pytest.raises(SizeGuardExceeded, match="point budget 12$"):
            reduce_full_flag(2, 40, TautClass(1, 0, 41))


def _src_env() -> dict:
    """The environment with this package's source first on PYTHONPATH."""
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p])
    return env


def test_closed_pipe_exits_1_without_traceback():
    # the reader closes stdout before the 67 kB document is written
    proc = subprocess.Popen(
        [sys.executable, "-m", "nahilb.cli", "integrate", "-n", "3",
         "--dims", "1,1,2", "--space", "nilfil", "--method", "residue",
         "--q", "1", "--class", "1+theta1*c1"],
        env=_src_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert proc.returncode == 1
    assert b"Traceback" not in err
    assert b"BrokenPipeError" not in err


def test_importing_the_cli_leaves_the_verification_suite_unloaded():
    """Only a verify job imports nahilb.verify, so the interpreter of any
    other job does not compile the acceptance suite; nor does it load
    dataclasses and the inspect module that it imports."""
    out = subprocess.run(
        [sys.executable, "-c", "import nahilb.cli, sys; print([name for name"
         " in ('nahilb.verify', 'dataclasses', 'inspect') if name in"
         " sys.modules])"],
        env=_src_env(), capture_output=True, text=True, timeout=60, check=True)
    assert out.stdout == "[]\n"


class TestRun:
    def test_returns_document_and_code(self):
        doc, code = run(JobSpec("enumerate", n=1, dims=(1, 1)))
        assert code == 0
        assert doc["count"] == 1

    def test_compare_requires_nilfil_space(self):
        with pytest.raises(ParseError):
            run(JobSpec("compare", n=2, dims=(1, 1), space="nhilb"))

    def test_unknown_command_is_a_parse_error(self):
        with pytest.raises(ParseError, match="unknown command 'bogus'"):
            run(JobSpec("bogus"))


_LEAVES = (st.none() | st.booleans() | st.integers()
           | st.integers(-10 ** 40, 10 ** 40) | st.text())
_TREES = st.recursive(
    _LEAVES,
    lambda kids: (st.lists(kids, max_size=4)
                  | st.lists(kids, max_size=4).map(tuple)
                  | st.dictionaries(st.text(max_size=5), kids, max_size=4)),
    max_leaves=40)


def _written(doc) -> list:
    pieces: list = []
    write_json(doc, pieces.append)
    return pieces


class TestWriteJson:
    @given(_TREES)
    @settings(max_examples=200, deadline=None)
    def test_bytes_equal_json_dumps(self, doc):
        assert "".join(_written(doc)) \
            == json.dumps(doc, sort_keys=True, indent=2) + "\n"

    def test_writes_long_documents_in_pieces(self):
        doc = {"rows": [{"k": [i, str(i)]} for i in range(3000)]}
        pieces = _written(doc)
        assert len(pieces) > 1
        assert "".join(pieces) \
            == json.dumps(doc, sort_keys=True, indent=2) + "\n"

    @pytest.mark.parametrize("flush_at", [1, 3, cli._FLUSH_AT])
    def test_shared_documents_match_json_dumps(self, monkeypatch, flush_at):
        # one SharedDoc at two depths and inside another, more than
        # _FLUSH_AT times; with a small _FLUSH_AT a flush would fall inside
        # its first rendering at each indent
        monkeypatch.setattr(cli, "_FLUSH_AT", flush_at)
        form = SharedDoc({"s": ["1", "-1"], "z": ["0", "2"]})
        outer = SharedDoc({"form": form, "e": -1})
        doc = {"rows": [[form, i] for i in range(4100)],
               "deep": {"a": [{"b": [form, outer, form]}]}, "top": outer}
        pieces = _written(doc)
        assert len(pieces) > 1
        assert "".join(pieces) \
            == json.dumps(doc, sort_keys=True, indent=2) + "\n"

    @pytest.mark.parametrize("doc", [
        1.5, [Fraction(1, 2)], {"a": {1: "x"}}, {"a": [1, {(1, 2): 0}]},
        {"a": OrderedDict(b="c")}, [type("Marked", (SharedDoc,), {})()],
    ])
    def test_other_types_raise(self, doc):
        with pytest.raises(TypeError):
            write_json(doc, lambda text: None)


# sha256 of stdout, recorded before the JSON writer and the factor merges
# replaced json.dumps and FactoredRational.build on these paths
GOLDEN = [
    pytest.param(
        ["contribution", "-n", "2", "--dims", "2,2", "--class", "c2^dual"],
        "256bd9907e7fc9c7409938a95105d754728f0f199c23012b5106c0920e8f58ec",
        id="contribution-nhilb"),
    pytest.param(
        ["contribution", "-n", "3", "--dims", "1,1,1", "--space", "nilfil",
         "--class", "eta1*eta2", "--expand"],
        "99ad949826a38499f30d8b1b189600111384f8d393400abe401fbc6259665ef4",
        id="contribution-nilfil"),
    pytest.param(
        ["integrate", "-n", "2", "--dims", "1,2,1", "--class", "c1^2*c2"],
        "2fc6aac9f557fcf16821d396e831327f6902fdc3ea166331a6027e1dd0cd2017",
        id="integrate-localization"),
    pytest.param(
        ["integrate", "-n", "2", "--dims", "1,1,1", "--q", "1",
         "--class", "theta1*c1"],
        "aa6ddc85c2d28f77bdd7addb0002942d948538f63b22f5c009d952e3f22c2bea",
        id="integrate-theta"),
    pytest.param(
        ["integrate", "-n", "3", "--dims", "1,1,2", "--space", "nilfil",
         "--method", "residue", "--class", "c2^dual"],
        "2e6c5fed31d18e95360510b21692eb22a022674b4ebfed02581b663d89f920f6",
        id="integrate-residue"),
    pytest.param(
        ["integrate", "-n", "2", "--dims", "1,1,1,1,1", "--space", "nilfil",
         "--method", "residue", "--class", "c2"],
        "92e0a59a48f8d76696dd2d10dce479476f0d7fc5c457126c353f9382918ff884",
        id="integrate-residue-deferred-rounds"),
    pytest.param(
        ["classify", "-n", "2", "--dims", "1,1,2"],
        "8a2633ba0da3e9f02e95cf54c208446cf58e940ae95a31cde2ef7355d995423c",
        id="classify"),
    pytest.param(
        ["compare", "-n", "2", "--dims", "1,2,1", "--class", "c1^2"],
        "49cdf4db74b726254376476d490844e43d69e5e81c1be2904db06105577eec92",
        id="compare"),
    pytest.param(
        ["integrate", "-n", "3", "--dims", "1,1,1", "--class", "c2^dual",
         "--cy", "--expand"],
        "0af2eda804f08ebab971d79b68590438360f8f8a826648e1e2c91aed6326814a",
        id="integrate-cy-expand"),
    # recorded before sum_factored expanded its summands as packed ints
    pytest.param(
        ["integrate", "-n", "3", "--dims", "1,2,1", "--class", "c1"],
        "20ccfd050ff640bc03cb065679c6705938d76b1824905cb607163d5807fd6558",
        id="integrate-n3"),
    pytest.param(
        ["integrate", "-n", "2", "--dims", "2,1", "--class", "1+c1"],
        "d94a8aeff587236862dea42f69fc6aea8b16d196ac39a56fc330b6c10c7ab305",
        id="integrate-inhomogeneous"),
    pytest.param(
        ["compare", "-n", "3", "--dims", "1,1,2", "--class", "c1^3"],
        "12daa4e78fae664d749ded77e6f95598992592957422b90d6f5afc35631381b9",
        id="compare-n3"),
    # recorded before the localization sums shared one term per S_n orbit
    pytest.param(
        ["contribution", "-n", "3", "--dims", "2,3", "--class", "c2^dual"],
        "47e9f23791245de2418a9ab2ab50c703d81bdd945066a93fe7682cdf128bbb67",
        id="contribution-orbits"),
    pytest.param(
        ["contribution", "-n", "3", "--dims", "1,1,1,1", "--space", "nilfil",
         "--q", "1", "--class", "theta1*c1"],
        "14170b2fc7a2d80ba25b9d20770f57a7abb7a9077c5a0c648957b1f207712355",
        id="contribution-orbits-theta"),
    pytest.param(
        ["integrate", "-n", "3", "--dims", "2,2", "--class", "c2^dual"],
        "ee73b396500595dbbb26d2d00452b1dbb8d3c302baa5ab14c2cdbc98885a9d6b",
        id="integrate-orbits"),
    # recorded before residue slices carried a monomial offset
    pytest.param(
        ["integrate", "-n", "3", "--dims", "1,1,2", "--space", "nilfil",
         "--method", "residue", "--q", "1", "--class", "1+theta1*c1"],
        "8577544ad08e96ab8294bb1397f71dca238a2ab7cb96863395551c42d435617b",
        id="integrate-residue-theta-inhomogeneous"),
    # recorded before the one-pass render of values and the residue
    # rounds that multiply D in before their divisions
    pytest.param(
        ["integrate", "-n", "3", "--dims", "1,1,1", "--space", "nilfil",
         "--class", "1", "--expand"],
        "3d036808efa3b3b7a2290afd0bdf8cc22c799613c0e7554aba8bd5a297e0470d",
        id="integrate-zero"),
    pytest.param(
        ["contribution", "-n", "2", "--dims", "1,2", "--class",
         "c2^dual^2*c1", "--expand"],
        "cf36a115e8f3452b80a101fc1b9a7fea4c138383961c1f26389a51830fe053fd",
        id="contribution-expand-rational"),
    pytest.param(
        ["contribution", "-n", "1", "--dims", "2,2", "--class", "c1^5",
         "--expand"],
        "715623c7c07a4036f206050638990a09b9714efb87c1dd186ca4bfc32280225f",
        id="contribution-expand-polynomial"),
    pytest.param(
        ["integrate", "-n", "12", "--dims", "1,1", "--space", "nilfil",
         "--method", "residue", "--class", "c1^13"],
        "a06829166987bb9d92fe98f0833d61a79a533a68bc503fa2d1c345cec1098415",
        id="integrate-residue-s12"),
    # recorded before linear forms were built from their keys in one step
    pytest.param(
        ["contribution", "-n", "10", "--dims", "1,1,1", "--space", "nilfil",
         "--class", "c1"],
        "db2ea19cbb1818eb445df98a456fec11b20c32cb0d80915973d17fb39ba5a874",
        id="contribution-s10"),
    # recorded before the residue divided each round by the coordinate
    # block as one polynomial in elementary symmetric variables
    pytest.param(
        ["integrate", "--space", "nilfil", "--method", "residue", "-n", "6",
         "--dims", "1,1,2", "--class", "c1"],
        "dfca9e3be745860a11601421d29bf339950bdb1b61e10cff079308fb03f1317d",
        id="integrate-residue-s6"),
    pytest.param(
        ["integrate", "--space", "nilfil", "--method", "residue", "-n", "4",
         "--dims", "1,1,1,1,1", "--class", "c1"],
        "13b7b7190b6de7f30a0382d4bea69382a1d23ba379bce50a667c35d41a405acb",
        id="integrate-residue-n4-d5"),
    pytest.param(
        ["integrate", "--space", "nilfil", "--method", "residue", "-n", "5",
         "--dims", "1,1,1,1,1", "--class", "1"],
        "ca62c269a39d65215008ede96774586d931f1954b001bec649b61beb0defcb3c",
        id="integrate-residue-n5-d5"),
    pytest.param(
        ["compare", "-n", "3", "--dims", "1,1,1,1", "--class", "c2^dual"],
        "ab710df698067cc568b59b2f2048d9ba19e38bc756a4fbe2c334f1aeb381007e",
        id="compare-full-flag"),
    # recorded before the read-out took its series of 1/sigma from the
    # recurrence: fat last blocks, one read-out round and two recurrence
    # rounds each
    pytest.param(
        ["integrate", "-n", "4", "--dims", "1,3", "--space", "nilfil",
         "--method", "residue", "--class", "c2^dual"],
        "5c94b2d1d880ca0039fd8ebb0fc3282d8cf3506a3aae757792b4d26692d0ac1b",
        id="integrate-residue-fat-block"),
    pytest.param(
        ["compare", "-n", "2", "--dims", "1,3", "--class", "c1^2"],
        "c910742587ec961db2d690c3a2635608c004fbed2040a1ab0c502fced7c3743b",
        id="compare-fat-block"),
    # recorded before residue values kept int coefficients until they
    # print: n = 5, and the sparse route from the Y_j to e_j(s)
    pytest.param(
        ["integrate", "-n", "5", "--dims", "1,1,2", "--space", "nilfil",
         "--method", "residue", "--class", "5*c1^dual*c1"],
        "b455d0a655fd6ea2d667209fcbcaef6183aa2606744860e1508dcc61f277ace8",
        id="integrate-residue-n5-tail"),
    # recorded before the command table and the shared document header
    pytest.param(
        ["enumerate", "-n", "3", "--dims", "2,1"],
        "12998c1798648203c22e0ba99500549bc383bbe7fe7ecf2b296eb4c20c1a4797",
        id="enumerate"),
    pytest.param(
        ["verify", "--checks", "hilb3-closed-form,n-stability"],
        "334da3b7a2a3f36a7a55ea20dd4d742c156b22e3400e0bbffef3cf95fdb607d4",
        id="verify"),
]

# sha256 of the --help text at 80 columns, recorded before the parser was
# built from the command table; argparse's layout differs between Python
# versions, so the digests hold for the version they were recorded with
HELP = {
    (): "d6915ccd8fa2331b4b16877e5a509b3653f5769f9c01a725311427e841e91553",
    ("enumerate",):
        "ec3e449f308db26e3573e20d548f832cdd79b8ba43b6349c5d87a1b0d831ce5d",
    ("classify",):
        "aefd8e6e1087b7c7905d5aa8da6d34da2ee9f20f56b72fde22ebffbb0a1d430b",
    ("contribution",):
        "bbc86f05deb99d1e1b8c14d159d4ff3bf4adbd4dc4e244489b74f51123ccc3b2",
    ("integrate",):
        "3a2b3a6fb8dcae3a89553361734cd033d0c5cfa8ad2cbf2a18c44234e6dd0e1f",
    ("compare",):
        "f6a61a46052c419124f910a2834c45903018107bd35f9b24272801b3f22fecbf",
    ("verify",):
        "053d5c7be173fdb91215e5d63749870df5deeaed90fa7eb9478ec45c45d1e7e6",
}


@pytest.mark.parametrize("argv, digest", GOLDEN)
def test_stdout_bytes_are_pinned(capsys, argv, digest):
    code, out, err = run_main(capsys, argv)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.skipif(sys.version_info[:2] != (3, 11),
                    reason="help digests recorded with Python 3.11's argparse")
@pytest.mark.parametrize("argv, digest", [
    pytest.param(argv, digest, id=" ".join(argv) or "nahilb")
    for argv, digest in HELP.items()])
def test_help_text_is_pinned(capsys, monkeypatch, argv, digest):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--help"])
    out, err = capsys.readouterr()
    assert (exc.value.code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("argv", [
    pytest.param(p.values[0], id=p.id) for p in GOLDEN])
def test_stdout_is_json_dumps_of_the_document(capsys, argv):
    # the writer against json.dumps on real documents, whose rendered
    # linear forms are shared between values
    doc, code = run(cli._job_from_args(cli._build_parser().parse_args(argv)))
    assert run_main(capsys, argv) \
        == (code, json.dumps(doc, sort_keys=True, indent=2) + "\n", "")
