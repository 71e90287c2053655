"""Command line: class-spec parsing, job validation, exit codes, and
deterministic JSON output."""

import hashlib
import json
import os
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nahilb.cli as cli
import nahilb.verify as verify
from nahilb.algebra import FactoredRational, SparsePolynomial, rational_equal
from nahilb.cli import JobSpec, main, parse_class_spec, run, write_json
from nahilb.errors import IndexOutOfRange, NotBisymmetric, ParseError
from nahilb.localization import (
    IntegralResult,
    TautClass,
    chern_taut,
    integrate_localization,
)
from nahilb.serialize import poly_from_json, rational_from_json


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

    def test_verify_subset(self, capsys):
        code, out, _ = run_main(capsys, [
            "verify", "--checks", "hilb3-closed-form"])
        assert code == 0
        doc = json.loads(out)
        assert doc["all_ok"] is True
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


class TestRun:
    def test_returns_document_and_code(self):
        doc, code = run(JobSpec("enumerate", n=1, dims=(1, 1)))
        assert code == 0
        assert doc["count"] == 1

    def test_compare_requires_nilfil_space(self):
        with pytest.raises(ParseError):
            run(JobSpec("compare", n=2, dims=(1, 1), space="nhilb"))


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

    @pytest.mark.parametrize("doc", [
        1.5, [Fraction(1, 2)], {"a": {1: "x"}}, {"a": [1, {(1, 2): 0}]},
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
]


@pytest.mark.parametrize("argv, digest", GOLDEN)
def test_stdout_bytes_are_pinned(capsys, argv, digest):
    code, out, err = run_main(capsys, argv)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest
