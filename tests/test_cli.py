"""Command line: class-spec parsing, job validation, exit codes, and
deterministic JSON output."""

import json
import os
from fractions import Fraction

import pytest

import nahilb.cli as cli
from nahilb.algebra import FactoredRational, SparsePolynomial, rational_equal
from nahilb.cli import JobSpec, main, parse_class_spec, run
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
        with pytest.raises(IndexOutOfRange):
            parse_class_spec("theta1", 0, 2)

    def test_eta_needs_points(self):
        with pytest.raises(IndexOutOfRange):
            parse_class_spec("eta2", 0, 2)

    def test_symmetry_still_enforced(self):
        with pytest.raises(NotBisymmetric):
            parse_class_spec("eta1", 0, 3)

    def test_bad_character(self):
        with pytest.raises(ParseError):
            parse_class_spec("c1 @ c2", 0, 3)

    def test_trailing_input(self):
        with pytest.raises(ParseError):
            parse_class_spec("c1 c2", 0, 3)

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

    def test_residue_requires_nilfil(self, capsys):
        code, _, err = run_main(capsys, [
            "integrate", "-n", "2", "--dims", "1,1",
            "--method", "residue", "--class", "1"])
        assert code == 1
        assert err.startswith("error:")

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

    def test_enumerate_counts_and_classify(self, capsys):
        code, out, _ = run_main(capsys, [
            "enumerate", "-n", "2", "--dims", "1,1", "--classify"])
        assert code == 0
        doc = json.loads(out)
        assert doc["count"] == 2
        fibers = sorted(row["identity_fiber"] for row in doc["chains"])
        assert fibers == [False, True]
        for row in doc["chains"]:
            assert row["admissible"] is True
            assert row["nilfil"] is True
            assert row["fixed_ranks"] == [0, 0]

    def test_classify_command_matches_flag(self, capsys):
        _, via_flag, _ = run_main(capsys, [
            "enumerate", "-n", "2", "--dims", "1,2", "--classify"])
        _, via_command, _ = run_main(capsys, [
            "classify", "-n", "2", "--dims", "1,2"])
        assert via_flag == via_command

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

    def test_compare_sampled(self, capsys):
        code, out, _ = run_main(capsys, [
            "compare", "-n", "2", "--dims", "1,1", "--class", "eta1",
            "--samples", "4", "--seed", "11"])
        assert code == 0
        doc = json.loads(out)
        assert doc["sampling"] == {"points": 4, "seed": 11}
        assert doc["equal"] is True

    def test_compare_detects_mismatch(self, capsys, monkeypatch):
        def skewed(n, dims, P, margin=0):
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

    def test_verify_unknown_check(self, capsys):
        code, _, err = run_main(capsys, [
            "verify", "--checks", "no-such-check"])
        assert code == 1
        assert "unknown checks" in err

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
        config.write_text(json.dumps({"shape": [1, 1]}))
        code, _, err = run_main(capsys, [
            "enumerate", "--config", str(config)])
        assert code == 1
        assert "unknown config keys" in err

    def test_max_points_budget(self, capsys, monkeypatch):
        monkeypatch.setenv("NAHILB_MAX_POINTS", "12")
        code, _, err = run_main(capsys, [
            "enumerate", "-n", "2", "--dims", "6", "--max-points", "5"])
        assert code == 1
        assert err.startswith("error:")

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
