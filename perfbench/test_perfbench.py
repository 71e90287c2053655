"""Tests of the benchmark itself, on jobs small enough to run in seconds.

    python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import perfbench

perfbench.use_checkout_source()

import nahilb  # noqa: E402
from nahilb import cli, localization  # noqa: E402
from nahilb.algebra import FactoredRational, LinearForm, SparsePolynomial  # noqa: E402
from nahilb.serialize import rational_from_json, rational_to_json  # noqa: E402

from perfbench import oracles, run, tracing  # noqa: E402
from perfbench.workloads import WORKLOADS, Job, jobs_for, run_job  # noqa: E402

RUN = str(Path(run.__file__).resolve())

SMALL = (
    Job("t/0", "integrate", 2, (1, 1, 2), "nilfil", "2*c1"),
    Job("t/1", "integrate", 2, (2, 2), "nhilb", "-3*c1^dual*(eta1+eta2+eta3)"),
    Job("t/2", "residue", 2, (1, 2, 1), "nilfil", "4*c2"),
    Job("t/3", "residue", 3, (1, 1, 2), "nilfil", "-1*c1"),
    Job("t/4", "contribution", 2, (1, 1, 1, 1), "nilfil", "5*c1"),
    Job("t/5", "contribution", 2, (2, 2), "nhilb", "2*c2^dual"),
    Job("t/6", "classify", 2, (1, 2, 2)),
    Job("t/7", "classify", 3, (2, 2)),
)


def _sites() -> dict:
    """Identity of every attribute of every nahilb module, and of the
    FactoredRational class dictionary."""
    out = {}
    for key, module in list(sys.modules.items()):
        if key == "nahilb" or key.startswith("nahilb."):
            for attr, value in vars(module).items():
                out[(key, attr)] = id(value)
    for attr, value in vars(FactoredRational).items():
        out[("FactoredRational", attr)] = id(value)
    return out


def test_same_seed_gives_the_same_job_list():
    for workload in WORKLOADS:
        jobs = jobs_for(workload, 7)
        assert jobs == jobs_for(workload, 7)
        assert len(jobs) > run.TAIL_BEYOND
        assert len({job.id for job in jobs}) == len(jobs)
    for workload in ("loc-sum", "residue", "per-chain"):
        assert jobs_for(workload, 7) != jobs_for(workload, 8)


def test_traced_and_untraced_runs_give_identical_outputs():
    plain = [run_job(job) for job in SMALL]
    tracer = tracing.Tracer()
    with tracer.installed():
        traced = []
        for job in SMALL:
            tracer.job = job.id
            traced.append(run_job(job))
            tracer.end_job()
    assert traced == plain
    assert tracer.calls["cli.main"] == 6
    assert tracer.calls["residues.iterated_residue"] == 2
    assert tracer.calls["weights.fixed_ranks"] > 0
    assert tracer.counts["localization.chains_in"] > 0
    assert tracer.spans == []


def test_every_import_site_is_wrapped_and_restored():
    before = _sites()
    original = localization.integrate_localization
    tracer = tracing.Tracer()
    try:
        with tracer.installed():
            wrapped = cli.integrate_localization
            assert wrapped is not original
            assert wrapped.__wrapped__ is original
            assert localization.integrate_localization is wrapped
            assert nahilb.integrate_localization is wrapped
            assert isinstance(vars(FactoredRational)["build"], classmethod)
            assert FactoredRational.build(1, SparsePolynomial.one()).poly.is_one()
            raise KeyError("leave the block early")
    except KeyError:
        pass
    assert _sites() == before
    assert cli.integrate_localization is original


def _times(value: FactoredRational, num: int, den: int) -> FactoredRational:
    """value * s_num / s_den: same degree, no longer symmetric in s."""
    ratio = FactoredRational.build(1, SparsePolynomial.one(), [
        (LinearForm.variable(("s", num)), 1),
        (LinearForm.variable(("s", den)), -1)])
    return value * ratio


def _perturb(job: Job, output: bytes) -> bytes:
    doc = json.loads(output)
    if job.family == "classify":
        row = doc["chains"][0]
        row["admissible"] = not row["admissible"]
    else:
        target = (doc["points"][0]["value"] if job.family == "contribution"
                  else doc["value"])
        value = rational_from_json(target["factored"])
        target["factored"] = rational_to_json(_times(value, 1, 2))
    return json.dumps(doc).encode()


def test_oracles_accept_outputs_and_reject_perturbed_ones():
    for job in SMALL:
        output = run_job(job)
        assert oracles.check(job, output, seed=3) is None, job
        assert oracles.check(job, _perturb(job, output), seed=3) is not None, job


def test_benchmark_json_matches_the_code():
    spec = json.loads((perfbench.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == list(tracing.METRICS)


def test_job_times_are_scaled_by_the_reference_around_them():
    ref = run.REFERENCE_S
    p = run.Pass(wall=0.0, times=[0.3, 0.5], cpus=[0.2, 0.4],
                 refs=[(ref, ref), (3 * ref, 2 * ref), (ref, 2 * ref)],
                 digests=[], outputs=None)
    walls, cpus = run.scaled(p)
    assert walls == pytest.approx([0.3 / 2, 0.5 / 2])
    assert cpus == pytest.approx([0.2 / 1.5, 0.4 / 2])


def test_refuses_to_run_under_optimize():
    proc = subprocess.run(
        [sys.executable, "-O", RUN, "--workload", "classify", "--seed", "1",
         "--seconds", "1"], capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert "-O" in proc.stderr


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(perfbench.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(perfbench.ROOT / "perfbench", tmp_path / "perfbench")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "classify",
         "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
