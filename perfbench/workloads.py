"""Seeded job lists for the four workloads, and the code that runs one job.

Every workload is a fixed list of shapes (n, dims, space).  The seed draws
the integrand of each CLI job and the order of the list, so two seeds do
nearly the same amount of work and runs on different seeds stay
comparable.  The shapes are sized so that one pass over a list takes a few
seconds on a 2-core machine.  BENCHMARK.json records why each workload
exists; perfbench/README.md lists the shapes left out for cost.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from random import Random

from nahilb import cli, partitions, weights

WORKLOADS = ("loc-sum", "residue", "per-chain", "classify")


class JobFailed(Exception):
    """A job exited nonzero, raised, or printed to stderr."""


@dataclass(frozen=True)
class Job:
    """One unit of work; the program sees only what `argv` produces."""

    id: str
    family: str  # "integrate", "residue", "contribution" or "classify"
    n: int
    dims: tuple
    space: str = "nhilb"
    class_spec: str = ""

    @property
    def d(self) -> int:
        return sum(self.dims)

    def argv(self) -> list:
        command = "contribution" if self.family == "contribution" else "integrate"
        argv = [command, "-n", str(self.n),
                "--dims", ",".join(map(str, self.dims)),
                "--space", self.space, f"--class={self.class_spec}"]
        if self.family == "residue":
            argv += ["--method", "residue"]
        return argv


# ---------------------------------------------------------------------------
# integrands

# An integrand's kind fixes its polynomial up to a scalar; the seed picks
# the scalar and the spelling.  c1, c1^dual and eta1+...+eta_{d-1} are the
# same class up to sign, as are c2 and c2^dual, so every seed integrates the
# same polynomials and does the same work.  The etaJ enter only through
# symmetric sums, because an integrand must be symmetric in eta_1..eta_{d-1}.
KINDS = ("e1", "e2", "e1e1", "p2")


def class_spec(rng: Random, d: int, kind: str) -> str:
    """Seeded nonzero multiple of the class of the given kind, written as a
    product of c_k, c_k^dual and eta sums."""
    etas = range(1, d)
    e1 = ("c1", "c1^dual", "(" + "+".join(f"eta{j}" for j in etas) + ")")
    factors = {
        "const": [],
        "e1": [rng.choice(e1)],
        "e2": [rng.choice(("c2", "c2^dual"))],
        "e1e1": [rng.choice(e1), rng.choice(e1)],
        "p2": ["(" + "+".join(f"eta{j}^2" for j in etas) + ")"],
    }[kind]
    coeff = rng.randint(1, 5) * rng.choice((1, -1))
    return "*".join([str(coeff)] + factors)


# ---------------------------------------------------------------------------
# shapes

def compositions(total: int, pointed: bool = False):
    """Ordered tuples of positive integers summing to total; pointed ones
    start with 1."""
    if pointed:
        for rest in compositions(total - 1):
            yield (1,) + rest
        return
    if total == 0:
        yield ()
        return
    for first in range(1, total + 1):
        for rest in compositions(total - first):
            yield (first,) + rest


# n = 3, d = 4 localization sums cost 0.7 s to 6 s each at the seed commit;
# these two are among the cheapest; perfbench/README.md lists the others.
LOC_SUM_N3 = (((1, 2, 1), "nhilb"), ((1, 1, 2), "nilfil"))

# Pointed shapes whose residue stays under a second at the seed commit;
# perfbench/README.md lists the slower ones.  The small shapes take a few
# milliseconds, mostly CLI overhead, so they get one integrand each and
# the median job is one where iterated_residue does the work.
RESIDUE_SMALL = tuple((n, dims) for n in (2, 3, 4, 5)
                      for dims in ((1, 1, 1, 1), (1, 2, 1)))
RESIDUE_D4 = ((2, (1, 3)),) + tuple((n, (1, 1, 2)) for n in (2, 3, 4, 5))
RESIDUE_D5 = ((2, (1, 1, 1, 1, 1)), (2, (1, 2, 1, 1)), (3, (1, 1, 1, 1, 1)))

# nilfil rows are checked against the residue integral, so only shapes
# with a fast residue are used.
PER_CHAIN_NILFIL = ((2, (1, 1, 1, 1, 1)), (2, (1, 2, 1, 1)),
                    (2, (1, 1, 2, 1)), (3, (1, 1, 1, 1, 1)),
                    (3, (1, 2, 1, 1)))
PER_CHAIN_N2_D6 = ((2, 2, 2), (1, 2, 3), (3, 2, 1),
                   (2, 1, 1, 2), (1, 1, 2, 2), (6,), (4, 2), (2, 4),
                   (3, 3), (1, 5), (5, 1))
PER_CHAIN_N3_D5 = ((2, 3), (3, 2), (1, 4), (5,))

# n = 2 dims of one or two blocks take 11 to 23 ms; left in, they put the
# median job at the edge of a gap in the job times (perfbench/README.md).
CLASSIFY_SHAPES = (
    ((3, (1, 2, 4)), (3, (1, 6)))
    + tuple((3, dims) for dims in ((1, 2, 3), (1, 3, 2), (3, 3), (1, 1, 4),
                                   (2, 4), (4, 2), (1, 5), (6,), (5, 1)))
    + tuple((2, dims) for dims in compositions(6) if len(dims) > 2)
)


def _cycle(shapes, n: int, space: str, kinds=KINDS) -> list:
    """One job per shape, the integrand kinds taken in turn."""
    return [(n, dims, space, (kinds[i % len(kinds)],))
            for i, dims in enumerate(shapes)]


def _shapes(workload: str) -> list:
    """(n, dims, space, integrand kinds), one job per kind."""
    if workload == "loc-sum":
        return (_cycle(compositions(5), 2, "nhilb")
                + _cycle(compositions(5, pointed=True), 2, "nilfil")
                + _cycle(compositions(4), 2, "nhilb")
                + [(3, dims, space, ("e1",)) for dims, space in LOC_SUM_N3])
    if workload == "residue":
        return ([(n, dims, "nilfil", (KINDS[i % len(KINDS)],))
                 for i, (n, dims) in enumerate(RESIDUE_SMALL)]
                + [(n, dims, "nilfil", ("const", "e1", KINDS[1 + i % 3]))
                   for i, (n, dims) in enumerate(RESIDUE_D4)]
                + [(n, dims, "nilfil", ("e1", "e2") if n == 2 else ("e1",))
                   for n, dims in RESIDUE_D5])
    if workload == "per-chain":
        return ([(n, dims, "nilfil", ("e2",)) for n, dims in PER_CHAIN_NILFIL]
                + _cycle(compositions(5), 2, "nhilb")
                + _cycle(PER_CHAIN_N2_D6, 2, "nhilb", ("e1",))
                + _cycle(PER_CHAIN_N3_D5, 3, "nhilb", ("e2", "p2")))
    if workload == "classify":
        return [(n, dims, "nhilb", (None,)) for n, dims in CLASSIFY_SHAPES]
    raise ValueError(f"unknown workload {workload!r}")


_FAMILY = {"loc-sum": "integrate", "residue": "residue",
           "per-chain": "contribution", "classify": "classify"}


def jobs_for(workload: str, seed: int) -> list:
    """The workload's job list for this seed, in the order it runs."""
    rng = Random(f"{workload}:{seed}")
    family = _FAMILY[workload]
    jobs = []
    for n, dims, space, kinds in _shapes(workload):
        for kind in kinds:
            spec = "" if kind is None else class_spec(rng, sum(dims), kind)
            jobs.append((n, dims, space, spec))
    rng.shuffle(jobs)
    return [Job(f"{workload}/{i:02d}", family, n, dims, space, spec)
            for i, (n, dims, space, spec) in enumerate(jobs)]


# ---------------------------------------------------------------------------
# running a job

def classify(n: int, dims: tuple) -> dict:
    """Enumerate the chains of (n, dims) and classify each one.

    `nahilb classify` cannot do this (it fails on any pointed chain with
    d > n + 1 and on unpointed dims), so the library runs directly.
    Library functions are looked up on their modules at call time, so a
    trace that wraps them sees these calls.
    """
    P, W = partitions, weights
    pointed = dims[0] == 1
    rows = []
    for np_ in P.enumerate_nested(n, dims):
        e = P.canonical_enumeration(np_)
        wt, wb = W.fixed_ranks(e)
        rows.append({
            "chain": np_.key(),
            "admissible": P.is_admissible(np_),
            "nilfil": P.is_nilfil(np_) if pointed else None,
            "fixed_ranks": [wt, wb],
            "tangent_fixed_rank": W.tangent_class(e).fixed_rank(),
            "obstruction_fixed_rank": W.obstruction_class(e).fixed_rank(),
            "enumerations": (len(P.all_enumerations(np_))
                             if np_.d <= P.MAX_ENUMERATION_POINTS else None),
        })
    return {"n": n, "dims": list(dims), "chains": rows}


def run_job(job: Job) -> bytes:
    """Run one job through the public entry point and return its
    canonical output: the CLI's stdout, or sorted-key JSON for classify."""
    if job.family == "classify":
        return json.dumps(classify(job.n, job.dims), sort_keys=True).encode()
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(job.argv())
    if code != 0 or err.getvalue():
        raise JobFailed(f"exit code {code}: {err.getvalue().strip()}")
    return out.getvalue().encode()
