"""Correctness checks on job outputs, run outside the timed region.

Each check reads the job's canonical output and tests it against a fact
that does not come from recomputing the same thing the same way:

* integrals are invariant under permuting s_1..s_n and have degree
  deg P - vdim; a nilfil localization sum with d <= 4 equals the residue
  integral, and a residue integral with n = 2 equals the localization sum;
* per-chain rows, evaluated at a seeded point and summed, are invariant
  under permuting the s-variables and, for nilfil, equal the residue
  integral there;
* classify rows satisfy (W_T == W_B) == admissible, and fixed_ranks
  agrees with the fixed ranks of the tangent and obstruction multisets.
"""

from __future__ import annotations

import json
from fractions import Fraction
from random import Random

from nahilb.algebra import rational_equal
from nahilb.cli import parse_class_spec
from nahilb.errors import DivisionByZero
from nahilb.localization import integrate_localization
from nahilb.residues import integrate_residue_nilfil
from nahilb.serialize import rational_from_json

_POINT_TRIES = 50


def _sample(rng: Random, n: int, evaluate) -> tuple:
    """(point, value at it, value after a seeded permutation of s_1..s_n)
    at the first seeded point in s_1..s_n where no denominator vanishes."""
    for _ in range(_POINT_TRIES):
        values = [Fraction(rng.randint(1, 97), rng.randint(1, 13))
                  * rng.choice((1, -1)) for _ in range(n)]
        perm = rng.sample(range(n), n)
        if perm == sorted(perm):
            perm[0], perm[1] = perm[1], perm[0]
        point = {("s", i + 1): values[i] for i in range(n)}
        moved = {("s", i + 1): values[perm[i]] for i in range(n)}
        try:
            return point, evaluate(point), evaluate(moved)
        except DivisionByZero:
            continue
    raise DivisionByZero("every sampled point hit a vanishing denominator")


def _integral(job, doc: dict, rng: Random) -> str | None:
    value = rational_from_json(doc["value"]["factored"])
    P = parse_class_spec(job.class_spec, 0, job.d)
    degree = P.poly.homogeneous_degree() - doc["vdim"]
    if not value.is_zero() and value.homogeneous_degree() != degree:
        return f"degree {value.homogeneous_degree()}, expected {degree}"
    if job.family == "residue" and job.n == 2:
        other = integrate_localization(job.n, job.dims, "nilfil", P)
    elif job.family == "integrate" and job.space == "nilfil" and job.d <= 4:
        other = integrate_residue_nilfil(job.n, job.dims, P)
    else:
        other = None
    if other is not None and not rational_equal(value, other.value):
        return f"{value} but the other method gives {other.value}"
    point, got, permuted = _sample(rng, job.n, value.evaluate)
    if got != permuted:
        return f"{got} at {point} but {permuted} after permuting s"
    return None


def _contribution(job, doc: dict, rng: Random) -> str | None:
    rows = [rational_from_json(r["value"]["factored"]) for r in doc["points"]]
    if not rows:
        return "no chains"

    def total(point):
        return sum((r.evaluate(point) for r in rows), Fraction(0))

    point, got, permuted = _sample(rng, job.n, total)
    if got != permuted:
        return f"rows sum to {got} at {point} but {permuted} after permuting s"
    if job.space == "nilfil":
        P = parse_class_spec(job.class_spec, 0, job.d)
        want = integrate_residue_nilfil(job.n, job.dims, P).value.evaluate(point)
        if got != want:
            return f"rows sum to {got} at {point}, the residue integral is {want}"
    return None


def _classify(job, doc: dict, rng: Random) -> str | None:
    if not doc["chains"]:
        return "no chains"
    for row in doc["chains"]:
        wt, wb = row["fixed_ranks"]
        if (wt == wb) != row["admissible"]:
            return f"W_T={wt}, W_B={wb} but admissible={row['admissible']}"
        if (wt, wb) != (row["tangent_fixed_rank"], row["obstruction_fixed_rank"]):
            return (f"fixed_ranks {(wt, wb)} but the multisets have "
                    f"{(row['tangent_fixed_rank'], row['obstruction_fixed_rank'])}")
    return None


_CHECKS = {"integrate": _integral, "residue": _integral,
           "contribution": _contribution, "classify": _classify}


def check(job, output: bytes, seed: int) -> str | None:
    """None when the output passes the job's oracle, else the reason."""
    rng = Random(f"{job.id}:{seed}")
    return _CHECKS[job.family](job, json.loads(output), rng)
