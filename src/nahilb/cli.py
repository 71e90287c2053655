"""Batch command line for enumeration, contributions, integrals and the
verification suite.

Every command reads an optional JSON config with defaults, takes explicit
flags as overrides, and writes one deterministic JSON document: keys are
sorted and no timing or environment data enters the output, so identical
jobs produce byte-identical bytes.  Exit codes: 0 success, 2 for a compare
or verify run that completed and found a mismatch, 1 for errors.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from random import Random

from .algebra import FactoredRational, SparsePolynomial, rational_equal
from .errors import IndexOutOfRange, NahilbError, NotPolynomial, ParseError
from .localization import (
    TautClass,
    chern_taut,
    contribution,
    cy_restrict,
    integrate_localization,
)
from .partitions import (
    canonical_enumeration,
    enumerate_nested,
    identity_sigma,
    in_flag_fiber,
    is_admissible,
    is_nilfil,
    point_budget,
)
from .residues import integrate_residue_nilfil
from .serialize import (
    integral_result_to_json,
    nested_to_json,
    rational_to_json,
)
from .verify import CHECKS, DEFAULT_SEED, run_checks
from .weights import fixed_ranks


@dataclass
class JobSpec:
    """One batch job, fully determined by its fields."""

    command: str
    n: int = 0
    dims: tuple = ()
    space: str = "nhilb"
    method: str = "localization"
    class_spec: str = "1"
    q: int = 0
    cy: bool = False
    expand: bool = False
    classify: bool = False
    seed: int = DEFAULT_SEED
    samples: int = 0
    checks: tuple = ()
    output: str | None = None
    max_points: int | None = None

    def validate(self) -> None:
        if self.command in ("enumerate", "classify", "contribution",
                            "integrate", "compare"):
            if self.n < 1:
                raise ParseError(f"n must be >= 1, got {self.n}")
            if not self.dims or any(x < 0 for x in self.dims):
                raise ParseError(f"dims must be nonempty and >= 0: {self.dims}")
        if self.space not in ("nhilb", "nilfil"):
            raise ParseError(f"unknown space {self.space!r}")
        if self.method not in ("localization", "residue"):
            raise ParseError(f"unknown method {self.method!r}")
        if self.q < 0:
            raise ParseError(f"q must be >= 0, got {self.q}")


# ---------------------------------------------------------------------------
# class-spec parser

_TOKEN_RE = re.compile(r"\s*(?:(?P<int>\d+)|(?P<word>[A-Za-z]+\d*)"
                       r"|(?P<op>[-+*^()]))")


def _tokenize(text: str) -> list:
    out = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"bad character {text[pos]!r} at position {pos}")
        if m.group("int"):
            out.append(("int", int(m.group("int"))))
        elif m.group("word"):
            out.append(("word", m.group("word")))
        elif m.group("op"):
            out.append(("op", m.group("op")))
        pos = m.end()
    return out


class _ClassParser:
    """Recursive descent over sums, products, powers and `^dual`.

    `dual` is a postfix marker on a Chern atom and must come before any
    integer power, as in c2^dual^3.
    """

    def __init__(self, tokens: list, q: int, d: int):
        self.tokens = tokens
        self.pos = 0
        self.q = q
        self.d = d

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self):
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of class expression")
        self.pos += 1
        return tok

    def expect_op(self, op: str) -> None:
        tok = self.take()
        if tok != ("op", op):
            raise ParseError(f"expected {op!r}, got {tok[1]!r}")

    def parse(self) -> SparsePolynomial:
        value = self.expr()
        if self.peek() is not None:
            raise ParseError(f"trailing input from {self.peek()[1]!r}")
        return value

    def expr(self) -> SparsePolynomial:
        value = self.term()
        while self.peek() in (("op", "+"), ("op", "-")):
            _, op = self.take()
            rhs = self.term()
            value = value + rhs if op == "+" else value - rhs
        return value

    def term(self) -> SparsePolynomial:
        value = self.signed()
        while self.peek() == ("op", "*"):
            self.take()
            value = value * self.signed()
        return value

    def signed(self) -> SparsePolynomial:
        if self.peek() == ("op", "-"):
            self.take()
            return -self.signed()
        return self.power()

    def power(self) -> SparsePolynomial:
        chern = self.atom()
        dual = False
        exps = []
        while self.peek() == ("op", "^"):
            self.take()
            tok = self.take()
            if tok == ("word", "dual"):
                if not isinstance(chern, int) or dual or exps:
                    raise ParseError("dual only applies directly to a c_k")
                dual = True
            elif tok[0] == "int":
                exps.append(tok[1])
            else:
                raise ParseError(f"bad exponent {tok[1]!r}")
        if isinstance(chern, int):
            value = chern_taut(chern, self.q, self.d, dual=dual).poly
        else:
            value = chern
        for e in exps:
            value = value ** e
        return value

    def atom(self):
        tok = self.take()
        if tok[0] == "int":
            return SparsePolynomial.constant(tok[1])
        if tok == ("op", "("):
            value = self.expr()
            self.expect_op(")")
            return value
        if tok[0] == "word":
            return self.named(tok[1])
        raise ParseError(f"unexpected {tok[1]!r}")

    def named(self, word: str):
        m = re.fullmatch(r"c(\d+)", word)
        if m:
            return int(m.group(1))
        m = re.fullmatch(r"theta(\d+)", word)
        if m:
            i = int(m.group(1))
            if not 1 <= i <= self.q:
                raise IndexOutOfRange(f"theta_{i} needs q >= {i}, got {self.q}")
            return SparsePolynomial.variable(("theta", i))
        m = re.fullmatch(r"eta(\d+)", word)
        if m:
            j = int(m.group(1))
            if not 1 <= j <= self.d - 1:
                raise IndexOutOfRange(f"eta_{j} needs d > {j}, got {self.d}")
            return SparsePolynomial.variable(("eta", j))
        raise ParseError(f"unknown name {word!r}")


def parse_class_spec(text: str, q: int, d: int) -> TautClass:
    """Parse sums, products and powers of c_k, c_k^dual, theta_i, eta_j,
    and integer literals into a validated integrand."""
    poly = _ClassParser(_tokenize(text), q, d).parse()
    return TautClass(poly, q, d)


# ---------------------------------------------------------------------------
# sampled equality

def _rational_stream(rng: Random):
    while True:
        yield Fraction(rng.randint(-9, 9), rng.randint(1, 9))


def _value_vars(v: FactoredRational) -> set:
    out = set(v.poly.variables())
    for form, _ in v.factors:
        out.update(form.coeffs)
    return out


def _sampled_equal(a: FactoredRational, b: FactoredRational, n: int,
                   samples: int, seed: int) -> bool:
    rng = Random(seed)
    stream = _rational_stream(rng)
    svars = {("s", i) for i in range(1, n + 1)}
    svars |= _value_vars(a) | _value_vars(b)
    svars = sorted(svars)
    done = 0
    attempts = 0
    while done < samples:
        attempts += 1
        if attempts > 1000 * samples:
            raise NahilbError("sampling kept hitting denominator zeros")
        point = {v: next(stream) for v in svars}
        try:
            va = a.evaluate(point)
            vb = b.evaluate(point)
        except NahilbError:
            continue
        if va != vb:
            return False
        done += 1
    return True


# ---------------------------------------------------------------------------
# commands

def _rational_doc(v: FactoredRational, expand: bool) -> dict:
    doc = {"factored": rational_to_json(v), "display": str(v)}
    if expand:
        from .serialize import poly_to_json
        # only values whose denominators clear have an expanded form
        try:
            doc["expanded"] = poly_to_json(v.expand())
        except NotPolynomial:
            pass
    return doc


def cmd_enumerate(job: JobSpec) -> tuple:
    chains = enumerate_nested(job.n, job.dims)
    rows = []
    for np_ in chains:
        row = {"chain": nested_to_json(np_)}
        if job.classify:
            # nilfil needs pointed dims and the identity fiber needs
            # d - 1 <= n; where they do not apply the row says null
            nil = is_nilfil(np_) if np_.dims[0] == 1 else None
            fiber = nil and (in_flag_fiber(np_, identity_sigma(np_.d))
                             if np_.d - 1 <= np_.n else None)
            wt, wb = fixed_ranks(canonical_enumeration(np_))
            row["admissible"] = is_admissible(np_)
            row["nilfil"] = nil
            row["identity_fiber"] = fiber
            row["fixed_ranks"] = [wt, wb]
        rows.append(row)
    doc = {
        "command": "classify" if job.classify else "enumerate",
        "n": job.n,
        "dims": list(job.dims),
        "count": len(rows),
        "chains": rows,
    }
    return doc, 0


def cmd_contribution(job: JobSpec) -> tuple:
    d = sum(job.dims)
    P = parse_class_spec(job.class_spec, job.q, d)
    chains = enumerate_nested(job.n, job.dims)
    if job.space == "nilfil":
        chains = [c for c in chains if is_nilfil(c)]
    rows = []
    for np_ in chains:
        e = canonical_enumeration(np_)
        v = contribution(e, job.n, job.space, P)
        rows.append({"chain": nested_to_json(np_),
                     "value": _rational_doc(v, job.expand)})
    doc = {
        "command": "contribution",
        "n": job.n,
        "dims": list(job.dims),
        "space": job.space,
        "class": job.class_spec,
        "points": rows,
    }
    return doc, 0


def _integral(job: JobSpec, method: str):
    d = sum(job.dims)
    P = parse_class_spec(job.class_spec, job.q, d)
    if method == "residue":
        if job.space != "nilfil":
            raise ParseError("the residue method computes nilfil integrals;"
                             " pass --space nilfil")
        return integrate_residue_nilfil(job.n, job.dims, P)
    return integrate_localization(job.n, job.dims, job.space, P)


def cmd_integrate(job: JobSpec) -> tuple:
    res = _integral(job, job.method)
    doc = integral_result_to_json(res, expand=job.expand)
    doc.update({
        "command": "integrate",
        "n": job.n,
        "dims": list(job.dims),
        "class": job.class_spec,
        "display": str(res.value),
    })
    if job.cy:
        doc["cy_value"] = _rational_doc(cy_restrict(res.value, job.n),
                                        job.expand)
    return doc, 0


def cmd_compare(job: JobSpec) -> tuple:
    if job.space != "nilfil":
        raise ParseError("compare runs both methods, so it needs a nilfil"
                         " integral; pass --space nilfil")
    a = _integral(job, "localization")
    b = _integral(job, "residue")
    doc = {
        "command": "compare",
        "n": job.n,
        "dims": list(job.dims),
        "class": job.class_spec,
        "method_a": a.method,
        "method_b": b.method,
        "vdim": a.vdim,
        "value_a": _rational_doc(a.value, job.expand),
        "value_b": _rational_doc(b.value, job.expand),
    }
    if job.samples:
        equal = _sampled_equal(a.value, b.value, job.n, job.samples, job.seed)
        doc["sampling"] = {"points": job.samples, "seed": job.seed}
    else:
        equal = rational_equal(a.value, b.value)
    doc["equal"] = equal
    return doc, 0 if equal else 2


def cmd_verify(job: JobSpec) -> tuple:
    names = list(job.checks) if job.checks else None
    unknown = set(names or ()) - set(CHECKS)
    if unknown:
        raise ParseError(f"unknown checks: {sorted(unknown)};"
                         f" available: {', '.join(CHECKS)}")
    results = run_checks(names, seed=job.seed)
    rows = [{"name": r.name, "ok": r.ok, "detail": r.detail} for r in results]
    all_ok = all(r.ok for r in results)
    doc = {
        "command": "verify",
        "seed": job.seed,
        "results": rows,
        "all_ok": all_ok,
    }
    return doc, 0 if all_ok else 2


_COMMANDS = {
    "enumerate": cmd_enumerate,
    "classify": cmd_enumerate,
    "contribution": cmd_contribution,
    "integrate": cmd_integrate,
    "compare": cmd_compare,
    "verify": cmd_verify,
}


def run(job: JobSpec) -> tuple:
    """Execute a job; returns (JSON document, exit code)."""
    job.validate()
    token = point_budget.set(job.max_points)
    try:
        return _COMMANDS[job.command](job)
    finally:
        point_budget.reset(token)


# ---------------------------------------------------------------------------
# argument handling

def _parse_dims(text: str) -> tuple:
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise ParseError(f"dims must be comma-separated integers: {text!r}")


_CONFIG_KEYS = {"n", "dims", "space", "method", "class", "q", "cy", "expand",
                "seed", "samples", "checks", "max_points"}


def _load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ParseError(f"cannot read config {path}: {exc}")
    if not isinstance(doc, dict):
        raise ParseError("config must be a JSON object")
    unknown = set(doc) - _CONFIG_KEYS
    if unknown:
        raise ParseError(f"unknown config keys: {sorted(unknown)}")
    return doc


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="nahilb",
        description="Exact equivariant integrals on nested Hilbert schemes"
                    " of points in affine space.")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, with_class=True):
        sp.add_argument("-n", type=int, default=None,
                        help="number of torus weights (ambient dimension)")
        sp.add_argument("--dims", type=str, default=None,
                        help="layer sizes, comma separated, e.g. 1,2")
        if with_class:
            sp.add_argument("--class", dest="class_spec", default=None,
                            help="integrand, e.g. 'c2^dual^3' or 'eta1*eta2'")
            sp.add_argument("--q", type=int, default=None,
                            help="number of twisting roots theta_i")
            sp.add_argument("--expand", action="store_true", default=None,
                            help="include fully expanded polynomials")
        sp.add_argument("--config", default=None,
                        help="JSON file with default job fields")
        sp.add_argument("--max-points", type=int, default=None,
                        help="enumeration budget override (capped at 14)")
        sp.add_argument("--output", default=None,
                        help="write the JSON document here instead of stdout")

    sp = sub.add_parser("enumerate", help="list the fixed chains")
    common(sp, with_class=False)
    sp.add_argument("--classify", action="store_true", default=None,
                    help="add admissibility and fiber flags per chain")

    sp = sub.add_parser("classify", help="enumerate with classification flags")
    common(sp, with_class=False)

    sp = sub.add_parser("contribution", help="per-chain localization terms")
    common(sp)
    sp.add_argument("--space", choices=("nhilb", "nilfil"), default=None)

    sp = sub.add_parser("integrate", help="equivariant virtual integral")
    common(sp)
    sp.add_argument("--space", choices=("nhilb", "nilfil"), default=None)
    sp.add_argument("--method", choices=("localization", "residue"),
                    default=None)
    sp.add_argument("--cy", action="store_true", default=None,
                    help="also restrict to the trace-zero subtorus")

    sp = sub.add_parser("compare", help="run both methods and compare")
    common(sp)
    sp.add_argument("--space", choices=("nhilb", "nilfil"), default=None)
    sp.add_argument("--samples", type=int, default=None,
                    help="compare at this many seeded points instead of"
                         " exactly")
    sp.add_argument("--seed", type=int, default=None)

    sp = sub.add_parser("verify", help="run the verification suite")
    sp.add_argument("--checks", default=None,
                    help=f"comma-separated subset of: {', '.join(CHECKS)}")
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--config", default=None)
    sp.add_argument("--max-points", type=int, default=None)
    sp.add_argument("--output", default=None)
    return p


def _job_from_args(args: argparse.Namespace) -> JobSpec:
    config = _load_config(args.config) if getattr(args, "config", None) else {}

    def pick(name, config_key=None, default=None):
        cli = getattr(args, name, None)
        if cli is not None:
            return cli
        key = config_key or name
        if key in config:
            return config[key]
        return default

    max_points = pick("max_points")
    dims = pick("dims", default=())
    if isinstance(dims, str):
        dims = _parse_dims(dims)
    else:
        dims = tuple(int(x) for x in dims)

    checks = pick("checks", default=())
    if isinstance(checks, str):
        checks = tuple(x for x in checks.split(",") if x)
    else:
        checks = tuple(checks)

    job = JobSpec(
        command=args.command,
        n=int(pick("n", default=0) or 0),
        dims=dims,
        space=pick("space", default="nhilb"),
        method=pick("method", default="localization"),
        class_spec=str(pick("class_spec", "class", default="1")),
        q=int(pick("q", default=0) or 0),
        cy=bool(pick("cy", default=False)),
        expand=bool(pick("expand", default=False)),
        classify=bool(getattr(args, "classify", None)
                      or args.command == "classify"),
        seed=int(pick("seed", default=DEFAULT_SEED)),
        samples=int(pick("samples", default=0) or 0),
        checks=checks,
        output=getattr(args, "output", None),
        max_points=None if max_points is None else int(max_points),
    )
    if job.command == "compare" and getattr(args, "space", None) is None \
            and "space" not in config:
        job.space = "nilfil"
    return job


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        job = _job_from_args(args)
        doc, code = run(job)
    except (NahilbError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    if job.output:
        with open(job.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
