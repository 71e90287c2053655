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
import os
import re
import sys
from dataclasses import dataclass

from .algebra import (MAX_EXPONENT, FactoredRational, SparsePolynomial,
                      rational_equal)
from .errors import IndexOutOfRange, NahilbError, ParseError
from .localization import (
    TautClass,
    check_layer_symmetry,
    chern_taut,
    contribution,
    cy_restrict,
    integrate_localization,
)
from .partitions import (
    canonical_enumeration,
    enumerate_nested,
    in_flag_fiber,
    is_admissible,
    is_nilfil,
    point_budget,
)
from .residues import integrate_residue_nilfil
from .serialize import integral_result_to_json, nested_to_json, value_to_json
from .verify import CHECKS, DEFAULT_SEED, run_checks
from .weights import fixed_ranks


@dataclass
class JobSpec:
    """One batch job, fully determined by its fields; their defaults are
    the defaults of every flag and config key."""

    command: str
    n: int = 0
    dims: tuple = ()
    space: str = "nhilb"
    method: str = "localization"
    class_spec: str = "1"
    q: int = 0
    cy: bool = False
    expand: bool = False
    seed: int = DEFAULT_SEED
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

MAX_NESTING = 100  # parenthesis depth of a class spec, five frames a level

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
            try:
                out.append(("int", int(m.group("int"))))
            except ValueError:  # past Python's int string conversion limit
                raise ParseError(
                    f"integer literal at position {m.start('int')} is too long")
        elif m.group("word"):
            out.append(("word", m.group("word")))
        elif m.group("op"):
            out.append(("op", m.group("op")))
        pos = m.end()
    return out


class _ClassParser:
    """Recursive descent over sums, products, powers and `^dual`.

    `dual` is a postfix marker on a Chern atom and must come before any
    integer power, as in c2^dual^3.  Powers above MAX_EXPONENT, powers of
    a constant c past MAX_EXPONENT bits (exponent * c.bit_length()),
    parentheses nested deeper than MAX_NESTING and constants with more
    decimal digits than str() may write are refused.
    """

    def __init__(self, tokens: list, q: int, d: int):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0
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

    @staticmethod
    def folded(value: SparsePolynomial) -> SparsePolynomial:
        """value, refusing a constant with more decimal digits than str()
        may write (sys.get_int_max_str_digits(), 0 for no limit)."""
        limit = sys.get_int_max_str_digits()
        c = abs(value.terms.get(0, 0)) if len(value.terms) == 1 else 0
        if limit and c.bit_length() > 3 * limit and c >= 10 ** limit:
            raise ParseError(f"a constant has more than {limit} decimal "
                             f"digits, the limit for printing an int")
        return value

    def expr(self) -> SparsePolynomial:
        value = self.term()
        while self.peek() in (("op", "+"), ("op", "-")):
            _, op = self.take()
            rhs = self.term()
            value = self.folded(value + rhs if op == "+" else value - rhs)
        return value

    def term(self) -> SparsePolynomial:
        value = self.signed()
        while self.peek() == ("op", "*"):
            self.take()
            value = self.folded(value * self.signed())
        return value

    def signed(self) -> SparsePolynomial:
        negate = False
        while self.peek() == ("op", "-"):
            self.take()
            negate = not negate
        value = self.power()
        return -value if negate else value

    def power(self) -> SparsePolynomial:
        chern = self.atom()
        dual = False
        exponent = None  # x^a^b is x^(a*b)
        while self.peek() == ("op", "^"):
            self.take()
            tok = self.take()
            if tok == ("word", "dual"):
                if not isinstance(chern, int) or dual or exponent is not None:
                    raise ParseError("dual only applies directly to a c_k")
                dual = True
            elif tok[0] == "int":
                exponent = tok[1] * (1 if exponent is None else exponent)
                if exponent > MAX_EXPONENT:
                    raise ParseError(
                        f"exponent {exponent} exceeds {MAX_EXPONENT}")
            else:
                raise ParseError(f"bad exponent {tok[1]!r}")
        if isinstance(chern, int):
            value = chern_taut(chern, self.q, self.d, dual=dual).poly
        else:
            value = chern
        if exponent is None:
            return value
        if value.terms.keys() == {0}:
            bits = value.terms[0].bit_length()
            if exponent * bits > MAX_EXPONENT:
                raise ParseError(f"power {exponent} of a {bits}-bit constant"
                                 f" exceeds {MAX_EXPONENT} bits")
        return self.folded(value ** exponent)

    def atom(self):
        tok = self.take()
        if tok[0] == "int":
            return SparsePolynomial.constant(tok[1])
        if tok == ("op", "("):
            self.depth += 1
            if self.depth > MAX_NESTING:
                raise ParseError(f"parentheses nest deeper than {MAX_NESTING}")
            value = self.expr()
            self.expect_op(")")
            self.depth -= 1
            return value
        if tok[0] == "word":
            return self.named(tok[1])
        raise ParseError(f"unexpected {tok[1]!r}")

    def named(self, word: str):
        m = re.fullmatch(r"c(\d+)", word)
        if m:
            return int(m.group(1))
        m = re.fullmatch(r"(theta|eta)(\d+)", word)
        if m:
            ns, i = m.group(1), int(m.group(2))
            top = self.q if ns == "theta" else self.d - 1
            if not 1 <= i <= top:
                raise IndexOutOfRange(f"{ns}_{i} outside 1..{top}")
            return SparsePolynomial.variable((ns, i))
        raise ParseError(f"unknown name {word!r}")


def parse_class_spec(text: str, q: int, d: int) -> TautClass:
    """Parse sums, products and powers of c_k, c_k^dual, theta_i, eta_j,
    and integer literals into a validated integrand."""
    poly = _ClassParser(_tokenize(text), q, d).parse()
    return TautClass(poly, q, d)


# ---------------------------------------------------------------------------
# commands

def _rational_doc(v: FactoredRational, expand: bool) -> dict:
    return {**value_to_json(v, expand), "display": str(v)}


def cmd_enumerate(job: JobSpec) -> tuple:
    chains = enumerate_nested(job.n, job.dims)
    rows = []
    for np_ in chains:
        row = {"chain": nested_to_json(np_)}
        if job.command == "classify":
            # nilfil needs pointed dims and the identity fiber needs
            # d - 1 <= n; where they do not apply the row says null
            nil = is_nilfil(np_) if np_.dims[0] == 1 else None
            fiber = nil and (in_flag_fiber(np_) if np_.d - 1 <= np_.n
                             else None)
            wt, wb = fixed_ranks(canonical_enumeration(np_))
            row["admissible"] = is_admissible(np_)
            row["nilfil"] = nil
            row["identity_fiber"] = fiber
            row["fixed_ranks"] = [wt, wb]
        rows.append(row)
    doc = {
        "command": job.command,
        "n": job.n,
        "dims": list(job.dims),
        "count": len(rows),
        "chains": rows,
    }
    return doc, 0


def cmd_contribution(job: JobSpec) -> tuple:
    d = sum(job.dims)
    P = parse_class_spec(job.class_spec, job.q, d)
    check_layer_symmetry(P, job.dims)
    chains = enumerate_nested(job.n, job.dims)
    if job.space == "nilfil":
        chains = [c for c in chains if is_nilfil(c)]
    rows = []
    for np_ in chains:
        e = canonical_enumeration(np_)
        v = contribution(e, job.space, P)
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
    equal = rational_equal(a.value, b.value)
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
        "equal": equal,
    }
    return doc, 0 if equal else 2


def cmd_verify(job: JobSpec) -> tuple:
    results = run_checks(job.checks or None, seed=job.seed)
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


# every job field a flag or the config may set: (config key, JSON types);
# a field neither sets keeps its JobSpec default
_FIELDS = {
    "n": ("n", (int,)),
    "dims": ("dims", (str, list)),
    "space": ("space", (str,)),
    "method": ("method", (str,)),
    "class_spec": ("class", (str,)),
    "q": ("q", (int,)),
    "cy": ("cy", (bool,)),
    "expand": ("expand", (bool,)),
    "seed": ("seed", (int,)),
    "checks": ("checks", (str, list)),
    "max_points": ("max_points", (int,)),
}


def _load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ParseError(f"cannot read config {path}: {exc}")
    if not isinstance(doc, dict):
        raise ParseError("config must be a JSON object")
    unknown = set(doc) - {key for key, _ in _FIELDS.values()}
    if unknown:
        raise ParseError(f"unknown config keys: {sorted(unknown)}")
    return doc


class _ArgumentParser(argparse.ArgumentParser):
    """argparse raising a ParseError (exit 1) where it would exit 2,
    which is the code of a compare or verify run that found a mismatch."""

    def error(self, message):
        raise ParseError(f"{self.prog}: {message}")


def _build_parser() -> argparse.ArgumentParser:
    p = _ArgumentParser(
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
                        help="point budget override (capped at 14)")
        sp.add_argument("--output", default=None,
                        help="write the JSON document here instead of stdout")

    sp = sub.add_parser("enumerate", help="list the fixed chains")
    common(sp, with_class=False)

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

    sp = sub.add_parser("verify", help="run the verification suite")
    sp.add_argument("--checks", default=None,
                    help=f"comma-separated subset of: {', '.join(CHECKS)}")
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--config", default=None)
    sp.add_argument("--max-points", type=int, default=None)
    sp.add_argument("--output", default=None)
    return p


def _typed(key: str, value, kinds: tuple):
    """value when it is one of the JSON types of its flag, else ParseError;
    a bool is not an int."""
    if isinstance(value, kinds) and (bool in kinds
                                     or not isinstance(value, bool)):
        return value
    names = " or ".join(k.__name__ for k in kinds)
    raise ParseError(f"config {key!r} must be {names}, got {value!r}")


def _job_from_args(args: argparse.Namespace) -> JobSpec:
    config = _load_config(args.config) if args.config else {}
    fields = {}
    for name, (key, kinds) in _FIELDS.items():
        value = getattr(args, name, None)
        if value is None and key in config:
            value = _typed(key, config[key], kinds)
        if value is not None:
            fields[name] = value

    dims = fields.get("dims")
    if isinstance(dims, str):
        fields["dims"] = _parse_dims(dims)
    elif dims is not None:
        fields["dims"] = tuple(_typed("dims", x, (int,)) for x in dims)

    checks = fields.get("checks")
    if isinstance(checks, str):
        fields["checks"] = tuple(x for x in checks.split(",") if x)
    elif checks is not None:
        fields["checks"] = tuple(_typed("checks", x, (str,)) for x in checks)

    if args.command == "compare":
        fields.setdefault("space", "nilfil")
    return JobSpec(command=args.command, output=args.output, **fields)


_FLUSH_AT = 4096  # fragments held before they are joined and written


def write_json(doc, write) -> None:
    """Pass write() the text of json.dumps(doc, sort_keys=True, indent=2)
    + "\n" in pieces, which json.dumps would encode in pure Python.  Only
    str, int, bool, None, list, tuple and dict with str keys are accepted;
    anything else raises TypeError, a key through quote."""
    parts: list = []
    append = parts.append
    quote = json.encoder.encode_basestring_ascii

    def item(o, nl: str) -> None:
        t = type(o)
        if t is str:
            append(quote(o))
        elif t is int:
            append(int.__repr__(o))
        elif t is bool or o is None:
            append("null" if o is None else "true" if o else "false")
        elif t is dict or t is list or t is tuple:
            ends = "{}" if t is dict else "[]"
            inner = nl + "  "
            sep = ends[0] + inner
            if t is dict:
                for k in sorted(o):
                    append(f"{sep}{quote(k)}: ")
                    item(o[k], inner)
                    sep = "," + inner
            else:
                for v in o:
                    append(sep)
                    item(v, inner)
                    sep = "," + inner
            append(nl + ends[1] if o else ends)
            if len(parts) >= _FLUSH_AT:
                write("".join(parts))
                parts.clear()
        else:
            raise TypeError(f"{t.__name__} is not a document type")

    item(doc, "\n")
    write("".join(parts) + "\n")


def _write_output(doc, path: str) -> None:
    """Write the document to path, or raise ParseError, removing the file
    when a write fails after it was opened."""
    try:
        fh = open(path, "w", encoding="utf-8")
        try:
            with fh:
                write_json(doc, fh.write)
        except OSError:
            os.remove(path)
            raise
    except OSError as exc:
        raise ParseError(f"cannot write output {path}: {exc}")


def main(argv=None) -> int:
    try:
        job = _job_from_args(_build_parser().parse_args(argv))
        doc, code = run(job)
        if job.output:
            _write_output(doc, job.output)
        else:
            write_json(doc, sys.stdout.write)
    except (NahilbError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
