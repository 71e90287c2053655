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
import functools
import json
import os
import re
import sys
from collections import namedtuple
from math import comb

from .algebra import (MAX_EXPONENT, FactoredRational, SparsePolynomial,
                      rational_equal)
from .errors import IndexOutOfRange, NahilbError, ParseError, TooManyPoints
from .localization import (
    MAX_Q,
    SPACES,
    IntegralResult,
    TautClass,
    _net_rank,
    check_layer_symmetry,
    chern_poly,
    cy_restrict,
    gated_terms,
    integrate_localization,
)
from .partitions import (
    _shape,
    canonical_enumeration,
    check_point_budget,
    enumerate_nested,
    has_nilfil_chain,
    in_flag_fiber,
    is_admissible,
    is_nilfil,
    point_budget,
)
from .residues import integrate_residue_nilfil
from .serialize import (SharedDoc, SharedList, Terms,
                        integral_result_to_json, nested_to_json, render_value)
from .weights import fixed_ranks


class JobSpec(namedtuple(
        "JobSpec", "command n dims space method class_spec q cy expand seed"
        " checks output max_points",
        # a seed of None means verify.DEFAULT_SEED
        defaults=(0, (), "nhilb", "localization", "1", 0, False, False, None,
                  (), None, None))):
    """One batch job, fully determined by its fields; their defaults are
    the defaults of every flag and config key."""

    __slots__ = ()

    def validate(self) -> None:
        if self.command not in _COMMANDS:
            raise ParseError(f"unknown command {self.command!r}")
        if _COMMANDS[self.command].chains:
            if self.n < 1:
                raise ParseError(f"n must be >= 1, got {self.n}")
            if not self.dims or any(x < 0 for x in self.dims):
                raise ParseError(f"dims must be nonempty and >= 0: {self.dims}")
        if self.space not in SPACES:
            raise ParseError(f"unknown space {self.space!r}")
        if self.method not in ("localization", "residue"):
            raise ParseError(f"unknown method {self.method!r}")
        if self.q < 0:
            raise ParseError(f"q must be >= 0, got {self.q}")


# ---------------------------------------------------------------------------
# class-spec parser

MAX_NESTING = 100  # parenthesis depth of a class spec, five frames a level
MAX_PRODUCT_WORK = 1 << 20  # term products of a class spec, all told

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
    integer power, as in c2^dual^3.  Exponents above MAX_EXPONENT,
    parentheses nested deeper than MAX_NESTING and constants with more
    decimal digits than str() may write are refused.  So is a spec whose
    products would take more than MAX_PRODUCT_WORK term products in all.
    Each product, a `*` or a square-and-multiply step of a power, is
    charged just before it runs (in product), and a Chern atom c_k its
    roots times the terms of e_1..e_(k-1) before it is built.  Either is
    refused already when TautClass's theta symmetry check of a bound on
    its terms would pass the total; parse_class_spec charges that check
    of the parsed spec at the end.
    """

    def __init__(self, tokens: list, q: int, d: int):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0
        self.q = q
        self.d = d
        self.work = 0  # term products charged so far
        # term products a term of TautClass's theta symmetry check: q - 1
        # swaps at some 8 a term; none when TautClass refuses q or d first
        self.check_rate = 8 * (q - 1) if 1 < q <= MAX_Q and d >= 1 else 0

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

    def charge(self, work: int, what: str, terms: int = 0) -> None:
        """Add work term products to the spec's total, refusing what
        would take them when the total, with TautClass's theta symmetry
        check of a polynomial of that many terms still to come, passes
        MAX_PRODUCT_WORK."""
        ahead = self.check_rate * terms
        self.work += work
        if self.work + ahead > MAX_PRODUCT_WORK:
            raise ParseError(
                f"{what} would take about {work + ahead} term products, past "
                f"the {MAX_PRODUCT_WORK} a class spec may take")

    def product(self, a: SparsePolynomial, b: SparsePolynomial,
                what: str) -> SparsePolynomial:
        """a * b, folded.  Charged first len(a) * len(b) term products
        times the 64-bit limbs of a's and b's largest coefficients, and
        ahead the check of at most the smaller of the pairs and the
        monomials of its degree in its variables."""
        pairs = work = len(a.terms) * len(b.terms)
        for p in (a, b):
            work *= (max(map(abs, p.terms.values()), default=0).bit_length()
                     + 63) // 64
        terms = 0
        if self.check_rate:
            degree = max(a.degrees(), default=0) + max(b.degrees(), default=0)
            k = len(a.variables() | b.variables())
            terms = min(pairs, comb(degree + k, k))
        self.charge(work, what, terms)
        return self.folded(a * b)

    def term(self) -> SparsePolynomial:
        value = self.signed()
        while self.peek() == ("op", "*"):
            self.take()
            rhs = self.signed()
            value = self.product(value, rhs, "a product")
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
            q, d, k = self.q, self.d, chern
            roots, m = q * d or d, q + d - 1  # c_k = e_k(roots), m variables
            if q <= MAX_Q and 0 < k <= roots:  # else chern_poly refuses it
                # e_1..e_k take each root in turn; the spec's theta check
                # (parse_class_spec) charges e_k's terms at the end
                size = [min(comb(roots, t), comb(t + m, t))
                        for t in range(k + 1)]
                self.charge(roots * sum(size[:k]), f"c{k}", size[k])
            value = chern_poly(k, q, d, dual)
        else:
            value = chern
        if exponent is None:
            return value
        # SparsePolynomial.__pow__'s steps, each a charged product
        result, what = SparsePolynomial.one(), f"power {exponent}"
        while exponent:
            if exponent & 1:
                result = self.product(result, value, what)
            if exponent > 1:
                value = self.product(value, value, what)
            exponent >>= 1
        return result

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
    and integer literals into a validated integrand.  The theta symmetry
    check TautClass makes of it is charged to the spec's work first."""
    parser = _ClassParser(_tokenize(text), q, d)
    poly = parser.parse()
    parser.charge(0, "the theta symmetry check", len(poly.terms))
    return TautClass(poly, q, d)


# ---------------------------------------------------------------------------
# commands

def cmd_enumerate(job: JobSpec) -> tuple:
    chains = enumerate_nested(job.n, job.dims)
    docs: dict = {}  # the job's chain table (serialize.nested_to_json)
    rows = []
    for np_ in chains:
        row = {"chain": nested_to_json(np_, docs)}
        if job.command == "classify":
            # nilfil needs pointed dims and the identity fiber needs
            # room for its flag; where they do not apply the row says null
            nil = is_nilfil(np_) if np_.dims[0] == 1 else None
            try:
                fiber = nil and in_flag_fiber(np_)
            except TooManyPoints:
                fiber = None
            wt, wb = fixed_ranks(canonical_enumeration(np_))
            row["admissible"] = is_admissible(np_)
            row["nilfil"] = nil
            row["identity_fiber"] = fiber
            row["fixed_ranks"] = [wt, wb]
        rows.append(row)
    return _header(job, count=len(rows), chains=rows), 0


def cmd_contribution(job: JobSpec) -> tuple:
    P = parse_class_spec(job.class_spec, job.q, sum(job.dims))
    # the job's tables of chain documents (serialize.nested_to_json) and
    # of rendered linear forms (serialize.render_rational)
    docs: dict = {}
    forms: dict = {}
    rows = [{"chain": nested_to_json(np_, docs),
             "value": render_value(v, job.expand, forms)}
            for np_, v in gated_terms(job.n, job.dims, P, job.space)]
    return _header(job, space=job.space, points=rows), 0


def _nilfil_vdim(job: JobSpec, P: TautClass, chains: bool) -> tuple:
    """(vdim, zero): the virtual dimension of a nilfil job on pointed
    dims, which the engines then take instead of computing it again, and
    whether its integral is provably 0; (None, False) for any other job,
    which the engines run or refuse as before.

    The punctual locus is proper, so the integral is a polynomial of
    degree deg P - vdim: a P of degree below vdim in every part gives 0.
    With chains set, so does a shape with no nilfil fixed chain (Borel's
    fixed-point theorem; has_nilfil_chain).  The localization engine
    finds that out itself at no cost, the residue engine does not.

    A 0 answer passes the engines' checks first: run has checked the
    point budget and the class parser the q cap and the eta_j bound;
    here come the n cap and, for pointed dims, the layer symmetry.
    Unpointed dims go to the engines, which refuse them in their order."""
    if job.space != "nilfil":
        return None, False
    dims = _shape(job.n, job.dims)
    if dims[0] != 1:
        return None, False
    vdim = _net_rank(job.n, dims, "nilfil")
    if (all(deg < vdim for deg in P.poly.degrees())
            or chains and not has_nilfil_chain(job.n, dims)):
        check_layer_symmetry(P, dims)
        return vdim, True
    return vdim, False


def _zero_result(vdim: int, method: str) -> IntegralResult:
    return IntegralResult(FactoredRational.zero(), vdim, method, "nilfil")


def cmd_integrate(job: JobSpec) -> tuple:
    P = parse_class_spec(job.class_spec, job.q, sum(job.dims))
    if job.method == "residue" and job.space != "nilfil":
        raise ParseError("the residue method computes nilfil integrals;"
                         " pass --space nilfil")
    vdim, zero = _nilfil_vdim(job, P, job.method == "residue")
    if zero:
        res = _zero_result(vdim, job.method)
    elif job.method == "localization":
        res = integrate_localization(job.n, job.dims, job.space, P, vdim)
    else:
        res = integrate_residue_nilfil(job.n, job.dims, P, vdim)
    forms: dict = {}
    doc = _header(job, **integral_result_to_json(res, job.expand, forms))
    if job.cy:
        doc["cy_value"] = render_value(cy_restrict(res.value, job.n),
                                       job.expand, forms)
    return doc, 0


def cmd_compare(job: JobSpec) -> tuple:
    if job.space != "nilfil":
        raise ParseError("compare runs both methods, so it needs a nilfil"
                         " integral; pass --space nilfil")
    P = parse_class_spec(job.class_spec, job.q, sum(job.dims))
    vdim, zero = _nilfil_vdim(job, P, True)
    if zero:
        a, b = _zero_result(vdim, "localization"), _zero_result(vdim, "residue")
    else:
        a = integrate_localization(job.n, job.dims, job.space, P, vdim)
        b = integrate_residue_nilfil(job.n, job.dims, P, vdim)
    equal = rational_equal(a.value, b.value)
    forms: dict = {}
    doc = _header(job, method_a=a.method, method_b=b.method, vdim=a.vdim,
                  value_a=render_value(a.value, job.expand, forms),
                  value_b=render_value(b.value, job.expand, forms),
                  equal=equal)
    return doc, 0 if equal else 2


def cmd_verify(job: JobSpec) -> tuple:
    from .verify import DEFAULT_SEED, run_checks  # only verify jobs load it
    seed = DEFAULT_SEED if job.seed is None else job.seed
    results = run_checks(job.checks or None, seed=seed)
    rows = [{"name": r.name, "ok": r.ok, "detail": r.detail} for r in results]
    all_ok = all(r.ok for r in results)
    doc = {"command": "verify", "seed": seed, "results": rows,
           "all_ok": all_ok}
    return doc, 0 if all_ok else 2


# each command: its function, its --help summary, whether it takes -n
# and --dims (a chain command) and whether it takes --class and its flags
_Command = namedtuple("_Command", "run summary chains with_class")
_COMMANDS = {
    "enumerate": _Command(cmd_enumerate, "list the fixed chains", True, False),
    "classify": _Command(cmd_enumerate, "enumerate with classification flags",
                         True, False),
    "contribution": _Command(cmd_contribution, "per-chain localization terms",
                             True, True),
    "integrate": _Command(cmd_integrate, "equivariant virtual integral",
                          True, True),
    "compare": _Command(cmd_compare, "run both methods and compare",
                        True, True),
    "verify": _Command(cmd_verify, "run the verification suite",
                       False, False),
}


def _header(job: JobSpec, **fields) -> dict:
    """A chain command's document: command, n, dims and, for a command
    that takes one, class, then fields."""
    doc = {"command": job.command, "n": job.n, "dims": list(job.dims)}
    if _COMMANDS[job.command].with_class:
        doc["class"] = job.class_spec
    doc.update(fields)
    return doc


def run(job: JobSpec) -> tuple:
    """Execute a job; returns (JSON document, exit code).  A chain job
    past the point budget is refused before its class is parsed; the
    budget applies to chain jobs only, as verify's checks have fixed
    sizes."""
    job.validate()
    command = _COMMANDS[job.command]
    if not command.chains:
        return command.run(job)
    token = point_budget.set(job.max_points)
    try:
        check_point_budget(job.dims)
        return command.run(job)
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


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built on first use: it holds no per-job state."""
    p = _ArgumentParser(
        prog="nahilb",
        description="Exact equivariant integrals on nested Hilbert schemes"
                    " of points in affine space.")
    sub = p.add_subparsers(dest="command", required=True)
    for name, (_, summary, chains, with_class) in _COMMANDS.items():
        sp = sub.add_parser(name, help=summary)
        if chains:
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
            sp.add_argument("--space", choices=SPACES, default=None)
        sp.add_argument("--config", default=None,
                        help="JSON file with default job fields")
        sp.add_argument("--max-points", type=int, default=None,
                        help="point budget override (capped at 14)")
        sp.add_argument("--output", default=None,
                        help="write the JSON document here instead of stdout")
    sp = sub.choices["integrate"]  # the subparsers by name
    sp.add_argument("--method", choices=("localization", "residue"),
                    default=None)
    sp.add_argument("--cy", action="store_true", default=None,
                    help="also restrict to the trace-zero subtorus")
    sp = sub.choices["verify"]
    sp.add_argument("--checks", default=None,
                    help="comma-separated check names (default: all)")
    sp.add_argument("--seed", type=int, default=None)
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
    """Pass write() the text of json.dumps(doc, sort_keys=True, indent=2,
    default=lambda t: t.doc()) + "\n" in pieces, which json.dumps would
    encode in pure Python.  Only str, int, bool, None, list, tuple, dict
    with str keys, SharedDoc, SharedList and Terms are accepted; anything
    else raises TypeError, a key through quote.  A SharedDoc or
    SharedList is rendered once per indent (keyed by its id, as the
    document holds it until the call returns) and its text repeated; no
    flush falls inside that rendering, so it is one piece.  A Terms node
    is written a term at a time from its rows, with no dict per term."""
    parts: list = []
    append = parts.append
    quote = json.encoder.encode_basestring_ascii
    flush_at = _FLUSH_AT
    shared: dict = {}  # (id of a shared document, indent) -> its text

    def item(o, nl: str) -> None:
        nonlocal flush_at
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
            sep, comma = ends[0] + inner, "," + inner
            # str and int children are written here, with no call each
            if t is dict:
                for k in sorted(o):
                    v = o[k]
                    tv = type(v)
                    if tv is str:
                        append(f"{sep}{quote(k)}: {quote(v)}")
                    elif tv is int:
                        append(f"{sep}{quote(k)}: {int.__repr__(v)}")
                    else:
                        append(f"{sep}{quote(k)}: ")
                        item(v, inner)
                    sep = comma
            else:
                for v in o:
                    tv = type(v)
                    if tv is str:
                        append(sep + quote(v))
                    elif tv is int:
                        append(sep + int.__repr__(v))
                    else:
                        append(sep)
                        item(v, inner)
                    sep = comma
            append(nl + ends[1] if o else ends)
            if len(parts) >= flush_at:
                write("".join(parts))
                parts.clear()
        elif t is Terms:
            # one piece per term, straight from its row: the term's dict
            # at inner, its keys at keys, its exponents at deep
            inner = nl + "  "
            keys = inner + "  "
            deep = [f"{keys}  {name}: " for name in o.names]
            order = o.order
            head = f'{{{keys}"coeff": "'
            exps = f'",{keys}"exps": {{'
            close, bare = f"{keys}}}{inner}}}", f"}}{inner}}}"
            sep, comma = "[" + inner, "," + inner
            for c, es in o.rows:
                pairs = ",".join([f"{deep[j]}{es[j]}" for j in order
                                  if es[j]])
                append(f"{sep}{head}{c}{exps}{pairs}{close}" if pairs
                       else f"{sep}{head}{c}{exps}{bare}")
                sep = comma
                if len(parts) >= flush_at:
                    write("".join(parts))
                    parts.clear()
            append(nl + "]" if o.rows else "[]")
        elif t is SharedDoc or t is SharedList:
            key = (id(o), nl)
            text = shared.get(key)
            if text is None:
                start, held, flush_at = len(parts), flush_at, float("inf")
                item(dict(o) if t is SharedDoc else list(o), nl)
                flush_at = held
                text = shared[key] = "".join(parts[start:])
                del parts[start:]
            append(text)
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
    except BrokenPipeError:
        # the reader closed stdout; the flush at exit must not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
