"""Exact sparse multivariate arithmetic over the rationals.

Everything downstream (weight multisets, localization sums, iterated
residues) reduces to two value types defined here:

* ``SparsePolynomial``: a dict from packed monomials to exact rational
  coefficients (plain ints where integral, ``Fraction`` otherwise; the two
  mix and compare transparently).  A ``LinearForm`` is a hashable
  degree-one ``SparsePolynomial`` in variables drawn from the namespaces
  ``s`` (torus weights), ``theta`` (framing roots), ``eta`` (tautological
  placeholders) and ``z`` (residue variables).
* ``FactoredRational``: ``scalar * poly * prod_i L_i**e_i`` with primitive
  pairwise non-proportional linear factors ``L_i`` and integer exponents.
  Euler classes of weight multisets live here natively, so localization
  never expands a denominator.

Variables are plain tuples ``(namespace, index)``.  The total order on
variables is namespace rank (s < theta < eta < z) then index; monomial
comparisons are graded lexicographic with earlier variables dominating.
A monomial is one int with a fixed bit field per variable (see
``var_shift``), so multiplying monomials is an int addition.  The order
is decoded only where it is visible, in ``sorted_rows`` and
``leading`` (``_graded_rows``): they read once, from the OR of a
polynomial's keys, which fields it uses, and decode only those.  The
leading sign that ``extract_content`` needs is found without decoding
(``_leading_key``).
Printing goes through ``sorted_terms`` and the serializer through
``sorted_rows``, which decodes each variable once per polynomial.

Example::

    >>> s1, s2 = ("s", 1), ("s", 2)
    >>> p = SparsePolynomial.variable(s1) + SparsePolynomial.variable(s2)
    >>> q = p * p
    >>> q.homogeneous_degree()
    2
    >>> q.evaluate({s1: Fraction(1), s2: Fraction(2)})
    Fraction(9, 1)

No polynomial gcd is ever computed: cancellation happens only by exact
division by linear factors, which is complete for the factored
denominators this engine produces.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from itertools import combinations, groupby
from math import comb, gcd, lcm, prod
from operator import or_

from .errors import (DegenerateRestriction, DivisionByZero, ExponentOverflow,
                     MissingVariable, NotLinear, NotPolynomial,
                     SizeGuardExceeded)

NAMESPACES = ("s", "theta", "eta", "z")
_NS_RANK = {ns: i for i, ns in enumerate(NAMESPACES)}

Var = tuple  # (namespace, index), index >= 1


def _num(c):
    """Keep coefficients as plain ints whenever they are integral.

    int and Fraction mix transparently in arithmetic and compare (and
    hash) equal, and integer coefficients dominate in practice, so this
    skips Fraction overhead in the hot products without changing any
    observable value.
    """
    if type(c) is int:
        return c
    if c.denominator == 1:
        return c.numerator
    return c


def var_key(v: Var) -> tuple[int, int]:
    """Total order on variables: namespace rank, then index."""
    return (_NS_RANK[v[0]], v[1])


def var_name(v: Var) -> str:
    return f"{v[0]}{v[1]}"


def parse_var(name: str) -> Var:
    for ns in NAMESPACES:
        if name.startswith(ns) and name[len(ns):].isdigit():
            return (ns, int(name[len(ns):]))
    raise ValueError(f"not a variable name: {name!r}")


def mono_text(pairs) -> str:
    """Display text of a monomial from its (variable name, exponent)
    pairs; a pair of exponent 0 is left out."""
    return "*".join([f"{name}^{e}" if e > 1 else name
                     for name, e in pairs if e])


def term_text(mono: str, coeff: str) -> str:
    """Display text of one term of a polynomial, from the texts of its
    monomial and its coefficient."""
    if not mono:
        return coeff
    if coeff == "1":
        return mono
    return "-" + mono if coeff == "-1" else f"{coeff}*{mono}"


def sum_text(terms: list) -> str:
    """Display text of a polynomial from its terms' texts, leading first."""
    return " + ".join(terms).replace("+ -", "- ") if terms else "0"


def rational_text(r: "FactoredRational", poly: str, forms: list) -> str:
    """Display text of r from the texts of its polynomial part and of
    its forms, in the order of r.factors: str(r) and the command line's
    one-pass render (serialize.render_rational) both write it here."""
    if r.is_zero():
        return "0"
    num = [f"({r.scalar})"] if r.scalar != 1 else []
    if not r.poly.is_one() or not num and not r.factors:
        num.append(f"({poly})")
    den = []
    for text, (_, exp) in zip(forms, r.factors):
        e = abs(exp)
        (num if exp > 0 else den).append(
            f"({text})" + (f"^{e}" if e > 1 else ""))
    out = "*".join(num) if num else "1"
    if den:
        out += " / " + "*".join(den)
    return out


# A monomial is a nonnegative int holding one FIELD_BITS-bit exponent field
# per variable.  The fields run in three interleaved lanes, s_i in lane 0,
# z_i in lane 1, and theta_i and eta_i alternating in lane 2, so the s- and
# z-polynomials of the hot loops stay short ints and no index is bounded.
# The constant monomial is 0.  Stored exponents stay at most MAX_EXPONENT,
# one bit short of the field, so adding two monomials never carries into
# the next field; a result that reaches the top bit raises ExponentOverflow.

FIELD_BITS = 16
FIELD_MASK = (1 << FIELD_BITS) - 1
MAX_EXPONENT = FIELD_MASK >> 1
_GUARD_SPAN = 64 * FIELD_BITS
_GUARDS = sum((MAX_EXPONENT + 1) << (FIELD_BITS * i) for i in range(64))
# namespace -> (lane, stride, offset); (ns, i) owns field
# lane + 3 * (stride * (i - 1) + offset)
_LANES = {"s": (0, 1, 0), "z": (1, 1, 0), "theta": (2, 2, 0), "eta": (2, 2, 1)}


def var_shift(v: Var) -> int:
    """Bit offset of the exponent field of v in a packed monomial."""
    lane, stride, offset = _LANES[v[0]]
    if v[1] < 1:
        raise ValueError(f"variable index must be positive: {v}")
    return FIELD_BITS * (lane + 3 * (stride * (v[1] - 1) + offset))


def _refuse_carry(monomials) -> None:
    """Raise ExponentOverflow when any of the packed monomials has an
    exponent past MAX_EXPONENT."""
    acc = reduce(or_, monomials, 0)
    while acc:
        if acc & _GUARDS:
            raise ExponentOverflow(
                f"an exponent exceeds {MAX_EXPONENT}, the packed field limit")
        acc >>= _GUARD_SPAN


def _pack(mono) -> int:
    """Packed monomial of (var, exponent) pairs in any order; a repeated
    variable adds its exponents."""
    key = 0
    for v, e in mono:
        sh = var_shift(v)
        total = ((key >> sh) & FIELD_MASK) + e
        if total < 0:
            raise ValueError(f"negative exponent of {var_name(v)}")
        if total > MAX_EXPONENT:
            raise ExponentOverflow(
                f"exponent {total} of {var_name(v)} exceeds {MAX_EXPONENT}")
        key += e << sh
    return key


def _fields(m: int) -> list:
    """(namespace rank, index, exponent) of each variable of a packed
    monomial, in variable order."""
    out = []
    slot = 0
    while m:
        e = m & FIELD_MASK
        if e:
            j, lane = divmod(slot, 3)
            out.append((0, j + 1, e) if lane == 0 else (3, j + 1, e)
                       if lane == 1 else (1 + j % 2, j // 2 + 1, e))
        m >>= FIELD_BITS
        slot += 1
    out.sort()
    return out


def _unpack(m: int) -> tuple:
    """(var, exponent) pairs of a packed monomial, sorted by var_key."""
    return tuple(((NAMESPACES[r], i), e) for r, i, e in _fields(m))


def _mono_degree(m: int) -> int:
    d = 0
    while m:
        d += m & FIELD_MASK
        m >>= FIELD_BITS
    return d


def _graded_rows(terms: dict) -> tuple:
    """The variables that the packed monomials of terms use, in variable
    order, and a row (degree, exponents of those variables, m) per
    monomial m.  The fields come once from the OR of the keys, and only
    they are decoded; descending rows list the monomials in descending
    graded-lex order, leading term first."""
    names = [(NAMESPACES[r], i) for r, i, _ in _fields(reduce(or_, terms, 0))]
    shifts = [var_shift(v) for v in names]
    rows = []
    for m in terms:
        es = [(m >> sh) & FIELD_MASK for sh in shifts]
        rows.append((sum(es), es, m))
    return names, rows


def _leading_key(terms: dict) -> int:
    """The packed monomial of the leading term of nonempty terms, with
    no term decoded: the top degree from m % FIELD_MASK under the guard
    of degrees(), then among the terms of that degree the largest
    exponent of each variable in turn, in variable order, until one term
    is left."""
    if _mono_degree(reduce(or_, terms)) >= FIELD_MASK:
        return max(_graded_rows(terms)[1])[2]
    top = max(m % FIELD_MASK for m in terms)
    tied = [m for m in terms if m % FIELD_MASK == top]
    for r, i, _ in _fields(reduce(or_, tied)):
        if len(tied) == 1:
            break
        sh = var_shift((NAMESPACES[r], i))
        e = max((m >> sh) & FIELD_MASK for m in tied)
        tied = [m for m in tied if (m >> sh) & FIELD_MASK == e]
    return tied[0]


def add_products(out: dict, terms: dict, rows) -> None:
    """Add into out the products of packed terms with each (monomial,
    coefficient) row, with no carry check; the rows drive the outer
    loop, so the shorter factor goes there."""
    get = out.get
    for pv, cf in rows:
        for m, c in terms.items():
            key = m + pv
            nc = get(key, 0) + c * cf
            if nc:
                out[key] = nc
            elif key in out:
                del out[key]


def mul_packed(terms: dict, rows: dict) -> dict:
    """Product of packed terms; rows, which must be nonempty, drives the
    outer loop, so the shorter factor goes there."""
    # the first row of products cannot collide with itself
    items = iter(rows.items())
    pv, cf = next(items)
    out = {m + pv: c * cf for m, c in terms.items()}
    if len(rows) > 1:
        add_products(out, terms, items)
    _refuse_carry(out)
    return out


class SparsePolynomial:
    """Polynomial with exact rational coefficients, keyed by packed
    monomials."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict | None = None):
        """Canonical constructor from {((var, e), ...): coefficient}; the
        pairs may come in any order and equal monomials are merged."""
        out: dict = {}
        for mono, c in (terms or {}).items():
            m = _pack(mono)
            nc = out.get(m, 0) + (c if type(c) is int else _num(Fraction(c)))
            if nc:
                out[m] = nc
            elif m in out:
                del out[m]
        self.terms = out

    @classmethod
    def from_packed(cls, terms: dict) -> "SparsePolynomial":
        """Wrap {packed monomial: nonzero coefficient} without copying."""
        p = cls.__new__(cls)
        p.terms = terms
        return p

    @classmethod
    def zero(cls) -> "SparsePolynomial":
        return cls.from_packed({})

    @classmethod
    def one(cls) -> "SparsePolynomial":
        return cls.from_packed({0: 1})

    @classmethod
    def constant(cls, c) -> "SparsePolynomial":
        c = _num(Fraction(c))
        return cls.from_packed({0: c} if c else {})

    @classmethod
    def variable(cls, v: Var) -> "SparsePolynomial":
        return cls.from_packed({1 << var_shift(v): 1})

    def is_zero(self) -> bool:
        return not self.terms

    def is_one(self) -> bool:
        return self.terms == {0: 1}

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        return isinstance(other, SparsePolynomial) and self.terms == other.terms

    __hash__ = None

    def __neg__(self) -> "SparsePolynomial":
        return SparsePolynomial.from_packed(
            {m: -c for m, c in self.terms.items()})

    def __add__(self, other) -> "SparsePolynomial":
        if isinstance(other, (int, Fraction)):
            other = SparsePolynomial.constant(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            nc = out.get(m, 0) + c
            if nc:
                out[m] = nc
            else:
                del out[m]
        return SparsePolynomial.from_packed(out)

    __radd__ = __add__

    def __sub__(self, other) -> "SparsePolynomial":
        if isinstance(other, (int, Fraction)):
            other = SparsePolynomial.constant(other)
        return self + (-other)

    def __mul__(self, other) -> "SparsePolynomial":
        if isinstance(other, (int, Fraction)):
            c = _num(Fraction(other))
            if not c:
                return SparsePolynomial.zero()
            return SparsePolynomial.from_packed(
                {m: co * c for m, co in self.terms.items()})
        if len(self.terms) > len(other.terms):
            rows, terms = other.terms, self.terms
        else:
            rows, terms = self.terms, other.terms
        if not rows:
            return SparsePolynomial.zero()
        return SparsePolynomial.from_packed(mul_packed(terms, rows))

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "SparsePolynomial":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = SparsePolynomial.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def degrees(self) -> set:
        """The degrees of the terms.  A term's degree is its packed
        monomial mod FIELD_MASK while the degree of the OR of the keys,
        which bounds every term's, stays below FIELD_MASK; past it the
        fields are summed one by one."""
        terms = self.terms
        # 2^16 = 1 mod 2^16 - 1, so m % FIELD_MASK is the sum of m's fields
        if _mono_degree(reduce(or_, terms, 0)) < FIELD_MASK:
            return {m % FIELD_MASK for m in terms}
        return set(map(_mono_degree, terms))

    def homogeneous_degree(self) -> int | None:
        """Common degree of all terms, or None if degrees are mixed; the
        zero polynomial reports 0."""
        degs = self.degrees() or {0}
        return degs.pop() if len(degs) == 1 else None

    def variables(self) -> set:
        return {v for v, _ in _unpack(reduce(or_, self.terms, 0))}

    def substitute(self, mapping: dict) -> "SparsePolynomial":
        """Replace each variable in mapping by a polynomial, in parallel."""
        shifts = [(var_shift(v), p) for v, p in mapping.items()]
        pows: dict = {}
        out: dict = {}
        for m, c in self.terms.items():
            repl = None  # the product of the replaced powers, when any
            for sh, p in shifts:
                e = (m >> sh) & FIELD_MASK
                if e:
                    m -= e << sh
                    if (sh, e) not in pows:
                        pows[sh, e] = p if e == 1 else p ** e
                    repl = pows[sh, e] if repl is None else repl * pows[sh, e]
            add_products(out, {0: 1} if repl is None else repl.terms,
                         ((m, c),))
        _refuse_carry(out)
        return SparsePolynomial.from_packed(out)

    def evaluate(self, assignment: dict) -> Fraction:
        total = 0
        for m, c in self.terms.items():
            val = c
            for v, e in _unpack(m):
                if v not in assignment:
                    raise MissingVariable(f"no value for {var_name(v)}")
                val *= Fraction(assignment[v]) ** e
            total += val
        return Fraction(total)

    def sorted_rows(self) -> tuple:
        """The variables of the terms, in variable order, and a row
        (degree, exponents of those variables, packed monomial) per term
        in descending graded-lex order, leading term first: the variables
        are decoded once for all the terms."""
        names, rows = _graded_rows(self.terms)
        # distinct monomials have distinct exponents, so the sort never
        # compares the monomials themselves
        rows.sort(reverse=True)
        return names, rows

    def sorted_terms(self) -> list:
        """(monomial pairs, coefficient) in descending graded-lex order,
        leading term first."""
        names, rows = self.sorted_rows()
        terms = self.terms
        return [(tuple((v, e) for v, e in zip(names, es) if e), terms[m])
                for _, es, m in rows]

    def leading(self) -> tuple:
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        m = max(_graded_rows(self.terms)[1])[2]
        return _unpack(m), self.terms[m]

    def extract_content(self) -> tuple:
        """Return (content, primitive) with primitive integer coefficients,
        gcd 1, positive leading coefficient, of the same type as self; a
        primitive polynomial is its own primitive part.  Zero returns
        (1, zero).  The content is the gcd g of the numerators over the
        lcm l of the denominators, signed once, and each coefficient a/b
        becomes the int a * (l // b) // g, with no Fraction per term.  It
        is the int 1 for int coefficients of unit content, which build
        skips, and a Fraction otherwise, which build may raise to a
        negative power."""
        if not self.terms:
            return 1, self
        values = self.terms.values()
        nums = [c.numerator for c in values]
        g = gcd(*nums)
        den = lcm(*(c.denominator for c in values))
        # only the leading sign matters, and a one-signed polynomial
        # needs no search for its leading term
        if min(nums) < 0 and (max(nums) < 0
                              or self.terms[_leading_key(self.terms)] < 0):
            g = -g
        if g == den == 1 and all(type(c) is int for c in values):
            return 1, self
        prim = self.from_packed({m: c.numerator * (den // c.denominator) // g
                                 for m, c in self.terms.items()})
        return Fraction(g, den), prim

    def __str__(self) -> str:
        return sum_text([term_text(mono_text([(var_name(v), e) for v, e in m]),
                                   str(c))
                         for m, c in self.sorted_terms()])

    __repr__ = __str__


def slices_of(terms: dict, x: Var) -> dict:
    """{k: (0, packed terms of the coefficient of x^k)} of packed terms,
    the slices that divide_slices takes."""
    sx = var_shift(x)
    out: dict = {}
    for m, c in terms.items():
        k = (m >> sx) & FIELD_MASK
        out.setdefault(k, (0, {}))[1][m - (k << sx)] = c
    return out


def monomial_root(a, neg: dict):
    """The packed monomial m when a*x + r is x - m, else None."""
    if a == 1 and len(neg) == 1:
        (m, c), = neg.items()
        if c == 1:
            return m
    return None


def divide_slices(slices: dict, a, neg: dict, floor: int,
                  integral: bool = False) -> dict | None:
    """Slices of p / (a*x + r) as a Laurent series in 1/x, kept down to
    x^floor, from the slices of p and neg = -r as packed terms.  With
    integral set, the caller knows that an exact quotient has int
    coefficients, and a step that a does not divide returns None.

    A slice is a pair (offset, terms): the packed monomial offset
    multiplies every key of terms, so key + offset is the monomial; keys
    are plain ints and may hold negative fields.  Synthetic division from
    the top slice down: q_{k-1} = (p_k + (-r)*q_k) / a.  When a*x + r is
    x - m for one monomial m (monomial_root), m*q_k only adds m to the
    offset.  Other divisors multiply q_k by neg with the offset folded
    into neg's keys, which leaves offset 0.  p_k and that product are
    merged by adding the shorter into the longer, at its monomials minus
    the longer one's offset; a terms dict is shared between slices, in
    and out, so the longer is copied first unless it is a fresh product.
    Continued to floor = -1 it ends with q_{-1}, the remainder over a,
    which is zero exactly when a*x + r divides p.
    """
    out: dict = {}
    m = monomial_root(a, neg)
    off, q = 0, {}
    for k in range(max(slices, default=floor), floor, -1):
        if m is not None:
            off += m
        elif q and neg:
            q = mul_packed(q, {pv + off: cf for pv, cf in neg.items()}
                           if off else neg)
            off = 0
        else:
            q = {}
        p = slices.get(k)
        if p and q:
            poff, p = p
            if len(p) > len(q):
                off, q, poff, p = poff, dict(p), off, q
            elif m is not None:
                q = dict(q)
            poff -= off
            for key, c in p.items():
                key += poff
                nc = q.get(key, 0) + c
                if nc:
                    q[key] = nc
                else:
                    del q[key]
        elif p:
            off, q = p
        if a != 1:
            if integral and any(c % a for c in q.values()):
                return None
            q = {key: c // a if not c % a else Fraction(c, a)
                 for key, c in q.items()}
        if q:
            out[k - 1] = (off, q)
    return out


def _digit_width(bound: int) -> int:
    """Bytes of a packed digit that holds a sign bit and every value of
    absolute value at most bound."""
    return bound.bit_length() // 8 + 1


def _divide_dict(terms: dict, form: "LinearForm") -> dict | None:
    """The packed quotient of terms by the primitive form when it is
    exact, else None: one pass of divide_slices in the leading variable
    x of the form, exact iff its remainder vanishes; no monomial order is
    needed.  An exact quotient of int terms by a primitive form has int
    coefficients (Gauss's lemma), so over int terms the pass stops at the
    first step that the x-coefficient does not divide."""
    (rank, i), a = form.key()[0]
    sx = var_shift((NAMESPACES[rank], i))
    neg = {pv: -c for pv, c in form.terms.items() if pv != 1 << sx}
    q = divide_slices(slices_of(terms, (NAMESPACES[rank], i)), a, neg, -1,
                      all(type(c) is int for c in terms.values()))
    if q is None or -1 in q:
        return None
    return {key + off + (k << sx): c
            for k, (off, qk) in q.items() for key, c in qk.items()}


def _divide_unit(sl: list, a: int, neg: list) -> list | None:
    """Slices of p / (a*x + r) from the slices sl of p, sl[k] the packed
    int of the coefficient of x^k, and the (shift, coefficient) terms of
    -r, or None when a remainder or a step that a does not divide proves
    that a*x + r does not divide p: q_(k-1) = (p_k + (-r)*q_k) / a, from
    the top slice down, and the remainder p_0 + (-r)*q_0 must vanish."""
    out = [0] * (len(sl) - 1)
    q = 0
    for k in range(len(sl) - 1, -1, -1):
        w = sl[k]
        if q:
            for sh, c in neg:
                if c == 1:
                    w += q << sh
                elif c == -1:
                    w -= q << sh
                else:
                    w += (q << sh) * c
        if not k:
            return None if w else out
        if a != 1:
            q, w = divmod(w, a)
            if w:
                return None
        else:
            q = w
        out[k - 1] = q
    return out


def _slice_divide(terms: dict, d: int, units: list, x: int,
                  shifts: list) -> tuple | None:
    """(quotient, counts) of the packed terms, int coefficients and
    homogeneous of degree d, divided by each (form, count) of units as
    often as the form divides them, at most count times, on packed
    slices.  Every form has int coefficients and a term in the variable x
    (packed, exponent 1), and the variables of the terms and forms are
    at bit offsets shifts.  None when the quotient fails its
    certificate.

    Of the variables other than x the first is set to 1 and the rest get
    digits of radix d + 1, laid out as _kronecker_layout lays out a sum's
    slots, with one slot per power of x: a slot is the coefficient of x^k
    packed into one int, and dividing by a*x + r takes a few shifts, a
    small multiply and an exact division by a per slot (_divide_unit).
    Packing is evaluation at powers of two, a ring map, so a nonzero
    remainder proves that a form does not divide.  A quotient Q counts
    only after its certificate: every slot fits its width, so that one
    to_bytes reads them all (_kronecker_decode); every coefficient of Q
    times N, the product of the 1-norms of the units, stays below
    2**(B-1) for B-bit digits, as do p's coefficients; and no exponent
    of the variable set to 1 is negative.  Then Q times the forms
    divided out is homogeneous of degree d, so each of its exponents is
    below the radix, and its coefficients fit a digit.  Packing the
    slots into one int, x set to a power of two too, is one to one on
    such polynomials and maps that product and p to the same int, so
    they are equal.

    The first two checks imply the third.  Slot by slot from the top,
    the x coefficients' product times a slot of Q equals p's slot less
    the forms' other terms times Q's higher slots, digit for digit, as
    no digit sum carries; so no digit of Q lies past its slot's degree.
    No dividend reaches the exponent check, which stays as a second line.
    """
    norm = 1
    for f, count in units:
        norm *= sum(map(abs, f.terms.values())) ** count
    big = max(map(abs, terms.values()))
    # a quotient's coefficients have stayed within twice the dividend's
    width = _digit_width(4 * norm * big)
    sx = x.bit_length() - 1
    others = [sh for sh in shifts if sh != sx]
    radix = [d + 1] * len(others)
    steps = [0] + [8 * width * (d + 1) ** j for j in range(len(others) - 1)]
    step = 8 * width * (d + 1) ** (len(others) - 1)
    kept = list(zip(others[1:], steps[1:]))
    sl = [0] * (d + 1)
    if kept:
        for m, c in terms.items():
            sl[(m >> sx) & FIELD_MASK] += c << sum(
                ((m >> sh) & FIELD_MASK) * st for sh, st in kept)
    else:
        for m, c in terms.items():
            sl[(m >> sx) & FIELD_MASK] += c
    digit = dict(zip(others, steps))
    counts = []
    for f, count in units:
        neg = [(digit[m.bit_length() - 1], -c) for m, c in f.terms.items()
               if m != x]
        a = f.terms[x]
        done = 0
        while done < count:
            q = _divide_unit(sl, a, neg)
            if q is None:
                break
            sl, done = q, done + 1
        counts.append(done)
    if not any(counts):
        return terms, counts
    if any(v.bit_length() >= step for v in sl):
        return None
    total = 0
    for v in reversed(sl):
        total = (total << step) + v
    d -= sum(counts)
    out = _kronecker_decode(total, width, step,
                            [(k << sx, d - k) for k in range(d + 1)],
                            others, radix, steps)
    if max(max(map(abs, out.values())) * norm, big) >> (8 * width - 1):
        return None
    # a negative exponent leaves a negative key or a guard bit
    acc = reduce(or_, out, 0)
    while acc > 0 and not acc & _GUARDS:
        acc >>= _GUARD_SPAN
    return None if acc else (out, counts)


def divide_out(terms: dict, units: list) -> tuple:
    """(quotient, counts): the packed terms divided by each (form, count)
    of units as often as the form divides them, at most count times, and
    how often it did.  The forms are primitive, as FactoredRational's
    are: a step that a form's coefficient does not divide then ends its
    division (_divide_unit, _divide_dict).

    Each run of forms with the same first variable x in bit order
    divides on packed slices (_slice_divide) when the density rule takes
    the layout.  The rule reads only the input: the terms must be
    homogeneous of a degree d > 0, the terms and forms must have int
    coefficients and two or more variables, (variables - 2) * d must stay
    within the guard bit of a field, and the slots may hold at most
    _DENSE_WASTE digits per term, (d + 1)**(variables - 1) in all.
    Otherwise, and when the packed quotient fails its certificate, the
    run takes one dict pass (_divide_dict) per unit.  Primitive forms
    that are not proportional are coprime, so the counts do not depend
    on the route.
    """
    marks = reduce(or_, (reduce(or_, f.terms) for f, _ in units),
                   reduce(or_, terms, 0))
    shifts, top = [], 0
    for sh in range(0, marks.bit_length(), FIELD_BITS):
        if (marks >> sh) & FIELD_MASK:
            shifts.append(sh)
            top += (marks >> sh) & FIELD_MASK
    # top bounds every term's degree, as in degrees()
    d = next(iter(terms), 0) % FIELD_MASK if top < FIELD_MASK else 0
    # a negative exponent of the variable set to 1 must show as a guard
    # bit, so the digit exponents may add up to at most the guard
    packed = (d > 0 and len(shifts) > 1
              and (len(shifts) - 2) * d <= MAX_EXPONENT + 1
              and (d + 1) ** (len(shifts) - 1) <= _DENSE_WASTE * len(terms)
              and {m % FIELD_MASK for m in terms} == {d}
              and all(type(c) is int for c in terms.values())
              and all(type(c) is int for f, _ in units
                      for c in f.terms.values()))
    counts = []
    for x, run in groupby(units, key=lambda u: min(u[0].terms)):
        run = list(run)
        got = _slice_divide(terms, d, run, x, shifts) if packed else None
        if got is None:
            done = []
            for form, count in run:
                k = 0
                while k < count:
                    q = _divide_dict(terms, form)
                    if q is None:
                        break
                    terms, k = q, k + 1
                done.append(k)
            got = terms, done
        terms, done = got
        counts += done
        d -= sum(done)
    return terms, counts


def exact_divide_linear(p: SparsePolynomial,
                        form: "LinearForm") -> SparsePolynomial | None:
    """Quotient p / form when the division is exact, else None: divide_out
    by one unit of the form's primitive part, then by its content."""
    if form.is_zero():
        raise DivisionByZero("division by the zero form")
    content, form = form.primitive()
    q, (done,) = divide_out(p.terms, [(form, 1)])
    if not done:
        return None
    q = SparsePolynomial.from_packed(q)
    return q if content == 1 else q * (1 / content)


class LinearForm(SparsePolynomial):
    """Homogeneous degree-one polynomial, hashable, as factor lists need.

    Its terms are packed single-variable monomials.  key() lists the
    (var_key, coefficient) pairs in variable order; it orders factor
    lists and gives the hash, computed once when the key is set.
    Arithmetic is the polynomial arithmetic and returns plain
    SparsePolynomials; FactoredRational.build turns a degree-one result
    back into a primitive form.
    """

    __slots__ = ("_key", "_hash")

    def __init__(self, coeffs: dict | None = None):
        """Form of {var: coefficient}; zero coefficients are dropped."""
        self._keyed(tuple(sorted(
            (var_key(v), c if type(c) is int else _num(Fraction(c)))
            for v, c in (coeffs or {}).items() if c != 0)))

    def _keyed(self, key: tuple) -> "LinearForm":
        """self with the given key, ((rank, index), nonzero coefficient)
        pairs in variable order, and the packed terms it names."""
        self._key = key
        self._hash = hash(key)
        self.terms = {1 << var_shift((NAMESPACES[r], i)): c
                      for (r, i), c in key}
        return self

    @classmethod
    def from_packed(cls, terms: dict) -> "LinearForm":
        """Wrap {packed single-variable monomial: nonzero coefficient}."""
        form = cls.__new__(cls)
        form.terms = terms
        form._key = tuple(sorted(((r, i), c) for m, c in terms.items()
                                 for r, i, _ in _fields(m)))
        form._hash = hash(form._key)
        return form

    def __hash__(self) -> int:
        return self._hash

    def key(self):
        return self._key

    def max_index(self, namespace: str) -> int:
        """Largest index used in the namespace, or 0 when absent; the key
        is in variable order, so for z, the last namespace, one step."""
        rank = _NS_RANK[namespace]
        for (r, i), _ in reversed(self._key):
            if r <= rank:
                return i if r == rank else 0
        return 0

    # (content, primitive form): integer coprime coefficients, leading
    # coefficient positive
    primitive = SparsePolynomial.extract_content

    def __str__(self) -> str:
        return sum_text([term_text(f"{NAMESPACES[r]}{i}", str(c))
                         for (r, i), c in self._key])

    __repr__ = __str__


def linear_form_of(weight, namespace: str) -> LinearForm:
    """Linear form of an integer weight vector in the given namespace,
    coordinate i paired with index i+1."""
    rank = _NS_RANK[namespace]
    return LinearForm.__new__(LinearForm)._keyed(
        tuple(((rank, i + 1), c) for i, c in enumerate(weight) if c))


def canonical_factors(pairs) -> tuple:
    """(form, exponent) pairs of primitive forms with equal forms merged,
    zero exponents dropped, sorted by form key: FactoredRational.factors."""
    exps: dict = {}
    for form, e in pairs:
        exps[form] = exps.get(form, 0) + e
    return tuple(sorted(((f, e) for f, e in exps.items() if e),
                        key=lambda fe: fe[0].key()))


class FactoredRational:
    """scalar * poly * prod L_i**e_i in canonical form.

    Every instance is canonical: its factors are canonical_factors of
    primitive forms (positive leading coefficient), its polynomial part is
    primitive over Z with positive leading coefficient, and zero is scalar
    1 with zero polynomial part.  build normalizes outside data, turning
    each degree-one polynomial factor into its primitive form; __mul__,
    __truediv__ and simplify only merge exponents, since by Gauss's lemma
    products of primitive polynomials and exact quotients by primitive
    forms are primitive, and leading terms multiply.
    """

    __slots__ = ("scalar", "poly", "factors")

    def __init__(self, scalar: Fraction, poly: SparsePolynomial, factors: tuple):
        self.scalar = scalar
        self.poly = poly
        self.factors = factors

    @classmethod
    def build(cls, scalar, poly: SparsePolynomial, factors=()) -> "FactoredRational":
        scalar = Fraction(scalar)
        prims = []
        pending_zero = False
        for form, exp in factors:
            if exp == 0:
                continue
            if form.is_zero():
                if exp < 0:
                    raise DivisionByZero("zero linear form in a denominator")
                pending_zero = True
                continue
            if type(form) is not LinearForm:
                if form.homogeneous_degree() != 1:
                    raise NotLinear(f"factor {form} is not a linear form")
                form = LinearForm.from_packed(form.terms)
            content, prim = form.primitive()
            if content != 1:
                scalar *= content ** exp
            prims.append((prim, exp))
        if pending_zero or scalar == 0 or poly.is_zero():
            return cls(1, SparsePolynomial.zero(), ())
        content, prim_poly = poly.extract_content()
        return cls(scalar * content, prim_poly, canonical_factors(prims))

    @classmethod
    def zero(cls) -> "FactoredRational":
        return cls(Fraction(1), SparsePolynomial.zero(), ())

    @classmethod
    def one(cls) -> "FactoredRational":
        return cls(Fraction(1), SparsePolynomial.one(), ())

    @classmethod
    def from_poly(cls, p: SparsePolynomial) -> "FactoredRational":
        return cls.build(1, p)

    def is_zero(self) -> bool:
        return self.poly.is_zero()

    def __eq__(self, other) -> bool:
        return (isinstance(other, FactoredRational)
                and self.scalar == other.scalar
                and self.poly == other.poly
                and self.factors == other.factors)

    __hash__ = None

    def __neg__(self) -> "FactoredRational":
        return FactoredRational(-self.scalar, self.poly, self.factors) \
            if not self.is_zero() else self

    def __mul__(self, other) -> "FactoredRational":
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            if c == 0 or self.is_zero():
                return FactoredRational.zero()
            return FactoredRational(self.scalar * c, self.poly, self.factors)
        if self.is_zero() or other.is_zero():
            return FactoredRational.zero()
        return FactoredRational(self.scalar * other.scalar,
                                self.poly * other.poly,
                                canonical_factors(self.factors + other.factors))

    __rmul__ = __mul__

    def __truediv__(self, other: "FactoredRational") -> "FactoredRational":
        if other.is_zero():
            raise DivisionByZero("division by the zero rational")
        if not other.poly.is_one():
            raise ValueError("divisor must have trivial polynomial part")
        if self.is_zero():
            return self
        inverse = tuple((f, -e) for f, e in other.factors)
        return FactoredRational(self.scalar / other.scalar, self.poly,
                                canonical_factors(self.factors + inverse))

    def simplify(self) -> "FactoredRational":
        """Cancel denominator factors that exactly divide the polynomial
        (divide_out)."""
        if self.is_zero():
            return self
        units = [(form, -exp) for form, exp in self.factors if exp < 0]
        if not units:
            return self
        terms, counts = divide_out(self.poly.terms, units)
        if not any(counts):
            return self
        counts = iter(counts)
        factors = [(form, exp + next(counts) if exp < 0 else exp)
                   for form, exp in self.factors]
        return FactoredRational(self.scalar,
                                SparsePolynomial.from_packed(terms),
                                tuple(fe for fe in factors if fe[1]))

    def expand(self) -> SparsePolynomial:
        """Multiply out; requires no remaining denominator factors."""
        r = self.simplify()
        if r.is_zero():
            return SparsePolynomial.zero()
        if any(e < 0 for _, e in r.factors):
            raise NotPolynomial(f"denominator factors remain: {r}")
        out = r.poly * r.scalar
        for form, exp in r.factors:
            out = out * form ** exp
        return out

    def evaluate(self, assignment: dict) -> Fraction:
        if self.is_zero():
            return Fraction(0)
        total = Fraction(self.scalar) * self.poly.evaluate(assignment)
        for form, exp in self.factors:
            val = form.evaluate(assignment)
            if val == 0:
                if exp < 0:
                    raise DivisionByZero(f"factor {form} vanishes at the point")
                return Fraction(0)
            total *= val ** exp
        return total

    def homogeneous_degree(self) -> int | None:
        if self.is_zero():
            return 0
        d = self.poly.homogeneous_degree()
        if d is None:
            return None
        return d + sum(e for _, e in self.factors)

    def substitute_linear(self, mapping: dict) -> "FactoredRational":
        """Replace variables by linear forms everywhere; a denominator
        factor collapsing to zero raises DegenerateRestriction."""
        if self.is_zero():
            return self
        new_poly = self.poly.substitute(mapping)
        new_factors = []
        for form, exp in self.factors:
            nf = form.substitute(mapping)
            if nf.is_zero() and exp < 0:
                raise DegenerateRestriction(
                    f"denominator factor {form} collapses under the substitution")
            new_factors.append((nf, exp))
        return FactoredRational.build(self.scalar, new_poly, new_factors).simplify()

    def relabel_s(self, perm, forms: dict | None = None) -> "FactoredRational":
        """Rename s_(i+1) to s_(perm[i]+1), for perm a permutation of
        range(n) with n at least the largest s-index.

        Renaming keeps forms primitive and the polynomial primitive, so
        only signs change: a form whose leading coefficient turns negative
        is negated, and extract_content fixes the polynomial's.  No
        division is tried: renaming commutes with exact division, so a
        simplified value stays simplified.  forms maps each (form,
        tuple(perm)) renamed before to (renamed form, whether it was
        negated) and each form to itself, and gains the new ones, so a
        job that relabels many values renames each form once per
        permutation, and a renamed form equal to one in forms is that
        object (as in weights.euler_class)."""
        if self.is_zero():
            return self
        perm = tuple(perm)
        moves = [(var_shift(("s", i + 1)), var_shift(("s", j + 1)))
                 for i, j in enumerate(perm) if i != j]
        if not moves:
            return self
        clear = ~sum(FIELD_MASK << src for src, _ in moves)
        terms = {}
        for m, c in self.poly.terms.items():
            key = m & clear
            for src, dst in moves:
                key += ((m >> src) & FIELD_MASK) << dst
            terms[key] = c
        sign, poly = SparsePolynomial.from_packed(terms).extract_content()
        if forms is None:
            forms = {}
        names = {(0, i + 1): (0, j + 1) for i, j in enumerate(perm)}
        rows = []
        for form, e in self.factors:
            done = forms.get((form, perm))
            if done is None:
                key = sorted([(names.get(v, v), c) for v, c in form.key()])
                negated = key[0][1] < 0
                if negated:
                    key = [(v, -c) for v, c in key]
                # from the key: decoding the terms (from_packed) costs more
                renamed = LinearForm.__new__(LinearForm)._keyed(tuple(key))
                done = forms[(form, perm)] = (
                    forms.setdefault(renamed, renamed), negated)
            renamed, negated = done
            if negated and e & 1:
                sign = -sign
            rows.append((renamed, e))
        # renaming is one to one, so the forms stay distinct and sorting
        # them is canonical_factors
        rows.sort(key=lambda fe: fe[0].key())
        return FactoredRational(self.scalar * sign, poly, tuple(rows))

    def __str__(self) -> str:
        return rational_text(self, str(self.poly),
                             [str(form) for form, _ in self.factors])

    __repr__ = __str__


# the largest int _kronecker_sum may build, in bytes
MAX_KRONECKER_BYTES = 1 << 28


def _kronecker_layout(radix: list, width: int, slots: int) -> tuple:
    """(steps, slot step) in bits of a packed int with `slots` slots of
    width-byte digits, one digit per exponent vector below radix, where
    the variable of largest radix is dehomogenized: its step is 0 and its
    exponent is read back from the slot's degree.  Raises
    SizeGuardExceeded past MAX_KRONECKER_BYTES, before anything is
    built."""
    drop = radix.index(max(radix))
    steps = []
    step = 8 * width
    for k, r in enumerate(radix):
        steps.append(0 if k == drop else step)
        step *= 1 if k == drop else r
    size = step // 8 * slots
    if size > MAX_KRONECKER_BYTES:
        raise SizeGuardExceeded(
            f"the packed sum needs 2**{size.bit_length() - 1}"
            f" bytes or more, past the cap of {MAX_KRONECKER_BYTES}")
    return steps, step


def _kronecker_decode(total: int, width: int, step: int, keys: list,
                      shifts: list, radix: list, steps: list) -> dict:
    """Packed terms of the int laid out by _kronecker_layout(radix, width,
    len(keys)) as (steps, step): slot k holds the terms of monomial
    keys[k][0] in the other variables and of degree keys[k][1] in the
    variables at bit offsets shifts.  Each digit lies strictly between
    -X/2 and X/2, X = 2**(8 * width); one to_bytes with a bias of X/2 on
    every digit reads them all."""
    count = step // (8 * width)
    size = count * len(keys)
    half = 1 << (8 * width - 1)
    zero = half.to_bytes(width, "little")
    raw = (total + int.from_bytes(zero * size, "little")).to_bytes(
        size * width, "little")
    kept = [(sh, r) for sh, r, st in zip(shifts, radix, steps) if st]
    last = shifts[steps.index(0)]
    out: dict = {}
    for pos in range(size):
        chunk = raw[pos * width:(pos + 1) * width]
        if chunk != zero:
            slot, pos = divmod(pos, count)
            m, rest = keys[slot]
            for sh, r in kept:
                pos, e = divmod(pos, r)
                m += e << sh
                rest -= e
            out[m + (rest << last)] = int.from_bytes(chunk, "little") - half
    return out


def _kronecker_sum(summands, forms: list) -> dict:
    """Packed terms of the sum of scalar * poly * prod forms[k]**e over
    the summands (int scalar, packed int terms, ((k, e > 0), ...)).

    The sum is one int.  Of the forms' variables the one of highest
    degree is set to 1 and the k-th other one to X**(r_0 * ... *
    r_(k-1)), with X = 2**B and r_j - 1 a bound on the degree of the j-th
    in every product.  A polynomial in them is then an int with a B-bit
    digit per monomial, and multiplying it by a linear form takes a few
    shifts and small multiplies.  The terms of one monomial in the other
    variables and one degree D in the forms' variables own a slot of
    r_0 * ... digits, and D gives back the exponent set to 1.  B, a
    multiple of 8, holds a sign bit and the 1-norm bound sum |scalar| *
    |poly|_1 * prod |f|_1**e, which bounds every digit of the total; the
    total is decoded once, through to_bytes with a bias of X/2 on every
    digit.
    """
    out: dict = {}
    if not forms:
        # nothing to multiply: the polynomials add as they are
        for scalar, terms, _ in summands:
            add_products(out, terms, ((0, scalar),))
        return out
    # each form's variables as one packed monomial, exponent 1 each
    marks = [reduce(or_, f.terms) for f in forms]
    shifts = [var_shift((NAMESPACES[r], i))
              for r, i, _ in _fields(reduce(or_, marks))]
    outside = ~sum(FIELD_MASK << sh for sh in shifts)
    norms = [sum(map(abs, f.terms.values())) for f in forms]
    slots: dict = {}  # (monomial in the other variables, D) -> slot
    parts = []  # (scalar, [(slot, exponents, c)], factors) per summand
    bound = 0
    reach = [0] * len(shifts)  # the most degree of each variable
    for scalar, terms, factors in summands:
        norm = abs(scalar)
        lift = raised = 0
        for k, e in factors:
            norm *= norms[k] ** e
            lift += e
            raised += e * marks[k]
        part = []
        top = 0
        for m, c in terms.items():
            es = [(m >> sh) & FIELD_MASK for sh in shifts]
            p = sum(es)
            top = max(top, p)
            key = (m & outside, p + lift)
            part.append((slots.setdefault(key, len(slots)), es, c))
        parts.append((scalar, part, factors))
        bound += norm * sum(map(abs, terms.values()))
        # a variable's degree is at most the part's plus what factors add
        reach = list(map(max, reach, [((raised >> sh) & FIELD_MASK) + top
                                      for sh in shifts]))
    top = max(D for _, D in slots)
    if top > MAX_EXPONENT:
        raise ExponentOverflow(
            f"degree {top} exceeds {MAX_EXPONENT}, the packed field limit")
    width = _digit_width(bound)
    radix = [min(top, r) + 1 for r in reach]
    steps, step = _kronecker_layout(radix, width, len(slots))
    digit = dict(zip((1 << sh for sh in shifts), steps))
    # each form's (shift, coefficient) terms, shift 0 first
    fterms = [sorted(zip(map(digit.__getitem__, f.terms), f.terms.values()))
              for f in forms]
    total = 0
    for scalar, part, factors in parts:
        v = 0
        for slot, es, c in part:
            v += c << (step * slot + sum(map(int.__mul__, es, steps)))
        v *= scalar
        if len(factors) > 1:
            # the forms reaching the outer digits last keep v short
            factors = sorted(factors, key=lambda ke: fterms[ke[0]][-1])
        for k, e in factors:
            (sh0, c0), *more = fterms[k]
            for _ in range(e):
                acc = v << sh0 if c0 == 1 else (v << sh0) * c0
                for sh, c in more:
                    if c == 1:
                        acc += v << sh
                    elif c == -1:
                        acc -= v << sh
                    else:
                        acc += (v << sh) * c
                v = acc
        total += v
    return _kronecker_decode(total, width, step, list(slots), shifts, radix,
                             steps)


def _horner(groups: dict, times, plus):
    """sum over mu of groups[mu] * prod_j y_(j+1)**mu_j, by Horner's rule
    in y_1, then in y_2 inside each coefficient, and so on; times(v, j)
    multiplies v by y_(j+1)."""
    def rec(items, j):
        if j == len(items[0][0]):
            return items[0][1]
        rows: dict = {}
        for mu, v in items:
            rows.setdefault(mu[j], []).append((mu, v))
        acc = None
        for a in range(max(rows), -1, -1):
            if acc is not None:
                acc = times(acc, j)
            if a in rows:
                v = rec(rows[a], j + 1)
                acc = v if acc is None else plus(acc, v)
        return acc
    return rec(list(groups.items()), 0)


# substitute_elementary packs densely while a slot has at most this many
# digits per monomial of its degree.  Timed on the 28 conversions of the
# residue benchmark, packing won by up to 2.8x at n <= 4, where a slot
# has at most 5 digits per monomial, and the sparse terms won by up to
# 1.2x at n = 5, with 13 to 15.  divide_out packs while a layout has at
# most this many digits per term: the n = 3 localization sums of the
# loc-sum benchmark, 2.4 per term, divided about 3x faster packed, and
# the n = 4 ones, about 30 per term, 2-3x slower
_DENSE_WASTE = 8


def substitute_elementary(terms: dict, ys: list) -> dict:
    """Packed terms with the variable at bit offset ys[j - 1] replaced by
    e_j(s_1..s_n), the j-th elementary symmetric polynomial, n = len(ys).

    Horner's rule over the y_j (_horner), on one packed int laid out as
    _kronecker_sum lays out its sums, with s_1..s_n as the variables: one
    of them is set to 1, and a slot holds the terms of one monomial in
    the other variables and one degree in s_1..s_n after the
    substitution, each y_j counting j.  An e_j is then C(n, j) unit
    digits, so multiplying by it takes shifts and adds, and the total is
    decoded once.  A digit is bounded by the 1-norm, the sum of |c| *
    prod C(n, j)**mu_j over the terms c * y**mu * ..., scaled to
    integers.  A slot has a digit for every exponent vector below the
    radix, up to (n-1)! times as many as the monomials of its degree, so
    with many s-variables the Horner steps multiply sparse terms
    instead.
    """
    n = len(ys)
    ymask = sum(FIELD_MASK << y for y in ys)
    if not terms or not reduce(or_, terms) & ymask:
        return dict(terms)
    shifts = [var_shift(("s", i)) for i in range(1, n + 1)]
    groups: dict = {}  # y exponents -> {the monomial without them: c}
    for m, c in terms.items():
        mu = tuple((m >> y) & FIELD_MASK for y in ys)
        groups.setdefault(mu, {})[m & ~ymask] = c
    rows: dict = {}  # y exponents -> [(slot key, s exponents, c)]
    reach = [0] * n  # the most degree of each s_i
    for mu, part in groups.items():
        lift = sum(mu)
        weight = sum(map(int.__mul__, mu, range(1, n + 1)))
        row = rows[mu] = []
        for m, c in part.items():
            es = [(m >> sh) & FIELD_MASK for sh in shifts]
            row.append(((m - sum(e << sh for e, sh in zip(es, shifts)),
                         sum(es) + weight), es, c))
            reach = [max(r, e + lift) for r, e in zip(reach, es)]
    if max(reach) > MAX_EXPONENT:
        raise ExponentOverflow(f"degree {max(reach)} exceeds {MAX_EXPONENT},"
                               " the packed field limit")
    top = max(key[1] for row in rows.values() for key, _, _ in row)
    radix = [min(top, r) + 1 for r in reach]
    if prod(radix) // max(radix) > _DENSE_WASTE * comb(top + n - 1, n - 1):
        units: dict = {}

        def times(v, j):
            if j not in units:
                units[j] = {sum(1 << shifts[i] for i in c): 1
                            for c in combinations(range(n), j + 1)}
            e = units[j]
            return v and (mul_packed(v, e) if len(e) <= len(v)
                          else mul_packed(e, v))

        def plus(v, w):
            add_products(v, w, ((0, 1),))
            return v

        return _horner(groups, times, plus)
    scale = lcm(*(c.denominator for c in terms.values()))
    norms = [comb(n, j) for j in range(1, n + 1)]
    bound = int(scale * sum(abs(c) * prod(map(pow, norms, mu))
                            for mu, row in rows.items() for _, _, c in row))
    width = _digit_width(bound)
    slots: dict = {}  # (monomial in the other variables, degree) -> slot
    steps, step = _kronecker_layout(
        radix, width, len({key for row in rows.values() for key, _, _ in row}))
    packed = {mu: sum(_num(c * scale) << (
        step * slots.setdefault(key, len(slots))
        + sum(map(int.__mul__, es, steps))) for key, es, c in row)
        for mu, row in rows.items()}
    # the shifts of the unit digits of each e_j
    units = [[sum(c) for c in combinations(steps, j)] for j in range(1, n + 1)]
    total = _horner(packed, lambda v, j: sum(v << sh for sh in units[j]),
                    int.__add__)
    out = _kronecker_decode(total, width, step, list(slots), shifts, radix,
                            steps)
    if scale != 1:
        out = {m: _num(Fraction(c, scale)) for m, c in out.items()}
    return out


def sum_factored(items) -> FactoredRational:
    """Exact sum of factored rationals over a common factored denominator.

    The common denominator is the factorwise maximum of the negative
    exponents.  Each summand times its complement in it is expanded by
    _kronecker_sum, with the scalars brought to one denominator, and
    simplify divides the forms of the denominator out of the result
    (divide_out), on packed slices where the density rule allows.
    """
    items = [r for r in items if not r.is_zero()]
    if not items:
        return FactoredRational.zero()
    needed: dict[LinearForm, int] = {}
    for r in items:
        for form, exp in r.factors:
            if exp < 0:
                needed[form] = max(needed.get(form, 0), -exp)
    scale = lcm(*(r.scalar.denominator for r in items))
    place: dict = {}  # form -> its index in forms
    forms: list = []  # the forms some summand is multiplied by
    summands = []
    for r in items:
        exps = dict(needed)
        for form, exp in r.factors:
            # exp < 0 with form not in needed cannot happen by construction
            exps[form] = exps.get(form, 0) + exp
        factors = []
        for form, e in exps.items():
            if e:
                k = place.setdefault(form, len(forms))
                if k == len(forms):
                    forms.append(form)
                factors.append((k, e))
        summands.append((r.scalar.numerator * (scale // r.scalar.denominator),
                         r.poly.terms, factors))
    total = _kronecker_sum(summands, forms)
    return FactoredRational.build(
        Fraction(1, scale), SparsePolynomial.from_packed(total),
        tuple((f, -e) for f, e in needed.items())
    ).simplify()


def rational_equal(a: FactoredRational, b: FactoredRational) -> bool:
    """Mathematical equality, independent of the factored presentation."""
    a = a.simplify()
    b = b.simplify()
    if a == b:
        return True
    return sum_factored([a, -b]).is_zero()

