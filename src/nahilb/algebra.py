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
``var_shift``), so multiplying monomials is an int addition; the order
is decoded only where it is visible: ``sorted_terms`` (which the
serializer uses), ``leading`` and printing.

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
from math import gcd, lcm
from operator import or_

from .errors import (DegenerateRestriction, DivisionByZero, ExponentOverflow,
                     MissingVariable, NotLinear, NotPolynomial,
                     SizeGuardExceeded)

NAMESPACES = ("s", "theta", "eta", "z")
_NS_RANK = {ns: i for i, ns in enumerate(NAMESPACES)}

Var = tuple  # (namespace, index), index >= 1

_ZERO = 0
_ONE = 1


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


def _mono_sort_key(m: int):
    # Ascending sort by this key lists monomials in descending graded-lex
    # order, leading term first.
    f = _fields(m)
    return (-sum(e for _, _, e in f), [(r, i, -e) for r, i, e in f])


def mul_packed(terms: dict, rows: dict) -> dict:
    """Product of packed terms; rows, which must be nonempty, drives the
    outer loop, so the shorter factor goes there."""
    # the first row of products cannot collide with itself
    items = iter(rows.items())
    pv, cf = next(items)
    out = {m + pv: c * cf for m, c in terms.items()}
    get = out.get
    for pv, cf in items:
        for m, c in terms.items():
            key = m + pv
            nc = get(key, _ZERO) + c * cf
            if nc:
                out[key] = nc
            elif key in out:
                del out[key]
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
            nc = out.get(m, _ZERO) + (c if type(c) is int else _num(Fraction(c)))
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
        return cls.from_packed({0: _ONE})

    @classmethod
    def constant(cls, c) -> "SparsePolynomial":
        c = _num(Fraction(c))
        return cls.from_packed({0: c} if c else {})

    @classmethod
    def variable(cls, v: Var) -> "SparsePolynomial":
        return cls.from_packed({1 << var_shift(v): _ONE})

    def is_zero(self) -> bool:
        return not self.terms

    def is_one(self) -> bool:
        return self.terms == {0: _ONE}

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
            nc = out.get(m, _ZERO) + c
            if nc:
                out[m] = nc
            elif m in out:
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

    def homogeneous_degree(self) -> int | None:
        """Common degree of all terms, or None if degrees are mixed.

        The zero polynomial reports 0.
        """
        if not self.terms:
            return 0
        degs = {_mono_degree(m) for m in self.terms}
        if len(degs) == 1:
            return degs.pop()
        return None

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
            for mr, cr in ((0, _ONE),) if repl is None else repl.terms.items():
                key = m + mr
                nc = out.get(key, _ZERO) + c * cr
                if nc:
                    out[key] = nc
                elif key in out:
                    del out[key]
        _refuse_carry(out)
        return SparsePolynomial.from_packed(out)

    def evaluate(self, assignment: dict) -> Fraction:
        total = _ZERO
        for m, c in self.terms.items():
            val = c
            for v, e in _unpack(m):
                if v not in assignment:
                    raise MissingVariable(f"no value for {var_name(v)}")
                val *= Fraction(assignment[v]) ** e
            total += val
        return Fraction(total)

    def sorted_terms(self) -> list:
        """(monomial pairs, coefficient) in descending graded-lex order,
        leading term first."""
        # monomials are distinct, so the sort never compares coefficients
        keyed = sorted((_mono_sort_key(m), c) for m, c in self.terms.items())
        return [(tuple(((NAMESPACES[r], i), -e) for r, i, e in key[1]), c)
                for key, c in keyed]

    def leading(self) -> tuple:
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        m = min(self.terms, key=_mono_sort_key)
        return _unpack(m), self.terms[m]

    def extract_content(self) -> tuple:
        """Return (content, primitive) with primitive integer coefficients,
        gcd 1, positive leading coefficient, of the same type as self; a
        primitive polynomial is its own primitive part.  Zero returns
        (1, zero)."""
        if not self.terms:
            return _ONE, self
        values = self.terms.values()
        content = Fraction(gcd(*(c.numerator for c in values)),
                           lcm(*(c.denominator for c in values)))
        low = min(values)
        # only the leading sign matters, and a one-signed polynomial
        # needs no search for its leading term
        if (self.leading()[1] if low < 0 < max(values) else low) < 0:
            content = -content
        if content == 1 and all(type(c) is int for c in values):
            return _ONE, self
        prim = self.from_packed(
            {m: _num(c / content) for m, c in self.terms.items()})
        return content, prim

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for m, c in self.sorted_terms():
            mono = "*".join(
                var_name(v) + (f"^{e}" if e > 1 else "") for v, e in m
            )
            if not mono:
                parts.append(str(c))
            elif c == 1:
                parts.append(mono)
            elif c == -1:
                parts.append("-" + mono)
            else:
                parts.append(f"{c}*{mono}")
        out = " + ".join(parts)
        return out.replace("+ -", "- ")

    __repr__ = __str__


def slices_of(terms: dict, x: Var) -> dict:
    """{k: packed terms of the coefficient of x^k} of packed terms."""
    sx = var_shift(x)
    out: dict = {}
    for m, c in terms.items():
        k = (m >> sx) & FIELD_MASK
        out.setdefault(k, {})[m - (k << sx)] = c
    return out


def divide_slices(slices: dict, a, neg: dict, floor: int) -> dict:
    """Slices of p / (a*x + r) as a Laurent series in 1/x, kept down to
    x^floor, from the slices of p and neg = -r as packed terms.

    Synthetic division from the top slice down:
    q_{k-1} = (p_k + (-r)*q_k) / a.  Continued to floor = -1 it ends
    with q_{-1}, the remainder over a, which is zero exactly when
    a*x + r divides p.
    """
    out: dict = {}
    q: dict = {}
    for k in range(max(slices, default=floor), floor, -1):
        q = mul_packed(q, neg) if q and neg else {}
        for m, c in slices.get(k, {}).items():
            nc = q.get(m, _ZERO) + c
            if nc:
                q[m] = nc
            else:
                del q[m]
        if a != 1:
            q = {m: c // a if not c % a else Fraction(c, a)
                 for m, c in q.items()}
        if q:
            out[k - 1] = q
    return out


def exact_divide_linear(p: SparsePolynomial, form: "LinearForm") -> SparsePolynomial | None:
    """Quotient p / form when the division is exact, else None.

    One pass of divide_slices in the leading variable x of the form,
    exact iff its remainder vanishes; no monomial order is needed.
    """
    if form.is_zero():
        raise DivisionByZero("division by the zero form")
    (rank, i), a = form.key()[0]
    x = (NAMESPACES[rank], i)
    sx = var_shift(x)
    neg = {pv: -c for pv, c in form.terms.items() if pv != 1 << sx}
    q = divide_slices(slices_of(p.terms, x), a, neg, -1)
    if -1 in q:
        return None
    return SparsePolynomial.from_packed(
        {m + (k << sx): c for k, qk in q.items() for m, c in qk.items()})


class LinearForm(SparsePolynomial):
    """Homogeneous degree-one polynomial, hashable, as factor lists need.

    Its terms are packed single-variable monomials.  key() lists the
    (var_key, coefficient) pairs in variable order; it orders factor
    lists and gives the hash.  Arithmetic is the polynomial arithmetic
    and returns plain SparsePolynomials; FactoredRational.build turns a
    degree-one result back into a primitive form.
    """

    __slots__ = ("_key",)

    def __init__(self, coeffs: dict | None = None):
        """Form of {var: coefficient}; zero coefficients are dropped."""
        pairs = sorted(
            (var_key(v), v, c if type(c) is int else _num(Fraction(c)))
            for v, c in (coeffs or {}).items() if c != 0)
        self.terms = {1 << var_shift(v): c for _, v, c in pairs}
        self._key = tuple((k, c) for k, _, c in pairs)

    @classmethod
    def from_packed(cls, terms: dict) -> "LinearForm":
        """Wrap {packed single-variable monomial: nonzero coefficient}."""
        form = cls.__new__(cls)
        form.terms = terms
        form._key = tuple(sorted(((r, i), c) for m, c in terms.items()
                                 for r, i, _ in _fields(m)))
        return form

    def __hash__(self) -> int:
        return hash(self._key)

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
        if not self._key:
            return "0"
        parts = []
        for (r, i), c in self._key:
            name = f"{NAMESPACES[r]}{i}"
            parts.append(name if c == 1 else "-" + name if c == -1
                         else f"{c}*{name}")
        return " + ".join(parts).replace("+ -", "- ")

    __repr__ = __str__


def linear_form_of(weight, namespace: str) -> LinearForm:
    """Linear form of an integer weight vector in the given namespace,
    coordinate i paired with index i+1."""
    lane, stride, offset = _LANES[namespace]
    rank = _NS_RANK[namespace]
    form = LinearForm.__new__(LinearForm)
    form.terms = {1 << FIELD_BITS * (lane + 3 * (stride * i + offset)): c
                  for i, c in enumerate(weight) if c}
    form._key = tuple(((rank, i + 1), c) for i, c in enumerate(weight) if c)
    return form


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
            return cls(_ONE, SparsePolynomial.zero(), ())
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
        return cls.build(_ONE, p)

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
        """Cancel denominator factors that exactly divide the polynomial."""
        if self.is_zero():
            return self
        poly = self.poly
        new_factors = []
        for form, exp in self.factors:
            while exp < 0:
                q = exact_divide_linear(poly, form)
                if q is None:
                    break
                poly = q
                exp += 1
            if exp:
                new_factors.append((form, exp))
        return FactoredRational(self.scalar, poly, tuple(new_factors))

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

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        num = [f"({self.scalar})"] if self.scalar != 1 else []
        if not self.poly.is_one() or not num and not self.factors:
            num.append(f"({self.poly})")
        den = []
        for form, exp in self.factors:
            target = num if exp > 0 else den
            e = abs(exp)
            target.append(f"({form})" + (f"^{e}" if e > 1 else ""))
        out = "*".join(num) if num else "1"
        if den:
            out += " / " + "*".join(den)
        return out

    __repr__ = __str__


def _field_shifts(packed: int) -> list:
    """Bit offsets of the nonzero exponent fields of a packed monomial."""
    out = []
    sh = 0
    while packed:
        if packed & FIELD_MASK:
            out.append(sh)
        packed >>= FIELD_BITS
        sh += FIELD_BITS
    return out


# the largest int _kronecker_sum may build, in bytes
MAX_KRONECKER_BYTES = 1 << 28


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
            for m, c in terms.items():
                out[m] = out.get(m, 0) + scalar * c
        return {m: c for m, c in out.items() if c}
    # each form's variables as one packed monomial, exponent 1 each
    marks = [reduce(or_, f.terms) for f in forms]
    shifts = _field_shifts(reduce(or_, marks))
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
    width = bound.bit_length() // 8 + 1
    radix = [min(top, r) + 1 for r in reach]
    drop = radix.index(max(radix))
    steps = []
    step = bits = 8 * width
    for k, r in enumerate(radix):
        steps.append(0 if k == drop else step)
        step *= 1 if k == drop else r
    count = step // bits
    size = count * len(slots)
    if size * width > MAX_KRONECKER_BYTES:
        raise SizeGuardExceeded(
            f"the packed sum needs 2**{(size * width).bit_length() - 1}"
            f" bytes or more, past the cap of {MAX_KRONECKER_BYTES}")
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
    half = 1 << (bits - 1)
    zero = half.to_bytes(width, "little")
    raw = (total + int.from_bytes(zero * size, "little")).to_bytes(
        size * width, "little")
    keys = list(slots)
    kept = [(sh, r) for k, (sh, r) in enumerate(zip(shifts, radix))
            if k != drop]
    last = shifts[drop]
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


def sum_factored(items) -> FactoredRational:
    """Exact sum of factored rationals over a common factored denominator.

    The common denominator is the factorwise maximum of the negative
    exponents.  Each summand times its complement in it is expanded by
    _kronecker_sum, with the scalars brought to one denominator, and the
    result is simplified by trial division.
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

