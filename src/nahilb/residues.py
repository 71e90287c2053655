"""Iterated residues computing nil-fil integrals without fixed points.

The residue operator expands a rational form as a Laurent series in the
regime z_1 << ... << z_k, eliminating variables from the highest index
down; each step divides by the factors in z_M through synthetic division
continued past z_M^0 and takes minus the coefficient of z_M^{-1}.  The
engine consumes forms whose denominators are products of linear factors,
which covers every integrand produced here.

Every denominator holds the coordinate block prod (s_i - z_l) over the
n parameters and all z_l.  Since prod_i (z - s_i) = sum_j (-1)^j e_j(s)
z^(n-j), each round of a residue with two rounds or more divides by the
block once, as sigma(z_M) with formal variables Y_j for the elementary
symmetric e_j(s), and a single substitution Y_j -> e_j(s) at the end
brings the result back to s.  The
substitution is a ring map, so it commutes with the divisions and with
taking the z_M^{-1} coefficient, and the result is exact for any
numerator.  When a round needs only that coefficient, it reads it off
the product of the numerator with the series of D/sigma, which is the
recurrence of p = sigma*q run on the round's unit D = +-1.

The flag decomposition behind the main formula sums over unordered
block cosets while the residue telescopes over ordered assignments of
the z-variables to the s-parameters, so the raw residue overshoots by
the product of the block factorials.  Every entry point divides it back
out, as the scalar of the value, so the integer residue keeps its int
coefficients; the weighted-residue identity in the test suite pins the
factor.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import reduce
from math import factorial, prod
from operator import or_

from .algebra import (
    MAX_EXPONENT,
    FactoredRational,
    LinearForm,
    SparsePolynomial,
    _mono_degree,
    _refuse_carry,
    add_products,
    divide_slices,
    linear_form_of,
    monomial_root,
    mul_packed,
    slices_of,
    substitute_elementary,
    sum_factored,
    var_shift,
)
from .errors import (
    ExponentOverflow,
    IndexOutOfRange,
    NonElimination,
    RequiresNilfil,
)
from .localization import (
    IntegralResult,
    TautClass,
    _integral,
    _restrict_etas,
    check_layer_symmetry,
    gated_term,
    passes_gate,
)
from .partitions import (
    NestedPartition,
    _shape,
    canonical_enumeration,
    check_flag_room,
    check_point_budget,
    enumerate_nested,
    in_flag_fiber,
    is_nilfil,
    point_levels,
    require_pointed,
)
from .weights import (
    fiber_tangent_class,
    flag_terms,
    obstruction_class,
    obstruction_terms,
    punctual_terms,
    term_zforms,
)

RESIDUE_SIGN = -1


def _z_factors(pairs, kind: str) -> tuple:
    """(form, exponent) pairs with positive exponents and z in every form."""
    out = []
    for form, exp in pairs:
        if int(exp) <= 0:
            raise IndexOutOfRange(f"{kind} exponents must be positive")
        if form.max_index("z") < 1:
            raise NonElimination(f"{kind} factor {form} is free of z")
        out.append((form, int(exp)))
    return tuple(out)


# Y_j, the stand-in for e_j(s_1..s_n) in the rounds of a residue with a
# coordinate block, takes the field of eta_j: every entry point restricts
# the etas before it builds a residue form
_Y = "eta"


class ResidueForm:
    """numerator / product of linear factors in z_1..z_{z_count}, further
    divided by the coordinate block prod (s_i - z_l) over i <= coordinates
    and l <= z_count.

    Every denominator factor must involve a z-variable; z-free factors
    belong in the numerator's rational content instead.  Linear factors
    of the numerator can be passed in `deferred`: they multiply the
    quotient of the round that eliminates their top z-variable, after
    its divisions, so the divisions work on much smaller polynomials.
    The block is data, not factors, because iterated_residue divides by
    all of it at once; a form with a block may use no eta-variable.
    """

    __slots__ = ("numerator", "factors", "z_count", "deferred", "coordinates")

    def __init__(self, numerator: SparsePolynomial, factors, z_count: int,
                 deferred=(), coordinates: int = 0):
        self.numerator = numerator
        self.z_count = int(z_count)
        self.factors = _z_factors(factors, "denominator")
        self.deferred = _z_factors(deferred, "deferred")
        self.coordinates = int(coordinates)
        # one OR of the keys holds every variable that the form uses
        used = reduce(or_, (reduce(or_, form.terms) for form, _ in
                            self.factors + self.deferred),
                      reduce(or_, numerator.terms, 0))
        used = SparsePolynomial.from_packed({used: 1}).variables()
        top = max((idx for ns, idx in used if ns == "z"), default=0)
        if top > self.z_count:
            raise IndexOutOfRange(f"z_{top} exceeds z_count={self.z_count}")
        if self.coordinates < 0:
            raise IndexOutOfRange("coordinates must be nonnegative")
        if self.coordinates and any(ns == _Y for ns, _ in used):
            raise IndexOutOfRange(
                f"the coordinate block takes the {_Y} fields; restrict"
                f" the {_Y}-variables before the residue")

    def __repr__(self) -> str:
        num = f"({self.numerator})"
        num += "".join(f"*({f})" + (f"^{e}" if e > 1 else "")
                       for f, e in self.deferred)
        den = [f"({f})" + (f"^{e}" if e > 1 else "") for f, e in self.factors]
        if self.coordinates:
            den.append(f"prod_(i<={self.coordinates},l<={self.z_count})"
                       "(s_i - z_l)")
        return (f"ResidueForm({num} / {'*'.join(den) or '1'},"
                f" z_count={self.z_count})")


def _slice_product(a: dict, b: dict, t: int) -> dict:
    """The z^t slice, as packed terms, of the product of two sliced
    series, sum_k a_k b_(t-k); the shorter of each pair of slices gives
    the rows, with both offsets folded into their keys."""
    out: dict = {}
    for k, (aoff, A) in a.items():
        if t - k in b:
            boff, B = b[t - k]
            if len(A) > len(B):
                A, B = B, A
            add_products(out, B, [(m + aoff + boff, c) for m, c in A.items()])
    return out


def _sigma_recurrence(state: dict, ys: list, floor: int) -> dict:
    """The slices down to floor of p / sigma(z_M), from the top: q_t =
    p_(t+n) + sum_j (-1)^(j+1) Y_j q_(t+j), as p = sigma * q.  Y_j q only
    adds Y_j to q's offset; the parts are merged into the longest, at
    their monomials minus its offset.  Run on p = +-1 it yields the
    series of +-1/sigma, whose z_M^(-n-u) slice is +-H_u(Y), the
    complete homogeneous polynomial written in the Y_j."""
    n = len(ys)
    out: dict = {}
    for t in range(max(state, default=floor) - n, floor - 1, -1):
        parts = [(out[t + j][0] + (1 << y), out[t + j][1], 1 if j % 2 else -1)
                 for j, y in enumerate(ys, 1) if t + j in out]
        if t + n in state:
            parts.append(state[t + n] + (1,))
        if not parts:
            continue
        parts.sort(key=lambda part: len(part[1]))
        off, q, sign = parts.pop()
        acc = dict(q) if sign > 0 else {key: -c for key, c in q.items()}
        for poff, p, sign in parts:
            poff -= off
            for key, c in p.items():
                key += poff
                nc = acc.get(key, 0) + sign * c
                if nc:
                    acc[key] = nc
                else:
                    del acc[key]
        if acc:
            out[t] = (off, acc)
    return out


def iterated_residue(f: ResidueForm, margin: int = 0) -> SparsePolynomial:
    """Iterated residue at infinity, eliminating z_{z_count} down to z_1.

    Per round, the numerator N is divided by each factor F whose top
    z-variable is the current one, z_M, as a Laurent series in 1/z_M:
    each unit of a factor's exponent is one pass of synthetic division
    (algebra.divide_slices) continued past z_M^0.  Division commutes, so
    the passes by z_M - m for one monomial m, which only move a slice's
    offset, run after the others, which multiply every term and so run
    while the state is short.  As (D*N)/F = D*(N/F), the product D of
    the round's deferred forms, times the round's sign, multiplies
    either N before the divisions or the quotient tail after them.  A
    round takes the first route when N has fewer terms than D, and then
    divides D*N with D = 1.  After the divisions the z_M^-1 coefficient
    is that slice of the product of D and the quotient Q, read off their
    slices (_slice_product).  Each pass stops at the exponents that can
    no longer reach -1-deg_{z_M} D past the passes still pending; margin
    loosens that cutoff and must never change the result.

    The coordinate block of n = f.coordinates parameters divides last,
    in one step: prod_i (z_M - s_i) = sigma(z_M) = sum_j (-1)^j e_j(s)
    z_M^(n-j), with a formal variable Y_j for e_j(s), so the state holds
    symmetric functions of s as few Y-monomials.  A window of slices
    runs the recurrence of p = sigma*q (_sigma_recurrence).  When D has
    no z_M it is the unit +-1, and only the z_M^-1 slice is needed: it is
    read off as that slice of the product of p with the series of
    D/sigma, which the recurrence yields when run on D, so the read-out
    is the round's result with no copy.  Y_j -> e_j(s) is a ring map, so
    it commutes with the divisions and with reading off z_M^-1: the
    result in the Y_j is turned back into s once, at the end
    (algebra.substitute_elementary).

    The monomials behind offset keys are never built, so no carry check
    sees them; instead a round raises ExponentOverflow before its first
    division unless deg N + passes + n + deg_{z_M} D + margin + 1 <=
    MAX_EXPONENT, which bounds the total degree of every quotient term,
    Y-exponents included, and its result is checked as before.  On the
    first route N is D*N, whose product checks its own exponents.
    """
    num = dict(f.numerator.terms)
    ys = [var_shift((_Y, j)) for j in range(1, f.coordinates + 1)]
    factors, deferred = {}, {}
    for bucket, pairs in ((factors, f.factors), (deferred, f.deferred)):
        for form, e in pairs:
            bucket.setdefault(form.max_index("z"), []).append((form, e))
    for M in range(f.z_count, 0, -1):
        if not num:
            return SparsePolynomial.zero()
        zM = ("z", M)
        pz = 1 << var_shift(zM)
        # each s_i - z_M of the block is -(z_M - s_i)
        sign = RESIDUE_SIGN * (-1) ** len(ys)
        passes = []
        for form, e in factors.pop(M, ()):
            # c*z_M + r is -(|c|*z_M - r) when c < 0
            c = form.terms[pz]
            flip = -1 if c < 0 else 1
            sign *= flip ** e
            neg = {pv: -flip * cf for pv, cf in form.terms.items() if pv != pz}
            passes += [(flip * c, neg)] * e
        passes.sort(key=lambda p: monomial_root(*p) is not None)
        D = {0: sign}
        for form, e in deferred.pop(M, ()):
            for _ in range(e):
                D = mul_packed(D, form.terms)
        if len(num) < len(D):
            num, D = mul_packed(D, num), {0: 1}
        D = slices_of(D, zM)
        # the OR of the keys holds every field of each, so its degree
        # bounds deg N and the exact maximum is needed only past it
        room = MAX_EXPONENT - len(passes) - len(ys) - max(D) - margin - 1
        if (_mono_degree(reduce(or_, num)) > room
                and max(map(_mono_degree, num)) > room):
            raise ExponentOverflow(
                f"the z_{M} round could take an exponent past {MAX_EXPONENT}")
        state = slices_of(num, zM)
        # each pending pass lowers a slice by one, D lifts it by deg D
        rem = len(passes) + len(ys) - max(D)
        for a, neg in passes:
            rem -= 1
            state = divide_slices(state, a, neg, rem - 1 - margin)
        if ys and not max(D):
            # D is the unit +-1, so the read-out takes the series of D/sigma
            num = (_slice_product(state, _sigma_recurrence(
                D, ys, -1 - max(state)), -1) if margin >= 0 and state else {})
        else:
            if ys:
                state = _sigma_recurrence(state, ys, -1 - max(D) - margin)
            num = _slice_product(D, state, -1)
        _refuse_carry(num)
    result = SparsePolynomial.from_packed(substitute_elementary(num, ys))
    if any(ns == "z" for ns, _ in result.variables()) or factors:
        raise NonElimination(f"z-variables survive the residue: {result}")
    return result


def _residue(num, n: int, tangent, w, factors=(),
             deferred=()) -> FactoredRational:
    """Residue of num over the z-forms of a tangent's terms at the levels
    w, with the extra (form, exponent) factors dividing and the deferred
    ones multiplying.  The tangent's terms with a coordinate, s_i - z_l
    for i <= n and l >= 1, are the coordinate block of the residue form
    when there are two rounds or more; a single round divides by them as
    factors, whose offset passes give the result in s directly.  Its
    negative terms multiply.  The value is built with the inverse of the
    block factorials of w as its scalar, so no term of the integer
    residue is divided."""
    block = n if len(w) > 2 else 0
    den, mul = [], []
    for sign, form in term_zforms(t for t in tangent
                                  if not block or t[1] is None):
        (den if sign > 0 else mul).append((form, 1))
    form = ResidueForm(num, den + list(factors), len(w) - 1,
                       deferred=mul + list(deferred), coordinates=block)
    blocks = prod(factorial(size) for size in Counter(w).values())
    return FactoredRational.build(Fraction(1, blocks), iterated_residue(form))


def weighted_residue_rhs(Q: SparsePolynomial, n: int, dhat) -> SparsePolynomial:
    """Residue form of the block-coset sum over the flag variety.

    Equals sum over block-sorted injections sigma of Q(s_sigma) divided
    by the flag tangent Euler class, as a polynomial identity.
    """
    dims = _shape(n, (1,) + tuple(dhat))
    check_flag_room(n, sum(dims))
    w = point_levels(dims)
    return _residue(Q, n, flag_terms(w, n), w).expand()


def flag_fiber_Q(n: int, dims, P: TautClass) -> SparsePolynomial:
    """Integral of P over the fiber of the flag projection at the
    identity coset, as a polynomial in theta and s_1..s_{d-1}.

    Sums the gated localization contributions over the chains lying on
    the fiber; the denominators must clear, which the expansion checks.
    The fiber and its tangent single out e_1, e_2, ... by level, so an
    S_n orbit may meet the fiber in several chains whose terms are not
    relabellings of each other: each term is computed on its own, not
    through gated_terms.
    """
    dims = tuple(int(x) for x in dims)
    check_flag_room(n, sum(dims))
    terms = []
    for np_ in enumerate_nested(n, dims):
        if is_nilfil(np_) and in_flag_fiber(np_):
            e = canonical_enumeration(np_)
            terms.append(gated_term(e, fiber_tangent_class(e), P)[0])
    return sum_factored(terms).expand()


def _zform_of(vec, k: int) -> LinearForm:
    if any(vec[k:]):
        raise IndexOutOfRange(f"{vec} uses coordinates beyond z_{k}")
    return linear_form_of(vec[:k], "z")


def integrate_residue_nilfil(n: int, dims, P: TautClass) -> IntegralResult:
    """Nil-fil integral of P by the closed residue formula.

    Needs no fixed-point enumeration and no bound between the chain
    length and n; agreement with the localization sum where both apply
    is part of the acceptance suite.  The positive punctual tangent terms
    divide; its negative terms (the Vandermonde) and the obstruction
    multiply, deferred.
    """
    dims = require_pointed(_shape(n, dims))
    check_point_budget(dims)
    check_layer_symmetry(P, dims)
    w = point_levels(dims)
    num = _restrict_etas(P, len(w), lambda j: SparsePolynomial.variable(("z", j)))
    obstruction = [(form, 1) for _, form in term_zforms(obstruction_terms(w))]
    value = _residue(num, n, punctual_terms(w, n), w, deferred=obstruction)
    return _integral(value, P, n, dims, "nilfil", "residue")


def residue_term(np_: NestedPartition, P: TautClass) -> SparsePolynomial:
    """Contribution of one fiber chain to the residue decomposition:
    the residue of the kernel against the chain's own Euler data."""
    if not in_flag_fiber(np_):
        raise RequiresNilfil(f"{np_} is not on the identity fiber")
    e = canonical_enumeration(np_)
    k = e.d - 1
    num = _restrict_etas(P, e.d, lambda j: _zform_of(e.points[j], k))
    tangent = fiber_tangent_class(e)
    obstruction = obstruction_class(e)
    if not passes_gate(tangent, obstruction):
        return SparsePolynomial.zero()
    return _residue(
        num, e.n, flag_terms(e.w, e.n), e.w,
        [(_zform_of(v, k), m) for v, m in tangent.moving().items()],
        [(_zform_of(v, k), m) for v, m in obstruction.moving().items()]
    ).expand()

