"""Iterated residues computing nil-fil integrals without fixed points.

The residue operator expands a rational form as a Laurent series in the
regime z_1 << ... << z_k, eliminating variables from the highest index
down; each step divides by the factors in z_M through synthetic division
continued past z_M^0 and takes minus the coefficient of z_M^{-1}.  The
engine consumes forms whose denominators are products of linear factors,
which covers every integrand produced here.

The flag decomposition behind the main formula sums over unordered
block cosets while the residue telescopes over ordered assignments of
the z-variables to the s-parameters, so the raw residue overshoots by
the product of the block factorials.  Every entry point divides it back
out; the weighted-residue identity in the test suite pins the factor.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from math import factorial, prod

from .algebra import (
    FactoredRational,
    LinearForm,
    SparsePolynomial,
    divide_slices,
    linear_form_of,
    mul_packed,
    slices_of,
    var_shift,
)
from .errors import (
    IndexOutOfRange,
    NonElimination,
    RequiresNilfil,
    TooManyPoints,
)
from .localization import (
    IntegralResult,
    TautClass,
    _check_degree,
    _net_rank,
    _restrict_etas,
    check_layer_symmetry,
    fixed_point_sum,
    passes_gate,
)
from .partitions import (
    NestedPartition,
    _shape,
    canonical_enumeration,
    check_point_budget,
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


def _max_z_index(poly: SparsePolynomial) -> int:
    return max((idx for ns, idx in poly.variables() if ns == "z"), default=0)


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


class ResidueForm:
    """numerator / product of linear factors in z_1..z_{z_count}.

    Every denominator factor must involve a z-variable; z-free factors
    belong in the numerator's rational content instead.  Linear factors
    of the numerator can be passed in `deferred`: they multiply the
    quotient of the round that eliminates their top z-variable, after
    its divisions, so the divisions work on much smaller polynomials.
    """

    __slots__ = ("numerator", "factors", "z_count", "deferred")

    def __init__(self, numerator: SparsePolynomial, factors, z_count: int,
                 deferred=()):
        self.numerator = numerator
        self.z_count = int(z_count)
        self.factors = _z_factors(factors, "denominator")
        self.deferred = _z_factors(deferred, "deferred")
        top = max([_max_z_index(numerator)] + [
            form.max_index("z") for form, _ in self.factors + self.deferred])
        if top > self.z_count:
            raise IndexOutOfRange(f"z_{top} exceeds z_count={self.z_count}")

    def __repr__(self) -> str:
        num = f"({self.numerator})"
        num += "".join(f"*({f})" + (f"^{e}" if e > 1 else "")
                       for f, e in self.deferred)
        den = "*".join(f"({f})" + (f"^{e}" if e > 1 else "")
                       for f, e in self.factors) or "1"
        return f"ResidueForm({num} / {den}, z_count={self.z_count})"


def iterated_residue(f: ResidueForm, margin: int = 0) -> SparsePolynomial:
    """Iterated residue at infinity, eliminating z_{z_count} down to z_1.

    Per round, the numerator N is divided by each factor F whose top
    z-variable is the current one, z_M, as a Laurent series in 1/z_M:
    each unit of a factor's exponent is one pass of synthetic division
    (algebra.divide_slices) continued past z_M^0.  As (D*N)/F = D*(N/F),
    the product D of the round's deferred forms multiplies in after the
    divisions: the z_M^-1 coefficient is sum_j D_j*Q_{-1-j} over the z_M^j
    slices of D and of the quotient Q.  Each pass stops at the exponents
    that can no longer reach -1-deg_{z_M} D past the factors still
    pending; margin loosens that cutoff and must never change the result.
    """
    num = dict(f.numerator.terms)
    factors, deferred = {}, {}
    for bucket, pairs in ((factors, f.factors), (deferred, f.deferred)):
        for form, e in pairs:
            bucket.setdefault(form.max_index("z"), []).append((form, e))
    for M in range(f.z_count, 0, -1):
        if not num:
            return SparsePolynomial.zero()
        zM = ("z", M)
        pz = 1 << var_shift(zM)
        D = {0: 1}
        for form, e in deferred.pop(M, ()):
            for _ in range(e):
                D = mul_packed(D, form.terms)
        D = slices_of(D, zM)
        active = factors.pop(M, ())
        state = slices_of(num, zM)
        sign = RESIDUE_SIGN
        # each pending pass lowers a slice by one, D lifts it by deg D
        rem = sum(e for _, e in active) - max(D)
        for form, e in active:
            # c*z_M + r is -(|c|*z_M - r) when c < 0
            c = form.terms[pz]
            flip = -1 if c < 0 else 1
            sign *= flip ** e
            neg = {pv: -flip * cf for pv, cf in form.terms.items() if pv != pz}
            for _ in range(e):
                rem -= 1
                state = divide_slices(state, flip * c, neg, rem - 1 - margin)
        num = {}
        for j, Dj in D.items():
            for m, c in mul_packed(state.get(-1 - j, {}), Dj).items():
                num[m] = num.get(m, 0) + c
        num = {m: sign * c for m, c in num.items() if c}
    result = SparsePolynomial.from_packed(num)
    if _max_z_index(result) or factors:
        raise NonElimination(f"z-variables survive the residue: {result}")
    return result


def _residue(num, tangent, w, factors=(), deferred=()) -> SparsePolynomial:
    """Residue of num over the z-forms of a tangent's terms at the levels
    w, with the extra (form, exponent) factors dividing and the deferred
    ones multiplying.  Negative tangent terms multiply too.  The block
    factorials of w are divided back out."""
    den, mul = [], []
    for sign, form in term_zforms(tangent):
        (den if sign > 0 else mul).append((form, 1))
    form = ResidueForm(num, den + list(factors), len(w) - 1,
                       deferred=mul + list(deferred))
    blocks = prod(factorial(size) for size in Counter(w).values())
    return iterated_residue(form) * Fraction(1, blocks)


def weighted_residue_rhs(Q: SparsePolynomial, n: int, dhat) -> SparsePolynomial:
    """Residue form of the block-coset sum over the flag variety.

    Equals sum over block-sorted injections sigma of Q(s_sigma) divided
    by the flag tangent Euler class, as a polynomial identity.
    """
    dims = _shape(n, (1,) + tuple(dhat))
    k = sum(dims) - 1
    if k > n:
        raise TooManyPoints(f"needs {k} flag steps in {n} variables")
    w = point_levels(dims)
    return _residue(Q, flag_terms(w, n), w)


def flag_fiber_Q(n: int, dims, P: TautClass) -> SparsePolynomial:
    """Integral of P over the fiber of the flag projection at the
    identity coset, as a polynomial in theta and s_1..s_{d-1}.

    Sums the gated localization contributions over the chains lying on
    the fiber; the denominators must clear, which the expansion checks.
    """
    dims = tuple(int(x) for x in dims)
    d = sum(dims)
    if d - 1 > n:
        raise TooManyPoints(f"fiber needs d-1 <= n, got d={d}, n={n}")
    return fixed_point_sum(
        n, dims, P, lambda np_: is_nilfil(np_) and in_flag_fiber(np_),
        fiber_tangent_class).expand()


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
    value = FactoredRational.from_poly(
        _residue(num, punctual_terms(w, n), w, deferred=obstruction))
    vdim = _net_rank(n, dims, "nilfil")
    _check_degree(value, P, vdim)
    return IntegralResult(value, vdim, "residue", "nilfil")


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
        num, flag_terms(e.w, e.n), e.w,
        [(_zform_of(v, k), m) for v, m in tangent.moving().items()],
        [(_zform_of(v, k), m) for v, m in obstruction.moving().items()])

