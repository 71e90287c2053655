"""Iterated residues computing nil-fil integrals without fixed points.

The residue operator expands a rational form as a Laurent series in the
regime z_1 << ... << z_k, eliminating variables from the highest index
down; each step takes minus the coefficient of z_M^{-1}.  The engine
consumes forms whose denominators are products of linear factors, which
covers every integrand produced here.

The flag decomposition behind the main formula sums over unordered
block cosets while the residue telescopes over ordered assignments of
the z-variables to the s-parameters, so the raw residue overshoots by
the product of the block factorials.  Every entry point divides it back
out; the weighted-residue identity in the test suite pins the factor.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial

from .algebra import (
    FIELD_MASK,
    FactoredRational,
    LinearForm,
    SparsePolynomial,
    linear_form_of,
    mul_linear,
    sum_factored,
    var_shift,
)
from .errors import (
    IndexOutOfRange,
    NonElimination,
    RequiresNilfil,
    RequiresPointedDims,
    TooManyPoints,
)
from .localization import IntegralResult, TautClass, restrict_class, _check_degree
from .partitions import (
    NestedPartition,
    canonical_enumeration,
    enumerate_nested,
    identity_sigma,
    in_flag_fiber,
    is_nilfil,
    point_levels,
)
from .weights import (
    euler_class,
    fiber_tangent_class,
    obstruction_class,
    obstruction_net_count,
    punctual_net_count,
)

RESIDUE_SIGN = -1


def _max_z_index(poly: SparsePolynomial) -> int:
    return max((idx for ns, idx in poly.variables() if ns == "z"), default=0)


def _z_factors(pairs, kind: str) -> tuple:
    """(form, exponent) pairs with positive exponents and z in every form."""
    out = []
    for form, exp in pairs:
        if int(exp) <= 0:
            raise ValueError(f"{kind} exponents must be positive")
        if form.max_index("z") < 1:
            raise ValueError(f"{kind} factor {form} is free of z")
        out.append((form, int(exp)))
    return tuple(out)


class ResidueForm:
    """numerator / product of linear factors in z_1..z_{z_count}.

    Every denominator factor must involve a z-variable; z-free factors
    belong in the numerator's rational content instead.  Linear factors
    of the numerator can be passed in `deferred`: they multiply in only
    once elimination reaches their top z-variable, which keeps the
    earlier rounds working on much smaller polynomials.
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
            raise ValueError(f"z_{top} exceeds z_count={self.z_count}")

    def __repr__(self) -> str:
        num = f"({self.numerator})"
        num += "".join(f"*({f})" + (f"^{e}" if e > 1 else "")
                       for f, e in self.deferred)
        den = "*".join(f"({f})" + (f"^{e}" if e > 1 else "")
                       for f, e in self.factors) or "1"
        return f"ResidueForm({num} / {den}, z_count={self.z_count})"


def iterated_residue(f: ResidueForm, margin: int = 0) -> SparsePolynomial:
    """Iterated residue at infinity, eliminating z_{z_count} down to z_1.

    Per round, each factor whose top z-variable is the current one is
    expanded as a geometric series in 1/z_M; the series are folded into
    the numerator while discarding exponents that can no longer reach
    -1 past the factors still pending.  margin loosens that cutoff and
    must never change the result.
    """
    num = dict(f.numerator.terms)
    factors = list(f.factors)
    pending = list(f.deferred)
    for M in range(f.z_count, 0, -1):
        for form, e in [fe for fe in pending if fe[0].max_index("z") == M]:
            fi = form.packed_items()
            for _ in range(e):
                num = mul_linear(num, fi)
        pending = [fe for fe in pending if fe[0].max_index("z") < M]
        if not num:
            return SparsePolynomial.zero()
        zM = ("z", M)
        active = [fe for fe in factors if fe[0].max_index("z") == M]
        factors = [fe for fe in factors if fe[0].max_index("z") < M]
        sM = var_shift(zM)
        state: dict = {}
        for m, c in num.items():
            e = (m >> sM) & FIELD_MASK
            state.setdefault(e, {})[m - (e << sM)] = c
        rem = sum(e for _, e in active)
        for form, e in active:
            rem -= e
            c = form.coeffs[zM]
            rest = form.packed_items(skip=zM)
            floor = rem - 1 - margin
            tcap = (max(state) if state else 0) - e - floor
            series = []
            for t in range(max(tcap, 0) + 1):
                co = Fraction((-1) ** t * comb(e - 1 + t, t), c ** (e + t))
                series.append(co.numerator if co.denominator == 1 else co)
            new_state: dict = {}
            for expo, poly in state.items():
                # running product poly * rest^t; multiplying by the small
                # linear rest each step beats forming the powers outright
                q = poly
                for t in range(expo - e - floor + 1):
                    if t:
                        if not rest:
                            break
                        q = mul_linear(q, rest)
                        if not q:
                            break
                    ct = series[t]
                    ne = expo - e - t
                    acc = new_state.get(ne)
                    if acc is None:
                        new_state[ne] = {m: co * ct for m, co in q.items()}
                        continue
                    get = acc.get
                    for m, co in q.items():
                        nc = get(m, 0) + co * ct
                        if nc:
                            acc[m] = nc
                        elif m in acc:
                            del acc[m]
            state = {k: v for k, v in new_state.items() if v}
        num = {m: RESIDUE_SIGN * c for m, c in state.get(-1, {}).items()}
    result = SparsePolynomial.from_packed(num)
    if _max_z_index(result) or factors:
        raise NonElimination(f"z-variables survive the residue: {result}")
    return result


def _z_blocks(dhat) -> list:
    """Level of each z-variable, 1-based list of length sum(dhat)."""
    return list(point_levels((1,) + tuple(dhat)))[1:]


def _vandermonde_factors(levels) -> list:
    """Linear factors of the cross-block Vandermonde: pairs in the same
    block keep both orders, cross-block pairs one."""
    k = len(levels)
    out = []
    for l in range(1, k + 1):
        for m in range(l + 1, k + 1):
            form = LinearForm({("z", l): 1, ("z", m): -1})
            out.append((form, 1))
            if levels[l - 1] == levels[m - 1]:
                out.append((-form, 1))
    return out


def _parameter_factors(n: int, k: int) -> list:
    return [(LinearForm({("s", i): Fraction(1), ("z", l): Fraction(-1)}), 1)
            for i in range(1, n + 1) for l in range(1, k + 1)]


def _block_factorial(dhat) -> Fraction:
    out = 1
    for x in dhat:
        out *= factorial(x)
    return Fraction(1, out)


def weighted_residue_rhs(Q: SparsePolynomial, n: int, dhat,
                         margin: int = 0) -> SparsePolynomial:
    """Residue form of the block-coset sum over the flag variety.

    Equals sum over block-sorted injections sigma of Q(s_sigma) divided
    by the flag tangent Euler class, as a polynomial identity.
    """
    dhat = tuple(int(x) for x in dhat)
    k = sum(dhat)
    if k > n:
        raise TooManyPoints(f"needs {k} flag steps in {n} variables")
    levels = _z_blocks(dhat)
    form = ResidueForm(Q, _parameter_factors(n, k), k,
                       deferred=_vandermonde_factors(levels))
    return iterated_residue(form, margin) * _block_factorial(dhat)


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
    sigma = identity_sigma(d)
    terms = []
    for np_ in enumerate_nested(n, dims):
        if not is_nilfil(np_) or not in_flag_fiber(np_, sigma):
            continue
        e = canonical_enumeration(np_)
        tangent = fiber_tangent_class(e, sigma)
        obstruction = obstruction_class(e)
        if tangent.fixed_rank() != obstruction.fixed_rank():
            continue
        value = FactoredRational.from_poly(restrict_class(P, e))
        value = value * euler_class(obstruction.moving(), "s")
        value = value / euler_class(tangent.moving(), "s")
        terms.append(value.simplify())
    return sum_factored(terms).expand()


def _require_pointed_dims(dims) -> tuple:
    dims = tuple(int(x) for x in dims)
    if not dims or dims[0] != 1:
        raise RequiresPointedDims(f"dims must start with 1, got {dims}")
    return dims


def _restrict_to_z(P: TautClass, points) -> SparsePolynomial:
    """P with eta_j sent to the z-form of the j-th chain point."""
    k = len(points) - 1
    mapping = {}
    for ns, idx in P.poly.variables():
        if ns != "eta":
            continue
        mapping[(ns, idx)] = _zform_of(points[idx], k).as_poly()
    return P.poly.substitute(mapping) if mapping else P.poly


def _zform_of(vec, k: int) -> LinearForm:
    if any(vec[k:]):
        raise IndexOutOfRange(f"{vec} uses coordinates beyond z_{k}")
    return linear_form_of(vec[:k], "z")


def integrate_residue_nilfil(n: int, dims, P: TautClass,
                             margin: int = 0) -> IntegralResult:
    """Nil-fil integral of P by the closed residue formula.

    Needs no fixed-point enumeration and no bound between the chain
    length and n; agreement with the localization sum where both apply
    is part of the acceptance suite.
    """
    dims = _require_pointed_dims(dims)
    d = sum(dims)
    k = d - 1
    w = point_levels(dims)
    zlf = [LinearForm()] + [LinearForm({("z", l): 1}) for l in range(1, k + 1)]
    zeta = {("eta", j): zlf[j].as_poly() for j in range(1, k + 1)}
    num = P.poly.substitute({v: p for v, p in zeta.items()
                             if v in P.poly.variables()})
    deferred = _vandermonde_factors(list(w)[1:])
    for i in range(1, k + 1):
        for kk in range(i + 1, k + 1):
            for j in range(1, k + 1):
                for m in range(k + 1):
                    if w[j] <= w[m] and w[kk] <= w[m]:
                        form = zlf[i] + zlf[j] + zlf[kk] - zlf[m]
                        if not form.is_zero():
                            deferred.append((form, 1))
    factors = _parameter_factors(n, k)
    for i in range(1, k + 1):
        for j in range(i, k + 1):
            for kk in range(1, k + 1):
                if w[j] < w[kk]:
                    form = zlf[i] + zlf[j] - zlf[kk]
                    if not form.is_zero():
                        factors.append((form, 1))
    raw = iterated_residue(ResidueForm(num, factors, k, deferred=deferred),
                           margin)
    value = FactoredRational.from_poly(raw * _block_factorial(dims[1:]))
    vdim = punctual_net_count(n, dims) - obstruction_net_count(dims)
    _check_degree(value, P, vdim)
    return IntegralResult(value, vdim, "residue", "nilfil")


def residue_term(np_: NestedPartition, n: int, dims, P: TautClass,
                 margin: int = 0) -> SparsePolynomial:
    """Contribution of one fiber chain to the residue decomposition:
    the residue of the kernel against the chain's own Euler data."""
    dims = _require_pointed_dims(dims)
    if tuple(np_.dims) != dims or np_.n != n:
        raise ValueError(f"chain has n={np_.n}, dims={np_.dims}")
    sigma = identity_sigma(np_.d)
    if not in_flag_fiber(np_, sigma):
        raise RequiresNilfil(f"{np_} is not on the identity fiber")
    e = canonical_enumeration(np_)
    tangent = fiber_tangent_class(e, sigma)
    obstruction = obstruction_class(e)
    if tangent.fixed_rank() != obstruction.fixed_rank():
        return SparsePolynomial.zero()
    k = e.d - 1
    num = _restrict_to_z(P, e.points)
    deferred = _vandermonde_factors(list(e.w)[1:])
    for vec, mult in obstruction.moving().items():
        deferred.append((_zform_of(vec, k), mult))
    factors = _parameter_factors(n, k)
    for vec, mult in tangent.moving().items():
        factors.append((_zform_of(vec, k), mult))
    raw = iterated_residue(ResidueForm(num, factors, k, deferred=deferred),
                           margin)
    return raw * _block_factorial(dims[1:])


def residue_term_vanishes(np_: NestedPartition, n: int, dims,
                          P: TautClass) -> bool:
    """Whether the chain's residue term is exactly zero; true for every
    non-Porteous member of the fiber."""
    return residue_term(np_, n, dims, P).is_zero()
