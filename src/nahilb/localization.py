"""Virtual localization over nested Hilbert schemes of affine space.

Integrals are sums over the monomial fixed points of the torus action.
A chain contributes the restriction of the integrand times the Euler
class of its moving obstruction weights over the Euler class of its
moving tangent weights, and only when the fixed parts of the two
complexes have equal rank; chains failing that gate contribute zero.
"""

from __future__ import annotations

from fractions import Fraction

from .algebra import (
    FactoredRational,
    LinearForm,
    SparsePolynomial,
    linear_form_of,
    sum_factored,
)
from .errors import (
    IndexOutOfRange,
    InconsistentDegree,
    InconsistentVirtualDimension,
    NoFixedPoints,
    NotBisymmetric,
    ParseError,
    RequiresFullFlag,
    RequiresNilfil,
    SizeGuardExceeded,
)
from .partitions import (
    Enumeration,
    _shape,
    canonical_enumeration,
    enumerate_nested,
    is_nilfil,
)
from .weights import (
    epunct_class,
    euler_class,
    obstruction_class,
    obstruction_net_count,
    punctual_net_count,
    tangent_class,
    tangent_class_punctual,
    tangent_net_count,
)

# the most twisting roots theta_i a job may have: the terms of a Chern
# class in them grow like a power of q
MAX_Q = 16


class TautClass:
    """Polynomial integrand in theta_1..theta_q and eta_1..eta_{d-1}.

    theta_i are the Chern roots of the twisting representation and eta_j
    is the weight of the j-th chain point (eta_0 = 0 stays implicit).
    Construction checks symmetry in the theta_i; the symmetry the eta_j
    need depends on the layers of a job, which check_layer_symmetry
    checks once per job.
    """

    __slots__ = ("poly", "q", "d")

    def __init__(self, poly, q: int, d: int):
        if isinstance(poly, (int, Fraction)):
            poly = SparsePolynomial.constant(poly)
        self.poly = poly
        self.q = int(q)
        self.d = int(d)
        if self.q < 0 or self.d < 1:
            raise IndexOutOfRange(f"invalid block sizes q={q}, d={d}")
        _check_q(self.q)
        for ns, idx in poly.variables():
            if ns == "theta" and not 1 <= idx <= self.q:
                raise IndexOutOfRange(f"theta_{idx} outside 1..{self.q}")
            if ns == "eta" and not 1 <= idx <= self.d - 1:
                raise IndexOutOfRange(f"eta_{idx} outside 1..{self.d - 1}")
            if ns == "z":
                raise IndexOutOfRange("z-variables are residue-internal")
        _check_swaps(poly, "theta", range(1, self.q))

    def __eq__(self, other) -> bool:
        return (isinstance(other, TautClass) and self.poly == other.poly
                and self.q == other.q and self.d == other.d)

    __hash__ = None

    def __repr__(self) -> str:
        return f"TautClass({self.poly}, q={self.q}, d={self.d})"


def _check_q(q: int) -> None:
    """Refuse more twisting roots than MAX_Q before anything is built."""
    if q > MAX_Q:
        raise SizeGuardExceeded(f"q = {q} exceeds the cap {MAX_Q}")


def _check_swaps(poly: SparsePolynomial, ns: str, indices) -> None:
    """Refuse poly unless it is symmetric under ns_i <-> ns_{i+1} for each
    i of indices."""
    for i in indices:
        a, b = (ns, i), (ns, i + 1)
        swap = {a: SparsePolynomial.variable(b),
                b: SparsePolynomial.variable(a)}
        if poly.substitute(swap) != poly:
            raise NotBisymmetric(f"not symmetric under {ns}_{i} <-> {ns}_{i + 1}")


def check_layer_symmetry(P: TautClass, dims) -> None:
    """Refuse P unless it is symmetric in the eta_j of each layer of dims.

    The j-th chain point has weight eta_j, and the enumerations of a
    chain reorder points only within a layer.  Position 0 is always the
    origin, since every other point needs a predecessor placed before it,
    so eta_0 = 0 takes no part."""
    start = 0
    for size in dims:
        _check_swaps(P.poly, "eta", range(max(start, 1), start + size - 1))
        start += size


class IntegralResult:
    """Value of a virtual integral together with how it was computed."""

    __slots__ = ("value", "vdim", "method", "space")

    def __init__(self, value: FactoredRational, vdim: int, method: str,
                 space: str):
        self.value = value
        self.vdim = vdim
        self.method = method
        self.space = space

    def __repr__(self) -> str:
        return (f"IntegralResult({self.value}, vdim={self.vdim}, "
                f"method={self.method}, space={self.space})")


def chern_taut(k: int, q: int, d: int, dual: bool = False) -> TautClass:
    """k-th Chern class of the twisted tautological bundle, an elementary
    symmetric polynomial in the roots theta_i - eta_j (0 <= j <= d-1).

    For q = 0 the roots degenerate to the d values -eta_j, or eta_j when
    dual is set.
    """
    _check_q(q)
    limit = d if q == 0 else q * d
    if not 0 <= k <= limit:
        raise IndexOutOfRange(f"no c_{k} with q={q}, d={d}")
    roots = []
    sign = -1 if dual else 1
    for j in range(d):
        eta = LinearForm({("eta", j): 1} if j else {})
        if q == 0:
            roots.append(eta * -sign)
        else:
            for i in range(1, q + 1):
                roots.append((LinearForm({("theta", i): 1}) - eta) * sign)
    elem = [SparsePolynomial.one()] + [SparsePolynomial.zero()] * k
    for root in roots:
        for t in range(min(k, len(roots)), 0, -1):
            elem[t] = elem[t] + root * elem[t - 1]
    return TautClass(elem[k], q, d)


def _restrict_etas(P: TautClass, d: int, value_of) -> SparsePolynomial:
    """P with each eta_j sent to value_of(j); a chain of d points has no
    eta_j with j >= d."""
    etas = [idx for ns, idx in P.poly.variables() if ns == "eta"]
    if etas and max(etas) >= d:
        raise IndexOutOfRange(
            f"eta_{max(etas)} needs a chain of more than {d} points")
    mapping = {("eta", j): value_of(j) for j in etas}
    return P.poly.substitute(mapping) if mapping else P.poly


def restrict_class(P: TautClass, e: Enumeration) -> SparsePolynomial:
    """Specialize eta_j to the weight of the j-th chain point of e."""
    return _restrict_etas(P, e.d, lambda j: linear_form_of(e.points[j], "s"))


def passes_gate(tangent, obstruction) -> bool:
    """The fixed-rank gate: a chain contributes only when the fixed parts
    of its tangent and obstruction have equal rank."""
    return tangent.fixed_rank() == obstruction.fixed_rank()


def gated_term(e: Enumeration, tangent, P: TautClass, extra=None):
    """(value, tangent net rank - obstruction net rank) of one chain: the
    restriction of P times e(moving obstruction) over e(moving tangent)
    * e(extra), or None as the value when the chain fails the gate.

    The Euler class is taken once, of the signed multiset obstruction -
    tangent [- extra]: euler_class skips the zero weights and merges
    proportional forms, so this is the quotient's canonical form."""
    obstruction = obstruction_class(e)
    rank = tangent.net_rank() - obstruction.net_rank()
    if not passes_gate(tangent, obstruction):
        return None, rank
    weights = obstruction - tangent
    if extra is not None:
        weights = weights - extra
    value = FactoredRational.from_poly(restrict_class(P, e))
    return (value * euler_class(weights, "s")).simplify(), rank


def fixed_point_sum(n: int, dims, P: TautClass, select, tangent_of,
                    extra_of=None, vdim=None) -> FactoredRational:
    """Sum of the gated terms of the chains of (n, dims) that select
    admits (every chain when select is None), each at its canonical
    enumeration.  Given vdim, every chain's net rank must equal it."""
    terms = []
    for np_ in enumerate_nested(n, dims):
        if select is not None and not select(np_):
            continue
        e = canonical_enumeration(np_)
        extra = None if extra_of is None else extra_of(e)
        value, rank = gated_term(e, tangent_of(e), P, extra)
        if vdim is not None and rank != vdim:
            raise InconsistentVirtualDimension(
                f"{np_} reports {rank}, expected {vdim}")
        if value is not None:
            terms.append(value)
    return sum_factored(terms)


def _space(space: str) -> tuple:
    """(chain filter or None, tangent builder, tangent net count)."""
    if space == "nilfil":
        return is_nilfil, tangent_class_punctual, punctual_net_count
    if space == "nhilb":
        return None, tangent_class, tangent_net_count
    raise ParseError(f"unknown space {space!r}")


def _net_rank(n: int, dims, space: str) -> int:
    """Tangent net rank minus obstruction net rank, which dims alone
    determine: the virtual dimension of the space."""
    return _space(space)[2](n, dims) - obstruction_net_count(dims)


def contribution(e: Enumeration, space: str, P: TautClass) -> FactoredRational:
    """Localization contribution of a single fixed chain.  It does not
    check P's layer symmetry; a job over many chains does that once."""
    select, tangent_of, _ = _space(space)
    if select is not None and not select(e.nested()):
        raise RequiresNilfil(f"{e.nested()} has a non-nilpotent step")
    value, _ = gated_term(e, tangent_of(e), P)
    return FactoredRational.zero() if value is None else value


def integrate_localization(n: int, dims, space: str,
                           P: TautClass) -> IntegralResult:
    """Equivariant virtual integral of P as a sum over fixed chains."""
    select, tangent_of, _ = _space(space)
    dims = _shape(n, dims)
    check_layer_symmetry(P, dims)
    vdim = _net_rank(n, dims, space)
    value = fixed_point_sum(n, dims, P, select, tangent_of, vdim=vdim)
    _check_degree(value, P, vdim)
    return IntegralResult(value, vdim, "localization", space)


def _check_degree(value: FactoredRational, P: TautClass, vdim: int):
    pdeg = P.poly.homogeneous_degree()
    if value.is_zero() or pdeg is None:
        return
    degree = value.homogeneous_degree()
    if degree != pdeg - vdim:
        raise InconsistentDegree(f"degree {degree} != {pdeg} - {vdim}")


def reduce_full_flag(n: int, r: int, P: TautClass) -> IntegralResult:
    """Full-flag integral over r nesting steps (the chain has r + 1
    points) computed on the nilpotent filtration locus.

    The pushforward identity divides each contribution by the Euler
    class of the punctual-to-full correction bundle, so the sum runs
    over the small fixed set but reproduces the ambient integral.
    """
    if r < 0:
        raise RequiresFullFlag(f"need r >= 0, got {r}")
    dims = _shape(n, (1,) * (r + 1))
    check_layer_symmetry(P, dims)
    vdim = _net_rank(n, dims, "nhilb")
    value = fixed_point_sum(n, dims, P, is_nilfil, tangent_class_punctual,
                            epunct_class)
    _check_degree(value, P, vdim)
    return IntegralResult(value, vdim, "localization", "nhilb")


def cy_restrict(v: FactoredRational, n: int) -> FactoredRational:
    """Restrict to the subtorus where the weights sum to zero by
    substituting s_n = -(s_1 + ... + s_{n-1})."""
    form = LinearForm({("s", i): Fraction(-1) for i in range(1, n)})
    return v.substitute_linear({("s", n): form})


def virtual_dimension(n: int, dims, space: str) -> int:
    """Net tangent rank minus obstruction rank, constant over the fixed
    set; raises when the space has no fixed points at all."""
    select = _space(space)[0]
    dims = tuple(int(x) for x in dims)
    if not any(select is None or select(p) for p in enumerate_nested(n, dims)):
        raise NoFixedPoints(f"no fixed chains for n={n}, dims={dims}, {space}")
    return _net_rank(n, dims, space)
