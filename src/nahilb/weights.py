"""Signed weight multisets of the deformation complexes at fixed points.

Each builder takes an enumeration u_0, ..., u_{d-1} of a nested chain
(position k carrying level w[k]) and produces the multiset of torus
weights of a virtual representation: the tangent space of the nested
Hilbert scheme, its punctual analogue, the obstruction bundle, or the
tangent space of a flag fiber.

Two routes exist for the main complexes.  The direct route multiplies out
the indexed character formula; the recursive route accumulates level
multisets S_m and assembles sum_m sum_{v in layer m} (S_m - v).  The
recursive route is the default; the direct products are kept as oracles
and the test suite checks they agree on every chain it can enumerate.
"""

from __future__ import annotations

from fractions import Fraction

from .algebra import FactoredRational, LinearForm, SparsePolynomial, linear_form_of
from .errors import IndexOutOfRange, NotInFiber, RequiresPointedDims
from .partitions import (
    Enumeration,
    extend_sigma,
    in_flag_fiber,
    point_levels,
    unit_vector,
)


def _vec_add(a: tuple, b: tuple) -> tuple:
    return tuple(x + y for x, y in zip(a, b))


def _vec_sub(a: tuple, b: tuple) -> tuple:
    return tuple(x - y for x, y in zip(a, b))


class SignedWeightMultiset:
    """Integer-multiplicity multiset of weight vectors in Z^n."""

    __slots__ = ("n", "counts")

    def __init__(self, n: int, counts: dict | None = None):
        self.n = n
        self.counts = {tuple(w): int(m) for w, m in (counts or {}).items()
                       if m != 0}

    def bump(self, weight: tuple, mult: int = 1):
        nm = self.counts.get(weight, 0) + mult
        if nm:
            self.counts[weight] = nm
        elif weight in self.counts:
            del self.counts[weight]

    def items(self) -> list:
        return sorted(self.counts.items())

    def net_rank(self) -> int:
        return sum(self.counts.values())

    def fixed_rank(self) -> int:
        return self.counts.get((0,) * self.n, 0)

    def moving(self) -> "SignedWeightMultiset":
        zero = (0,) * self.n
        return SignedWeightMultiset(
            self.n, {w: m for w, m in self.counts.items() if w != zero})

    def __add__(self, other) -> "SignedWeightMultiset":
        out = SignedWeightMultiset(self.n, self.counts)
        for w, m in other.counts.items():
            out.bump(w, m)
        return out

    def __sub__(self, other) -> "SignedWeightMultiset":
        out = SignedWeightMultiset(self.n, self.counts)
        for w, m in other.counts.items():
            out.bump(w, -m)
        return out

    def __eq__(self, other) -> bool:
        return (isinstance(other, SignedWeightMultiset)
                and self.n == other.n and self.counts == other.counts)

    __hash__ = None

    def __repr__(self) -> str:
        inner = ", ".join(f"{w}:{m}" for w, m in self.items())
        return f"SignedWeightMultiset({{{inner}}})"


def _require_pointed(e: Enumeration):
    if not e.dims or e.dims[0] != 1:
        raise RequiresPointedDims(
            f"operation needs dims starting with 1, got {e.dims}")


# direct indexed products


def tangent_class_direct(e: Enumeration) -> SignedWeightMultiset:
    """Tangent weights at a fixed point of the nested Hilbert scheme."""
    pts, w, d, n = e.points, e.w, e.d, e.n
    out = SignedWeightMultiset(n)
    for i in range(1, n + 1):
        ei = unit_vector(n, i)
        for k in range(d):
            out.bump(_vec_sub(ei, pts[k]))
    for i in range(1, d):
        for j in range(i, d):
            for k in range(d):
                if w[j] <= w[k]:
                    out.bump(_vec_sub(_vec_add(pts[i], pts[j]), pts[k]))
    for j in range(1, d):
        for k in range(d):
            if w[j] <= w[k]:
                out.bump(_vec_sub(pts[j], pts[k]), -1)
    return out


def tangent_class_punctual(e: Enumeration) -> SignedWeightMultiset:
    """Tangent weights of the punctual (nilpotent filtration) locus."""
    _require_pointed(e)
    pts, w, d, n = e.points, e.w, e.d, e.n
    out = SignedWeightMultiset(n)
    for i in range(1, n + 1):
        ei = unit_vector(n, i)
        for k in range(1, d):
            out.bump(_vec_sub(ei, pts[k]))
    for i in range(1, d):
        for j in range(i, d):
            for k in range(1, d):
                if w[j] < w[k]:
                    out.bump(_vec_sub(_vec_add(pts[i], pts[j]), pts[k]))
    for j in range(1, d):
        for k in range(1, d):
            if w[j] <= w[k]:
                out.bump(_vec_sub(pts[j], pts[k]), -1)
    return out


def epunct_class(e: Enumeration) -> SignedWeightMultiset:
    """Weights of the bundle relating the full and punctual tangents:
    tangent = punctual tangent + this class, checked by the test suite."""
    _require_pointed(e)
    pts, w, d, n = e.points, e.w, e.d, e.n
    out = SignedWeightMultiset(n)
    for i in range(1, n + 1):
        out.bump(unit_vector(n, i))
    for i in range(1, d):
        for j in range(i, d):
            for k in range(1, d):
                if w[j] == w[k]:
                    out.bump(_vec_sub(_vec_add(pts[i], pts[j]), pts[k]))
    return out


def obstruction_class_direct(e: Enumeration) -> SignedWeightMultiset:
    """Obstruction weights; all multiplicities are nonnegative."""
    pts, w, d, n = e.points, e.w, e.d, e.n
    out = SignedWeightMultiset(n)
    for i in range(1, d):
        for j in range(1, d):
            for k in range(i + 1, d):
                s = _vec_add(_vec_add(pts[i], pts[j]), pts[k])
                for m in range(d):
                    if w[j] <= w[m] and w[k] <= w[m]:
                        out.bump(_vec_sub(s, pts[m]))
    return out


def fiber_tangent_class_direct(e: Enumeration, sigma) -> SignedWeightMultiset:
    """Tangent weights of the flag fiber at a chain lying on it."""
    sigma = tuple(sigma)
    if not in_flag_fiber(e.nested(), sigma):
        raise NotInFiber(f"{e.nested()} is not on the fiber of {sigma}")
    pts, w, d, n = e.points, e.w, e.d, e.n
    out = SignedWeightMultiset(n)
    for i in range(1, d):
        ei = unit_vector(n, sigma[i - 1])
        for k in range(1, d):
            if w[i] <= w[k]:
                out.bump(_vec_sub(ei, pts[k]))
    for i in range(1, d):
        for j in range(i, d):
            for k in range(1, d):
                if w[j] < w[k]:
                    out.bump(_vec_sub(_vec_add(pts[i], pts[j]), pts[k]))
    for j in range(1, d):
        for k in range(1, d):
            if w[j] <= w[k]:
                out.bump(_vec_sub(pts[j], pts[k]), -1)
    return out


# recursive level multisets


def s_tangent_levels(e: Enumeration) -> list:
    """Level multisets S_m for the tangent: start from the coordinate
    weights, at level m adjoin pairs u_i + u_j whose larger index sits at
    level m, then delete the level-m points themselves."""
    pts, w, d, n = e.points, e.w, e.d, e.n
    r = len(e.dims) - 1
    cur: dict = {}
    for i in range(1, n + 1):
        cur[unit_vector(n, i)] = cur.get(unit_vector(n, i), 0) + 1
    out = []
    for m in range(r + 1):
        for j in range(1, d):
            if w[j] != m:
                continue
            for i in range(1, j + 1):
                v = _vec_add(pts[i], pts[j])
                cur[v] = cur.get(v, 0) + 1
        for j in range(1, d):
            if w[j] == m:
                cur[pts[j]] = cur.get(pts[j], 0) - 1
        cur = {k: v for k, v in cur.items() if v}
        if any(v < 0 for v in cur.values()):
            raise IndexOutOfRange("level multiset went negative: the "
                                  "enumeration is not a chain order")
        out.append(dict(cur))
    return out


def s_ass_levels(e: Enumeration) -> list:
    """Level multisets for the obstruction: triple sums u_i + u_j + u_k
    with i < k and the j, k levels at most m."""
    pts, w, d = e.points, e.w, e.d
    r = len(e.dims) - 1
    out = []
    for m in range(r + 1):
        cur: dict = {}
        for i in range(1, d):
            for j in range(1, d):
                if w[j] > m:
                    continue
                for k in range(i + 1, d):
                    if w[k] > m:
                        continue
                    v = _vec_add(_vec_add(pts[i], pts[j]), pts[k])
                    cur[v] = cur.get(v, 0) + 1
        out.append(cur)
    return out


def s_fiber_levels(e: Enumeration, sigma) -> list:
    """Level multisets for the flag fiber tangent: level m adjoins the
    sigma-coordinates of level m and the pairs whose larger index sits at
    level m - 1, then deletes the level-m points."""
    sigma = tuple(sigma)
    pts, w, d, n = e.points, e.w, e.d, e.n
    r = len(e.dims) - 1
    cur: dict = {}
    out = [dict(cur)]
    for m in range(1, r + 1):
        for i in range(1, d):
            if w[i] == m:
                v = unit_vector(n, sigma[i - 1])
                cur[v] = cur.get(v, 0) + 1
        for j in range(1, d):
            if w[j] != m - 1:
                continue
            for i in range(1, j + 1):
                v = _vec_add(pts[i], pts[j])
                cur[v] = cur.get(v, 0) + 1
        for j in range(1, d):
            if w[j] == m:
                cur[pts[j]] = cur.get(pts[j], 0) - 1
        cur = {k: v for k, v in cur.items() if v}
        if any(v < 0 for v in cur.values()):
            raise IndexOutOfRange("level multiset went negative: the "
                                  "enumeration is not a chain order")
        out.append(dict(cur))
    return out


def _assemble(e: Enumeration, levels: list) -> SignedWeightMultiset:
    """sum over points v of (S_{level of v} translated by -v)."""
    out = SignedWeightMultiset(e.n)
    for k, v in enumerate(e.points):
        for u, mult in levels[e.w[k]].items():
            out.bump(_vec_sub(u, v), mult)
    return out


def tangent_class(e: Enumeration) -> SignedWeightMultiset:
    """Tangent weights, assembled from the recursive level multisets."""
    return _assemble(e, s_tangent_levels(e))


def obstruction_class(e: Enumeration) -> SignedWeightMultiset:
    """Obstruction weights, assembled from the recursive level multisets."""
    return _assemble(e, s_ass_levels(e))


def fiber_tangent_class(e: Enumeration, sigma) -> SignedWeightMultiset:
    """Flag fiber tangent weights, assembled from the level multisets."""
    sigma = tuple(sigma)
    if not in_flag_fiber(e.nested(), sigma):
        raise NotInFiber(f"{e.nested()} is not on the fiber of {sigma}")
    return _assemble(e, s_fiber_levels(e, sigma))


def fixed_ranks(e: Enumeration) -> tuple:
    """(tangent fixed rank, obstruction fixed rank) from the coincidence
    counts: a non-unit point u contributes (number of two-point sums
    hitting u) - 1 on the tangent side and the number of constrained
    three-point sums hitting it on the obstruction side."""
    pts, d = e.points, e.d
    units = {unit_vector(e.n, i) for i in range(1, e.n + 1)}
    wt = 0
    wb = 0
    for m in range(1, d):
        um = pts[m]
        if um not in units:
            pairs = sum(1 for i in range(1, d) for j in range(i, d)
                        if _vec_add(pts[i], pts[j]) == um)
            wt += pairs - 1
        wb += sum(1 for i in range(1, d) for j in range(1, d)
                  for k in range(i + 1, d)
                  if _vec_add(_vec_add(pts[i], pts[j]), pts[k]) == um)
    return wt, wb


def euler_class(m: SignedWeightMultiset, namespace: str) -> FactoredRational:
    """Product of the weight forms with their multiplicities.

    Zero weights are skipped regardless of multiplicity: the product runs
    over nonzero weights only."""
    zero = (0,) * m.n
    factors = [(linear_form_of(w, namespace), mult)
               for w, mult in m.items() if w != zero]
    return FactoredRational.build(Fraction(1), SparsePolynomial.one(), factors)


def flag_tangent_euler(sigma, n: int, dims) -> FactoredRational:
    """Euler class of the flag variety tangent space at the coset sigma;
    dims is the pointed layer tuple, whose tail gives the flag steps."""
    sigma = tuple(sigma)
    dims = tuple(int(x) for x in dims)
    if not dims or dims[0] != 1:
        raise RequiresPointedDims(f"dims must start with 1, got {dims}")
    dhat = dims[1:]
    k = sum(dhat)
    ext = extend_sigma(sigma, n)
    w = list(point_levels((1,) + dhat))[1:]  # levels 1..r on the flag slots
    w = w + [len(dhat) + 1] * (n - k)
    factors = []
    for j in range(1, k + 1):
        for i in range(1, n + 1):
            if w[i - 1] > w[j - 1]:
                form = LinearForm({("s", ext[i - 1]): Fraction(1),
                                   ("s", ext[j - 1]): Fraction(-1)})
                factors.append((form, 1))
    return FactoredRational.build(Fraction(1), SparsePolynomial.one(), factors)


# index counts independent of the chain (net ranks depend on dims alone)


def tangent_net_count(n: int, dims) -> int:
    dims = tuple(dims)
    w = point_levels(dims)
    d = sum(dims)
    fam2 = sum(1 for i in range(1, d) for j in range(i, d) for k in range(d)
               if w[j] <= w[k])
    fam3 = sum(1 for j in range(1, d) for k in range(d) if w[j] <= w[k])
    return n * d + fam2 - fam3


def punctual_net_count(n: int, dims) -> int:
    dims = tuple(dims)
    w = point_levels(dims)
    d = sum(dims)
    fam2 = sum(1 for i in range(1, d) for j in range(i, d)
               for k in range(1, d) if w[j] < w[k])
    fam3 = sum(1 for j in range(1, d) for k in range(1, d) if w[j] <= w[k])
    return n * (d - 1) + fam2 - fam3


def obstruction_net_count(dims) -> int:
    dims = tuple(dims)
    w = point_levels(dims)
    d = sum(dims)
    return sum(1 for i in range(1, d) for j in range(1, d)
               for k in range(i + 1, d) for m in range(d)
               if w[j] <= w[m] and w[k] <= w[m])
