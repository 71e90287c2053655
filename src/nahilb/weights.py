"""Signed weight multisets of the deformation complexes at fixed points.

Each builder takes an enumeration u_0, ..., u_{d-1} of a nested chain
(position k carrying level w[k]) and produces the multiset of torus
weights of a virtual representation: the tangent space of the nested
Hilbert scheme, its punctual analogue, the obstruction bundle, or the
tangent space of a flag fiber.

The indexed character formulas are stated once, as generators of terms
(sign, c, plus, m) that read only the levels w and n: each
term is sign * (e_c + sum of u_p over p in plus - u_m), where u_0 = 0
and c or m may be None.  Three maps read that statement: term_weights
evaluates the terms at a chain (the direct builders), term_count counts
them with sign (the net ranks), and term_zforms turns point p into the
residue variable z_p (the residue forms).

The recursive route assembles sum_m sum_{v in layer m} (S_m - v) over a
list S_m with repeats, counted once; each builder yields what level m
adds to S and removes.  It never reads the term statement; it is the
default for the tangent, obstruction and fiber tangent, and the tests
check the direct builders against it on every chain they can enumerate.

Inside this module a weight vector is one int (pack/unpack): coordinate i
of (c_1, ..., c_n) is a signed FIELD_BITS-bit digit of weight
2^(FIELD_BITS * (n - i)), written in balanced form, so the first
coordinate is the most significant, int order is lexicographic tuple
order, the zero vector is 0, and a sum or difference of vectors is an int
+ or -.  pack refuses a coordinate with |c| >= GUARD = 2^13 with
IndexOutOfRange, so a signed sum of four packed vectors (the widest the
builders form: u_i + u_j + u_k - u_m) stays inside its fields and never
carries.  Tuples appear only at the boundary: the SignedWeightMultiset
constructor, items and repr.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import (
    chain,
    combinations,
    combinations_with_replacement,
    islice,
    product,
    starmap,
)
from math import gcd
from operator import add, eq, le, lt, sub

from .algebra import (FactoredRational, LinearForm, SparsePolynomial,
                      canonical_factors, linear_form_of)
from .errors import IndexOutOfRange, NotInFiber
from .partitions import Enumeration, in_flag_fiber, point_levels, require_pointed


FIELD_BITS = 16
GUARD = 1 << 13
_HALF = 1 << (FIELD_BITS - 1)
_MASK = (1 << FIELD_BITS) - 1


def pack(v) -> int:
    """The packed int of the integer vector v; see the module docstring."""
    x = 0
    for c in v:
        if not -GUARD < c < GUARD:
            raise IndexOutOfRange(
                f"weight coordinate {c} is outside (-{GUARD}, {GUARD})")
        x = (x << FIELD_BITS) + c
    return x


def unpack(x: int, n: int) -> tuple:
    """The vector in Z^n whose packed int is x."""
    out = []
    for _ in range(n):
        c = ((x + _HALF) & _MASK) - _HALF
        out.append(c)
        x = (x - c) >> FIELD_BITS
    return tuple(reversed(out))


def _packed_points(e: Enumeration) -> tuple:
    return tuple(map(pack, e.points))


def _packed_units(n: int) -> tuple:
    """(None, e_1, ..., e_n) packed, indexed by the 1-based coordinate."""
    return (None,) + tuple(1 << FIELD_BITS * (n - i) for i in range(1, n + 1))


class SignedWeightMultiset:
    """Integer-multiplicity multiset of weight vectors in Z^n.

    counts maps packed weights to nonzero multiplicities; the constructor
    and items take and give tuples."""

    __slots__ = ("n", "counts")

    def __init__(self, n: int, counts: dict | None = None):
        self.n, self.counts = n, {}
        for w, m in (counts or {}).items():
            if m:
                if len(w := tuple(w)) != n:
                    raise IndexOutOfRange(f"weight {w} is not in Z^{n}")
                self.counts[pack(w)] = int(m)

    @classmethod
    def from_packed(cls, n: int, counts: dict) -> "SignedWeightMultiset":
        """The multiset with these counts of packed weights; zero counts
        are dropped."""
        m = cls.__new__(cls)
        m.n = n
        m.counts = {w: c for w, c in counts.items() if c}
        return m

    def items(self) -> list:
        """(weight tuple, multiplicity) pairs in lexicographic order."""
        n = self.n
        return [(unpack(w, n), m) for w, m in sorted(self.counts.items())]

    def net_rank(self) -> int:
        return sum(self.counts.values())

    def fixed_rank(self) -> int:
        return self.counts.get(0, 0)

    def moving(self) -> "SignedWeightMultiset":
        return SignedWeightMultiset.from_packed(self.n, {
            w: m for w, m in self.counts.items() if w})

    def _copy_counts(self, other) -> Counter:
        """A copy of the counts; other must live in the same Z^n, since
        packed weights of different lengths would mix their fields."""
        if other.n != self.n:
            raise IndexOutOfRange(
                f"cannot combine weights in Z^{self.n} and Z^{other.n}")
        return Counter(self.counts)

    def __add__(self, other) -> "SignedWeightMultiset":
        counts = self._copy_counts(other)
        counts.update(other.counts)
        return SignedWeightMultiset.from_packed(self.n, counts)

    def __sub__(self, other) -> "SignedWeightMultiset":
        counts = self._copy_counts(other)
        counts.subtract(other.counts)
        return SignedWeightMultiset.from_packed(self.n, counts)

    def __eq__(self, other) -> bool:
        return (isinstance(other, SignedWeightMultiset)
                and self.n == other.n and self.counts == other.counts)

    __hash__ = None

    def __repr__(self) -> str:
        inner = ", ".join(f"{w}:{m}" for w, m in self.items())
        return f"SignedWeightMultiset({{{inner}}})"


# the written statement: index sets and the three maps that read them


def _coordinate_terms(n: int, d: int, first: int):
    """e_i - u_k for every coordinate i and every k >= first."""
    for i in range(1, n + 1):
        for k in range(first, d):
            yield 1, i, (), k


def _pair_terms(w, first: int, keep):
    """u_i + u_j - u_k for 1 <= i <= j and k >= first with keep(w_j, w_k)."""
    d = len(w)
    for i in range(1, d):
        for j in range(i, d):
            for k in range(first, d):
                if keep(w[j], w[k]):
                    yield 1, None, (i, j), k


def _point_terms(w, first: int):
    """-(u_j - u_k) for j >= 1 and k >= first with w_j <= w_k."""
    d = len(w)
    for j in range(1, d):
        for k in range(first, d):
            if w[j] <= w[k]:
                yield -1, None, (j,), k


def tangent_terms(w, n: int):
    """Tangent space of the nested Hilbert scheme."""
    return chain(_coordinate_terms(n, len(w), 0), _pair_terms(w, 0, le),
                 _point_terms(w, 0))


def punctual_terms(w, n: int):
    """Tangent space of the punctual (nilpotent filtration) locus."""
    return chain(_coordinate_terms(n, len(w), 1), _pair_terms(w, 1, lt),
                 _point_terms(w, 1))


def flag_terms(w, n: int):
    """The punctual tangent without its pair terms: the kernel of every
    residue form, s_i - z_l over the cross-block Vandermonde."""
    return chain(_coordinate_terms(n, len(w), 1), _point_terms(w, 1))


def fiber_terms(w):
    """Tangent space of the flag fiber over the identity coset."""
    d = len(w)
    coordinates = ((1, i, (), k) for i in range(1, d)
                   for k in range(1, d) if w[i] <= w[k])
    return chain(coordinates, _pair_terms(w, 1, lt), _point_terms(w, 1))


def epunct_terms(w, n: int):
    """Bundle relating the two tangents: tangent = punctual + this."""
    coordinates = ((1, i, (), None) for i in range(1, n + 1))
    return chain(coordinates, _pair_terms(w, 1, eq))


def obstruction_terms(w):
    """Obstruction bundle; every sign is +1."""
    d = len(w)
    for i in range(1, d):
        for k in range(i + 1, d):
            for j in range(1, d):
                for m in range(d):
                    if w[j] <= w[m] and w[k] <= w[m]:
                        yield 1, None, (i, j, k), m


def term_weights(e: Enumeration, terms) -> SignedWeightMultiset:
    """Weight vector of each term at the chain e, with its sign as the
    multiplicity."""
    pts, units = _packed_points(e), _packed_units(e.n)
    counts: dict = {}
    for sign, c, plus, m in terms:
        v = 0 if c is None else units[c]
        for p in plus:
            v += pts[p]
        if m is not None:
            v -= pts[m]
        counts[v] = counts.get(v, 0) + sign
    return SignedWeightMultiset.from_packed(e.n, counts)


def term_count(terms) -> int:
    """Net rank: the number of terms counted with their signs."""
    return sum(t[0] for t in terms)


def term_zforms(terms):
    """(sign, form) of each term whose form is nonzero, with e_c read as
    s_c and u_p as the residue variable z_p (z_0 = 0)."""
    for sign, c, plus, m in terms:
        coeffs = Counter(("z", p) for p in plus if p)
        if c is not None:
            coeffs[("s", c)] += 1
        if m:
            coeffs[("z", m)] -= 1
        form = LinearForm(coeffs)
        if not form.is_zero():
            yield sign, form


def tangent_class_direct(e: Enumeration) -> SignedWeightMultiset:
    """Tangent weights at a fixed point of the nested Hilbert scheme."""
    return term_weights(e, tangent_terms(e.w, e.n))


def tangent_class_punctual(e: Enumeration) -> SignedWeightMultiset:
    """Tangent weights of the punctual (nilpotent filtration) locus."""
    require_pointed(e.dims)
    return term_weights(e, punctual_terms(e.w, e.n))


def epunct_class(e: Enumeration) -> SignedWeightMultiset:
    """Weights of the bundle relating the full and punctual tangents:
    tangent = punctual tangent + this class, checked by the test suite."""
    require_pointed(e.dims)
    return term_weights(e, epunct_terms(e.w, e.n))


def obstruction_class_direct(e: Enumeration) -> SignedWeightMultiset:
    """Obstruction weights; all multiplicities are nonnegative."""
    return term_weights(e, obstruction_terms(e.w))


def fiber_tangent_class_direct(e: Enumeration) -> SignedWeightMultiset:
    """Tangent weights of the flag fiber at a chain lying on it."""
    if not in_flag_fiber(e.nested()):
        raise NotInFiber(f"{e.nested()} is not on the identity fiber")
    return term_weights(e, fiber_terms(e.w))


# recursive level multisets


def _pairs(seen, q, within) -> list:
    """u_i + u_j over i among the points seen and j among the points q,
    and over the pairs within(q, 2) of points q."""
    return [*starmap(add, product(seen, q)), *starmap(add, within(q, 2))]


def _tangent_steps(n: int, blocks):
    """Tangent: S starts from the coordinate weights; level m adds the
    pairs u_i + u_j, i <= j, whose larger index j sits at level m, and
    removes the level-m points."""
    seen, start = [], _packed_units(n)[1:]
    for q in blocks:
        yield [*start, *_pairs(seen, q, combinations_with_replacement)], q
        seen += q
        start = ()


def _ass_steps(n: int, blocks):
    """Obstruction: S_m holds the triple sums u_i + u_j + u_k, i < k, of
    the points up to level m.  Level m adds the triples that touch a
    level-m point, each once: every pair so far plus each new point, and
    each new pair plus each earlier point.  It removes nothing."""
    seen, pairs = [], []
    for q in blocks:
        new = _pairs(seen, q, combinations)
        pairs += new
        yield [*starmap(add, product(pairs, q)),
               *starmap(add, product(new, seen))], ()
        seen += q


def _fiber_steps(n: int, blocks):
    """Flag fiber tangent: level m adds the next units e_1, e_2, ..., one
    per level-m point, and the tangent pairs of level m - 1, and removes
    the level-m points."""
    coords = iter(_packed_units(n)[1:])
    seen, pairs = [], []
    for q in blocks:
        yield [*islice(coords, len(q)), *pairs], q
        pairs = _pairs(seen, q, combinations_with_replacement)
        seen += q


def _assemble(e: Enumeration, steps) -> SignedWeightMultiset:
    """sum over levels m of sum over the level-m points v of (S_m - v).

    steps(n, blocks) yields, for each level m, the packed weights
    that level m adds to the running multiset S and those it removes;
    blocks[m] holds the level-m points other than u_0, whatever the level
    of u_0; removing a weight S lacks means e is not a chain order.
    product snapshots the list S, and a count of shifts is never zero."""
    pts = _packed_points(e)
    at, blocks, start = [], [], 0
    for size in e.dims:
        at.append(pts[start:start + size])
        blocks.append(pts[max(start, 1):start + size])
        start += size
    S, shifts = [], []
    for vs, (added, removed) in zip(at, steps(e.n, blocks)):
        S += added
        for v in removed:
            if v not in S:
                raise IndexOutOfRange("level multiset went negative: the "
                                      "enumeration is not a chain order")
            S.remove(v)
        shifts.append(product(S, vs))
    m = SignedWeightMultiset(e.n)
    m.counts = Counter(starmap(sub, chain.from_iterable(shifts)))
    return m


def tangent_class(e: Enumeration) -> SignedWeightMultiset:
    """Tangent weights, assembled from the recursive level multisets."""
    return _assemble(e, _tangent_steps)


def obstruction_class(e: Enumeration) -> SignedWeightMultiset:
    """Obstruction weights, assembled from the recursive level multisets."""
    return _assemble(e, _ass_steps)


def fiber_tangent_class(e: Enumeration) -> SignedWeightMultiset:
    """Flag fiber tangent weights, assembled from the level multisets."""
    if not in_flag_fiber(e.nested()):
        raise NotInFiber(f"{e.nested()} is not on the identity fiber")
    return _assemble(e, _fiber_steps)


def _point_ranks(u) -> tuple:
    """(t(u), b(u)), what the non-origin point u adds to fixed_ranks."""
    box = tri = halves = eps = 1
    for c in u:
        box, tri = box * (c + 1), tri * (c + 1) * (c + 2) // 2
        halves, eps = halves * (c // 2 + 1), eps & (1 - c % 2)
    return max(box - 4 + eps, 0) // 2, (tri - 3 * box - halves + 4 + eps) // 2


def fixed_ranks(e: Enumeration) -> tuple:
    """(tangent fixed rank, obstruction fixed rank), which depend on the
    top ideal alone: each non-origin point u adds t(u) = (number of pair
    sums u_i + u_j, i <= j, hitting u) - 1, or 0 for a unit, and b(u) =
    the number of triple sums u_i + u_j + u_k, i < k, hitting u.  The box
    0 <= a <= u lies in the ideal.  With box = prod(u_c + 1), tri = prod
    (u_c + 1)(u_c + 2)/2, halves = prod(u_c // 2 + 1) and eps(u) = 1 when
    all u_c are even, the pairs (a, u - a), a != 0, u, number (box - 2 +
    eps)/2, and the triples sum_{0 < b < u} (N(u - b) - eps(u - b))/2 =
    (tri - 3 box - halves + 4 + eps)/2 with N(w) = prod(w_c + 1) - 2."""
    wt = wb = 0
    for t, b in map(_point_ranks, e.points[1:]):
        wt, wb = wt + t, wb + b
    return wt, wb


def euler_class(m: SignedWeightMultiset, namespace: str,
                forms: dict | None = None) -> FactoredRational:
    """Product of the weight forms with their multiplicities.

    Zero weights are skipped regardless of multiplicity: the product runs
    over nonzero weights only.  A packed weight has the sign of its first
    nonzero coordinate, so its quotient by the signed gcd of its
    coordinates packs its primitive form, and factors merge as ints.
    forms maps each packed weight met before to (signed gcd, primitive
    form) and each form to itself, and gains the new ones; a job passes
    one table for one n and namespace, so each weight's form is built
    once per job, and a form equal to one in the table is that object."""
    n = m.n
    if forms is None:
        forms = {}
    exps: dict = {}
    num = den = 1
    for w, mult in m.counts.items():
        if w:
            done = forms.get(w)
            if done is None:
                g = gcd(*unpack(w, n)) * (1 if w > 0 else -1)
                # a weight's primitive is a weight of signed gcd 1
                if w // g not in forms:
                    form = linear_form_of(unpack(w // g, n), namespace)
                    forms[w // g] = 1, forms.setdefault(form, form)
                done = forms[w] = g, forms[w // g][1]
            g = done[0]
            if g != 1:
                num *= g ** max(mult, 0)
                den *= g ** max(-mult, 0)
                w //= g
            exps[w] = exps.get(w, 0) + mult
    return FactoredRational(Fraction(num, den), SparsePolynomial.one(),
                            canonical_factors((forms[w][1], e)
                                              for w, e in exps.items()))


def flag_tangent_euler(sigma, n: int, dims) -> FactoredRational:
    """Euler class of the flag variety tangent space at the coset sigma;
    dims is the pointed layer tuple, whose tail gives the flag steps."""
    sigma = tuple(sigma)
    dhat = require_pointed(dims)[1:]
    k = sum(dhat)
    if len(sigma) != k:
        raise IndexOutOfRange(f"sigma has {len(sigma)} entries, expected {k}")
    if len(set(sigma)) != k or any(not 1 <= v <= n for v in sigma):
        raise IndexOutOfRange(f"sigma {sigma} is not injective into 1..{n}")
    # sigma extended to a permutation of 1..n by the unused indices in order
    ext = sigma + tuple(i for i in range(1, n + 1) if i not in sigma)
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
    return term_count(tangent_terms(point_levels(dims), n))


def punctual_net_count(n: int, dims) -> int:
    return term_count(punctual_terms(point_levels(dims), n))


def obstruction_net_count(dims) -> int:
    return term_count(obstruction_terms(point_levels(dims)))
