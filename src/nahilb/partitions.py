"""Monomial ideals in n variables, nested chains, and their enumerations.

A partition is a finite order ideal of Z_{>=0}^n: the exponent set of the
standard monomial basis of a monomial-ideal quotient.  A nested partition
is a chain of such ideals whose sizes grow by the prescribed dims; these
are the torus fixed points of the corresponding nested Hilbert scheme.

Points are plain int tuples.  Deterministic ordering everywhere uses the
reversed-coordinate key, so for n = 2 the points 0, e1, e2 come out in
that order.
"""

from __future__ import annotations

import os
from contextvars import ContextVar
from itertools import combinations

from .errors import (
    IndexOutOfRange,
    RequiresNilfil,
    RequiresPointedDims,
    SizeGuardExceeded,
    TooManyPoints,
)

DEFAULT_MAX_POINTS = 12
HARD_MAX_POINTS = 14
MAX_ENUMERATION_POINTS = 8

# a budget set here, for instance by the command line for one job, is read
# before NAHILB_MAX_POINTS and lasts until the setter resets it
point_budget: ContextVar = ContextVar("point_budget", default=None)


def max_points() -> int:
    """Active point budget for exhaustive enumeration.

    point_budget, else NAHILB_MAX_POINTS, overrides the default of 12;
    values are clamped to [1, 14] and unreadable values fall back to the
    default.
    """
    raw = point_budget.get()
    if raw is None:
        raw = os.environ.get("NAHILB_MAX_POINTS")
    if raw is None:
        return DEFAULT_MAX_POINTS
    try:
        value = int(raw)
    except ValueError:
        return DEFAULT_MAX_POINTS
    return max(1, min(HARD_MAX_POINTS, value))


def point_key(p: tuple) -> tuple:
    return tuple(reversed(p))


def unit_vector(n: int, i: int) -> tuple:
    """e_i with 1-based coordinate index i."""
    return tuple(1 if j == i - 1 else 0 for j in range(n))


def is_order_ideal(points, n: int) -> bool:
    """True when the set is downward closed under coordinatewise order."""
    pts = set(points)
    for p in pts:
        if len(p) != n or any(c < 0 for c in p):
            return False
        for i in range(n):
            if p[i] > 0:
                q = p[:i] + (p[i] - 1,) + p[i + 1:]
                if q not in pts:
                    return False
    return True


def addable_points(ideal: frozenset, n: int):
    """Points whose addition keeps the set an order ideal, sorted."""
    if not ideal:
        return [(0,) * n]
    out = set()
    for p in ideal:
        for i in range(n):
            q = p[:i] + (p[i] + 1,) + p[i + 1:]
            if q in ideal or q in out:
                continue
            if all(q[j] == 0
                   or q[:j] + (q[j] - 1,) + q[j + 1:] in ideal
                   for j in range(n)):
                out.add(q)
    return sorted(out, key=point_key)


class NestedPartition:
    """Chain of order ideals with layer sizes prescribed by dims."""

    __slots__ = ("n", "dims", "layers")

    def __init__(self, n: int, dims: tuple, layers):
        dims = tuple(int(d) for d in dims)
        layers = tuple(frozenset(tuple(p) for p in layer) for layer in layers)
        if n < 1:
            raise IndexOutOfRange(f"ambient dimension must be positive, got {n}")
        if len(dims) < 1 or any(d < 0 for d in dims):
            raise IndexOutOfRange(f"bad dims {dims}")
        if len(layers) != len(dims):
            raise IndexOutOfRange(
                f"{len(dims)} dims but {len(layers)} layers")
        total = 0
        prev: frozenset = frozenset()
        for d, layer in zip(dims, layers):
            total += d
            if len(layer) != total:
                raise IndexOutOfRange(
                    f"layer has {len(layer)} points, expected {total}")
            if not prev <= layer:
                raise IndexOutOfRange("layers are not nested")
            if not is_order_ideal(layer, n):
                raise IndexOutOfRange("layer is not an order ideal")
            prev = layer
        self.n = n
        self.dims = dims
        self.layers = layers

    @property
    def d(self) -> int:
        return sum(self.dims)

    @property
    def r(self) -> int:
        return len(self.dims) - 1

    def top(self) -> frozenset:
        return self.layers[-1]

    def key(self) -> tuple:
        return tuple(tuple(sorted(layer, key=point_key)) for layer in self.layers)

    def __eq__(self, other) -> bool:
        return (isinstance(other, NestedPartition)
                and self.n == other.n
                and self.dims == other.dims
                and self.layers == other.layers)

    def __hash__(self) -> int:
        return hash((self.n, self.dims, self.layers))

    def __repr__(self) -> str:
        inner = " < ".join(
            "{" + ", ".join(map(str, sorted(layer, key=point_key))) + "}"
            for layer in self.layers
        )
        return f"NestedPartition(n={self.n}, dims={self.dims}, {inner})"


def point_levels(dims: tuple) -> tuple:
    """Level of each enumeration position: position k sits in the block
    determined by the cumulative dims."""
    out = []
    for level, d in enumerate(dims):
        out.extend([level] * d)
    return tuple(out)


class Enumeration:
    """A linear order on the points of a nested partition.

    Every prefix is an order ideal and positions respect the layer blocks,
    so position k has level w[k] determined by dims alone.
    """

    __slots__ = ("n", "dims", "points")

    def __init__(self, n: int, dims: tuple, points):
        self.n = n
        self.dims = tuple(dims)
        self.points = tuple(tuple(p) for p in points)
        if len(self.points) != sum(self.dims):
            raise IndexOutOfRange("enumeration length does not match dims")

    @property
    def w(self) -> tuple:
        return point_levels(self.dims)

    @property
    def d(self) -> int:
        return len(self.points)

    def nested(self) -> NestedPartition:
        layers = []
        total = 0
        for d in self.dims:
            total += d
            layers.append(frozenset(self.points[:total]))
        return NestedPartition(self.n, self.dims, layers)

    def __eq__(self, other) -> bool:
        return (isinstance(other, Enumeration)
                and self.n == other.n
                and self.dims == other.dims
                and self.points == other.points)

    def __hash__(self) -> int:
        return hash((self.n, self.dims, self.points))

    def __repr__(self) -> str:
        return f"Enumeration(n={self.n}, dims={self.dims}, {list(self.points)})"


def enumerate_partitions(n: int, size: int) -> list:
    """All order ideals of the given size, deterministically ordered."""
    if n < 1:
        raise IndexOutOfRange(f"ambient dimension must be positive, got {n}")
    if size < 0:
        raise IndexOutOfRange(f"negative size {size}")
    if size > max_points():
        raise SizeGuardExceeded(
            f"size {size} exceeds the point budget {max_points()}")
    frontier = {frozenset()}
    for _ in range(size):
        nxt = set()
        for ideal in frontier:
            for p in addable_points(ideal, n):
                nxt.add(ideal | {p})
        frontier = nxt
    return sorted(frontier, key=lambda s: tuple(sorted(point_key(p) for p in s)))


def _extensions(ideal: frozenset, n: int, count: int):
    """All ideals obtained by adding count points, as a set."""
    frontier = {ideal}
    for _ in range(count):
        nxt = set()
        for cur in frontier:
            for p in addable_points(cur, n):
                nxt.add(cur | {p})
        frontier = nxt
    return frontier


def enumerate_nested(n: int, dims) -> list:
    """All nested partitions with the given layer increments."""
    dims = tuple(int(d) for d in dims)
    if n < 1:
        raise IndexOutOfRange(f"ambient dimension must be positive, got {n}")
    if not dims or any(d < 0 for d in dims):
        raise IndexOutOfRange(f"bad dims {dims}")
    if sum(dims) > max_points():
        raise SizeGuardExceeded(
            f"total size {sum(dims)} exceeds the point budget {max_points()}")
    chains = [()]
    prev_layer = {(): frozenset()}
    for d in dims:
        nxt = []
        nxt_layer = {}
        for chain in chains:
            top = prev_layer[chain]
            for ext in sorted(_extensions(top, n, d),
                              key=lambda s: tuple(sorted(point_key(p) for p in s))):
                new_chain = chain + (ext,)
                nxt.append(new_chain)
                nxt_layer[new_chain] = ext
        chains = nxt
        prev_layer = nxt_layer
    out = [NestedPartition(n, dims, chain) for chain in chains]
    out.sort(key=lambda np: np.key())
    return out


def canonical_enumeration(np_: NestedPartition) -> Enumeration:
    """Smallest valid enumeration: within each layer block, repeatedly take
    the least addable point under the reversed-coordinate order."""
    chosen: list = []
    used: set = set()
    for layer in np_.layers:
        block = sorted(layer - used, key=point_key)
        remaining = set(block)
        while remaining:
            pick = None
            for p in sorted(remaining, key=point_key):
                if all(p[:i] + (p[i] - 1,) + p[i + 1:] in used
                       for i in range(np_.n) if p[i] > 0):
                    pick = p
                    break
            if pick is None:
                raise IndexOutOfRange("layer is not an order ideal")
            chosen.append(pick)
            used.add(pick)
            remaining.remove(pick)
    return Enumeration(np_.n, np_.dims, chosen)


def all_enumerations(np_: NestedPartition) -> list:
    """Every valid enumeration of the chain, deterministically ordered."""
    if np_.d > MAX_ENUMERATION_POINTS:
        raise SizeGuardExceeded(
            f"{np_.d} points exceed the enumeration budget "
            f"{MAX_ENUMERATION_POINTS}")
    out = []

    def grow(prefix, used, layer_idx, block_left):
        if layer_idx == len(np_.layers):
            out.append(Enumeration(np_.n, np_.dims, prefix))
            return
        if not block_left:
            nxt = layer_idx + 1
            if nxt == len(np_.layers):
                out.append(Enumeration(np_.n, np_.dims, prefix))
            else:
                grow(prefix, used, nxt,
                     sorted(np_.layers[nxt] - used, key=point_key))
            return
        for p in block_left:
            if all(p[:i] + (p[i] - 1,) + p[i + 1:] in used
                   for i in range(np_.n) if p[i] > 0):
                grow(prefix + [p], used | {p}, layer_idx,
                     [q for q in block_left if q != p])

    grow([], set(), 0, sorted(np_.layers[0], key=point_key))
    out.sort(key=lambda e: tuple(point_key(p) for p in e.points))
    return out


def is_admissible(np_: NestedPartition) -> bool:
    """Support conditions on the top layer: a point with one nonzero
    coordinate needs value <= 4, with two nonzero coordinates sum <= 3,
    and three or more nonzero coordinates never occur."""
    for p in np_.top():
        support = [c for c in p if c > 0]
        if len(support) >= 3:
            return False
        if len(support) == 1 and support[0] > 4:
            return False
        if len(support) == 2 and sum(support) > 3:
            return False
    return True


def require_pointed(dims) -> tuple:
    """dims as an int tuple, refusing shapes whose first layer is not the
    single origin point."""
    dims = tuple(int(x) for x in dims)
    if not dims or dims[0] != 1:
        raise RequiresPointedDims(f"dims must start with 1, got {dims}")
    return dims


def is_nilfil(np_: NestedPartition) -> bool:
    """Nilpotent filtration rule: past the first layer, no added point may
    have a coordinate successor inside its own layer."""
    require_pointed(np_.dims)
    for k in range(1, len(np_.layers)):
        layer = np_.layers[k]
        for u in layer - np_.layers[k - 1]:
            for i in range(np_.n):
                if u[:i] + (u[i] + 1,) + u[i + 1:] in layer:
                    return False
    return True


def _check_sigma(sigma: tuple, n: int, d: int):
    if len(sigma) != d - 1:
        raise IndexOutOfRange(
            f"sigma has {len(sigma)} entries, expected {d - 1}")
    if len(set(sigma)) != len(sigma) or any(not 1 <= v <= n for v in sigma):
        raise IndexOutOfRange(f"sigma {sigma} is not injective into 1..{n}")


def in_flag_fiber(np_: NestedPartition, sigma) -> bool:
    """True when the chain lies over the coordinate flag selected by sigma.

    Concretely: every unit vector e_c appearing in layer i must have c among
    the first |layer_i| - 1 values of sigma.  In particular the top layer may
    only touch coordinates selected by sigma.
    """
    sigma = tuple(sigma)
    _check_sigma(sigma, np_.n, np_.d)
    if not is_nilfil(np_):
        raise RequiresNilfil(f"{np_} fails the nilpotent filtration rule")
    for layer in np_.layers:
        allowed = set(sigma[:len(layer) - 1])
        for c in range(1, np_.n + 1):
            if unit_vector(np_.n, c) in layer and c not in allowed:
                return False
    return True


def porteous(n: int, dims) -> NestedPartition:
    """The chain whose i-th layer is the origin plus the first unit vectors.

    This is the distinguished smooth point of the flag fiber over the
    identity coset."""
    dims = tuple(int(d) for d in dims)
    d = sum(dims)
    if d - 1 > n:
        raise TooManyPoints(
            f"{d} points need ambient dimension >= {d - 1}, got {n}")
    points = [(0,) * n] + [unit_vector(n, i) for i in range(1, d)]
    layers = []
    total = 0
    for dd in dims:
        total += dd
        layers.append(frozenset(points[:total]))
    return NestedPartition(n, dims, layers)


def identity_sigma(d: int) -> tuple:
    return tuple(range(1, d))


def flag_cosets(n: int, dhat) -> list:
    """Representatives of the cosets indexing flag fixed points: injections
    of the flag slots into 1..n, increasing within each block."""
    dhat = tuple(int(d) for d in dhat)
    k = sum(dhat)
    if k > n:
        raise TooManyPoints(f"flag with {k} slots needs n >= {k}, got {n}")
    reps = [()]
    available = [frozenset(range(1, n + 1))]
    for block in dhat:
        nxt = []
        nxt_avail = []
        for rep, avail in zip(reps, available):
            for combo in combinations(sorted(avail), block):
                nxt.append(rep + combo)
                nxt_avail.append(avail - set(combo))
        reps = nxt
        available = nxt_avail
    return reps


def extend_sigma(sigma: tuple, n: int) -> tuple:
    """Extend an injection to a permutation of 1..n by appending the unused
    indices in increasing order."""
    rest = [i for i in range(1, n + 1) if i not in set(sigma)]
    return tuple(sigma) + tuple(rest)
