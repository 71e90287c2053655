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

from contextvars import ContextVar
from itertools import accumulate, combinations, product

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
# the largest ambient dimension n: the cost of even a one-point job grows
# like n^3, and its memory with it
MAX_N = 64

# the point budget of the running job, for instance set by the command line
# from --max-points; it lasts until the setter resets it
point_budget: ContextVar = ContextVar("point_budget", default=None)


def max_points() -> int:
    """Active point budget: point_budget clamped to [1, 14], or 12 when
    it is unset."""
    budget = point_budget.get()
    if budget is None:
        return DEFAULT_MAX_POINTS
    return max(1, min(HARD_MAX_POINTS, budget))


def check_point_budget(dims: tuple):
    """Refuse a job on the chains of dims past the active point budget."""
    if sum(dims) > max_points():
        raise SizeGuardExceeded(
            f"total size {sum(dims)} exceeds the point budget {max_points()}")


def point_key(p: tuple) -> tuple:
    return p[::-1]


def unit_vector(n: int, i: int) -> tuple:
    """e_i with 1-based coordinate index i."""
    return tuple(1 if j == i - 1 else 0 for j in range(n))


def _predecessors(p: tuple) -> frozenset:
    """The points p - e_i that lie in the positive orthant; p may join a
    set of points when they include this set."""
    return frozenset(p[:i] + (c - 1,) + p[i + 1:]
                     for i, c in enumerate(p) if c > 0)


def _shape(n: int, dims) -> tuple:
    """dims as an int tuple, refusing an n outside 1..MAX_N and bad dims."""
    dims = tuple(int(d) for d in dims)
    if n < 1:
        raise IndexOutOfRange(f"ambient dimension must be positive, got {n}")
    if n > MAX_N:
        raise SizeGuardExceeded(f"ambient dimension {n} exceeds the cap {MAX_N}")
    if not dims or any(d < 0 for d in dims):
        raise IndexOutOfRange(f"bad dims {dims}")
    return dims


def _check_prefixes(points, n: int):
    """Refuse a point sequence unless every prefix is an order ideal of
    distinct int points in Z_>=0^n."""
    placed = set()
    for p in points:
        if (len(p) != n or p in placed or not _predecessors(p) <= placed
                or not all(isinstance(c, int) and c >= 0 for c in p)):
            raise IndexOutOfRange(
                f"point {p} cannot follow {sorted(placed)}: every "
                f"prefix must be an order ideal in Z_>=0^{n}")
        placed.add(p)


def _blocks(layers: tuple) -> tuple:
    """The points each layer adds, each block in point_key order."""
    return tuple(tuple(sorted(layer - below, key=point_key))
                 for below, layer in zip((frozenset(),) + layers, layers))


def addable_points(ideal: frozenset, n: int) -> set:
    """Points whose addition keeps the set an order ideal."""
    if not ideal:
        return {(0,) * n}
    out = set()
    for p in ideal:
        for i in range(n):
            q = p[:i] + (p[i] + 1,) + p[i + 1:]
            if q not in ideal and q not in out and _predecessors(q) <= ideal:
                out.add(q)
    return out


class NestedPartition:
    """Chain of order ideals with layer sizes prescribed by dims; blocks
    holds the points each layer adds, each in point_key order.  Every
    layer is an ideal when every prefix of the blocks is one, since
    p - e_i sorts before p."""

    __slots__ = ("n", "dims", "layers", "blocks")

    def __init__(self, n: int, dims: tuple, layers):
        dims = _shape(n, dims)
        layers = tuple(frozenset(tuple(p) for p in layer) for layer in layers)
        sizes, want = [len(layer) for layer in layers], list(accumulate(dims))
        if sizes != want:
            raise IndexOutOfRange(f"layers of {sizes} points, expected {want}")
        if not all(a <= b for a, b in zip(layers, layers[1:])):
            raise IndexOutOfRange("layers are not nested")
        self.n = n
        self.dims = dims
        self.layers = layers
        self.blocks = _blocks(layers)
        _check_prefixes((p for block in self.blocks for p in block), n)

    @classmethod
    def _grown(cls, n: int, dims: tuple, layers: tuple) -> "NestedPartition":
        """Unchecked: valid frozenset layers, as enumerate_nested grows
        them and an Enumeration's prefixes are."""
        np_ = cls.__new__(cls)
        np_.n, np_.dims, np_.layers = n, dims, layers
        np_.blocks = _blocks(layers)
        return np_

    @property
    def d(self) -> int:
        return sum(self.dims)

    def top(self) -> frozenset:
        return self.layers[-1]

    def key(self) -> tuple:
        """The layers, each in point_key order."""
        return tuple(tuple(sorted(layer, key=point_key)) for layer in self.layers)

    def __eq__(self, other) -> bool:
        return (isinstance(other, NestedPartition)
                and self.n == other.n
                and self.dims == other.dims
                and self.layers == other.layers)

    def __hash__(self) -> int:
        return hash((self.n, self.dims, self.layers))

    def __repr__(self) -> str:
        inner = " < ".join("{" + ", ".join(map(str, layer)) + "}"
                           for layer in self.key())
        return f"NestedPartition(n={self.n}, dims={self.dims}, {inner})"


def point_levels(dims: tuple) -> tuple:
    """Level of each enumeration position: position k sits in the block
    determined by the cumulative dims."""
    return tuple(level for level, d in enumerate(dims) for _ in range(d))


class Enumeration:
    """A linear order on the points of a nested partition.

    Every prefix is an order ideal and positions respect the layer blocks,
    so position k has level w[k] determined by dims alone.  The
    constructor checks both; _enumeration builds one unchecked.
    """

    __slots__ = ("n", "dims", "points", "w")

    def __init__(self, n: int, dims: tuple, points):
        self.n = n
        self.dims = _shape(n, dims)
        self.points = tuple(tuple(p) for p in points)
        if len(self.points) != sum(self.dims):
            raise IndexOutOfRange("enumeration length does not match dims")
        _check_prefixes(self.points, n)
        self.w = point_levels(self.dims)

    @property
    def d(self) -> int:
        return len(self.points)

    def nested(self) -> NestedPartition:
        layers = tuple(frozenset(self.points[:k]) for k in accumulate(self.dims))
        return NestedPartition._grown(self.n, self.dims, layers)

    def __eq__(self, other) -> bool:
        return (isinstance(other, Enumeration)
                and self.n == other.n
                and self.dims == other.dims
                and self.points == other.points)

    def __hash__(self) -> int:
        return hash((self.n, self.dims, self.points))

    def __repr__(self) -> str:
        return f"Enumeration(n={self.n}, dims={self.dims}, {list(self.points)})"


def _enumeration(n: int, dims: tuple, points: tuple, w: tuple) -> Enumeration:
    """Unchecked: a valid point tuple for dims, and w = point_levels(dims)."""
    e = Enumeration.__new__(Enumeration)
    e.n, e.dims, e.points, e.w = n, dims, points, w
    return e


def _extensions(ideal: frozenset, n: int, count: int):
    """All ideals obtained by adding count points, as a set."""
    frontier = {ideal}
    for _ in range(count):
        frontier = {cur | {p} for cur in frontier for p in addable_points(cur, n)}
    return frontier


def enumerate_nested(n: int, dims) -> list:
    """All nested partitions with the given layer increments; dims (k,)
    gives the order ideals of size k."""
    dims = _shape(n, dims)
    check_point_budget(dims)
    chains = [(frozenset(),)]
    for d in dims:
        # chains sharing their last ideal share its extensions; the sort
        # below fixes the order, since distinct chains have distinct keys
        grown = {last: _extensions(last, n, d)
                 for last in {chain[-1] for chain in chains}}
        chains = [chain + (ext,) for chain in chains for ext in grown[chain[-1]]]
    out = [NestedPartition._grown(n, dims, chain[1:]) for chain in chains]
    out.sort(key=NestedPartition.key)
    return out


def canonical_enumeration(np_: NestedPartition) -> Enumeration:
    """Smallest valid enumeration: within each layer block, repeatedly take
    the least addable point under the reversed-coordinate order.  That is
    each whole block in this order: a predecessor p - e_i sorts before p,
    so the least remaining point is always addable."""
    points = tuple(p for block in np_.blocks for p in block)
    return _enumeration(np_.n, np_.dims, points, point_levels(np_.dims))


def s_orbit(np_: NestedPartition) -> dict:
    """The orbit of np_ under permuting coordinates, as {layers: perm}
    with np_ itself at the identity: perm[i] is where coordinate i goes,
    so a point p maps to the q with q[perm[i]] = p[i].

    A breadth-first walk over the adjacent transpositions: each member
    costs n - 1 chain relabels."""
    n = np_.n
    orbit = {np_.layers: tuple(range(n))}
    frontier = list(orbit.items())
    while frontier:
        grown = []
        for layers, perm in frontier:
            for a in range(n - 1):
                swap = {p: p[:a] + (p[a + 1], p[a]) + p[a + 2:]
                        for p in layers[-1]}
                image = tuple(frozenset(map(swap.__getitem__, layer))
                              for layer in layers)
                if image not in orbit:
                    moved = tuple(a + 1 if j == a else a if j == a + 1 else j
                                  for j in perm)
                    orbit[image] = moved
                    grown.append((image, moved))
        frontier = grown
    return orbit


def _block_orders(block: tuple) -> list:
    """The orders of block in which each point follows its in-block
    predecessors (mask need), lexicographic in block order: a search over
    bitmasks of the points placed, one level per point."""
    if len(block) < 2:
        return [block]
    bit = {p: 1 << k for k, p in enumerate(block)}
    points = [(b, sum(bit.get(q, 0) for q in _predecessors(p)), p)
              for p, b in bit.items()]
    orders = [(0, ())]
    for _ in block:
        orders = [(mask | b, prefix + (p,)) for mask, prefix in orders
                  for b, need, p in points if not (mask & b or need & ~mask)]
    return [prefix for _, prefix in orders]


def all_enumerations(np_: NestedPartition) -> list:
    """Every valid enumeration of the chain, deterministically ordered:
    each earlier layer is a whole ideal, so a block's points wait only on
    their predecessors in it, and the products of the blocks' orders are
    the enumerations."""
    if np_.d > MAX_ENUMERATION_POINTS:
        raise SizeGuardExceeded(
            f"{np_.d} points exceed the enumeration budget "
            f"{MAX_ENUMERATION_POINTS}")
    n, dims = np_.n, np_.dims
    w = point_levels(dims)
    return [_enumeration(n, dims, sum(orders, ()), w)
            for orders in product(*map(_block_orders, np_.blocks))]


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
    for layer, block in zip(np_.layers[1:], np_.blocks[1:]):
        for u in block:
            for i in range(np_.n):
                if u[:i] + (u[i] + 1,) + u[i + 1:] in layer:
                    return False
    return True


def check_flag_room(n: int, d: int) -> None:
    """Refuse d chain points in fewer than d - 1 coordinates: the flag
    through them takes one unit vector per step."""
    if d - 1 > n:
        raise TooManyPoints(
            f"{d} points need ambient dimension >= {d - 1}, got {n}")


def in_flag_fiber(np_: NestedPartition) -> bool:
    """True when the chain lies on the flag fiber over the identity coset:
    every unit vector e_c in a layer of k points has c <= k - 1.  By S_n
    symmetry every other fiber is a relabelled copy of this one."""
    check_flag_room(np_.n, np_.d)
    if not is_nilfil(np_):
        raise RequiresNilfil(f"{np_} fails the nilpotent filtration rule")
    for layer in np_.layers:
        for c in range(len(layer), np_.n + 1):
            if unit_vector(np_.n, c) in layer:
                return False
    return True


def porteous(n: int, dims) -> NestedPartition:
    """The chain whose i-th layer is the origin plus the first unit vectors.

    This is the distinguished smooth point of the flag fiber over the
    identity coset."""
    dims = tuple(int(d) for d in dims)
    d = sum(dims)
    check_flag_room(n, d)
    points = [(0,) * n] + [unit_vector(n, i) for i in range(1, d)]
    return Enumeration(n, dims, points).nested()


def flag_cosets(n: int, dhat) -> list:
    """Representatives of the cosets indexing flag fixed points: injections
    of the flag slots into 1..n, increasing within each block."""
    dhat = _shape(n, (1,) + tuple(dhat))[1:]
    check_flag_room(n, sum(dhat) + 1)
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
