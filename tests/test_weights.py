"""Weight multisets of the deformation complexes.

The recursive (level multiset) constructions are checked against the
direct index products, net ranks against closed-form counts and the
Grassmannian tower dimension, and Euler classes against hand-expanded
products.  Sweeps here stay small; the acceptance tests run the big ones.
"""

from collections import Counter
from fractions import Fraction
from itertools import chain as chain_terms
from itertools import combinations, combinations_with_replacement, product
from random import Random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nahilb.algebra import (
    FactoredRational,
    LinearForm,
    SparsePolynomial,
    linear_form_of,
    rational_equal,
)
from nahilb.errors import IndexOutOfRange, NotInFiber, RequiresPointedDims
from nahilb.partitions import (
    NestedPartition,
    _enumeration,
    all_enumerations,
    canonical_enumeration,
    enumerate_nested,
    in_flag_fiber,
    is_admissible,
    is_nilfil,
    point_levels,
    porteous,
    s_orbit,
)
from nahilb.weights import (
    GUARD,
    _point_ranks,
    SignedWeightMultiset,
    epunct_class,
    euler_class,
    fiber_tangent_class,
    fiber_tangent_class_direct,
    fixed_ranks,
    flag_tangent_euler,
    obstruction_class,
    obstruction_class_direct,
    obstruction_net_count,
    obstruction_terms,
    pack,
    punctual_net_count,
    punctual_terms,
    tangent_class,
    tangent_class_direct,
    tangent_class_punctual,
    tangent_net_count,
    term_weights,
    term_zforms,
    unpack,
)


def chain(n, dims, *layers):
    return canonical_enumeration(NestedPartition(
        n, dims, [frozenset(layer) for layer in layers]))


def msetdict(m):
    return dict(m.items())


def assert_same_fields(got, want):
    """Equal scalar, polynomial terms and factor order, and equal key(),
    hash, terms and exponent of each factor."""
    assert (got.scalar, got.poly.terms) == (want.scalar, want.poly.terms)
    assert [(f.key(), hash(f), f.terms, e) for f, e in got.factors] \
        == [(f.key(), hash(f), f.terms, e) for f, e in want.factors]


def _tower_dim(n, dims):
    """Dimension of the Grassmannian tower over the pointed chain: each
    step of size d adds d*(n + D(D+1)/2 - D - d) with D the running total
    past the first layer."""
    total = 0
    D = 0
    for d in dims[1:]:
        total += d * (n + D * (D + 1) // 2 - D - d)
        D += d
    return total


def _shapes(n, max_d):
    """All dims tuples with total at most max_d, every entry positive."""
    out = []

    def grow(prefix, left):
        for d in range(1, left + 1):
            out.append(prefix + (d,))
            grow(prefix + (d,), left - d)

    grow((), max_d)
    return [dims for dims in out if sum(dims) <= max_d]


class TestSignedWeightMultiset:
    def test_arithmetic(self):
        a = SignedWeightMultiset(2, {(1, 0): 2, (0, 1): 1})
        b = SignedWeightMultiset(2, {(1, 0): 2, (1, 1): -1})
        assert msetdict(a + b) == {(1, 0): 4, (0, 1): 1, (1, 1): -1}
        assert msetdict(a - b) == {(0, 1): 1, (1, 1): 1}
        assert (a - a) == SignedWeightMultiset(2)

    def test_ranks(self):
        m = SignedWeightMultiset(2, {(0, 0): 3, (1, 0): 1, (2, 1): -2})
        assert m.net_rank() == 2
        assert m.fixed_rank() == 3
        assert msetdict(m.moving()) == {(1, 0): 1, (2, 1): -2}

    def test_zero_multiplicities_dropped(self):
        m = SignedWeightMultiset(1, {(1,): 0})
        assert msetdict(m) == {}
        m = SignedWeightMultiset(1, {(1,): 1})
        m = m - SignedWeightMultiset(1, {(1,): 1})
        assert msetdict(m) == {}


_coord = st.integers(-GUARD + 1, GUARD - 1)


def _vector(n):
    return st.tuples(*[_coord] * n)


class TestPacking:
    """Packed weight vectors against the tuples they encode."""

    @given(st.integers(1, 4).flatmap(lambda n: st.lists(
        st.tuples(_vector(n), st.sampled_from((1, -1))),
        min_size=1, max_size=4)))
    @settings(max_examples=300, deadline=None)
    def test_round_trip_order_and_sums(self, signed):
        vs = [v for v, _ in signed]
        n = len(vs[0])
        for v in vs:
            assert unpack(pack(v), n) == v
        for a in vs:
            for b in vs:
                assert (pack(a) < pack(b)) == (a < b)
        total = tuple(sum(sign * v[i] for v, sign in signed)
                      for i in range(n))
        assert unpack(sum(sign * pack(v) for v, sign in signed), n) == total

    @given(st.integers(1, 4).flatmap(lambda n: st.tuples(
        _vector(n), st.integers(0, n - 1),
        st.integers(GUARD, 10 ** 6) | st.integers(-10 ** 6, -GUARD))))
    @settings(max_examples=100, deadline=None)
    def test_coordinates_past_the_guard_are_refused(self, case):
        v, i, c = case
        bad = v[:i] + (c,) + v[i + 1:]
        with pytest.raises(IndexOutOfRange):
            pack(bad)
        with pytest.raises(IndexOutOfRange):
            SignedWeightMultiset(len(bad), {bad: 1})

    def test_weights_of_the_wrong_length_are_refused(self):
        with pytest.raises(IndexOutOfRange):
            SignedWeightMultiset(2, {(1, 0, 0): 1})
        a = SignedWeightMultiset(2, {(1, 0): 1})
        b = SignedWeightMultiset(3, {(0, 1, 0): 1})
        with pytest.raises(IndexOutOfRange):
            a + b
        with pytest.raises(IndexOutOfRange):
            a - b


class TestTangentClass:
    def test_single_point(self):
        e = chain(3, (1,), {(0, 0, 0)})
        assert msetdict(tangent_class(e)) == {
            (1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): 1}

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_two_point_chain(self, n):
        e1 = tuple(1 if i == 0 else 0 for i in range(n))
        e = chain(n, (1, 1), {(0,) * n}, {(0,) * n, e1})
        t = tangent_class(e)
        assert t.net_rank() == 2 * n
        assert t.fixed_rank() == 0

    def test_doubled_step_chain(self):
        e = chain(1, (1, 1, 1), {(0,)}, {(0,), (1,)}, {(0,), (1,), (2,)})
        t = tangent_class(e)
        assert msetdict(t) == {(1,): 3, (2,): 1}
        assert t.net_rank() == 4


class TestTangentPunctual:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_two_point_chain_is_projective_space(self, n):
        e1 = tuple(1 if i == 0 else 0 for i in range(n))
        e = chain(n, (1, 1), {(0,) * n}, {(0,) * n, e1})
        t = tangent_class_punctual(e)
        expected = {}
        for i in range(1, n):
            w = tuple((1 if j == i else 0) - e1[j] for j in range(n))
            expected[w] = 1
        assert msetdict(t) == expected
        assert t.net_rank() == n - 1

    def test_full_flag_net_rank(self):
        e = chain(2, (1, 1, 1), {(0, 0)}, {(0, 0), (1, 0)},
                  {(0, 0), (1, 0), (0, 1)})
        assert tangent_class_punctual(e).net_rank() == 2

    def test_fat_step_net_rank(self):
        e = chain(2, (1, 2), {(0, 0)}, {(0, 0), (1, 0), (0, 1)})
        assert tangent_class_punctual(e).net_rank() == 0

    def test_requires_pointed_dims(self):
        e = chain(1, (2,), {(0,), (1,)})
        with pytest.raises(RequiresPointedDims):
            tangent_class_punctual(e)

    def test_net_rank_matches_tower_dimension(self):
        for n in (1, 2, 3, 4):
            for dims in _shapes(n, 5):
                if dims[0] != 1:
                    continue
                chains = [np_ for np_ in enumerate_nested(n, dims)
                          if is_nilfil(np_)]
                for np_ in chains:
                    e = canonical_enumeration(np_)
                    assert tangent_class_punctual(e).net_rank() == \
                        _tower_dim(n, dims) == punctual_net_count(n, dims)


class TestObstructionClass:
    def test_small_chains_are_empty(self):
        for e in [chain(2, (1,), {(0, 0)}),
                  chain(2, (1, 1), {(0, 0)}, {(0, 0), (1, 0)}),
                  chain(1, (2,), {(0,), (1,)})]:
            assert msetdict(obstruction_class(e)) == {}

    def test_fat_step(self):
        e = chain(2, (1, 2), {(0, 0)}, {(0, 0), (1, 0), (0, 1)})
        assert msetdict(obstruction_class(e)) == {
            (1, 1): 2, (2, 0): 1, (0, 2): 1}

    def test_three_on_a_line(self):
        e = chain(1, (3,), {(0,), (1,), (2,)})
        ob = obstruction_class(e)
        assert msetdict(ob) == {(2,): 1, (3,): 2, (4,): 2, (5,): 1}
        assert ob.fixed_rank() == 0

    def test_multiplicities_nonnegative(self):
        for dims in _shapes(2, 4):
            for np_ in enumerate_nested(2, dims):
                ob = obstruction_class(canonical_enumeration(np_))
                assert all(m > 0 for _, m in ob.items())


class TestEpunct:
    def test_single_point(self):
        e = chain(2, (1,), {(0, 0)})
        assert msetdict(epunct_class(e)) == {(1, 0): 1, (0, 1): 1}

    def test_two_point_chain(self):
        e = chain(2, (1, 1), {(0, 0)}, {(0, 0), (1, 0)})
        assert msetdict(epunct_class(e)) == {(1, 0): 2, (0, 1): 1}

    def test_tangent_splits_as_punctual_plus_correction(self):
        for n in (1, 2, 3):
            for dims in _shapes(n, 4):
                if dims[0] != 1:
                    continue
                for np_ in enumerate_nested(n, dims):
                    e = canonical_enumeration(np_)
                    lhs = tangent_class(e) - epunct_class(e)
                    assert lhs == tangent_class_punctual(e)


class TestFiberTangent:
    def test_two_point_fiber_is_a_point(self):
        e = canonical_enumeration(porteous(2, (1, 1)))
        assert msetdict(fiber_tangent_class(e)) == {}

    def test_full_flag_fiber_dimension(self):
        e = canonical_enumeration(porteous(3, (1, 1, 1)))
        f = fiber_tangent_class(e)
        assert f.net_rank() == 1
        assert msetdict(f) == {(2, -1, 0): 1}

    def test_single_point_fiber(self):
        e = chain(3, (1,), {(0, 0, 0)})
        assert msetdict(fiber_tangent_class(e)) == {}

    def test_not_in_fiber(self):
        np_ = NestedPartition(2, (1, 1), [
            frozenset({(0, 0)}), frozenset({(0, 0), (0, 1)})])
        with pytest.raises(NotInFiber):
            fiber_tangent_class(canonical_enumeration(np_))

    def test_net_rank_is_punctual_minus_flag(self):
        for n in (2, 3):
            for dims in [(1, 1), (1, 1, 1), (1, 2)]:
                if sum(dims) - 1 > n:
                    continue
                e = canonical_enumeration(porteous(n, dims))
                f = fiber_tangent_class(e)
                flag_dim = flag_tangent_euler(
                    tuple(range(1, sum(dims))), n, dims).homogeneous_degree()
                assert f.net_rank() == punctual_net_count(n, dims) - flag_dim


class TestDirectAgainstRecursive:
    def test_tangent_and_obstruction(self):
        for n in (1, 2, 3):
            for dims in _shapes(n, 4):
                for np_ in enumerate_nested(n, dims):
                    for e in all_enumerations(np_):
                        assert tangent_class(e) == tangent_class_direct(e)
                        assert obstruction_class(e) == \
                            obstruction_class_direct(e)

    def test_fiber(self):
        for n in (2, 3):
            for dims in [(1, 1), (1, 1, 1), (1, 2)]:
                if sum(dims) - 1 > n:
                    continue
                for np_ in enumerate_nested(n, dims):
                    if not is_nilfil(np_) or not in_flag_fiber(np_):
                        continue
                    for e in all_enumerations(np_):
                        assert fiber_tangent_class(e) == \
                            fiber_tangent_class_direct(e)


class TestDirectAgainstRecursiveDeep:
    """The two routes on longer chains, where levels hold several points
    and the obstruction adds triples over many levels."""

    def test_tangent_and_obstruction(self):
        for n, d in [(1, 5), (2, 5), (3, 5), (1, 6), (2, 6)]:
            for dims in _shapes(n, d):
                if sum(dims) != d:
                    continue
                for np_ in enumerate_nested(n, dims):
                    e = canonical_enumeration(np_)
                    assert tangent_class(e) == tangent_class_direct(e)
                    assert obstruction_class(e) == obstruction_class_direct(e)

    @pytest.mark.parametrize("n, dims", [
        (1, (0, 2)), (2, (0, 2)), (2, (0, 1, 2)), (2, (1, 0, 2)),
        (2, (0, 0, 3)), (3, (2, 0)), (2, (0, 2, 0, 2)), (3, (1, 2, 0, 1)),
    ])
    def test_zero_layers(self, n, dims):
        """u_0 stays out of the level multisets whatever its level."""
        for np_ in enumerate_nested(n, dims):
            e = canonical_enumeration(np_)
            assert tangent_class(e) == tangent_class_direct(e)
            assert obstruction_class(e) == obstruction_class_direct(e)
            if dims[0] == 1 and is_nilfil(np_) and in_flag_fiber(np_):
                assert fiber_tangent_class(e) == fiber_tangent_class_direct(e)

    def test_fiber_in_four_space(self):
        for dims in _shapes(4, 5):
            if dims[0] != 1:
                continue
            for np_ in enumerate_nested(4, dims):
                if is_nilfil(np_) and in_flag_fiber(np_):
                    e = canonical_enumeration(np_)
                    assert fiber_tangent_class(e) == \
                        fiber_tangent_class_direct(e)


class TestRandomOrderings:
    """The recursive kernel against the direct builders on seeded random
    orderings of chains with n = 2, 3 and d <= 7, zero layers included."""

    def test_against_the_direct_builders(self):
        rng = Random(20261020)
        checked = fibers = 0
        for _ in range(80):
            n, d = rng.choice((2, 3)), rng.randint(2, 7)
            cuts = sorted(rng.sample(range(1, d), rng.randint(0, d - 1)))
            dims = [b - a for a, b in zip([0] + cuts, cuts + [d])]
            for _ in range(rng.randint(0, 2)):
                dims.insert(rng.randint(0, len(dims)), 0)
            dims = tuple(dims)
            nps = enumerate_nested(n, dims)
            for np_ in rng.sample(nps, min(3, len(nps))):
                es = all_enumerations(np_)
                e = rng.choice(es[1:] or es)
                checked += e != canonical_enumeration(np_)
                t, b = tangent_class(e), obstruction_class(e)
                assert t == tangent_class_direct(e)
                assert b == obstruction_class_direct(e)
                if (dims[0] == 1 and d - 1 <= n and is_nilfil(np_)
                        and in_flag_fiber(np_)):
                    f = fiber_tangent_class(e)
                    assert f == fiber_tangent_class_direct(e)
                    assert 0 not in f.counts.values()
                    fibers += 1
                assert 0 not in t.counts.values()
                assert 0 not in b.counts.values()
        assert checked > 80 and fibers > 5


def test_negative_level_multiset_raises():
    """The unchecked constructor lets a bad ordering reach the guard: level
    1 removes the point (2,), which S never held."""
    e = _enumeration(1, (1, 1), ((0,), (2,)), point_levels((1, 1)))
    with pytest.raises(IndexOutOfRange, match="not a chain order"):
        tangent_class(e)


def test_removing_a_weight_held_once_twice_raises():
    """S holds e_1 = (1,) once, and level 1 removes the repeated point
    (1,) twice."""
    e = _enumeration(1, (1, 2), ((0,), (1,), (1,)), point_levels((1, 2)))
    with pytest.raises(IndexOutOfRange, match="not a chain order"):
        tangent_class(e)


class TestEnumerationIndependence:
    def test_multisets_agree_across_enumerations(self):
        for dims in _shapes(2, 4):
            for np_ in enumerate_nested(2, dims):
                es = all_enumerations(np_)
                base = es[0]
                for e in es[1:]:
                    assert tangent_class(e) == tangent_class(base)
                    assert obstruction_class(e) == obstruction_class(base)
                    assert fixed_ranks(e) == fixed_ranks(base)


class TestFixedRanks:
    def test_four_on_a_line(self):
        e = chain(1, (5,), {(i,) for i in range(5)})
        assert fixed_ranks(e) == (1, 1)

    def test_five_on_a_line(self):
        e = chain(1, (6,), {(i,) for i in range(6)})
        assert fixed_ranks(e) == (2, 3)

    def test_corner(self):
        e = chain(2, (3,), {(0, 0), (1, 0), (0, 1)})
        assert fixed_ranks(e) == (0, 0)

    def test_matches_multiset_fixed_parts(self):
        for n in (1, 2, 3):
            for dims in _shapes(n, 5):
                for np_ in enumerate_nested(n, dims):
                    e = canonical_enumeration(np_)
                    wt, wb = fixed_ranks(e)
                    assert wt == tangent_class(e).fixed_rank()
                    assert wb == obstruction_class(e).fixed_rank()

    def test_rank_gap_and_admissibility(self):
        for n in (1, 2, 3):
            for dims in _shapes(n, 5):
                for np_ in enumerate_nested(n, dims):
                    wt, wb = fixed_ranks(canonical_enumeration(np_))
                    assert wt <= wb
                    assert is_admissible(np_) == (wt == wb)


def _counted_fixed_ranks(e):
    """fixed_ranks by its definition over the non-origin points q: pair
    sums over i <= j and triple sums u_i + u_j + u_k over i < k and any
    j, counted at each point (a unit's pair count is not taken)."""
    q = e.points[1:]

    def vsum(*vs):
        return tuple(map(sum, zip(*vs)))

    pairs = Counter(vsum(a, b) for a, b in combinations_with_replacement(q, 2))
    triples = Counter(vsum(a, b, c) for (a, b), c
                      in product(combinations(q, 2), q))
    wt = sum(pairs[u] - 1 for u in q if sum(u) > 1)
    return wt, sum(triples[u] for u in q)


class TestFixedRanksOracle:
    """The box-count closed form against the coincidence counts."""

    def test_every_order_ideal(self):
        ideals = 0
        for n, top in [(1, 12), (2, 9), (3, 8), (4, 7), (5, 6), (6, 6)]:
            for size in range(1, top + 1):
                for np_ in enumerate_nested(n, (size,)):
                    e = canonical_enumeration(np_)
                    assert fixed_ranks(e) == _counted_fixed_ranks(e)
                    ideals += 1
        assert ideals == 2480

    @pytest.mark.parametrize("n, dims", [
        (2, (1, 2, 2)), (2, (2, 3)), (2, (1, 0, 4)), (3, (1, 1, 3)),
        (3, (2, 3)), (3, (0, 2, 0, 3)),
    ])
    def test_every_enumeration_of_multi_layer_chains(self, n, dims):
        for np_ in enumerate_nested(n, dims):
            for e in all_enumerations(np_):
                assert fixed_ranks(e) == _counted_fixed_ranks(e)

    def test_empty_chain(self):
        for n in (1, 2, 3):
            (np_,) = enumerate_nested(n, (0,))
            e = canonical_enumeration(np_)
            assert fixed_ranks(e) == _counted_fixed_ranks(e) == (0, 0)


# the grids [0, m]^n of the per-point test: 5400 nonzero points
_POINT_GRIDS = [(1, 29), (2, 14), (3, 8), (4, 5), (5, 4)]


def test_point_ranks_gap_and_admissibility():
    """t(u) <= b(u) at every nonzero grid point, with equality exactly
    where is_admissible's support rule holds.  The terms read only the
    nonzero coordinates of u, and a chain holding u holds its box of
    prod(u_c + 1) <= HARD_MAX_POINTS = 14 points, so the grids cover every
    point of every chain the budget admits: on each, W_T <= W_B with
    equality exactly when the chain is admissible."""
    points = equal = 0
    for n, m in _POINT_GRIDS:
        for u in product(range(m + 1), repeat=n):
            if not any(u):
                continue
            t, b = _point_ranks(u)
            # is_admissible reads the top layer one point at a time
            one = NestedPartition._grown(n, (1,), (frozenset({u}),))
            assert t <= b
            assert (t == b) == is_admissible(one), u
            points += 1
            equal += t == b
    assert points == 5400 and equal > 0


class TestNetCounts:
    def test_counts_match_multisets(self):
        for n in (1, 2, 3):
            for dims in _shapes(n, 4):
                np_ = enumerate_nested(n, dims)[0]
                e = canonical_enumeration(np_)
                assert tangent_class(e).net_rank() == \
                    tangent_net_count(n, dims)
                assert obstruction_class(e).net_rank() == \
                    obstruction_net_count(dims)
                if dims[0] == 1:
                    assert tangent_class_punctual(e).net_rank() == \
                        punctual_net_count(n, dims)


class TestZformMap:
    def test_zforms_are_the_weight_vectors_with_symbolic_points(self):
        """Substituting z_l -> (s-form of u_l) into a term's z-form gives
        the s-form of its weight vector, sign included, for the punctual
        tangent and obstruction terms the residue formula reads."""
        for n in (1, 2, 3):
            for dims in _shapes(n, 5):
                if dims[0] != 1:
                    continue
                w = point_levels(dims)
                for np_ in enumerate_nested(n, dims):
                    e = canonical_enumeration(np_)
                    zs = {("z", l): linear_form_of(e.points[l], "s")
                          for l in range(1, e.d)}
                    for term in chain_terms(punctual_terms(w, n),
                                            obstruction_terms(w)):
                        got = LinearForm()
                        for sign, form in term_zforms([term]):
                            got = form.substitute(zs) * sign
                        (v, mult), = term_weights(e, [term]).items()
                        want = linear_form_of(v, "s") * mult
                        assert got == want, (e, term)


class TestEulerClass:
    def test_zero_weights_skipped(self):
        m = SignedWeightMultiset(2, {(1, 0): 1, (0, 1): 1, (0, 0): 3})
        expected = FactoredRational.from_poly(
            linear_form_of((1, 0), "s") * linear_form_of((0, 1), "s"))
        assert rational_equal(euler_class(m, "s"), expected)
        m = SignedWeightMultiset(2, {(1, 0): 1, (0, 0): -2})
        assert rational_equal(
            euler_class(m, "s"),
            FactoredRational.from_poly(linear_form_of((1, 0), "s")))

    def test_opposite_pair(self):
        m = SignedWeightMultiset(2, {(1, -1): 1, (-1, 1): 1})
        got = euler_class(m, "s")
        val = got.evaluate({("s", 1): Fraction(5), ("s", 2): Fraction(2)})
        assert val == Fraction(-9)

    def test_negative_multiplicity_divides(self):
        m = SignedWeightMultiset(1, {(1,): -1})
        val = euler_class(m, "s").evaluate({("s", 1): Fraction(4)})
        assert val == Fraction(1, 4)

    def test_empty_multiset(self):
        got = euler_class(SignedWeightMultiset(2), "s")
        assert rational_equal(
            got, FactoredRational.from_poly(SparsePolynomial.one()))

    @given(st.integers(1, 3).flatmap(lambda n: st.lists(st.tuples(
        st.tuples(*[st.integers(-2, 2)] * n),
        st.sampled_from((1, -1, 2, -3)), st.integers(-3, 3)), max_size=8)),
        st.sampled_from(("s", "z")))
    @example([((1, -2, 0), 2, 1), ((1, -2, 0), -1, -1), ((0, 0, 0), 1, 2),
              ((-1, 1, 0), 1, 1)], "s")
    @settings(max_examples=300, deadline=None)
    def test_matches_building_each_weight_form(self, rows, namespace):
        # rows of (base, scale, mult) put scale * base in the multiset, so
        # proportional weights, non-primitive ones, negative leading
        # coordinates, cancelling multiplicities and zero weights all occur
        n = len(rows[0][0]) if rows else 2
        counts: dict = {}
        for base, scale, mult in rows:
            w = tuple(scale * c for c in base)
            counts[w] = counts.get(w, 0) + mult
        m = SignedWeightMultiset(n, counts)
        want = FactoredRational.build(
            Fraction(1), SparsePolynomial.one(),
            [(linear_form_of(w, namespace), k) for w, k in m.items() if any(w)])
        got = euler_class(m, namespace)
        assert (got.scalar, got.poly, got.factors) \
            == (want.scalar, want.poly, want.factors)
        # a table already holding these weights gives the same fields
        table: dict = {}
        euler_class(m, namespace, table)
        assert_same_fields(euler_class(m, namespace, table), got)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_one_table_matches_table_free_calls(self, n):
        # one table for every chain of this n with d <= 5: each Euler
        # class of obstruction - tangent, and each relabelling of it to
        # another chain of its orbit, perms given as lists and as tuples
        table: dict = {}
        for dims in _shapes(n, 5):
            for np_ in enumerate_nested(n, dims):
                e = canonical_enumeration(np_)
                m = obstruction_class(e) - tangent_class(e)
                value = euler_class(m, "s", table)
                assert_same_fields(value, euler_class(m, "s"))
                for perm in s_orbit(np_).values():
                    want = value.relabel_s(perm)
                    assert_same_fields(value.relabel_s(list(perm), table), want)
                    assert_same_fields(value.relabel_s(tuple(perm), table),
                                       want)


class TestFlagTangentEuler:
    def evaluate_at(self, fr, *svals):
        return fr.evaluate({("s", i + 1): Fraction(v)
                            for i, v in enumerate(svals)})

    def test_projective_line_factor(self):
        got = flag_tangent_euler((1,), 2, (1, 1))
        assert self.evaluate_at(got, 2, 5) == Fraction(3)

    def test_full_flag_in_three_space(self):
        got = flag_tangent_euler((1, 2), 3, (1, 1, 1))
        assert self.evaluate_at(got, 2, 5, 11) == Fraction((5 - 2) * (11 - 2) * (11 - 5))

    def test_grassmannian_plane(self):
        got = flag_tangent_euler((1, 2), 3, (1, 2))
        assert self.evaluate_at(got, 2, 5, 11) == Fraction((11 - 2) * (11 - 5))

    def test_permuted_coset(self):
        got = flag_tangent_euler((2,), 2, (1, 1))
        assert self.evaluate_at(got, 2, 5) == Fraction(-3)

    def test_requires_pointed_dims(self):
        with pytest.raises(RequiresPointedDims):
            flag_tangent_euler((1,), 2, (2, 1))

    @pytest.mark.parametrize("sigma, n, dims", [
        ((3,), 2, (1, 1)),          # a value past n
        ((1, 1), 3, (1, 1, 1)),     # not injective
        ((1,), 3, (1, 1, 1)),       # one entry for a two-step flag
        ((1, 2, 3), 2, (1, 3)),     # more flag slots than coordinates
    ])
    def test_sigma_is_checked(self, sigma, n, dims):
        with pytest.raises(IndexOutOfRange):
            flag_tangent_euler(sigma, n, dims)

    def test_degree_is_flag_dimension(self):
        for n, dims, dim in [(2, (1, 1), 1), (3, (1, 1, 1), 3),
                             (3, (1, 2), 2), (4, (1, 1, 2), 5)]:
            got = flag_tangent_euler(tuple(range(1, sum(dims))), n, dims)
            assert got.homogeneous_degree() == dim
