"""Weight multisets of the deformation complexes.

The recursive (level multiset) constructions are checked against the
direct index products, net ranks against closed-form counts and the
Grassmannian tower dimension, and Euler classes against hand-expanded
products.  Sweeps here stay small; the acceptance tests run the big ones.
"""

from fractions import Fraction
from itertools import chain as chain_terms

import pytest

from nahilb.algebra import (
    FactoredRational,
    LinearForm,
    SparsePolynomial,
    evaluate,
    linear_form_of,
    rational_equal,
)
from nahilb.errors import NotInFiber, RequiresPointedDims
from nahilb.partitions import (
    NestedPartition,
    all_enumerations,
    canonical_enumeration,
    enumerate_nested,
    identity_sigma,
    in_flag_fiber,
    is_admissible,
    is_nilfil,
    point_levels,
    porteous,
)
from nahilb.weights import (
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
    punctual_net_count,
    punctual_terms,
    tangent_class,
    tangent_class_direct,
    tangent_class_punctual,
    tangent_net_count,
    term_weights,
    term_zforms,
)


def chain(n, dims, *layers):
    return canonical_enumeration(NestedPartition(
        n, dims, [frozenset(layer) for layer in layers]))


def msetdict(m):
    return dict(m.items())


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
        m.bump((1,), -1)
        assert msetdict(m) == {}


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
        assert msetdict(fiber_tangent_class(e, (1,))) == {}

    def test_full_flag_fiber_dimension(self):
        e = canonical_enumeration(porteous(3, (1, 1, 1)))
        f = fiber_tangent_class(e, (1, 2))
        assert f.net_rank() == 1
        assert msetdict(f) == {(2, -1, 0): 1}

    def test_single_point_fiber(self):
        e = chain(3, (1,), {(0, 0, 0)})
        assert msetdict(fiber_tangent_class(e, ())) == {}

    def test_not_in_fiber(self):
        np_ = NestedPartition(2, (1, 1), [
            frozenset({(0, 0)}), frozenset({(0, 0), (0, 1)})])
        with pytest.raises(NotInFiber):
            fiber_tangent_class(canonical_enumeration(np_), (1,))

    def test_net_rank_is_punctual_minus_flag(self):
        for n in (2, 3):
            for dims in [(1, 1), (1, 1, 1), (1, 2)]:
                if sum(dims) - 1 > n:
                    continue
                e = canonical_enumeration(porteous(n, dims))
                f = fiber_tangent_class(e, identity_sigma(sum(dims)))
                flag_dim = flag_tangent_euler(
                    identity_sigma(sum(dims)), n, dims).homogeneous_degree()
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
                sigma = identity_sigma(sum(dims))
                for np_ in enumerate_nested(n, dims):
                    if not is_nilfil(np_) or not in_flag_fiber(np_, sigma):
                        continue
                    for e in all_enumerations(np_):
                        assert fiber_tangent_class(e, sigma) == \
                            fiber_tangent_class_direct(e, sigma)


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
                            got = form.substitute(zs).scale(sign)
                        (v, mult), = term_weights(e, [term]).items()
                        want = linear_form_of(v, "s").scale(mult)
                        assert got == want, (e, term)


class TestEulerClass:
    def test_zero_weights_skipped(self):
        m = SignedWeightMultiset(2, {(1, 0): 1, (0, 1): 1, (0, 0): 3})
        expected = FactoredRational.from_poly(
            linear_form_of((1, 0), "s").as_poly()
            * linear_form_of((0, 1), "s").as_poly())
        assert rational_equal(euler_class(m, "s"), expected)
        m = SignedWeightMultiset(2, {(1, 0): 1, (0, 0): -2})
        assert rational_equal(
            euler_class(m, "s"),
            FactoredRational.from_poly(linear_form_of((1, 0), "s").as_poly()))

    def test_opposite_pair(self):
        m = SignedWeightMultiset(2, {(1, -1): 1, (-1, 1): 1})
        got = euler_class(m, "s")
        val = evaluate(got, {("s", 1): Fraction(5), ("s", 2): Fraction(2)})
        assert val == Fraction(-9)

    def test_negative_multiplicity_divides(self):
        m = SignedWeightMultiset(1, {(1,): -1})
        val = evaluate(euler_class(m, "s"), {("s", 1): Fraction(4)})
        assert val == Fraction(1, 4)

    def test_empty_multiset(self):
        got = euler_class(SignedWeightMultiset(2), "s")
        assert rational_equal(
            got, FactoredRational.from_poly(SparsePolynomial.one()))


class TestFlagTangentEuler:
    def evaluate_at(self, fr, *svals):
        return evaluate(fr, {("s", i + 1): Fraction(v)
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

    def test_degree_is_flag_dimension(self):
        for n, dims, dim in [(2, (1, 1), 1), (3, (1, 1, 1), 3),
                             (3, (1, 2), 2), (4, (1, 1, 2), 5)]:
            got = flag_tangent_euler(identity_sigma(sum(dims)), n, dims)
            assert got.homogeneous_degree() == dim
