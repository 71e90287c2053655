"""Fixed-point combinatorics: order ideals, nested chains, enumerations,
and the three membership predicates.  Counts and memberships are checked
against brute-force oracles built independently in this file."""

from itertools import permutations, product

import pytest

from nahilb.errors import (
    IndexOutOfRange,
    RequiresNilfil,
    RequiresPointedDims,
    SizeGuardExceeded,
    TooManyPoints,
)
from nahilb import partitions
from nahilb.partitions import (
    MAX_ENUMERATION_POINTS,
    Enumeration,
    NestedPartition,
    all_enumerations,
    canonical_enumeration,
    addable_points,
    enumerate_nested,
    flag_cosets,
    has_nilfil_chain,
    in_flag_fiber,
    is_admissible,
    is_nilfil,
    point_budget,
    point_key,
    point_levels,
    porteous,
    s_orbit,
)


def pt(*coords):
    return tuple(coords)


def ideal(*points):
    return frozenset(points)


def _downward_closed(points) -> bool:
    for p in points:
        for j in range(len(p)):
            if p[j]:
                q = p[:j] + (p[j] - 1,) + p[j + 1:]
                if q not in points:
                    return False
    return True


def _ideal_oracle(n: int, size: int) -> set:
    """All order ideals of the given size, grown point by point."""
    if size == 0:
        return {frozenset()}
    out = {frozenset({(0,) * n})}
    for _ in range(size - 1):
        grown = set()
        for cur in out:
            for p in cur:
                for j in range(n):
                    q = p[:j] + (p[j] + 1,) + p[j + 1:]
                    if q not in cur and _downward_closed(cur | {q}):
                        grown.add(cur | {q})
        out = grown
    return out


def ideals(n, size):
    """The order ideals of the given size: enumerate_nested on one layer."""
    return [np_.layers[0] for np_ in enumerate_nested(n, (size,))]


class TestEnumeratePartitions:
    def test_three_points_in_the_plane(self):
        got = ideals(2, 3)
        assert set(got) == {
            ideal(pt(0, 0), pt(1, 0), pt(2, 0)),
            ideal(pt(0, 0), pt(1, 0), pt(0, 1)),
            ideal(pt(0, 0), pt(0, 1), pt(0, 2)),
        }

    def test_line_is_forced(self):
        assert ideals(1, 4) == [ideal(pt(0), pt(1), pt(2), pt(3))]

    def test_single_point(self):
        assert ideals(3, 1) == [ideal(pt(0, 0, 0))]

    @pytest.mark.parametrize("n,sizes", [(2, range(1, 7)), (3, range(1, 6))])
    def test_matches_growth_oracle(self, n, sizes):
        for size in sizes:
            got = ideals(n, size)
            assert len(got) == len(set(got)), "duplicates"
            assert set(got) == _ideal_oracle(n, size)

    def test_all_outputs_downward_closed(self):
        for size in range(1, 6):
            for p in ideals(2, size):
                assert _downward_closed(p)

    def test_known_counts(self):
        assert [len(ideals(2, k)) for k in range(1, 7)] == [
            1, 2, 3, 5, 7, 11]
        assert [len(ideals(3, k)) for k in range(1, 7)] == [
            1, 3, 6, 13, 24, 48]

    def test_deterministic_order(self):
        assert ideals(2, 4) == ideals(2, 4)

    def test_size_guard(self):
        with pytest.raises(SizeGuardExceeded):
            ideals(2, 13)

    def test_size_guard_point_budget(self):
        def count(budget, size):
            token = point_budget.set(budget)
            try:
                return len(ideals(2, size))
            finally:
                point_budget.reset(token)

        with pytest.raises(SizeGuardExceeded):
            count(5, 6)
        # clamped to 14
        assert count(99, 14) == 135
        with pytest.raises(SizeGuardExceeded):
            count(99, 15)

    def test_size_guard_env_override(self, monkeypatch):
        # the environment sets no budget; only point_budget does
        monkeypatch.setenv("NAHILB_MAX_POINTS", "5")
        assert len(ideals(2, 6)) == 11


class TestEnumerateNested:
    def test_unique_chain_on_the_line(self):
        got = enumerate_nested(1, (1, 2))
        assert len(got) == 1
        assert got[0].layers == (ideal(pt(0)), ideal(pt(0), pt(1), pt(2)))

    def test_two_chains_in_the_plane(self):
        got = enumerate_nested(2, (1, 1))
        assert {np_.layers[1] for np_ in got} == {
            ideal(pt(0, 0), pt(1, 0)), ideal(pt(0, 0), pt(0, 1))}

    def test_single_layer_matches_partitions(self):
        got = enumerate_nested(2, (3,))
        assert {np_.layers[0] for np_ in got} == _ideal_oracle(2, 3)

    def test_layer_invariants(self):
        for dims in [(1, 1), (2, 1), (1, 2, 1), (3,)]:
            for np_ in enumerate_nested(2, dims):
                running = 0
                prev = frozenset()
                for layer, d in zip(np_.layers, dims):
                    running += d
                    assert len(layer) == running
                    assert prev <= layer
                    assert _downward_closed(layer)
                    prev = layer

    def test_nesting_validation(self):
        with pytest.raises(IndexOutOfRange):
            NestedPartition(2, (1, 1), [ideal(pt(1, 0)),
                                        ideal(pt(1, 0), pt(0, 0))])
        with pytest.raises(IndexOutOfRange):
            NestedPartition(2, (1, 1), [ideal(pt(0, 0)),
                                        ideal(pt(0, 0), pt(1, 1))])
        with pytest.raises(IndexOutOfRange):
            NestedPartition(2, (1, 1), [ideal(pt(0, 0)),
                                        ideal(pt(1, 0), pt(0, 1))])
        with pytest.raises(IndexOutOfRange):  # a point not in Z^2
            NestedPartition(2, (1,), [ideal(pt(0, 0, 0))])
        with pytest.raises(IndexOutOfRange):  # a negative coordinate
            NestedPartition(1, (1, 1), [ideal(pt(0)), ideal(pt(0), pt(-1))])
        with pytest.raises(IndexOutOfRange):  # a float coordinate
            NestedPartition(1, (1,), [{(0.0,)}])


class TestEnumerations:
    def test_forced_line_order(self):
        np_ = enumerate_nested(1, (1, 2))[0]
        e = canonical_enumeration(np_)
        assert e.points == (pt(0), pt(1), pt(2))
        assert tuple(e.w) == (0, 1, 1)

    def test_forced_two_layer_order(self):
        np_ = NestedPartition(2, (1, 1, 1), [
            ideal(pt(0, 0)), ideal(pt(0, 0), pt(1, 0)),
            ideal(pt(0, 0), pt(1, 0), pt(0, 1))])
        e = canonical_enumeration(np_)
        assert e.points == (pt(0, 0), pt(1, 0), pt(0, 1))
        assert tuple(e.w) == (0, 1, 2)

    def test_single_layer_tie_break(self):
        np_ = NestedPartition(2, (3,), [ideal(pt(0, 0), pt(1, 0), pt(0, 1))])
        e = canonical_enumeration(np_)
        assert e.points == (pt(0, 0), pt(1, 0), pt(0, 1))

    def test_all_enumerations_counts(self):
        np_ = NestedPartition(2, (3,), [ideal(pt(0, 0), pt(1, 0), pt(0, 1))])
        assert len(all_enumerations(np_)) == 2
        line = enumerate_nested(1, (1, 1, 1))[0]
        assert len(all_enumerations(line)) == 1
        box = NestedPartition(2, (4,), [
            ideal(pt(0, 0), pt(1, 0), pt(0, 1), pt(1, 1))])
        assert len(all_enumerations(box)) == 2

    def test_every_prefix_is_an_ideal(self):
        for dims in [(1, 2), (3,), (1, 1, 1), (2, 2)]:
            for np_ in enumerate_nested(2, dims):
                for e in all_enumerations(np_):
                    for k in range(1, len(e.points) + 1):
                        assert _downward_closed(frozenset(e.points[:k]))
                    running = 0
                    for layer, d in zip(np_.layers, dims):
                        running += d
                        assert frozenset(e.points[:running]) == layer

    def test_canonical_is_lexicographically_first(self):
        for np_ in enumerate_nested(2, (1, 2)) + enumerate_nested(3, (3,)):
            all_orders = [tuple(point_key(p) for p in e.points)
                          for e in all_enumerations(np_)]
            canon = tuple(point_key(p)
                          for p in canonical_enumeration(np_).points)
            assert canon == min(all_orders)

    def test_roundtrip_to_nested(self):
        for np_ in enumerate_nested(2, (1, 1, 1)):
            for e in all_enumerations(np_):
                assert e.nested() == np_


class TestOrbit:
    """s_orbit against every permutation of the coordinates, applied to
    the points directly."""

    @staticmethod
    def _image(np_, perm):
        def move(p):
            q = [0] * len(p)
            for i, c in enumerate(p):
                q[perm[i]] = c
            return tuple(q)
        return tuple(frozenset(map(move, layer)) for layer in np_.layers)

    @pytest.mark.parametrize("n,dims", [(1, (2,)), (2, (1, 2)), (3, (1, 2)),
                                        (3, (2, 2)), (4, (1, 1, 1)),
                                        (4, (3,))])
    def test_matches_every_permutation(self, n, dims):
        chains = enumerate_nested(n, dims)
        layers = {np_.layers for np_ in chains}
        for np_ in chains:
            orbit = s_orbit(np_)
            want = {self._image(np_, perm) for perm in permutations(range(n))}
            assert set(orbit) == want <= layers
            assert orbit[np_.layers] == tuple(range(n))
            for image, perm in orbit.items():
                assert sorted(perm) == list(range(n))
                assert self._image(np_, perm) == image

    def test_a_symmetric_chain_is_its_own_orbit(self):
        np_ = NestedPartition(3, (1, 3), [
            ideal(pt(0, 0, 0)),
            ideal(pt(0, 0, 0), pt(1, 0, 0), pt(0, 1, 0), pt(0, 0, 1))])
        assert s_orbit(np_) == {np_.layers: (0, 1, 2)}


def _compositions(max_d):
    """Every dims tuple of positive entries with total at most max_d."""
    out = [(d,) for d in range(1, max_d + 1)]
    for dims in out:  # the list grows while it is read
        out.extend(dims + (d,) for d in range(1, max_d - sum(dims) + 1))
    return out


def _brute_orders(np_) -> list:
    """Every point sequence of the chain: the product over its blocks of
    the block's permutations whose prefixes, on top of the layer below,
    are order ideals, sorted lexicographically by point_key."""
    per_block = []
    for below, layer in zip((frozenset(),) + np_.layers, np_.layers):
        per_block.append([order for order in permutations(layer - below)
                          if all(_downward_closed(below | set(order[:k]))
                                 for k in range(1, len(order) + 1))])
    orders = [sum(choice, ()) for choice in product(*per_block)]
    return sorted(orders, key=lambda order: [point_key(p) for p in order])


_ZERO_STEP_DIMS = [(0,), (0, 1), (1, 0), (1, 0, 1), (0, 2), (2, 0),
                   (0, 0, 3), (1, 2, 0, 2), (0, 2, 0, 2), (1, 0, 0, 2, 1),
                   (0, 1, 0, 1, 0, 1), (2, 0, 4), (0, 6)]


class TestAllEnumerationsOracle:
    """all_enumerations against the brute-force product of the blocks'
    permutations: the exact list and its order."""

    def test_every_chain_up_to_six_points(self):
        chains = 0
        for n in (1, 2, 3):
            for dims in _compositions(6) + _ZERO_STEP_DIMS:
                for np_ in enumerate_nested(n, dims):
                    got = [e.points for e in all_enumerations(np_)]
                    assert got == _brute_orders(np_)
                    chains += 1
        assert chains > 11521

    def test_budget_refused_before_any_work(self, monkeypatch):
        def no_search(block):
            raise AssertionError("searched past the enumeration budget")
        monkeypatch.setattr(partitions, "_block_orders", no_search)
        d = MAX_ENUMERATION_POINTS + 1
        for dims in [(d,), (1, d - 1), (0, d)]:
            np_ = enumerate_nested(1, dims)[0]
            with pytest.raises(SizeGuardExceeded, match="enumeration budget"):
                all_enumerations(np_)


class TestUncheckedConstruction:
    """enumerate_nested, all_enumerations and canonical_enumeration build
    their results without the validating constructors; rebuilding each
    result through those constructors must give an equal, equally hashable
    object."""

    def test_results_equal_the_validated_ones(self):
        chains = 0
        for n in (1, 2, 3):
            for dims in _compositions(6):  # within MAX_ENUMERATION_POINTS
                for np_ in enumerate_nested(n, dims):
                    chains += 1
                    rebuilt = NestedPartition(n, dims, np_.layers)
                    assert np_ == rebuilt and hash(np_) == hash(rebuilt)
                    assert np_.blocks == rebuilt.blocks
                    orders = all_enumerations(np_)
                    for e in orders:
                        again = Enumeration(n, dims, e.points)
                        assert e == again and hash(e) == hash(again)
                        assert e.w == again.w
                    assert canonical_enumeration(np_) == orders[0]
        assert chains == 11521


class TestAdmissibility:
    def test_pure_powers_up_to_four(self):
        np_ = enumerate_nested(1, (5,))[0]
        assert is_admissible(np_)

    def test_pure_power_five_fails(self):
        np_ = enumerate_nested(1, (6,))[0]
        assert not is_admissible(np_)

    def test_triple_support_fails(self):
        box = [pt(a, b, c) for a in (0, 1) for b in (0, 1) for c in (0, 1)]
        np_ = NestedPartition(3, (8,), [ideal(*box)])
        assert not is_admissible(np_)

    def test_two_support_weight_three_passes(self):
        np_ = NestedPartition(2, (6,), [ideal(
            pt(0, 0), pt(1, 0), pt(2, 0), pt(0, 1), pt(1, 1), pt(2, 1))])
        assert is_admissible(np_)

    def test_two_support_weight_four_fails(self):
        np_ = NestedPartition(2, (8,), [ideal(
            pt(0, 0), pt(1, 0), pt(2, 0), pt(3, 0),
            pt(0, 1), pt(1, 1), pt(2, 1), pt(3, 1))])
        assert not is_admissible(np_)


class TestNilfil:
    def test_unit_vector_steps(self):
        np_ = NestedPartition(2, (1, 1, 1), [
            ideal(pt(0, 0)), ideal(pt(0, 0), pt(1, 0)),
            ideal(pt(0, 0), pt(1, 0), pt(0, 1))])
        assert is_nilfil(np_)

    def test_flat_line_fails(self):
        np_ = enumerate_nested(1, (1, 2))[0]
        assert not is_nilfil(np_)

    def test_two_units_in_one_layer(self):
        np_ = NestedPartition(2, (1, 2), [
            ideal(pt(0, 0)), ideal(pt(0, 0), pt(1, 0), pt(0, 1))])
        assert is_nilfil(np_)

    def test_requires_pointed_dims(self):
        np_ = NestedPartition(1, (2, 1), [
            ideal(pt(0), pt(1)), ideal(pt(0), pt(1), pt(2))])
        with pytest.raises(RequiresPointedDims):
            is_nilfil(np_)


def _pointed(max_d: int) -> list:
    """Every pointed dims of at most max_d points, each grown once from
    the shape before it by a new last block or a larger one."""
    shapes = [(1,)]
    for dims in shapes:
        if sum(dims) < max_d:
            shapes.append(dims + (1,))
            if len(dims) > 1:
                shapes.append(dims[:-1] + (dims[-1] + 1,))
    return shapes


class TestNilfilChain:
    @pytest.mark.parametrize("n, max_d", [(1, 6), (2, 8), (3, 6), (4, 6)])
    def test_matches_the_enumeration(self, n, max_d):
        empty = 0
        for dims in _pointed(max_d):
            chains = enumerate_nested(n, dims)
            want = any(is_nilfil(np_) for np_ in chains)
            assert has_nilfil_chain(n, dims) == want, dims
            empty += not want
        assert empty  # the search decides some shapes empty

    def test_nilfil_blocks_are_the_corner_sets(self):
        # the lemma the search rests on: a chain is nilfil exactly when
        # each block after the first is a set of addable points of the
        # layer below
        for n in (1, 2, 3):
            for dims in _pointed(5):
                for np_ in enumerate_nested(n, dims):
                    corners = all(set(block) <= addable_points(below, n)
                                  for below, block in zip(np_.layers,
                                                          np_.blocks[1:]))
                    assert is_nilfil(np_) == corners

    def test_every_nonempty_ideal_has_its_pure_powers_as_corners(self):
        for n in (1, 2, 3):
            for size in range(1, 7):
                for cur in ideals(n, size):
                    corners = addable_points(cur, n)
                    for i in range(n):
                        k = min(k for k in range(size + 1)
                                if (0,) * i + (k,) + (0,) * (n - i - 1)
                                not in cur)
                        assert (0,) * i + (k,) + (0,) * (n - i - 1) in corners
                    assert len(corners) >= n

    def test_blocks_of_at_most_n_points_need_no_search(self, monkeypatch):
        def tripped(*args):
            raise AssertionError("searched")
        monkeypatch.setattr(partitions, "addable_points", tripped)
        assert has_nilfil_chain(5, (1, 5, 0, 5, 1))
        assert has_nilfil_chain(1, (1, 1, 1, 1))

    def test_empty_blocks_add_nothing(self):
        assert has_nilfil_chain(2, (1, 2, 0, 3)) == has_nilfil_chain(2, (1, 2, 3))
        assert not has_nilfil_chain(2, (1, 0, 3))

    def test_refusals(self):
        with pytest.raises(RequiresPointedDims):
            has_nilfil_chain(2, (2, 1))
        with pytest.raises(SizeGuardExceeded, match="point budget"):
            has_nilfil_chain(2, (1, 20))


class TestFlagFiber:
    def test_porteous_lies_on_identity_fiber(self):
        for n, dims in [(3, (1, 1, 1)), (2, (1, 2)), (4, (1, 1, 2))]:
            assert in_flag_fiber(porteous(n, dims))

    def test_axis_choice_must_match_sigma(self):
        np_ = NestedPartition(2, (1, 1), [
            ideal(pt(0, 0)), ideal(pt(0, 0), pt(0, 1))])
        assert not in_flag_fiber(np_)
        np_ = NestedPartition(2, (1, 1), [
            ideal(pt(0, 0)), ideal(pt(0, 0), pt(1, 0))])
        assert in_flag_fiber(np_)

    def test_doubled_step_stays_on_fiber(self):
        np_ = NestedPartition(2, (1, 1, 1), [
            ideal(pt(0, 0)), ideal(pt(0, 0), pt(1, 0)),
            ideal(pt(0, 0), pt(1, 0), pt(2, 0))])
        assert in_flag_fiber(np_)

    def test_identity_fiber_membership_for_full_flag(self):
        hid = [np_ for np_ in enumerate_nested(3, (1, 1, 1))
               if is_nilfil(np_) and in_flag_fiber(np_)]
        tops = {tuple(sorted(np_.top())) for np_ in hid}
        assert tops == {
            tuple(sorted({pt(0, 0, 0), pt(1, 0, 0), pt(0, 1, 0)})),
            tuple(sorted({pt(0, 0, 0), pt(1, 0, 0), pt(2, 0, 0)})),
        }

    def test_requires_nilfil(self):
        np_ = NestedPartition(2, (1, 2), [
            ideal(pt(0, 0)), ideal(pt(0, 0), pt(1, 0), pt(2, 0))])
        with pytest.raises(RequiresNilfil):
            in_flag_fiber(np_)

    def test_sigma_validation(self):
        np_ = NestedPartition(1, (1, 1, 1), [
            ideal(pt(0)), ideal(pt(0), pt(1)), ideal(pt(0), pt(1), pt(2))])
        with pytest.raises(TooManyPoints):
            in_flag_fiber(np_)


class TestPorteous:
    def test_full_flag(self):
        np_ = porteous(3, (1, 1, 1))
        assert np_.layers == (
            ideal(pt(0, 0, 0)),
            ideal(pt(0, 0, 0), pt(1, 0, 0)),
            ideal(pt(0, 0, 0), pt(1, 0, 0), pt(0, 1, 0)))

    def test_block_step(self):
        np_ = porteous(2, (1, 2))
        assert np_.layers == (
            ideal(pt(0, 0)), ideal(pt(0, 0), pt(1, 0), pt(0, 1)))

    def test_too_many_points(self):
        with pytest.raises(TooManyPoints):
            porteous(1, (1, 1, 1))


class TestFlagCosets:
    def test_full_flag_count(self):
        assert flag_cosets(3, (1, 1)) == [
            (1, 2), (1, 3), (2, 1), (2, 3), (3, 1), (3, 2)]

    def test_block_sorted(self):
        assert flag_cosets(3, (2,)) == [(1, 2), (1, 3), (2, 3)]
        for sigma in flag_cosets(4, (2, 1)):
            assert sigma[0] < sigma[1]

    def test_counts(self):
        from math import factorial
        for n, dhat in [(3, (1, 1)), (4, (2, 1)), (4, (1, 3)), (5, (2, 2))]:
            k = sum(dhat)
            expected = factorial(n) // factorial(n - k)
            for b in dhat:
                expected //= factorial(b)
            assert len(flag_cosets(n, dhat)) == expected

    def test_identity_first(self):
        assert flag_cosets(4, (1, 2))[0] == tuple(range(1, 4))


class TestLevels:
    def test_point_levels(self):
        assert tuple(point_levels((1, 2, 1))) == (0, 1, 1, 2)
        assert tuple(point_levels((3,))) == (0, 0, 0)

    def test_enumeration_levels_follow_layers(self):
        np_ = porteous(3, (1, 2, 1))
        e = canonical_enumeration(np_)
        assert tuple(e.w) == tuple(point_levels((1, 2, 1)))

    def test_enumeration_length_checked(self):
        with pytest.raises(IndexOutOfRange):
            Enumeration(2, (1, 1), (pt(0, 0),))

    @pytest.mark.parametrize("n, dims, points", [
        (2, (2,), [(1, 0), (0, 0)]),               # a predecessor comes later
        (2, (1, 2), [(0, 0, 0), (1, 0, 0), (0, 1, 0)]),  # not in Z^2
        (1, (1, 1), [(0,), (2,)]),                 # (1,) is never placed
        (2, (1, 1), [(0, 0), (0, 0)]),             # a repeated point
        (1, (1, 1), [(0,), (-1,)]),                # a negative coordinate
    ])
    def test_enumeration_order_checked(self, n, dims, points):
        with pytest.raises(IndexOutOfRange):
            Enumeration(n, dims, points)
