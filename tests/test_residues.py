"""Iterated residues at infinity and the closed-form nilpotent integrals.

Oracles: classical single-variable partial fractions, the block-coset sum
over the flag variety computed by direct substitution, and cross-method
agreement with the localization engine.  The per-variable sign convention
is pinned by exact anchor values.
"""

import random
from fractions import Fraction
from functools import partial
from itertools import permutations, product
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nahilb import residues
from nahilb.algebra import (
    FactoredRational,
    LinearForm,
    SparsePolynomial,
    rational_equal,
    sum_factored,
)
from nahilb.errors import (
    IndexOutOfRange,
    NonElimination,
    RequiresNilfil,
    RequiresPointedDims,
    SizeGuardExceeded,
    TooManyPoints,
)
from nahilb.localization import TautClass, chern_taut, integrate_localization
from nahilb.partitions import (
    NestedPartition,
    enumerate_nested,
    flag_cosets,
    in_flag_fiber,
    is_nilfil,
    point_budget,
    porteous,
)
from nahilb.residues import (
    RESIDUE_SIGN,
    ResidueForm,
    flag_fiber_Q,
    integrate_residue_nilfil,
    iterated_residue,
    residue_term,
    weighted_residue_rhs,
)
from nahilb.weights import flag_tangent_euler


def z(l):
    return SparsePolynomial.variable(("z", l))


def s(i):
    return SparsePolynomial.variable(("s", i))


def eta(j):
    return SparsePolynomial.variable(("eta", j))


def szlf(i, l):
    """The parameter factor s_i - z_l."""
    return LinearForm({("s", i): Fraction(1), ("z", l): Fraction(-1)})


def random_zform(rng, top):
    """A linear form with top z-variable z_top whose z_top coefficient is
    never +-1, with random lower z and s coefficients."""
    coeffs = {("z", top): rng.choice((-3, -2, 2, 3))}
    coeffs.update({("z", l): rng.randint(-2, 2) for l in range(1, top)})
    coeffs.update({("s", i): rng.randint(-2, 2) for i in (1, 2)})
    return LinearForm(coeffs)


def one_var_form(P, n):
    return ResidueForm(P, [(szlf(i, 1), 1) for i in range(1, n + 1)], 1)


def ratio(num, dens):
    return FactoredRational.build(Fraction(1), num, [(f, -1) for f in dens])


def partial_fraction_sum(P, n):
    """sum_i P(s_i) / prod_{j != i} (s_j - s_i)."""
    terms = []
    for i in range(1, n + 1):
        value = P.substitute({("z", 1): s(i)})
        dens = [LinearForm({("s", j): Fraction(1), ("s", i): Fraction(-1)})
                for j in range(1, n + 1) if j != i]
        terms.append(ratio(value, dens))
    return sum_factored(terms)


def coset_sum(Q, n, dhat):
    """Block-sorted injections sigma of Q(s_sigma) over the flag Euler
    class; the left side of the weighted residue identity."""
    k = sum(dhat)
    terms = []
    for sigma in flag_cosets(n, dhat):
        sub = {("z", l): s(sigma[l - 1]) for l in range(1, k + 1)}
        terms.append(FactoredRational.from_poly(Q.substitute(sub))
                     / flag_tangent_euler(sigma, n, (1,) + tuple(dhat)))
    return sum_factored(terms)


def random_q(rng, k, deg, terms=5):
    out = SparsePolynomial.zero()
    for _ in range(terms):
        mono = SparsePolynomial.constant(
            Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
        for _ in range(rng.randint(0, deg)):
            mono = mono * z(rng.randint(1, k))
        out = out + mono
    return out


def symmetrize_blocks(Q, dhat):
    """Average Q over permutations of the z-variables within each block."""
    blocks = []
    start = 1
    for b in dhat:
        blocks.append(list(range(start, start + b)))
        start += b
    out = SparsePolynomial.zero()
    combos = list(product(*[list(permutations(b)) for b in blocks]))
    for combo in combos:
        sub = {}
        for block, perm in zip(blocks, combo):
            sub.update({("z", src): z(dst) for src, dst in zip(block, perm)})
        out = out + Q.substitute(sub)
    return out * Fraction(1, len(combos))


def margin_changes(monkeypatch, values):
    """For margins 2 and -1, which of values() change when every residue
    entry point runs iterated_residue with that margin.  margin lives on
    iterated_residue alone: loosening it must change nothing, while a
    negative margin cuts the divisions short and changes each value."""
    plain = values()
    changed = {}
    for margin in (2, -1):
        monkeypatch.setattr(residues, "iterated_residue",
                            partial(iterated_residue, margin=margin))
        changed[margin] = [not rational_equal(a, b)
                           for a, b in zip(values(), plain)]
    return changed


class TestResidueForm:
    def test_rejects_z_free_denominator(self):
        with pytest.raises(NonElimination):
            ResidueForm(SparsePolynomial.one(),
                        [(LinearForm({("s", 1): Fraction(1)}), 1)], 1)

    def test_rejects_nonpositive_exponent(self):
        with pytest.raises(IndexOutOfRange):
            ResidueForm(SparsePolynomial.one(), [(szlf(1, 1), 0)], 1)
        with pytest.raises(IndexOutOfRange):
            ResidueForm(SparsePolynomial.one(), [], 1,
                        deferred=[(szlf(1, 1), -1)])

    def test_rejects_overflowing_index(self):
        with pytest.raises(IndexOutOfRange):
            ResidueForm(z(2), [(szlf(1, 1), 1)], 1)
        with pytest.raises(IndexOutOfRange):
            ResidueForm(SparsePolynomial.one(), [(szlf(1, 2), 1)], 1)

    def test_rejects_z_free_deferred(self):
        with pytest.raises(NonElimination):
            ResidueForm(SparsePolynomial.one(), [(szlf(1, 1), 1)], 1,
                        deferred=[(LinearForm({("s", 1): Fraction(1)}), 1)])


class TestIteratedResidue:
    def test_sign_anchor(self):
        assert RESIDUE_SIGN == -1
        got = iterated_residue(one_var_form(z(1), 2))
        assert got == SparsePolynomial.constant(-1)

    def test_vanishing_anchor(self):
        got = iterated_residue(one_var_form(SparsePolynomial.one(), 2))
        assert got == SparsePolynomial.zero()

    def test_double_pole(self):
        # minus the classical residue at z = s1, which is d/dz[z^2] = 2s1
        f = ResidueForm(z(1) ** 2, [(szlf(1, 1), 2)], 1)
        assert iterated_residue(f) == s(1) * (-2)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_monomials_against_partial_fractions(self, n):
        for m in range(0, n + 3):
            got = iterated_residue(one_var_form(z(1) ** m, n))
            assert rational_equal(FactoredRational.from_poly(got),
                                  partial_fraction_sum(z(1) ** m, n))

    def test_random_numerators_against_partial_fractions(self):
        rng = random.Random(20260815)
        for n in (2, 3):
            for _ in range(5):
                P = random_q(rng, 1, n + 1)
                got = iterated_residue(one_var_form(P, n))
                assert rational_equal(FactoredRational.from_poly(got),
                                      partial_fraction_sum(P, n))

    @pytest.mark.parametrize("c", [1, -1, 2, -2, 3])
    def test_single_pole_closed_form(self, c):
        # 1/(c*z1 + r)^e = c^-e z1^-e sum_t C(e-1+t, t) (-r/c)^t z1^-t, so
        # the z1^-1 coefficient of z1^k times it has t = k - e + 1
        r = s(1) - s(2) * 2
        form = LinearForm({("z", 1): c, ("s", 1): 1, ("s", 2): -2})
        for e, k, margin in product((1, 2, 3), range(6), (0, 2)):
            got = iterated_residue(
                ResidueForm(z(1) ** k, [(form, e)], 1), margin)
            if k < e - 1:
                assert got == SparsePolynomial.zero()
                continue
            want = ((r * Fraction(-1, c)) ** (k - e + 1)
                    * Fraction(-comb(k, e - 1), c ** e))
            assert got == want, (c, e, k, margin)

    def test_deferred_factors_multiply_in(self):
        base = ResidueForm(z(1) * (s(1) - z(1)),
                           [(szlf(1, 1), 1), (szlf(2, 1), 1)], 1)
        lazy = ResidueForm(z(1), [(szlf(1, 1), 1), (szlf(2, 1), 1)], 1,
                           deferred=[(szlf(1, 1), 1)])
        assert iterated_residue(base) == iterated_residue(lazy)

    def test_deferred_forms_match_premultiplied(self):
        # the pre-multiplied form defers nothing, so its deferred product
        # is 1 and it stays an independent oracle; every fourth form has a
        # round with deferred forms but no pole, whose residue is zero
        rng = random.Random(20261019)
        nonzero = 0
        for trial in range(12):
            k = 2 + trial % 2
            bare = rng.randint(1, k) if trial % 4 == 3 else 0
            factors, deferred = [], []
            for M in range(1, k + 1):
                deferred.append((random_zform(rng, M), rng.randint(2, 3)))
                if M != bare:
                    factors += [(random_zform(rng, M), rng.randint(1, 2))
                                for _ in range(rng.randint(1, 2))]
            num = random_q(rng, k, k, terms=4)
            full = num
            for form, e in deferred:
                full = full * SparsePolynomial.from_packed(form.terms) ** e
            for margin in (0, 2):
                got = iterated_residue(
                    ResidueForm(num, factors, k, deferred), margin)
                assert got == iterated_residue(
                    ResidueForm(full, factors, k), margin), (trial, margin)
            nonzero += not got.is_zero()
            assert not bare or got.is_zero()
        assert nonzero >= 6

    def test_margin_never_changes_results(self):
        rng = random.Random(7)
        for n in (2, 3):
            P = random_q(rng, 1, n + 1)
            f0 = iterated_residue(one_var_form(P, n), margin=0)
            f3 = iterated_residue(one_var_form(P, n), margin=3)
            assert f0 == f3

    def test_two_variable_factorization(self):
        # independent variables factor: the double residue is the product
        # of the single-variable answers
        f = ResidueForm(z(1) * z(2),
                        [(szlf(1, 1), 1), (szlf(2, 1), 1),
                         (szlf(1, 2), 1), (szlf(2, 2), 1)], 2)
        assert iterated_residue(f) == SparsePolynomial.one()


class TestWeightedResidue:
    def test_constant_q(self):
        assert weighted_residue_rhs(SparsePolynomial.one(), 2, (1,)) == \
            SparsePolynomial.zero()

    def test_linear_q(self):
        assert weighted_residue_rhs(z(1), 2, (1,)) == \
            SparsePolynomial.constant(-1)

    def test_block_normalization(self):
        got = weighted_residue_rhs(z(1) * z(2), 2, (2,))
        assert got == s(1) * s(2)
        got = weighted_residue_rhs(SparsePolynomial.one(), 2, (2,))
        assert got == SparsePolynomial.one()

    def test_too_many_slots(self):
        with pytest.raises(TooManyPoints):
            weighted_residue_rhs(SparsePolynomial.one(), 2, (2, 1))

    @pytest.mark.parametrize("n,dhat", [
        (2, (1,)), (3, (1,)), (3, (1, 1)), (3, (2,)), (4, (1, 2)),
    ])
    def test_matches_coset_sum_on_random_q(self, n, dhat):
        rng = random.Random(1000 * n + sum(dhat))
        for _ in range(3):
            Q = symmetrize_blocks(random_q(rng, sum(dhat), 4), dhat)
            got = weighted_residue_rhs(Q, n, dhat)
            assert rational_equal(FactoredRational.from_poly(got),
                                  coset_sum(Q, n, dhat))

    def test_margin_stability(self, monkeypatch):
        Q = z(1) ** 2 * z(2) + z(2)
        assert margin_changes(monkeypatch, lambda: [
            FactoredRational.from_poly(weighted_residue_rhs(Q, 3, (1, 1))),
        ]) == {2: [False], -1: [True]}


class TestFlagFiberQ:
    def test_two_point_eta(self):
        for n in (2, 3):
            got = flag_fiber_Q(n, (1, 1), TautClass(eta(1), 0, 2))
            assert got == s(1)

    def test_two_point_constant(self):
        got = flag_fiber_Q(2, (1, 1), TautClass(1, 0, 2))
        assert got == SparsePolynomial.one()

    def test_full_flag_three_space(self):
        got = flag_fiber_Q(3, (1, 1, 1), TautClass(1, 0, 3))
        assert got == s(1) * (-2)

    def test_needs_room(self):
        with pytest.raises(TooManyPoints):
            flag_fiber_Q(1, (1, 1, 1), TautClass(1, 0, 3))

    def test_feeds_weighted_residue(self):
        cases = [
            (2, (1, 1), TautClass(eta(1) ** 2, 0, 2)),
            (2, (1, 1, 1), TautClass(1, 0, 3)),
            (3, (1, 1, 1), TautClass(1, 0, 3)),
            (2, (1, 2), TautClass(1, 0, 3)),
        ]
        for n, dims, P in cases:
            q = flag_fiber_Q(n, dims, P)
            k = sum(dims) - 1
            qz = q.substitute({("s", l): z(l) for l in range(1, k + 1)})
            got = weighted_residue_rhs(qz, n, dims[1:])
            want = integrate_residue_nilfil(n, dims, P).value
            assert rational_equal(FactoredRational.from_poly(got), want)


class TestIntegrateResidue:
    @pytest.mark.parametrize("n,k", [(2, 0), (2, 1), (2, 2), (3, 2), (3, 3)])
    def test_projective_space(self, n, k):
        P = TautClass(eta(1) ** k if k else 1, 0, 2)
        res = integrate_residue_nilfil(n, (1, 1), P)
        loc = integrate_localization(n, (1, 1), "nilfil", P)
        assert res.method == "residue"
        assert res.space == "nilfil"
        assert res.vdim == loc.vdim == n - 1
        assert rational_equal(res.value, loc.value)

    def test_full_flag_three_points(self):
        P = TautClass(1, 0, 3)
        res = integrate_residue_nilfil(2, (1, 1, 1), P)
        loc = integrate_localization(2, (1, 1, 1), "nilfil", P)
        assert rational_equal(res.value, loc.value)
        assert rational_equal(
            res.value, FactoredRational.from_poly(SparsePolynomial.constant(2)))

    def test_fat_step(self):
        P = TautClass(1, 0, 3)
        res = integrate_residue_nilfil(2, (1, 2), P)
        loc = integrate_localization(2, (1, 2), "nilfil", P)
        expected = s(1) * s(2) * (s(1) + s(2)) ** 2 * 4
        assert rational_equal(res.value, loc.value)
        assert rational_equal(res.value, FactoredRational.from_poly(expected))

    def test_chern_integrands(self):
        for n, dims in [(1, (1, 1, 1)), (2, (1, 1, 1)), (2, (1, 2))]:
            d = sum(dims)
            c2 = chern_taut(2, 0, d, dual=True)
            for P in (chern_taut(1, 0, d), c2,
                      TautClass(c2.poly * c2.poly, 0, d)):
                res = integrate_residue_nilfil(n, dims, P)
                loc = integrate_localization(n, dims, "nilfil", P)
                assert res.vdim == loc.vdim
                assert rational_equal(res.value, loc.value)

    def test_beyond_the_ambient_bound(self):
        # d - 1 > n is fine for the residue formula; the fold of the
        # extra parameter factors recovers the small-n answer from any
        # larger ambient dimension
        P = TautClass(1, 0, 3)
        small = integrate_residue_nilfil(1, (1, 2), P)
        fold = SparsePolynomial.one()
        for i in range(2, 4):
            for l in range(1, 3):
                fold = fold * (s(i) - eta(l))
        folded = TautClass(fold, 0, 3)
        big = integrate_residue_nilfil(3, (1, 2), folded)
        assert rational_equal(small.value, big.value)

    def test_requires_pointed_dims(self):
        with pytest.raises(RequiresPointedDims):
            integrate_residue_nilfil(2, (2, 1), TautClass(1, 0, 3))

    def test_point_budget(self):
        token = point_budget.set(5)
        try:
            with pytest.raises(SizeGuardExceeded,
                               match="total size 6 exceeds the point budget 5"):
                integrate_residue_nilfil(2, (1,) * 6, TautClass(1, 0, 6))
        finally:
            point_budget.reset(token)

    def test_rejects_eta_beyond_the_chain(self):
        P = TautClass(eta(4), 0, 5)
        with pytest.raises(IndexOutOfRange):
            integrate_residue_nilfil(3, (1, 1, 1), P)

    def test_margin_stability(self, monkeypatch):
        P = chern_taut(1, 0, 3)
        assert margin_changes(monkeypatch, lambda: [
            integrate_residue_nilfil(2, (1, 1, 1), P).value,
            FactoredRational.from_poly(
                residue_term(porteous(2, (1, 1, 1)), P)),
        ]) == {2: [False] * 2, -1: [True] * 2}


@pytest.mark.parametrize("call", [
    lambda: integrate_residue_nilfil(0, (1, 1), TautClass(1, 0, 2)),
    lambda: integrate_residue_nilfil(2, (1, -1), TautClass(1, 0, 1)),
    lambda: integrate_residue_nilfil(-1, (1,), TautClass(1, 0, 1)),
    lambda: weighted_residue_rhs(SparsePolynomial.one(), 2, (-1,)),
    lambda: flag_cosets(2, (-1,)),
], ids=["residue-n0", "residue-negative-dim", "residue-negative-n",
        "weighted-negative-dim", "cosets-negative-dim"])
def test_impossible_shapes_are_refused(call):
    with pytest.raises(IndexOutOfRange):
        call()


# every pointed shape with at most four points
_POINTED_D4 = [(1,), (1, 1), (1, 2), (1, 3),
               (1, 1, 1), (1, 1, 2), (1, 2, 1), (1, 1, 1, 1)]


@st.composite
def _block_symmetric(draw, d):
    """(q, poly): an integer combination of products of at most two of
    c_1, c_2 (plain or dual, with q = 0 or 1 theta roots) and the eta
    power sums p_1, p_2, each product of degree at most 3."""
    q = draw(st.integers(0, 1))
    factors = [(k, chern_taut(k, q, d, dual).poly)
               for k in (1, 2) if k <= d for dual in (False, True)]
    factors += [(k, sum((eta(j) ** k for j in range(1, d)),
                        SparsePolynomial.zero())) for k in (1, 2)]
    products = st.lists(st.sampled_from(factors), max_size=2).filter(
        lambda fs: sum(k for k, _ in fs) <= 3)
    poly = SparsePolynomial.zero()
    for coeff, fs in draw(st.lists(st.tuples(
            st.integers(-3, 3).filter(bool), products),
            min_size=1, max_size=3)):
        term = SparsePolynomial.constant(coeff)
        for _, f in fs:
            term = term * f
        poly = poly + term
    return q, poly


@pytest.mark.parametrize("dims", _POINTED_D4)
@pytest.mark.parametrize("n", [1, 2, 3])
@given(data=st.data())
@settings(max_examples=3, deadline=None)
def test_methods_agree_on_random_block_symmetric_integrands(n, dims, data):
    d = sum(dims)
    q, poly = data.draw(_block_symmetric(d))
    P = TautClass(poly, q, d)
    loc = integrate_localization(n, dims, "nilfil", P)
    res = integrate_residue_nilfil(n, dims, P)
    assert loc.vdim == res.vdim
    assert rational_equal(loc.value, res.value)


class TestResidueTerms:
    def test_two_point_term_is_the_integral(self):
        for n in (2, 3):
            for P in (TautClass(1, 0, 2), TautClass(eta(1) ** n, 0, 2)):
                term = residue_term(porteous(n, (1, 1)), P)
                total = integrate_residue_nilfil(n, (1, 1), P)
                assert rational_equal(FactoredRational.from_poly(term),
                                      total.value)

    def test_non_porteous_terms_vanish(self):
        doubled = NestedPartition(3, (1, 1, 1), [
            frozenset({(0, 0, 0)}),
            frozenset({(0, 0, 0), (1, 0, 0)}),
            frozenset({(0, 0, 0), (1, 0, 0), (2, 0, 0)})])
        assert residue_term(doubled, TautClass(1, 0, 3)).is_zero()

    def test_terms_decompose_the_integral(self):
        for n, dims in [(2, (1, 1, 1)), (2, (1, 2))]:
            P = TautClass(1, 0, sum(dims))
            members = [np_ for np_ in enumerate_nested(n, dims)
                       if is_nilfil(np_) and in_flag_fiber(np_)]
            total = sum(
                (residue_term(np_, P) for np_ in members),
                SparsePolynomial.zero())
            want = integrate_residue_nilfil(n, dims, P).value
            assert rational_equal(FactoredRational.from_poly(total), want)

    def test_rejects_off_fiber_chains(self):
        off = NestedPartition(2, (1, 1), [
            frozenset({(0, 0)}), frozenset({(0, 0), (0, 1)})])
        with pytest.raises(RequiresNilfil):
            residue_term(off, TautClass(1, 0, 2))

    def test_rejects_unpointed_chains(self):
        fat = NestedPartition(2, (2, 1), [
            frozenset({(0, 0), (1, 0)}), frozenset({(0, 0), (1, 0), (0, 1)})])
        with pytest.raises(RequiresPointedDims):
            residue_term(fat, TautClass(1, 0, 3))

    def test_rejects_eta_beyond_the_chain(self):
        P = TautClass(eta(4), 0, 5)
        with pytest.raises(IndexOutOfRange):
            residue_term(porteous(3, (1, 1, 1)), P)
