"""Iterated residues at infinity and the closed-form nilpotent integrals.

Oracles: classical single-variable partial fractions, the block-coset sum
over the flag variety computed by direct substitution, and cross-method
agreement with the localization engine.  The per-variable sign convention
is pinned by exact anchor values.
"""

import random
from collections import Counter
from fractions import Fraction
from functools import partial, reduce
from itertools import combinations_with_replacement, permutations, product
from math import comb
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nahilb import residues
from nahilb.algebra import (
    MAX_EXPONENT,
    FactoredRational,
    LinearForm,
    SparsePolynomial,
    exact_divide_linear,
    rational_equal,
    slices_of,
    substitute_elementary,
    sum_factored,
    var_shift,
)
from nahilb.errors import (
    ExponentOverflow,
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


def theta(i):
    return SparsePolynomial.variable(("theta", i))


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


def block(n, k):
    """The coordinate block s_i - z_l, i <= n and l <= k, as factors."""
    return [(szlf(i, l), 1) for i in range(1, n + 1) for l in range(1, k + 1)]


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


def residue_routes(form, margin):
    """iterated_residue(form, margin), and how many of its rounds
    multiplied the deferred product D into the numerator before the
    divisions and how many into the quotient after them.  A round of the
    first kind calls mul_packed with rows that are not a deferred form's
    terms, and every round slices D and the numerator once each."""
    calls = Counter()
    mul, slices = residues.mul_packed, residues.slices_of
    lazy = [f.terms for f, _ in form.deferred]

    def counted_mul(terms, rows):
        calls["before"] += all(rows is not t for t in lazy)
        return mul(terms, rows)

    def counted_slices(terms, x):
        calls["slices"] += 1
        return slices(terms, x)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(residues, "mul_packed", counted_mul)
        mp.setattr(residues, "slices_of", counted_slices)
        got = iterated_residue(form, margin)
    return got, calls["before"], calls["slices"] // 2 - calls["before"]


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
        # round with deferred forms but no pole, whose residue is zero.
        # Numerators of at most 4 terms are shorter than D, which has 6 or
        # more, and those of every other trial are longer (times an
        # s-polynomial of 15 terms), so both routes of a round run.
        rng = random.Random(20261019)
        nonzero = 0
        routes = Counter()
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
            if trial % 4 < 2:
                num = num * (s(1) + 2 * s(2) + 1) ** 4
            full = num
            for form, e in deferred:
                full = full * SparsePolynomial.from_packed(form.terms) ** e
            for margin in (0, 2):
                got, before, after = residue_routes(
                    ResidueForm(num, factors, k, deferred), margin)
                routes[margin, "before"] += before
                routes[margin, "after"] += after
                assert got == iterated_residue(
                    ResidueForm(full, factors, k), margin), (trial, margin)
            nonzero += not got.is_zero()
            assert not bare or got.is_zero()
        assert nonzero >= 6
        assert min(routes[m, r] for m in (0, 2)
                   for r in ("before", "after")) >= 1, routes

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


def finite_residue_sum(num, factors, point):
    """RESIDUE_SIGN times the sum of the classical residues of the one-z
    form num / prod F^e, at the s-values of point: partial fractions with
    poles of any order, num expanded in t = z_1 - p about each pole p."""
    values = {("s", i): v for i, v in point.items()}
    lines = []  # (a, b, e) for a factor (a*z_1 + b)^e
    for form, e in factors:
        b = form.evaluate({("z", 1): 0, **values})
        lines.append((form.evaluate({("z", 1): 1, **values}) - b, b, e))
    at = {v: SparsePolynomial.constant(x) for v, x in values.items()}
    t = SparsePolynomial.variable(("z", 2))
    total = Fraction(0)
    for p in {-b / a for a, b, _ in lines}:
        order = sum(e for a, b, e in lines if a * p + b == 0)
        at[("z", 1)] = SparsePolynomial.constant(p) + t
        series = num.substitute(at)
        for a, b, e in lines:
            c0 = a * p + b
            if c0 == 0:
                series = series * Fraction(1, a ** e)
            else:  # 1/(c0 + a*t) = sum_j (-a)^j c0^(-1-j) t^j
                inv = sum((t ** j * (Fraction(-a) ** j / c0 ** (j + 1))
                           for j in range(order)), SparsePolynomial.zero())
                series = series * inv ** e
        total += series.terms.get((order - 1) << var_shift(("z", 2)), 0)
    return RESIDUE_SIGN * total


@st.composite
def _shift_mixed_forms(draw):
    """(num, factors, k, deferred) as coefficient dicts: each round's
    factors mix the monomial roots z_M - s_i and z_M - z_l with
    2*z_l - z_M and z_i + z_j - z_M, exponents 1 to 3."""
    k = draw(st.integers(1, 3))

    def factor(M):
        kinds = ("s", "z", "2z", "zz") if M > 1 else ("s",)
        kind = draw(st.sampled_from(kinds))
        if kind == "s":
            coeffs = {("z", M): 1, ("s", draw(st.integers(1, 3))): -1}
        elif kind == "z":
            coeffs = {("z", M): 1, ("z", draw(st.integers(1, M - 1))): -1}
        elif kind == "2z":
            coeffs = {("z", M): -1, ("z", draw(st.integers(1, M - 1))): 2}
        else:
            coeffs = {("z", M): -1}
            for _ in range(2):
                zi = ("z", draw(st.integers(1, M - 1)))
                coeffs[zi] = coeffs.get(zi, 0) + 1
        return coeffs, draw(st.integers(1, 3))

    factors, deferred = [], []
    for M in range(1, k + 1):
        factors += [factor(M) for _ in range(draw(st.integers(1, 2)))]
        deferred += [factor(M) for _ in range(draw(st.integers(0, 1)))]
    names = [("z", l) for l in range(1, k + 1)] + [("s", i) for i in (1, 2, 3)]
    num = SparsePolynomial.zero()
    for c, mono in draw(st.lists(st.tuples(
            st.sampled_from((-3, -2, -1, 1, 2, 3)),
            st.lists(st.sampled_from(names), max_size=4)),
            min_size=1, max_size=4)):
        num = num + SparsePolynomial({tuple((v, 1) for v in mono): c})
    return num, factors, k, deferred


@given(_shift_mixed_forms(), st.sampled_from((0, 2)),
       st.lists(st.integers(-9, 9), min_size=3, max_size=3, unique=True))
@settings(max_examples=60, deadline=None)
def test_monomial_shift_passes_match_general_passes(form, margin, values):
    num, factors, k, deferred = form
    forms = [(LinearForm(c), e) for c, e in factors]
    lazy = [(LinearForm(c), e) for c, e in deferred]
    got = iterated_residue(ResidueForm(num, forms, k, lazy), margin)
    full = num
    for f, e in lazy:
        full = full * SparsePolynomial.from_packed(f.terms) ** e
    assert got == iterated_residue(ResidueForm(full, forms, k), margin)
    # scaled by 2, no factor has z_M coefficient +-1, so every pass
    # multiplies the quotient and none moves an offset
    doubled = [(LinearForm({v: 2 * x for v, x in c.items()}), e)
               for c, e in factors]
    scale = 2 ** sum(e for _, e in factors)
    assert got == iterated_residue(
        ResidueForm(num, doubled, k, lazy), margin) * scale
    if k == 1:
        point = dict(zip((1, 2, 3), values))
        assert got.evaluate({("s", i): v for i, v in point.items()}) \
            == finite_residue_sum(full, forms, point)


_DIVISORS = [LinearForm({("s", 1): 1, ("s", 2): -1}),
             LinearForm({("s", 2): 1, ("z", 1): -1}),
             LinearForm({("s", 1): 2, ("s", 3): -1})]


@given(st.dictionaries(
    st.lists(st.tuples(st.sampled_from(
        [("s", 1), ("s", 2), ("s", 3), ("z", 1)]), st.integers(1, 3)),
        max_size=3).map(tuple),
    st.integers(-5, 5), max_size=5).map(SparsePolynomial),
    st.sampled_from(_DIVISORS))
@settings(max_examples=80, deadline=None)
def test_exact_divide_linear_by_monomial_roots(p, f):
    # s1 - s2 and s2 - z1 divide by moving an offset, 2*s1 - s3 by products
    assert exact_divide_linear(p * f, f) == p
    # f divides p*f + 1 only if it divides 1
    assert exact_divide_linear(p * f + SparsePolynomial.one(), f) is None


def test_exponent_bound_refuses_before_dividing(monkeypatch):
    def no_division(*args):
        raise AssertionError("divide_slices ran")

    top = SparsePolynomial.variable(("s", 1)) ** (MAX_EXPONENT - 4)
    pole = LinearForm({("z", 1): 1, ("s", 1): -1})
    monkeypatch.setattr(residues, "divide_slices", no_division)
    with pytest.raises(ExponentOverflow):
        iterated_residue(ResidueForm(top, [(pole, 8)], 1))
    monkeypatch.undo()
    # at the bound the round runs; s1^K + s2^K has degree K although the
    # OR of its monomials has degree 2K
    K = MAX_EXPONENT - 2
    for num in (s(1) ** K, s(1) ** K + s(2) ** K):
        assert iterated_residue(ResidueForm(num, [(pole, 1)], 1)) == -num
    with pytest.raises(ExponentOverflow):
        iterated_residue(ResidueForm(s(1) ** (K + 1), [(pole, 1)], 1))


def test_exponent_bound_refuses_premultiplied_rounds(monkeypatch):
    # a one-term numerator is shorter than D = -(z1 - s2), so D multiplies
    # it before the divisions, and the bound reads the product's degree
    pole = LinearForm({("z", 1): 1, ("s", 1): -1})
    lazy = [(LinearForm({("z", 1): 1, ("s", 2): -1}), 1)]
    K = MAX_EXPONENT - 3
    got, before, after = residue_routes(
        ResidueForm(s(1) ** K, [(pole, 1)], 1, lazy), 0)
    assert (before, after) == (1, 0)
    assert got == -s(1) ** K * (s(1) - s(2))

    def no_division(*args):
        raise AssertionError("divide_slices ran")

    monkeypatch.setattr(residues, "divide_slices", no_division)
    # past the degree bound, and past a field in the product itself
    for num, e in ((s(1) ** (K + 1), 1), (s(2) ** (MAX_EXPONENT - 1), 2)):
        form = ResidueForm(num, [(pole, 1)], 1, [(lazy[0][0], e)])
        with pytest.raises(ExponentOverflow):
            residue_routes(form, 0)


# the series 1, as the slices that _sigma_recurrence takes
UNIT_SERIES = {0: (0, {0: 1})}


def folded(slice_):
    """The packed terms of an (offset, terms) slice."""
    off, terms = slice_
    return {m + off: c for m, c in terms.items()}


def elementary_ys(n):
    return [var_shift(("eta", j)) for j in range(1, n + 1)]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_unit_series_slices_are_complete_homogeneous(n):
    # 1/sigma = sum_u h_u(s) z^(-n-u); the oracle sums the monomials of
    # degree u in s_1..s_n directly
    ys = elementary_ys(n)
    series = residues._sigma_recurrence(UNIT_SERIES, ys, -n - 6)
    for u in range(7):
        want = SparsePolynomial.zero()
        for alpha in combinations_with_replacement(range(1, n + 1), u):
            want = want + reduce(mul, map(s, alpha), SparsePolynomial.one())
        got = substitute_elementary(folded(series[-n - u]), ys)
        assert SparsePolynomial.from_packed(got) == want, (n, u)


def test_read_out_is_the_recurrence_slice():
    # the z^-1 slice of p / sigma, as the slice of p times the series of
    # 1/sigma, against the recurrence run on p: on states whose slices
    # carry offsets, and through a residue round, which takes the
    # read-out when no deferred form has its z-variable
    rng = random.Random(20261021)
    nonzero = 0
    for trial in range(36):
        n = 1 + trial % 3
        ys = elementary_ys(n)
        fields = ys + [var_shift(("theta", 1)), var_shift(("s", 1))]
        state = {}
        for k in rng.sample(range(n + 4), rng.randint(1, 4)):
            terms = {sum(rng.randint(0, 2) << sh for sh in fields):
                     Fraction(rng.choice((-3, -1, 1, 2)), rng.randint(1, 3))
                     for _ in range(rng.randint(1, 4))}
            state[k] = (sum(rng.randint(0, 1) << sh for sh in fields), terms)
        want = residues._sigma_recurrence(state, ys, -1)
        series = residues._sigma_recurrence(UNIT_SERIES, ys, -1 - max(state))
        assert residues._slice_product(state, series, -1) == (
            folded(want[-1]) if -1 in want else {}), trial

        # free of s and Y, so that Y_j -> e_j(s) is one to one on the
        # quotient; the round's sign is RESIDUE_SIGN * (-1)^n
        num = random_q(rng, 1, n + 3) * (theta(1) + trial % 5)
        want = residues._sigma_recurrence(slices_of(num.terms, ("z", 1)),
                                          ys, -1)
        want = SparsePolynomial.from_packed(substitute_elementary(
            folded(want[-1]) if -1 in want else {}, ys))
        got = iterated_residue(ResidueForm(num, [], 1, coordinates=n))
        assert got == want * (RESIDUE_SIGN * (-1) ** n), trial
        nonzero += not got.is_zero()
    assert nonzero >= 30


def test_block_matches_explicit_factors():
    # with the block as data, a round divides once by sigma in the
    # symmetric variables; with it as explicit s_i - z_l factors, by n
    # offset passes in s.  Numerators carry s, theta and fractions, other
    # factors mix z_M - z_b with general forms, and deferred forms take
    # both routes of D, so the one-slice read-out (the recurrence run on
    # the unit series) and the recurrence on a state both run at margins
    # 0 and 2
    rng = random.Random(20261020)
    ran = Counter()
    recurrence = residues._sigma_recurrence

    def counted(state, *args):
        ran["read-out" if state == UNIT_SERIES else "recurrence"] += 1
        return recurrence(state, *args)

    nonzero = 0
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(residues, "_sigma_recurrence", counted)
        for trial in range(18):
            n, k = 1 + trial % 3, 1 + trial // 3 % 3
            factors, deferred = [], []
            for M in range(1, k + 1):
                if rng.random() < 0.6:
                    factors.append((random_zform(rng, M), rng.randint(1, 2)))
                if M > 1 and rng.random() < 0.6:
                    b = rng.randint(1, M - 1)
                    factors.append(
                        (LinearForm({("z", M): 1, ("z", b): -1}), 1))
                if trial % 2:
                    deferred.append((random_zform(rng, M), rng.randint(1, 2)))
            num = random_q(rng, k, 2, terms=3)
            for M in range(1, k + 1):
                num = num * z(M) ** rng.randint(n - 1, n + 2)
            if trial % 4 < 2:
                num = num * (s(1) - 2 * theta(1) + s(n + 1) + 1) ** 3
            for margin in (0, 2):
                got = iterated_residue(ResidueForm(
                    num, factors, k, deferred, coordinates=n), margin)
                assert got == iterated_residue(
                    ResidueForm(num, factors + block(n, k), k, deferred),
                    margin), (trial, margin)
            nonzero += not got.is_zero()
    assert nonzero >= 12
    assert min(ran.values()) >= 4 and len(ran) == 2, ran


def test_block_refusals(monkeypatch):
    for numerator, factors in ((eta(1) * z(1), []),
                               (z(1), [(LinearForm({("z", 1): 1,
                                                    ("eta", 2): 1}), 1)])):
        with pytest.raises(IndexOutOfRange, match="eta"):
            ResidueForm(numerator, factors, 1, coordinates=2)
    # without a block an eta is only another parameter
    ResidueForm(eta(1) * z(1), [], 1)
    with pytest.raises(IndexOutOfRange):
        ResidueForm(z(1), [], 1, coordinates=-1)

    def no_division(*args):
        raise AssertionError("a division ran")

    # the bound counts the n sigma steps: z1^K over the block of one
    # parameter is s1^K, whose y_1^K is the largest exponent, and one
    # parameter more or K one higher is refused before any division
    K = MAX_EXPONENT - 2
    want = iterated_residue(ResidueForm(z(1) ** K, block(1, 1), 1))
    assert want == s(1) ** K
    assert want == iterated_residue(
        ResidueForm(z(1) ** K, [], 1, coordinates=1))
    for name in ("divide_slices", "_sigma_recurrence"):
        monkeypatch.setattr(residues, name, no_division)
    for num, n in ((z(1) ** (K + 1), 1), (z(1) ** K, 2),
                   (z(1) ** 2 * s(1) ** (K - 1), 2)):
        with pytest.raises(ExponentOverflow):
            iterated_residue(ResidueForm(num, [], 1, coordinates=n))


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
            # at d = 4 an S_n orbit meets the fiber in two chains
            (3, (1, 1, 1, 1), TautClass(1, 0, 4)),
            (3, (1, 2, 1), TautClass(1, 0, 4)),
            (3, (1, 1, 2), TautClass(1, 0, 4)),
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


# d = 5 keeps the shapes whose last block is one point: the two sides
# of the others take 1 to 60 s here for the four integrands, from
# (1, 1, 1, 2) and (1, 2, 2) at n = 1, 2 to (1, 1, 3) and (1, 4), the fat
# blocks, and every shape but (1, 2, 1, 1) at n = 3.  At n = 4 the
# localization sum of (1, 1, 1, 1) takes about 1 s per integrand and 9 s
# for the theta class, so that shape keeps c1 alone, and (1, 2, 1) drops
# the theta class (1.6 s).
_AGREEMENT_SHAPES = (
    [(n, dims) for n in (1, 2, 3, 4) for dims in _POINTED_D4 if dims != (1,)]
    + [(n, dims) for n in (1, 2) for dims in ((1, 1, 1, 1, 1), (1, 1, 2, 1),
                                              (1, 2, 1, 1), (1, 3, 1))]
    + [(3, (1, 2, 1, 1))])


@pytest.mark.parametrize("n,dims", _AGREEMENT_SHAPES, ids=[
    f"n{n}-" + ",".join(map(str, dims)) for n, dims in _AGREEMENT_SHAPES])
def test_residue_equals_the_localization_sum(n, dims):
    d = sum(dims)
    classes = [TautClass(1, 0, d), chern_taut(1, 0, d),
               chern_taut(2, 0, d, dual=True),
               TautClass(theta(1) * chern_taut(1, 1, d).poly + 1, 1, d)]
    if (n, dims) == (4, (1, 1, 1, 1)):
        classes = classes[1:2]
    elif (n, dims) == (4, (1, 2, 1)):
        classes.pop()
    for P in classes:
        res = integrate_residue_nilfil(n, dims, P)
        loc = integrate_localization(n, dims, "nilfil", P)
        assert res.vdim == loc.vdim
        assert rational_equal(res.value, loc.value), (n, dims, P.poly)


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
