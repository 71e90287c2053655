"""Localization integrals over nested Hilbert schemes.

Anchors: the closed-form degree-three integral on three-space and the two
per-point contribution formulas it sums, the projective-space integrals
computed against a hand-rolled fixed-point sum, and the full-flag
reduction.  The fixed-rank gate and the degree law are property tests.
"""

import os
import subprocess
import sys
from fractions import Fraction

import pytest

import nahilb
from nahilb.algebra import (
    FactoredRational,
    LinearForm,
    SparsePolynomial,
    rational_equal,
    sum_factored,
)
from nahilb.errors import (
    DegenerateRestriction,
    InconsistentVirtualDimension,
    IndexOutOfRange,
    NoFixedPoints,
    NotBisymmetric,
    ParseError,
    RequiresFullFlag,
    RequiresNilfil,
    SizeGuardExceeded,
)
from nahilb.localization import (
    MAX_Q,
    IntegralResult,
    TautClass,
    check_layer_symmetry,
    chern_taut,
    contribution,
    cy_restrict,
    fixed_point_sum,
    gated_term,
    integrate_localization,
    passes_gate,
    reduce_full_flag,
    restrict_class,
    virtual_dimension,
)
from nahilb.partitions import (
    MAX_N,
    NestedPartition,
    all_enumerations,
    canonical_enumeration,
    enumerate_nested,
    is_admissible,
    is_nilfil,
)
from nahilb.residues import integrate_residue_nilfil
from nahilb.weights import (
    epunct_class,
    euler_class,
    obstruction_class,
    tangent_class,
    tangent_class_punctual,
)


def s(i):
    return SparsePolynomial.variable(("s", i))


def sf(i):
    return LinearForm({("s", i): Fraction(1)})


def eta(j):
    return SparsePolynomial.variable(("eta", j))


def theta(i):
    return SparsePolynomial.variable(("theta", i))


def chain(n, *layers):
    layers = [frozenset(layer) for layer in layers]
    dims = [len(layers[0])] + [len(b) - len(a)
                               for a, b in zip(layers, layers[1:])]
    return canonical_enumeration(NestedPartition(n, tuple(dims), layers))


def ratio(scalar, num, dens):
    """FactoredRational scalar * num / prod(dens) with linear denominators."""
    return FactoredRational.build(
        Fraction(scalar), num, [(f, -1) for f in dens])


C2_DUAL = chern_taut(2, 0, 3, dual=True)
C2_CUBED = TautClass(C2_DUAL.poly ** 3, 0, 3)


class TestTautClass:
    def test_accepts_symmetric_blocks(self):
        TautClass(eta(1) * eta(2), 0, 3)
        TautClass(theta(1) + theta(2), 2, 1)
        TautClass(eta(1) ** 3, 0, 2)

    def test_rejects_asymmetric_eta(self):
        # eta_1 and eta_2 lie in one layer of (3,) and of (1, 2)
        with pytest.raises(NotBisymmetric):
            check_layer_symmetry(TautClass(eta(1), 0, 3), (1, 2))
        with pytest.raises(NotBisymmetric):
            check_layer_symmetry(TautClass(eta(1) * eta(2) ** 2, 0, 3), (3,))

    def test_rejects_asymmetric_theta(self):
        with pytest.raises(NotBisymmetric):
            TautClass(theta(1), 2, 1)

    def test_index_bounds(self):
        with pytest.raises(IndexOutOfRange):
            TautClass(eta(2), 0, 2)
        with pytest.raises(IndexOutOfRange):
            TautClass(theta(1), 0, 2)
        with pytest.raises(IndexOutOfRange):
            TautClass(SparsePolynomial.variable(("z", 1)), 0, 2)

    def test_constants_promoted(self):
        assert TautClass(5, 0, 1).poly == SparsePolynomial.constant(5)


class TestLayerSymmetry:
    """An integrand needs symmetry only among the eta_j of each layer,
    position 0, the origin, excluded."""

    # symmetric under eta_2 <-> eta_3 and under no other swap
    P = TautClass(eta(1) * (eta(2) + eta(3)), 0, 4)

    @pytest.mark.parametrize("dims", [(1, 1, 1, 1), (1, 1, 2), (2, 2),
                                      (2, 1, 1)])
    def test_accepted_where_the_layers_allow(self, dims):
        check_layer_symmetry(self.P, dims)

    @pytest.mark.parametrize("dims", [(1, 3), (4,), (1, 2, 1)])
    def test_refused_within_a_layer(self, dims):
        with pytest.raises(NotBisymmetric):
            check_layer_symmetry(self.P, dims)

    @pytest.mark.parametrize("n,dims", [(2, (1, 1, 2)), (2, (2, 2)),
                                        (3, (1, 1, 2))])
    def test_every_enumeration_gives_one_value(self, n, dims):
        reordered = 0
        for np_ in enumerate_nested(n, dims):
            orders = all_enumerations(np_)
            reordered += len(orders) > 1
            first = contribution(orders[0], "nhilb", self.P)
            for e in orders[1:]:
                assert rational_equal(contribution(e, "nhilb", self.P), first)
        assert reordered

    @pytest.mark.parametrize("n", [2, 3])
    def test_both_methods_agree(self, n):
        loc = integrate_localization(n, (1, 1, 2), "nilfil", self.P)
        res = integrate_residue_nilfil(n, (1, 1, 2), self.P)
        assert not loc.value.is_zero()
        assert rational_equal(loc.value, res.value)

    def test_jobs_check_once(self):
        for job in (lambda: integrate_localization(2, (1, 3), "nhilb", self.P),
                    lambda: integrate_residue_nilfil(2, (1, 3), self.P)):
            with pytest.raises(NotBisymmetric):
                job()


class TestSizeCaps:
    """n and q past their caps are refused before anything is built."""

    def test_n_past_the_cap(self):
        n = MAX_N + 1
        for job in (lambda: enumerate_nested(n, (1,)),
                    lambda: integrate_localization(n, (1,), "nhilb",
                                                   TautClass(1, 0, 1)),
                    lambda: integrate_residue_nilfil(n, (1, 1),
                                                     TautClass(1, 0, 2)),
                    lambda: reduce_full_flag(n, 1, TautClass(1, 0, 2))):
            with pytest.raises(SizeGuardExceeded, match=f"cap {MAX_N}$"):
                job()

    def test_q_past_the_cap(self):
        with pytest.raises(SizeGuardExceeded, match=f"cap {MAX_Q}$"):
            chern_taut(3, MAX_Q + 1, 1)
        with pytest.raises(SizeGuardExceeded, match=f"cap {MAX_Q}$"):
            TautClass(1, MAX_Q + 1, 1)

    def test_caps_admit_their_value(self):
        assert len(enumerate_nested(MAX_N, (1,))) == 1
        assert chern_taut(0, MAX_Q, 1).q == MAX_Q


class TestChernTaut:
    def test_second_chern_of_dual(self):
        assert C2_DUAL.poly == eta(1) * eta(2)

    def test_zeroth_is_one(self):
        assert chern_taut(0, 0, 3).poly == SparsePolynomial.one()
        assert chern_taut(0, 2, 2).poly == SparsePolynomial.one()

    def test_first_chern_with_twist(self):
        got = chern_taut(1, 1, 2, dual=False)
        assert got.poly == theta(1) * 2 - eta(1)

    def test_dual_negates_roots(self):
        got = chern_taut(1, 1, 2, dual=True)
        assert got.poly == eta(1) - theta(1) * 2

    def test_top_degree_and_bounds(self):
        assert chern_taut(3, 0, 3, dual=True).poly == SparsePolynomial.zero()
        with pytest.raises(IndexOutOfRange):
            chern_taut(4, 0, 3)
        with pytest.raises(IndexOutOfRange):
            chern_taut(3, 1, 2)
        with pytest.raises(IndexOutOfRange):
            chern_taut(-1, 0, 3)

    def test_elementary_symmetric_identity(self):
        got = chern_taut(2, 2, 2, dual=False).poly
        roots = [theta(1), theta(2), theta(1) - eta(1), theta(2) - eta(1)]
        expected = SparsePolynomial.zero()
        for a in range(4):
            for b in range(a + 1, 4):
                expected = expected + roots[a] * roots[b]
        assert got == expected


class TestRestrictClass:
    def test_doubled_point(self):
        e = chain(3, {(0, 0, 0), (1, 0, 0), (2, 0, 0)})
        assert restrict_class(C2_DUAL, e) == s(1) * s(1) * 2

    def test_two_distinct_directions(self):
        e = chain(3, {(0, 0, 0), (1, 0, 0), (0, 1, 0)})
        assert restrict_class(C2_DUAL, e) == s(1) * s(2)

    def test_constant(self):
        e = chain(3, {(0, 0, 0)})
        P = TautClass(1, 0, 1)
        assert restrict_class(P, e) == SparsePolynomial.one()

    def test_theta_untouched(self):
        e = chain(2, {(0, 0)}, {(0, 0), (1, 0)})
        P = TautClass(theta(1) * eta(1), 1, 2)
        assert restrict_class(P, e) == theta(1) * s(1)

    def test_missing_point(self):
        e = chain(2, {(0, 0)}, {(0, 0), (1, 0)})
        P = TautClass(eta(1) * eta(2), 0, 3)
        with pytest.raises(IndexOutOfRange):
            restrict_class(P, e)


class TestContribution:
    def test_doubled_point_formula(self):
        perms = {(1, 2, 3): chain(3, {(0, 0, 0), (1, 0, 0), (2, 0, 0)}),
                 (2, 1, 3): chain(3, {(0, 0, 0), (0, 1, 0), (0, 2, 0)}),
                 (3, 2, 1): chain(3, {(0, 0, 0), (0, 0, 1), (0, 0, 2)})}
        for (i, j, k), e in perms.items():
            got = contribution(e, "nhilb", C2_CUBED)
            expected = ratio(
                80, s(i) ** 6,
                [sf(j), sf(j) - sf(i), sf(j) - sf(i) * 2,
                 sf(k), sf(k) - sf(i), sf(k) - sf(i) * 2])
            assert rational_equal(got, expected)

    def test_two_direction_formula(self):
        e = chain(3, {(0, 0, 0), (1, 0, 0), (0, 1, 0)})
        i, j, k = 1, 2, 3
        num = ((s(i) * 2 + s(j)) * (s(i) + s(j) * 2) * (s(i) + s(j))
               * s(i) * s(j))
        got = contribution(e, "nhilb", C2_CUBED)
        expected = ratio(
            1, num,
            [sf(i) * 2 - sf(j), sf(j) * 2 - sf(i),
             sf(k), sf(k) - sf(i), sf(k) - sf(j)])
        assert rational_equal(got, expected)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_single_point(self, n):
        e = chain(n, {(0,) * n})
        got = contribution(e, "nhilb", TautClass(1, 0, 1))
        expected = ratio(1, SparsePolynomial.one(),
                         [sf(i) for i in range(1, n + 1)])
        assert rational_equal(got, expected)

    def test_gate_zeroes_nonadmissible(self):
        e = chain(1, tuple((i,) for i in range(6)))
        got = contribution(e, "nhilb", TautClass(1, 0, 6))
        assert got.is_zero()

    def test_nilfil_precondition(self):
        e = chain(1, {(0,)}, {(0,), (1,), (2,)})
        with pytest.raises(RequiresNilfil):
            contribution(e, "nilfil", TautClass(1, 0, 3))

    def test_space_and_dimension_validated(self):
        e = chain(2, {(0, 0)})
        with pytest.raises(ParseError):
            contribution(e, "everything", TautClass(1, 0, 1))


def hilb3_closed_form():
    sigma1 = s(1) + s(2) + s(3)
    sigma2 = s(1) * s(2) + s(1) * s(3) + s(2) * s(3)
    sigma3 = s(1) * s(2) * s(3)
    num = (sigma1 ** 3 * 20 - sigma2 * sigma1 * 31 + sigma3 * 11)
    return ratio(1, num, [sf(1), sf(2), sf(3)])


class TestIntegrateLocalization:
    def test_three_points_in_three_space(self):
        got = integrate_localization(3, (3,), "nhilb", C2_CUBED)
        assert got.vdim == 6
        assert got.method == "localization"
        assert got.space == "nhilb"
        assert rational_equal(got.value, hilb3_closed_form())

    def test_calabi_yau_restriction_of_the_anchor(self):
        got = integrate_localization(3, (3,), "nhilb", C2_CUBED)
        assert rational_equal(
            cy_restrict(got.value, 3),
            FactoredRational.from_poly(SparsePolynomial.constant(11)))

    @pytest.mark.parametrize("n,k", [(2, 0), (2, 1), (2, 2), (2, 3),
                                     (3, 0), (3, 2), (3, 4)])
    def test_projective_space_integrals(self, n, k):
        P = TautClass(eta(1) ** k if k else 1, 0, 2)
        got = integrate_localization(n, (1, 1), "nilfil", P)
        terms = []
        for i in range(1, n + 1):
            dens = [sf(j) - sf(i) for j in range(1, n + 1) if j != i]
            terms.append(ratio(1, s(i) ** k, dens))
        assert got.vdim == n - 1
        assert rational_equal(got.value, sum_factored(terms))

    def test_single_point_space(self):
        got = integrate_localization(1, (1,), "nhilb", TautClass(1, 0, 1))
        assert got.vdim == 1
        assert rational_equal(got.value, ratio(1, SparsePolynomial.one(),
                                               [sf(1)]))

    def test_empty_nilfil_locus_integrates_to_zero(self):
        got = integrate_localization(1, (1, 2), "nilfil", TautClass(1, 0, 3))
        assert got.value.is_zero()

    def test_admissible_terms_carry_the_integral(self):
        for n in (1, 2):
            for dims in [(2,), (3,), (4,), (1, 2), (2, 2), (1, 1, 2)]:
                P = TautClass(1, 0, sum(dims))
                total = integrate_localization(n, dims, "nhilb", P)
                kept = []
                for np_ in enumerate_nested(n, dims):
                    if is_admissible(np_):
                        kept.append(contribution(
                            canonical_enumeration(np_), "nhilb", P))
                assert rational_equal(total.value, sum_factored(kept))

    def test_degree_law(self):
        P = TautClass(eta(1) ** 2, 0, 2)
        got = integrate_localization(2, (1, 1), "nilfil", P)
        assert got.value.homogeneous_degree() == 2 - got.vdim
        got = integrate_localization(3, (3,), "nhilb", C2_CUBED)
        assert got.value.homogeneous_degree() == 0

    def test_permutation_equivariance(self):
        got = integrate_localization(3, (3,), "nhilb", C2_CUBED).value
        rotated = got.substitute_linear(
            {("s", 1): sf(2), ("s", 2): sf(3), ("s", 3): sf(1)})
        assert rational_equal(got, rotated)

    def test_guard(self):
        with pytest.raises(SizeGuardExceeded):
            integrate_localization(2, (13,), "nhilb", TautClass(1, 0, 13))

    def test_a_chain_off_the_virtual_dimension_raises(self):
        P = TautClass(1, 0, 2)
        vdim = virtual_dimension(2, (1, 1), "nilfil")
        fixed_point_sum(2, (1, 1), P, is_nilfil, tangent_class_punctual,
                        vdim=vdim)
        with pytest.raises(InconsistentVirtualDimension):
            fixed_point_sum(2, (1, 1), P, is_nilfil, tangent_class_punctual,
                            vdim=vdim + 1)


class TestReduceFullFlag:
    @pytest.mark.parametrize("n,r", [(1, 1), (2, 1), (2, 2), (3, 1)])
    def test_matches_ambient_integral(self, n, r):
        P = TautClass(1, 0, r + 1)
        red = reduce_full_flag(n, r, P)
        amb = integrate_localization(n, (1,) * (r + 1), "nhilb", P)
        assert red.vdim == amb.vdim
        assert rational_equal(red.value, amb.value)

    def test_matches_with_nontrivial_integrand(self):
        P = TautClass(eta(2), 0, 3)
        red = reduce_full_flag(2, 2, P)
        amb = integrate_localization(2, (1, 1, 1), "nhilb", P)
        assert rational_equal(red.value, amb.value)

    def test_rejects_fat_dims(self):
        with pytest.raises(RequiresFullFlag):
            reduce_full_flag(2, -1, TautClass(1, 0, 1))


def _compositions(d):
    """Every dims tuple of positive parts summing to d."""
    if d == 0:
        yield ()
    for first in range(1, d + 1):
        for rest in _compositions(d - first):
            yield (first,) + rest


@pytest.mark.parametrize("n", [1, 2, 3])
def test_gated_term_is_the_written_quotient(n):
    """One Euler class of obstruction - tangent [- extra] is, by == on the
    canonical form, the restriction times e(moving obstruction) over
    e(moving tangent) [over e(extra)]: every chain with d <= 4 (nhilb, and
    nilfil for pointed dims) and the full flags r <= 3 with the
    punctual-to-full correction."""
    cases = []
    for d in range(1, 5):
        for dims in _compositions(d):
            cases.append((dims, None, tangent_class, None))
            if dims[0] == 1:
                cases.append((dims, is_nilfil, tangent_class_punctual, None))
        cases.append(((1,) * d, is_nilfil, tangent_class_punctual,
                      epunct_class))
    gated = 0
    for dims, select, tangent_of, extra_of in cases:
        P = chern_taut(sum(dims) - 1, 1, sum(dims))
        for np_ in enumerate_nested(n, dims):
            if select is not None and not select(np_):
                continue
            e = canonical_enumeration(np_)
            tangent = tangent_of(e)
            extra = None if extra_of is None else extra_of(e)
            value, _ = gated_term(e, tangent, P, extra)
            if not passes_gate(tangent, obstruction_class(e)):
                assert value is None
                continue
            want = FactoredRational.from_poly(restrict_class(P, e))
            want = want * euler_class(obstruction_class(e).moving(), "s")
            want = want / euler_class(tangent.moving(), "s")
            if extra is not None:
                want = want / euler_class(extra, "s")
            assert value == want.simplify(), (np_, extra_of)
            gated += 1
    assert gated > 0


class TestCyRestrict:
    def test_constant(self):
        v = FactoredRational.from_poly(SparsePolynomial.constant(7))
        assert rational_equal(cy_restrict(v, 3), v)

    def test_polynomial(self):
        v = FactoredRational.from_poly(s(1) + s(2) + s(3))
        got = cy_restrict(v, 3)
        assert got.is_zero()

    def test_degenerate_denominator(self):
        v = ratio(1, SparsePolynomial.one(), [sf(1) + sf(2) + sf(3)])
        with pytest.raises(DegenerateRestriction):
            cy_restrict(v, 3)

    def test_survivor_denominator(self):
        v = ratio(1, SparsePolynomial.one(), [sf(1) - sf(2)])
        got = cy_restrict(v, 3)
        val = got.evaluate({("s", 1): Fraction(3), ("s", 2): Fraction(1)})
        assert val == Fraction(1, 2)


class TestVirtualDimension:
    def test_three_points_in_three_space(self):
        assert virtual_dimension(3, (3,), "nhilb") == 6

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_projective_space(self, n):
        assert virtual_dimension(n, (1, 1), "nilfil") == n - 1

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_single_point(self, n):
        assert virtual_dimension(n, (1,), "nhilb") == n

    def test_no_fixed_points(self):
        with pytest.raises(NoFixedPoints):
            virtual_dimension(1, (1, 2), "nilfil")

    def test_unknown_space(self):
        with pytest.raises(ParseError):
            virtual_dimension(2, (1,), "everywhere")


class TestIntegralResult:
    def test_repr_mentions_method_and_space(self):
        r = IntegralResult(FactoredRational.one(), 3, "localization", "nhilb")
        assert "localization" in repr(r)
        assert "nhilb" in repr(r)


# ---------------------------------------------------------------------------
# result guards are real checks, not asserts that python -O strips

_GUARD_SCRIPT = """
from nahilb.algebra import FactoredRational, SparsePolynomial
from nahilb.errors import InconsistentDegree, IndexOutOfRange
from nahilb.localization import TautClass, _check_degree
from nahilb.partitions import Enumeration
from nahilb.weights import GUARD, pack, tangent_class
assert False, "asserts must be stripped in this run"
"""


@pytest.mark.parametrize("call, error", [
    # a value of degree 1 cannot integrate a degree-0 class over vdim 5
    ("_check_degree(FactoredRational.from_poly("
     "SparsePolynomial.variable(('s', 1))), TautClass(1, 0, 2), 5)",
     "InconsistentDegree"),
    # (2,) is not a chain order after the origin: a level goes negative
    ("tangent_class(Enumeration(1, (1, 1), [(0,), (2,)]))",
     "IndexOutOfRange"),
    # a packed weight coordinate at the guard would let four-term sums carry
    ("pack((0, GUARD))", "IndexOutOfRange"),
])
def test_guards_raise_under_python_O(call, error):
    script = _GUARD_SCRIPT + f"""
try:
    {call}
except {error}:
    print("raised")
"""
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(nahilb.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p])
    done = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "raised"
