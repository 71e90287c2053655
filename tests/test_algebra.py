"""Exact-arithmetic kernel: linear forms, sparse polynomials, factored
rationals, and the canonical-form contracts the rest of the engine
relies on."""

from fractions import Fraction
from itertools import combinations
from math import gcd, lcm, prod

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import nahilb.algebra as algebra
from nahilb.algebra import (
    MAX_EXPONENT,
    NAMESPACES,
    FactoredRational,
    LinearForm,
    SparsePolynomial,
    _unpack,
    exact_divide_linear,
    linear_form_of,
    rational_equal,
    substitute_elementary,
    sum_factored,
    var_key,
    var_shift,
)
from nahilb.errors import (
    DegenerateRestriction,
    DivisionByZero,
    ExponentOverflow,
    MissingVariable,
    NotLinear,
    SizeGuardExceeded,
)


def s(i):
    return SparsePolynomial.variable(("s", i))


def sv(i):
    return ("s", i)


def lf(**coeffs):
    return LinearForm({("s", int(k[1:])): v for k, v in coeffs.items()})


class TestLinearFormOf:
    def test_mixed_coordinates(self):
        assert linear_form_of((1, 0, 2), "s") == lf(s1=1, s3=2)

    def test_zero_vector(self):
        assert linear_form_of((0, 0), "s").is_zero()

    def test_signed_coordinates(self):
        assert linear_form_of((1, -1, 0), "s") == lf(s1=1, s2=-1)

    def test_namespace(self):
        form = linear_form_of((0, 3), "z")
        assert form == LinearForm({("z", 2): 3})

    @given(st.sampled_from(NAMESPACES),
           st.lists(st.integers(-3, 3), max_size=4))
    @settings(max_examples=100, deadline=None)
    def test_same_form_as_the_constructor(self, namespace, weight):
        want = LinearForm({(namespace, i + 1): c
                           for i, c in enumerate(weight)})
        got = linear_form_of(weight, namespace)
        assert got == want and hash(got) == hash(want)
        assert got.key() == want.key() and str(got) == str(want)


def _dict_form(coeffs: dict) -> tuple:
    """key, text, content and primitive key of the dict-based linear form
    the packed one replaced, written out from its definitions."""
    coeffs = {v: Fraction(c) for v, c in coeffs.items() if c != 0}
    coeffs = {v: c.numerator if c.denominator == 1 else c
              for v, c in coeffs.items()}
    key = tuple(sorted((var_key(v), c) for v, c in coeffs.items()))
    parts = []
    for v in sorted(coeffs, key=var_key):
        c, name = coeffs[v], f"{v[0]}{v[1]}"
        parts.append(name if c == 1 else "-" + name if c == -1
                     else f"{c}*{name}")
    text = " + ".join(parts).replace("+ -", "- ") if parts else "0"
    if not coeffs:
        return key, text, 1, key
    values = coeffs.values()
    content = (-1 if key[0][1] < 0 else 1) * Fraction(
        gcd(*(c.numerator for c in values)),
        lcm(*(c.denominator for c in values)))
    return key, text, content, tuple((k, c / content) for k, c in key)


_ALL_VARS = [("s", 1), ("s", 3), ("theta", 1), ("theta", 2),
             ("eta", 1), ("eta", 2), ("z", 1), ("z", 4)]
_ANY_COEFF = st.one_of(st.integers(-6, 6),
                       st.builds(Fraction, st.integers(-6, 6),
                                 st.integers(1, 4)))
_COEFF_DICTS = st.dictionaries(st.sampled_from(_ALL_VARS), _ANY_COEFF,
                               max_size=4)


class TestLinearForm:
    """A linear form is a degree-one SparsePolynomial with the key, text,
    hash, equality and primitive part of the dict-based form it
    replaced, in all four namespaces."""

    @given(_COEFF_DICTS, _COEFF_DICTS)
    @settings(max_examples=300, deadline=None)
    def test_matches_the_dict_definition(self, coeffs, other):
        key, text, content, prim_key = _dict_form(coeffs)
        form = LinearForm(coeffs)
        assert form.key() == key
        assert [type(c) for _, c in form.key()] == [type(c) for _, c in key]
        assert str(form) == text == SparsePolynomial.__str__(form)
        assert hash(form) == hash(key)
        assert (form == LinearForm(other)) == (key == _dict_form(other)[0])
        shuffled = LinearForm(dict(reversed(coeffs.items())))
        packed = LinearForm.from_packed(dict(form.terms))
        keyed = LinearForm.__new__(LinearForm)._keyed(key)
        for same in (shuffled, packed, keyed):
            assert same == form and same.key() == key
            assert hash(same) == hash(form)
        got_content, prim = form.primitive()
        assert got_content == content
        assert type(prim) is LinearForm and prim.key() == prim_key
        for ns in NAMESPACES:
            assert form.max_index(ns) == max(
                (i for (n, i), c in coeffs.items() if n == ns and c),
                default=0)

    @given(st.lists(st.integers(-4, 4), min_size=1, max_size=4),
           st.sampled_from(NAMESPACES), st.integers(-3, 3),
           st.permutations(range(4)))
    @settings(max_examples=200, deadline=None)
    def test_cached_hash_is_the_key_hash(self, weight, ns, scale, perm):
        # the hash set with the key, on every way a form is made
        assume(any(weight))
        made = linear_form_of(weight, ns)
        coeffs = {(ns, i + 1): c for i, c in enumerate(weight) if c}
        scaled = LinearForm({v: scale * c for v, c in coeffs.items()})
        table: dict = {}
        r = FactoredRational.build(
            1, SparsePolynomial.one(),
            [(linear_form_of(weight, "s"), -1), (lf(s1=1, s4=-2), 2)])
        relabelled = r.relabel_s(perm, table).factors
        forms = [made, LinearForm(coeffs), LinearForm.from_packed(made.terms),
                 scaled, scaled.primitive()[1], made.primitive()[1],
                 *(f for f, _ in relabelled),
                 *(table[k][0] for k in table if type(k) is tuple),
                 *(k for k in table if type(k) is not tuple)]
        for f in forms:
            assert hash(f) == hash(f.key())
        for f in forms:
            for g in forms:
                if f == g:
                    assert hash(f) == hash(g)


class TestEvaluate:
    def test_linear(self):
        form = lf(s1=1, s3=2)
        assert form.evaluate({sv(1): 3, sv(2): 5, sv(3): 7}) == 17

    def test_rational_cancellation(self):
        r = FactoredRational.build(
            2, SparsePolynomial.one(),
            [(lf(s1=1), 1), (lf(s2=1), 1), (lf(s2=1), -1)])
        assert r.evaluate({sv(1): 4, sv(2): 9}) == 8

    def test_vanishing_denominator(self):
        r = FactoredRational.build(
            1, SparsePolynomial.one(), [(lf(s1=1, s2=-1), -1)])
        with pytest.raises(DivisionByZero):
            r.evaluate({sv(1): 1, sv(2): 1})

    def test_missing_variable(self):
        with pytest.raises(MissingVariable):
            (s(1) + s(2)).evaluate({sv(1): 1})

    def test_polynomial(self):
        assert (s(1) * s(1) + 3).evaluate({sv(1): Fraction(1, 2)}) \
            == Fraction(13, 4)


class TestSimplify:
    def test_difference_of_squares(self):
        r = FactoredRational.build(
            1, s(1) * s(1) - s(2) * s(2), [(lf(s1=1, s2=-1), -1)])
        out = r.simplify()
        assert out == FactoredRational.build(1, s(1) + s(2))

    def test_proportional_forms(self):
        r = FactoredRational.build(
            1, SparsePolynomial.one(), [(lf(s1=2), 1), (lf(s1=4), -1)])
        out = r.simplify()
        assert out.scalar == Fraction(1, 2)
        assert out.poly.is_one()
        assert out.factors == ()

    def test_no_common_factor(self):
        r = FactoredRational.build(
            1, s(1) + s(2), [(lf(s1=1, s2=-1), -1)]).simplify()
        assert r.factors == ((lf(s1=1, s2=-1), -1),)
        assert r.poly == s(1) + s(2)

    def test_repeated_cancellation(self):
        cube = (s(1) - s(2)) * (s(1) - s(2)) * (s(1) - s(2))
        r = FactoredRational.build(1, cube, [(lf(s1=1, s2=-1), -2)])
        out = r.simplify()
        assert out == FactoredRational.build(1, s(1) - s(2))


class TestHomogeneousDegree:
    def test_factored(self):
        cube = (s(1) + s(2)) * (s(1) + s(2)) * (s(1) + s(2))
        r = FactoredRational.build(1, cube,
                                   [(lf(s1=1), -1), (lf(s2=1), -1)])
        assert r.homogeneous_degree() == 1

    def test_inhomogeneous(self):
        assert (s(1) * s(1) + s(2)).homogeneous_degree() is None

    def test_constant(self):
        assert SparsePolynomial.constant(11).homogeneous_degree() == 0

    def test_additive_under_product(self):
        a = FactoredRational.build(1, s(1) + s(2), [(lf(s3=1), -2)])
        b = FactoredRational.build(3, s(3) * s(3), [(lf(s1=1, s2=1), 1)])
        assert (a * b).homogeneous_degree() \
            == a.homogeneous_degree() + b.homogeneous_degree()

    def test_degrees_at_the_field_modulus(self):
        # a packed monomial is its degree mod 2^16 - 1, which can stand
        # for the degree only below that modulus
        top = ((sv(1), MAX_EXPONENT), (sv(2), MAX_EXPONENT))
        assert SparsePolynomial({top + ((sv(3), 1),): 1}) \
            .homogeneous_degree() == 65535
        # degrees 65536 and 1, equal mod 65535
        assert SparsePolynomial({top + ((sv(3), 2),): 1, ((sv(4), 1),): 1}) \
            .homogeneous_degree() is None

    def test_degrees(self):
        assert (s(1) * s(1) * 3 + s(2) - 1).degrees() == {0, 1, 2}
        assert SparsePolynomial.zero().degrees() == set()
        top = ((sv(1), MAX_EXPONENT), (sv(2), MAX_EXPONENT))
        assert SparsePolynomial({top + ((sv(3), 2),): 1, ((sv(4), 1),): 1}) \
            .degrees() == {65536, 1}


class TestSumFactored:
    def test_antisymmetric_pair(self):
        a = FactoredRational.build(1, SparsePolynomial.one(),
                                   [(lf(s2=1, s1=-1), -1)])
        b = FactoredRational.build(1, SparsePolynomial.one(),
                                   [(lf(s1=1, s2=-1), -1)])
        assert sum_factored([a, b]).is_zero()

    def test_projective_line_sum(self):
        a = FactoredRational.build(1, s(1), [(lf(s2=1, s1=-1), -1)])
        b = FactoredRational.build(1, s(2), [(lf(s1=1, s2=-1), -1)])
        out = sum_factored([a, b])
        assert out == FactoredRational.build(-1, SparsePolynomial.one())

    def test_empty(self):
        assert sum_factored([]).is_zero()

    def test_matches_pointwise_sum(self):
        terms = [
            FactoredRational.build(2, s(1), [(lf(s1=1, s2=-1), -1)]),
            FactoredRational.build(1, s(2) * s(2),
                                   [(lf(s1=1, s2=-1), -2), (lf(s1=1), -1)]),
            FactoredRational.build(Fraction(-1, 3), SparsePolynomial.one()),
        ]
        total = sum_factored(terms)
        point = {sv(1): Fraction(3), sv(2): Fraction(5)}
        assert total.evaluate(point) == sum(t.evaluate(point) for t in terms)


class TestExactDivideLinear:
    def test_exact(self):
        q = s(1) * s(2) + 2 * s(3) * s(3)
        p = (s(1) + s(2)) * q
        assert exact_divide_linear(p, lf(s1=1, s2=1)) == q

    def test_not_divisible(self):
        assert exact_divide_linear(s(1) + s(2), lf(s1=1, s2=-1)) is None

    def test_zero_form(self):
        with pytest.raises(DivisionByZero):
            exact_divide_linear(s(1), LinearForm())

    def test_leading_variable_absent_from_dividend(self):
        # the form's smallest variable is eta2, which q never uses
        q = s(1) * s(2) - 3 * s(2) ** 2
        form = LinearForm({("eta", 2): 1, ("z", 1): -2})
        assert exact_divide_linear(q * form, form) == q

    def test_leading_variable_not_first_in_monomials(self):
        q = s(1) * s(2) + s(1) ** 2 * SparsePolynomial.variable(("z", 3))
        form = LinearForm({("s", 2): 2, ("z", 3): 1})
        assert exact_divide_linear(q * form, form) == q


class TestCanonicalForms:
    def test_int_and_fraction_coefficients_interchangeable(self):
        assert LinearForm({sv(1): 2}) == LinearForm({sv(1): Fraction(2)})
        assert hash(LinearForm({sv(1): 2})) \
            == hash(LinearForm({sv(1): Fraction(2)}))
        assert (s(1) * Fraction(1, 2)) * 2 == s(1)

    def test_primitive_linear_form(self):
        content, prim = lf(s1=-2, s2=4).primitive()
        assert content == -2 and type(content) is Fraction
        assert prim == lf(s1=1, s2=-2)
        # unit content is the int 1, which build skips without a Fraction
        content, prim = prim.primitive()
        assert content == 1 and type(content) is int
        assert prim == lf(s1=1, s2=-2)

    def test_extract_content(self):
        content, prim = (s(1) * Fraction(-2, 3)
                         + s(2) * Fraction(-4, 3)).extract_content()
        assert content == Fraction(-2, 3)
        assert prim == s(1) + 2 * s(2)
        assert all(isinstance(c, int) for c in prim.terms.values())

    @given(st.dictionaries(
        st.lists(st.sampled_from(_ALL_VARS), max_size=3).map(
            lambda vs: sum(1 << var_shift(v) for v in vs)),
        st.one_of(st.integers(-40, 40),
                  st.builds(Fraction, st.integers(-40, 40),
                            st.integers(1, 12))).filter(bool),
        min_size=1, max_size=6),
        st.sampled_from((1, -1, 6, Fraction(-5, 4), Fraction(9, 1))))
    @settings(max_examples=300, deadline=None)
    def test_extract_content_properties(self, terms, scale):
        # int, Fraction and integral Fraction coefficients, mixed
        p = SparsePolynomial.from_packed(
            {m: c * scale for m, c in terms.items()})
        content, prim = p.extract_content()
        assert prim * content == p
        values = list(prim.terms.values())
        assert all(type(c) is int for c in values)
        assert gcd(*values) == 1 and prim.leading()[1] > 0
        ints = all(type(c) is int for c in p.terms.values())
        assert type(content) is (int if ints and content == 1 else Fraction)

    @pytest.mark.parametrize("coeffs", [(Fraction(2, 1), Fraction(3, 1)),
                                        (Fraction(2, 1),)])
    def test_build_holds_plain_ints(self, coeffs):
        # an integral Fraction, as a product of scalars leaves it
        monomials = [next(iter(p.terms)) for p in (s(1) * s(2), s(2) * s(2))]
        poly = SparsePolynomial.from_packed(dict(zip(monomials, coeffs)))
        r = FactoredRational.build(1, poly, [(lf(s1=1), -1)])
        assert all(type(c) is int for c in r.poly.terms.values())
        assert all(type(c) is int
                   for c in poly.extract_content()[1].terms.values())

    def test_build_merges_and_sorts_factors(self):
        r = FactoredRational.build(
            1, SparsePolynomial.one(),
            [(lf(s2=2), 1), (lf(s1=1), 1), (lf(s2=1), 1)])
        assert r.scalar == 2
        assert r.factors == ((lf(s1=1), 1), (lf(s2=1), 2))

    def test_build_zero_polynomial(self):
        r = FactoredRational.build(5, SparsePolynomial.zero(), [(lf(s1=1), 1)])
        assert r.is_zero() and r.scalar == 1 and r.factors == ()

    def test_zero_form_in_denominator_rejected(self):
        with pytest.raises(DivisionByZero):
            FactoredRational.build(1, SparsePolynomial.one(),
                                   [(LinearForm(), -1)])

    def test_build_makes_degree_one_polynomials_primitive_forms(self):
        # s2 - 2*s1 is -(2*s1 - s2): the sign moves into the scalar
        r = FactoredRational.build(1, SparsePolynomial.one(),
                                   [(s(2) - s(1) * 2, -1)])
        assert r.scalar == -1 and r.factors == ((lf(s1=2, s2=-1), -1),)
        assert type(r.factors[0][0]) is LinearForm

    @pytest.mark.parametrize("factor", [
        s(1) * s(2), s(1) ** 2, s(1) + 1, SparsePolynomial.constant(3)])
    def test_build_refuses_factors_of_other_degrees(self, factor):
        with pytest.raises(NotLinear):
            FactoredRational.build(1, SparsePolynomial.one(), [(factor, -1)])

    def test_zero_form_in_numerator_collapses(self):
        r = FactoredRational.build(1, s(1), [(LinearForm(), 2)])
        assert r.is_zero()


def _fields(r: FactoredRational) -> tuple:
    return r.scalar, r.poly.terms, r.factors


def assert_same_fields(got: FactoredRational, want: FactoredRational):
    """got and want agree in scalar, polynomial terms, factor order and
    exponents, and each factor's key(), hash and terms, since == on
    forms reads their terms alone."""
    assert _fields(got) == _fields(want)
    for (f, _), (g, _) in zip(got.factors, want.factors):
        assert (f.key(), hash(f), f.terms) == (g.key(), hash(g), g.terms)


_COEFF = st.sampled_from((1, -1, 2, -3, 4, Fraction(1, 2), Fraction(-2, 3)))
_FORM = st.dictionaries(st.sampled_from((sv(1), sv(2), sv(3), ("theta", 1),
                                         ("eta", 1), ("z", 2))),
                        _COEFF, min_size=1, max_size=3).map(LinearForm)
_SCALAR = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))


@st.composite
def _built(draw, poly_one=False):
    """A built rational whose factors repeat forms of a small pool up to
    scale (2L and -L/2 merge into one factor), and, unless poly_one, whose
    polynomial part carries some of those forms, so simplify can cancel."""
    pool = draw(st.lists(_FORM, min_size=1, max_size=3))
    scaled = st.tuples(st.sampled_from(pool), _COEFF).map(
        lambda fc: fc[0] * fc[1])
    factors = draw(st.lists(st.tuples(scaled, st.integers(-3, 3)),
                            max_size=5))
    poly = SparsePolynomial.one()
    if not poly_one:
        poly = draw(st.sampled_from((s(1), s(1) * s(2) - 2 * s(3), s(3) + 1)))
        for form in draw(st.lists(scaled, min_size=1, max_size=3)):
            poly = poly * form
        poly = poly * draw(_SCALAR)
    return FactoredRational.build(draw(_SCALAR), poly, factors)


class TestCanonicalWithoutBuild:
    """Products, quotients and simplify of canonical values merge factor
    exponents only; each must equal what build makes of the same parts."""

    @given(_built(), _built())
    @settings(max_examples=150, deadline=None)
    def test_product(self, a, b):
        want = FactoredRational.build(a.scalar * b.scalar, a.poly * b.poly,
                                      a.factors + b.factors)
        assert _fields(a * b) == _fields(want)

    @given(_built(), _built(poly_one=True))
    @settings(max_examples=150, deadline=None)
    def test_quotient(self, a, c):
        assume(not c.is_zero())
        want = FactoredRational.build(
            a.scalar / c.scalar, a.poly,
            a.factors + tuple((f, -e) for f, e in c.factors))
        assert _fields(a / c) == _fields(want)

    @given(_built())
    @settings(max_examples=200, deadline=None)
    def test_simplify(self, a):
        poly, kept = a.poly, []
        for form, exp in a.factors:
            while exp < 0:
                q = exact_divide_linear(poly, form)
                if q is None:
                    break
                poly, exp = q, exp + 1
            kept.append((form, exp))
        want = FactoredRational.build(a.scalar, poly, kept)
        assert _fields(a.simplify()) == _fields(want)


class TestRelabel:
    """relabel_s renames without build or simplify; it must equal build
    of the renamed parts, and on a simplified value the renamed value
    simplified."""

    @given(_built(), st.permutations(range(3)))
    @settings(max_examples=150, deadline=None)
    def test_equals_build_of_the_renamed_parts(self, a, perm):
        a = a.simplify()
        rename = {sv(i + 1): s(j + 1) for i, j in enumerate(perm)}
        want = FactoredRational.build(
            a.scalar, a.poly.substitute(rename),
            [(f.substitute(rename), e) for f, e in a.factors])
        got = a.relabel_s(perm)
        assert_same_fields(got, want)
        assert _fields(got.simplify()) == _fields(got)

    def test_one_table_across_calls(self):
        # a list and a tuple of one permutation hit the same entries, and
        # each other permutation adds its own
        r = FactoredRational.build(
            3, s(1) - 2 * s(3), [(lf(s1=1, s2=-1), -1), (lf(s1=1, s3=-1), 2),
                                 (lf(s2=2, s3=1), -3)])
        table: dict = {}
        for perm in ([1, 0, 2], (1, 0, 2), (2, 0, 1), [0, 2, 1], (2, 0, 1)):
            assert_same_fields(r.relabel_s(perm, table), r.relabel_s(perm))
        pairs = [k for k in table if type(k) is tuple]
        assert len(pairs) == 3 * 3
        # the rest map each renamed form to itself, the one object of it
        renamed = {id(table[k][0]) for k in pairs}
        assert {id(table[k]) for k in table if type(k) is not tuple} \
            == {id(k) for k in table if type(k) is not tuple} == renamed

    @given(st.lists(_built(), min_size=1, max_size=4),
           st.lists(st.permutations(range(3)), min_size=1, max_size=4))
    @settings(max_examples=100, deadline=None)
    def test_shared_table_equals_table_free(self, values, perms):
        table: dict = {}
        for a in values:
            for perm in perms:
                assert_same_fields(a.relabel_s(perm, table), a.relabel_s(perm))
                assert_same_fields(a.relabel_s(tuple(perm), table),
                                   a.relabel_s(perm))

    def test_signs(self):
        # s1 - s2 turns into s2 - s1 = -(s1 - s2): an odd power flips
        # the scalar, as does the polynomial's leading coefficient
        r = FactoredRational.build(
            3, s(1) - 2 * s(3), [(lf(s1=1, s2=-1), -1), (lf(s1=1, s3=-1), 2)])
        got = r.relabel_s((1, 0, 2))
        assert got == FactoredRational.build(
            3, s(2) - 2 * s(3), [(lf(s2=1, s1=-1), -1), (lf(s2=1, s3=-1), 2)])
        assert got.scalar == -3

    def test_identity_and_zero(self):
        r = FactoredRational.build(2, s(1), [(lf(s1=1, s2=1), -1)])
        assert r.relabel_s((0, 1)) is r
        zero = FactoredRational.zero()
        assert zero.relabel_s((1, 0)) is zero


class TestSubstituteLinear:
    def test_trace_zero_collapse(self):
        r = FactoredRational.build(
            1, SparsePolynomial.one(), [(lf(s1=1, s2=1), -1)])
        with pytest.raises(DegenerateRestriction):
            r.substitute_linear({sv(2): lf(s1=-1)})

    def test_numerator_substitution(self):
        r = FactoredRational.from_poly(s(1) + s(2))
        out = r.substitute_linear({sv(2): lf(s1=1)})
        assert out == FactoredRational.build(1, 2 * s(1))


# ---------------------------------------------------------------------------
# randomized algebra laws

_coeffs = st.integers(-4, 4).map(
    lambda n: Fraction(n, 2) if n % 2 else n // 2)


def _monomials():
    return st.dictionaries(
        st.tuples(st.sampled_from([("s", 1), ("s", 2), ("s", 3)]),
                  st.integers(1, 3)).map(lambda ve: (ve,)),
        _coeffs, max_size=4,
    ).map(lambda d: SparsePolynomial(
        {m: c for m, c in d.items()}))


@given(_monomials(), _monomials(), _monomials())
@settings(max_examples=60, deadline=None)
def test_ring_axioms(a, b, c):
    assert (a + b) * c == a * c + b * c
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a + (b + c) == (a + b) + c
    assert a - a == SparsePolynomial.zero()


_points = st.fixed_dictionaries({
    ("s", 1): st.integers(1, 9).map(Fraction),
    ("s", 2): st.integers(10, 19).map(Fraction),
    ("s", 3): st.integers(20, 29).map(Fraction),
})

_forms = st.sampled_from([
    LinearForm({("s", 1): 1}),
    LinearForm({("s", 1): 1, ("s", 2): -1}),
    LinearForm({("s", 2): 2, ("s", 3): 1}),
    LinearForm({("s", 1): 1, ("s", 3): -2}),
])


@given(_monomials(),
       st.lists(st.tuples(_forms, st.integers(-2, 2)), max_size=4),
       _points)
@settings(max_examples=60, deadline=None)
def test_simplify_preserves_value(poly, factors, point):
    r = FactoredRational.build(1, poly, factors)
    try:
        expected = r.evaluate(point)
    except DivisionByZero:
        return
    assert r.simplify().evaluate(point) == expected


@given(st.lists(st.builds(
    lambda p, fs: FactoredRational.build(1, p, fs),
    _monomials(),
    st.lists(st.tuples(_forms, st.integers(-2, 2)), max_size=3)),
    max_size=4), _points)
@settings(max_examples=40, deadline=None)
def test_sum_factored_matches_evaluation(terms, point):
    try:
        expected = sum((t.evaluate(point) for t in terms), Fraction(0))
    except DivisionByZero:
        return
    assert sum_factored(terms).evaluate(point) == expected


@given(_monomials(), _forms)
@settings(max_examples=40, deadline=None)
def test_rational_equal_across_presentations(a, form):
    lhs = FactoredRational.build(1, a * form, [(form, -1)])
    assert rational_equal(lhs, FactoredRational.from_poly(a))


_s_polys = st.dictionaries(
    st.tuples(*[st.integers(0, 2)] * 3).map(
        lambda es: tuple((sv(i + 1), e) for i, e in enumerate(es) if e)),
    _coeffs, max_size=6).map(SparsePolynomial)

# images that merge terms or cancel them
_s_images = st.sampled_from([s(1), s(2) - s(1), SparsePolynomial.zero(),
                             SparsePolynomial.constant(3), s(3) + 1, -s(2)])
_s_maps = st.dictionaries(st.sampled_from([sv(1), sv(2), sv(3)]), _s_images,
                          max_size=3)


@given(_s_polys, _s_maps, _points)
@example(s(1) * s(2) - s(1) * s(1) + s(3),
         {sv(2): s(1), sv(3): SparsePolynomial.zero()},
         {sv(1): Fraction(2), sv(2): Fraction(11), sv(3): Fraction(23)})
@settings(max_examples=150, deadline=None)
def test_substitute_evaluates_at_the_mapped_point(p, mapping, point):
    got = p.substitute(mapping)
    mapped = {v: mapping[v].evaluate(point) if v in mapping else x
              for v, x in point.items()}
    assert got.evaluate(point) == p.evaluate(mapped)
    assert 0 not in got.terms.values()


# ---------------------------------------------------------------------------
# differential tests of the packed kernel over every namespace

_VARS = [("s", 1), ("s", 2), ("theta", 1), ("eta", 2), ("z", 1), ("z", 3)]


def _polys(max_size=5):
    mono = st.lists(st.tuples(st.sampled_from(_VARS), st.integers(1, 3)),
                    max_size=3).map(tuple)
    return st.dictionaries(mono, _coeffs, max_size=max_size).map(
        SparsePolynomial)


_int_forms = st.dictionaries(
    st.sampled_from(_VARS), st.integers(-3, 3).filter(bool),
    min_size=1, max_size=3).map(LinearForm)

_mixed_points = st.fixed_dictionaries(
    {v: st.integers(-30, 30).map(Fraction) for v in _VARS})


@given(_polys(), _int_forms)
@settings(max_examples=150, deadline=None)
def test_exact_divide_linear_recovers_quotient(q, form):
    assert exact_divide_linear(q * form, form) == q


@given(_polys(), _int_forms, _polys(max_size=2), _mixed_points)
@settings(max_examples=150, deadline=None)
def test_exact_divide_linear_refuses_non_multiples(q, form, extra, point):
    p = q * form + extra
    # a point on form = 0 where p does not vanish certifies that the
    # form does not divide p
    (rank, i), a = form.key()[0]
    x = (NAMESPACES[rank], i)
    on_form = dict(point)
    on_form[x] = Fraction(0)
    on_form[x] = -form.evaluate(on_form) / a
    assume(p.evaluate(on_form) != 0)
    assert exact_divide_linear(p, form) is None


@given(st.lists(st.builds(
    lambda c, p, fs: FactoredRational.build(c, p, fs),
    _coeffs.filter(bool), _polys(max_size=3),
    st.lists(st.tuples(_int_forms, st.integers(-2, 2)), max_size=3)),
    max_size=4), _mixed_points)
@settings(max_examples=80, deadline=None)
def test_sum_factored_simplify_matches_evaluation(terms, point):
    try:
        expected = sum((t.evaluate(point) for t in terms), Fraction(0))
        got = sum_factored(terms).simplify().evaluate(point)
    except DivisionByZero:
        return
    assert got == expected


@given(st.sampled_from(_VARS), st.integers(MAX_EXPONENT - 40, MAX_EXPONENT),
       st.integers(0, 40))
@settings(max_examples=60, deadline=None)
def test_exponent_past_the_field_raises(v, a, b):
    # a silent carry would change the product's monomial
    neighbour = ("s", 3)
    x = SparsePolynomial({((v, a), (neighbour, 1)): 1})
    y = SparsePolynomial({((v, b),): 1})
    if a + b > MAX_EXPONENT:
        with pytest.raises(ExponentOverflow):
            x * y
        with pytest.raises(ExponentOverflow):
            SparsePolynomial({((v, a), (v, b)): 1})
    else:
        assert (x * y).sorted_terms() == [(tuple(sorted(
            [(v, a + b), (neighbour, 1)], key=lambda ve: var_key(ve[0]))), 1)]


_RANK = {"s": 0, "theta": 1, "eta": 2, "z": 3}
_WIDE_VARS = [(ns, i) for ns in _RANK for i in (1, 2, 9, 10, 11, 23)]


def _reference_order(p: SparsePolynomial) -> list:
    """p's terms as (var, exponent) pairs from _unpack, sorted by total
    degree and then by the exponent vector over every variable of p, in
    the order s < theta < eta < z and numeric index, larger first."""
    names = sorted({v for m in p.terms for v, _ in _unpack(m)},
                   key=lambda v: (_RANK[v[0]], v[1]))

    def key(m):
        exps = dict(_unpack(m))
        vec = [exps.get(v, 0) for v in names]
        return sum(vec), vec

    return [(_unpack(m), p.terms[m])
            for m in sorted(p.terms, key=key, reverse=True)]


@given(st.dictionaries(
    st.lists(st.tuples(st.sampled_from(_WIDE_VARS), st.integers(1, 12)),
             max_size=4).map(tuple),
    st.integers(-9, 9).filter(bool), max_size=12).map(SparsePolynomial))
@settings(max_examples=150, deadline=None)
def test_sorted_terms_follow_the_graded_order(p):
    assert p.sorted_terms() == _reference_order(p)
    if p:
        assert p.leading() == p.sorted_terms()[0]


def test_constructor_refuses_exponent_past_the_field():
    with pytest.raises(ExponentOverflow):
        SparsePolynomial({((("z", 1), MAX_EXPONENT + 1),): 1})
    x = SparsePolynomial.variable(("z", 1))
    with pytest.raises(ExponentOverflow):
        x ** (MAX_EXPONENT + 1)


# ---------------------------------------------------------------------------
# sum_factored against a reference that expands with polynomial products

def _expanded_sum(terms) -> FactoredRational:
    """The sum over the common denominator, each summand times its
    complement multiplied out with SparsePolynomial products."""
    terms = [t for t in terms if not t.is_zero()]
    needed: dict = {}
    for t in terms:
        for form, e in t.factors:
            if e < 0:
                needed[form] = max(needed.get(form, 0), -e)
    total = SparsePolynomial.zero()
    for t in terms:
        exps = dict(needed)
        for form, e in t.factors:
            exps[form] = exps.get(form, 0) + e
        p = t.poly * t.scalar
        for form, e in exps.items():
            p = p * form ** e
        total = total + p
    return FactoredRational.build(
        1, total, [(f, -e) for f, e in needed.items()]).simplify()


_VAR_SETS = [
    [("s", 1)],
    [("s", 1), ("s", 2), ("s", 3)],
    [("s", 1), ("s", 2), ("theta", 1)],
    [("s", 2), ("theta", 1), ("theta", 2), ("eta", 1)],
]


@st.composite
def _summand_lists(draw):
    vs = draw(st.sampled_from(_VAR_SETS))
    mono = st.lists(st.tuples(st.sampled_from(vs), st.integers(1, 3)),
                    max_size=3).map(tuple)
    poly = st.dictionaries(mono, st.integers(-9, 9), max_size=4).map(
        SparsePolynomial)
    form = st.dictionaries(st.sampled_from(vs), st.integers(-3, 3).filter(bool),
                           min_size=1, max_size=3).map(LinearForm)
    scalar = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))
    term = st.builds(FactoredRational.build, scalar, poly,
                     st.lists(st.tuples(form, st.integers(-3, 2)), max_size=3))
    terms = draw(st.lists(term, max_size=5))
    if terms and draw(st.booleans()):
        terms.append(-draw(st.sampled_from(terms)))
    return terms


@given(_summand_lists())
@settings(max_examples=300, deadline=None)
def test_sum_factored_matches_expanded_sum(terms):
    assert sum_factored(terms) == _expanded_sum(terms)


def test_sum_factored_homogeneous_parts():
    # 1 + s1 over s1 - s2 and over s2: two degrees, summed apart
    terms = [FactoredRational.build(Fraction(1, 2), 1 + s(1),
                                    [(lf(s1=1, s2=-1), -1)]),
             FactoredRational.build(3, 1 + s(1) * s(1), [(lf(s2=1), -2)])]
    assert sum_factored(terms) == _expanded_sum(terms)


@pytest.mark.parametrize("a, b", [(20000, 12767), (40000, 25535)])
def test_sum_factored_digit_width_is_tight(a, b):
    # all coefficients positive and every form one variable, so the one
    # coefficient of the total, a + b = 2**k - 1, is the 1-norm bound
    # itself.  It needs k bits and a sign bit: two bytes for k = 15 and
    # three for k = 16, where k bits alone would fit in two.  A byte less
    # misdecodes it.
    x = FactoredRational.build(a, s(1) * s(1) * s(2), [(lf(s1=1), -1)])
    y = FactoredRational.build(b, s(1) * s(2) * s(2), [(lf(s2=1), -1)])
    assert sum_factored([x, y]) == FactoredRational.build(a + b, s(1) * s(2))
    assert sum_factored([-x, -y]) \
        == FactoredRational.build(-a - b, s(1) * s(2))


def test_sum_factored_refuses_a_packed_int_past_the_cap():
    # the sum over the twelve fixed points of projective 11-space would
    # pack its numerator into 11**11 digits
    n = 12
    terms = [FactoredRational.build(
        1, SparsePolynomial.one(),
        [(LinearForm({sv(j): 1, sv(i): -1}), -1)
         for j in range(1, n + 1) if j != i]) for i in range(1, n + 1)]
    with pytest.raises(SizeGuardExceeded, match="past the cap of 268435456$"):
        sum_factored(terms)


# ---------------------------------------------------------------------------
# y_j -> e_j(s_1..s_n), the way back from a residue's symmetric variables


def elementary(j, n):
    """e_j(s_1..s_n)."""
    return sum((prod((s(i) for i in c), start=SparsePolynomial.one())
                for c in combinations(range(1, n + 1), j)),
               SparsePolynomial.zero())


@st.composite
def _symmetric_inputs(draw):
    """(p, n): p in y_1..y_n (eta fields), s_1..s_(n+1) and theta_1,
    theta_2, with mixed degrees and large coefficients of both signs."""
    n = draw(st.integers(1, 4))
    names = ([("eta", j) for j in range(1, n + 1)]
             + [sv(i) for i in range(1, n + 2)] + [("theta", 1), ("theta", 2)])
    mono = st.lists(st.tuples(st.sampled_from(names), st.integers(1, 4)),
                    max_size=4).map(tuple)
    coeff = st.one_of(st.integers(-10 ** 30, 10 ** 30),
                      st.fractions(max_denominator=50)).filter(bool)
    return SparsePolynomial(draw(st.dictionaries(mono, coeff, max_size=8))), n


@given(_symmetric_inputs())
@example((SparsePolynomial({((("eta", 1), 2),): -(10 ** 40),
                            ((("eta", 2), 1),): 2 * 10 ** 40,
                            ((sv(1), 2),): 10 ** 40}), 2))
@settings(max_examples=100, deadline=None)
def test_substitute_elementary_matches_substitute(case):
    p, n = case
    want = p.substitute({("eta", j): elementary(j, n)
                         for j in range(1, n + 1)}).terms
    ys = [var_shift(("eta", j)) for j in range(1, n + 1)]
    # every slot packed densely, and every Horner step on sparse terms
    for waste in (10 ** 9, 0):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(algebra, "_DENSE_WASTE", waste)
            assert substitute_elementary(p.terms, ys) == want, waste
    assert 0 not in want.values()


def _no_horner(*args):
    raise AssertionError("the conversion ran")


def test_substitute_elementary_refuses_before_packing(monkeypatch):
    ys = [var_shift(("eta", j)) for j in (1, 2, 3)]
    monkeypatch.setattr(algebra, "_horner", _no_horner)
    # e_1**20000 in three variables: 20001**2 digits of about 4 kB
    big = {20000 << ys[0]: 1}
    with pytest.raises(SizeGuardExceeded, match="past the cap of 268435456$"):
        substitute_elementary(big, ys)
    # s_1 of e_1**K * s_1 past the field
    top = {(MAX_EXPONENT << ys[0]) + (1 << var_shift(sv(1))): -1}
    with pytest.raises(ExponentOverflow):
        substitute_elementary(top, ys)
    # no y-variable: nothing to pack
    plain = {1 << var_shift(sv(1)): 2}
    assert substitute_elementary(plain, ys) == plain


# ---------------------------------------------------------------------------
# exact division on packed slices against the dict route

_DIV_VARS = [sv(1), sv(2), sv(3), ("theta", 1), ("eta", 2)]


@st.composite
def _division_cases(draw):
    """A built rational in 2-4 variables of the s, theta and eta
    namespaces whose polynomial is a base, homogeneous or not, times
    powers of primitive forms (first coefficient 1-3, mixed signs), at
    times plus a non-multiple, over a denominator of some of those forms
    and others."""
    names = draw(st.lists(st.sampled_from(_DIV_VARS), min_size=2,
                          max_size=4, unique=True))
    degree = draw(st.integers(0, 3)) if draw(st.booleans()) else None

    def polys(deg):
        size = (st.integers(deg, deg) if deg is not None
                else st.integers(0, 4))
        mono = size.flatmap(lambda k: st.lists(
            st.sampled_from(names), min_size=k, max_size=k)).map(
            lambda vs: tuple((v, 1) for v in vs))
        return st.dictionaries(mono, st.integers(-5, 5).filter(bool),
                               min_size=1, max_size=5).map(SparsePolynomial)

    form = st.dictionaries(
        st.sampled_from(names), st.integers(-3, 3).filter(bool),
        min_size=1, max_size=3).map(lambda c: LinearForm(c).primitive()[1])
    powers = draw(st.lists(st.tuples(form, st.integers(1, 3)), max_size=3))
    p = draw(polys(degree))
    for f, k in powers:
        p = p * f ** k
    if draw(st.booleans()):
        top = p.homogeneous_degree()
        p = p + draw(polys(top if degree is not None else None))
    pool = [f for f, _ in powers] + draw(st.lists(form, max_size=2))
    den = draw(st.lists(st.tuples(st.sampled_from(pool), st.integers(1, 4)),
                        max_size=4)) if pool else []
    return FactoredRational.build(draw(_coeffs.filter(bool)), p,
                                  [(f, -e) for f, e in den])


def _simplified(r: FactoredRational, waste: int) -> FactoredRational:
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(algebra, "_DENSE_WASTE", waste)
        return r.simplify()


@given(_division_cases())
@example(FactoredRational.build(
    1, (s(1) - 2 * s(2)) ** 3 * (s(1) + s(3)) * s(2),
    [(lf(s1=1, s2=-2), -4), (lf(s1=1, s3=1), -1), (lf(s2=1), -2)]))
@settings(max_examples=100, deadline=None)
def test_simplify_matches_the_dict_route(r):
    # _DENSE_WASTE = 0 sends every division to the dict route, the
    # reference; the default and a huge one pack whatever they can
    want = _simplified(r, 0)
    for waste in (algebra._DENSE_WASTE, 10 ** 9):
        assert_same_fields(_simplified(r, waste), want)


def _counted(monkeypatch, name: str) -> list:
    """The arguments of each call to algebra.name from now on."""
    calls, real = [], getattr(algebra, name)

    def spy(*args):
        calls.append(args)
        return real(*args)
    monkeypatch.setattr(algebra, name, spy)
    return calls


class TestPackedDivision:
    def test_packed_route_takes_every_unit(self, monkeypatch):
        dict_calls = _counted(monkeypatch, "_divide_dict")
        form, other = lf(s1=1, s2=-2), lf(s1=2, s2=1, s3=-1)
        q = s(1) * s(3) - 4 * s(2) ** 2
        r = FactoredRational.build(
            3, q * form ** 3 * other,
            [(form, -2), (other, -2), (lf(s3=1), -1)])
        want = FactoredRational.build(
            3, q * form, [(other, -1), (lf(s3=1), -1)])
        assert_same_fields(r.simplify(), want)
        assert not dict_calls

    # At one-byte digits, X = 256, the slots of s1's coefficients in
    # these dividends are ints that the form's s1-coefficient a divides,
    # 2 + X and 1 + 2X, though their digits are not all multiples of a;
    # the packed recurrence then divides exactly to 129 and 171 in the
    # slot of s1^0, which decode to s3 - 127*s2 and s3 - 85*s2, wrong
    # quotients that the coefficient bound refuses.
    @pytest.mark.parametrize("p, form", [
        (2 * s(1) * s(2) + s(1) * s(3) - 127 * s(2) ** 2 + s(2) * s(3),
         lf(s1=2, s2=1)),
        (s(1) * s(2) + 2 * s(1) * s(3) - 85 * s(2) ** 2 + s(2) * s(3),
         lf(s1=3, s2=1)),
    ])
    def test_divisible_slices_never_give_a_wrong_quotient(self, monkeypatch,
                                                          p, form):
        monkeypatch.setattr(algebra, "_digit_width", lambda bound: 1)
        assert exact_divide_linear(p, form) is None
        r = FactoredRational.build(1, p, [(form, -1)])
        assert_same_fields(r.simplify(), r)

    def test_a_slot_past_its_width_falls_back_to_the_dict_route(
            self, monkeypatch):
        # at one-byte digits a slot of s1^0 holds the two digits of s3^0
        # and s3^1, 16 bits; the quotient 2**16 is past them, and read out
        # without the slot-width check it overflows the decode's bytes
        form = lf(s1=1, s2=1, s3=1)
        monkeypatch.setattr(algebra, "_digit_width", lambda bound: 1)
        dict_calls = _counted(monkeypatch, "_divide_dict")
        q = exact_divide_linear(2 ** 16 * (s(1) + s(2) + s(3)), form)
        assert q == SparsePolynomial.constant(2 ** 16)
        assert len(dict_calls) == 1

    @pytest.mark.parametrize("waste", [0, algebra._DENSE_WASTE])
    @pytest.mark.parametrize("p, form, want", [
        (s(1) + 2 * s(2), lf(s1=2, s2=4), SparsePolynomial.constant(
            Fraction(1, 2))),
        ((s(1) + 2 * s(2)) * (s(1) - 3 * s(3)), lf(s1=-2, s2=-4),
         (3 * s(3) - s(1)) * Fraction(1, 2)),
        ((s(1) + 2 * s(2)) * (s(2) + s(3)), lf(s1=Fraction(1, 3),
                                              s2=Fraction(2, 3)),
         3 * (s(2) + s(3))),
    ])
    def test_a_form_that_is_not_primitive_divides(self, monkeypatch, waste,
                                                  p, form, want):
        # its coefficients' gcd 2 does not divide p's, yet the quotient is
        # exact, on the dict route (waste 0) and the packed one
        monkeypatch.setattr(algebra, "_DENSE_WASTE", waste)
        assert exact_divide_linear(p, form) == want
        assert exact_divide_linear(p + s(3) ** 2, form) is None

    def test_the_dict_route_stops_at_a_step_it_cannot_divide(
            self, monkeypatch):
        # 2*s1 + s2 divides no int polynomial whose top s1-slice is odd:
        # over int terms no Fraction is built to learn that
        def tripped(*args):
            raise AssertionError("built a Fraction")
        monkeypatch.setattr(algebra, "_DENSE_WASTE", 0)
        p = 3 * s(1) ** 2 * s(2) + 4 * s(1) * s(2) ** 2 + s(2) ** 3
        monkeypatch.setattr(algebra, "Fraction", tripped)
        assert exact_divide_linear(p, lf(s1=2, s2=1)) is None
        r = FactoredRational(1, p, ((lf(s1=2, s2=1), -1),))
        assert r.simplify() is r

    def test_narrow_digits_fall_back_to_the_dict_route(self, monkeypatch):
        # 100 * |s1 - s2|_1 = 200 does not fit a one-byte digit, so the
        # true packed quotient fails its bound and the dict route runs
        form = lf(s1=1, s2=-1)
        q = 100 * s(3) + s(2)
        r = FactoredRational.build(1, q * form, [(form, -1)])
        dict_calls = _counted(monkeypatch, "_divide_dict")
        assert_same_fields(r.simplify(), FactoredRational.build(1, q))
        assert not dict_calls
        monkeypatch.setattr(algebra, "_digit_width", lambda bound: 1)
        assert_same_fields(r.simplify(), FactoredRational.build(1, q))
        assert len(dict_calls) == 1


class TestLeadingKey:
    @given(_polys(max_size=8))
    @settings(max_examples=100, deadline=None)
    def test_matches_leading(self, p):
        assume(p.terms)
        assert _unpack(algebra._leading_key(p.terms)) == p.leading()[0]

    def test_degrees_past_the_field_modulus(self):
        top = ((sv(1), MAX_EXPONENT), (sv(2), MAX_EXPONENT))
        p = SparsePolynomial({top + ((sv(3), 2),): 1, ((sv(4), 1),): -1})
        assert _unpack(algebra._leading_key(p.terms)) == p.leading()[0]
        assert p.extract_content()[0] == 1
