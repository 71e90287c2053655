"""Exact-arithmetic kernel: linear forms, sparse polynomials, factored
rationals, and the canonical-form contracts the rest of the engine
relies on."""

from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from nahilb.algebra import (
    MAX_EXPONENT,
    NAMESPACES,
    FactoredRational,
    LinearForm,
    SparsePolynomial,
    exact_divide_linear,
    linear_form_of,
    rational_equal,
    sum_factored,
    var_key,
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
        for same in (shuffled, packed):
            assert same == form and same.key() == key
            assert hash(same) == hash(form)
        got_content, prim = form.primitive()
        assert got_content == content
        assert type(prim) is LinearForm and prim.key() == prim_key
        for ns in NAMESPACES:
            assert form.max_index(ns) == max(
                (i for (n, i), c in coeffs.items() if n == ns and c),
                default=0)


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
