"""JSON encodings of the documents the command line writes.

Every encoder must produce json.dumps-able documents, and decoding must
reproduce an equal object.  Fractions survive as exact strings.
"""

import json
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nahilb.algebra import (
    FactoredRational,
    LinearForm,
    SparsePolynomial,
    rational_equal,
)
from nahilb.errors import SizeGuardExceeded
from nahilb.localization import (
    TautClass,
    chern_taut,
    integrate_localization,
)
from nahilb.partitions import NestedPartition, enumerate_nested, porteous
from nahilb.serialize import (
    SharedDoc,
    integral_result_to_json,
    linear_form_from_json,
    linear_form_to_json,
    nested_to_json,
    poly_from_json,
    poly_to_json,
    rational_from_json,
    rational_to_json,
    render_rational,
    render_value,
)


def s(i):
    return SparsePolynomial.variable(("s", i))


def roundtrip_doc(doc):
    return json.loads(json.dumps(doc, sort_keys=True))


def nested_of(doc):
    layers = [frozenset(tuple(p) for p in layer) for layer in doc["layers"]]
    return NestedPartition(len(next(iter(layers[0]))), tuple(doc["dims"]),
                           layers)


class TestScalarsAndForms:
    def test_linear_form(self):
        f = LinearForm({("s", 2): Fraction(1, 3), ("z", 1): Fraction(-7)})
        doc = roundtrip_doc(linear_form_to_json(f))
        assert linear_form_from_json(doc) == f

    def test_linear_form_gap_indices(self):
        f = LinearForm({("eta", 3): Fraction(5, 2)})
        doc = roundtrip_doc(linear_form_to_json(f))
        assert linear_form_from_json(doc) == f

    def test_polynomial(self):
        p = (s(1) + s(2)) ** 3 * Fraction(2, 9) - s(3) + 4
        doc = roundtrip_doc(poly_to_json(p))
        assert poly_from_json(doc) == p

    def test_polynomial_mixing_namespaces(self):
        # sort_keys writes "eta1" before "s2" and "theta1", the reverse of
        # the variable order; decoding must not depend on that
        theta1 = SparsePolynomial.variable(("theta", 1))
        eta1 = SparsePolynomial.variable(("eta", 1))
        for p in (theta1 * eta1 + s(2) * eta1,
                  s(1) * eta1 ** 2 - 3 * s(2) ** 2 * eta1,
                  theta1 ** 2 * eta1 + theta1 * eta1 ** 2):
            q = poly_from_json(roundtrip_doc(poly_to_json(p)))
            assert q == p
            assert (q - p).is_zero()
            assert q * q == p * p
            assert str(q) == str(p)

    def test_polynomial_any_exponent_order(self):
        doc = [{"coeff": "2", "exps": {"eta1": 1, "theta1": 1}},
               {"coeff": "-1", "exps": {"theta1": 1, "eta1": 1}}]
        p = SparsePolynomial.variable(("theta", 1)) \
            * SparsePolynomial.variable(("eta", 1))
        assert poly_from_json(doc) == p

    def test_zero_polynomial(self):
        doc = roundtrip_doc(poly_to_json(SparsePolynomial.zero()))
        assert poly_from_json(doc) == SparsePolynomial.zero()

    def test_rational(self):
        r = FactoredRational.build(
            Fraction(-3, 7), (s(1) - s(2)) ** 2,
            [(LinearForm({("s", 1): Fraction(1)}), -2),
             (LinearForm({("s", 2): Fraction(1)}), 1)])
        doc = roundtrip_doc(rational_to_json(r))
        assert rational_equal(rational_from_json(doc), r)

    def test_rational_zero(self):
        doc = roundtrip_doc(rational_to_json(FactoredRational.zero()))
        assert rational_from_json(doc).is_zero()


_NAMES = [("s", 1), ("s", 2), ("s", 11), ("theta", 1), ("theta", 2),
          ("eta", 1), ("eta", 10), ("z", 2)]
_POLYS = st.one_of(
    st.just(SparsePolynomial.zero()), st.just(SparsePolynomial.one()),
    st.dictionaries(
        st.lists(st.tuples(st.sampled_from(_NAMES), st.integers(1, 3)),
                 max_size=3).map(tuple),
        st.integers(-30, 30), max_size=6).map(SparsePolynomial))
_FORMS = st.dictionaries(st.sampled_from(_NAMES), st.integers(-3, 3),
                         min_size=1, max_size=3).filter(
    lambda c: any(c.values())).map(LinearForm)
_RATIONALS = st.builds(
    FactoredRational.build,
    st.builds(Fraction, st.integers(-40, 40), st.integers(1, 12)),
    _POLYS,
    st.lists(st.tuples(_FORMS, st.integers(-3, 3)), max_size=4))

_THETA_ETA = SparsePolynomial.variable(("theta", 2)) \
    * SparsePolynomial.variable(("eta", 10)) - 3 * s(11)
_SHARED = LinearForm({("s", 1): 1, ("s", 11): -2})


@given(_RATIONALS, _RATIONALS)
@example(FactoredRational.zero(), FactoredRational.one())
@example(FactoredRational.build(Fraction(-5, 3), SparsePolynomial.one()),
         FactoredRational.build(1, SparsePolynomial.one(),
                                [(_SHARED, 2), (_SHARED + s(2), -1)]))
@example(FactoredRational.build(7, _THETA_ETA, [(_SHARED, -3)]),
         FactoredRational.build(-1, _THETA_ETA ** 2, [(_SHARED, 1)]))
@settings(max_examples=150, deadline=None)
def test_one_pass_render_matches_rational_to_json_and_str(a, b):
    forms: dict = {}
    for r in (a, b, a):
        doc, text = render_rational(r, forms)
        assert doc == rational_to_json(r)
        assert text == str(r)
        # every value holds the stored document of each of its forms
        assert all(fdoc is forms[f][0]
                   for (fdoc, _), (f, _) in zip(doc["factors"], r.factors))
    # each distinct form is rendered once, with its own document and text,
    # the document marked for the writer to render once per indent
    assert forms.keys() == {f for r in (a, b) for f, _ in r.factors}
    for form, (doc, text) in forms.items():
        assert type(doc) is SharedDoc
        assert (doc, text) == (linear_form_to_json(form), str(form))


class TestCombinatorics:
    def test_nested_partition(self):
        np_ = porteous(3, (1, 2, 1))
        doc = roundtrip_doc(nested_to_json(np_))
        assert nested_of(doc) == np_

    def test_layers_sorted(self):
        np_ = porteous(2, (1, 2))
        doc = nested_to_json(np_)
        for layer in doc["layers"]:
            assert layer == sorted(layer, key=lambda p: tuple(reversed(p)))

    def test_all_chains_round_trip(self):
        for np_ in enumerate_nested(2, (1, 1, 2)):
            doc = roundtrip_doc(nested_to_json(np_))
            assert nested_of(doc) == np_


class TestResults:
    def test_integral_result(self):
        res = integrate_localization(2, (1, 2), "nilfil", TautClass(1, 0, 3))
        doc = roundtrip_doc(integral_result_to_json(res, False, {}))
        assert (doc["space"], doc["method"], doc["vdim"]) \
            == (res.space, res.method, res.vdim)
        assert rational_equal(rational_from_json(doc["value"]["factored"]),
                              res.value)
        assert doc["display"] == str(res.value)

    def test_integral_result_expanded_field(self):
        res = integrate_localization(3, (1, 1, 1), "nhilb",
                                     chern_taut(2, 0, 3, dual=True))
        doc = roundtrip_doc(integral_result_to_json(res, True, {}))
        assert poly_from_json(doc["value"]["expanded"]) == res.value.expand()

    def test_coefficient_too_long_to_print(self):
        value = FactoredRational.from_poly(SparsePolynomial.constant(2 ** 16000))
        with pytest.raises(SizeGuardExceeded,
                           match=str(sys.get_int_max_str_digits())):
            render_value(value, True, {})

    def test_expanded_field_omitted_for_true_rationals(self):
        c2 = chern_taut(2, 0, 3, dual=True)
        res = integrate_localization(3, (3,), "nhilb",
                                     TautClass(c2.poly ** 3, 0, 3))
        doc = integral_result_to_json(res, True, {})
        assert "expanded" not in doc["value"]
        assert "factored" in doc["value"]

    def test_documents_are_deterministic(self):
        res = integrate_localization(2, (1, 1), "nilfil", TautClass(1, 0, 2))
        a = json.dumps(integral_result_to_json(res, False, {}), sort_keys=True)
        b = json.dumps(integral_result_to_json(res, False, {}), sort_keys=True)
        assert a == b
