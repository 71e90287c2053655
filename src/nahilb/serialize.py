"""JSON encodings of the documents the command line writes: rationals,
polynomials, linear forms, fixed chains and integral results, with
readers for the rationals and their parts.

Coefficients serialize as "num/den" strings so arbitrary precision
survives the round trip; layers are plain integer arrays in a
deterministic order.
"""

from __future__ import annotations

import sys
from fractions import Fraction

from .algebra import (
    NAMESPACES,
    FactoredRational,
    LinearForm,
    SparsePolynomial,
    mono_text,
    parse_var,
    rational_text,
    sum_text,
    term_text,
    var_name,
)
from .errors import NotPolynomial, SizeGuardExceeded
from .localization import IntegralResult
from .partitions import NestedPartition


class SharedDoc(dict):
    """A JSON object that one document holds in many places: the command
    line's writer renders its text once per indent and repeats it."""

    __slots__ = ()


def linear_form_to_json(f: LinearForm) -> dict:
    rows: dict = {}
    for (rank, idx), c in f.key():
        rows.setdefault(NAMESPACES[rank], {})[idx] = str(c)
    return {ns: [row.get(i, "0") for i in range(1, max(row) + 1)]
            for ns, row in rows.items()}


def linear_form_from_json(doc: dict) -> LinearForm:
    coeffs = {}
    for ns, arr in doc.items():
        for i, c in enumerate(arr):
            c = Fraction(c)
            if c:
                coeffs[(ns, i + 1)] = c
    return LinearForm(coeffs)


def poly_to_json(p: SparsePolynomial) -> list:
    """The terms of p, leading first, with the names of its variables
    decoded once from p.sorted_rows()."""
    names, rows = p.sorted_rows()
    names = [var_name(v) for v in names]
    terms = p.terms
    return [{"coeff": str(terms[m]),
             "exps": {name: e for name, e in zip(names, es) if e}}
            for _, es, m in rows]


def poly_from_json(doc: list) -> SparsePolynomial:
    return SparsePolynomial({
        tuple((parse_var(name), int(e)) for name, e in item["exps"].items()):
            Fraction(item["coeff"])
        for item in doc})


def rational_to_json(r: FactoredRational) -> dict:
    return render_rational(r, {})[0]


def rational_from_json(doc: dict) -> FactoredRational:
    return FactoredRational.build(
        Fraction(doc["scalar"]),
        poly_from_json(doc["numerator"]),
        [(linear_form_from_json(f), int(e)) for f, e in doc["factors"]],
    )


def nested_to_json(np_: NestedPartition) -> dict:
    return {
        "dims": list(np_.dims),
        "layers": [[list(p) for p in layer] for layer in np_.key()],
    }


def render_rational(r: FactoredRational, forms: dict) -> tuple:
    """(rational_to_json(r), str(r)) from one poly_to_json call, whose
    terms give the text too.  forms maps each LinearForm rendered before
    to its (JSON document, text); a new form is rendered once and added,
    its document a SharedDoc, since every value it divides holds it."""
    numerator = poly_to_json(r.poly)
    terms = [term_text(mono_text(t["exps"].items()), t["coeff"])
             for t in numerator]
    factors, texts = [], []
    for form, e in r.factors:
        done = forms.get(form)
        if done is None:
            done = forms[form] = (SharedDoc(linear_form_to_json(form)),
                                  str(form))
        factors.append([done[0], e])
        texts.append(done[1])
    doc = {"scalar": str(r.scalar), "numerator": numerator,
           "factors": factors}
    return doc, rational_text(r, sum_text(terms), texts)


def render_value(v: FactoredRational, expand: bool, forms: dict) -> dict:
    """The document of a value: its factored form, its display text and,
    with expand, its expanded polynomial when the denominators clear;
    other values omit the expanded form.  The factored form and the
    display come from render_rational(v, forms).  A coefficient too long
    for str() raises SizeGuardExceeded."""
    try:
        factored, text = render_rational(v, forms)
        doc = {"factored": factored, "display": text}
        if expand:
            doc["expanded"] = poly_to_json(v.expand())
    except NotPolynomial:
        pass
    except ValueError as exc:  # past sys.get_int_max_str_digits()
        raise SizeGuardExceeded(
            f"a coefficient has more than {sys.get_int_max_str_digits()} "
            f"decimal digits, the limit for printing an int") from exc
    return doc


def integral_result_to_json(res: IntegralResult, expand: bool,
                            forms: dict) -> dict:
    """The integral's document with its value's display text beside the
    value; forms as in render_rational."""
    value = render_value(res.value, expand, forms)
    return {
        "space": res.space,
        "method": res.method,
        "vdim": res.vdim,
        "display": value.pop("display"),
        "value": value,
    }
