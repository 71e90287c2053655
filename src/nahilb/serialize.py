"""JSON encodings of the documents the command line writes: rationals,
polynomials, linear forms, fixed chains and integral results, with
readers for the rationals and their parts.

Coefficients serialize as "num/den" strings so arbitrary precision
survives the round trip; layers are plain integer arrays in a
deterministic order.  The command line's documents hold each polynomial
array as a Terms node, which its writer writes from packed rows;
poly_to_json, rational_to_json and poly_from_json give and read plain
JSON.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii as quote

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
from .partitions import NestedPartition, point_key


class SharedDoc(dict):
    """A JSON object that one document holds in many places: the command
    line's writer renders its text once per indent and repeats it."""

    __slots__ = ()


class SharedList(list):
    """A JSON array that one document holds in many places, written as a
    SharedDoc is."""

    __slots__ = ()


class Terms:
    """A polynomial's array of {"coeff", "exps"} terms in a command's
    document, held as rows that the command line's writer turns into
    text with no dict per term: rows are (coefficient text, exponents of
    the variables) per term, leading first, names the quoted variable
    names in variable order and order their indices in the order of the
    JSON keys, string order, so "s10" comes before "s2".

    Not a list or a dict, so json.dumps refuses it (TypeError) instead
    of encoding it wrongly; doc() gives its plain JSON, and a Terms
    compares equal to what has the same."""

    __slots__ = ("poly", "rows", "names", "order")

    def __init__(self, poly: SparsePolynomial, rows: list, names: list,
                 order: list):
        self.poly = poly
        self.rows = rows
        self.names = names
        self.order = order

    def doc(self) -> list:
        return poly_to_json(self.poly)

    def __eq__(self, other) -> bool:
        return self.doc() == (other.doc() if type(other) is Terms else other)

    __hash__ = None

    def __repr__(self) -> str:
        return f"Terms({self.poly})"


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
    doc = render_rational(r, {})[0]
    doc["numerator"] = poly_to_json(r.poly)
    return doc


def rational_from_json(doc: dict) -> FactoredRational:
    return FactoredRational.build(
        Fraction(doc["scalar"]),
        poly_from_json(doc["numerator"]),
        [(linear_form_from_json(f), int(e)) for f, e in doc["factors"]],
    )


def nested_to_json(np_: NestedPartition, docs: dict | None = None) -> dict:
    """The chain's dims and its layers, each in point_key order.  docs
    maps each dims tuple, point tuple and layer seen before to its
    SharedList and gains the new ones, so a job that writes many chains
    sorts and builds each distinct layer and point once.  One table
    serves one job, whose chains share their dims: a chain that holds a
    point c has at least prod(c_i + 1) > sum(c_i) points, so no point
    equals the dims."""
    if docs is None:
        docs = {}
    dims = docs.get(np_.dims)
    if dims is None:
        dims = docs[np_.dims] = SharedList(np_.dims)
    layers = []
    for layer in np_.layers:
        doc = docs.get(layer)
        if doc is None:
            points = []
            for p in sorted(layer, key=point_key):
                point = docs.get(p)
                if point is None:
                    point = docs[p] = SharedList(p)
                points.append(point)
            doc = docs[layer] = SharedList(points)
        layers.append(doc)
    return {"dims": dims, "layers": layers}


def poly_terms(p: SparsePolynomial, table: dict) -> tuple:
    """(Terms node of p, display names of its variables in variable
    order) from p.sorted_rows().  table maps each tuple of variables met
    before to their display names, quoted names and JSON key order and
    gains the new ones, so a job sorts each set of names once."""
    names, rows = p.sorted_rows()
    key = tuple(names)
    done = table.get(key)
    if done is None:
        shown = [var_name(v) for v in names]
        done = table[key] = (shown, [quote(name) for name in shown],
                             sorted(range(len(shown)), key=shown.__getitem__))
    shown, quoted, order = done
    terms = p.terms
    return Terms(p, [(str(terms[m]), es) for _, es, m in rows], quoted,
                 order), shown


def render_rational(r: FactoredRational, forms: dict) -> tuple:
    """(document, str(r)): rational_to_json(r) with its numerator a Terms
    node, whose rows give the text too.  forms maps each LinearForm
    rendered before to its (JSON document, text); a new form is rendered
    once and added, its document a SharedDoc, since every value it
    divides holds it.  forms is poly_terms's table of names as well: a
    tuple of variables never equals a LinearForm."""
    numerator, names = poly_terms(r.poly, forms)
    terms = [term_text(mono_text(zip(names, es)), c)
             for c, es in numerator.rows]
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
            doc["expanded"] = poly_terms(v.expand(), forms)[0]
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
