"""JSON encodings for the value types, bijective with canonical forms.

Coefficients serialize as "num/den" strings so arbitrary precision
survives the round trip; vectors and layers are plain integer arrays in
a deterministic order.
"""

from __future__ import annotations

from fractions import Fraction

from .algebra import (
    NAMESPACES,
    FactoredRational,
    LinearForm,
    SparsePolynomial,
    parse_var,
    var_name,
)
from .errors import NotPolynomial
from .localization import IntegralResult
from .partitions import Enumeration, NestedPartition, point_key
from .residues import ResidueForm
from .weights import SignedWeightMultiset


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
    out = []
    for mono, coeff in p.sorted_terms():
        out.append({
            "coeff": str(coeff),
            "exps": {var_name(v): e for v, e in mono},
        })
    return out


def poly_from_json(doc: list) -> SparsePolynomial:
    return SparsePolynomial({
        tuple((parse_var(name), int(e)) for name, e in item["exps"].items()):
            Fraction(item["coeff"])
        for item in doc})


def rational_to_json(r: FactoredRational) -> dict:
    return {
        "scalar": str(r.scalar),
        "numerator": poly_to_json(r.poly),
        "factors": [[linear_form_to_json(f), e] for f, e in r.factors],
    }


def rational_from_json(doc: dict) -> FactoredRational:
    return FactoredRational.build(
        Fraction(doc["scalar"]),
        poly_from_json(doc["numerator"]),
        [(linear_form_from_json(f), int(e)) for f, e in doc["factors"]],
    )


def multiset_to_json(m: SignedWeightMultiset) -> list:
    return [{"weight": list(w), "mult": mult} for w, mult in m.items()]


def multiset_from_json(doc: list, n: int) -> SignedWeightMultiset:
    return SignedWeightMultiset(
        n, {tuple(item["weight"]): int(item["mult"]) for item in doc})


def nested_to_json(np_: NestedPartition) -> dict:
    return {
        "dims": list(np_.dims),
        "layers": [sorted((list(p) for p in layer),
                          key=lambda p: point_key(tuple(p)))
                   for layer in np_.layers],
    }


def nested_from_json(doc: dict) -> NestedPartition:
    layers = [frozenset(tuple(p) for p in layer) for layer in doc["layers"]]
    n = len(next(iter(layers[0])))
    return NestedPartition(n, tuple(doc["dims"]), layers)


def enumeration_to_json(e: Enumeration) -> dict:
    return {"order": [list(p) for p in e.points], "w": list(e.w)}


def enumeration_from_json(doc: dict, dims) -> Enumeration:
    points = [tuple(p) for p in doc["order"]]
    return Enumeration(len(points[0]), tuple(dims), points)


def integral_result_to_json(res: IntegralResult, expand: bool = False) -> dict:
    value: dict = {"factored": rational_to_json(res.value)}
    if expand:
        # only values whose denominators clear have an expanded form
        try:
            value["expanded"] = poly_to_json(res.value.expand())
        except NotPolynomial:
            pass
    return {
        "space": res.space,
        "method": res.method,
        "vdim": res.vdim,
        "value": value,
    }


def integral_result_from_json(doc: dict) -> IntegralResult:
    return IntegralResult(
        rational_from_json(doc["value"]["factored"]),
        int(doc["vdim"]), doc["method"], doc["space"])


def residue_form_to_json(f: ResidueForm) -> dict:
    factors = [[linear_form_to_json(form), -e] for form, e in f.factors]
    factors += [[linear_form_to_json(form), e] for form, e in f.deferred]
    return {
        "numerator": poly_to_json(f.numerator),
        "factors": factors,
        "z_count": f.z_count,
    }


def residue_form_from_json(doc: dict) -> ResidueForm:
    den = []
    num = []
    for f, e in doc["factors"]:
        e = int(e)
        pair = (linear_form_from_json(f), abs(e))
        (den if e < 0 else num).append(pair)
    return ResidueForm(poly_from_json(doc["numerator"]), den,
                       int(doc["z_count"]), deferred=num)
