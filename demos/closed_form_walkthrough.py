"""Walk through the flagship computation: three points in three variables.

Enumerates the six monomial fixed points, prints each localization term,
sums them, checks the total against its three-term closed form, and then
restricts to the trace-zero subtorus where the answer is the integer 11.
"""

from fractions import Fraction

from nahilb.algebra import (
    FactoredRational,
    SparsePolynomial,
    rational_equal,
    sum_factored,
)
from nahilb.localization import (
    TautClass,
    chern_taut,
    contribution,
    cy_restrict,
    integrate_localization,
)
from nahilb.partitions import canonical_enumeration, enumerate_nested


def s(i):
    return SparsePolynomial.variable(("s", i))


def closed_form():
    sigma1 = s(1) + s(2) + s(3)
    sigma2 = s(1) * s(2) + s(1) * s(3) + s(2) * s(3)
    den = [(s(i), -1) for i in (1, 2, 3)]
    lead = FactoredRational.build(Fraction(20), sigma1 ** 3, den)
    middle = FactoredRational.build(Fraction(-31), sigma2 * sigma1, den)
    tail = FactoredRational.from_poly(SparsePolynomial.constant(11))
    return sum_factored([lead, middle, tail])


def main():
    n, dims = 3, (3,)
    c2 = chern_taut(2, 0, 3, dual=True).poly
    P = TautClass(c2 * c2 * c2, 0, 3)

    print("Integrand: the cube of the dual second Chern class of the")
    print("tautological rank-3 bundle, against the virtual class of the")
    print("Hilbert scheme of 3 points in 3-space.\n")

    terms = []
    for np_ in enumerate_nested(n, dims):
        e = canonical_enumeration(np_)
        v = contribution(e, "nhilb", P)
        terms.append(v)
        shape = sorted(np_.layers[-1])
        print(f"  fixed point {shape}:")
        print(f"    {v}")
    total = sum_factored(terms)
    print(f"\nSum of the 6 fixed-point terms:\n  {total}")

    res = integrate_localization(n, dims, "nhilb", P)
    assert rational_equal(total, res.value)
    print(f"\nVirtual dimension: {res.vdim}")

    want = closed_form()
    print("\nThree-term closed form:")
    print("  20 e1^3/e3 - 31 e2 e1/e3 + 11   (e_k elementary symmetric)")
    print(f"  matches: {rational_equal(res.value, want)}")

    cy = cy_restrict(res.value, n)
    print(f"\nOn the trace-zero subtorus (s3 = -s1 - s2): {cy}")


if __name__ == "__main__":
    main()
