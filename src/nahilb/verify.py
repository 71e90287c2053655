"""Self-contained consistency checks over the whole engine.

Each check cross-validates one identity the implementation promises:
closed-form anchors for three points in three variables, the rank gap
behind the admissibility test, independence of enumeration choices,
the block-coset expansion of the weighted residue, agreement of the
localization sum with the residue formula, vanishing of the off-flag
residue terms, the full-flag reduction, the structural multiset
identities, and stability in the ambient dimension.

The checks are exhaustive over stated ranges and exact; randomness only
picks test polynomials and is always seeded.  `run_checks` powers both
the command line and the acceptance tests.
"""

from __future__ import annotations

import random
import time
from collections import namedtuple
from fractions import Fraction
from itertools import permutations

from .algebra import (
    FactoredRational,
    LinearForm,
    SparsePolynomial,
    rational_equal,
    sum_factored,
)
from .errors import ParseError
from .localization import (
    TautClass,
    chern_taut,
    contribution,
    cy_restrict,
    integrate_localization,
    reduce_full_flag,
    restrict_class,
)
from .partitions import (
    all_enumerations,
    canonical_enumeration,
    enumerate_nested,
    flag_cosets,
    in_flag_fiber,
    is_admissible,
    is_nilfil,
    porteous,
)
from .residues import integrate_residue_nilfil, residue_term, weighted_residue_rhs
from .weights import (
    epunct_class,
    fixed_ranks,
    flag_tangent_euler,
    obstruction_class,
    punctual_net_count,
    tangent_class,
    tangent_class_punctual,
)

DEFAULT_SEED = 20260815


class CheckResult(namedtuple("CheckResult", "name ok detail seconds")):
    """Outcome of one named check."""

    __slots__ = ()


def _s(i: int) -> LinearForm:
    return LinearForm({("s", i): Fraction(1)})


def _comb(pairs: dict) -> LinearForm:
    return LinearForm({("s", i): Fraction(c) for i, c in pairs.items()})


def _compositions(total: int):
    """Ordered tuples of positive integers with the given sum."""
    if total == 0:
        yield ()
        return
    for first in range(1, total + 1):
        for rest in _compositions(total - first):
            yield (first,) + rest


def _pointed_compositions(total: int):
    for rest in _compositions(total - 1):
        yield (1,) + rest


def _hilb3_class() -> TautClass:
    c2 = chern_taut(2, 0, 3, dual=True).poly
    return TautClass(c2 * c2 * c2, 0, 3)


def check_hilb3_closed_form(seed: int):
    """Three points in three variables: the integral of c2(dual)^3 has a
    three-term closed form and restricts to 11 on the trace-zero torus."""
    res = integrate_localization(3, (3,), "nhilb", _hilb3_class())
    e1 = _s(1) + _s(2) + _s(3)
    e2 = _s(1) * _s(2) + _s(1) * _s(3) + _s(2) * _s(3)
    e3 = _s(1) * _s(2) * _s(3)
    num = e1 * e1 * e1 * 20 + e2 * e1 * (-31) + e3 * 11
    expected = FactoredRational.build(
        Fraction(1), num, [(_s(i), -1) for i in (1, 2, 3)])
    if res.vdim != 6:
        return False, f"vdim {res.vdim} != 6"
    if not rational_equal(res.value, expected):
        return False, "closed form mismatch"
    cy = cy_restrict(res.value, 3)
    eleven = FactoredRational.from_poly(SparsePolynomial.constant(11))
    if not rational_equal(cy, eleven):
        return False, f"trace-zero restriction is {cy}, not 11"
    return True, "closed form and trace-zero value 11 reproduced, vdim 6"


def check_hilb3_point_terms(seed: int):
    """Per-chain contributions for three points in three variables match
    their closed forms for every index choice."""
    P = _hilb3_class()
    by_top = {}
    for np_ in enumerate_nested(3, (3,)):
        by_top[np_.top()] = canonical_enumeration(np_)
    checked = 0
    for i, j, k in permutations((1, 2, 3)):
        if j > k:
            continue
        top = frozenset({(0, 0, 0),
                         tuple(1 if c == i else 0 for c in (1, 2, 3)),
                         tuple(2 if c == i else 0 for c in (1, 2, 3))})
        num = _s(i) ** 6
        expected = FactoredRational.build(Fraction(80), num, [
            (_s(j), -1), (_comb({j: 1, i: -1}), -1), (_comb({j: 1, i: -2}), -1),
            (_s(k), -1), (_comb({k: 1, i: -1}), -1), (_comb({k: 1, i: -2}), -1),
        ])
        got = contribution(by_top[top], "nhilb", P)
        if not rational_equal(got, expected):
            return False, f"pure-power chain at i={i} mismatches"
        checked += 1
    for i, j in ((1, 2), (1, 3), (2, 3)):
        k = ({1, 2, 3} - {i, j}).pop()
        top = frozenset({(0, 0, 0),
                         tuple(1 if c == i else 0 for c in (1, 2, 3)),
                         tuple(1 if c == j else 0 for c in (1, 2, 3))})
        num = (_comb({i: 2, j: 1}) * _comb({i: 1, j: 2}) * _comb({i: 1, j: 1})
               * _s(i) * _s(j))
        expected = FactoredRational.build(Fraction(1), num, [
            (_comb({i: 2, j: -1}), -1), (_comb({j: 2, i: -1}), -1),
            (_s(k), -1), (_comb({k: 1, i: -1}), -1), (_comb({k: 1, j: -1}), -1),
        ])
        got = contribution(by_top[top], "nhilb", P)
        if not rational_equal(got, expected):
            return False, f"two-direction chain at i={i}, j={j} mismatches"
        checked += 1
    return True, f"{checked} per-chain closed forms reproduced"


def check_admissibility_rank_gap(seed: int):
    """The coincidence ranks satisfy W_T <= W_B everywhere and equality
    holds exactly on the admissible chains; exhaustive for d <= 6, n <= 3.
    fixed_ranks counts lattice points of boxes in the top ideal, so its
    cross-check against the multisets' fixed parts joins two routes."""
    chains = 0
    for n in (1, 2, 3):
        for d in range(1, 7):
            for dims in _compositions(d):
                for np_ in enumerate_nested(n, dims):
                    wt, wb = fixed_ranks(canonical_enumeration(np_))
                    if wt > wb:
                        return False, f"W_T > W_B at {np_}"
                    if (wt == wb) != is_admissible(np_):
                        return False, f"admissibility mismatch at {np_}"
                    chains += 1
    cross = 0
    for n in (1, 2, 3):
        for d in range(1, 5):
            for dims in _compositions(d):
                for np_ in enumerate_nested(n, dims):
                    e = canonical_enumeration(np_)
                    wt, wb = fixed_ranks(e)
                    if (tangent_class(e).fixed_rank() != wt
                            or obstruction_class(e).fixed_rank() != wb):
                        return False, f"rank count disagrees at {np_}"
                    cross += 1
    return True, (f"{chains} chains checked, ranks cross-validated on "
                  f"{cross} of them")


def _eta_heavy_class(d: int) -> TautClass:
    if d == 1:
        return TautClass(1, 0, 1)
    c1 = chern_taut(1, 0, d, dual=True).poly
    c2 = chern_taut(2, 0, d, dual=True).poly
    return TautClass(c1 * c1 + c2, 0, d)


def check_enumeration_independence(seed: int):
    """Weight multisets, restrictions, and contributions do not depend on
    which valid enumeration of a chain is used; exhaustive for d <= 5,
    n <= 3."""
    chains = 0
    enums = 0
    for n in (1, 2, 3):
        for d in range(1, 6):
            P = _eta_heavy_class(d)
            for dims in _compositions(d):
                for np_ in enumerate_nested(n, dims):
                    pointed = dims[0] == 1
                    nil = pointed and is_nilfil(np_)
                    rows = []
                    for e in all_enumerations(np_):
                        row = [tangent_class(e), obstruction_class(e),
                               restrict_class(P, e)]
                        if nil:
                            row.append(tangent_class_punctual(e))
                            row.append(epunct_class(e))
                        rows.append((e, row))
                    first = rows[0][1]
                    for e, row in rows[1:]:
                        if row != first:
                            return False, f"multiset depends on order at {np_}"
                    base = contribution(rows[0][0], "nhilb", P)
                    base_nil = (contribution(rows[0][0], "nilfil", P)
                                if nil else None)
                    for e, _ in rows[1:]:
                        if not rational_equal(contribution(e, "nhilb", P), base):
                            return False, f"contribution depends on order at {np_}"
                        if nil and not rational_equal(
                                contribution(e, "nilfil", P), base_nil):
                            return False, f"contribution depends on order at {np_}"
                    chains += 1
                    enums += len(rows)
    return True, f"{chains} chains, {enums} enumerations compared"


def _block_perms(levels):
    """Index maps permuting z-variables within blocks of equal level."""
    blocks = {}
    for pos, lev in enumerate(levels, start=1):
        blocks.setdefault(lev, []).append(pos)
    maps = [{}]
    for members in blocks.values():
        nxt = []
        for perm in permutations(members):
            for base in maps:
                m = dict(base)
                m.update(zip(members, perm))
                nxt.append(m)
        maps = nxt
    return maps


def _random_block_symmetric(rng, k: int, levels, n: int) -> SparsePolynomial:
    """Random polynomial of degree <= 4 in z_1..z_k with occasional
    s-variables, symmetrized within the level blocks."""
    raw = SparsePolynomial.zero()
    for _ in range(rng.randint(1, 4)):
        term = SparsePolynomial.constant(
            Fraction(rng.randint(-9, 9), rng.randint(1, 4)))
        for _ in range(rng.randint(0, 4)):
            if rng.random() < 0.25:
                var = ("s", rng.randint(1, n))
            else:
                var = ("z", rng.randint(1, k))
            term = term * SparsePolynomial.variable(var)
        raw = raw + term
    maps = _block_perms(levels)
    total = SparsePolynomial.zero()
    for m in maps:
        sub = {("z", a): SparsePolynomial.variable(("z", b))
               for a, b in m.items() if a != b}
        total = total + (raw.substitute(sub) if sub else raw)
    return total * Fraction(1, len(maps))


def check_weighted_residue_cosets(seed: int):
    """The weighted residue of a block-symmetric polynomial equals its
    expansion as a sum over block-sorted injections."""
    rng = random.Random(seed)
    structures = [(1,), (2,), (1, 1), (3,), (1, 2), (2, 1), (1, 1, 1)]
    checked = 0
    for dhat in structures:
        k = sum(dhat)
        levels = []
        for lev, size in enumerate(dhat, start=1):
            levels.extend([lev] * size)
        for n in range(k, 5):
            dims = (1,) + dhat
            cosets = flag_cosets(n, dhat)
            for _ in range(50):
                Q = _random_block_symmetric(rng, k, levels, n)
                lhs = FactoredRational.from_poly(weighted_residue_rhs(Q, n, dhat))
                terms = []
                for sigma in cosets:
                    sub = {("z", l): SparsePolynomial.variable(("s", sigma[l - 1]))
                           for l in range(1, k + 1)}
                    qs = Q.substitute(sub)
                    terms.append(FactoredRational.from_poly(qs)
                                 / flag_tangent_euler(sigma, n, dims))
                if not rational_equal(lhs, sum_factored(terms)):
                    return False, (f"coset expansion fails for blocks {dhat}, "
                                   f"n={n}")
                checked += 1
    return True, f"{checked} seeded identities verified"


def _p_family(d: int):
    one = TautClass(1, 0, d)
    c1 = chern_taut(1, 0, d)
    c2d = chern_taut(2, 0, d, dual=True) if d >= 2 else None
    out = [one, c1]
    if c2d is not None:
        out.append(c2d)
        out.append(TautClass(c2d.poly * c2d.poly, 0, d))
    return out


def check_method_agreement(seed: int):
    """Fixed-point sum and residue formula agree on the nilpotent
    filtration locus for every dims/class pair in the grid."""
    cases = 0
    for n in (1, 2, 3):
        for dims in ((1, 1), (1, 1, 1), (1, 2)):
            for P in _p_family(sum(dims)):
                loc = integrate_localization(n, dims, "nilfil", P)
                res = integrate_residue_nilfil(n, dims, P)
                if loc.vdim != res.vdim:
                    return False, f"vdim differs for n={n}, dims={dims}"
                if not rational_equal(loc.value, res.value):
                    return False, (f"values differ for n={n}, dims={dims}, "
                                   f"P={P.poly}")
                cases += 1
    return True, f"{cases} integrals agree exactly across both methods"


def check_residue_term_vanishing(seed: int):
    """Only the chain of initial unit vectors contributes to the residue:
    all other terms over the identity flag fiber vanish and that single
    term reproduces the full integral."""
    zero_terms = 0
    anchors = 0
    for d in (2, 3, 4):
        for dims in _pointed_compositions(d):
            if len(dims) < 2:
                continue
            for n in range(d - 1, 5):
                members = [np_ for np_ in enumerate_nested(n, dims)
                           if is_nilfil(np_) and in_flag_fiber(np_)]
                port = porteous(n, dims)
                for P in (TautClass(1, 0, d), chern_taut(1, 0, d)):
                    total = integrate_residue_nilfil(n, dims, P)
                    term = residue_term(port, P)
                    if not rational_equal(
                            FactoredRational.from_poly(term), total.value):
                        return False, (f"distinguished term misses the "
                                       f"integral for dims={dims}, n={n}")
                    anchors += 1
                    for np_ in members:
                        if np_ == port:
                            continue
                        if not residue_term(np_, P).is_zero():
                            return False, f"nonzero stray term at {np_}"
                        zero_terms += 1
    return True, (f"{anchors} distinguished terms match, "
                  f"{zero_terms} others vanish")


def check_full_flag_reduction(seed: int):
    """Summing over the nilpotent filtration locus with the correction
    Euler factor reproduces the ambient integral on full flags."""
    cases = 0
    for r in range(4):
        d = r + 1
        for n in (1, 2, 3):
            for P in _p_family(d):
                red = reduce_full_flag(n, r, P)
                amb = integrate_localization(n, (1,) * d, "nhilb", P)
                if red.vdim != amb.vdim:
                    return False, f"vdim differs for r={r}, n={n}"
                if not rational_equal(red.value, amb.value):
                    return False, f"reduction fails for r={r}, n={n}, P={P.poly}"
                cases += 1
    return True, f"{cases} full-flag integrals reproduced"


def _tower_rank(n: int, dims) -> int:
    """Closed form for the net punctual tangent rank: each flag step adds
    a Grassmannian of kernels inside the symmetric square of the part
    already built."""
    dhat = tuple(dims)[1:]
    total = 0
    built = 0
    for step in dhat:
        total += step * (n + built * (built + 1) // 2 - built - step)
        built += step
    return total


def check_structural_identities(seed: int):
    """Multiset identity tangent - correction = punctual tangent, the
    closed form for the punctual net rank, and the degree law for
    nonzero integrals."""
    chains = 0
    for d in range(1, 6):
        for dims in _pointed_compositions(d):
            for n in (1, 2, 3, 4):
                expected = _tower_rank(n, dims)
                if punctual_net_count(n, dims) != expected:
                    return False, f"net rank count fails for dims={dims}, n={n}"
                for np_ in enumerate_nested(n, dims):
                    if not is_nilfil(np_):
                        continue
                    e = canonical_enumeration(np_)
                    if tangent_class(e) - epunct_class(e) != tangent_class_punctual(e):
                        return False, f"multiset identity fails at {np_}"
                    if tangent_class_punctual(e).net_rank() != expected:
                        return False, f"net rank fails at {np_}"
                    chains += 1
    degrees = 0
    grid = [(2, (3,), "nhilb"), (3, (3,), "nhilb"),
            (2, (1, 2), "nilfil"), (3, (1, 1, 1), "nilfil")]
    for n, dims, space in grid:
        for P in _p_family(sum(dims)):
            pdeg = P.poly.homogeneous_degree()
            if pdeg is None:
                continue
            res = integrate_localization(n, dims, space, P)
            if res.value.is_zero():
                continue
            if res.value.homogeneous_degree() != pdeg - res.vdim:
                return False, (f"degree law fails for n={n}, dims={dims}, "
                               f"space={space}")
            degrees += 1
    return True, (f"{chains} nilpotent chains pass the multiset and rank "
                  f"identities, degree law holds on {degrees} integrals")


def check_n_stability(seed: int):
    """With more chain points than ambient dimensions the residue formula
    still computes the integral: it matches the computation in a larger
    ambient space with the transverse Euler factor folded in."""
    dims = (1, 2)
    d = 3
    small_n, big_n = 1, 5
    fold = SparsePolynomial.one()
    for i in range(small_n + 1, big_n + 1):
        for l in range(1, d):
            fold = fold * LinearForm({("s", i): 1, ("eta", l): -1})
    c2d = chern_taut(2, 0, d, dual=True)
    cases = 0
    for P in (TautClass(1, 0, d), c2d, TautClass(c2d.poly * c2d.poly, 0, d)):
        small = integrate_residue_nilfil(small_n, dims, P)
        folded = TautClass(P.poly * fold, 0, d)
        big = integrate_residue_nilfil(big_n, dims, folded)
        if not rational_equal(small.value, big.value):
            return False, f"stability fails for P={P.poly}"
        cases += 1
    return True, f"{cases} integrals stable under ambient extension"


CHECKS = {
    "hilb3-closed-form": check_hilb3_closed_form,
    "hilb3-point-terms": check_hilb3_point_terms,
    "admissibility-rank-gap": check_admissibility_rank_gap,
    "enumeration-independence": check_enumeration_independence,
    "weighted-residue-cosets": check_weighted_residue_cosets,
    "method-agreement": check_method_agreement,
    "residue-term-vanishing": check_residue_term_vanishing,
    "full-flag-reduction": check_full_flag_reduction,
    "structural-identities": check_structural_identities,
    "n-stability": check_n_stability,
}


def run_checks(names=None, seed: int = DEFAULT_SEED) -> list:
    """Run the named checks (all by default) and collect the results;
    an unknown name raises ParseError before any check runs."""
    names = list(CHECKS) if names is None else list(names)
    unknown = set(names) - set(CHECKS)
    if unknown:
        raise ParseError(f"unknown checks: {sorted(unknown)};"
                         f" available: {', '.join(CHECKS)}")
    results = []
    for name in names:
        start = time.perf_counter()
        try:
            ok, detail = CHECKS[name](seed)
        except Exception as exc:  # a crash is a failed check, not a crash
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        results.append(CheckResult(name, ok, detail,
                                   time.perf_counter() - start))
    return results
