"""Exact polynomial arithmetic and positive root isolation."""

import math
import random
import re
from fractions import Fraction as F

import pytest

from signedlap.crossing import crossing_polynomial, graph_ray_polynomial, ray_polynomial
from signedlap.errors import InputError
from signedlap import polyroots as pr

from conftest import (
    _reference_count,
    assert_value,
    random_connected_graph,
    reference_divmod_exact,
    reference_evaluate,
    reference_isolate_positive,
    reference_poly_gcd,
    reference_positive_roots,
    reference_refine,
    reference_square_free_decomposition,
    reference_sturm_sequence,
)


def _poly_from_roots(roots_with_mult, lead=F(1)):
    p = [lead]
    for r, m in roots_with_mult:
        for _ in range(m):
            p = pr.multiply(p, [-F(r), F(1)])
    return p


def test_divmod_exact_roundtrip():
    rng = random.Random(2)
    for _ in range(30):
        p = [F(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(rng.randint(1, 7))]
        q = [F(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(rng.randint(1, 5))]
        p, q = pr.strip(p), pr.strip(q)
        if not q:
            continue
        quo, rem = reference_divmod_exact(p, q)
        assert len(rem) < len(q)
        prod = pr.multiply(quo, q)
        recon = [a + b for a, b in zip(prod + [F(0)] * len(p), rem + [F(0)] * len(p))]
        assert pr.strip(recon) == p


def test_poly_gcd_known():
    p = _poly_from_roots([(1, 2), (F(-2), 1)])
    q = _poly_from_roots([(1, 1), (3, 1)])
    g = reference_poly_gcd(p, q)
    assert g == [-1, 1]  # t - 1


@pytest.mark.parametrize("p", [[F(5)], [F(-1, 3)], []])
def test_square_free_decomposition_of_a_constant_is_empty(p):
    assert pr.square_free_decomposition(p) == []


def test_square_free_decomposition_known():
    p = _poly_from_roots([(1, 3), (F(1, 3), 1), (F(-2), 2)], lead=F(6))
    fac = dict()
    for f, m in pr.square_free_decomposition(p):
        fac[m] = f
    assert set(fac) == {1, 2, 3}
    assert reference_evaluate(fac[1], F(1, 3)) == 0
    assert reference_evaluate(fac[2], F(-2)) == 0
    assert reference_evaluate(fac[3], F(1)) == 0


def test_sturm_counts():
    p = [F(3), F(-10), F(3)]  # roots 1/3 and 3
    seq = pr.sturm_sequence(p)
    assert _reference_count(seq, F(0), F(10)) == 2
    assert _reference_count(seq, F(0), F(1)) == 1
    assert _reference_count(seq, F(1), F(10)) == 1
    assert _reference_count(seq, F(4), F(10)) == 0


def test_integer_remainders_match_the_fraction_reference():
    # rational and integer coefficients, leads of either sign, products of
    # repeated linear and quadratic factors (non-constant gcd(p, p')),
    # random polynomials (constant gcd, almost surely) and sparse ones, whose
    # remainders drop more than one degree: an odd number of pseudo-division
    # steps by a negative-leading divisor
    rng = random.Random(410)
    multiple = constant_gcd = 0
    for case in range(150):
        if case % 3 == 0:
            p = [_random_coefficient(rng, case % 2 == 1) for _ in range(rng.randint(1, 9))]
            p = pr.strip(p + [_random_coefficient(rng, case % 2 == 1) or F(1)])
        elif case % 3 == 1:
            p = [F(rng.choice([0, 0, rng.randint(-30, 30)])) for _ in range(rng.randint(2, 10))]
            p = pr.strip(p + [F(rng.choice([-3, -1, 1, 2]))])
        else:
            p = [F(rng.choice([-7, -2, -1, 1, 3]), rng.randint(1, 9))]
            for _ in range(rng.randint(1, 4)):
                if rng.random() < 0.6:
                    factor = [F(rng.randint(-40, 40), rng.randint(1, 15)), F(rng.randint(1, 5))]
                else:
                    factor = [F(rng.randint(-50, 50), rng.randint(1, 7)), F(rng.randint(-3, 3)), F(1)]
                for _ in range(rng.randint(1, 3)):
                    p = pr.multiply(p, factor)
        seq = pr.sturm_sequence(p)
        assert seq == reference_sturm_sequence(p), p
        assert pr.square_free_decomposition(p) == reference_square_free_decomposition(p), p
        multiple += len(seq[-1]) > 1
        constant_gcd += len(seq[-1]) == 1 and len(p) > 2
    assert multiple >= 40 and constant_gcd >= 40


def test_positive_roots_rational_detection():
    p = _poly_from_roots([(F(22, 7), 1), (F(355, 113), 2), (F(-1), 1)])
    roots = pr.positive_roots(p)
    # ascending: 355/113 < 22/7
    assert [(r.value, r.multiplicity) for r in roots] == [(F(355, 113), 2), (F(22, 7), 1)]


def test_positive_roots_irrational_interval():
    p = [F(-2), F(0), F(1)]  # t^2 - 2
    (r,) = pr.positive_roots(p)
    assert r.value is None
    # refined to the 1e-30 report width, and no further: the last bisection
    # step halved an interval wider than that
    assert F(1, 2 * 10**30) < r.hi - r.lo <= F(1, 10**30)
    assert r.lo ** 2 < 2 < r.hi ** 2  # the interval brackets sqrt(2)
    assert abs(r.midpoint - 2 ** 0.5) < 1e-11


def test_positive_roots_ignores_zero_and_negative():
    p = _poly_from_roots([(0, 2), (F(-3), 1), (F(5, 4), 1)])
    roots = pr.positive_roots(p)
    assert [(r.value, r.multiplicity) for r in roots] == [(F(5, 4), 1)]


def test_positive_roots_mixed_multiplicities():
    p = _poly_from_roots([(F(1, 3), 1), (1, 3)], lead=F(-7, 2))
    roots = pr.positive_roots(p)
    assert [(r.value, r.multiplicity) for r in roots] == [(F(1, 3), 1), (F(1), 3)]


def test_positive_roots_random_reconstruction():
    rng = random.Random(31)
    for _ in range(40):
        k = rng.randint(1, 4)
        chosen = []
        used = set()
        for _ in range(k):
            r = F(rng.randint(1, 30), rng.randint(1, 12))
            if r in used:
                continue
            used.add(r)
            chosen.append((r, rng.randint(1, 3)))
        p = _poly_from_roots(chosen, lead=F(rng.choice([-3, -1, 1, 2])))
        got = {(r.value, r.multiplicity) for r in pr.positive_roots(p)}
        assert got == set(chosen)


def test_positive_roots_zero_polynomial_rejected():
    with pytest.raises(InputError):
        pr.positive_roots([F(0)])


@pytest.mark.parametrize(
    "p, message",
    [
        # not the root 3602879701896397/36028797018963968 of the binary 0.1
        ([0.1, -1], "0.1 is a float"),
        # not the root 1 of [1, -1]
        ([True, -1], "True is a bool"),
        (["x"], "Invalid literal for Fraction"),
    ],
)
def test_positive_roots_take_exact_rationals_only(p, message):
    with pytest.raises(InputError, match=f"polynomial coefficients must be finite rationals: .*{message}"):
        pr.positive_roots(p)
    assert pr.positive_roots(["-1/10", 1, 0]) == [pr.RootRecord(F(1, 10), F(1, 10), F(1, 10), 1)]


@pytest.mark.parametrize(
    "route",
    [pr.strip, pr.cauchy_bound, pr.sturm_sequence, pr.square_free_decomposition, pr.positive_roots],
)
@pytest.mark.parametrize(
    "p, message",
    [
        ([0.1], "0.1 is a float"),
        ([0.5, 1], "0.5 is a float"),  # cauchy_bound returned 2
        ([1.5, 2], "1.5 is a float"),  # sturm_sequence read [3, 4]
        ([True, True], "True is a bool"),  # sturm_sequence read [1, 1]
        ([math.nan, 1], "nan is a float"),  # a bare ValueError
        ([math.inf, 1], "inf is a float"),  # a bare OverflowError
        (3, "'int' object is not iterable"),  # a bare TypeError
    ],
)
def test_every_polynomial_routine_reads_exact_rationals_only(route, p, message):
    with pytest.raises(InputError, match=f"^polynomial coefficients must be finite rationals: {re.escape(message)}"):
        route(p)


def test_multiply_reads_both_factors():
    # ["1"] * ["2"] raised a bare TypeError and [0.1] * [1] read the float
    assert pr.multiply(["1"], ["2"]) == [F(2)]
    assert pr.multiply(["1/2", 0], [3, "-1", 0]) == [F(3, 2), F(-1, 2)]
    assert pr.multiply([0, 0], [1]) == [] and pr.multiply([1], []) == []
    for p, q in (([0.1], [1]), ([1], [0.1]), ([1], 2)):
        with pytest.raises(InputError, match="^polynomial coefficients must be finite rationals: "):
            pr.multiply(p, q)


def test_strip_reads_strings_and_the_derivative_is_private():
    # derivative(["1", "2", "3"]) repeated strings: ['2', '33']
    assert pr.strip(["1", "2/4", 0, "0"]) == [F(1), F(1, 2)]
    assert not hasattr(pr, "derivative")


@pytest.mark.parametrize("p", [[], [0]])
def test_cauchy_bound_of_the_zero_polynomial_is_an_input_error(p):
    with pytest.raises(InputError, match="zero polynomial has no Cauchy bound"):
        pr.cauchy_bound(p)


def test_cauchy_bound_contains_roots():
    p = _poly_from_roots([(F(99), 1), (F(1, 99), 1)])
    b = pr.cauchy_bound(p)
    assert b > 99


# ---------------------------------------------------------------------------
# The integer isolation and refinement against the Fraction reference


def _same_as_reference(p):
    got = pr.positive_roots(p)
    assert got == reference_positive_roots(p), p
    return got


def test_root_records_are_immutable():
    (r,) = pr.positive_roots([F(-3), F(2)])  # 2t - 3
    assert_value(r, pr.RootRecord(F(3, 2), F(3, 2), F(3, 2), 1), pr.RootRecord(F(3, 2), F(3, 2), F(3, 2), 2))
    assert r.midpoint == 1.5
    # the isolation record holds lists: immutable, but not hashable
    iso = pr._isolate_positive(pr.sturm_sequence([F(-2), F(0), F(1)]))
    with pytest.raises(AttributeError):
        iso.intervals = []


def _random_coefficient(rng, rational):
    num = rng.randint(-10**rng.randint(1, 12), 10**rng.randint(1, 12))
    return F(num, rng.randint(1, 10**6)) if rational else F(num)


def _same_isolation(factor):
    """The integer isolation of a square-free factor, as Fractions, equals the
    reference's: residual, midpoint roots in the order found, intervals."""
    iso = pr._isolate_positive(pr.sturm_sequence(factor))
    intervals = [(iso.at(lo, k), iso.at(hi, k)) for lo, hi, k in iso.intervals]
    got = (iso.residual, iso.roots, intervals)
    assert got == reference_isolate_positive(factor), factor
    return got


def test_integer_pipeline_matches_reference_on_random_polynomials():
    rng = random.Random(404)
    found = 0
    for case in range(120):
        deg = rng.randint(1, 12)
        p = [_random_coefficient(rng, case % 2 == 1) for _ in range(deg)]
        p.append(_random_coefficient(rng, case % 2 == 1) or F(1))
        found += len(_same_as_reference(p))
    assert found > 60


def test_integer_pipeline_matches_reference_on_repeated_roots():
    rng = random.Random(405)
    repeated = 0
    for _ in range(40):
        p = [F(rng.choice([-5, -2, 1, 3]))]
        for _ in range(rng.randint(1, 3)):
            root = [-F(rng.randint(1, 40), rng.randint(1, 15)), F(1)]
            for _ in range(rng.randint(1, 3)):
                p = pr.multiply(p, root)
        # x^2 - c, with irrational roots for most c, also repeated
        quad = [-F(rng.randint(2, 50), rng.randint(1, 7)), F(0), F(1)]
        for _ in range(rng.randint(0, 2)):
            p = pr.multiply(p, quad)
        roots = _same_as_reference(p)
        assert sum(r.multiplicity for r in roots) <= len(p) - 1
        repeated += any(r.multiplicity > 1 for r in roots)
    assert repeated >= 20


def test_integer_pipeline_matches_reference_on_bisection_midpoints():
    # When the absolute values of the roots sum to at most 1, every monic
    # coefficient is at most 1 in absolute value, so the Cauchy bound is
    # exactly 2 and the bisection grid is the dyadic points 2 j / 2^k: a
    # dyadic root is hit as a midpoint, during the isolation when another
    # root shares its interval, during the refinement otherwise.
    rng = random.Random(406)
    isolation_hits = refinement_hits = 0
    for _ in range(150):
        p = [F(rng.randint(1, 9))]
        budget = F(1)
        for _ in range(rng.randint(1, 5)):
            k = rng.randint(1, 30)
            kind = rng.random()
            if kind < 0.6:  # a positive dyadic root j / 2^k
                r = F(rng.randint(1, 2**k - 1), 2**k)
                factor = [-r, F(1)]
            elif kind < 0.8:  # a rational root of either sign
                r = F(rng.randint(-9, 9), rng.randint(10, 99))
                factor = [-r, F(1)]
            else:  # x^2 - c, irrational for most c
                r = F(rng.randint(1, 99), rng.randint(100, 999))
                factor = [-r * r - F(1, 10**6), F(0), F(1)]
                r *= 2
            if abs(r) + F(1, 10**5) > budget:
                continue
            budget -= abs(r) + F(1, 10**5)
            p = pr.multiply(p, factor)
            if rng.random() < 0.2:
                p = pr.multiply(p, factor)
        if len(p) < 2:
            continue
        for factor, _ in pr.square_free_decomposition(p):
            assert pr.cauchy_bound(factor) == 2
            residual, exact, intervals = _same_isolation(factor)
            isolation_hits += len(exact)
            for lo, hi in intervals:
                lo, hi = reference_refine(residual, lo, hi, pr._WIDTH)
                refinement_hits += lo == hi
        _same_as_reference(p)
    assert isolation_hits >= 5 and refinement_hits >= 5


def test_isolation_finds_midpoint_roots_in_the_reference_order():
    # roots 3/8, 1/2, 1 and 9/8 under the Cauchy bound 3: bisecting the
    # upper half first finds 9/8, 1 and 1/2; the lower half first would
    # find 3/8 and leave a residual with another bound and other intervals
    p = [F(27), F(-150), F(229), F(22), F(-256), F(128)]
    residual, exact, intervals = _same_isolation(p)
    assert exact == [F(9, 8), F(1), F(1, 2)] and len(intervals) == 1


def test_integer_pipeline_matches_reference_on_close_roots():
    for gap in (F(1, 10**13), F(1, 10**22), F(1, 10**31), F(1, 10**45)):
        for a in (F(1, 3), F(7, 5), F(1000, 7)):
            # two rational roots gap apart, both exact, and two irrational
            # ones about gap / (2 sqrt a) apart
            p = pr.multiply([-a, F(1)], [-a - gap, F(1)])
            q = pr.multiply([-a, F(0), F(1)], [-a - gap, F(0), F(1)])
            for poly, (x, y) in ((p, (a, a + gap)), (q, (a, a + gap))):
                r, s = _same_as_reference(poly)
                assert r.hi <= s.lo
                if poly is p:
                    assert (r.value, s.value) == (x, y)
                else:
                    assert r.lo**2 < x < r.hi**2 and s.lo**2 < y < s.hi**2


def test_refinement_stops_at_exactly_the_probe_width():
    # Cauchy bound 1 + m / 10^30 = 2^101 / 10^30, so the bisection reaches
    # width exactly 1e-30 after 101 halvings, and stops there
    m = 2**101 - 10**30
    p = [F(-1), F(-m), F(10**30)]
    assert pr.cauchy_bound(p) == F(2**101, 10**30)
    (r,) = _same_as_reference(p)
    assert r.value is None and r.hi - r.lo == F(1, 10**30)


def test_integer_pipeline_matches_reference_on_tiny_roots():
    # roots below the 1e-30 report width, whose 1e-30 interval starts at 0,
    # still come back exact
    for root in (F(1, 10**13), F(1, 3 * 10**29), F(1, 10**31), F(2, 10**40 + 1)):
        for other in ([F(-2), F(0), F(1)], [F(1), F(1)], [F(-5, 3), F(1)]):
            p = pr.multiply([-root, F(1)], other)
            roots = _same_as_reference(p)
            assert roots[0].value == root
    (r,) = _same_as_reference([F(-1), F(0), F(10**70)])
    assert r.value == F(1, 10**35)
    # with Cauchy bound 2 the 1e-30 interval is (0, 2^-100], and the root
    # 1 / (2^100 + 1) lies below its upper end
    p = pr.multiply([F(-1), F(2**100 + 1)], [F(-1), F(2)])
    assert pr.cauchy_bound(p) == 2
    assert [r.value for r in _same_as_reference(p)] == [F(1, 2**100 + 1), F(1, 2)]


def test_rational_roots_with_large_denominators_are_exact():
    # a root p/q with terms of up to 40 digits, times an integer polynomial
    # with irrational or rational positive roots of its own
    rng = random.Random(409)
    for _ in range(60):
        root = F(rng.randint(1, 10 ** rng.randint(1, 40)), rng.randint(1, 10 ** rng.randint(1, 40)))
        cofactor = [F(rng.randint(-10**6, 10**6)) for _ in range(rng.randint(1, 4))]
        cofactor.append(F(rng.randint(1, 10**6)))
        p = pr.multiply([-root.numerator, root.denominator], cofactor)
        got = _same_as_reference(p)
        assert root in {r.value for r in got}, root
        assert all(r.value is not None or F(1, 2 * 10**30) < r.hi - r.lo <= F(1, 10**30) for r in got)


def test_gauss_candidate_outside_the_interval_is_not_reported():
    # (3x - 1)(7x^2 - 1) has lead 21 and roots 1/3 = 7/21 < 1/sqrt(7) < 8/21:
    # the interval of 1/sqrt(7) holds no m / 21, and floor(21 hi) / 21 is
    # the root 1/3 just below it
    p = pr.multiply([F(-1), F(3)], [F(-1), F(0), F(7)])
    (factor, _), = pr.square_free_decomposition(p)
    assert pr._isolate_positive(pr.sturm_sequence(factor)).roots == []
    r, s = _same_as_reference(p)
    assert r.value == F(1, 3)
    assert s.value is None and s.lo**2 < F(1, 7) < s.hi**2


def test_integer_pipeline_matches_reference_on_ray_polynomials():
    rng = random.Random(407)
    found = 0
    for _ in range(24):
        g = random_connected_graph(
            rng, n_min=5, n_max=11, extra_max=10, red_choices=range(1, 11), num_max=99, den_max=9
        )
        p = crossing_polynomial(g)
        alpha = [F(rng.randint(1, 9), rng.randint(1, 5)) for _ in range(g.red_count)]
        found += len(_same_as_reference(ray_polynomial(p, alpha)))
    assert found >= 24



# ---------------------------------------------------------------------------
# Quadratic interval refinement: the work per root


def _refinement_evaluations(p, monkeypatch):
    """Residual sign evaluations spent refining each isolating interval of
    the square-free p to the 1e-30 report width, and the irrational roots
    found there."""
    (factor, _), = pr.square_free_decomposition(p)
    iso = pr._isolate_positive(pr.sturm_sequence(factor))
    counts = []
    for lo, hi, k in iso.intervals:
        calls = []
        value = pr._dyadic_value
        monkeypatch.setattr(pr, "_dyadic_value", lambda *args: calls.append(1) or value(*args))
        lo, hi, k = pr._refine(iso, lo, hi, k, pr._WIDTH)
        monkeypatch.undo()
        assert lo < hi and iso.at(hi, k) - iso.at(lo, k) <= pr._WIDTH
        counts.append(len(calls))
    return counts


def test_refinement_takes_few_sign_evaluations_per_root(monkeypatch):
    # one bisection step per bit would take about 102 evaluations for
    # sqrt(3/2), with Cauchy bound 5/2, and about 110 for the ray roots
    (count,) = _refinement_evaluations([F(-3), F(0), F(2)], monkeypatch)
    assert count <= 40
    rng = random.Random(59)
    g = random_connected_graph(
        rng, n_min=9, n_max=12, extra_max=12, red_choices=range(8, 14), num_max=10**4, den_max=99
    )
    alpha = [F(rng.randint(1, 99), rng.randint(1, 20)) for _ in range(g.red_count)]
    q = graph_ray_polynomial(g, alpha)
    assert len(q) == 9 and max(len(str(abs(c))) for c in pr._primitive(q)) >= 40
    counts = _refinement_evaluations(q, monkeypatch)
    assert len(counts) == 8 and max(counts) <= 40
    assert _same_as_reference(q) and all(r.value is None for r in pr.positive_roots(q))


def test_integer_pipeline_matches_reference_on_200_digit_coefficients():
    # 200-digit leads: every irrational root is refined past 1e-30 down to
    # 1 / lead, about 660 more bits, for its rational candidate
    rng = random.Random(6)
    found = 0
    for _ in range(10):
        p = [F(rng.randint(-10**200, 10**200)) for _ in range(rng.randint(3, 11))]
        found += len(_same_as_reference(p))
    p = pr.multiply([F(-(10**199 + 7)), F(3 * 10**199 + 1)], [F(-2), F(0), F(10**200 + 3)])
    roots = _same_as_reference(p)
    assert [r.value for r in roots if r.value is not None] == [F(10**199 + 7, 3 * 10**199 + 1)]
    assert found + len(roots) >= 10
