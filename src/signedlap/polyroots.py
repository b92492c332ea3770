"""Exact univariate polynomial arithmetic and positive real root isolation.

Polynomials are dense coefficient lists, lowest degree first: Fractions in
the division-based helpers, Python ints once made primitive (``_primitive``,
Sturm sequences, square-free factors).  The driver ``positive_roots``
returns every positive real root with its multiplicity: multiplicities via
Yun's square-free decomposition, isolation via Sturm sequences, refinement
by exact bisection.  Rational roots are always reported exactly: by Gauss's
lemma a rational root of an integer polynomial is m / lead for an integer m,
so an isolating interval at most 1 / lead wide has a single rational
candidate, which is verified exactly.  Irrational roots come as intervals of
width at most 1e-30.

Isolation and refinement run on integers only.  A square-free factor h and
its Sturm sequence are rescaled to s = x / B, B the Cauchy bound, so that
every bisection point is a dyadic j / 2^k in [0, 1] and the sign of h there
is the sign of the homogenised Horner value sum_i c_i j^i 2^(k (deg - i)).
The rational candidate m / lead is tested the same way, by
sum_i c_i m^i lead^(deg - i).
Fractions are built only for the reported roots and interval ends.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .errors import InputError

Poly = list[Fraction]
IntPoly = list[int]

_WIDTH = Fraction(1, 10**30)


def strip(p) -> Poly:
    p = [Fraction(c) for c in p]
    while p and p[-1] == 0:
        p.pop()
    return p


def degree(p: Poly) -> int:
    """Degree of a stripped polynomial; -1 for the zero polynomial."""
    return len(p) - 1


def evaluate(p: Poly, x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def derivative(p: Poly) -> Poly:
    return [c * k for k, c in enumerate(p)][1:]


def multiply(p: Poly, q: Poly) -> Poly:
    if not p or not q:
        return []
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a == 0:
            continue
        for j, b in enumerate(q):
            out[i + j] += a * b
    return strip(out)


def divmod_exact(p: Poly, q: Poly) -> tuple[Poly, Poly]:
    """Polynomial division with remainder over the rationals (int or
    Fraction coefficients in, Fractions out)."""
    if not q:
        raise ZeroDivisionError("polynomial division by zero")
    rem = [Fraction(c) for c in p]
    quo = [Fraction(0)] * max(0, len(p) - len(q) + 1)
    dq = len(q) - 1
    lead = q[-1]
    for k in range(len(rem) - 1, dq - 1, -1):
        c = rem[k] / lead
        if c == 0:
            continue
        quo[k - dq] = c
        for j in range(dq + 1):
            rem[k - dq + j] -= c * q[j]
    return strip(quo), strip(rem)


def _primitive_keep_sign(p: Poly) -> IntPoly:
    """Scale by a positive rational to integer, content-free coefficients.

    Positive scaling only, so sign patterns (and Sturm variation counts) are
    preserved exactly."""
    p = strip(p)
    if not p:
        return []
    mult = lcm(*(c.denominator for c in p))
    ints = [c.numerator * (mult // c.denominator) for c in p]
    g = 0
    for c in ints:
        g = gcd(g, abs(c))
    return [c // g for c in ints]


def _primitive(p: Poly) -> IntPoly:
    """Like _primitive_keep_sign but also forces a positive leading
    coefficient (canonical form for gcds and square-free factors)."""
    p = _primitive_keep_sign(p)
    if p and p[-1] < 0:
        p = [-c for c in p]
    return p


def poly_gcd(p: Poly, q: Poly) -> Poly:
    """Primitive gcd via the Euclidean algorithm (remainders kept primitive)."""
    a, b = _primitive(p), _primitive(q)
    while b:
        _, r = divmod_exact(a, b)
        a, b = b, _primitive(r)
    return a


def square_free_decomposition(p: Poly) -> list[tuple[Poly, int]]:
    """Yun's algorithm: [(factor, multiplicity), ...] with square-free,
    pairwise-coprime factors (constant factors dropped)."""
    p = strip(p)
    if degree(p) < 1:
        return []
    dp = derivative(p)
    a0 = poly_gcd(p, dp)
    b, _ = divmod_exact(p, a0)
    c, _ = divmod_exact(dp, a0)
    d = [x - y for x, y in _padded(c, derivative(b))]
    out: list[tuple[Poly, int]] = []
    i = 1
    while degree(b) > 0:
        ai = poly_gcd(b, strip(d))
        if degree(ai) > 0:
            out.append((_primitive(ai), i))
        b, _ = divmod_exact(b, ai)
        cnext, _ = divmod_exact(strip(d), ai)
        d = [x - y for x, y in _padded(cnext, derivative(b))]
        i += 1
    return out


def _padded(p: Poly, q: Poly):
    n = max(len(p), len(q))
    p = p + [Fraction(0)] * (n - len(p))
    q = q + [Fraction(0)] * (n - len(q))
    return zip(p, q)


# ---------------------------------------------------------------------------
# Sturm sequences


def sturm_sequence(p: Poly) -> list[IntPoly]:
    seq = [_primitive_keep_sign(p), _primitive_keep_sign(derivative(p))]
    while seq[-1]:
        _, r = divmod_exact(seq[-2], seq[-1])
        r = _primitive_keep_sign(r)
        if not r:
            break
        seq.append([-c for c in r])
    return [s for s in seq if s]


def _sign_changes(values) -> int:
    """Sign changes along a sequence of numbers, zeros skipped."""
    changes = 0
    last = 0
    for v in values:
        if v:
            if last and (v > 0) != (last > 0):
                changes += 1
            last = v
    return changes


def _homogeneous_value(h: Poly, a: int, b: int):
    """sum_i h_i a^i b^(deg - i) = b^deg * h(a/b), an int for integer
    coefficients: for b > 0 it has the sign of h(a/b)."""
    acc = 0
    power = 1
    for c in reversed(h):
        acc = acc * a + c * power
        power *= b
    return acc


def _dyadic_value(h: IntPoly, j: int, k: int) -> int:
    """2^(k deg) * h(j / 2^k): ``_homogeneous_value`` at b = 2^k, with
    shifts in place of the multiplications by powers of b (the bisection's
    hot loop)."""
    acc = 0
    shift = 0
    for c in reversed(h):
        acc = acc * j + (c << shift)
        shift += k
    return acc


def _variations_at(seq: list[Poly], x: Fraction) -> int:
    x = Fraction(x)
    return _sign_changes(_homogeneous_value(s, x.numerator, x.denominator) for s in seq)


def count_roots_halfopen(seq: list[Poly], lo: Fraction, hi: Fraction) -> int:
    """Number of distinct real roots in (lo, hi] for a square-free polynomial."""
    return _variations_at(seq, lo) - _variations_at(seq, hi)


def cauchy_bound(p: Poly) -> Fraction:
    p = strip(p)
    lead = abs(p[-1])
    return 1 + max(abs(c) for c in p) / lead


@dataclass(frozen=True)
class RootRecord:
    """One positive real root.

    value is the exact Fraction when the root is rational (always found,
    whatever its denominator), else None with (lo, hi) an isolating interval
    of width <= 1e-30 (``_WIDTH``).
    midpoint is a float convenience view.
    """

    value: Fraction | None
    lo: Fraction
    hi: Fraction
    multiplicity: int

    @property
    def midpoint(self) -> float:
        if self.value is not None:
            return float(self.value)
        return float((self.lo + self.hi) / 2)


def _rescaled(h: IntPoly, bn: int, bd: int) -> IntPoly:
    """bd^deg * h(s * bn/bd), whose sign at s is that of h at x = s * bn/bd."""
    n = len(h) - 1
    return [c * bn**i * bd ** (n - i) for i, c in enumerate(h)]


def _deflate(h: IntPoly, a: int, b: int) -> IntPoly:
    """h / (b x - a) for a root a/b of h in lowest terms (exact over the
    integers by Gauss's lemma): q_(i-1) = (h_i + a q_i) / b from the top."""
    quo = [0] * (len(h) - 1)
    carry = 0
    for i in range(len(h) - 1, 0, -1):
        carry = (h[i] + a * carry) // b
        quo[i - 1] = carry
    return quo


@dataclass(frozen=True)
class _Isolation:
    """Isolating intervals of one square-free factor.

    ``residual`` is the factor with the exact ``roots`` (midpoint hits)
    divided out, and ``scaled`` its rescaling to s = x / bound with bound =
    bn/bd.  An interval (lo, hi, k) is s in (lo/2^k, hi/2^k]; it holds
    exactly one root of the residual and none at either end.
    """

    residual: IntPoly
    roots: list[Fraction]
    bn: int
    bd: int
    scaled: IntPoly
    intervals: list[tuple[int, int, int]]

    def at(self, j: int, k: int) -> Fraction:
        """x = bound * j / 2^k."""
        return Fraction(self.bn * j, self.bd << k)


def _isolate_positive(h: Poly) -> _Isolation:
    """Isolating intervals for the positive roots of a square-free h.

    Bisects (0, bound] with Sturm counts.  A midpoint that is a root is
    deflated out exactly and the isolation restarts on the quotient.
    """
    h = _primitive(h)
    exact: list[Fraction] = []
    while True:
        if len(h) < 2:
            return _Isolation(h, exact, 1, 1, h, [])
        bound = cauchy_bound(h)
        bn, bd = bound.numerator, bound.denominator
        # h is primitive with a positive lead, so the sequence starts with h
        seq = [_rescaled(s, bn, bd) for s in sturm_sequence(h)]
        scaled = seq[0]

        def variations(j: int, k: int) -> int:
            return _sign_changes(_dyadic_value(s, j, k) for s in seq)

        intervals: list[tuple[int, int, int]] = []
        # (lo, hi, k, sign variations at lo, at hi)
        stack = [(0, 1, 0, variations(0, 0), variations(1, 0))]
        while stack:
            lo, hi, k, vlo, vhi = stack.pop()
            if vlo - vhi == 0:
                continue
            if vlo - vhi == 1:
                intervals.append((lo, hi, k))
                continue
            lo, mid, hi, k = 2 * lo, lo + hi, 2 * hi, k + 1
            if _dyadic_value(scaled, mid, k) == 0:
                root = Fraction(bn * mid, bd << k)
                exact.append(root)
                h = _primitive(_deflate(h, root.numerator, root.denominator))
                break
            vmid = variations(mid, k)
            stack.append((lo, mid, k, vlo, vmid))
            stack.append((mid, hi, k, vmid, vhi))
        else:
            return _Isolation(h, exact, bn, bd, scaled, intervals)


def _refine(iso: _Isolation, lo: int, hi: int, k: int, width: Fraction) -> tuple[int, int, int]:
    """Shrink an isolating interval by sign bisection until bound * (hi -
    lo) / 2^k <= width, an integer comparison.

    The residual has opposite signs at the two ends on entry (single root,
    no endpoint roots); an exact midpoint hit collapses the interval.
    """
    wn, wd = width.numerator, width.denominator
    lo_positive = _dyadic_value(iso.scaled, lo, k) > 0
    while iso.bn * (hi - lo) * wd > (iso.bd << k) * wn:
        lo, mid, hi, k = 2 * lo, lo + hi, 2 * hi, k + 1
        v = _dyadic_value(iso.scaled, mid, k)
        if v == 0:
            return mid, mid, k
        if (v > 0) == lo_positive:
            lo = mid
        else:
            hi = mid
    return lo, hi, k


def _root_record(iso: _Isolation, lo: int, hi: int, k: int, mult: int) -> RootRecord:
    """Refine one isolating interval to the 1e-30 report width, then test
    its one rational candidate exactly; an irrational root keeps the
    reported interval.

    A rational root of the integer residual has a denominator dividing the
    leading coefficient (Gauss's lemma), so it is m / lead for an integer m.
    Once the interval (lo, hi] is at most 1 / lead wide it holds at most one
    such point, and only m = floor(lead * hi) can be it; the check m / lead >
    lo keeps a rational root outside the interval from being reported.
    """
    lo, hi, k = _refine(iso, lo, hi, k, _WIDTH)
    report = iso.at(lo, k), iso.at(hi, k)
    lead = iso.residual[-1]
    lo, hi, k = _refine(iso, lo, hi, k, Fraction(1, lead))
    if lo == hi:
        x = iso.at(lo, k)
        return RootRecord(x, x, x, mult)
    den = iso.bd << k
    m = lead * iso.bn * hi // den
    if m * den > lead * iso.bn * lo and _homogeneous_value(iso.residual, m, lead) == 0:
        x = Fraction(m, lead)
        return RootRecord(x, x, x, mult)
    return RootRecord(None, *report, mult)


def positive_roots(p) -> list[RootRecord]:
    """All positive real roots of p with multiplicities, sorted ascending."""
    p = strip(p)
    if not p:
        raise InputError("zero polynomial has no well-defined root set")
    while p and p[0] == 0:  # roots at 0 are not positive roots
        p = p[1:]
    records: list[RootRecord] = []
    for factor, mult in square_free_decomposition(p):
        iso = _isolate_positive(factor)
        records += [RootRecord(r, r, r, mult) for r in iso.roots]
        records += [_root_record(iso, lo, hi, k, mult) for lo, hi, k in iso.intervals]
    records.sort(key=lambda r: r.value if r.value is not None else (r.lo + r.hi) / 2)
    return records
