"""Exact univariate polynomial arithmetic and positive real root isolation.

Polynomials are dense coefficient lists, lowest degree first: Fractions on
input, Python ints once made primitive (``_primitive``, Sturm sequences,
square-free factors).  The driver ``positive_roots`` returns every positive
real root with its multiplicity, and after the first scaling to integers it
runs on Python ints only.

One primitive remainder sequence (Collins; Brown and Traub) carries both the
multiplicities and the isolation.  ``_remainders`` divides by integer
pseudo-division, with the divisor made positive-leading so that each
pseudo-remainder is a positive multiple of the rational remainder, and
divides every term by its content.  Started from p and p', it is p's Sturm
sequence, term for term a positive multiple of the rational one, and its
last term is gcd(p, p') up to a constant.  When that term is a constant, p
is square-free and the one sequence isolates its roots; otherwise Yun's
square-free decomposition runs on the same integer gcds and exact integer
quotients.

A square-free factor h and its Sturm sequence are rescaled to s = x / B, B
the Cauchy bound, so that every grid point is a dyadic j / 2^k in [0, 1]
and the sign of h there is the sign of the homogenised Horner value
sum_i c_i j^i 2^(k (deg - i)).  Isolation bisects (0, 1] with Sturm counts.
Refinement is quadratic interval refinement (QIR; Abbott, "Quadratic
Interval Refinement for Real Roots", ACM CCA 2014) on the same grid: it
guesses the piece of the secant's zero among 2^m pieces of the interval and
certifies it by two signs, so the number of correct bits about doubles per
step near the root.  It returns the grid cell that bisection would, the one
holding the root at the first level narrow enough.

Rational roots are always reported exactly: by Gauss's lemma a rational
root of an integer polynomial is m / lead for an integer m, so an isolating
interval at most 1 / lead wide has a single rational candidate, tested by
sum_i c_i m^i lead^(deg - i).  Irrational roots come as intervals of width
at most 1e-30.  Fractions are built only for the reported roots and
interval ends.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import NamedTuple

from .errors import InputError
from .graph import _rationals

Poly = list[Fraction]
IntPoly = list[int]

_WIDTH = Fraction(1, 10**30)


def strip(p) -> Poly:
    p = [Fraction(c) for c in p]
    while p and p[-1] == 0:
        p.pop()
    return p


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


def _content_free(p: IntPoly) -> IntPoly:
    """p divided by the gcd of its coefficients (a positive number)."""
    g = gcd(*p)
    return [c // g for c in p] if g > 1 else p


def _primitive_keep_sign(p) -> IntPoly:
    """Scale by a positive rational to integer, content-free coefficients.

    Positive scaling only, so sign patterns (and Sturm variation counts) are
    preserved exactly."""
    p = strip(p)
    if not p:
        return []
    mult = lcm(*(c.denominator for c in p))
    return _content_free([c.numerator * (mult // c.denominator) for c in p])


def _positive_lead(p: IntPoly) -> IntPoly:
    return [-c for c in p] if p and p[-1] < 0 else p


def _primitive(p) -> IntPoly:
    """Like _primitive_keep_sign but also forces a positive leading
    coefficient (canonical form for gcds and square-free factors)."""
    return _positive_lead(_primitive_keep_sign(p))


# ---------------------------------------------------------------------------
# Integer remainder sequences, Sturm sequences and Yun's decomposition


def _pseudo_remainder(a: IntPoly, b: IntPoly) -> IntPoly:
    """lead^s * (a mod b) for some s >= 0, lead = |b's leading coefficient|:
    long division of a by the positive-leading one of +-b, scaling the
    partial remainder by lead before each elimination, never dividing.
    a mod -b = a mod b, so this is a positive multiple of the remainder."""
    b = _positive_lead(b)
    lead, db = b[-1], len(b) - 1
    r = list(a)
    for k in range(len(r) - 1, db - 1, -1):
        c = r.pop()  # the coefficient of x^k, cancelled by c * x^(k-db) * b
        if c:
            r = [x * lead for x in r]
            for j in range(db):
                r[k - db + j] -= c * b[j]
    while r and r[-1] == 0:
        r.pop()
    return r


def _remainders(a: IntPoly, b: IntPoly) -> list[IntPoly]:
    """a, b, then minus the remainder of each term by the next, each made
    content-free, until a remainder is zero.

    Every term is a positive multiple of the one the rational Euclidean
    algorithm gives, so for b = a' this is a's Sturm sequence, and in any
    case the last term is gcd(a, b) up to a constant."""
    seq = [a]
    while b:
        seq.append(b)
        a, b = b, [-c for c in _content_free(_pseudo_remainder(a, b))]
    return seq


def _gcd(a: IntPoly, b: IntPoly) -> IntPoly:
    """The primitive, positive-leading gcd of two integer polynomials."""
    return _positive_lead(_content_free(_remainders(a, b)[-1]))


def _quotient(a: IntPoly, b: IntPoly) -> IntPoly:
    """a / b for integer polynomials with an integer quotient (b primitive
    and dividing a, by Gauss's lemma): every step divides exactly."""
    r = list(a)
    lead, db = b[-1], len(b) - 1
    q = [0] * max(0, len(a) - db)
    for k in range(len(r) - 1, db - 1, -1):
        c = r[k] // lead
        q[k - db] = c
        if c:
            for j in range(db + 1):
                r[k - db + j] -= c * b[j]
    return q


def _difference(p: IntPoly, q: IntPoly) -> IntPoly:
    n = max(len(p), len(q))
    out = [x - y for x, y in zip(p + [0] * (n - len(p)), q + [0] * (n - len(q)))]
    while out and out[-1] == 0:
        out.pop()
    return out


def square_free_decomposition(p) -> list[tuple[IntPoly, int]]:
    """Yun's algorithm over the integers: [(factor, multiplicity), ...] with
    square-free, pairwise-coprime factors, each primitive with a positive
    lead (constant factors dropped).

    The gcds are ``_gcd`` (the last term of a remainder sequence) and every
    division is exact, so the factors are integer polynomials throughout.
    """
    a = _primitive(p)
    if len(a) < 2:
        return []
    da = derivative(a)
    g = _gcd(a, da)
    b, c = _quotient(a, g), _quotient(da, g)
    out: list[tuple[IntPoly, int]] = []
    i = 1
    while len(b) > 1:
        d = _difference(c, derivative(b))
        ai = _gcd(b, d)
        if len(ai) > 1:
            out.append((ai, i))
        b, c = _quotient(b, ai), _quotient(d, ai)
        i += 1
    return out


def sturm_sequence(p) -> list[IntPoly]:
    """p, p' and the negated remainders, each scaled by a positive rational
    to content-free integers (``_remainders``)."""
    a = _primitive_keep_sign(p)
    return _remainders(a, _content_free(derivative(a))) if a else []


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
    shifts in place of the multiplications by powers of b (the isolation's
    and refinement's hot loop)."""
    acc = 0
    shift = 0
    for c in reversed(h):
        acc = acc * j + (c << shift)
        shift += k
    return acc


def cauchy_bound(p: Poly) -> Fraction:
    p = strip(p)
    if not p:
        raise InputError("zero polynomial has no Cauchy bound")
    lead = abs(p[-1])
    return 1 + max(abs(c) for c in p) / lead


class RootRecord(NamedTuple):
    """One positive real root.

    value is the exact Fraction when the root is rational (always found,
    whatever its denominator), else None with (lo, hi) an isolating interval
    of width <= 1e-30 (``_WIDTH``).
    midpoint is a float convenience view; a root outside the float range,
    above about 1.8e308 or so small that it rounds to 0.0, is an InputError
    there, as an eigenvalue is.
    """

    value: Fraction | None
    lo: Fraction
    hi: Fraction
    multiplicity: int

    @property
    def midpoint(self) -> float:
        try:
            mid = float(self.value if self.value is not None else (self.lo + self.hi) / 2)
        except OverflowError:
            mid = 0.0  # above the range: rejected with the roots below it
        if not mid:
            raise InputError("a root's midpoint needs the root within the float range (2.5e-324 < x < 1.8e308)")
        return mid


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


class _Isolation(NamedTuple):
    """Isolating intervals of one square-free factor.

    ``residual`` is the factor with the exact ``roots`` (midpoint hits)
    divided out, and ``scaled`` its rescaling to s = x / bound with bound =
    bn/bd.  An interval (lo, hi, k) is s in (lo/2^k, hi/2^k], a grid cell
    (hi = lo + 1); it holds exactly one root of the residual and none at
    either end.
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


def _isolate_positive(seq: list[IntPoly]) -> _Isolation:
    """Isolating intervals for the positive roots of a square-free h, given
    its Sturm sequence ``seq`` (h = seq[0], primitive with a positive lead).

    Bisects (0, bound] with Sturm counts.  A midpoint that is a root is
    deflated out exactly and the isolation restarts on the quotient.
    """
    h = seq[0]
    exact: list[Fraction] = []
    while True:
        if len(h) < 2:
            return _Isolation(h, exact, 1, 1, h, [])
        bound = cauchy_bound(h)
        bn, bd = bound.numerator, bound.denominator
        scaled_seq = [_rescaled(s, bn, bd) for s in seq]
        scaled = scaled_seq[0]

        def variations(j: int, k: int) -> int:
            return _sign_changes(_dyadic_value(s, j, k) for s in scaled_seq)

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
                seq = sturm_sequence(h)
                break
            vmid = variations(mid, k)
            stack.append((lo, mid, k, vlo, vmid))
            stack.append((mid, hi, k, vmid, vhi))
        else:
            return _Isolation(h, exact, bn, bd, scaled, intervals)


def _grid_point(j: int, k: int) -> tuple[int, int, int]:
    """The collapsed interval (j, j, k) of a root at j / 2^k, in lowest terms."""
    zeros = (j & -j).bit_length() - 1
    return j >> zeros, j >> zeros, k - zeros


def _refine(iso: _Isolation, lo: int, hi: int, k: int, width: Fraction) -> tuple[int, int, int]:
    """Shrink the isolating cell (lo, lo + 1) at level k to the cell that
    holds the root at level k*, the first level (not below k) where
    bound / 2^k* <= width; a root at a grid point j / 2^k' with k' <= k*
    comes back collapsed, (j, j, k') in lowest terms.  That is what
    bisection returns.

    QIR on the grid: with the residual's values at the cell's ends, the
    secant's zero is rounded to the nearest of the 2^m + 1 points that cut
    the cell into 2^m pieces at level k + m, and the sign there and at the
    neighbour towards the root certifies a piece, or not.  A hit moves to
    that piece and doubles m; a miss takes one bisection step and halves m.
    m is capped so that no point finer than level k* is ever evaluated: the
    root is strictly inside every cell, so one at a grid point of level at
    most k* is always hit exactly.
    """
    ceil_ratio = -(-iso.bn * width.denominator // (iso.bd * width.numerator))
    target = max(k, (ceil_ratio - 1).bit_length())
    if k == target or lo == hi:
        return lo, hi, k
    h, d = iso.scaled, len(iso.scaled) - 1
    vlo, vhi = _dyadic_value(h, lo, k), _dyadic_value(h, lo + 1, k)
    left = vlo > 0  # the residual's sign left of the root, at every lower end

    def value(x: int) -> int:
        """The value x pieces past lo at the level ``fine`` of this step."""
        if x == 0:
            return vlo << shift
        if x == n:
            return vhi << shift
        return _dyadic_value(h, base + x, fine)

    m = 2
    while k < target:
        step = min(m, target - k)
        n, fine, shift, base = 1 << step, k + step, step * d, lo << step
        num, den = (vlo, vlo - vhi) if left else (-vlo, vhi - vlo)
        i = ((num << (step + 1)) + den) // (den << 1)  # nearest the secant's zero
        vi = value(i)
        if vi == 0:
            return _grid_point(base + i, fine)
        j = i + 1 if (vi > 0) == left else i - 1  # the neighbour towards the root
        vj = value(j)
        if vj == 0:
            return _grid_point(base + j, fine)
        if (vi > 0) != (vj > 0):
            lo, k, vlo, vhi = (base + i, fine, vi, vj) if i < j else (base + j, fine, vj, vi)
            m *= 2
            continue
        m = max(1, m // 2)
        half = n >> 1
        if half in (i, j):
            vmid = (vi if i == half else vj) >> (shift - d)
        else:
            vmid = _dyadic_value(h, 2 * lo + 1, k + 1)
        if vmid == 0:
            return _grid_point(2 * lo + 1, k + 1)
        if (vmid > 0) == left:
            lo, vlo, vhi = 2 * lo + 1, vmid, vhi << d
        else:
            lo, vlo, vhi = 2 * lo, vlo << d, vmid
        k += 1
    return lo, lo + 1, k


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
    """All positive real roots of p with multiplicities, sorted ascending.

    p's Sturm sequence comes first; when its last term, gcd(p, p') up to a
    constant, is a constant, p is square-free and the sequence isolates its
    roots directly.  Otherwise the square-free factors each get their own.
    The coefficients go through ``graph._rationals``: a float, a bool or
    anything else that is not an exact rational is an InputError.
    """
    p = strip(_rationals(p, "polynomial coefficients"))
    if not p:
        raise InputError("zero polynomial has no well-defined root set")
    while p and p[0] == 0:  # roots at 0 are not positive roots
        p = p[1:]
    seq = sturm_sequence(p)
    if len(seq[-1]) == 1:
        sign = 1 if seq[0][-1] > 0 else -1
        factors = [([[sign * c for c in s] for s in seq], 1)]
    else:
        factors = [(sturm_sequence(f), mult) for f, mult in square_free_decomposition(p)]
    records: list[RootRecord] = []
    for factor_seq, mult in factors:
        iso = _isolate_positive(factor_seq)
        records += [RootRecord(r, r, r, mult) for r in iso.roots]
        records += [_root_record(iso, lo, hi, k, mult) for lo, hi, k in iso.intervals]
    records.sort(key=lambda r: r.value if r.value is not None else (r.lo + r.hi) / 2)
    return records
