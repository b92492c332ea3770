"""The multilinear crossing polynomial in the red-edge magnitudes.

For a graph with R red edges the polynomial is

    M(t) = sum over I subseteq {0..R-1} of (-1)^|I| * A_I * prod_{i in I} t_i

with every A_I a nonnegative rational: A_I is the black-weight spanning-tree
sum of the minor that contracts the red edges in I and deletes the rest.  The
zero set of M is exactly where the Laplacian picks up an extra zero
eigenvalue, so positive roots along rays are eigenvalue crossings.

All A_I are principal minors of one bordered matrix H = [[Q, B], [B^T, 0]]
(Q the grounded black Laplacian, B the red incidence columns), reads of the
transfer-current matrix K = B^T adj(Q) B that one fraction-free
elimination leaves (``spectral._transfer_current``).
``crossing_polynomial`` takes every A_I from a depth-first subset
recursion over K (``spectral._principal_minors``): one fraction-free
Schur update per forest subset, no determinant, and no visit to a
superset of a cyclic red set.  With a disconnected black subgraph
(A_empty = 0) ``_transfer_current`` reads K off Q_k in closed form, each
other component joined to vertex 0 by a black edge of weight k: the
recursion runs at k = 1..c(G+) and every A_I is the constant term in k.

Along a ray t*alpha no coefficient is needed: by the matrix-tree theorem
M(t*alpha) is the determinant of the grounded signed Laplacian, a
polynomial in t of degree exactly N - c(G-).  ``graph_ray_polynomial``
takes the block of ``spectral._touched_block``, which the spectral index
is read off too: one elimination of the vertices off the red edges, then
the red Laplacian added over the at most min(N - 1, 2R) rows left.  It
evaluates the determinant at t = 0..N - c(G-) in integers from that block
and interpolates exactly.  So
``graph_ray_crossings`` costs one elimination plus N - c(G-) + 1 small
determinants instead of 2^R minors.  ``crossing_polynomial`` with
``ray_polynomial`` is the 2^R route, kept for ``coeffs`` and as the test
oracle; ``evaluate`` and ``ray_polynomial`` read one table of signed
monomials (``_monomials``).  ``polyroots`` is imported on first use, by
``ray_polynomial`` and the root isolation of the ray crossings, so
``coeffs`` runs without it; the ``RayCrossings`` annotation names it
through the package, which imports it when the annotation is evaluated.

Bitmask convention: bit k of a coefficient index corresponds to red edge k
(0-based); serialized binary strings put red edge 0 leftmost.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial
from typing import NamedTuple, Sequence

import signedlap  # the package resolves ``signedlap.polyroots`` on first use

from .errors import InputError, InternalConsistencyError
from .graph import SignedWeightedGraph, _Frozen, _is_int, _rationals, _strings, component_counts, is_connected
from .spectral import _pivots, _principal_minors, _touched_block, _transfer_current

MAX_RED_DEFAULT = 20


class CrossingPolynomial(_Frozen):
    """Coefficients A_I by bitmask, 2^R read by ``graph._rationals`` for an
    int R >= 0 (not a bool); evaluation applies the (-1)^|I| signs."""

    _fields = ("red_count", "coeffs")
    red_count: int
    coeffs: tuple[Fraction, ...]

    def __init__(self, red_count: int, coeffs: Sequence[Fraction]):
        if not _is_int(red_count) or red_count < 0:
            raise InputError(f"red count must be a nonnegative integer, got {red_count!r}")
        coeffs = _rationals(coeffs, "coefficients")
        if red_count >= 64 or len(coeffs) != 1 << red_count:  # no tuple holds 2^64 items
            need = 1 << red_count if red_count < 64 else f"2^{red_count}"
            raise InputError(f"need {need} coefficients for {red_count} red edges")
        vars(self).update(red_count=red_count, coeffs=coeffs)

    def evaluate(self, t: Sequence[Fraction]) -> Fraction:
        """Exact value of M at rationals t of any sign: M is a polynomial,
        so unlike the Laplacian routes it takes negative t too."""
        if len(t) != self.red_count:
            raise InputError(f"expected {self.red_count} magnitudes, got {len(t)}")
        t = _rationals(t, "magnitudes")
        return sum((a * x for a, x in zip(self.coeffs, _monomials(t)) if a), Fraction(0))

    def to_json_dict(self) -> dict[str, str]:
        """{``mask_to_bits(mask, R)``: str(A_mask)} in mask order (``graph._strings``)."""
        keys = [""]
        for _ in range(self.red_count):  # masks with bit k set follow those without
            keys = [k + "0" for k in keys] + [k + "1" for k in keys]
        return dict(zip(keys, _strings(self.coeffs)))

    @classmethod
    def from_json_dict(cls, d: dict[str, str]) -> "CrossingPolynomial":
        if not d:
            raise InputError("empty coefficient mapping")
        r = len(next(iter(d)))
        if len(d) != 1 << r or any(len(k) != r for k in d):
            raise InputError("coefficient mapping must cover every length-R bitmask")
        coeffs = [None] * (1 << r)
        for key, val in d.items():
            coeffs[bits_to_mask(key)] = val
        return cls(r, coeffs)


def _monomials(x: Sequence[Fraction]) -> list[Fraction]:
    """(-1)^|I| * prod_{i in I} x_i for every mask I, by doubling: the masks
    with bit k set follow those without."""
    out = [Fraction(1)]
    for xi in x:
        out += [-p * xi for p in out]
    return out


def mask_to_bits(mask: int, r: int) -> str:
    """Bitmask to binary string, red edge 0 leftmost."""
    return "".join("1" if mask >> k & 1 else "0" for k in range(r))


def bits_to_mask(bits: str) -> int:
    mask = 0
    for k, ch in enumerate(bits):
        if ch == "1":
            mask |= 1 << k
        elif ch != "0":
            raise InputError(f"bad bitmask string {bits!r}")
    return mask


def crossing_polynomial(g: SignedWeightedGraph) -> CrossingPolynomial:
    """All 2^R coefficients from one bordered elimination.  Rejects
    R > MAX_RED_DEFAULT (2^R blow-up guard).

    The black weights are scaled to integers by the lcm L of their
    denominators, and ``_principal_minors`` reads every A_I * L^(N-1-|I|)
    off the transfer-current matrix K (``_transfer_current``) in one
    subset recursion of fraction-free Schur updates that never visits a
    superset of a cyclic red set; with A_empty = 0, one recursion per
    bridging weight.  A negative A_I is a fault (``require_nonnegative``,
    lowest mask first).
    """
    reds = [(u, v) for u, v, _ in g.red_edges]
    r = len(reds)
    if r > MAX_RED_DEFAULT:
        raise InputError(f"{r} red edges exceeds the 2^R guard (max_red={MAX_RED_DEFAULT})")
    scale, black = g._black_ints
    values = _transfer_current(g.n, black, reds, _principal_minors)
    powers = [scale ** (g.n - 1 - k) for k in range(g.n)]
    zero = Fraction(0)
    coeffs = []
    for mask, x in enumerate(values):
        if not x:
            coeffs.append(zero)
            continue
        a = Fraction(x, powers[mask.bit_count()])
        if x < 0:
            require_nonnegative(a, mask)
        coeffs.append(a)
    return CrossingPolynomial(r, coeffs)


def require_nonnegative(a: Fraction, mask: int):
    """Every A_I is a sum of positive tree weights; a negative one is a fault."""
    if a < 0:
        raise InternalConsistencyError(
            f"negative tree-sum coefficient {a} at mask {mask} (positive black weights)"
        )


def degree_support(p: CrossingPolynomial, g: SignedWeightedGraph) -> tuple[int, int]:
    """Verify nonzero terms occur exactly for degrees c(G+)-1 .. N-c(G-).

    Returns (k_min, k_max).  A violation is an implementation fault, not bad
    input, and raises InternalConsistencyError.
    """
    if p.red_count != g.red_count:
        raise InputError(f"polynomial red count {p.red_count} != graph red count {g.red_count}")
    if not is_connected(g):
        raise InputError("degree bounds require a connected graph")
    _, c_plus, c_minus = component_counts(g)
    expect_lo = c_plus - 1
    expect_hi = g.n - c_minus
    present = {mask.bit_count() for mask, a in enumerate(p.coeffs) if a}
    if present != set(range(expect_lo, expect_hi + 1)):
        raise InternalConsistencyError(
            f"degree support {sorted(present)} != expected range [{expect_lo}, {expect_hi}]"
        )
    return expect_lo, expect_hi


def _ray_direction(r: int, alpha: Sequence[Fraction]) -> tuple[Fraction, ...]:
    """``alpha`` as a ray over r red edges: r finite rationals, each > 0."""
    if len(alpha) != r:
        raise InputError(f"expected {r} ray components, got {len(alpha)}")
    alpha = _rationals(alpha, "ray components")
    if any(a <= 0 for a in alpha):
        raise InputError("ray direction must be strictly positive componentwise")
    return alpha


def ray_polynomial(p: CrossingPolynomial, alpha: Sequence[Fraction]) -> list[Fraction]:
    """Restriction of M to the ray t*alpha, as a univariate polynomial in t
    (dense rational coefficients, lowest degree first), from all 2^R
    coefficients."""
    from . import polyroots

    alpha = _ray_direction(p.red_count, alpha)
    out = [Fraction(0)] * (p.red_count + 1)
    for mask, (a, x) in enumerate(zip(p.coeffs, _monomials(alpha))):
        if a:
            out[mask.bit_count()] += a * x
    return polyroots.strip(out)


class RayCrossings(NamedTuple):
    """Positive roots of the ray polynomial, ascending, with multiplicities,
    and the ray polynomial itself (lowest degree first)."""

    alpha: tuple[Fraction, ...]
    roots: tuple[signedlap.polyroots.RootRecord, ...]
    polynomial: tuple[Fraction, ...]


def graph_ray_polynomial(g: SignedWeightedGraph, alpha: Sequence[Fraction]) -> list[Fraction]:
    """M(t*alpha) straight from the graph, equal to
    ``ray_polynomial(crossing_polynomial(g), alpha)`` at any R.

    ``spectral._touched_block`` of alpha gives the block that an
    elimination of the grounded signed Laplacian leaves over T, the vertices
    other than 0 that a red edge touches: S - s * R at magnitudes s * alpha,
    prev times a Schur complement, with L the lcm of the black-weight and
    alpha denominators.  ``_pivots`` resumed from prev finishes the same
    symmetric elimination over at most |T| <= min(N - 1, 2R) rows, so its
    last pivot is P(s) = L^(N-1) * M(s*alpha), or 0 when it drops a zero
    row.

    P has degree d = N - c(G-) <= R.  It is evaluated at s = 0..d; its
    forward differences at 0 are its integer coefficients in the binomial
    basis C(s, k), which Horner's rule over s - k turns into d! * P in the
    monomial basis.  Dividing by d! * L^(N-1) gives M.

    Every A_I is >= 0 and alpha > 0, so the coefficient c_k of t^k satisfies
    (-1)^k c_k > 0 exactly for c(G+) - 1 <= k <= d (``degree_support`` on
    the ray); a violation raises InternalConsistencyError.
    """
    c_all, c_plus, c_minus = component_counts(g)
    if c_all != 1:
        raise InputError("the ray polynomial requires a connected graph")
    alpha = _ray_direction(g.red_count, alpha)
    upper, red, prev, scale, _ = _touched_block(g, alpha)  # connected: nothing dropped
    d = g.n - c_minus
    values = []
    for s in range(d + 1):
        pivots, nullity = _pivots([[x - s * y for x, y in zip(rb, rr)] for rb, rr in zip(upper, red)], prev)
        values.append(0 if nullity else pivots[-1] if pivots else prev)
    diffs = []
    for _ in range(d + 1):
        diffs.append(values[0])
        values = [b - a for a, b in zip(values, values[1:])]
    poly = [diffs[d]]
    for k in range(d - 1, -1, -1):  # poly <- poly * (s - k) + diffs[k] * d! / k!
        poly = [-k * poly[0]] + [a - k * b for a, b in zip(poly, poly[1:])] + [poly[-1]]
        poly[0] += diffs[k] * (factorial(d) // factorial(k))
    den = factorial(d) * scale ** (g.n - 1)
    q = [Fraction(c, den) for c in poly]
    for k, c in enumerate(q):
        if (c * (-1) ** k > 0) != (c_plus - 1 <= k):
            raise InternalConsistencyError(
                f"ray polynomial coefficient {c} of t^{k} breaks the sign and degree contract: "
                f"expected (-1)^k c_k > 0 exactly for {c_plus - 1} <= k <= {d}"
            )
    return q


def _crossings(q: list[Fraction], alpha: Sequence[Fraction]) -> RayCrossings:
    from . import polyroots

    roots = polyroots.positive_roots(q)  # a zero q is an InputError there
    return RayCrossings(tuple(Fraction(a) for a in alpha), tuple(roots), tuple(q))


def ray_crossings(p: CrossingPolynomial, alpha: Sequence[Fraction]) -> RayCrossings:
    """Eigenvalue-crossing locations along the ray t*alpha.

    Exact pipeline in integer arithmetic (``polyroots.positive_roots``): one
    primitive remainder sequence gives the Sturm sequence and, from its last
    term, the multiplicities; Sturm isolation and quadratic interval
    refinement find the roots.  Rational roots are reported exactly,
    irrational ones as isolating intervals of width at most 1e-30.
    """
    return _crossings(ray_polynomial(p, alpha), alpha)


def graph_ray_crossings(g: SignedWeightedGraph, alpha: Sequence[Fraction]) -> RayCrossings:
    """``ray_crossings`` of ``g``'s crossing polynomial, from
    ``graph_ray_polynomial``: no 2^R coefficients, no bound on R."""
    q = graph_ray_polynomial(g, alpha)
    if not q:
        raise InternalConsistencyError("ray polynomial is identically zero")
    return _crossings(q, alpha)
