"""The multilinear crossing polynomial in the red-edge magnitudes.

For a graph with R red edges the polynomial is

    M(t) = sum over I subseteq {0..R-1} of (-1)^|I| * A_I * prod_{i in I} t_i

with every A_I a nonnegative rational: A_I is the black-weight spanning-tree
sum of the minor that contracts the red edges in I and deletes the rest.  The
zero set of M is exactly where the Laplacian picks up an extra zero
eigenvalue, so positive roots along rays are eigenvalue crossings.

All A_I are principal minors of one bordered matrix H = [[Q, B], [B^T, 0]]
(Q the grounded black Laplacian, B the red incidence columns), read off one
fraction-free elimination (``spectral._bordered_minors``).

Bitmask convention: bit k of a coefficient index corresponds to red edge k
(0-based); serialized binary strings put red edge 0 leftmost.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from . import polyroots
from .errors import InputError, InternalConsistencyError
from .graph import SignedWeightedGraph, component_counts, is_connected, pairs_form_forest
from .polyroots import RootRecord
from .spectral import _graph_minors

MAX_RED_DEFAULT = 20


@dataclass(frozen=True)
class CrossingPolynomial:
    """Coefficients A_I by bitmask; evaluation applies the (-1)^|I| signs."""

    red_count: int
    coeffs: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.coeffs) != 1 << self.red_count:
            raise InputError(
                f"need {1 << self.red_count} coefficients for {self.red_count} red edges"
            )

    def coefficient(self, mask: int) -> Fraction:
        return self.coeffs[mask]

    def evaluate(self, t: Sequence[Fraction]) -> Fraction:
        """Exact value of M at nonnegative rational magnitudes t."""
        if len(t) != self.red_count:
            raise InputError(f"expected {self.red_count} magnitudes, got {len(t)}")
        t = [Fraction(x) for x in t]
        total = Fraction(0)
        for mask, a in enumerate(self.coeffs):
            if a == 0:
                continue
            term = a
            bits = 0
            m = mask
            k = 0
            while m:
                if m & 1:
                    term *= t[k]
                    bits += 1
                m >>= 1
                k += 1
            total += term if bits % 2 == 0 else -term
        return total

    def to_json_dict(self) -> dict[str, str]:
        return {mask_to_bits(mask, self.red_count): str(a) for mask, a in enumerate(self.coeffs)}

    @classmethod
    def from_json_dict(cls, d: dict[str, str]) -> "CrossingPolynomial":
        if not d:
            raise InputError("empty coefficient mapping")
        r = len(next(iter(d)))
        if len(d) != 1 << r or any(len(k) != r for k in d):
            raise InputError("coefficient mapping must cover every length-R bitmask")
        coeffs = [Fraction(0)] * (1 << r)
        for key, val in d.items():
            coeffs[bits_to_mask(key)] = Fraction(val)
        return cls(r, tuple(coeffs))


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


def crossing_polynomial(g: SignedWeightedGraph, max_red: int = MAX_RED_DEFAULT) -> CrossingPolynomial:
    """All 2^R coefficients from one bordered elimination; cyclic red subsets
    are skipped (their A_I is 0).  Rejects R > max_red (2^R blow-up guard).
    """
    reds = [(u, v) for u, v, _ in g.red_edges]
    r = len(reds)
    if r > max_red:
        raise InputError(f"{r} red edges exceeds the 2^R guard (max_red={max_red})")
    subsets = [tuple(i for i in range(r) if mask >> i & 1) for mask in range(1 << r)]
    forests = [s for s in subsets if pairs_form_forest(g.n, (reds[i] for i in s))]
    values = dict(zip(forests, _graph_minors(g, reds, [(s, s) for s in forests])))
    coeffs = tuple(values.get(s, Fraction(0)) for s in subsets)
    for mask, a in enumerate(coeffs):
        if a < 0:
            raise InternalConsistencyError(
                f"negative tree-sum coefficient {a} at mask {mask} (positive black weights)"
            )
    return CrossingPolynomial(r, coeffs)


def evaluate(p: CrossingPolynomial, t: Sequence[Fraction]) -> Fraction:
    return p.evaluate(t)


def degree_support(p: CrossingPolynomial, g: SignedWeightedGraph) -> tuple[int, int]:
    """Verify nonzero terms occur exactly for degrees c(G+)-1 .. N-c(G-).

    Returns (k_min, k_max).  A violation is an implementation fault, not bad
    input, and raises InternalConsistencyError.
    """
    if not is_connected(g):
        raise InputError("degree bounds require a connected graph")
    _, c_plus, c_minus = component_counts(g)
    expect_lo = c_plus - 1
    expect_hi = g.n - c_minus
    present = {bin(mask).count("1") for mask, a in enumerate(p.coeffs) if a != 0}
    if present != set(range(expect_lo, expect_hi + 1)):
        raise InternalConsistencyError(
            f"degree support {sorted(present)} != expected range [{expect_lo}, {expect_hi}]"
        )
    return expect_lo, expect_hi


def ray_polynomial(p: CrossingPolynomial, alpha: Sequence[Fraction]) -> list[Fraction]:
    """Restriction of M to the ray t*alpha, as a univariate polynomial in t
    (dense rational coefficients, lowest degree first)."""
    if len(alpha) != p.red_count:
        raise InputError(f"expected {p.red_count} ray components, got {len(alpha)}")
    alpha = [Fraction(a) for a in alpha]
    if any(a <= 0 for a in alpha):
        raise InputError("ray direction must be strictly positive componentwise")
    out = [Fraction(0)] * (p.red_count + 1)
    for mask, a in enumerate(p.coeffs):
        if a == 0:
            continue
        term = a
        deg = 0
        m = mask
        k = 0
        while m:
            if m & 1:
                term *= alpha[k]
                deg += 1
            m >>= 1
            k += 1
        out[deg] += term if deg % 2 == 0 else -term
    return polyroots.strip(out)


@dataclass(frozen=True)
class RayCrossings:
    """Positive roots of the ray polynomial, ascending, with multiplicities,
    and the ray polynomial itself (lowest degree first)."""

    alpha: tuple[Fraction, ...]
    roots: tuple[RootRecord, ...]
    polynomial: tuple[Fraction, ...]


def ray_crossings(p: CrossingPolynomial, alpha: Sequence[Fraction]) -> RayCrossings:
    """Eigenvalue-crossing locations along the ray t*alpha.

    Exact pipeline: square-free decomposition for multiplicities, Sturm
    isolation and bisection in integer arithmetic; rational roots are
    reported exactly, irrational ones as isolating intervals of width at most
    1e-30.
    """
    q = ray_polynomial(p, alpha)
    if not q:
        raise InternalConsistencyError("ray polynomial is identically zero")
    roots = polyroots.positive_roots(q)
    return RayCrossings(tuple(Fraction(a) for a in alpha), tuple(roots), tuple(q))
