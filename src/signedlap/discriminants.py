"""Discriminants, level-repulsion geometry, and hyperplane factorization.

For R = 2 the crossing polynomial is A11*x*y - A10*x - A01*y + A00 and its
discriminant Delta = A11*A00 - A01*A10 controls whether the zero set is a
hyperbola (level repulsion, gap > 0) or two axis-parallel lines with a
reachable double crossing (Delta = 0).  Delta has two combinatorial duals,
each squaring to |Delta|: the signed spanning-2-forest sum sigma and, for
unit black weights, the cycle-basis intersection minor cm.  Both are the
off-diagonal K_01 of the transfer-current matrix, with the red edges
oriented by ``_forest_pairs`` for sigma and as stored for cm, so cm = f *
sigma with f = -1 exactly when ``_forest_pairs`` reverses one red edge and
not the other; ``disc`` reads both off one elimination (``_r2_minors``).

For R > 2 a wildcard (a 0/1 pattern with two free positions) selects a
4-coefficient sub-polynomial whose 2x2 discriminant must vanish for the zero
set to split into hyperplanes; a specific basis of 2^R - R - 1 wildcards is
sufficient; its string puts red edge 0 leftmost, as the coefficient keys
do (``crossing.mask_to_bits``).  `factorize` decides on the 2^R
coefficients by exact re-expansion, which every factorizable polynomial
passes and no other does; `graph_factorization` decides on the graph from
the off-diagonal of the transfer-current matrix K, with no 2^R
coefficients.  The rows and columns named to ``laplacian_minor`` and
``dodgson_identity_holds`` are read by ``graph._indices``.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import NamedTuple, Sequence

from .crossing import CrossingPolynomial, bits_to_mask, mask_to_bits, require_nonnegative
from .errors import InputError, InternalConsistencyError
from .graph import SignedWeightedGraph, _Frozen, _indices, _is_int, component_counts
from .spectral import _as_rows, _transfer_current, det_rational


def _require_r2(p: CrossingPolynomial | SignedWeightedGraph, what: str = "operation"):
    if p.red_count != 2:
        raise InputError(f"{what} requires exactly 2 red edges, got {p.red_count}")


def discriminant(p: CrossingPolynomial) -> Fraction:
    """Delta = A11*A00 - A01*A10 (R = 2)."""
    _require_r2(p)
    return p.coeffs[3] * p.coeffs[0] - p.coeffs[1] * p.coeffs[2]


def _gap_and_log(delta: Fraction | int, a11: Fraction | int) -> tuple[float, float]:
    """sqrt(2|delta|)/|a11| and its log10, for delta and a11 nonzero.

    The ratio 2|delta|/a11^2 is formed exactly, as the integers
    2|num(delta)| den(a11)^2 over den(delta) num(a11)^2 reduced by their gcd,
    and scaled by 4^-e into (1/2, 4), where its float is correctly rounded;
    ldexp(sqrt(.), e) is then within one ulp of the gap even when the ratio
    leaves float range.  The gap is 0.0 or inf only when it leaves float
    range itself, and the logarithm then comes from the scaled root and e.
    """
    num = 2 * abs(delta.numerator) * a11.denominator**2
    den = delta.denominator * a11.numerator**2
    common = math.gcd(num, den)
    num, den = num // common, den // common
    e = (num.bit_length() - den.bit_length()) // 2
    root = math.sqrt((num << max(-2 * e, 0)) / (den << max(2 * e, 0)))
    try:
        g = math.ldexp(root, e)
    except OverflowError:
        g = math.inf
    if 0.0 < g < math.inf:
        return g, math.log10(g)
    return g, math.log10(root) + e * math.log10(2.0)


def gap(p: CrossingPolynomial) -> float | None:
    """Minimum branch distance surrogate sqrt(2|Delta|)/A11.

    0 when Delta = 0; None (undefined) when A11 = 0.  The ratio 2|Delta|/A11^2
    is exact, so it may lie outside float range as long as the gap does not;
    a nonzero Delta whose gap lies outside float range (about 4.9e-324 to
    1.8e308) is an InputError, never 0.0 or inf.
    """
    _require_r2(p)
    a11 = p.coeffs[3]
    if a11 == 0:
        return None
    d = discriminant(p)
    if d == 0:
        return 0.0
    g, log10 = _gap_and_log(d, a11)
    if g == 0.0 or math.isinf(g):
        raise InputError(f"gap 10^{log10:.1f} lies outside the float range")
    return g


def degenerate_point(p: CrossingPolynomial) -> tuple[Fraction, Fraction] | None:
    """The unique double-crossing location (A01/A11, A10/A11) when Delta = 0
    and A11 > 0; None otherwise."""
    _require_r2(p)
    a11 = p.coeffs[3]
    if a11 == 0 or discriminant(p) != 0:
        return None
    ax, ay = p.coeffs[1], p.coeffs[2]  # coefficients of x (red 0) and y (red 1)
    return (ay / a11, ax / a11)


def _forest_pairs(g: SignedWeightedGraph) -> tuple[tuple[int, int], tuple[int, int]]:
    """Endpoint enumerations (U, W) for the two red edges.

    Disjoint edges: each pair sorted ascending.  Shared vertex: the shared
    vertex leads both pairs.  Only the sign of the forest sum depends on this.
    """
    reds = g.red_edges
    (u1, v1, _), (u2, v2, _) = reds
    shared = {u1, v1} & {u2, v2}
    if shared:
        s = min(shared)
        o1 = u1 + v1 - s
        o2 = u2 + v2 - s
        return (s, o1), (s, o2)
    return (u1, v1), (u2, v2)


def forest_sum(g: SignedWeightedGraph) -> Fraction:
    """Signed spanning-2-forest sum sigma for a graph with two red edges.

    Each qualifying forest separates the endpoints of both red edges, so its
    weight product ranges over black edges only.  Contract: sigma^2 = |Delta|.
    The global sign depends on the endpoint enumeration order.
    """
    from . import oracles  # the enumeration loads only where it runs

    _require_r2(g, "forest sum")
    u_pair, w_pair = _forest_pairs(g)
    total = Fraction(0)
    for f in oracles.two_forests(g, u_pair, w_pair):
        total += f.epsilon * f.pi
    return total


def _r2_minors(k, d: int) -> list[int]:
    """The R = 2 reader of ``spectral._transfer_current``: [A_empty, A_x,
    A_y, A_xy, K_01], each times L^(N-1-|I|) (|I| = 1 for K_01).  A_xy =
    det K / d is exact by Sylvester's identity: a remainder is a fault."""
    (k00, k01), (k11,) = k
    axy, rem = divmod(k00 * k11 - k01 * k01, d)
    if rem:
        raise InternalConsistencyError(f"det K = {k00 * k11 - k01 * k01} not divisible by det Q = {d}")
    return [d, k00, k11, axy, k01]


def _disc_minors(g: SignedWeightedGraph) -> tuple[CrossingPolynomial, Fraction]:
    """The crossing polynomial and sigma = forest_sum(g) of a graph with two
    red edges, from ``_r2_minors``, L the lcm of the black-weight denominators.

    The red columns are oriented by ``_forest_pairs``, which fixes the sign
    of sigma = K_01 = -det H[Q+U, Q+W] (transfer-current theorem) at any
    size; principal minors, the A_I, do not depend on the orientation.
    """
    _require_r2(g)
    scale, black = g._black_ints
    values = _transfer_current(g.n, black, _forest_pairs(g), _r2_minors)
    *coeffs, sigma = (Fraction(x, scale ** (g.n - 1 - size)) for x, size in zip(values, (0, 1, 1, 2, 1)))
    for mask, a in enumerate(coeffs):
        require_nonnegative(a, mask)
    return CrossingPolynomial(2, coeffs), sigma


def _cycle_minor(g: SignedWeightedGraph, sigma: Fraction) -> Fraction | None:
    """``cycle_basis_minor(g)`` from sigma = ``_disc_minors(g)[1]``: no
    cycle basis and no determinant.  None unless every black weight is 1
    and the black subgraph is connected (c(G+) = 1).

    The cycle minor is K_01, the off-diagonal of K = B^T adj(Q) B, with both
    red columns oriented as stored (u < v); sigma is K_01 with them oriented
    by ``_forest_pairs``.  That reverses a red edge only when the two share
    a vertex that is its larger endpoint, so cm = -sigma exactly when it
    reverses one of them and not the other.  With a disconnected black
    subgraph Q is singular and ``cycle_basis_minor`` undefined: None.

    Why.  The basis of ``cycle_basis_minor`` is the fundamental cycles of a
    black spanning tree, one per chord: the c - 2 black chords, then the two
    reds.  Each cycle holds its own chord and no other, so its matrix is
    F = [I | N], N over the tree edges, and the Gram matrix is
    G = I + N N^T.  Jacobi's complementary-minor identity gives the minor
    without row c - 1 and column c - 2 as -det G * (G^-1)_(c-2, c-1).
    F^T G^-1 F projects onto the cycle space, which is I minus the
    projection onto the cut space, so (G^-1)_(c-2, c-1) = -b_0^T L^+ b_1 in
    the unsigned full graph (every weight 1), and det G is its spanning-tree
    count (Cauchy-Binet): the minor is the transfer current between the two
    reds there, (B^T adj(Q_full) B)_01.  Q_full = Q + B B^T, so with
    K^ = B^T Q^-1 B the matrix-determinant lemma and Woodbury's identity give
    B^T adj(Q_full) B = det Q * K^ adj(I + K^), whose off-diagonal entry is
    det Q * K^_01 = K_01.  Only the orientations of b_0 and b_1 fix the sign.
    """
    if component_counts(g)[1] != 1 or any(w != 1 for _, _, w in g.black_edges):
        return None
    (u1, _, _), (u2, _, _) = g.red_edges
    u_pair, w_pair = _forest_pairs(g)
    return -sigma if (u_pair[0] != u1) != (w_pair[0] != u2) else sigma


def laplacian_minor(m, rows_removed: Sequence[int], cols_removed: Sequence[int]) -> Fraction:
    """Exact determinant of the matrix with the given rows and columns removed."""
    rows = _as_rows(m)
    n = len(rows)
    rows_removed, cols_removed = _indices(rows_removed, n, "index"), _indices(cols_removed, n, "index")
    rset, cset = set(rows_removed), set(cols_removed)
    if len(rset) != len(rows_removed) or len(cset) != len(cols_removed):
        raise InputError("removed index sets contain duplicates")
    if len(rset) != len(cset):
        raise InputError("must remove equally many rows and columns")
    keep_r = [i for i in range(n) if i not in rset]
    keep_c = [j for j in range(n) if j not in cset]
    return det_rational([[rows[i][j] for j in keep_c] for i in keep_r])


def dodgson_identity_holds(m, i: int, j: int, k: int, l: int) -> bool:
    """Check |M||M_{ij,kl}| - |M_{i,k}||M_{j,l}| = -|M_{i,l}||M_{j,k}| exactly.

    Rows i != j, columns k != l, 0-based.  The condensation identity behind
    the discriminant/minor calculus; exposed as an identity oracle.
    """
    rows = _as_rows(m)
    i, j, k, l = _indices((i, j, k, l), len(rows), "index")
    if i == j or k == l:
        raise InputError("need two distinct rows and two distinct columns")
    i, j = sorted((i, j))  # the identity is stated for ordered index pairs
    k, l = sorted((k, l))
    full = det_rational(rows)
    inner = laplacian_minor(rows, [i, j], [k, l])
    lhs = full * inner - laplacian_minor(rows, [i], [k]) * laplacian_minor(rows, [j], [l])
    rhs = -laplacian_minor(rows, [i], [l]) * laplacian_minor(rows, [j], [k])
    return lhs == rhs


# ---------------------------------------------------------------------------
# Cycle-basis dual of the discriminant


def cycle_basis_minor(g: SignedWeightedGraph) -> Fraction | None:
    """Cycle-intersection minor whose square is |Delta| (unit black weights).

    Builds a cycle basis from fundamental cycles of a spanning tree of the
    graph minus both red edges, so the last two basis cycles are the unique
    ones through each red edge.  Forms the cycle Gram matrix G = F F^T and
    returns the minor removing the last row and second-to-last column.
    None (undefined) when removing the red edges disconnects the graph or the
    co-rank is < 2.  Otherwise it equals f * ``forest_sum(g)``, f = -1
    exactly when ``_forest_pairs`` reverses the stored order of one red edge
    and not the other (``_cycle_minor``, which ``disc`` prints; this
    determinant is its oracle).
    """
    from . import _kernels

    _require_r2(g, "cycle minor")
    if any(w != 1 for _, _, w in g.black_edges):
        raise InputError("cycle minor requires unit black weights")
    n = g.n
    m = len(g.edges)
    corank = m - n + 1
    if corank < 2:
        return None
    red_pos = list(g.red_indices)
    black_pos = [i for i in range(m) if i not in red_pos]
    # spanning tree of the graph without the red edges
    adj: dict[int, list[tuple[int, int]]] = {v: [] for v in range(n)}
    for pos in black_pos:
        u, v, _ = g.edges[pos]
        adj[u].append((v, pos))
        adj[v].append((u, pos))
    parent = {0: (None, None)}
    order = [0]
    for v in order:
        for w, pos in adj[v]:
            if w not in parent:
                parent[w] = (v, pos)
                order.append(w)
    if len(parent) != n:
        return None  # g minus the red edges is disconnected
    # path[v]: the tree path from 0 to v, +-1 per edge orientation (every
    # edge is stored tail < head)
    path = {0: [0] * m}
    for v in order[1:]:
        p, pos = parent[v]
        path[v] = path[p].copy()
        path[v][pos] = 1 if p < v else -1
    tree_pos = {parent[v][1] for v in order[1:]}

    def cycle_vector(pos: int) -> list[int]:
        """Fundamental cycle of chord ``pos`` = (u, v): the chord from u to
        v, then the tree path back from v to u, path[u] - path[v]."""
        u, v, _ = g.edges[pos]
        vec = [a - b for a, b in zip(path[u], path[v])]
        vec[pos] = 1
        return vec

    chords = [pos for pos in black_pos if pos not in tree_pos]
    basis = [cycle_vector(pos) for pos in chords]
    basis.append(cycle_vector(red_pos[0]))
    basis.append(cycle_vector(red_pos[1]))
    c = len(basis)
    gram = [[sum(a * b for a, b in zip(basis[i], basis[j])) for j in range(c)] for i in range(c)]
    sub = [[gram[i][j] for j in range(c) if j != c - 2] for i in range(c) if i != c - 1]
    return Fraction(_kernels.det_int(sub))


# ---------------------------------------------------------------------------
# Wildcards and full factorization


class Wildcard(_Frozen):
    """Length-R pattern over {0, 1, free} with exactly two free positions.

    Serialized as a string over {0, 1, *}, read left to right as red edges
    0..R-1.  Picks the 4-coefficient sub-polynomial over the masks
    {b, b+e_i, b+e_j, b+e_i+e_j} where b is the pattern with frees zeroed.
    """

    _fields = ("r", "i", "j", "bits")
    r: int
    i: int  # first free position (0-based)
    j: int  # second free position, i < j
    bits: int  # mask over the fixed positions, in 0..2^r - 1

    def __init__(self, r: int, i: int, j: int, bits: int):
        if not all(map(_is_int, (r, i, j, bits))):
            raise InputError(f"wildcard fields must be integers, got ({r!r}, {i!r}, {j!r}, {bits!r})")
        if not (0 <= i < j < r):
            raise InputError(f"free positions ({i}, {j}) invalid for length {r}")
        if bits < 0 or bits.bit_length() > r:
            raise InputError(f"fixed bits {bits} do not fit length {r}")
        if bits & (1 << i) or bits & (1 << j):
            raise InputError("fixed bits overlap the free positions")
        vars(self).update(r=r, i=i, j=j, bits=bits)

    @classmethod
    def from_string(cls, s: str) -> "Wildcard":
        frees = [k for k, ch in enumerate(s) if ch == "*"]
        if len(frees) != 2 or any(ch not in "01*" for ch in s):
            raise InputError(f"wildcard {s!r} must be over 0/1/* with exactly two *")
        return cls(len(s), frees[0], frees[1], bits_to_mask(s.replace("*", "0")))

    def to_string(self) -> str:
        s = mask_to_bits(self.bits, self.r)
        return f"{s[: self.i]}*{s[self.i + 1 : self.j]}*{s[self.j + 1 :]}"

    def subset_masks(self) -> tuple[int, int, int, int]:
        """(b, b+e_i, b+e_j, b+e_i+e_j)."""
        b = self.bits
        ei, ej = 1 << self.i, 1 << self.j
        return b, b | ei, b | ej, b | ei | ej


def wildcard_basis(r: int) -> list[Wildcard]:
    """The 2^r - r - 1 wildcards whose vanishing discriminants certify full
    hyperplane factorization: both free positions anywhere, every fixed bit
    before the second free position zero, bits after it unconstrained."""
    if not _is_int(r) or r < 2:
        raise InputError(f"wildcards need at least 2 red edges, got {r!r}")
    return [
        Wildcard(r, i, j, bits_to_mask("0" * (j + 1) + "".join(tail)))
        for j in range(1, r)
        for i in range(j)
        for tail in itertools.product("01", repeat=r - j - 1)
    ]


def wildcard_discriminant(p: CrossingPolynomial, w: Wildcard) -> Fraction:
    """Delta_w = A_{b+ei+ej}*A_b - A_{b+ei}*A_{b+ej}."""
    if w.r != p.red_count:
        raise InputError(f"wildcard length {w.r} != red count {p.red_count}")
    b, bi, bj, bij = w.subset_masks()
    return p.coeffs[bij] * p.coeffs[b] - p.coeffs[bi] * p.coeffs[bj]


class Factorization(NamedTuple):
    """M(t) = alpha * prod_i (1 - C_i * t_i); crossing hyperplanes at
    t_i = 1/C_i for C_i > 0."""

    alpha: Fraction
    c: tuple[Fraction, ...]


_NEEDS_A_EMPTY = "factorization requires a connected black subgraph (A_empty > 0)"


def factorize(p: CrossingPolynomial) -> Factorization | None:
    """Full hyperplane factorization of the crossing polynomial, or None.

    Extracts alpha = A_empty and C_i = A_{e_i}/A_empty and accepts exactly
    when re-expansion reproduces every coefficient.  The wildcard basis is
    the paper's certificate, not a pre-check: a product
    alpha * prod_i (1 - C_i t_i) makes every wildcard discriminant vanish, so
    a nonzero one already fails the re-expansion.  Needs all 2^R
    coefficients; ``graph_factorization`` gives the same answer from the
    graph without them.
    """
    a0 = p.coeffs[0]
    if a0 == 0:
        raise InputError(_NEEDS_A_EMPTY)
    r = p.red_count
    c = tuple(p.coeffs[1 << i] / a0 for i in range(r))
    for mask in range(1 << r):
        expect = a0
        for i in range(r):
            if mask >> i & 1:
                expect *= c[i]
        if p.coeffs[mask] != expect:
            return None
    return Factorization(a0, c)


def graph_factorization(g: SignedWeightedGraph) -> Factorization | None:
    """``factorize(crossing_polynomial(g))`` from the transfer-current matrix
    K = B^T adj(Q) B, at any R.

    A_I = det K[I, I] / A_empty^(|I| - 1), so
    M(t) = A_empty * det(I - diag(t) K / A_empty).  K is symmetric, so M is
    a product of linear factors exactly when every 2x2 principal minor is
    K_ii K_jj, that is, when every off-diagonal K_ij is 0; then
    alpha = A_empty and C_i = K_ii / A_empty.  A_empty = det Q / L^(N-1)
    and K / L^(N-2) are one read off ``spectral._transfer_current``.
    """
    if component_counts(g)[1] != 1:
        raise InputError(_NEEDS_A_EMPTY)
    r = g.red_count
    scale, black = g._black_ints
    reds = [(u, v) for u, v, _ in g.red_edges]
    d, *values = _transfer_current(
        g.n, black, reds, lambda k, d: [d, *(row[0] for row in k), *(x for row in k for x in row[1:])]
    )
    a0 = Fraction(d, scale ** (g.n - 1))
    require_nonnegative(a0, 0)
    diagonal = [Fraction(k, scale ** (g.n - 2)) for k in values[:r]]
    for i, k in enumerate(diagonal):
        require_nonnegative(k, 1 << i)
    if any(values[r:]):
        return None
    return Factorization(a0, tuple(k / a0 for k in diagonal))


def wildcard_forest_sum(g: SignedWeightedGraph, w: Wildcard) -> Fraction | None:
    """Forest-sum dual of a wildcard discriminant.

    Builds the derived graph: red edges at fixed 1-positions contracted, at
    fixed 0-positions deleted, the two free-position reds kept.  Returns the
    signed 2-forest sum there; contract: result^2 = |Delta_w|.  None
    (undefined) when a free red edge collapses to a loop or is merged with a
    parallel edge by the contraction.
    """
    from . import oracles

    reds = g.red_indices
    if w.r != len(reds):
        raise InputError(f"wildcard length {w.r} != red count {len(reds)}")
    contract = {k for k in range(w.r) if k not in (w.i, w.j) and w.bits >> k & 1}
    delete = {k for k in range(w.r) if k not in (w.i, w.j) and not w.bits >> k & 1}
    if not oracles.red_subset_is_forest(g, contract):
        return None  # every coefficient under this wildcard is zero
    info = oracles.minor_with_info(g, contract, delete)
    ni = info.red_map.get(w.i)
    nj = info.red_map.get(w.j)
    if ni is None or nj is None:
        return None
    derived = info.graph
    new_red_pos = derived.red_indices
    if {new_red_pos[ni], new_red_pos[nj]} & set(info.merged_positions):
        return None
    return forest_sum(derived)
