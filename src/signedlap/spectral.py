"""Laplacians, exact inertia, float eigenvalues, the spanning-tree sum, and
the eliminations that every crossing coefficient, ray polynomial and
spectral index comes from.

The Laplacian convention is off-diagonal entry = edge weight, diagonal =
minus the row sum, so an all-positive graph gives a negative-semidefinite
matrix whose kernel contains the all-ones vector.  The spectral index is the
triple (n_minus, n_zero, n_plus).  Inertia, determinants and the bordered
elimination are fraction-free (Bareiss) on Python ints; only
``eigenvalues`` uses floats, and only it imports numpy.

Every exact symmetric elimination is one step, ``_schur``, a Bareiss update
of an upper triangle, run by two loops: ``_pivots`` runs it to the end,
with a unimodular congruence for a zero pivot, and ``_eliminate`` runs it
over the grounded black Laplacian Q, dropping each zero row and recording
its red entries.  On the bordered matrix of Q and the red columns,
``_transfer_current`` runs it over every row of Q, and ``_read_eliminated``
(which the ensemble's int64 stack shares) hands K and det Q, or each
bridged Q_k's in closed form, to a reader: every crossing value is a read
of K (``_principal_minors`` for the 2^R coefficients, the diagonal and the
off-diagonal for the thresholds, the factorization and the R = 2
discriminant).  With no red column, ``_touched_block`` stops it at the
red-touched vertices and adds the red Laplacian there; ``_pivots`` of that
block gives the ray's determinants and the spectral index of a graph
(``_graph_inertia``, with ``inertia`` of the explicit matrix as its
reference).  ``_kernels.det_int`` serves ``det_rational`` and the
``discriminants.cycle_basis_minor`` oracle alone, and each imports it on
first use.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, lcm
from typing import NamedTuple, Sequence

from .errors import InputError, InternalConsistencyError
from .graph import SignedWeightedGraph, _rationals, component_counts, is_connected


class SpectralIndex(NamedTuple):
    """Eigenvalue sign counts (n_minus, n_zero, n_plus)."""

    n_minus: int
    n_zero: int
    n_plus: int


class LaplacianMatrix:
    """Symmetric matrix of exact rationals."""

    __slots__ = ("rows",)

    def __init__(self, rows: Sequence[Sequence[Fraction]]):
        self.rows = _as_rows(rows, symmetric=True)

    @property
    def n(self) -> int:
        return len(self.rows)

    def __eq__(self, other):
        return isinstance(other, LaplacianMatrix) and self.rows == other.rows

    def __repr__(self):
        return f"LaplacianMatrix(n={self.n})"


def _as_rows(m, symmetric: bool = False) -> tuple[tuple[Fraction, ...], ...]:
    """The rows of a square matrix as Fractions; an entry that is not a
    finite rational, any other shape, or with ``symmetric`` set an
    asymmetric matrix, is an InputError.  The one normalizer of every matrix
    argument: a ``LaplacianMatrix`` has passed it already."""
    if isinstance(m, LaplacianMatrix):
        return m.rows
    rows = _rationals(m, "matrix entries", lambda row: tuple(map(Fraction, row)))
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise InputError("matrix must be square")
    if symmetric:
        for i in range(n):
            for j in range(i + 1, n):
                if rows[i][j] != rows[j][i]:
                    raise InputError(f"matrix not symmetric at ({i},{j})")
    return rows


def _magnitudes(g: SignedWeightedGraph, t: Sequence[Fraction]) -> tuple[Fraction, ...]:
    """``t`` as the red magnitudes of ``g``, one finite rational >= 0 per red
    edge, else an InputError: every route that takes magnitudes checks here."""
    if len(t) != g.red_count:
        raise InputError(f"expected {g.red_count} red magnitudes, got {len(t)}")
    t = _rationals(t, "red magnitudes")
    for i, ti in enumerate(t):
        if ti < 0:
            raise InputError(f"red magnitude t[{i}] = {ti} is negative")
    return t


def laplacian(g: SignedWeightedGraph, t: Sequence[Fraction] | None = None) -> LaplacianMatrix:
    """Laplacian of ``g``; with ``t`` given, red edge i carries weight -t_i.

    ``t`` must assign one nonnegative rational per red edge (``_magnitudes``).
    Black weights are taken from the graph.  Row sums are exactly zero.
    """
    weights = {} if t is None else {pos: -ti for pos, ti in zip(g.red_indices, _magnitudes(g, t))}
    a = [[Fraction(0)] * g.n for _ in range(g.n)]
    for pos, (u, v, w) in enumerate(g.edges):
        w = weights.get(pos, w)
        a[u][v] += w
        a[v][u] += w
        a[u][u] -= w
        a[v][v] -= w
    lap = object.__new__(LaplacianMatrix)  # symmetric Fractions already: no checks
    lap.rows = tuple(map(tuple, a))
    return lap


def eigenvalues(m) -> np.ndarray:
    """Ascending eigenvalues of a symmetric matrix (float path).

    A matrix that is not square and symmetric, or has an entry that is not
    a finite rational, is an InputError, as in ``inertia``.  So is an entry
    above the float range (magnitude above about 1.8e308), a nonzero entry
    that rounds to 0.0 (magnitude below about 2.5e-324) or an eigenvalue
    that is not finite (``_eigvalsh``); the exact ``inertia`` has no such
    limit.
    """
    rows = _as_rows(m, symmetric=True)
    scale = lcm(*(x.denominator for row in rows for x in row))
    return _eigvalsh([[x.numerator * (scale // x.denominator) for x in row] for row in rows], scale)


def _graph_eigenvalues(g: SignedWeightedGraph, t: Sequence[Fraction]) -> np.ndarray:
    """``eigenvalues(laplacian(g, t))`` with no N x N Fraction matrix; ``t``
    is checked as ``laplacian`` checks it (``_magnitudes``).

    The Laplacian is built in integers, L times ``laplacian(g, t)``, with L
    the lcm of the black-weight and magnitude denominators, and
    ``_eigvalsh`` divides each entry by L: the same rational, so the same
    float, as the Fraction entry gives.
    """
    t = _magnitudes(g, t)
    black_scale, black = g._black_ints
    scale = lcm(black_scale, *(m.denominator for m in t))
    weights = [(u, v, w * (scale // black_scale)) for u, v, w in black]
    weights += [(u, v, -m.numerator * (scale // m.denominator)) for (u, v, _), m in zip(g.red_edges, t)]
    a = [[0] * g.n for _ in range(g.n)]
    for u, v, w in weights:
        a[u][v] += w
        a[v][u] += w
        a[u][u] -= w
        a[v][v] -= w
    return _eigvalsh(a, scale)


def _eigvalsh(rows: list[list[int]], scale: int) -> np.ndarray:
    """Ascending eigenvalues of the symmetric matrix ``rows`` / ``scale``,
    integer rows and a positive integer scale: each entry is the correctly
    rounded float of its rational, as ``float`` of a Fraction gives it.  An
    entry above the float range, a nonzero entry that rounds to 0.0 or an
    eigenvalue that is not finite is an InputError."""
    import numpy as np  # imported here: the exact routes never load numpy

    message = "eigenvalues need every nonzero entry and eigenvalue within the float range (2.5e-324 < |x| < 1.8e308)"
    try:
        floats = [[x / scale for x in row] for row in rows]
    except OverflowError:
        raise InputError(message) from None
    underflow = any(x and not y for row, frow in zip(rows, floats) for x, y in zip(row, frow))
    if underflow or not np.isfinite(ev := np.linalg.eigvalsh(np.array(floats, dtype=np.float64))).all():
        raise InputError(message)
    return ev


def inertia(m) -> SpectralIndex:
    """Exact inertia by one fraction-free symmetric elimination (Sylvester).

    The entries are scaled by the lcm of their denominators, a positive
    scale, and ``_pivots`` eliminates the upper triangle in integers; its
    pivots give the signs (``_jacobi``).  No fractions and no floating
    point anywhere.  The reference for ``_graph_inertia``.
    """
    rows = _as_rows(m, symmetric=True)
    scale = lcm(*(x.denominator for row in rows for x in row))
    upper = [[x.numerator * (scale // x.denominator) for x in row[i:]] for i, row in enumerate(rows)]
    return _jacobi(*_pivots(upper))


def _jacobi(pivots: list[int], nullity: int) -> SpectralIndex:
    """The inertia of the matrix that ``_pivots`` returned (pivots, nullity)
    for, resumed from a positive prev or not.  Its pivots p_k are nested
    principal minors of a unimodular congruent matrix, so each contributes
    the eigenvalue sign of p_k * p_(k-1) (Jacobi); every dropped zero row is
    one kernel vector."""
    n_plus = sum((p > 0) == (prev > 0) for p, prev in zip(pivots, [1] + pivots))
    return SpectralIndex(len(pivots) - n_plus, nullity, n_plus)


def det_rational(rows) -> Fraction:
    """Exact determinant of a square matrix of rationals, read by ``_as_rows``.

    Clears denominators row-wise and defers to the exact integer kernel.
    """
    from . import _kernels

    scale = 1
    int_rows = []
    for row in _as_rows(rows):
        mult = lcm(*(x.denominator for x in row))
        scale *= mult
        int_rows.append([int(x * mult) for x in row])
    return Fraction(_kernels.det_int(int_rows), scale)


def tree_sum(g: SignedWeightedGraph, t: Sequence[Fraction] | None = None) -> Fraction:
    """Signed weighted spanning-tree sum of the graph.

    By the weighted matrix-tree theorem this equals the (0,0)-cofactor of the
    positive-orientation Laplacian, computed here as an exact minor
    determinant; it also equals (-1)^(N-1)/N times the product of nonzero
    Laplacian eigenvalues.  Disconnected graphs give 0.
    """
    lap = laplacian(g, t)
    n = lap.n
    if n == 1:
        return Fraction(1)
    sub = [row[1:] for row in lap.rows[1:]]
    d = det_rational(sub)
    return -d if (n - 1) % 2 else d


def _schur(upper, prev: int):
    """One Bareiss step on a symmetric integer matrix held as its upper
    triangle (row i from the diagonal on), pivoting on entry (0, 0).

    When the entries are prev times a Schur complement, so is the upper
    triangle returned, now with the pivot as prev: each entry
    (p a_ij - a_0i a_0j) / prev is exact by Sylvester's identity.  A row
    with a_0i = 0 is only rescaled, and reused when p = prev.
    """
    pivot_row = upper[0]
    pk = pivot_row[0]
    out = []
    for i in range(1, len(upper)):
        f = pivot_row[i]
        row = upper[i]
        if f:
            out.append([(x * pk - f * y) // prev for x, y in zip(row, pivot_row[i:])])
        elif pk != prev:
            out.append([x * pk // prev for x in row])
        else:
            out.append(row)
    return out


def _pivots(upper, prev: int = 1) -> tuple[list[int], int]:
    """Every Bareiss pivot of a symmetric integer matrix held as its upper
    triangle, resumed from ``prev`` as ``_schur`` leaves it, and the nullity.

    An all-zero row is dropped as one kernel vector.  A zero pivot whose row
    is not zero first takes s times row and column k, for the first k with
    a_0k != 0 and the s = +-1 that makes the new a_00 = 2 s a_0k + a_kk
    nonzero: a unimodular congruence, which keeps the inertia, the
    determinant and every exact division.  With no row dropped the last
    pivot is the determinant of the whole matrix the elimination began on.
    """
    pivots, nullity = [], 0
    while upper:
        row = upper[0]
        if not row[0]:
            k = next((k for k, x in enumerate(row) if x), None)
            if k is None:
                upper = upper[1:]
                nullity += 1
                continue
            row_k = [upper[j][k - j] for j in range(k)] + upper[k]
            s = 1 if 2 * row[k] + row_k[k] else -1
            upper = [[2 * s * row[k] + row_k[k]] + [x + s * y for x, y in zip(row[1:], row_k[1:])]] + upper[1:]
        pivots.append(upper[0][0])
        upper = _schur(upper, prev)
        prev = pivots[-1]
    return pivots, nullity


def _eliminate(n: int, black, reds, steps: int):
    """Fraction-free elimination of the first ``steps`` rows of the bordered
    matrix H = [[Q, B], [B^T, 0]].

    Q is the Laplacian of the ``black`` edges (u, v, w), u < v, w a positive
    integer, grounded at vertex 0 (row v - 1 is vertex v); column i of B is
    e_u - e_v for ``reds[i]`` = (u, v) without its vertex-0 entry.  Every
    step is one ``_schur`` on upper triangles.  Q is positive semidefinite,
    so a zero pivot has a zero row within Q: it is dropped, and its red
    entries x recorded with the pivot q they stand at; a later pivot p only
    rescales them, to x * p / q exactly.

    Returns (upper, dropped, prev): the upper triangle left, which is the
    last pivot taken times the Schur complement of the pivots, over the
    rows not yet reached, then the red columns; the (entries, q) of each
    dropped row; and prev, the last pivot taken (1 if none).
    """
    size = n - 1 + len(reds)
    upper = [[0] * (size - i) for i in range(size)]
    for u, v, w in black:
        if u:
            upper[u - 1][0] += w
            upper[u - 1][v - u] -= w
        upper[v - 1][0] += w
    for col, (u, v) in enumerate(reds, n - 1):
        if u:
            upper[u - 1][col - u + 1] = 1
        if v:
            upper[v - 1][col - v + 1] = -1
    dropped, prev = [], 1
    for _ in range(steps):
        pivot_row = upper[0]
        if pivot_row[0]:
            upper = _schur(upper, prev)
            prev = pivot_row[0]
        else:
            dropped.append((pivot_row[len(pivot_row) - len(reds) :], prev))
            upper = upper[1:]
    return upper, dropped, prev


def _touched_block(g: SignedWeightedGraph, magnitudes):
    """The grounded form G = Q - Lr of ``g`` with red edge i at magnitude
    ``magnitudes[i]``, eliminated over the vertices that no red edge touches.

    With L the lcm of the black-weight and magnitude denominators, Q and Lr
    are the black and red Laplacians with weights L * w and L * m_i, vertex
    0 grounded, so G is L times minus ``laplacian(g, m)`` without row and
    column 0.  T, the other vertices on a red edge, is ordered last, and
    ``_eliminate`` pivots over the rest with no red column.  Every edge at
    those is black, so each pivot is positive, and a zero pivot has a zero
    row in G too: ``_eliminate`` drops it, one kernel vector, so the graph
    need not be connected.  Bareiss leaves S, prev times the black Schur
    complement, over T.  Lr lives on T, so the block of G at magnitudes
    s * m is S - s * R with R = prev * Lr.

    Returns (S, R, prev, L, dropped), S and R upper triangles over T, prev
    the last pivot taken (1 if none) and ``dropped`` the zero rows' count.
    """
    black_scale, black_ints = g._black_ints
    scale = lcm(black_scale, *(m.denominator for m in magnitudes))
    touched = {x for u, v, _ in g.red_edges for x in (u, v)} - {0}
    at = {v: i for i, v in enumerate([v for v in range(g.n) if v not in touched] + sorted(touched))}
    black = [(*sorted((at[u], at[v])), w * (scale // black_scale)) for u, v, w in black_ints]
    upper, dropped, prev = _eliminate(g.n, black, (), g.n - 1 - len(touched))
    base = g.n - len(touched)
    red = [[0] * len(row) for row in upper]
    for (u, v, _), m in zip(g.red_edges, magnitudes):
        w = m.numerator * (scale // m.denominator) * prev
        incidence = [(at[x] - base, sign) for x, sign in ((u, 1), (v, -1)) if x]  # over T
        for i, x in incidence:
            for j, y in incidence:
                if i <= j:
                    red[i][j - i] += x * y * w
    return upper, red, prev, scale, len(dropped)


def _graph_inertia(g: SignedWeightedGraph, t: Sequence[Fraction]) -> SpectralIndex:
    """``inertia(laplacian(g, t))`` off ``_touched_block``, with no N x N
    matrix; ``t`` is checked as ``laplacian`` checks it (``_magnitudes``).

    Congruence by a basis whose first vector is the all-ones vector, in the
    kernel of every Laplacian, splits L(t) into 0 and minus the grounded
    form G, so inertia(L(t)) = (n_plus(G), n_zero(G) + 1, n_minus(G)).  By
    Haynsworth's inertia formula, G's inertia is that of its block over the
    pivoted red-free vertices, all positive but the dropped zero rows, plus
    that of its Schur complement: ``_pivots`` of the touched block resumed
    from prev.
    """
    s, r, prev, _, dropped = _touched_block(g, _magnitudes(g, t))
    block = _jacobi(*_pivots([[x - y for x, y in zip(a, b)] for a, b in zip(s, r)], prev))
    return SpectralIndex(g.n - 1 - dropped - len(s) + block.n_plus, block.n_zero + dropped + 1, block.n_minus)


def _transfer_current(n: int, black, reds, read) -> list[int]:
    """``read(K, d)`` for the bordered matrix H = [[Q, B], [B^T, 0]] of
    ``_eliminate``: K = B^T adj(Q) B, the R x R transfer-current matrix held
    as its upper triangle, and d = det Q, read by ``_read_eliminated``, which
    ``ensemble._stacked_minors`` also calls.  ``read`` returns a list of
    integers, each a minor of H or another integer polynomial in K and d.
    """
    return _read_eliminated(*_eliminate(n, black, reds, n - 1), read)


def _read_eliminated(upper, dropped, d: int, read) -> list[int]:
    """``read(K, d)`` off an elimination over every row of Q that left
    ``upper`` over the red columns, the (entries, q) records ``dropped`` and
    d, its last pivot.  With no row dropped, ``upper`` is -K.  When it drops
    rows Z, Q is singular (A_empty = 0) and ``upper`` is -K' at d.  Q_k, Q
    plus a black edge of weight k from vertex 0 to each dropped vertex, is
    positive definite; its elimination would leave k * d on the Z diagonals
    beside Y, the recorded entries at d, so |Z| more steps give
    K_k = k^|Z| K' + k^(|Z|-1) Y^T Y / d and det Q_k = d k^|Z| (a remainder
    of Y^T Y / d is a fault).  Each value read, a minor over Q_k, is an
    integer polynomial in k of degree at most |Z|; the value over Q is its
    constant term, sum over k = 1..|Z|+1 of (-1)^(k+1) C(|Z|+1, k) value(k).
    """
    if not dropped:
        return read([[-x for x in row] for row in upper], d)
    cols = list(zip(*([x * d // q for x in entries] for entries, q in dropped)))  # Y's columns
    gram = [[sum(x * y for x, y in zip(a, b)) for b in cols[i:]] for i, a in enumerate(cols)]
    if any(x % d for row in gram for x in row):
        raise InternalConsistencyError(f"Y^T Y of the dropped rows not divisible by det Q = {d}")
    z, total = len(dropped), None
    for k in range(1, z + 2):
        kz = k ** (z - 1)
        rows = [[kz * (x // d - k * a) for a, x in zip(ra, rg)] for ra, rg in zip(upper, gram)]
        w, values = (-1) ** (k + 1) * comb(z + 1, k), read(rows, d * k * kz)
        total = [w * x for x in values] if total is None else [t + w * x for t, x in zip(total, values)]
    return total


def _principal_minors(k, d: int) -> list[int]:
    """det K[I, I] / d^(|I| - 1) for every subset I of the rows of K, by
    bitmask (d for I empty), with K the R x R transfer-current matrix
    B^T adj(Q) B held as its upper triangle and d = det Q, as
    ``_transfer_current`` hands them to a reader.

    One depth-first recursion over the subsets in index order, the
    principal-minor algorithm of Griffin and Tsatsomeros in Bareiss form:
    a node I holds its pivot p_I = det K[I, I] / d^(|I| - 1) and the upper
    triangle T over the indices after max(I).  The child I + {j} reads its
    pivot p_j = T_jj, and its block is ``_schur(T[j:], p_I)``.  K / d is
    positive semidefinite, so a zero pivot zeroes every superset: that
    subtree is never visited.
    """
    out = [0] * (1 << len(k))
    out[0] = d
    stack = [(0, 0, d, k)]
    while stack:
        mask, first, p, upper = stack.pop()
        for j, row in enumerate(upper):
            child = mask | 1 << (first + j)
            out[child] = row[0]
            if row[0] and j + 1 < len(upper):
                stack.append((child, first + j + 1, row[0], _schur(upper[j:], p)))
    return out


def index_limits(g: SignedWeightedGraph) -> tuple[SpectralIndex, SpectralIndex]:
    """Generic spectral indices for red magnitudes near 0 and near infinity.

    Near zero: (N - c(G+), 1, c(G+) - 1).  Near infinity:
    (c(G-) - 1, 1, N - c(G-)).  Derived from component counts alone; requires
    a connected graph.
    """
    if not is_connected(g):
        raise InputError("index limits require a connected graph")
    _, c_plus, c_minus = component_counts(g)
    n = g.n
    small = SpectralIndex(n - c_plus, 1, c_plus - 1)
    large = SpectralIndex(c_minus - 1, 1, n - c_minus)
    return small, large


def crossing_count(g: SignedWeightedGraph) -> int:
    """Total eigenvalue crossings (with multiplicity) along a generic red ray:
    N - c(G+) - c(G-) + 1."""
    if not is_connected(g):
        raise InputError("crossing count requires a connected graph")
    _, c_plus, c_minus = component_counts(g)
    return g.n - c_plus - c_minus + 1
