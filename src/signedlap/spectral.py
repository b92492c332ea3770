"""Laplacians, exact inertia, float eigenvalues, the spanning-tree sum, and
the bordered elimination that every crossing coefficient comes from.

The Laplacian convention is off-diagonal entry = edge weight, diagonal =
minus the row sum, so an all-positive graph gives a negative-semidefinite
matrix whose kernel contains the all-ones vector.  The spectral index is the
triple (n_minus, n_zero, n_plus).  Inertia, determinants and the bordered
elimination are fraction-free (Bareiss) on Python ints; only
``eigenvalues`` uses floats.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import NamedTuple, Sequence

import numpy as np

from . import _kernels
from .errors import InputError, InternalConsistencyError
from .graph import SignedWeightedGraph, component_counts, is_connected


class SpectralIndex(NamedTuple):
    """Eigenvalue sign counts (n_minus, n_zero, n_plus)."""

    n_minus: int
    n_zero: int
    n_plus: int


class LaplacianMatrix:
    """Symmetric matrix of exact rationals."""

    __slots__ = ("rows",)

    def __init__(self, rows: Sequence[Sequence[Fraction]]):
        rows = tuple(tuple(Fraction(x) for x in row) for row in rows)
        n = len(rows)
        if any(len(row) != n for row in rows):
            raise InputError("matrix must be square")
        for i in range(n):
            for j in range(i + 1, n):
                if rows[i][j] != rows[j][i]:
                    raise InputError(f"matrix not symmetric at ({i},{j})")
        self.rows = rows

    @property
    def n(self) -> int:
        return len(self.rows)

    def __eq__(self, other):
        return isinstance(other, LaplacianMatrix) and self.rows == other.rows

    def __repr__(self):
        return f"LaplacianMatrix(n={self.n})"


def _as_rows(m) -> tuple[tuple[Fraction, ...], ...]:
    if isinstance(m, LaplacianMatrix):
        return m.rows
    return tuple(tuple(Fraction(x) for x in row) for row in m)


def laplacian(g: SignedWeightedGraph, t: Sequence[Fraction] | None = None) -> LaplacianMatrix:
    """Laplacian of ``g``; with ``t`` given, red edge i carries weight -t_i.

    ``t`` must assign one nonnegative rational per red edge.  Black weights are
    always taken from the graph.  Row sums are exactly zero by construction.
    """
    reds = g.red_indices
    weights = {}
    if t is not None:
        if len(t) != len(reds):
            raise InputError(f"expected {len(reds)} red magnitudes, got {len(t)}")
        for i, pos in enumerate(reds):
            ti = Fraction(t[i])
            if ti < 0:
                raise InputError(f"red magnitude t[{i}] = {ti} is negative")
            weights[pos] = -ti
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

    An entry above the float range (magnitude above about 1.8e308), a
    nonzero entry that rounds to 0.0 (magnitude below about 2.5e-324) or an
    eigenvalue that is not finite is an InputError; the exact ``inertia``
    has no such limit.
    """
    message = "eigenvalues need every nonzero entry and eigenvalue within the float range (2.5e-324 < |x| < 1.8e308)"
    rows = m.rows if isinstance(m, LaplacianMatrix) else m
    try:
        arr = np.array([[float(x) for x in row] for row in rows], dtype=np.float64)
    except OverflowError:
        raise InputError(message) from None
    underflow = any(x and not y for row, frow in zip(rows, arr) for x, y in zip(row, frow))
    if underflow or not np.isfinite(ev := np.linalg.eigvalsh(arr)).all():
        raise InputError(message)
    return ev


def inertia(m) -> SpectralIndex:
    """Exact inertia by one fraction-free symmetric elimination (Sylvester).

    The entries are scaled by the lcm of their denominators, a positive
    scale.  Bareiss elimination then pivots on the first nonzero remaining
    diagonal entry; its pivots p_k are leading principal minors, so each
    contributes the eigenvalue sign of p_k * p_(k-1) (Jacobi).  When every
    remaining diagonal entry is zero but some a_pq is not, row and column q
    are added to row and column p, which makes a_pp = 2 a_pq: a unimodular
    congruence, so the inertia is unchanged and every division stays exact.
    What is left when nothing nonzero remains is the kernel.  No fractions
    and no floating point anywhere.
    """
    rows = m.rows if isinstance(m, LaplacianMatrix) else LaplacianMatrix(m).rows
    scale = lcm(*(x.denominator for row in rows for x in row))
    a = [[x.numerator * (scale // x.denominator) for x in row] for row in rows]
    n_minus = n_plus = 0
    prev = 1
    while a:
        k = next((i for i, row in enumerate(a) if row[i]), None)
        if k is None:
            pair = next(((i, j) for i, row in enumerate(a) for j, x in enumerate(row) if x), None)
            if pair is None:
                break
            k, q = pair
            a[k] = [x + y for x, y in zip(a[k], a[q])]
            for row in a:
                row[k] += row[q]
        pivot_row = a.pop(k)
        pk = pivot_row.pop(k)
        if (pk > 0) == (prev > 0):
            n_plus += 1
        else:
            n_minus += 1
        for row in a:
            f = row.pop(k)
            if f:
                row[:] = [(x * pk - f * y) // prev for x, y in zip(row, pivot_row)]
            elif pk != prev:
                row[:] = [x * pk // prev for x in row]
        prev = pk
    return SpectralIndex(n_minus, len(a), n_plus)


def det_rational(rows) -> Fraction:
    """Exact determinant of a square matrix of rationals.

    Clears denominators row-wise and defers to the exact integer kernel.
    """
    rows = [list(row) for row in rows]
    n = len(rows)
    if n == 0:
        return Fraction(1)
    scale = 1
    int_rows = []
    for row in rows:
        row = [Fraction(x) for x in row]
        mult = lcm(*(x.denominator for x in row)) if row else 1
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


def _eliminate(n: int, black, reds, steps: int):
    """Fraction-free elimination of the first ``steps`` rows of the bordered
    matrix H = [[Q, B], [B^T, 0]].

    Q is the Laplacian of the ``black`` edges (u, v, w), u < v, w a positive
    integer, grounded at vertex 0 (row v - 1 is vertex v); column i of B is
    e_u - e_v for ``reds[i]`` = (u, v) without its vertex-0 entry.  Bareiss
    steps keep only upper triangles (every intermediate is symmetric).  Q is
    positive semidefinite, so a zero pivot has a zero row within Q: it is
    skipped, and its row only rescales.

    Returns (rows, skipped, prev): the rows left, dense, which are the last
    pivot taken times the Schur complement of the pivots; the skipped rows,
    over the columns still to come; and the last pivot prev, the
    determinant of Q over the pivots taken (1 if none).
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
    rows = upper
    skipped = []
    prev = 1
    for _ in range(steps):
        pivot_row = rows[0]
        pk = pivot_row[0]
        if pk == 0:
            skipped = [row[1:] for row in skipped] + [pivot_row[1:]]
            rows = rows[1:]
            continue
        nxt = []
        for i in range(1, len(rows)):
            f = pivot_row[i]
            row = rows[i]
            if f:
                nxt.append([(x * pk - f * y) // prev for x, y in zip(row, pivot_row[i:])])
            elif pk != prev:
                nxt.append([x * pk // prev for x in row])
            else:
                nxt.append(row)
        if skipped:
            skipped = [[x * pk // prev for x in row[1:]] for row in skipped]
        rows = nxt
        prev = pk
    return [[rows[min(i, j)][abs(i - j)] for j in range(len(rows))] for i in range(len(rows))], skipped, prev


def _bordered_minors(n: int, black, reds, index_pairs) -> list[int]:
    """(-1)^|I| det H[Q+I, Q+J] for each pair (I, J) of equally long tuples
    of red-column indices, with H, Q, B, ``black`` and ``reds`` as in
    ``_eliminate``.  I = J gives the crossing coefficient A_I; I = (0,),
    J = (1,) the signed 2-forest sum.

    ``_eliminate`` runs over the n - 1 rows of Q.  With P the pivots taken,
    d = det Q[P, P] (the last pivot) and Z the skipped rows (one per black
    component past the first), Sylvester's identity turns each value into
    the exact division det M[I+Z, J+Z] / d^(|I| + |Z| - 1) of a small minor
    of the trailing block M over the red columns and Z.  When the black
    subgraph is connected, Z is empty, d = A_empty and M = -K with
    K = B^T adj(Q) B.
    """
    rows, skipped, prev = _eliminate(n, black, reds, n - 1)
    # the trailing block: the red columns first, then the skipped rows
    m = [row + [z[i] for z in skipped] for i, row in enumerate(rows)]
    m += [row + [0] * len(skipped) for row in skipped]
    border = tuple(range(len(rows), len(m)))
    out = []
    for rows_i, cols_j in index_pairs:
        keep_r, keep_c = rows_i + border, cols_j + border
        if len(keep_r) > 1:
            det = _kernels.det_int([[m[i][j] for j in keep_c] for i in keep_r])
        else:  # read off: the ensemble asks for three such minors per sample
            det = m[keep_r[0]][keep_c[0]] if keep_r else 1
        value, rem = divmod((-1) ** len(rows_i) * det * prev, prev ** len(keep_r))
        if rem:
            raise InternalConsistencyError(
                f"bordered minor {rows_i}x{cols_j}: {det} not divisible by {prev}^{len(keep_r) - 1}"
            )
        out.append(value)
    return out


def _principal_minors(k, d: int) -> list[int]:
    """det K[I, I] / d^(|I| - 1) for every subset I of the rows of K, by
    bitmask (d for I empty), with K the R x R transfer-current matrix
    B^T adj(Q) B (the negated rows ``_eliminate`` leaves when it skips
    none) and d = det Q.

    One depth-first recursion over the subsets in index order, the
    principal-minor algorithm of Griffin and Tsatsomeros in Bareiss form:
    a node I holds its pivot p_I = det K[I, I] / d^(|I| - 1) and the block T
    over the indices after max(I).  The child I + {j} reads its pivot
    p_j = T_jj, and its block is (p_j T_ab - T_aj T_jb) / p_I, an exact
    division (Sylvester's identity).  K / d is positive semidefinite, so a
    zero pivot zeroes every superset: that subtree is never visited.
    """
    out = [0] * (1 << len(k))
    out[0] = d
    stack = [(0, 0, d, [row[a:] for a, row in enumerate(k)])]  # upper triangles
    while stack:
        mask, first, p, upper = stack.pop()
        for jpos, pivot_row in enumerate(upper):
            pj = pivot_row[0]
            child = mask | 1 << (first + jpos)
            out[child] = pj
            if pj and jpos + 1 < len(upper):
                block = [
                    [(pj * x - f * y) // p for x, y in zip(upper[a], pivot_row[a - jpos :])]
                    for a, f in enumerate(pivot_row[1:], jpos + 1)
                ]
                stack.append((child, first + jpos + 1, pj, block))
    return out


def _graph_minors(g: SignedWeightedGraph, reds, index_pairs) -> list[Fraction]:
    """``_bordered_minors`` of ``g``, its black weights scaled by the lcm L of
    their denominators; a value with |I| red columns has degree N - 1 - |I|
    in the weights, so it is divided by L^(N - 1 - |I|)."""
    black = g.black_edges
    scale = lcm(*(w.denominator for _, _, w in black)) if black else 1
    scaled = [(u, v, int(w * scale)) for u, v, w in black]
    values = _bordered_minors(g.n, scaled, reds, index_pairs)
    return [
        Fraction(x) / Fraction(scale) ** (g.n - 1 - len(rows_i))
        for x, (rows_i, _) in zip(values, index_pairs)
    ]


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
