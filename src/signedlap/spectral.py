"""Laplacians, exact inertia, float eigenvalues, and the spanning-tree sum.

The Laplacian convention is off-diagonal entry = edge weight, diagonal =
minus the row sum, so an all-positive graph gives a negative-semidefinite
matrix whose kernel contains the all-ones vector.  The spectral index is the
triple (n_minus, n_zero, n_plus).
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import NamedTuple, Sequence

import numpy as np

from . import _kernels
from .errors import InputError
from .graph import SignedWeightedGraph, component_counts, is_connected


class SpectralIndex(NamedTuple):
    """Eigenvalue sign counts (n_minus, n_zero, n_plus)."""

    n_minus: int
    n_zero: int
    n_plus: int


class LaplacianMatrix:
    """Symmetric matrix of exact rationals with a float shadow for eigensolves."""

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

    def to_float(self) -> np.ndarray:
        return np.array([[float(x) for x in row] for row in self.rows], dtype=np.float64)

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
    return LaplacianMatrix(a)


def eigenvalues(m) -> np.ndarray:
    """Ascending eigenvalues of a symmetric matrix (float path)."""
    if isinstance(m, LaplacianMatrix):
        arr = m.to_float()
    else:
        arr = np.asarray(m, dtype=np.float64)
    return np.linalg.eigvalsh(arr)


def inertia(m) -> SpectralIndex:
    """Exact inertia by symmetric congruence elimination (Sylvester).

    Diagonal pivots are eliminated first; when every remaining diagonal entry
    is zero but some off-diagonal b is not, the 2x2 block [[0,b],[b,0]]
    contributes one positive and one negative eigenvalue and is removed by a
    Schur complement.  No floating point anywhere.
    """
    rows = _as_rows(m)
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise InputError("matrix must be square")
    for i in range(n):
        for j in range(i + 1, n):
            if rows[i][j] != rows[j][i]:
                raise InputError(f"matrix not symmetric at ({i},{j})")
    a = [list(row) for row in rows]
    active = list(range(n))
    n_plus = n_minus = n_zero = 0
    while active:
        pivot = next((k for k in active if a[k][k] != 0), None)
        if pivot is not None:
            d = a[pivot][pivot]
            if d > 0:
                n_plus += 1
            else:
                n_minus += 1
            active.remove(pivot)
            col = {i: a[i][pivot] for i in active}
            for i in active:
                if col[i] == 0:
                    continue
                f = col[i] / d
                ai, ap = a[i], a[pivot]
                for j in active:
                    ai[j] -= f * ap[j]
            continue
        pair = None
        for p in active:
            for q in active:
                if q > p and a[p][q] != 0:
                    pair = (p, q)
                    break
            if pair:
                break
        if pair is None:
            n_zero += len(active)
            break
        p, q = pair
        b = a[p][q]
        n_plus += 1
        n_minus += 1
        active.remove(p)
        active.remove(q)
        colp = {i: a[i][p] for i in active}
        colq = {i: a[i][q] for i in active}
        for i in active:
            ai = a[i]
            for j in active:
                ai[j] -= (colp[i] * a[q][j] + colq[i] * a[p][j]) / b
    return SpectralIndex(n_minus, n_zero, n_plus)


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
