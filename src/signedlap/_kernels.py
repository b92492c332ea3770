"""Integer kernels: exact determinants, BFS distances, component counts.

All three are plain Python over Python ints and adjacency lists.  On the
matrix sizes ``det_int`` meets (minors of a few to a few dozen rows) the
fraction-free elimination over Python ints is faster than an int64 numpy
elimination, needs no overflow guard and is exact for any entry size.
``det_int`` is the general elimination, with row swaps.  It serves
``spectral.det_rational`` and the integer cycle Gram minor of the
``discriminants.cycle_basis_minor`` oracle, and no CLI path: every symmetric
elimination (``inertia``, the crossing core, the ray and the graph index)
runs on ``spectral._schur``.  The ensemble runs that update stacked in
int64 (``ensemble._stacked_minors``) and its BFS as float32 products with
the nonzero pattern of its int64 Laplacian stack (``ensemble._hops``);
``bfs_distances`` and ``component_count`` serve only ``ensemble.classify``,
the reference that BFS is tested against.
"""

from __future__ import annotations

from collections import deque


def backend() -> str:
    """Name of the kernel implementation; there is only the pure-Python one."""
    return "python"


def det_int(rows) -> int:
    """Exact determinant of a square integer matrix (sequence of rows).

    Fraction-free (Bareiss) elimination with row swaps on zero pivots; every
    division by the previous pivot is exact.  It serves
    ``spectral.det_rational`` and the ``discriminants.cycle_basis_minor``
    oracle; no CLI path calls it.
    """
    a = [list(r) for r in rows]
    n = len(a)
    if n == 0:
        return 1
    sign = prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for r in range(k + 1, n):
                if a[r][k] != 0:
                    a[k], a[r] = a[r], a[k]
                    sign = -sign
                    break
            else:
                return 0
        rk = a[k]
        pk = rk[k]
        tail = rk[k + 1 :]
        for i in range(k + 1, n):
            ri = a[i]
            f = ri[k]
            if f:
                ri[k + 1 :] = [(x * pk - f * y) // prev for x, y in zip(ri[k + 1 :], tail)]
            elif pk != prev:
                ri[k + 1 :] = [x * pk // prev for x in ri[k + 1 :]]
        prev = pk
    return sign * a[n - 1][n - 1]


def bfs_distances(adj: list[list[int]], source: int) -> list[int]:
    """Hop distances from ``source`` given adjacency lists ``adj[v]``.

    Unreachable vertices get -1.
    """
    dist = [-1] * len(adj)
    dist[source] = 0
    queue = deque((source,))
    while queue:
        u = queue.popleft()
        du = dist[u] + 1
        for v in adj[u]:
            if dist[v] < 0:
                dist[v] = du
                queue.append(v)
    return dist


def component_count(adj: list[list[int]]) -> int:
    """Number of connected components given adjacency lists ``adj[v]``."""
    seen = [False] * len(adj)
    comps = 0
    for s in range(len(adj)):
        if seen[s]:
            continue
        comps += 1
        seen[s] = True
        stack = [s]
        while stack:
            for v in adj[stack.pop()]:
                if not seen[v]:
                    seen[v] = True
                    stack.append(v)
    return comps
