"""Graph minors and the exhaustive spanning-tree / 2-forest enumerations.

These are the brute-force oracles the test suite checks the exact core
against, and the reference routes of ``discriminants.forest_sum`` and
``discriminants.wildcard_forest_sum``.  They are exponential, so no CLI
subcommand imports this module: it loads with the package's exported
names (``signedlap.minor``, ``signedlap.two_forests``, ...) or on first
use inside those two reference routes.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence

from .errors import InputError
from .graph import ORACLE_MAX_VERTICES, SignedWeightedGraph, _UnionFind, is_connected

_ORACLE_MAX_SUBSETS = 4_000_000


# ---------------------------------------------------------------------------
# Deletion / contraction


class MinorResult(NamedTuple):
    """Internal record of a deletion/contraction pass.

    red_map[old_red_index] = new red index, or None if the edge became a loop
    or was merged away.  merged_positions flags new-graph edge positions whose
    weight is a sum of two or more original edges.
    """

    graph: SignedWeightedGraph
    red_map: dict[int, int | None]
    merged_positions: frozenset[int] = frozenset()


def minor_with_info(
    g: SignedWeightedGraph,
    contract: Iterable[int],
    delete: Iterable[int],
) -> MinorResult:
    """Contract / delete red edges by red index (0-based).

    Contraction identifies endpoints simultaneously (union-find over the whole
    contract set), sums weights of parallel survivors, drops self-loops and
    exact-zero merged weights.  Surviving edges keep the order of their first
    appearance in the original sequence.
    """
    contract = frozenset(contract)
    delete = frozenset(delete)
    if contract & delete:
        raise InputError(f"contract and delete sets overlap: {sorted(contract & delete)}")
    reds = g.red_indices
    r = len(reds)
    for idx in contract | delete:
        if not (isinstance(idx, int) and 0 <= idx < r):
            raise InputError(f"red index {idx!r} out of range 0..{r - 1}")

    uf = _UnionFind(g.n)
    for ri in contract:
        u, v, _ = g.edges[reds[ri]]
        uf.union(u, v)
    # classes numbered by their least member: roots in first-appearance order
    new_id: dict[int, int] = {}
    vmap = [new_id.setdefault(uf.find(v), len(new_id)) for v in range(g.n)]

    removed = {reds[ri] for ri in contract | delete}
    acc: dict[tuple[int, int], Fraction] = {}
    first_pos: dict[tuple[int, int], int] = {}
    members: dict[tuple[int, int], list[int]] = {}
    for pos, (u, v, w) in enumerate(g.edges):
        if pos in removed:
            continue
        a, b = vmap[u], vmap[v]
        if a == b:
            continue  # self-loop after contraction: contributes nothing
        key = (a, b) if a < b else (b, a)
        if key in acc:
            acc[key] += w
        else:
            acc[key] = w
            first_pos[key] = pos
        members.setdefault(key, []).append(pos)

    kept = sorted((k for k, w in acc.items() if w != 0), key=lambda k: first_pos[k])
    new_edges = tuple((k[0], k[1], acc[k]) for k in kept)
    new_graph = SignedWeightedGraph(len(new_id), new_edges)

    pos_of = {k: i for i, k in enumerate(kept)}
    merged = frozenset(pos_of[k] for k in kept if len(members[k]) > 1)
    new_reds = new_graph.red_indices
    red_pos_to_idx = {p: i for i, p in enumerate(new_reds)}
    red_map: dict[int, int | None] = {}
    for old_idx, pos in enumerate(reds):
        if pos in removed:
            continue
        u, v, _ = g.edges[pos]
        a, b = vmap[u], vmap[v]
        if a == b:
            red_map[old_idx] = None
            continue
        key = (a, b) if a < b else (b, a)
        new_pos = pos_of.get(key)
        if new_pos is None or new_graph.edges[new_pos][2] >= 0:
            red_map[old_idx] = None  # merged away or sign flipped by a merge
        else:
            red_map[old_idx] = red_pos_to_idx[new_pos]
    return MinorResult(new_graph, red_map, merged)


def minor(g: SignedWeightedGraph, contract: Iterable[int], delete: Iterable[int]) -> SignedWeightedGraph:
    """Graph minor: contract the red edges in ``contract`` (by red index),
    delete those in ``delete``; the sets must be disjoint."""
    return minor_with_info(g, contract, delete).graph


def pairs_form_forest(n: int, pairs: Iterable[tuple[int, int]]) -> bool:
    """Whether the edges (u, v) on vertices 0..n-1 form a forest."""
    uf = _UnionFind(n)
    return all(uf.union(u, v) for u, v in pairs)


def red_subset_is_forest(g: SignedWeightedGraph, indices: Iterable[int]) -> bool:
    """Whether the given red edges form a forest.  A cyclic subset can never
    lie inside a spanning tree, so its crossing coefficient is zero."""
    reds = g.red_edges
    return pairs_form_forest(g.n, (reds[ri][:2] for ri in indices))


# ---------------------------------------------------------------------------
# Spanning tree / 2-forest enumeration (oracles)


class SpanningTree(NamedTuple):
    edge_indices: tuple[int, ...]
    pi: Fraction        # product over all edge weights in the tree
    pi_black: Fraction  # product over black edge weights only


class TwoForest(NamedTuple):
    edge_indices: tuple[int, ...]
    parts: tuple[frozenset[int], frozenset[int]]
    epsilon: int
    pi: Fraction


def _check_oracle_size(g: SignedWeightedGraph):
    if g.n > ORACLE_MAX_VERTICES:
        raise InputError(
            f"enumeration oracle limited to {ORACLE_MAX_VERTICES} vertices (got {g.n})"
        )


def spanning_trees(g: SignedWeightedGraph) -> list[SpanningTree]:
    """Exhaustive, duplicate-free spanning tree enumeration.

    Backtracks over the edge sequence with union-find state and prunes any
    branch whose remaining edges cannot reconnect the current partition.
    Disconnected input yields the empty list.
    """
    _check_oracle_size(g)
    n, edges = g.n, g.edges
    one = Fraction(1)
    if n == 1:
        return [SpanningTree((), one, one)]
    if not is_connected(g):
        return []
    m = len(edges)
    out: list[SpanningTree] = []
    chosen: list[int] = []

    def find(parent: list[int], x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def rec(i: int, parent: list[int], ncomp: int):
        if ncomp == 1:
            pi = one
            pib = one
            for e in chosen:
                w = edges[e][2]
                pi *= w
                if w > 0:
                    pib *= w
            out.append(SpanningTree(tuple(chosen), pi, pib))
            return
        if i == m:
            return
        u, v, _ = edges[i]
        ru, rv = find(parent, u), find(parent, v)
        if ru != rv:
            p2 = parent.copy()
            p2[ru] = rv
            chosen.append(i)
            rec(i + 1, p2, ncomp - 1)
            chosen.pop()
        # exclude edge i only if the rest can still connect everything
        p3 = parent.copy()
        nc = ncomp
        for j in range(i + 1, m):
            a, b, _ = edges[j]
            ra, rb = find(p3, a), find(p3, b)
            if ra != rb:
                p3[ra] = rb
                nc -= 1
                if nc == 1:
                    break
        if nc == 1:
            rec(i + 1, parent, ncomp)

    rec(0, list(range(n)), n)
    return out


def two_forests(
    g: SignedWeightedGraph,
    u_pair: Sequence[int],
    w_pair: Sequence[int],
) -> list[TwoForest]:
    """All spanning 2-forests in which each tree holds exactly one vertex of
    ``u_pair`` and one of ``w_pair`` (the pairs may overlap as vertex sets).

    epsilon is the sign of the matching permutation under the given
    enumeration orders: +1 when u_pair[0] and w_pair[0] share a component.
    """
    _check_oracle_size(g)
    if len(set(u_pair)) != 2 or len(set(w_pair)) != 2:
        raise InputError("u_pair and w_pair must each contain two distinct vertices")
    n, edges = g.n, g.edges
    m = len(edges)
    k = n - 2
    if k < 0 or k > m:
        return []
    if math.comb(m, k) > _ORACLE_MAX_SUBSETS:
        raise InputError(f"2-forest enumeration too large: C({m},{k}) subsets")
    u0, u1 = u_pair
    w0, w1 = w_pair
    uset = {u0, u1}
    wset = {w0, w1}
    out: list[TwoForest] = []
    for subset in itertools.combinations(range(m), k):
        uf = _UnionFind(n)
        ok = True
        for e in subset:
            a, b, _ = edges[e]
            if not uf.union(a, b):
                ok = False
                break
        if not ok:
            continue
        # acyclic with n-2 edges => exactly 2 components
        comp: dict[int, list[int]] = {}
        for v in range(n):
            comp.setdefault(uf.find(v), []).append(v)
        parts = [frozenset(vs) for vs in comp.values()]
        p0, p1 = sorted(parts, key=min)
        if len(uset & p0) != 1 or len(wset & p0) != 1:
            continue
        eps = 1 if (u0 in p0) == (w0 in p0) else -1
        pi = Fraction(1)
        for e in subset:
            pi *= edges[e][2]
        out.append(TwoForest(subset, (p0, p1), eps, pi))
    return out
