"""Graph minors and the exhaustive spanning-tree / 2-forest enumerations.

These are the brute-force oracles the test suite checks the exact core
against, and the reference routes of ``discriminants.forest_sum`` and
``discriminants.wildcard_forest_sum``.  They are exponential, so no CLI
subcommand imports this module: it loads with the package's exported
names (``signedlap.minor``, ``signedlap.two_forests``, ...) or on first
use inside those two reference routes.

One backtracker (``_spanning_edge_sets``) enumerates both: a spanning
2-forest that keeps two vertices apart is a spanning tree of the graph with
the two merged.  Every red index and vertex a caller names is read by
``graph._indices``: an int, not a bool, in range; a repeated red index
names the same edge.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Iterator, NamedTuple, Sequence

from .errors import InputError
from .graph import ORACLE_MAX_VERTICES, SignedWeightedGraph, _indices, _is_int, _UnionFind

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
    reds = g.red_indices
    contract = frozenset(_indices(contract, len(reds), "red index"))
    delete = frozenset(_indices(delete, len(reds), "red index"))
    if contract & delete:
        raise InputError(f"contract and delete sets overlap: {sorted(contract & delete)}")

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
    """Whether the edges (u, v) on vertices 0..n-1, each pair read by
    ``_indices`` and two vertices, form a forest: each lowers the count of
    components by one.  ``n`` is read as ``SignedWeightedGraph`` reads it."""
    if not _is_int(n) or n < 1:
        raise InputError(f"vertex count must be a positive integer, got {n!r}")
    try:
        pairs = tuple(pairs)
    except TypeError:
        raise InputError(f"pair list must be iterable, got {pairs!r}") from None
    ends = [_indices(pair, n, "vertex") for pair in pairs]
    if any(len(pair) != 2 for pair in ends):
        raise InputError("each pair must hold two vertices")
    return _UnionFind(n).merge((*pair, None) for pair in ends) == n - len(ends)


def red_subset_is_forest(g: SignedWeightedGraph, indices: Iterable[int]) -> bool:
    """Whether the given red edges, a repeat naming the same edge, form a
    forest: each lowers the count of components by one.  A cyclic subset
    can never lie inside a spanning tree, so its crossing coefficient is 0."""
    reds = g.red_edges
    indices = set(_indices(indices, len(reds), "red index"))
    return _UnionFind(g.n).merge(reds[ri] for ri in indices) == g.n - len(indices)


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


def _spanning_edge_sets(ends: Sequence[tuple[int, int]], parent: list[int]) -> Iterator[tuple[int, ...]]:
    """Every edge set that joins the classes of the union-find ``parent``
    (a root is its own parent) into one without a cycle, as its positions
    in ``ends`` ascending, in ``itertools.combinations`` order: with every
    vertex its own class, the spanning trees.

    Backtracks over the edge sequence with union-find state, including each
    edge before leaving it out, and leaves an edge out only if the rest can
    still join the current classes.  A loop is never included, and nothing
    is yielded when the edges cannot join the classes.
    """
    chosen: list[int] = []

    def find(parent: list[int], x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def connects(i: int, parent: list[int], ncomp: int) -> bool:
        """Whether edges i.. join the ncomp classes of ``parent`` into one."""
        p = parent.copy()
        for a, b in ends[i:]:
            if ncomp == 1:
                break
            ra, rb = find(p, a), find(p, b)
            if ra != rb:
                p[ra] = rb
                ncomp -= 1
        return ncomp == 1

    def rec(i: int, parent: list[int], ncomp: int):
        if ncomp == 1:
            yield tuple(chosen)
            return
        u, v = ends[i]  # there is an edge i: the classes can still be joined
        ru, rv = find(parent, u), find(parent, v)
        if ru != rv:
            p2 = parent.copy()
            p2[ru] = rv
            chosen.append(i)
            yield from rec(i + 1, p2, ncomp - 1)
            chosen.pop()
        if connects(i + 1, parent, ncomp):
            yield from rec(i + 1, parent, ncomp)

    ncomp = sum(p == v for v, p in enumerate(parent))
    if connects(0, parent, ncomp):
        yield from rec(0, parent, ncomp)


def spanning_trees(g: SignedWeightedGraph) -> list[SpanningTree]:
    """Exhaustive, duplicate-free spanning tree enumeration
    (``_spanning_edge_sets``).  Disconnected input yields the empty list."""
    _check_oracle_size(g)
    one = Fraction(1)
    out: list[SpanningTree] = []
    for tree in _spanning_edge_sets([(u, v) for u, v, _ in g.edges], list(range(g.n))):
        weights = [g.edges[e][2] for e in tree]
        pi_black = math.prod((w for w in weights if w > 0), start=one)
        out.append(SpanningTree(tree, math.prod(weights, start=one), pi_black))
    return out


def two_forests(
    g: SignedWeightedGraph,
    u_pair: Sequence[int],
    w_pair: Sequence[int],
) -> list[TwoForest]:
    """All spanning 2-forests in which each tree holds exactly one vertex of
    ``u_pair`` and one of ``w_pair`` (the pairs may overlap as vertex sets),
    in ``itertools.combinations`` order of their edge positions.

    ``_spanning_edge_sets`` from u_pair[0] and u_pair[1] in one class gives
    the spanning 2-forests that keep the two apart, which are the spanning
    trees of ``g`` with the two merged; those that keep w_pair apart too
    are kept.  epsilon is the sign of the matching permutation under the
    given enumeration orders: +1 when u_pair[0] and w_pair[0] share a
    component.
    """
    _check_oracle_size(g)
    u_pair, w_pair = _indices(u_pair, g.n, "vertex"), _indices(w_pair, g.n, "vertex")
    if any(len(pair) != 2 or pair[0] == pair[1] for pair in (u_pair, w_pair)):
        raise InputError("u_pair and w_pair must each contain two distinct vertices")
    n, edges = g.n, g.edges
    m = len(edges)
    if math.comb(m, n - 2) > _ORACLE_MAX_SUBSETS:
        raise InputError(f"2-forest enumeration too large: C({m},{n - 2}) subsets")
    (u0, u1), (w0, w1) = u_pair, w_pair
    parent = list(range(n))
    parent[u1] = u0
    everything = frozenset(range(n))
    out: list[TwoForest] = []
    for subset in _spanning_edge_sets([(u, v) for u, v, _ in edges], parent):
        uf = _UnionFind(n)
        for e in subset:
            uf.union(*edges[e][:2])
        if uf.find(w0) == uf.find(w1):
            continue
        zero = uf.find(0)
        p0 = frozenset(v for v in range(n) if uf.find(v) == zero)  # the parts ordered by least vertex
        eps = 1 if (u0 in p0) == (w0 in p0) else -1
        pi = math.prod((edges[e][2] for e in subset), start=Fraction(1))
        out.append(TwoForest(subset, (p0, everything - p0), eps, pi))
    return out
