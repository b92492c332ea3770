"""Signed weighted graphs with exact rational weights.

Edges carry nonzero Fractions; the sign encodes the coloring (positive =
black, negative = red).  Red edges are indexed 0..R-1 by their position in
the edge sequence, never by weight magnitude.  Also provides deletion /
contraction minors and the exhaustive spanning-tree / 2-forest enumerations
used as brute-force oracles throughout the test suite.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import re
from fractions import Fraction
from functools import cached_property
from typing import Iterable, NamedTuple, Sequence

from .errors import InputError

MAX_VERTICES = 1 << 12  # of a ``SignedWeightedGraph``
# Enumeration oracles are exponential; they are meant for corpus-sized inputs.
ORACLE_MAX_VERTICES = 12
_ORACLE_MAX_SUBSETS = 4_000_000

Edge = tuple[int, int, Fraction]


def _is_int(x) -> bool:
    """An int and not a bool: JSON true and false decode to bools, which
    Python counts as ints, and are rejected rather than read as 1 and 0."""
    return isinstance(x, int) and not isinstance(x, bool)


_INTEGER_PAIR = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def _rational(s: str) -> Fraction:
    """``Fraction(s)``, the package's one reader of rational strings.

    ``-?digits`` and ``-?digits/digits`` in ASCII digits are read as
    ``Fraction(int(p), int(q))``, which skips the general pattern and the
    decimal and exponent steps of ``Fraction(s)``.  Every other string, and
    such a form that ``int`` or ``Fraction`` cannot take (a zero
    denominator, more digits than Python converts), goes to ``Fraction(s)``
    itself, so that any error is the one it raises.
    """
    m = _INTEGER_PAIR.fullmatch(s)
    if m:
        p, q = m.groups()
        try:
            return Fraction(int(p)) if q is None else Fraction(int(p), int(q))
        except (ValueError, ZeroDivisionError):
            pass
    return Fraction(s)


def _strings(xs) -> list[str]:
    """``[str(x) for x in xs]``, the package's one writer of rationals: one
    past Python's int-to-string digit limit is an InputError naming the
    limit, as such a number read from JSON is (``_decode_json``)."""
    try:
        return list(map(str, xs))
    except ValueError as exc:  # int()'s digit limit
        raise InputError(f"a result holds a number too long to write: {exc}") from None


def _as_weight(w) -> Fraction:
    if isinstance(w, str):
        try:
            return _rational(w)
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"cannot parse weight {w!r} as a rational") from exc
    if isinstance(w, Fraction):
        return w
    if _is_int(w):
        return Fraction(w)
    raise InputError(f"weight must be a rational string or integer, got {type(w).__name__}")


class _Frozen:
    """Base of the value classes whose constructor validates (the graph, the
    crossing polynomial, a wildcard, the ensemble config).

    ``__init__`` sets the attributes once, through the instance ``__dict__``;
    after that they cannot be assigned or deleted.  Instances are equal and
    hash alike when their class and the attributes named in ``_fields``
    are, and print as ``Name(field=value, ...)``.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class SignedWeightedGraph(_Frozen):
    """Immutable simple graph on vertices 0..n-1 with signed rational weights.

    The edges are classified by sign once, on construction; the component
    counts and the integer black weights are computed once, on first use.
    Graphs are equal by ``n`` and ``edges``.

    n is at most ``MAX_VERTICES`` = 2^12, sized from the dense routes:
    ``spectral._eliminate``'s upper triangle holds about N^2 / 2 list
    slots, 2^23 (64 MiB of 8-byte slots) at the bound.
    """

    _fields = ("n", "edges")
    n: int
    edges: tuple[Edge, ...]
    # edge-sequence positions of the red (negative-weight) edges
    red_indices: tuple[int, ...]
    red_edges: tuple[Edge, ...]
    black_edges: tuple[Edge, ...]

    def __init__(self, n: int, edges: Iterable[Edge]):
        if not _is_int(n) or n < 1:
            raise InputError(f"vertex count must be a positive integer, got {n!r}")
        if n > MAX_VERTICES:
            raise InputError(f"vertex count must be at most {MAX_VERTICES}")
        seen: set[tuple[int, int]] = set()
        norm: list[Edge] = []
        red_indices: list[int] = []
        red: list[Edge] = []
        black: list[Edge] = []
        for pos, (u, v, w) in enumerate(edges):
            if not (_is_int(u) and _is_int(v)):
                raise InputError(f"edge {pos}: endpoints must be integers")
            if not (0 <= u < n and 0 <= v < n):
                raise InputError(f"edge {pos} ({u},{v}): vertex id out of range 0..{n - 1}")
            if u == v:
                raise InputError(f"edge {pos} ({u},{v}): self-loop")
            w = _as_weight(w)
            if w == 0:
                raise InputError(f"edge {pos} ({u},{v}): zero weight (a zero weight means no edge)")
            if u > v:
                u, v = v, u
            if (u, v) in seen:
                raise InputError(f"edge {pos} ({u},{v}): duplicate edge")
            seen.add((u, v))
            edge = (u, v, w)
            norm.append(edge)
            if w.numerator < 0:
                red_indices.append(pos)
                red.append(edge)
            else:
                black.append(edge)
        vars(self).update(
            n=n,
            edges=tuple(norm),
            red_indices=tuple(red_indices),
            red_edges=tuple(red),
            black_edges=tuple(black),
        )

    @cached_property
    def _counts(self) -> tuple[int, int, int]:
        uf = _UnionFind(self.n)
        plus = uf.merge(self.black_edges)
        return uf.merge(self.red_edges), plus, _UnionFind(self.n).merge(self.red_edges)

    @cached_property
    def _black_ints(self) -> tuple[int, tuple[tuple[int, int, int], ...]]:
        """The lcm L of the black-weight denominators and the black edges
        (u, v, L*w), whose weights are then positive integers."""
        scale = math.lcm(*(w.denominator for _, _, w in self.black_edges))
        return scale, tuple((u, v, w.numerator * (scale // w.denominator)) for u, v, w in self.black_edges)

    @property
    def red_count(self) -> int:
        return len(self.red_edges)

    @property
    def black_count(self) -> int:
        return len(self.black_edges)

    def canonical_key(self):
        """Hashable structural identity (vertex count + sorted edge list)."""
        return (self.n, tuple(sorted(self.edges)))


def _decode_json(text: str | bytes, what: str):
    """The package's one JSON reader: ``text``, bytes as strict UTF-8.  Bytes
    that are not UTF-8, malformed JSON (a byte order mark too: it decodes to
    U+FEFF), too deep nesting and a number with more digits than Python
    converts to an int are InputErrors naming ``what``."""
    try:
        return json.loads(text.decode("utf-8") if isinstance(text, bytes) else text)
    except UnicodeDecodeError as exc:
        raise InputError(f"{what} is not text: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"malformed {what}: {exc}") from exc
    except RecursionError as exc:
        raise InputError(f"{what} is nested too deeply") from exc
    except ValueError as exc:  # int()'s digit limit, which json.loads does not map
        raise InputError(f"{what} holds a number too long to read: {exc}") from exc


class _Counts(list):
    """A list of ints, mostly zeros, that ``_json_text`` writes in one join:
    the ensemble summary's histogram bins."""

    __slots__ = ()


_encode_string = json.encoder.encode_basestring_ascii


def _json_text(value, indent: str = "", sort_keys: bool = False) -> str:
    """``value`` as ``json.dumps(value, indent=2, sort_keys=sort_keys)``
    writes it when nested at ``indent``: the package's one JSON writer.
    Dicts with string keys, lists, strings, ints, finite floats, None and
    the bools are written here, strings through the C encoder that ``json``
    itself calls and numbers by ``int.__repr__`` and ``float.__repr__``; a
    ``_Counts`` is one join over "0"s with only its nonzero entries
    formatted.  Anything else, such as a non-finite float, goes to
    ``json.dumps``.  The pure-Python encoder that ``indent`` selects takes
    several calls per value."""
    kind = type(value)
    if kind is str:
        return _encode_string(value)
    if kind is int:
        return int.__repr__(value)
    if kind is float and math.isfinite(value):
        return float.__repr__(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    inner = indent + "  "
    # strings, most of the values, are encoded here rather than by a call
    if kind is dict and all(type(key) is str for key in value):
        brackets = "{}"
        items = [
            f"{_encode_string(key)}: {_encode_string(item) if type(item) is str else _json_text(item, inner, sort_keys)}"
            for key, item in (sorted(value.items()) if sort_keys else value.items())
        ]
    elif kind is list:
        brackets = "[]"
        items = [_encode_string(item) if type(item) is str else _json_text(item, inner, sort_keys) for item in value]
    elif kind is _Counts:
        brackets, items = "[]", ["0"] * len(value)
        for i in itertools.compress(range(len(value)), value):
            items[i] = int.__repr__(value[i])
    else:
        return json.dumps(value, indent=2, sort_keys=sort_keys).replace("\n", "\n" + indent)
    if not items:
        return brackets
    return f"{brackets[0]}\n{inner}" + f",\n{inner}".join(items) + f"\n{indent}{brackets[1]}"


_READ_SIZE = 1 << 16


def _read_file(path) -> bytes:
    """The bytes of the file at ``path``, read with ``os.read`` until the end:
    every file the package reads.  An OSError names ``path`` as ``open``
    names it; ``os.read`` on a directory raises EISDIR without the name, so
    that one is raised again with it."""
    fd = os.open(path, os.O_RDONLY)
    try:
        chunks = []
        while chunk := os.read(fd, _READ_SIZE):
            chunks.append(chunk)
    except IsADirectoryError as exc:
        raise IsADirectoryError(exc.errno, exc.strerror, os.fspath(path)) from None
    finally:
        os.close(fd)
    return b"".join(chunks)


def _write_file(path, chunks) -> None:
    """Create or truncate the file at ``path`` as ``open(path, "wb")`` does,
    mode 0o666 less the umask, and write the byte strings of ``chunks`` to
    it in order, each as it comes, with ``os.write`` until all of it is
    written: every file the package writes.  The file is closed however
    ``chunks`` ends, keeping what was written."""
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o666)
    try:
        for chunk in chunks:
            view = memoryview(chunk)
            while view:
                view = view[os.write(fd, view) :]
    finally:
        os.close(fd)


_EDGE_KEYS = frozenset(("u", "v", "w"))


def parse_graph(document) -> SignedWeightedGraph:
    """Build a graph from the JSON wire format.

    ``{"n": <int>, "edges": [{"u": <int>, "v": <int>, "w": "<p>/<q>" | "<p>"}, ...]}``

    Weights are exact rational strings (integers also accepted); the sign of
    the weight determines the color.  ``document`` may be an already-decoded
    dict or the JSON text, ``str`` or UTF-8 ``bytes`` with no byte order mark,
    decoded as a CLI input file is (``_decode_json``).
    """
    if isinstance(document, (str, bytes)):
        document = _decode_json(document, "graph JSON")
    if not isinstance(document, dict):
        raise InputError("graph document must be a JSON object")
    if "n" not in document or "edges" not in document:
        raise InputError('graph document needs keys "n" and "edges"')
    n = document["n"]
    if not _is_int(n):
        raise InputError('"n" must be an integer')
    raw = document["edges"]
    if not isinstance(raw, list):
        raise InputError('"edges" must be a list')
    edges = []
    for pos, item in enumerate(raw):
        if not isinstance(item, dict) or not item.keys() >= _EDGE_KEYS:
            raise InputError(f'edge {pos}: each edge needs keys "u", "v", "w"')
        if isinstance(item["w"], float):
            raise InputError(f"edge {pos}: weights must be exact rational strings, not floats")
        edges.append((item["u"], item["v"], item["w"]))
    return SignedWeightedGraph(n, tuple(edges))


def graph_to_dict(g: SignedWeightedGraph) -> dict:
    return {
        "n": g.n,
        "edges": [{"u": u, "v": v, "w": str(w)} for u, v, w in g.edges],
    }


# ---------------------------------------------------------------------------
# Connectivity


class _UnionFind:
    __slots__ = ("parent", "count")

    def __init__(self, n: int):
        self.parent = list(range(n))
        self.count = n

    def find(self, x: int) -> int:
        p = self.parent
        root = x
        while p[root] != root:
            root = p[root]
        while p[x] != root:
            p[x], x = root, p[x]
        return root

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[ra] = rb
        self.count -= 1
        return True

    def merge(self, edges) -> int:
        """Union the endpoints of every edge (u, v, w) of ``edges``, the finds
        inlined (with path halving), and return the component count."""
        p = self.parent
        count = self.count
        for u, v, _ in edges:
            while p[u] != u:
                p[u] = p[p[u]]
                u = p[u]
            while p[v] != v:
                p[v] = p[p[v]]
                v = p[v]
            if u != v:
                p[u] = v
                count -= 1
        self.count = count
        return count


def component_counts(g: SignedWeightedGraph) -> tuple[int, int, int]:
    """(c(G), c(G_+), c(G_-)): component counts of the full graph, the
    black-only subgraph and the red-only subgraph, all over the full vertex
    set (isolated vertices count)."""
    return g._counts


def is_connected(g: SignedWeightedGraph) -> bool:
    return g._counts[0] == 1


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
