"""Signed weighted graphs with exact rational weights.

Edges carry nonzero Fractions; the sign encodes the coloring (positive =
black, negative = red).  Red edges are indexed 0..R-1 by their position in
the edge sequence, never by weight magnitude.  Also the JSON wire format,
the package's one JSON reader and writer, its file I/O and the component
counts.  The minors and the exhaustive spanning-tree / 2-forest
enumerations, the test suite's brute-force oracles, live in ``oracles``,
which no CLI subcommand loads; ``minor`` and ``two_forests`` still resolve
here, on first use, for code that looks them up in this module.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import re
from collections.abc import Iterable
from fractions import Fraction
from functools import cached_property
from numbers import Rational, Real

from .errors import InputError

MAX_VERTICES = 1 << 12  # of a ``SignedWeightedGraph``
# Enumeration oracles (``oracles``) are exponential; they are meant for
# corpus-sized inputs.
ORACLE_MAX_VERTICES = 12

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


def _exact(x) -> Fraction:
    """``Fraction(x)`` of a rational given exactly, such as an int, a
    Fraction or a string (read by ``_rational``); a bool or a float
    (numpy's too) is a TypeError, not the rational it happens to equal."""
    if isinstance(x, str):
        return _rational(x)
    if isinstance(x, bool) or isinstance(x, Real) and not isinstance(x, Rational):
        raise TypeError(f"{x!r} is a {type(x).__name__}, not an exact rational")
    return Fraction(x)


def _rationals(xs, what: str, item=_exact) -> tuple:
    """``tuple(map(item, xs))``, ``item`` ``_exact`` or built on Fraction:
    the one converter of the rationals a caller passes in.  Anything that is
    not a finite rational (by default also a bool or a float), or an ``xs``
    not iterable, is an InputError naming ``what``."""
    try:
        return tuple(map(item, xs))
    except (TypeError, ValueError, OverflowError, ZeroDivisionError) as exc:
        raise InputError(f"{what} must be finite rationals: {exc}") from None


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


def __getattr__(name):
    """``minor`` and ``two_forests``, which moved to ``oracles``, resolved
    from there on first use (PEP 562): code that looks them up in this
    module, such as a tracer patching them by module and name, still finds
    them, and no module that imports ``graph`` loads the enumerations."""
    if name in ("minor", "two_forests"):
        from . import oracles

        return getattr(oracles, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
