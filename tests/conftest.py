"""Shared builders: named graphs, seeded random graphs, isomorphism-reduced
exhaustive corpora."""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from signedlap import SignedWeightedGraph, SpectralIndex, _kernels, minor, tree_sum
from signedlap import polyroots as pr
from signedlap.graph import pairs_form_forest, red_subset_is_forest
from signedlap.spectral import LaplacianMatrix, _eliminate


def swg(n, edges) -> SignedWeightedGraph:
    return SignedWeightedGraph(n, tuple((u, v, Fraction(w)) for u, v, w in edges))


def assert_value(a, same, *others):
    """``a`` equals and hashes like ``same`` and differs from each of
    ``others``, and assigning or deleting any of its attributes (or a new
    one) raises AttributeError and leaves it as it was."""
    assert a == same and hash(a) == hash(same) and len({a, same}) == 1
    assert all(a != other for other in others)
    names = getattr(type(a), "_fields", ())
    assert names
    for name in (*names, "extra"):
        before = getattr(a, name, None)
        with pytest.raises(AttributeError):
            setattr(a, name, None)
        with pytest.raises(AttributeError):
            delattr(a, name)
        assert getattr(a, name, None) is before
    assert a == same


def complete_graph_edges(n):
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def kn_with_reds(n, red_pairs) -> SignedWeightedGraph:
    red = {tuple(sorted(p)) for p in red_pairs}
    edges = [(u, v, -1 if (u, v) in red else 1) for u, v in complete_graph_edges(n)]
    return swg(n, edges)


def k4_shared() -> SignedWeightedGraph:
    return kn_with_reds(4, [(0, 1), (0, 2)])


def k4_disjoint() -> SignedWeightedGraph:
    return kn_with_reds(4, [(0, 1), (2, 3)])


def triangle_one_red() -> SignedWeightedGraph:
    # blacks (0,1),(0,2); red (1,2): crossing polynomial 1 - 2t
    return swg(3, [(0, 1, 1), (0, 2, 1), (1, 2, -1)])


def triangle_chain(r) -> SignedWeightedGraph:
    """r unit-black triangles glued at cut vertices, one red edge each;
    the crossing polynomial factors as prod_i (1 - 2 t_i)."""
    edges = []
    for i in range(r):
        a, b, c = 2 * i, 2 * i + 1, 2 * i + 2
        edges += [(a, b, 1), (b, c, 1), (a, c, -1)]
    return swg(2 * r + 1, edges)


def minor_path_coefficients(g: SignedWeightedGraph) -> tuple[Fraction, ...]:
    """The 2^R crossing coefficients by the per-mask route, an oracle
    independent of the bordered elimination: A_I is the tree sum of the
    minor contracting the red edges in I and deleting the rest, and 0 when
    I is cyclic."""
    r = g.red_count
    all_red = set(range(r))
    coeffs = []
    for mask in range(1 << r):
        inside = {i for i in range(r) if mask >> i & 1}
        if red_subset_is_forest(g, inside):
            coeffs.append(tree_sum(minor(g, inside, all_red - inside)))
        else:
            coeffs.append(Fraction(0))
    return tuple(coeffs)


def reference_det(rows):
    """Cofactor expansion along the first row, independent of every
    production elimination."""
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        if rows[0][j] == 0:
            continue
        sub = [[row[k] for k in range(n) if k != j] for row in rows[1:]]
        total += (-1) ** j * rows[0][j] * reference_det(sub)
    return total


def reference_component_count(n, pairs) -> int:
    """Components of the graph on vertices 0..n-1 with edges ``pairs``, by
    union-find: a reference for ``_kernels.component_count`` and
    ``component_counts``."""
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    count = n
    for a, b in pairs:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
            count -= 1
    return count


def reference_bordered_coefficients(g: SignedWeightedGraph) -> tuple[Fraction, ...]:
    """The 2^R crossing coefficients read off the bordered elimination one
    minor per mask: an oracle for ``crossing_polynomial``, which takes
    every A_I from subset recursions.  ``_eliminate`` runs once; each forest
    mask I reads det M[I+Z, I+Z] / d^(|I| + |Z| - 1) with ``_kernels.det_int``,
    where d is its last pivot and M the trailing block at d over the red
    columns and the dropped zero rows Z, rebuilt from its records: each
    recorded red entry x at pivot level p is x * d / p there, and the Z
    diagonal is 0 (Sylvester's identity).  A cyclic mask gives 0."""
    reds = [(u, v) for u, v, _ in g.red_edges]
    r = len(reds)
    scale, black = g._black_ints
    upper, dropped, d = _eliminate(g.n, black, reds, g.n - 1)
    y = []
    for entries, level in dropped:
        assert all(x * d % level == 0 for x in entries), (g, entries, level)
        y.append([x * d // level for x in entries])
    m = [[upper[min(i, j)][abs(i - j)] for j in range(r)] + [row[i] for row in y] for i in range(r)]
    m += [row + [0] * len(y) for row in y]
    border = tuple(range(r, r + len(y)))
    coeffs = []
    for mask in range(1 << r):
        inside = tuple(i for i in range(r) if mask >> i & 1)
        if not pairs_form_forest(g.n, (reds[i] for i in inside)):
            coeffs.append(Fraction(0))
            continue
        keep = inside + border
        det = _kernels.det_int([[m[i][j] for j in keep] for i in keep])
        value, rem = divmod((-1) ** len(inside) * det * d, d ** len(keep))
        assert rem == 0, (g, inside)
        coeffs.append(Fraction(value, scale ** (g.n - 1 - len(inside))))
    return tuple(coeffs)


# ---------------------------------------------------------------------------
# Polynomials in Fraction arithmetic: an oracle for the integer pipeline of
# ``polyroots.positive_roots``.  Every division is a rational one, every
# point a Fraction and every sign a Fraction Horner evaluation; the only
# pieces shared with the code under test are ``_primitive`` (the canonical
# scaling of a factor), ``cauchy_bound`` and ``RootRecord``.

REFERENCE_WIDTH = Fraction(1, 10**30)


def reference_strip(p) -> list[Fraction]:
    p = [Fraction(c) for c in p]
    while p and p[-1] == 0:
        p.pop()
    return p


def reference_evaluate(p, x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def reference_derivative(p) -> list[Fraction]:
    return reference_strip([c * k for k, c in enumerate(p)][1:])


def reference_divmod_exact(p, q) -> tuple[list[Fraction], list[Fraction]]:
    """Polynomial division with remainder over the rationals."""
    if not q:
        raise ZeroDivisionError("polynomial division by zero")
    rem = [Fraction(c) for c in p]
    quo = [Fraction(0)] * max(0, len(p) - len(q) + 1)
    dq = len(q) - 1
    for k in range(len(rem) - 1, dq - 1, -1):
        c = rem[k] / q[-1]
        if c == 0:
            continue
        quo[k - dq] = c
        for j in range(dq + 1):
            rem[k - dq + j] -= c * q[j]
    return reference_strip(quo), reference_strip(rem)


def reference_poly_gcd(p, q) -> list[int]:
    """Primitive gcd by the Euclidean algorithm over the rationals."""
    a, b = pr._primitive(p), pr._primitive(q)
    while b:
        _, r = reference_divmod_exact(a, b)
        a, b = b, pr._primitive(r)
    return a


def reference_square_free_decomposition(p) -> list[tuple[list[int], int]]:
    """Yun's algorithm over the rationals: [(factor, multiplicity), ...] with
    primitive, positive-leading factors (constant factors dropped)."""
    p = reference_strip(p)
    if len(p) < 2:
        return []
    dp = reference_derivative(p)
    a0 = reference_poly_gcd(p, dp)
    b, _ = reference_divmod_exact(p, a0)
    c, _ = reference_divmod_exact(dp, a0)
    out = []
    i = 1
    while len(b) > 1:
        d = reference_strip([x - y for x, y in _reference_padded(c, reference_derivative(b))])
        ai = reference_poly_gcd(b, d)
        if len(ai) > 1:
            out.append((ai, i))
        b, _ = reference_divmod_exact(b, ai)
        c, _ = reference_divmod_exact(d, ai)
        i += 1
    return out


def _reference_padded(p, q):
    n = max(len(p), len(q))
    return zip(list(p) + [0] * (n - len(p)), list(q) + [0] * (n - len(q)))


def _reference_keep_sign(p) -> list[int]:
    """p scaled by a positive rational to content-free integers."""
    p = reference_strip(p)
    q = pr._primitive(p)
    return [-c for c in q] if p and p[-1] < 0 else q


def reference_sturm_sequence(p) -> list[list[int]]:
    """p, p' and the negated rational remainders, each scaled by a positive
    rational to content-free integers."""
    seq = [_reference_keep_sign(p), _reference_keep_sign(reference_derivative(reference_strip(p)))]
    while seq[-1]:
        _, r = reference_divmod_exact(seq[-2], seq[-1])
        r = _reference_keep_sign(r)
        if not r:
            break
        seq.append([-c for c in r])
    return [s for s in seq if s]


def _reference_variations(seq, x: Fraction) -> int:
    signs = []
    for s in seq:
        v = reference_evaluate(s, x)
        if v != 0:
            signs.append(1 if v > 0 else -1)
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _reference_count(seq, lo: Fraction, hi: Fraction) -> int:
    return _reference_variations(seq, lo) - _reference_variations(seq, hi)


def reference_isolate_positive(h):
    """(h_residual, exact roots found as bisection midpoints, isolating
    intervals (lo, hi] of h_residual) for a square-free h."""
    h = pr._primitive(h)
    exact: list[Fraction] = []
    while True:
        if len(h) < 2:
            return h, exact, []
        seq = reference_sturm_sequence(h)
        bound = pr.cauchy_bound(h)
        total = _reference_count(seq, Fraction(0), bound)
        intervals: list[tuple[Fraction, Fraction]] = []
        stack = [(Fraction(0), bound, total)]
        restart = False
        while stack:
            lo, hi, cnt = stack.pop()
            if cnt == 0:
                continue
            if cnt == 1:
                intervals.append((lo, hi))
                continue
            mid = (lo + hi) / 2
            if reference_evaluate(h, mid) == 0:
                exact.append(mid)
                h, _ = reference_divmod_exact(h, [-mid, Fraction(1)])
                h = pr._primitive(h)
                restart = True
                break
            left = _reference_count(seq, lo, mid)
            stack.append((lo, mid, left))
            stack.append((mid, hi, cnt - left))
        if not restart:
            return h, exact, intervals


def reference_refine(h, lo: Fraction, hi: Fraction, width: Fraction) -> tuple[Fraction, Fraction]:
    """Sign bisection of an isolating interval down to ``width``; an exact
    midpoint hit collapses it."""
    flo = reference_evaluate(h, lo)
    while hi - lo > width:
        mid = (lo + hi) / 2
        fmid = reference_evaluate(h, mid)
        if fmid == 0:
            return mid, mid
        if (fmid > 0) == (flo > 0):
            lo, flo = mid, fmid
        else:
            hi = mid
    return lo, hi


def reference_positive_roots(p) -> list[pr.RootRecord]:
    """``positive_roots`` with the Fraction decomposition, isolation,
    bisection and rational candidate."""
    p = reference_strip(p)
    while p and p[0] == 0:
        p = p[1:]
    records = []
    for factor, mult in reference_square_free_decomposition(p):
        residual, exact, intervals = reference_isolate_positive(factor)
        records += [pr.RootRecord(r, r, r, mult) for r in exact]
        lead = residual[-1]
        for lo, hi in intervals:
            lo, hi = reference_refine(residual, lo, hi, REFERENCE_WIDTH)
            report = lo, hi
            lo, hi = reference_refine(residual, lo, hi, Fraction(1, lead))
            # Gauss's lemma: a rational root is m / lead, and (lo, hi] holds
            # at most one such point, m = floor(lead * hi)
            x = Fraction(math.floor(lead * hi), lead)
            if lo == hi:
                records.append(pr.RootRecord(lo, lo, lo, mult))
            elif lo < x and reference_evaluate(residual, x) == 0:
                records.append(pr.RootRecord(x, x, x, mult))
            else:
                records.append(pr.RootRecord(None, *report, mult))
    records.sort(key=lambda r: r.value if r.value is not None else (r.lo + r.hi) / 2)
    return records


# ---------------------------------------------------------------------------
# Inertia in Fraction arithmetic: an oracle for the fraction-free elimination
# of ``spectral.inertia``, with its own pivot rule for a zero diagonal.


def reference_inertia(m) -> SpectralIndex:
    """Symmetric congruence elimination over Fractions (Sylvester).

    Diagonal pivots are eliminated first; when every remaining diagonal entry
    is zero but some off-diagonal b is not, the 2x2 block [[0,b],[b,0]]
    contributes one positive and one negative eigenvalue and is removed by a
    Schur complement.
    """
    rows = m.rows if isinstance(m, LaplacianMatrix) else LaplacianMatrix(m).rows
    a = [list(row) for row in rows]
    active = list(range(len(a)))
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
        pair = next(((p, q) for p in active for q in active if q > p and a[p][q] != 0), None)
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


def fraction_outcome(s):
    """``Fraction(s)``, or the type and text of the error it raises."""
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError) as exc:
        return type(exc), str(exc)


# strings that the integer-pair form reads and strings that it leaves to
# Fraction(s): signs, leading zeros, zero and negative denominators,
# whitespace, decimals, exponents, underscores, non-ASCII digits, "+" and
# more digits than int() converts
RATIONAL_STRINGS = [
    "3", "-3", "0", "-0", "007", "-007/010", "0/5", "-0/5", "12/18", "-12/18", "1/1",
    "1/0", "-1/0", "1/000", "0/0", "1/-4", "-1/-4", "-/4", "1/", "/2", "1//2", "--1", "-",
    " 1/2", "1/2 ", "\t3\n", " -4 ", "1 /2", "1/ 2",
    "1.5", "-1.5e3", "1e-3", "1E2", ".5", "5.", "1.5/2",
    "1_000", "1_000/3", "1__0", "_1",
    "\u0663", "\u0663/\u0664", "1/\u0664", "\uff11\uff12", "\u00b2",
    "+1", "+1/2", "+-1",
    "", " ", "x", "0x10", "nan", "inf", "1/x",
    "1" * 4300, "-" + "1" * 4300, "1/" + "1" * 4300,
    "1" * 5000, "-" + "1" * 5000, "1/" + "1" * 5000, "1" * 5000 + "/0", "1" * 5000 + ".5",
]


def rational_string_id(s: str) -> str:
    """A short test id for one of ``RATIONAL_STRINGS``."""
    return repr(s) if len(s) <= 12 else f"{s[:4]}..{s[-4:]}-{len(s)}-chars"


def random_fraction(rng: random.Random, num_max=9999, den_max=20) -> Fraction:
    return Fraction(rng.randint(1, num_max), rng.randint(1, den_max))


def random_connected_graph(
    rng: random.Random,
    n_min=3,
    n_max=8,
    extra_max=3,
    red_choices=(1, 2, 3),
    unit_weights=False,
    num_max=9999,
    den_max=20,
) -> SignedWeightedGraph:
    """Random spanning tree plus extra edges; connected by construction.

    Red edges are a random subset of positions (capped by the edge count);
    weights are random positive rationals negated on the reds, or all unit
    magnitudes when unit_weights is set.
    """
    n = rng.randint(n_min, n_max)
    order = list(range(n))
    rng.shuffle(order)
    pairs: list[tuple[int, int]] = []
    present = set()
    for i in range(1, n):
        a, b = order[i], order[rng.randrange(i)]
        key = (min(a, b), max(a, b))
        pairs.append(key)
        present.add(key)
    rest = [p for p in itertools.combinations(range(n), 2) if p not in present]
    rng.shuffle(rest)
    pairs += rest[: rng.randint(0, extra_max)]
    n_red = min(rng.choice(red_choices), len(pairs))
    red_pos = set(rng.sample(range(len(pairs)), n_red))
    edges = []
    for pos, (u, v) in enumerate(pairs):
        mag = Fraction(1) if unit_weights else random_fraction(rng, num_max, den_max)
        edges.append((u, v, -mag if pos in red_pos else mag))
    return swg(n, edges)


# ---------------------------------------------------------------------------
# Exhaustive corpus: connected graphs up to isomorphism, N <= 6

_CONNECTED_ISO_COUNTS = {2: 1, 3: 2, 4: 6, 5: 21, 6: 112}


def _connected_iso_reps(n: int) -> list[tuple[tuple[int, int], ...]]:
    """Edge lists of all connected graphs on n labeled vertices, one canonical
    representative per isomorphism class (minimum edge bitmask over all vertex
    permutations)."""
    pairs = list(itertools.combinations(range(n), 2))
    m = len(pairs)
    idx = {p: k for k, p in enumerate(pairs)}
    masks = np.arange(1 << m, dtype=np.int64)
    bits = (masks[:, None] >> np.arange(m)) & 1
    canon = np.full(1 << m, np.iinfo(np.int64).max, dtype=np.int64)
    for perm in itertools.permutations(range(n)):
        pmap = np.array(
            [idx[tuple(sorted((perm[a], perm[b])))] for a, b in pairs], dtype=np.int64
        )
        vals = bits @ (np.int64(1) << pmap)
        np.minimum(canon, vals, out=canon)
    reps = np.unique(canon)
    out = []
    for mask in reps.tolist():
        edge_list = tuple(pairs[k] for k in range(m) if mask >> k & 1)
        # connectivity over the full vertex set
        parent = list(range(n))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for a, b in edge_list:
            parent[find(a)] = find(b)
        if len({find(v) for v in range(n)}) == 1:
            out.append(edge_list)
    return out


@pytest.fixture(scope="session")
def connected_iso_corpus():
    """{n: [edge list, ...]} for 2 <= n <= 6, with known class counts pinned."""
    corpus = {}
    for n in range(2, 7):
        reps = _connected_iso_reps(n)
        assert len(reps) == _CONNECTED_ISO_COUNTS[n], (n, len(reps))
        corpus[n] = reps
    return corpus
