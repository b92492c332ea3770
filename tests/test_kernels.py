"""Integer kernels against independent references: cofactor expansion for
determinants, edge relaxation for BFS distances, union-find for components."""

import random

from signedlap import _kernels as ker

from conftest import reference_component_count


def _reference_det(rows):
    # cofactor expansion, independent of every production path
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
        total += (-1) ** j * rows[0][j] * _reference_det(sub)
    return total


def _reference_distances(n, pairs, source):
    # Bellman-Ford style relaxation over the edge list
    inf = n + 1
    dist = [inf] * n
    dist[source] = 0
    for _ in range(n):
        for u, v in pairs:
            dist[v] = min(dist[v], dist[u] + 1)
            dist[u] = min(dist[u], dist[v] + 1)
    return [-1 if d == inf else d for d in dist]


def _random_graph(rng, n, p):
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    adj = [[] for _ in range(n)]
    for u, v in pairs:
        adj[u].append(v)
        adj[v].append(u)
    return pairs, adj


def test_backend_is_pure_python():
    assert ker.backend() == "python"


def test_det_paths_agree_small_random():
    rng = random.Random(101)
    for _ in range(120):
        n = rng.randint(0, 6)
        rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        before = [list(r) for r in rows]
        assert ker.det_int(rows) == _reference_det(rows)
        assert rows == before  # the input is not modified


def test_det_singular_and_pivoting():
    rows = [[0, 1, 2], [0, 0, 3], [0, 0, 0]]
    assert ker.det_int(rows) == 0
    rows = [[0, 1], [1, 0]]  # needs a row swap
    assert ker.det_int(rows) == -1
    assert ker.det_int([]) == 1


def _partial_bareiss(rows, steps):
    # ``steps`` Bareiss steps with row swaps, written out apart from det_int:
    # the rows left, the last pivot and the sign of the swaps, or None when
    # a pivot column is zero
    a = [list(r) for r in rows]
    n, sign, prev = len(a), 1, 1
    for k in range(steps):
        r = next((r for r in range(k, n) if a[r][k]), None)
        if r is None:
            return None
        if r != k:
            a[k], a[r] = a[r], a[k]
            sign = -sign
        pk = a[k][k]
        for i in range(k + 1, n):
            f = a[i][k]
            a[i] = a[i][: k + 1] + [(a[i][j] * pk - f * a[k][j]) // prev for j in range(k + 1, n)]
        prev = pk
    return [row[steps:] for row in a[steps:]], prev, sign


def test_det_resumed_from_a_partial_elimination():
    # det_int(rest, prev) of what a partial Bareiss run leaves is the whole
    # determinant, with swaps in the partial run and in the resumed one
    rng = random.Random(113)
    seen = {"swap_before": 0, "swap_after": 0, "singular": 0}
    for _ in range(400):
        n = rng.randint(1, 6)
        rows = [[rng.choice((0, 0, rng.randint(-9, 9))) for _ in range(n)] for _ in range(n)]
        whole = ker.det_int(rows)
        assert whole == _reference_det(rows)
        steps = rng.randint(0, n)
        partial = _partial_bareiss(rows, steps)
        if partial is None:
            assert whole == 0
            continue
        rest, prev, sign = partial
        assert sign * ker.det_int(rest, prev) == whole, (rows, steps)
        seen["swap_before"] += sign < 0
        seen["swap_after"] += bool(rest) and rest[0][0] == 0 and any(row[0] for row in rest)
        seen["singular"] += whole == 0
    assert min(seen.values()) >= 20, seen


def test_det_big_entries_use_object_path():
    # entries far beyond int64 stay exact
    big = 10 ** 30
    rows = [[big, 1], [1, big]]
    assert ker.det_int(rows) == big * big - 1
    rows = [[big, 2 * big, 3], [4, big, 6], [7, 8, big]]
    assert ker.det_int(rows) == _reference_det(rows)


def test_det_guard_boundary_consistency():
    # entry scales on both sides of the old int64 range agree with cofactors
    rng = random.Random(103)
    for _ in range(20):
        n = rng.randint(2, 5)
        scale = rng.choice([1, 10 ** 3, 10 ** 7])
        rows = [[rng.randint(-9, 9) * scale for _ in range(n)] for _ in range(n)]
        assert ker.det_int(rows) == _reference_det(rows)


def test_bfs_paths_agree():
    rng = random.Random(107)
    for _ in range(40):
        n = rng.randint(1, 12)
        pairs, adj = _random_graph(rng, n, 0.3)
        s = rng.randrange(n)
        assert ker.bfs_distances(adj, s) == _reference_distances(n, pairs, s)


def test_component_paths_agree():
    rng = random.Random(109)
    for _ in range(40):
        n = rng.randint(0, 12)
        pairs, adj = _random_graph(rng, n, 0.2)
        assert ker.component_count(adj) == reference_component_count(n, pairs)
