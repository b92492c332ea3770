"""Integer kernels against independent references: cofactor expansion for
determinants, edge relaxation for BFS distances, union-find for components."""

import random

from signedlap import _kernels as ker

from conftest import reference_component_count, reference_det


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
        assert ker.det_int(rows) == reference_det(rows)
        assert rows == before  # the input is not modified


def test_det_singular_and_pivoting():
    rows = [[0, 1, 2], [0, 0, 3], [0, 0, 0]]
    assert ker.det_int(rows) == 0
    rows = [[0, 1], [1, 0]]  # needs a row swap
    assert ker.det_int(rows) == -1
    assert ker.det_int([]) == 1


def test_det_big_entries_use_object_path():
    # entries far beyond int64 stay exact
    big = 10 ** 30
    rows = [[big, 1], [1, big]]
    assert ker.det_int(rows) == big * big - 1
    rows = [[big, 2 * big, 3], [4, big, 6], [7, 8, big]]
    assert ker.det_int(rows) == reference_det(rows)


def test_det_guard_boundary_consistency():
    # entry scales on both sides of the old int64 range agree with cofactors
    rng = random.Random(103)
    for _ in range(20):
        n = rng.randint(2, 5)
        scale = rng.choice([1, 10 ** 3, 10 ** 7])
        rows = [[rng.randint(-9, 9) * scale for _ in range(n)] for _ in range(n)]
        assert ker.det_int(rows) == reference_det(rows)


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
