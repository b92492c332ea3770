"""Identities between graphs, each checked in polynomial time: independent
routes for the exact core at sizes the enumeration oracles cannot reach.

The 1-sum: glue G1 and G2 at one vertex.  A spanning tree of the glued
graph is a spanning tree of each part, so every coefficient is a product,
A_(I1, I2) = A_I1(G1) * A_I2(G2), and so is the ray polynomial.  Grounded
at the glue vertex the Laplacian is block diagonal, and a Laplacian has
the all-ones kernel vector, so the index is the parts' indices added, less
one zero.  The axis threshold of a red edge is A_empty / A_e, in which the
other part's A_empty cancels, so the thresholds concatenate.  Relabelling
the vertices with the edge order kept, or reordering the edges with the
red edges' order kept, changes no output.  Swapping the two red edges of
an R = 2 graph swaps the coefficient bits and the thresholds and keeps
sigma and the cycle minor.

Deletion-contraction: a spanning tree either leaves red edge i out or
holds it, so the coefficients with bit i clear are those of the graph
with i deleted, and those with bit i set are those of the graph with i
contracted.  Scaling: multiplying every black weight by c > 0 multiplies
A_I by c^(N-1-|I|), so M_c(t) = c^(N-1) M(t / c) and L_c(c t) = c L(t):
the index is unchanged when the magnitudes scale too, and the ray roots
and the axis thresholds scale by c.
"""

import random
from fractions import Fraction
from types import SimpleNamespace

import pytest

from signedlap import cli
from signedlap.crossing import crossing_polynomial, graph_ray_crossings, graph_ray_polynomial
from signedlap.discriminants import _cycle_minor, _disc_minors
from signedlap.graph import component_counts
from signedlap.oracles import minor_with_info
from signedlap.spectral import _graph_inertia
from signedlap.stability import axis_thresholds

from conftest import random_connected_graph, random_fraction, swg

_SEED = 2031
_PAIRS = 40


def _one_sum(g1, g2, v1, v2):
    """G1 and G2 glued at vertex v1 of G1 and v2 of G2.  G2's other
    vertices follow G1's and its edges follow G1's, so the red edges are
    G1's, then G2's, and a coefficient's bits are G1's bits, then G2's."""

    def place(v):
        return v1 if v == v2 else g1.n + v - (v > v2)

    edges = [*g1.edges, *((place(u), place(v), w) for u, v, w in g2.edges)]
    return swg(g1.n + g2.n - 1, edges)


def _relabel(g, rng):
    """``g`` with its vertices permuted at random and its edge order kept."""
    perm = list(range(g.n))
    rng.shuffle(perm)
    return swg(g.n, [(perm[u], perm[v], w) for u, v, w in g.edges])


def _with_reds(n, edges, reds):
    """The graph on ``edges`` with its red edges, in order, replaced by
    ``reds``."""
    reds = iter(reds)
    return swg(n, [next(reds) if w < 0 else (u, v, w) for u, v, w in edges])


def _reordered(g, rng):
    """``g`` with its edge sequence shuffled and its red edges kept in
    their order."""
    edges = list(g.edges)
    rng.shuffle(edges)
    return _with_reds(g.n, edges, g.red_edges)


def _times(p, q):
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def _pairs():
    """Seeded (G1, G2, glued) triples: the first 10 with one red edge in
    each part, so that disc runs on them, the rest with R = 2..10 in all."""
    rng = random.Random(_SEED)
    out = []
    for k in range(_PAIRS):
        reds = (1,) if k < 10 else (1, 2, 3, 4, 5)
        g1, g2 = (random_connected_graph(rng, n_max=8, extra_max=8, red_choices=reds) for _ in range(2))
        out.append((g1, g2, _one_sum(g1, g2, rng.randrange(g1.n), rng.randrange(g2.n))))
    return out


def _assert_coefficients_multiply(g1, g2, g):
    r1 = g1.red_count
    c1, c2 = crossing_polynomial(g1).coeffs, crossing_polynomial(g2).coeffs
    # bit i of a mask is red i: G1's reds are the low r1 bits
    assert crossing_polynomial(g).coeffs == tuple(c1[m & ((1 << r1) - 1)] * c2[m >> r1] for m in range(1 << g.red_count)), g


def test_one_sum_coefficients_multiply_with_the_bits_concatenated():
    for g1, g2, g in _pairs():
        _assert_coefficients_multiply(g1, g2, g)


def _with_reds_added(g, rng, count):
    """``g`` with ``count`` red edges added on pairs it does not join."""
    present = {(u, v) for u, v, _ in g.edges}
    free = [(u, v) for u in range(g.n) for v in range(u + 1, g.n) if (u, v) not in present]
    return swg(g.n, [*g.edges, *((u, v, -random_fraction(rng)) for u, v in rng.sample(free, count))])


def _glued_at_n_101(seed, black_connected):
    """A seeded pair of N = 51 parts with three red edges each, and their
    1-sum at N = 101: the reds placed at random, or added to an all-black
    part so that each part's black subgraph is connected."""
    rng = random.Random(seed)
    reds = (0,) if black_connected else (3,)
    g1, g2 = (random_connected_graph(rng, n_min=51, n_max=51, extra_max=12, red_choices=reds) for _ in range(2))
    if black_connected:
        g1, g2 = _with_reds_added(g1, rng, 3), _with_reds_added(g2, rng, 3)
    g = _one_sum(g1, g2, rng.randrange(g1.n), rng.randrange(g2.n))
    assert g.n == 101 and g.red_count == 6
    return g1, g2, g


def test_one_sum_coefficients_multiply_at_n_101():
    _assert_coefficients_multiply(*_glued_at_n_101(_SEED + 6, black_connected=False))


def _assert_thresholds_concatenate(g1, g2, g):
    assert axis_thresholds(g) == axis_thresholds(g1) + axis_thresholds(g2), g


def test_one_sum_thresholds_concatenate():
    glued = 0
    for g1, g2, g in _pairs():
        if component_counts(g1)[1] == component_counts(g2)[1] == 1:
            _assert_thresholds_concatenate(g1, g2, g)
            glued += 1
    assert glued >= 10


def _assert_index_adds(g1, g2, g, rng):
    t1 = [random_fraction(rng, 30, 10) for _ in range(g1.red_count)]
    t2 = [random_fraction(rng, 30, 10) for _ in range(g2.red_count)]
    (a, b, c), (d, e, f) = _graph_inertia(g1, t1), _graph_inertia(g2, t2)
    assert tuple(_graph_inertia(g, t1 + t2)) == (a + d, b + e - 1, c + f), g


def test_one_sum_index_adds_less_one_zero():
    rng = random.Random(_SEED + 1)
    for g1, g2, g in _pairs():
        _assert_index_adds(g1, g2, g, rng)


def _assert_ray_polynomial_multiplies(g1, g2, g, rng):
    alpha = [random_fraction(rng, 9, 5) for _ in range(g.red_count)]
    p1 = graph_ray_polynomial(g1, alpha[: g1.red_count])
    p2 = graph_ray_polynomial(g2, alpha[g1.red_count :])
    assert graph_ray_polynomial(g, alpha) == _times(p1, p2), g


def test_one_sum_ray_polynomial_multiplies():
    rng = random.Random(_SEED + 2)
    for g1, g2, g in _pairs():
        _assert_ray_polynomial_multiplies(g1, g2, g, rng)


def test_one_sum_index_ray_polynomial_and_thresholds_at_n_101():
    rng = random.Random(_SEED + 7)
    scattered = _glued_at_n_101(_SEED + 6, black_connected=False)
    connected = _glued_at_n_101(_SEED + 8, black_connected=True)
    # the scattered reds cut both black subgraphs; the added ones cut neither
    assert [component_counts(part)[1] for part in scattered[:2]] == [3, 4]
    assert [component_counts(part)[1] for part in connected] == [1, 1, 1]
    for triple in (scattered, connected):
        _assert_index_adds(*triple, rng)
        _assert_ray_polynomial_multiplies(*triple, rng)
    _assert_thresholds_concatenate(*connected)


def _outputs(monkeypatch, g, t, ray):
    """Every subcommand's payload on ``g``; disc's only at R = 2, and the
    thresholds and factorization only with a connected black subgraph.
    The float eigenvalues are returned apart, since LAPACK may round a
    permuted matrix's differently."""
    monkeypatch.setattr(cli, "_load_graph", lambda graph: graph)
    args = SimpleNamespace(input=g, t=",".join(map(str, t)), ray=",".join(map(str, ray)))
    analyze = cli._cmd_analyze(args)
    out = {
        "analyze": analyze,
        "analyze_bare": cli._cmd_analyze(SimpleNamespace(input=g, t=None)),
        "coeffs": cli._cmd_coeffs(args),
        "crossings": cli._cmd_crossings(args),
    }
    if component_counts(g)[1] == 1:
        out["factorize"] = cli._cmd_factorize(args)
        out["stability"] = cli._cmd_stability(args)
    if g.red_count == 2:
        out["disc"] = cli._cmd_disc(args)
    return out, analyze.pop("eigenvalues")


def test_relabelling_the_vertices_changes_no_output(monkeypatch):
    rng = random.Random(_SEED + 3)
    for _, _, g in _pairs():
        t = [random_fraction(rng, 30, 10) for _ in range(g.red_count)]
        ray = [random_fraction(rng, 9, 5) for _ in range(g.red_count)]
        expected, eigenvalues = _outputs(monkeypatch, g, t, ray)
        relabelled = _relabel(g, rng)
        assert relabelled != g
        got, permuted = _outputs(monkeypatch, relabelled, t, ray)
        assert got == expected, g
        assert permuted == pytest.approx(eigenvalues, rel=1e-9, abs=1e-9), g


def _run(capsys, graph, argv):
    """The exit code, stdout and stderr of ``cli.main`` on ``argv`` with
    the graph ``graph`` as its input."""
    code = cli.main([argv[0], "--input", graph, *argv[1:]])
    return (code, *capsys.readouterr())


def test_reordering_the_edges_changes_no_output(monkeypatch, capsys):
    # the reds keep their order, so the coefficient bits keep their meaning
    rng = random.Random(_SEED + 7)
    graphs = {}
    monkeypatch.setattr(cli, "_load_graph", graphs.__getitem__)
    runs = 0
    for _, _, g in _pairs():
        t = ",".join(str(random_fraction(rng, 30, 10)) for _ in range(g.red_count))
        ray = ",".join(str(random_fraction(rng, 9, 5)) for _ in range(g.red_count))
        graphs["g"], graphs["reordered"] = g, _reordered(g, rng)
        if graphs["reordered"] == g:
            continue  # at most one black edge: nothing to reorder
        for argv in (
            ["analyze"], ["analyze", "--t", t], ["coeffs"], ["disc"], ["factorize"],
            ["stability"], ["stability", "--t", t], ["crossings", "--ray", ray],
        ):
            expected = _run(capsys, "g", argv)
            assert _run(capsys, "reordered", argv) == expected, (g, argv)
            runs += expected[0] == 0
    assert runs > 200


def test_swapping_the_two_reds():
    rng = random.Random(_SEED + 8)
    cycle_minors = thresholds = 0
    for k in range(200):
        g = random_connected_graph(rng, n_max=8, extra_max=8, red_choices=(2,), unit_weights=k % 2 == 0)
        swapped = _with_reds(g.n, g.edges, g.red_edges[::-1])
        (p, sigma), (q, tau) = _disc_minors(g), _disc_minors(swapped)
        c0, c1, c2, c3 = p.coeffs
        assert q.coeffs == (c0, c2, c1, c3), g
        assert tau == sigma and _cycle_minor(swapped, tau) == _cycle_minor(g, sigma), g
        cycle_minors += _cycle_minor(g, sigma) is not None
        if component_counts(g)[1] == 1:
            assert axis_thresholds(swapped) == axis_thresholds(g)[::-1], g
            thresholds += 1
    assert cycle_minors > 20 and thresholds > 100


def _graphs():
    """Seeded connected graphs with R = 1..6, and one at N = 40."""
    rng = random.Random(_SEED + 4)
    out = [random_connected_graph(rng, n_max=8, extra_max=8, red_choices=(1, 2, 3, 4, 5, 6)) for _ in range(80)]
    out.append(random_connected_graph(rng, n_min=40, n_max=40, extra_max=20, red_choices=(6,)))
    return out


def test_deletion_contraction_of_each_red_edge():
    contracted = 0
    for g in _graphs():
        coeffs = crossing_polynomial(g).coeffs
        for i in range(g.red_count):
            for contract, delete, bit in (((), {i}, 0), ({i}, (), 1 << i)):
                info = minor_with_info(g, contract, delete)
                new = info.red_map  # the other red edges, by their index in the minor
                positions = info.graph.red_indices
                if any(k is None or positions[k] in info.merged_positions for k in new.values()):
                    assert bit, g  # only a contraction merges edges
                    continue
                contracted += bool(bit)
                minor_coeffs = crossing_polynomial(info.graph).coeffs
                for mask, a in enumerate(coeffs):
                    if mask & 1 << i == bit:
                        assert a == minor_coeffs[sum(1 << k for j, k in new.items() if mask >> j & 1)], (g, i, mask)
    assert contracted > 100


def _scaled(g, c):
    """``g`` with every black weight times c."""
    return swg(g.n, [(u, v, w * c if w > 0 else w) for u, v, w in g.edges])


def test_scaling_the_black_weights():
    rng = random.Random(_SEED + 5)
    for g in _graphs():
        c = random_fraction(rng, 9, 5)
        gc = _scaled(g, c)
        expected = (a * c ** (g.n - 1 - mask.bit_count()) for mask, a in enumerate(crossing_polynomial(g).coeffs))
        assert crossing_polynomial(gc).coeffs == tuple(expected), g
        t = [random_fraction(rng, 30, 10) for _ in range(g.red_count)]
        assert _graph_inertia(gc, [c * x for x in t]) == _graph_inertia(g, t), g
        alpha = [random_fraction(rng, 9, 5) for _ in range(g.red_count)]
        roots, scaled = graph_ray_crossings(g, alpha).roots, graph_ray_crossings(gc, alpha).roots
        assert len(scaled) == len(roots), g
        for x, y in zip(roots, scaled):
            assert y.multiplicity == x.multiplicity, g
            if x.value is None:  # both isolating intervals hold c times the root
                assert y.value is None and c * x.lo <= y.hi and y.lo <= c * x.hi, g
            else:
                assert y.value == c * x.value, g
        if component_counts(g)[1] == 1:
            assert axis_thresholds(gc) == [None if w is None else c * w for w in axis_thresholds(g)], g
