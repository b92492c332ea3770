"""Identities between graphs, each checked in polynomial time: independent
routes for the exact core at sizes the enumeration oracles cannot reach.

The 1-sum: glue G1 and G2 at one vertex.  A spanning tree of the glued
graph is a spanning tree of each part, so every coefficient is a product,
A_(I1, I2) = A_I1(G1) * A_I2(G2), and so is the ray polynomial.  Grounded
at the glue vertex the Laplacian is block diagonal, and a Laplacian has
the all-ones kernel vector, so the index is the parts' indices added, less
one zero.  Relabelling the vertices, with the edge order kept, changes no
output.
"""

import random
from fractions import Fraction
from types import SimpleNamespace

import pytest

from signedlap import cli
from signedlap.crossing import crossing_polynomial, graph_ray_polynomial
from signedlap.graph import component_counts
from signedlap.spectral import _graph_inertia

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


def test_one_sum_coefficients_multiply_with_the_bits_concatenated():
    for g1, g2, g in _pairs():
        r1 = g1.red_count
        c1, c2 = crossing_polynomial(g1).coeffs, crossing_polynomial(g2).coeffs
        # bit i of a mask is red i: G1's reds are the low r1 bits
        assert crossing_polynomial(g).coeffs == tuple(c1[m & ((1 << r1) - 1)] * c2[m >> r1] for m in range(1 << g.red_count)), g


def test_one_sum_index_adds_less_one_zero():
    rng = random.Random(_SEED + 1)
    for g1, g2, g in _pairs():
        t1 = [random_fraction(rng, 30, 10) for _ in range(g1.red_count)]
        t2 = [random_fraction(rng, 30, 10) for _ in range(g2.red_count)]
        (a, b, c), (d, e, f) = _graph_inertia(g1, t1), _graph_inertia(g2, t2)
        assert tuple(_graph_inertia(g, t1 + t2)) == (a + d, b + e - 1, c + f), g


def test_one_sum_ray_polynomial_multiplies():
    rng = random.Random(_SEED + 2)
    for g1, g2, g in _pairs():
        alpha = [random_fraction(rng, 9, 5) for _ in range(g.red_count)]
        p1 = graph_ray_polynomial(g1, alpha[: g1.red_count])
        p2 = graph_ray_polynomial(g2, alpha[g1.red_count :])
        assert graph_ray_polynomial(g, alpha) == _times(p1, p2), g


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
