"""Seeded request corpora for the two benchmark workloads.

A workload is a list of CLI requests drawn from
``random.Random(f"{workload}:{seed}")``, so the same seed always yields the
same requests.  Every seed gives a workload the same shape (the same graph
sizes, request kinds and ensemble configurations); only edges, weights,
options and seeds change.  A measured run sends the list again and again.
The workloads share no layer that does most of the work in either:

* ``cli-corpus``: the six graph queries.  Weighted graphs with N=8..14 and
  R=2..10, plus ``k4_shared`` and a ``triangle_chain``, load the 2^R minor
  path (``crossing_polynomial``) and ``positive_roots``; two-red graphs
  with unit black weights, N=10..12, on a ladder of fixed 2-forest subset
  counts C(m, N-2) up to one above the enumeration cap, load
  ``graph.two_forests``.  ``disc`` runs on every two-red graph.
* ``ensemble``: ``signedlap ensemble`` at N=10, M=15/30/45 with one
  thread.  The ensemble's tree counter and BFS dominate.  The traced run
  repeats each request with one thread per core (``threaded_copies``).

Preconditions hold by construction: the black edges contain a spanning
tree (so A_empty > 0 and the graph is connected), red magnitudes and ray
directions are positive and have one entry per red edge, and ``disc`` only
runs on graphs with two red edges.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import random
from dataclasses import dataclass, field, replace
from fractions import Fraction

from signedlap import SignedWeightedGraph, graph_to_dict

WORKLOADS = ("cli-corpus", "ensemble")
GRAPH_KINDS = ("analyze", "coeffs", "factorize", "stability", "crossings", "disc")

ENSEMBLE_N = 10
ENSEMBLE_M = (15, 30, 45)

# Weighted tiers: (graphs, N, extra black edges beyond the spanning tree,
# R); the seed draws each graph's edges and weights.  Costs
# grow roughly with 2^R times the minor size: the request group of an N=10,
# R=2 graph takes about 40 ms, N=11, R=4 about 60 ms, N=13, R=7 about 0.5 s,
# N=14, R=8 about 1 s and N=8, R=10 about 0.5 s, so the R>=4 ladder holds
# most of the time.  R=12 (about 1.8 s at N=8) would make a pass so long
# that a run holds too few passes for a steady best.  The N=10, R=2 graphs, flanked by about as many
# cheaper (k4_shared, the triangle chain) as dearer graphs, hold every
# per-subcommand median: each is then a median over graphs of one shape,
# which moves little with the seed, where a mix of shapes would let it jump
# between shapes.
_CLI_TIERS = (
    (4, 10, 3, 2),
    (1, 11, 3, 4),
    (1, 12, 3, 5),
    (1, 12, 4, 6),
    (1, 13, 3, 7),
    (1, 14, 4, 8),
    (1, 8, 0, 10),
)

# 2-forest ladder: (N, m) with m the total edge count, so the 2-forest
# enumeration visits C(m, N-2) subsets: from 495 up to 92378 (the disc
# request there takes about 0.4 s), then one graph above the 4M cap that
# takes the skip route.  184756 subsets take about 0.9 s a request and 1e6
# about 8 s, too long for a pass of a few seconds.
_FOREST_STRATA = (
    (10, 12),
    (11, 14),
    (10, 14),
    (12, 15),
    (11, 15),
    (12, 16),
    *[(11, 16)] * 2,
    (10, 16),
    (11, 17),
    (10, 18),
    (12, 18),
    (11, 19),
    (12, 30),
)
# ensemble: configurations, each one request of 3 x 40 samples (about
# 0.1 s), so a run sends each of them a few dozen times.
_ENSEMBLE_REQUESTS = 8
_ENSEMBLE_SAMPLES = 40


@dataclass(frozen=True)
class Request:
    """One CLI call: subcommand, input document and extra options.

    ``group`` ties together the requests on one graph (or one ensemble
    configuration) so that checks can cross-reference their outputs.
    ``threaded`` asks for ``--threads`` equal to the core count; the count
    is filled in at run time so the corpus does not depend on the machine.
    """

    kind: str
    doc: dict
    options: tuple[str, ...] = ()
    group: str = ""
    threaded: bool = False
    graph: SignedWeightedGraph | None = field(default=None, compare=False)


def _weight(rng: random.Random, unit: bool) -> Fraction:
    if unit:
        return Fraction(1)
    return Fraction(rng.randint(1, 10_000), rng.randint(1, 20))


def random_graph(rng: random.Random, n: int, extra: int, reds: int, unit: bool = False) -> SignedWeightedGraph:
    """Connected graph whose black edges contain a random spanning tree.

    ``extra`` further black edges and ``reds`` red edges are drawn from the
    remaining vertex pairs; the edge order is shuffled so red indices fall
    anywhere in the sequence.
    """
    order = list(range(n))
    rng.shuffle(order)
    tree = []
    for i in range(1, n):
        a, b = order[i], order[rng.randrange(i)]
        tree.append((min(a, b), max(a, b)))
    used = set(tree)
    rest = [p for p in itertools.combinations(range(n), 2) if p not in used]
    if extra + reds > len(rest):
        raise ValueError(f"N={n} has no room for {extra} black and {reds} red extra edges")
    rng.shuffle(rest)
    edges = [(u, v, _weight(rng, unit)) for u, v in tree + rest[:extra]]
    edges += [(u, v, -_weight(rng, unit)) for u, v in rest[extra : extra + reds]]
    rng.shuffle(edges)
    return SignedWeightedGraph(n, tuple(edges))


def k4_shared() -> SignedWeightedGraph:
    """K4 with red edges (0,1) and (0,2): A = {3, 5, 5, 3}."""
    red = {(0, 1), (0, 2)}
    return SignedWeightedGraph(
        4,
        tuple((u, v, Fraction(-1 if (u, v) in red else 1)) for u, v in itertools.combinations(range(4), 2)),
    )


def triangle_chain(r: int) -> SignedWeightedGraph:
    """r unit triangles glued at cut vertices, one red edge each; the
    crossing polynomial factors as prod_i (1 - 2 t_i)."""
    edges = []
    for i in range(r):
        a, b, c = 2 * i, 2 * i + 1, 2 * i + 2
        edges += [(a, b, Fraction(1)), (b, c, Fraction(1)), (a, c, Fraction(-1))]
    return SignedWeightedGraph(2 * r + 1, tuple(edges))


def _vector(values) -> str:
    return ",".join(str(x) for x in values)


def _graph_requests(rng: random.Random, g: SignedWeightedGraph, group: str, disc: bool) -> list[Request]:
    """analyze, coeffs, factorize, stability, crossings (and disc) on ``g``."""
    r = g.red_count
    t = _vector(Fraction(rng.randint(1, 9), rng.randint(2, 20)) for _ in range(r))
    ray = _vector(Fraction(rng.randint(1, 9), rng.randint(1, 5)) for _ in range(r))
    doc = graph_to_dict(g)
    out = [
        Request("analyze", doc, ("--t", t), group, graph=g),
        Request("coeffs", doc, (), group, graph=g),
        Request("factorize", doc, (), group, graph=g),
        Request("stability", doc, ("--t", t), group, graph=g),
        Request("crossings", doc, ("--ray", ray), group, graph=g),
    ]
    if disc:
        out.append(Request("disc", doc, (), group, graph=g))
    return out


def _ensemble_config(rng: random.Random, samples: int) -> dict:
    return {"N": ENSEMBLE_N, "M": list(ENSEMBLE_M), "samples": samples, "seed": rng.randrange(2**31)}


def _cli_requests(rng: random.Random) -> list[Request]:
    out = []
    graphs = [k4_shared(), triangle_chain(rng.randint(3, 6))]
    for count, n, extra, reds in _CLI_TIERS:
        graphs += [random_graph(rng, n, extra, reds) for _ in range(count)]
    for k, g in enumerate(graphs):
        # disc only on the sparse two-red graphs, where its 2-forest
        # enumeration stays small
        out += _graph_requests(rng, g, f"g{k}", disc=g.red_count == 2)
    for k, (n, m) in enumerate(_FOREST_STRATA):
        # unit black weights, so that cycle_minor runs too
        g = random_graph(rng, n, m - (n - 1) - 2, 2, unit=True)
        out += _graph_requests(rng, g, f"f{k}", disc=True)
    return out


def _ensemble_requests(rng: random.Random) -> list[Request]:
    return [
        Request("ensemble", _ensemble_config(rng, _ENSEMBLE_SAMPLES), (), f"e{k}")
        for k in range(_ENSEMBLE_REQUESTS)
    ]


def threaded_copies(requests: list[Request]) -> list[Request]:
    """Each ensemble request again, with one thread per core; a copy shares
    its original's group, so the checks compare their outputs byte by byte."""
    return [replace(r, threaded=True) for r in requests if r.kind == "ensemble"]


def warm_up_requests() -> list[Request]:
    """Every subcommand once on tiny inputs."""
    ens = Request("ensemble", {"N": 6, "M": [8], "samples": 2, "seed": 1}, (), "warm-e")
    return [ens, *threaded_copies([ens]), *_graph_requests(random.Random(0), k4_shared(), "warm", disc=True)]


_BUILDERS = {"cli-corpus": _cli_requests, "ensemble": _ensemble_requests}


def requests(workload: str, seed: int) -> list[Request]:
    """The requests of ``workload`` under ``seed``."""
    return _BUILDERS[workload](random.Random(f"{workload}:{seed}"))


def digest(workload: str, seed: int) -> str:
    """SHA-256 over the workload's requests."""
    h = hashlib.sha256()
    for req in requests(workload, seed):
        row = [req.kind, req.doc, list(req.options), req.group, req.threaded]
        h.update(json.dumps(row, sort_keys=True).encode())
        h.update(b"\n")
    return h.hexdigest()


def forest_subsets(g: SignedWeightedGraph) -> int:
    """Subsets the 2-forest enumeration visits: C(m, N-2)."""
    m, k = len(g.edges), g.n - 2
    return math.comb(m, k) if 0 <= k <= m else 0
