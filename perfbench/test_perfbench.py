"""Tests of the benchmark itself: seeded corpora, preconditions, checks and
trace transparency.  Run with ``python -m pytest perfbench``."""

from __future__ import annotations

import json
from fractions import Fraction

import pytest

import checks
import corpus
import harness
import tracing
from signedlap import component_counts, parse_graph
from signedlap.crossing import MAX_RED_DEFAULT
from signedlap.ensemble import config_from_dict
from signedlap.graph import ORACLE_MAX_VERTICES

SPEC = json.loads((harness.ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", corpus.WORKLOADS)
def test_digest_depends_on_the_seed(workload):
    assert corpus.digest(workload, 1) == corpus.digest(workload, 1)
    assert corpus.digest(workload, 1) != corpus.digest(workload, 2)


def _positive_vector(text: str, length: int) -> bool:
    values = [Fraction(x) for x in text.split(",")]
    return len(values) == length and all(x > 0 for x in values)


@pytest.mark.parametrize("workload", corpus.WORKLOADS)
def test_every_request_meets_its_preconditions(workload):
    for seed in range(7, 10):
        requests = corpus.requests(workload, seed)
        kinds = {"ensemble"} if workload == "ensemble" else set(corpus.GRAPH_KINDS)
        assert {r.kind for r in requests} == kinds
        assert not any(r.threaded for r in requests), "timed requests use one thread"
        for req in requests + corpus.threaded_copies(requests):
            if req.kind == "ensemble":
                cfg = config_from_dict(req.doc)
                assert all(m <= cfg.n * (cfg.n - 1) // 2 for m in cfg.m_values)
                continue
            g = req.graph
            assert parse_graph(json.loads(json.dumps(req.doc))) == g
            c_all, c_plus, _ = component_counts(g)
            assert c_all == 1 and c_plus == 1, "connected, with A_empty > 0"
            assert 1 <= g.red_count <= MAX_RED_DEFAULT
            opts = dict(zip(req.options[::2], req.options[1::2]))
            if req.kind in ("analyze", "stability"):
                assert _positive_vector(opts["--t"], g.red_count)
            if req.kind == "crossings":
                assert _positive_vector(opts["--ray"], g.red_count)
            if req.kind == "disc":
                assert g.red_count == 2 and g.n <= ORACLE_MAX_VERTICES
            if req.group.startswith("f"):
                assert all(w == 1 for _, _, w in g.black_edges), "cycle_minor needs unit black weights"


def test_forest_ladder_spans_both_forest_routes():
    requests = corpus.requests("cli-corpus", 3)
    subsets = [corpus.forest_subsets(r.graph) for r in requests if r.kind == "disc" and r.group.startswith("f")]
    assert min(subsets) < 1_000 and max(s for s in subsets if s <= 4_000_000) > 50_000
    assert max(subsets) > 4_000_000, "one graph takes the enumeration-cap skip route"


def _cheap(requests):
    """Requests that finish in milliseconds: small graphs and ensembles."""
    return [
        r for r in requests
        if r.kind == "ensemble" or (r.graph.red_count <= 4 and corpus.forest_subsets(r.graph) <= 20_000)
    ]


def test_traced_outputs_are_byte_identical(tmp_path):
    client = harness.Client(tmp_path, threads=2)
    batches = [_cheap(corpus.requests(w, 5)) for w in corpus.WORKLOADS]
    batches[-1] += corpus.threaded_copies(batches[-1])
    plain, traced, tracer = harness.replay(client, batches)
    for a_batch, b_batch in zip(plain, traced):
        assert [(o.code, o.stdout, o.stderr, o.files) for o in a_batch] == [
            (o.code, o.stdout, o.stderr, o.files) for o in b_batch
        ]
        assert all(o.code == 0 for o in b_batch)
        assert checks.check_outcomes(b_batch, seed=0) == []
    metrics = tracing.layer_metrics(tracer.spans)
    for name in ("kernels.det_int", "graph.two_forests", "crossing.crossing_polynomial", "ensemble.compute_record"):
        assert metrics[f"{name}.calls"] > 0
    assert metrics["cli.main.calls"] == sum(map(len, batches))
    # the patches are gone again
    import signedlap.crossing
    import signedlap.spectral

    assert signedlap.crossing.tree_sum is signedlap.spectral.tree_sum
    assert not hasattr(signedlap.spectral.tree_sum, "__wrapped__")


def test_metric_names_match_the_spec(tmp_path):
    assert [w["name"] for w in SPEC["workloads"]] == list(corpus.WORKLOADS)
    outcomes = harness.Client(tmp_path, threads=2).run_all(corpus.warm_up_requests())
    e2e, _ = harness.end_to_end(outcomes)
    assert set(e2e) | {"setup_s", "peak_rss_mb"} == {m["name"] for m in SPEC["end_to_end"]}
    layers = set(tracing.layer_metrics([])) | set(harness.breakdown(outcomes)) | {"trace.overhead_pct"}
    assert layers == {m["name"] for m in SPEC["per_layer"]}


def test_checks_reject_wrong_outputs(tmp_path):
    outcomes = harness.Client(tmp_path, threads=2).run_all(corpus.warm_up_requests())
    assert checks.check_outcomes(outcomes, seed=0) == []
    coeffs = next(o for o in outcomes if o.request.kind == "coeffs")
    doc = json.loads(coeffs.files["output"])
    doc["00"] = str(Fraction(doc["00"]) + 1)
    coeffs.files["output"] = json.dumps(doc).encode()
    ens = next(o for o in outcomes if o.request.kind == "ensemble")
    ens.files["csv"] = b"\n".join(ens.files["csv"].splitlines()[:-1]) + b"\n"
    stability = next(o for o in outcomes if o.request.kind == "stability")
    stability.files["output"] = b"{not json"
    kinds = {outcomes[pos].request.kind for pos, _ in checks.check_outcomes(outcomes, seed=0)}
    assert {"coeffs", "ensemble", "disc", "stability"} <= kinds


def test_self_time_subtracts_the_union_of_children():
    spans = [
        (0, "cli.main", 0.0, 10.0, None, 0, None),
        # siblings that overlap, as spans from the ensemble's pool threads do
        (1, "ensemble.compute_record", 1.0, 3.0, 0, 0, None),
        (2, "ensemble.compute_record", 2.0, 5.0, 0, 0, None),
        (3, "kernels.det_int", 2.5, 3.0, 2, 0, (9,)),
    ]
    metrics = tracing.layer_metrics(spans)
    assert metrics["cli.main.self_ms"] == pytest.approx(6000.0)
    assert metrics["ensemble.compute_record.self_ms"] == pytest.approx(4500.0)
    assert metrics["ensemble.compute_record.calls"] == 2
    assert metrics["kernels.det_int.mean_dim"] == 9
