"""Output checks, run after the timed loop through independent public routes.

Each check takes the outcomes of a workload's requests, grouped by graph (or ensemble
configuration), and returns the reasons a request's output is wrong.  The
``coeffs`` output of a graph is the reference polynomial for the other
checks of that graph; it is itself checked against ``tree_sum`` of the
black-only graph and ``degree_support``.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
from fractions import Fraction

from signedlap import (
    CrossingPolynomial,
    SignedWeightedGraph,
    classify,
    crossing_count,
    crossing_polynomial,
    degree_support,
    discriminant,
    inertia,
    laplacian,
    ray_polynomial,
    sample_graph,
    tree_sum,
)
from signedlap.ensemble import sample_seed
from signedlap.errors import InternalConsistencyError

_ENSEMBLE_RECHECKS = 2  # records per ensemble request re-derived from scratch


def _fractions(text: str) -> list[Fraction]:
    return [Fraction(x) for x in text.split(",")]


def _option(outcome, name: str) -> str:
    opts = outcome.request.options
    return opts[opts.index(name) + 1]


def _json(outcome) -> dict:
    return json.loads(outcome.files["output"])


def _check_analyze(o, g, p, rng) -> list[str]:
    out = _json(o)
    t = _fractions(_option(o, "--t"))
    errs = []
    if out["n"] != g.n or out["red_count"] != g.red_count:
        errs.append("vertex or red-edge count differs from the input")
    if out["tau"] != crossing_count(g):
        errs.append(f"tau {out['tau']} != crossing_count {crossing_count(g)}")
    if out["index"] != list(inertia(laplacian(g, t))):
        errs.append("index differs from inertia(laplacian(g, t))")
    return errs


def _check_coeffs(o, g, p, rng) -> list[str]:
    black = SignedWeightedGraph(g.n, g.black_edges)
    errs = []
    if p.coeffs[0] != tree_sum(black):
        errs.append(f"A_empty {p.coeffs[0]} != tree_sum of the black graph")
    try:
        degree_support(p, g)
    except InternalConsistencyError as exc:
        errs.append(f"degree_support: {exc}")
    return errs


def _is_product(p: CrossingPolynomial) -> bool:
    a0 = p.coeffs[0]
    c = [p.coeffs[1 << i] / a0 for i in range(p.red_count)]
    return all(
        a == a0 * math.prod(c[i] for i in range(p.red_count) if mask >> i & 1)
        for mask, a in enumerate(p.coeffs)
    )


def _check_factorize(o, g, p, rng) -> list[str]:
    out = _json(o)
    if out.get("factorizable") is False:
        return ["reported not factorizable, but M is a product of linear factors"] if _is_product(p) else []
    alpha = Fraction(out["alpha"])
    c = [Fraction(x) for x in out["C"]]
    t = [Fraction(rng.randint(1, 99), rng.randint(1, 99)) for _ in range(p.red_count)]
    if alpha * math.prod(1 - ci * ti for ci, ti in zip(c, t)) != p.evaluate(t):
        return ["alpha * prod(1 - C_i t_i) differs from M(t)"]
    return []


def _check_stability(o, g, p, rng) -> list[str]:
    out = _json(o)
    t = _fractions(_option(o, "--t"))
    a0 = p.coeffs[0]
    expect = [None if p.coeffs[1 << i] == 0 else str(a0 / p.coeffs[1 << i]) for i in range(p.red_count)]
    errs = []
    if out["thresholds"] != expect:
        errs.append("thresholds differ from A_empty / A_{e_i}")
    if out["verified_index"] != list(inertia(laplacian(g, t))):
        errs.append("verified_index differs from inertia(laplacian(g, t))")
    finite = [Fraction(w) for w in expect if w is not None]
    if out["certified"] != (not finite or sum(t) <= min(finite)):
        errs.append("certified flag disagrees with ||t||_1 <= min omega")
    return errs


def _check_crossings(o, g, p, rng) -> list[str]:
    out = _json(o)
    q = ray_polynomial(p, _fractions(_option(o, "--ray")))
    errs = []
    if out["ray_polynomial"] != [str(c) for c in q]:
        errs.append("ray_polynomial differs from the one built from coeffs")
    for root in out["roots"]:
        if root["value"] is not None:
            x = Fraction(root["value"])
            if x <= 0 or sum(c * x**k for k, c in enumerate(q)) != 0:
                errs.append(f"reported root {x} is not a positive zero of the ray polynomial")
    total = sum(root["multiplicity"] for root in out["roots"])
    if total > crossing_count(g):
        errs.append(f"total multiplicity {total} exceeds tau {crossing_count(g)}")
    return errs


def _check_disc(o, g, p, rng) -> list[str]:
    out = _json(o)
    delta = discriminant(p)
    errs = []
    if Fraction(out["delta"]) != delta:
        errs.append("delta differs from A11*A00 - A01*A10")
    for key in ("forest_sum", "cycle_minor"):
        if out[key] is not None and Fraction(out[key]) ** 2 != abs(delta):
            errs.append(f"{key}^2 != |delta|")
    return errs


def _csv_rows(data: bytes) -> list[dict]:
    return list(csv.DictReader(io.StringIO(data.decode())))


def _check_ensemble(o, rng) -> list[str]:
    cfg = o.request.doc
    expect = len(cfg["M"]) * cfg["samples"]
    errs = []
    if json.loads(o.stdout)["records"] != expect:
        errs.append("stdout record count differs from the config")
    rows = _csv_rows(o.files["csv"])
    if len(rows) != expect:
        errs.append(f"CSV has {len(rows)} rows, config asks for {expect}")
    per_m = json.loads(o.files["summary"])["per_m"]
    counts = {m: entry["samples"] for m, entry in per_m.items()}
    if counts != {str(m): cfg["samples"] for m in cfg["M"]}:
        errs.append("summary per-M sample counts differ from the config")
    for row in rng.sample(rows, min(_ENSEMBLE_RECHECKS, len(rows))):
        m, index = int(row["M"]), int(row["sample_id"])
        g = sample_graph(cfg["N"], m, sample_seed(cfg["seed"], m, index))
        q = crossing_polynomial(g)
        delta = discriminant(q)
        reds = [f"{u},{v}" for u, v, _ in g.red_edges]
        got = [f"{row['red1_u']},{row['red1_v']}", f"{row['red2_u']},{row['red2_v']}"]
        if got != reds:
            errs.append(f"sample {m}/{index}: red edges {got} != {reds}")
        if (row["gplus_connected"] == "true") != (q.coeffs[0] != 0):
            errs.append(f"sample {m}/{index}: gplus_connected disagrees with A_empty")
        if (row["delta_zero"] == "true") != (delta == 0):
            errs.append(f"sample {m}/{index}: delta_zero disagrees with the discriminant")
        if row["class"] != classify(g):
            errs.append(f"sample {m}/{index}: class {row['class']} != {classify(g)}")
        a11 = q.coeffs[3]
        if a11 != 0 and delta != 0:
            gap = math.sqrt(float(2 * abs(delta) / (a11 * a11)))
            if not math.isclose(float(row["gap"]), gap, rel_tol=1e-12):
                errs.append(f"sample {m}/{index}: gap {row['gap']} != {gap}")
    return errs


_GRAPH_CHECKS = {
    "analyze": _check_analyze,
    "coeffs": _check_coeffs,
    "factorize": _check_factorize,
    "stability": _check_stability,
    "crossings": _check_crossings,
    "disc": _check_disc,
}


def check_outcomes(outcomes, seed) -> list[tuple[int, str]]:
    """(position in ``outcomes``, reason) for every wrong output.

    A request that exited nonzero counts once, with its stderr as reason.
    ``seed`` drives the random evaluation points and record samples.
    """
    rng = random.Random(f"checks:{seed}")
    bad: list[tuple[int, str]] = []
    groups: dict[str, list[int]] = {}
    for pos, o in enumerate(outcomes):
        if o.code != 0:
            bad.append((pos, f"exit code {o.code}: {o.stderr.strip()[-300:]}"))
        else:
            groups.setdefault(o.request.group, []).append(pos)
    for positions in groups.values():
        members = [outcomes[pos] for pos in positions]
        ensemble_runs = [o for o in members if o.request.kind == "ensemble"]
        if ensemble_runs:
            for pos, o in zip(positions, members):
                bad += [(pos, e) for e in _guarded(_check_ensemble, o, rng)]
            first = ensemble_runs[0].files
            for pos, o in zip(positions, members):
                if o.files != first:
                    bad.append((pos, "ensemble CSV or summary differs between thread counts"))
            continue
        try:
            coeffs = next(o for o in members if o.request.kind == "coeffs")
            p = CrossingPolynomial.from_json_dict(_json(coeffs))
        except Exception as exc:  # missing or malformed: nothing to check against
            bad += [(pos, f"no readable coeffs output to check against: {exc!r}") for pos in positions]
            continue
        for pos, o in zip(positions, members):
            bad += [(pos, e) for e in _guarded(_GRAPH_CHECKS[o.request.kind], o, o.request.graph, p, rng)]
    return bad


def _guarded(check, *args) -> list[str]:
    try:
        return check(*args)
    except Exception as exc:  # a malformed output is a wrong output, not a crash
        return [f"unreadable output: {exc!r}"]
