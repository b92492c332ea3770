"""Random-ensemble sampling, classification, records, summaries."""

import itertools
import json
import math
import random
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from signedlap import (
    EnsembleConfig,
    InputError,
    classify,
    crossing_polynomial,
    discriminant,
    sample_graph,
)
from signedlap import InternalConsistencyError, _kernels, component_counts
from signedlap import ensemble as ens
from signedlap.ensemble import _bordered_stack, _fits_int64, _stacked_minors
from signedlap.discriminants import _r2_minors
from signedlap.graph import _Counts
from signedlap.spectral import _eliminate, _transfer_current

from conftest import assert_value, kn_with_reds, minor_path_coefficients, swg


def test_sample_graph_complete_at_max_m():
    g = sample_graph(10, 45, 12345)
    assert g.n == 10 and len(g.edges) == 45 and g.red_count == 2


def test_sample_graph_counts_and_determinism():
    for seed in (0, 1, 99):
        g1 = sample_graph(8, 13, seed)
        g2 = sample_graph(8, 13, seed)
        assert g1 == g2
        assert len(g1.edges) == 13 and g1.red_count == 2
    assert sample_graph(8, 13, 0) != sample_graph(8, 13, 1)


def test_sample_matches_random_sample():
    # the pool branch (n up to the set size: 21, or 85 for k = 6, or any n
    # at k = n) and the set branch, on the same seeds; the stream is left
    # where ``Random.sample`` leaves it
    for n in (*range(2, 30), 84, 85, 86, 300, 4999):
        for k in sorted({0, 1, 2, 5, 6, n} & set(range(n + 1))):
            for seed in range(200 if k < 300 else 10):
                rng, ref = random.Random(seed), random.Random(seed)
                assert ens._sample(rng, n, k) == ref.sample(range(n), k)
                assert rng.getrandbits(32) == ref.getrandbits(32)


def test_records_reseed_one_generator_to_a_fresh_ones_state(monkeypatch):
    # a chunk's samples share one generator, reseeded per sample through
    # the C seed: before each draw its state is random.Random(seed)'s, for
    # seeds at the 32- and 64-bit edges, also after a G(N,p) draw has
    # called random(); every record is the fresh generator's draw
    seeds = [0, 1, 2**32, 2**63, 2**64 - 1]
    states, generators = [], set()
    draw = ens._sample_pairs

    def watched(cfg, m, rng):
        states.append(rng.getstate())
        generators.add(id(rng))
        return draw(cfg, m, rng)

    monkeypatch.setattr(ens, "sample_seed", lambda master, m, index: seeds[index])
    monkeypatch.setattr(ens, "_sample_pairs", watched)
    for cfg in (EnsembleConfig(8, (12,), len(seeds), 3), EnsembleConfig(8, (1,), len(seeds), 3, "gnp", 0.4)):
        states.clear()
        generators.clear()
        records = ens.generate_records(cfg)
        assert states == [random.Random(s).getstate() for s in seeds] and len(generators) == 1
        for rec, s in zip(records, seeds):
            chosen, r1, r2 = draw(cfg, cfg.m_values[0], random.Random(s))
            pairs = ens._all_pairs(cfg.n)
            assert (rec.m, rec.red1, rec.red2) == (len(chosen), pairs[chosen[r1]], pairs[chosen[r2]])


def test_all_pairs_built_once_and_immutable():
    pairs = ens._all_pairs(7)
    assert pairs is ens._all_pairs(7) and isinstance(pairs, tuple)
    assert pairs == tuple(itertools.combinations(range(7), 2))
    assert [e[:2] for e in sample_graph(7, 21, 5).edges] == list(pairs)  # M = 21 draws every pair


def test_config_validation():
    with pytest.raises(InputError):
        EnsembleConfig(10, (46,), 10, 0)  # M beyond C(10,2)
    with pytest.raises(InputError):
        EnsembleConfig(10, (1,), 10, 0)  # need two red edges
    with pytest.raises(InputError):
        EnsembleConfig(10, (10,), 0, 0)
    with pytest.raises(InputError):
        ens.config_from_dict({"N": 10, "M": [45], "samples": 10})  # missing seed


@pytest.mark.parametrize(
    "patch",
    [
        {"N": 10.7},
        {"N": True},
        {"N": "10"},
        {"M": [15, 30.5]},
        {"M": True},
        {"samples": 40.2},
        {"samples": "40"},
        {"seed": False},
        {"seed": 1.5},
        {"model": "gnp", "p": True},
        {"model": "gnp", "p": "0.5"},
    ],
)
def test_config_rejects_coercion(patch):
    base = {"N": 10, "M": [15, 30], "samples": 40, "seed": 1}
    with pytest.raises(InputError):
        ens.config_from_dict({**base, **patch})


@pytest.mark.parametrize(
    "raw, message",
    [
        ({"N": 6, "M": [8], "samples": 2, "seed": 1, "modle": "gnp", "p": 0.5}, "unknown keys ['modle']"),
        ({"N": 6, "M": [8], "samples": 2, "seed": 1, "p": 0.5}, "p applies only to model gnp"),
        ({"N": 6, "M": [8], "samples": 2, "seed": 1, "model": "gnm", "p": 0.5}, "p applies only to model gnp"),
        # a repeated M would write every record twice under one summary key
        ({"N": 8, "M": [10, 10], "samples": 3, "seed": 1}, "M lists 10 more than once"),
        ({"N": 8, "M": [12, 10, 12, 11, 10], "samples": 3, "seed": 1}, "M lists 10, 12 more than once"),
    ],
)
def test_config_rejects_unknown_keys_and_p_under_gnm(raw, message):
    with pytest.raises(InputError, match=re.escape(message)):
        ens.config_from_dict(raw)


def test_config_is_a_validated_immutable_value():
    for args, message in (
        ((1, (2,), 4, 0), "need at least 2 vertices"),
        ((10, (), 4, 0), "M must list at least one value"),
        ((10, (15,), 4, 0, "gnx"), "unknown model 'gnx'"),
        ((10, (15,), 4, 0, "gnp"), "gnp model needs 0 < p <= 1"),
        ((10, (15,), 4, 0, "gnp", 1.5), "gnp model needs 0 < p <= 1"),
        # p is no silent extra field under gnm, which would draw the same
        # records as the config without it
        ((10, (15,), 3, 7, "gnm", 0.5), "ensemble config p applies only to model gnp"),
        ((10.5, (15,), 3, 7, "gnm", "0.5"), "ensemble config p applies only to model gnp"),
    ):
        with pytest.raises(InputError, match=re.escape(message)):
            EnsembleConfig(*args)
    cfg = EnsembleConfig(10, (15, 30), 40, 1)
    same = ens.config_from_dict({"N": 10, "M": [15, 30], "samples": 40, "seed": 1})
    assert (cfg.model, cfg.p) == ("gnm", None)
    assert_value(cfg, same, EnsembleConfig(10, (15, 30), 40, 2), EnsembleConfig(10, (15, 30), 40, 1, "gnp", 0.5))
    assert repr(cfg) == "EnsembleConfig(n=10, m_values=(15, 30), samples_per_m=40, master_seed=1, model='gnm', p=None)"
    # the records are named tuples
    first, second = itertools.islice(ens.iter_records(cfg), 2)
    assert_value(first, next(ens.iter_records(same)), second)


def test_config_accepts_integral_numbers():
    cfg = ens.config_from_dict({"N": 10.0, "M": 15, "samples": 4e1, "seed": 1, "model": "gnp", "p": 1})
    assert cfg == EnsembleConfig(10, (15,), 40, 1, "gnp", 1.0)
    assert all(type(x) is int for x in (cfg.n, cfg.samples_per_m, cfg.master_seed, *cfg.m_values))


def test_config_checks_its_own_fields():
    # the constructor applies config_from_dict's rules itself: an integral
    # float is the int, so seed 7.0 draws seed 7's stream; M is a tuple
    records = ens.generate_records(EnsembleConfig(10, (15,), 3, 7))
    cfg = EnsembleConfig(10.0, [15.0], 3.0, 7.0)
    assert cfg == EnsembleConfig(10, (15,), 3, 7) and type(cfg.m_values) is tuple
    assert all(type(x) is int for x in (cfg.n, cfg.samples_per_m, cfg.master_seed, *cfg.m_values))
    assert ens.generate_records(cfg) == records
    assert EnsembleConfig(10, (15,), 3, 7, "gnp", 1).p == 1.0


@pytest.mark.parametrize(
    "args, message",
    [
        ((10, (15,), 3, "7"), "seed must be an integer, got '7'"),
        ((10, (15,), 3, 7, "gnp", True), "p must be a number, got True"),
        ((10.5, (15,), 3, 7), "N must be an integer, got 10.5"),
        ((10, (15, 30.5), 3, 7), "M must be an integer, got 30.5"),
        ((10, (15,), 3.5, 7), "samples must be an integer, got 3.5"),
        ((10, (15,), 3, 7, "gnp", "0.5"), "p must be a number, got '0.5'"),
    ],
)
def test_config_constructor_rejects_coercion(args, message):
    # a string seed no longer runs as seed 7, p = True no longer as p = 1,
    # and a float N, M or samples or a string p is an InputError, not a
    # TypeError from range or a comparison
    with pytest.raises(InputError, match=re.escape(message)):
        EnsembleConfig(*args)


def test_coefficients_match_minor_path(monkeypatch):
    # oracle: the per-mask minor path, on sparse (black subgraph
    # disconnected, A_empty = 0) up to complete graphs.  The elimination
    # drops one zero row per black component past the first; with or
    # without dropped rows every value is read off the one elimination,
    # so no determinant is taken.
    def forbidden(*args):
        raise AssertionError("det_int called")

    seen = set()
    for n in range(5, 13):
        total = n * (n - 1) // 2
        for m in sorted({n - 2, n, n + 1, (n + total) // 2, total}):
            for seed in range(8):
                g = sample_graph(n, m, seed)
                red1, red2 = (e[:2] for e in g.red_edges)
                black = [(u, v, 1) for u, v, _ in g.black_edges]
                expect = minor_path_coefficients(g)
                with monkeypatch.context() as patch:
                    patch.setattr(_kernels, "det_int", forbidden)
                    got = _transfer_current(n, black, (red1, red2), _r2_minors)[:4]
                assert tuple(got) == expect
                dropped = component_counts(g)[1] - 1
                assert (expect[0] != 0) == (dropped == 0)
                seen.add((dropped == 0, bool(set(red1) & set(red2))))
    # both cases ran (no row dropped, A_empty = 0), each on disjoint and on
    # vertex-sharing red pairs
    assert seen == {(True, True), (True, False), (False, True), (False, False)}


def _bordered_rows(n, black, reds):
    """H = [[Q, B], [B^T, 0]] entry by entry: Q the unit Laplacian of the
    ``black`` pairs grounded at vertex 0, column i of B the incidence vector
    of ``reds[i]``."""
    h = [[0] * (n + 1) for _ in range(n + 1)]
    for u, v in black:
        for a, b in ((u, v), (v, u)):
            if a:
                h[a - 1][a - 1] += 1
                if b:
                    h[a - 1][b - 1] -= 1
    for col, (u, v) in enumerate(reds, n - 1):
        for x, sign in ((u, 1), (v, -1)):
            if x:
                h[x - 1][col] = h[col][x - 1] = sign
    return h


def _hadamard_fits(h) -> bool:
    return math.prod(max(1, sum(x * x for x in row)) for row in h) < 2**62


def _grid_samples(n):
    """The G(n, m) samples of ``test_coefficients_match_minor_path``'s grid,
    as (``_sample_pairs`` draw, black pairs, red pairs)."""
    total = n * (n - 1) // 2
    for m in sorted({n - 2, n, n + 1, (n + total) // 2, total}):
        for seed in range(8):
            draw = ens._sample_pairs(EnsembleConfig(n, (m,), 1, 0), m, random.Random(seed))
            yield draw, *_split(n, draw)


def _bridged_rows(n, black) -> list[int]:
    """The least vertex of every black component without vertex 0, by
    propagating the least label along the edges until nothing changes."""
    root = list(range(n))
    changed = True
    while changed:
        changed = False
        for u, v in black:
            low = min(root[u], root[v])
            if root[u] != low or root[v] != low:
                root[u] = root[v] = low
                changed = True
    return [v for v in range(1, n) if root[v] == v]


def _stack(n, samples):
    """(Laplacian stack, red pairs) arrays of ``_bordered_stack`` for
    ``samples``, (black pairs, red pairs) each: the unit Laplacian of the
    black pairs, vertex 0 included, built entry by entry."""
    lap = np.zeros((len(samples), n, n), dtype=np.int64)
    for b, (black, _) in enumerate(samples):
        for u, v in black:
            lap[b, u, v] = lap[b, v, u] = -1
            lap[b, u, u] += 1
            lap[b, v, v] += 1
    reds = np.array([reds for _, reds in samples], dtype=np.intp).reshape(-1, 2, 2)
    return lap, reds


def _scalar_minors(n, black, reds) -> list[int]:
    return _transfer_current(n, [(u, v, 1) for u, v in black], reds, _r2_minors)[:4]


def test_stacked_minors_match_the_scalar_core(monkeypatch):
    # oracle: the Python-int core on each sample.  The stack holds every grid
    # sample, connected or not; the norms that ``_stacked`` reads off it for
    # the bound are H's own row norms, and the Hadamard bound on them picks
    # the samples it eliminates
    seen = []
    fits_int64 = ens._fits_int64
    monkeypatch.setattr(ens, "_fits_int64", lambda norms: seen.append(norms) or fits_int64(norms))
    stacked = refused = 0
    components = set()
    for n in range(5, 13):
        grid = list(_grid_samples(n))
        samples = [(black, reds) for _, black, reds in grid]
        h = _bordered_stack(*_stack(n, samples))
        rows = [_bordered_rows(n, *sample) for sample in samples]
        assert h.tolist() == rows
        seen.clear()
        _, minors = ens._stacked(n, [draw for draw, _, _ in grid])
        (norms,) = seen
        assert norms.tolist() == [[sum(x * x for x in row) for row in h_b] for h_b in rows]
        fits = _fits_int64(norms)
        assert fits.tolist() == [_hadamard_fits(h_b) for h_b in rows]
        got = _stacked_minors(h[fits])
        assert got == [_scalar_minors(n, *sample) for sample, f in zip(samples, fits) if f]
        assert all(type(x) is int for values in got for x in values)
        assert minors == dict(zip(np.flatnonzero(fits).tolist(), got))
        assert n > 10 or fits.all()
        components |= {min(len(_bridged_rows(n, black)) + 1, 4) for (black, _), f in zip(samples, fits) if f}
        stacked += len(got)
        refused += len(samples) - len(got)
    # c(G+) = 1, 2, 3 and >= 4 all went through the stack
    assert stacked > 200 and refused > 0 and components == {1, 2, 3, 4}


def test_stacked_minors_match_the_core_at_every_component_count():
    # oracle: ``_transfer_current(..., _r2_minors)`` on seeded samples at
    # N = 8-16, from M = 2 (no black edge, c(G+) = N) up to M = 2N: every
    # one under the bound is stacked whatever its c(G+), the connected ones
    # read off the last block, the others through the core's closed form
    counts = set()
    for n in range(8, 17):
        draws = [
            ens._sample_pairs(EnsembleConfig(n, (m,), 1, 0), m, random.Random(1000 * n + 10 * m + seed))
            for m in range(2, 2 * n + 1)
            for seed in range(4)
        ]
        samples = [_split(n, draw) for draw in draws]
        h = _bordered_stack(*_stack(n, samples))
        fits = _fits_int64(np.einsum("bij,bij->bi", h, h))
        assert _stacked_minors(h[fits]) == [_scalar_minors(n, *sample) for sample, f in zip(samples, fits) if f]
        counts |= {len(_bridged_rows(n, black)) + 1 for (black, _), f in zip(samples, fits) if f}
    assert counts == set(range(1, 17))


def _path_draw(n, red1, red2):
    """A ``_sample_pairs`` draw: the black path 0-1-...-(n-1) and the red
    pairs ``red1`` and ``red2``."""
    pairs = ens._all_pairs(n)
    chosen = sorted([pairs.index((i, i + 1)) for i in range(n - 1)] + [pairs.index(red1), pairs.index(red2)])
    return chosen, chosen.index(pairs.index(red1)), chosen.index(pairs.index(red2))


def _split(n, draw):
    """(black pairs, red pairs) of a ``_sample_pairs`` draw."""
    chosen, r1, r2 = draw
    pairs = [ens._all_pairs(n)[j] for j in chosen]
    return pairs[:r1] + pairs[r1 + 1 : r2] + pairs[r2 + 1 :], (pairs[r1], pairs[r2])


def _draw_graph(n, draw):
    """The two-red-edge graph of a ``_sample_pairs`` draw."""
    black, reds = _split(n, draw)
    return swg(n, [(u, v, 1) for u, v in black] + [(u, v, -1) for u, v in reds])


def _replay(h):
    """The stacked update replayed on Python ints, on one bordered matrix
    ``h`` (lists), each zero pivot dropping its row and column: (the
    largest product or difference it forms, the largest quotient,
    [A_empty, A_x, A_y, A_xy] as ``_stacked_minors`` reads them off the
    last block, which are those of a connected sample)."""
    top = quotient = 0
    prev = 1
    while len(h) > 2:
        p = h[0][0]
        if not p:
            # the stack multiplies the rest by prev and divides it back
            top = max(top, *(abs(x * prev) for row in h[1:] for x in row[1:]))
            h = [row[1:] for row in h[1:]]
            continue
        products = [(x * p, h[i][0] * h[0][j]) for i, row in enumerate(h[1:], 1) for j, x in enumerate(row[1:], 1)]
        top = max(top, *(max(abs(a), abs(b), abs(a - b)) for a, b in products))
        h = [[(x * p - row[0] * h[0][j]) // prev for j, x in enumerate(row[1:], 1)] for row in h[1:]]
        quotient = max(quotient, *(abs(x) for row in h for x in row))
        prev = p
    det = h[0][0] * h[1][1] - h[0][1] * h[1][0]
    top = max(top, abs(h[0][0] * h[1][1]), abs(h[0][1] * h[1][0]), abs(det))
    axy, rem = divmod(det, prev)
    assert rem == 0
    return top, quotient, [prev, -h[0][0], -h[1][1], axy]


def test_int64_bound_covers_every_product():
    # the stacked update replayed on Python ints, zero rows dropped: on
    # every sample whose H the bound clears, connected or not, no product
    # or difference it forms reaches 2^63; the grid holds samples whose
    # products do
    beyond = bridged = 0
    for n in range(5, 14):
        for _, black, reds in _grid_samples(n):
            h = _bordered_rows(n, black, reds)
            fits, top = _hadamard_fits(h), _replay(h)[0]
            assert not fits or top < 2**63
            beyond += top >= 2**63
            bridged += fits and len(_bridged_rows(n, black)) > 0
    assert beyond > 0 and bridged > 0


def _near_bound(rng: random.Random, r: int):
    """A bordered matrix H = [[Q, B], [B^T, 0]] with an r x r Q, just under
    the int64 bound: sparse unit off-diagonals, a diagonally dominant (so
    positive definite) Q, and two red incidence columns, an endpoint at
    the ground vertex leaving no entry.  The diagonal of a random set of
    rows is raised by one common amount as far as the bound allows, then
    every diagonal by single steps until none can rise."""
    h = [[0] * (r + 2) for _ in range(r + 2)]
    for i in range(r):
        for j in range(i + 1, r):
            if rng.random() < 0.2:
                h[i][j] = h[j][i] = rng.choice((-1, 1))
    for col in (r, r + 1):
        for row, sign in zip(rng.sample(range(-1, r), 2), (1, -1)):
            if row >= 0:
                h[row][col] = h[col][row] = sign
    base = [sum(map(abs, h[i][:r])) + 1 for i in range(r)]
    heavy = rng.sample(range(r), rng.randint(1, r))

    def fits_with(t):
        for i in range(r):
            h[i][i] = base[i] + t * (i in heavy)
        return _hadamard_fits(h)

    lo, hi = 0, 1 << 31
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if fits_with(mid) else (lo, mid)
    fits_with(lo)
    raised = True
    while raised:
        raised = False
        for i in rng.sample(range(r), r):
            h[i][i] += 1
            raised = _hadamard_fits(h) or raised
            if not _hadamard_fits(h):
                h[i][i] -= 1
    return h


def test_float_quotients_are_exact_at_the_int64_bound():
    # each step divides in float64 and rounds: at the bound its int64
    # products reach about 2^61, past the 2^53 that float64 holds exactly,
    # and its quotients 2^31; the stacked minors must still be the
    # Python-int replay's, on every Q size
    top = quotient = 0
    for r in range(2, 9):
        stack = [_near_bound(random.Random(f"{r}:{seed}"), r) for seed in range(60)]
        assert all(_hadamard_fits(h) for h in stack)
        got = _stacked_minors(np.array(stack, dtype=np.int64))
        for h, values in zip(stack, got):
            t, q, expect = _replay(h)
            assert values == expect
            top, quotient = max(top, t), max(quotient, q)
    assert top > 2**60.9 and quotient > 2**30.9


def test_fits_int64_decides_exactly_next_to_the_bound():
    # rows whose log2 norm sum lies within 1e-6 of 62, on both sides, and
    # at exactly 2^62 (over the bound): the float sum and its exact
    # fallback agree with the Hadamard product in Python ints
    stack = []
    for r in range(2, 9):
        for seed in range(20):
            h = _near_bound(random.Random(f"edge:{r}:{seed}"), r)
            stack.append(h)
            over = [row[:] for row in h]
            i = max(range(r), key=lambda i: over[i][i])
            over[i][i] += 1
            stack.append(over)
    for d in (2**31 - 1, 2**31, 2**31 + 1):
        # Q = diag(d, 1), red columns with one entry each: norms d^2, 1, 1, 1
        stack += [[[d, 0, 0, 0], [0, 1, 0, 1], [0, 0, 0, 0], [0, 1, 0, 0]]]
    width = max(map(len, stack))
    rows = [[sum(x * x for x in row) for row in h] + [0] * (width - len(h)) for h in stack]
    near = [row for row in rows if abs(sum(math.log2(max(1, x)) for x in row) - 62) < 1e-6]
    expect = [_hadamard_fits(h) for h, row in zip(stack, rows) if row in near]
    assert _fits_int64(np.array(near, dtype=np.int64)).tolist() == expect
    assert 2**62 in [math.prod(max(1, x) for x in row) for row in near]
    assert expect.count(True) > 20 and expect.count(False) > 20


def test_stacked_minors_raise_on_a_zero_pivot_or_an_inexact_division():
    # Q = diag(-1, 2) has a negative pivot; Q = [[0, 1], [1, 2]] a zero
    # pivot whose row within Q is not zero, which no positive semidefinite
    # Q has; K12 is connected and over the int64 bound, and its wrapped
    # products no longer divide exactly
    def bordered(q):
        return [[*q[0], 1, 0], [*q[1], 0, 1], [1, 0, 0, 0], [0, 1, 0, 0]]

    g = sample_graph(12, 66, 1)
    k12 = _bordered_stack(*_stack(12, [([(u, v) for u, v, _ in g.black_edges], tuple(e[:2] for e in g.red_edges))]))
    for h, match in (
        (np.array([bordered([[-1, 0], [0, 2]])]), "pivot < 0, or 0 on a nonzero row of Q"),
        (np.array([bordered([[2, 0], [0, 1]]), bordered([[0, 1], [1, 2]])]), "pivot < 0, or 0 on a nonzero row of Q"),
        (k12, "not divisible"),
    ):
        with pytest.raises(InternalConsistencyError, match=match):
            _stacked_minors(h)


def test_stacked_bridged_sample_raises_on_an_inexact_recorded_entry(monkeypatch):
    # the triangle 0-1-2 and the edge 3-4, red edges (2, 3) and (0, 4): the
    # stack drops the row of vertex 4 and hands the core's closed form what
    # ``spectral._eliminate`` leaves, whose Y^T Y / d check then catches a
    # recorded red entry one too large
    black, reds = [(0, 1), (0, 2), (1, 2), (3, 4)], ((2, 3), (0, 4))
    h = _bordered_stack(*_stack(5, [(black, reds)]))
    real, handed, off_by_one = ens._read_eliminated, [], []

    def watched(upper, dropped, d, read):
        handed.append((upper, dropped, d))
        if off_by_one:
            (entries, q), *rest = dropped
            dropped = [([entries[0] + 1, *entries[1:]], q), *rest]
        return real(upper, dropped, d, read)

    monkeypatch.setattr(ens, "_read_eliminated", watched)
    assert _stacked_minors(h) == [[0, 3, 3, 5]] == [_scalar_minors(5, black, reds)]
    assert handed == [_eliminate(5, [(u, v, 1) for u, v in black], reds, 4)] and handed[0][1:] == ([([-3, -3], 3)], 3)
    off_by_one.append(True)
    with pytest.raises(InternalConsistencyError, match=re.escape("Y^T Y of the dropped rows not divisible by det Q = 3")):
        _stacked_minors(h)


def test_stacked_labels_match_classify():
    # oracle: ``classify`` on each sample (list BFS and component count),
    # for every sample of the chunk, under the int64 bound or over it.
    # The grid runs to N = 14 and takes in N = 16, 20 and 40, G(N,p)
    # draws, and M = 2, 3 (no black edge, or one: A_empty = 0 with
    # c(G+) > 10 from N = 13); black paths on 13 and 14 vertices with red
    # chords at their ends give distances of 10 and more, clamped to '+'
    labels, over, many = set(), set(), set()
    for n in (*range(5, 15), 16, 20, 40):
        total = n * (n - 1) // 2
        draws = [
            ens._sample_pairs(EnsembleConfig(n, (m,), 1, 0), m, random.Random(seed))
            for m in sorted({2, 3, n - 2, n, n + 1, (n + total) // 2, total})
            for seed in range(8)
        ]
        for p in (0.1, 0.3, 0.7):
            draws += [ens._sample_pairs(EnsembleConfig(n, (1,), 1, 0, "gnp", p), 1, random.Random(seed)) for seed in range(8)]
        if n >= 13:
            draws += [_path_draw(n, (0, 2), (n - 3, n - 1)), _path_draw(n, (0, 2), (1, n - 1)), _path_draw(n, (1, 3), (3, 5))]
        got, minors = ens._stacked(n, draws)
        assert len(got) == len(draws)
        for i, (draw, label) in enumerate(zip(draws, got)):
            assert label == classify(_draw_graph(n, draw))
            labels.add(label)
            if i not in minors:
                over.add(n)
            if len(_bridged_rows(n, _split(n, draw)[0])) >= 10:
                many.add(n)
    # 8+++ and 9+++ at N = 13 and 14, 11++ with d = 10, 12 or 11, 13
    assert {"adj", "disconnected_plus", "8+++", "9+++", "11++"} <= labels
    assert any(label.isdigit() and len(label) == 4 for label in labels)
    assert {16, 20, 40} <= over and {13, 14, 16, 20, 40} <= many


def test_samples_over_the_bound_build_no_dense_arrays(monkeypatch):
    # at N = 200, dense samples (M = 400) fail the bound on H: no sample
    # reaches the stacked elimination.  All reach the BFS, in chunks of the
    # production length, whose stacked N x N arrays hold at most 2^19
    # entries each: peak memory stays under half of what one dense float32
    # BFS stack for these 256 samples would take (41 MB)
    n = 200
    batches, stacked = [], []
    hops, stack = ens._hops, ens._stacked_minors
    monkeypatch.setattr(ens, "_hops", lambda lap: batches.append(len(lap)) or hops(lap))
    monkeypatch.setattr(ens, "_stacked_minors", lambda h: stacked.append(len(h)) or stack(h))
    cfg = EnsembleConfig(n, (400,), 1, 0)
    draws = [ens._sample_pairs(cfg, 400, random.Random(seed)) for seed in range(256)]
    assert not any(_hadamard_fits(_bordered_rows(n, *_split(n, draw))) for draw in draws[:8])
    length = ens._chunk_length(n)
    tracemalloc.start()
    try:
        for start in range(0, len(draws), length):
            labels, minors = ens._stacked(n, draws[start : start + length])
            assert len(labels) == len(draws[start : start + length]) and minors == {}
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(batches) == len(draws) and all(batch * n * n <= 2**19 for batch in batches)
    assert set(stacked) == {0} and peak < 20 << 20


def test_records_route_by_the_bound_alone(monkeypatch):
    # the Python-int core takes exactly the samples whose H is over the
    # bound, connected or not: none at N <= 10, some at N = 11-12.  One
    # stacked call per chunk takes every other sample, and each of those
    # with a disconnected black subgraph gets its values from the core's
    # closed form, ``spectral._read_eliminated``
    stacked, scalar, bridged_reads = [], [], []
    stack, transfer_current, read_eliminated = ens._stacked_minors, ens._transfer_current, ens._read_eliminated
    monkeypatch.setattr(ens, "_stacked_minors", lambda h: stacked.append(len(h)) or stack(h))
    monkeypatch.setattr(ens, "_transfer_current", lambda n, black, reds, read: scalar.append((n, black, reds)) or transfer_current(n, black, reds, read))
    monkeypatch.setattr(ens, "_read_eliminated", lambda *args: bridged_reads.append(args) or read_eliminated(*args))
    over, bridged = {}, 0
    for n in range(5, 13):
        total = n * (n - 1) // 2
        ms = tuple(sorted({n - 2, n, n + 1, (n + total) // 2, total}))
        cfg = EnsembleConfig(n, ms, 8, master_seed=n)
        scalar.clear()
        stacked.clear()
        bridged_reads.clear()
        records = ens.generate_records(cfg)
        expect, chunk_bridged = [], 0
        for rec in records:
            g = sample_graph(n, rec.m, ens.sample_seed(n, rec.m, rec.sample_id))
            black = [(u, v) for u, v, _ in g.black_edges]
            reds = (rec.red1, rec.red2)
            c = len(_bridged_rows(n, black)) + 1
            assert (c == 1) == rec.gplus_connected
            if _hadamard_fits(_bordered_rows(n, black, reds)):
                chunk_bridged += c > 1
            else:
                expect.append((n, [(u, v, 1) for u, v in black], reds))
        assert scalar == expect
        assert stacked == [len(records) - len(expect)] and len(bridged_reads) == chunk_bridged
        over[n] = len(expect)
        bridged += chunk_bridged
    assert not any(over[n] for n in range(5, 11)) and over[11] + over[12] > 0 and bridged > 0


def test_compute_record_is_a_chunk_of_one():
    cfg = EnsembleConfig(9, (8, 20, 36), 10, master_seed=2)
    assert [ens.compute_record(cfg, m, i) for m in cfg.m_values for i in range(10)] == ens.generate_records(cfg)


def test_summary_bytes_match_json_dump(tmp_path):
    # M = 3 leaves one black edge, so no sample is connected and every
    # moment is null; K10 (M = 45) with disjoint red edges gives Delta = 0,
    # a -inf log-gap in bin 0; K8 has two gaps only, so its bins count far
    # past 9
    configs = [
        {"N": 10, "M": [3, 15, 45], "samples": 40, "seed": 1},
        {"N": 9, "M": [1], "samples": 40, "seed": 4, "model": "gnp", "p": 0.4},
        {"N": 8, "M": [28, 12], "samples": 250, "seed": 2},
    ]
    top = 0
    for k, raw in enumerate(configs):
        records = ens.generate_records(ens.config_from_dict(raw))
        summary = ens.summarize(records)
        path = tmp_path / f"{k}.summary.json"
        ens.write_summary(summary, path)
        assert path.read_bytes() == (json.dumps(summary, indent=2, sort_keys=True) + "\n").encode()
        top = max(top, *(max(h) for entry in summary["per_m"].values() for h in entry["histograms"].values()))
    assert top >= 100
    per_m = ens.summarize(ens.generate_records(ens.config_from_dict(configs[0])))["per_m"]
    assert per_m["3"]["p_gplus_disconnected"] == 1.0
    assert per_m["3"]["log10_gap_mean"] is None and per_m["3"]["p_delta_zero_given_connected"] is None
    assert per_m["45"]["p_delta_zero_given_connected"] > 0 and per_m["45"]["histograms"]["all"][0] > 0


def test_summary_histograms_are_counts_equal_to_plain_lists():
    # the writer joins a _Counts in one pass; to every reader it is the
    # plain list of its bins
    records = ens.generate_records(EnsembleConfig(8, (10, 28), 30, master_seed=3))
    summary = ens.summarize(records)
    plain = json.loads(json.dumps(summary))
    hists = [h for entry in summary["per_m"].values() for h in entry["histograms"].values()]
    assert len(hists) > 2 and all(type(h) is _Counts and len(h) == ens._HIST_BINS for h in hists)
    assert all(type(h) is list for entry in plain["per_m"].values() for h in entry["histograms"].values())
    assert summary == plain and plain == summary


def _joined_line(rec) -> str:
    """The CSV line as the writer once joined it, field by field."""

    def fmt(x):
        if x is None:
            return ""
        if x == -math.inf:
            return "-inf"
        return f"{x:.17g}"

    fields = [rec.sample_id, rec.n, rec.m, *rec.red1, *rec.red2, rec.class_label]
    flags = ["true" if rec.gplus_connected else "false", "true" if rec.delta_zero else "false"]
    return ",".join([*map(str, fields), *flags, fmt(rec.gap), fmt(rec.log10_gap)])


def test_csv_line_matches_the_joined_fields():
    # undefined gaps (M = 3), Delta = 0 (K10: gap 0, log-gap -inf), and
    # floats that take all 17 digits, drawn and made up
    records = ens.generate_records(EnsembleConfig(10, (3, 15, 45), 40, 1))
    base = records[0]
    records += [
        base._replace(gap=g, log10_gap=lg, gplus_connected=c, delta_zero=z)
        for g, lg, c, z in (
            (1 / 3, math.log10(1 / 3), True, False),
            (0.1 + 0.2, -0.52287874528033762, False, True),
            (5e-324, -323.3, True, True),
            (1.7976931348623157e308, 308.25, False, False),
            (None, None, True, False),
            (0.0, -math.inf, True, True),
        )
    ]
    lines = [ens.record_to_csv_line(rec) for rec in records]
    assert lines == [_joined_line(rec) for rec in records]
    assert any(line.endswith(",,") for line in lines) and any(line.endswith(",0,-inf") for line in lines)
    digits = [len(re.sub(r"e.*|[-.]", "", field).lstrip("0")) for line in lines for field in line.split(",")[-2:]]
    assert digits.count(17) > 40


def test_gnp_rejects_fewer_than_three_vertices():
    with pytest.raises(InputError, match="N >= 3"):
        EnsembleConfig(2, (1,), 5, 0, model="gnp", p=1.0)
    EnsembleConfig(3, (1,), 5, 0, model="gnp", p=1.0)


def test_gnp_redraw_cap_raises():
    cfg = EnsembleConfig(10, (1,), 3, 0, model="gnp", p=1e-9)
    with pytest.raises(InputError, match=r"N=10, p=1e-09 drew fewer than 2 edges in 1000 tries"):
        ens.compute_record(cfg, 1, 0)


def test_classify_examples():
    g = swg(4, [(0, 1, -1), (1, 2, -1), (0, 2, 1), (0, 3, 1), (1, 3, 1), (2, 3, 1)])
    assert classify(g) == "adj"
    assert classify(kn_with_reds(6, [(0, 1), (2, 3)])) == "1111"
    # black subgraph disconnected overrides everything
    g = swg(4, [(0, 1, -1), (2, 3, -1), (0, 2, 1), (1, 2, 1)])
    assert classify(g) == "disconnected_plus"


def test_classify_distance_signature():
    # path 0-1-2-3-4-5 black, reds (0,1) replaced: need disjoint reds; build
    # blacks on a path and reds as chords with known distances
    g = swg(
        6,
        [(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 4, 1), (4, 5, 1), (0, 2, -1), (3, 5, -1)],
    )
    # red endpoints (0,2) vs (3,5): black distances d(0,3)=3 d(0,5)=5 d(2,3)=1 d(2,5)=3
    assert classify(g) == "1335"


def test_classify_distance_clamp():
    # black path 0..12 with red chords at the ends; the three distances
    # >= 10 clamp to '+', leaving d(2,10) = 8 in front
    edges = [(i, i + 1, 1) for i in range(12)] + [(0, 2, -1), (10, 12, -1)]
    g = swg(13, edges)
    assert classify(g) == "8+++"


def test_record_pipeline_matches_generic_coefficients():
    # the integer fast path must agree with the generic exact machinery
    cfg = EnsembleConfig(8, (12,), 40, master_seed=7)
    for i in range(40):
        rec = ens.compute_record(cfg, 12, i)
        seed = ens.sample_seed(7, 12, i)
        g = sample_graph(8, 12, seed)
        assert (rec.red1, rec.red2) == (g.red_edges[0][:2], g.red_edges[1][:2])
        p = crossing_polynomial(g)
        delta = discriminant(p)
        assert rec.delta_zero == (delta == 0)
        a11 = p.coeffs[3]
        if a11 == 0:
            assert rec.gap is None
        elif delta == 0:
            assert rec.gap == 0.0 and rec.log10_gap == -math.inf
        else:
            expect = math.sqrt(float(2 * abs(delta) / (a11 * a11)))
            assert abs(rec.gap - expect) < 1e-12 * max(1.0, expect)
        assert rec.class_label == classify(g)
        assert rec.gplus_connected == (classify(g) != "disconnected_plus")


def test_gap_undefined_iff_disconnected():
    from signedlap.graph import is_connected

    cfg = EnsembleConfig(9, (9,), 60, master_seed=3)
    for i in range(60):
        rec = ens.compute_record(cfg, 9, i)
        g = sample_graph(9, 9, ens.sample_seed(3, 9, i))
        assert (rec.gap is None) == (not is_connected(g))


def test_records_deterministic_and_thread_invariant():
    cfg = EnsembleConfig(9, (12, 20), 50, master_seed=11)
    solo = ens.generate_records(cfg, threads=1)
    multi = ens.generate_records(cfg, threads=4)
    assert solo == multi
    again = ens.generate_records(cfg, threads=1)
    assert solo == again


def test_csv_byte_identical_reruns(tmp_path):
    cfg = EnsembleConfig(9, (12,), 30, master_seed=5)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    ens.write_csv(ens.generate_records(cfg), p1)
    ens.write_csv(ens.generate_records(cfg, threads=3), p2)
    assert p1.read_bytes() == p2.read_bytes()
    header = p1.read_text().splitlines()[0]
    assert header == ens.CSV_HEADER


def test_csv_roundtrip_fields(tmp_path):
    cfg = EnsembleConfig(8, (10,), 20, master_seed=13)
    records = ens.generate_records(cfg)
    path = tmp_path / "r.csv"
    ens.write_csv(records, path)
    lines = path.read_text().splitlines()
    assert len(lines) == 21
    for rec, line in zip(records, lines[1:]):
        parts = line.split(",")
        assert int(parts[0]) == rec.sample_id
        assert (int(parts[3]), int(parts[4])) == rec.red1
        assert parts[8] == ("true" if rec.gplus_connected else "false")
        if rec.gap is not None and math.isfinite(rec.gap):
            assert float(parts[10]) == rec.gap


@pytest.mark.parametrize("chunk", [2, 3, 1024])
def test_csv_keeps_every_line_before_a_failing_record(tmp_path, monkeypatch, chunk):
    # lines are written a chunk at a time, and a stream that raises keeps
    # the line of every record it gave before, as one written line by line
    # would; one that raises on its first record leaves no file
    monkeypatch.setattr(ens, "_CHUNK", chunk)
    records = ens.generate_records(EnsembleConfig(8, (10,), 5, master_seed=13))

    def failing(count):
        yield from records[:count]
        raise InputError("stream failed")

    for count in (0, 1, 2, 5):
        path = tmp_path / f"{chunk}-{count}.csv"
        with pytest.raises(InputError, match="stream failed"):
            ens.write_csv(failing(count), path)
        if count == 0:
            assert not path.exists()
        else:
            assert path.read_text().splitlines() == [ens.CSV_HEADER, *map(ens.record_to_csv_line, records[:count])]


def test_summary_partition_and_pointmass():
    cfg = EnsembleConfig(7, (21,), 200, master_seed=17)  # complete graph K7
    records = ens.generate_records(cfg)
    summary = ens.summarize(records)
    entry = summary["per_m"]["21"]
    assert entry["samples"] == 200
    assert entry["p_gplus_disconnected"] == 0.0
    hists = entry["histograms"]
    total = hists["all"]
    split = [sum(h[b] for k, h in hists.items() if k != "all") for b in range(len(total))]
    assert split == total  # class histograms partition the defined-gap histogram
    # complete graph: every adj sample carries the same gap (point mass)
    gaps = {r.gap for r in records if r.class_label == "adj"}
    assert len(gaps) == 1
    assert entry["log10_gap_std"] < 1e-12


def test_summarize_rejects_empty():
    with pytest.raises(InputError):
        ens.summarize([])


def test_gnp_model_smoke():
    cfg = EnsembleConfig(9, (9,), 25, master_seed=19, model="gnp", p=0.4)
    records = ens.generate_records(cfg)
    assert len(records) == 25
    assert all(r.m >= 2 for r in records)
    assert ens.generate_records(cfg) == records


def test_complete_graph_law_exhaustive():
    # at maximum M the discriminant vanishes iff the red edges are disjoint
    import itertools

    for n in (5, 6):
        pairs = list(itertools.combinations(range(n), 2))
        for r1, r2 in itertools.combinations(pairs, 2):
            g = kn_with_reds(n, [r1, r2])
            delta = discriminant(crossing_polynomial(g))
            disjoint = not (set(r1) & set(r2))
            assert (delta == 0) == disjoint


def test_gap_and_log_extreme_ratio():
    # ratio leaves float range in both directions; the bit-length logarithm
    # path still reports usable values
    g, lg = ens._gap_and_log(10 ** 400, 1)
    assert abs(lg - 0.5 * (400 + math.log10(2))) < 1e-6
    assert abs(g / 10 ** 200 - math.sqrt(2)) < 1e-6
    g2, lg2 = ens._gap_and_log(1, 10 ** 400)
    assert g2 == 0.0 and abs(lg2 - 0.5 * (math.log10(2) - 800)) < 1e-6


def test_gap_and_log_matches_the_fraction_formula():
    # oracle: the ratio 2|delta|/a11^2 reduced by Fraction, then the same
    # scaled root; ints and Fractions, out to 10^+-400
    def reference(delta, a11):
        ratio = Fraction(2 * abs(delta), a11 * a11)
        num, den = ratio.numerator, ratio.denominator
        e = (num.bit_length() - den.bit_length()) // 2
        root = math.sqrt((num << max(-2 * e, 0)) / (den << max(2 * e, 0)))
        try:
            g = math.ldexp(root, e)
        except OverflowError:
            g = math.inf
        if 0.0 < g < math.inf:
            return g, math.log10(g)
        return g, math.log10(root) + e * math.log10(2.0)

    rng = random.Random(3)
    for _ in range(2000):
        digits = rng.choice((3, 12, 40, 400))
        delta, a11 = (rng.choice((-1, 1)) * rng.randrange(1, 10**rng.randrange(1, digits)) for _ in range(2))
        assert ens._gap_and_log(delta, a11) == reference(delta, a11)
        delta, a11 = Fraction(delta, rng.randrange(1, 10**6)), Fraction(a11, rng.randrange(1, 10**6))
        assert ens._gap_and_log(delta, a11) == reference(delta, a11)
