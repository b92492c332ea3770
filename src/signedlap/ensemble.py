"""Monte Carlo ensembles: uniform random graphs with two red edges.

Samples G(N,M) (or optionally G(N,p)) graphs, makes two uniformly chosen
edges red, and records the discriminant, the level-repulsion gap, and a
red-edge geometry class per sample.  Everything is driven by per-sample seeds
derived from (master_seed, M, sample_index), so output is byte-identical
for a given config whatever the order in which samples are computed.

delta_zero is decided by exact integer arithmetic (the four coefficients are
integer tree counts, reads of the transfer-current matrix that
``crossing_polynomial`` also reads), never by float thresholding.  Records
are computed a chunk at a time.  The chunk's samples are drawn from one
generator, reseeded per sample through the C seed that
``random.Random(seed)`` ends in, so each stream is a fresh generator's.
Then every sample of the chunk goes through one array pipeline,
``_stacked``, on one int64 stack of the samples' black Laplacians, vertex
0 included.  One BFS over its nonzero pattern, ``_hops``,
gives every sample's black components and the hop distances of its class.
``_bordered_stack`` builds every sample's bordered matrix H = [[Q, B],
[B^T, 0]] from it, and the Hadamard bound of ``_fits_int64`` is checked
once per sample, on the row norms of H.  The samples that pass take one
stacked elimination, ``_stacked_minors``: ``spectral._schur``'s update on
their H, its products in int64 and its exact quotients from a rounded
float64 division, each zero row of Q dropped and read as ``spectral``
reads it.  Every other sample takes ``spectral._transfer_current`` with
the R = 2 reader ``discriminants._r2_minors`` one by one, which give the
same integers.
``classify`` labels one graph by the list BFS of ``_kernels``, the
reference the array BFS is tested against.  The CSV and the summary are
written as bytes, with ``os.write`` (``graph._write_file``); the summary's
text comes from the package's one JSON writer, ``graph._json_text``, with
its histogram bins held as ``graph._Counts``.  This module
is the only one that imports numpy at import time, and the package loads
it only when an ensemble name is first used.
"""

from __future__ import annotations

import _random
import functools
import hashlib
import itertools
import math
import random
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .discriminants import _gap_and_log, _r2_minors, _require_r2
from .errors import InputError, InternalConsistencyError
from .graph import SignedWeightedGraph, _Counts, _Frozen, _json_text, _write_file
from .spectral import _read_eliminated, _transfer_current

_HIST_LO = -10.0
_HIST_BINS = 200  # 0.1-wide bins in log10(gap)
# G(N,p) draws with fewer than two edges are redrawn at most this many times
_GNP_MAX_DRAWS = 1000
# ``iter_records`` computes at most _CHUNK records back to back before it
# hands them on, fewer at large N (``_chunk_length``)
_CHUNK = 1024
_CHUNK_ENTRIES = 1 << 19
# a hop distance below 10 as its class symbol; 10 and above are '+'
_HOP_SYMBOLS = "0123456789"


def _integer_field(name: str, value) -> int:
    """``value`` as an int when it is an integer or an integral float;
    booleans, fractional numbers and strings are rejected, not coerced."""
    if isinstance(value, bool):
        raise InputError(f"ensemble config {name} must be an integer, got boolean {value}")
    if isinstance(value, int):
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise InputError(f"ensemble config {name} must be an integer, got {value!r}")


class EnsembleConfig(_Frozen):
    """An ensemble: N vertices, the M values, samples per M, the master
    seed, the model and, under gnp, p.

    N, every M, samples and seed must be integers (integral floats such as
    1e4 are accepted and stored as ints); p must be a number, stored as a
    float, and is given only under gnp.  Nothing is truncated or coerced,
    and ``m_values`` is stored as a tuple; N is at most 724.
    """

    _fields = ("n", "m_values", "samples_per_m", "master_seed", "model", "p")
    n: int
    m_values: tuple[int, ...]
    samples_per_m: int
    master_seed: int
    model: str  # "gnm" or "gnp"
    p: float | None

    def __init__(
        self,
        n: int,
        m_values: tuple[int, ...],
        samples_per_m: int,
        master_seed: int,
        model: str = "gnm",
        p: float | None = None,
    ):
        if model == "gnm" and p is not None:
            raise InputError("ensemble config p applies only to model gnp")
        n = _integer_field("N", n)
        m_values = tuple(_integer_field("M", m) for m in m_values)
        samples_per_m = _integer_field("samples", samples_per_m)
        master_seed = _integer_field("seed", master_seed)
        if p is not None:
            if isinstance(p, bool) or not isinstance(p, (int, float)):
                raise InputError(f"ensemble config p must be a number, got {p!r}")
            p = float(p)
        if n < 2:
            raise InputError("need at least 2 vertices")
        if n * n > _CHUNK_ENTRIES:  # one sample's N x N array must fit a chunk
            raise InputError(f"ensemble config N must be at most {math.isqrt(_CHUNK_ENTRIES)}")
        if samples_per_m < 1:
            raise InputError("samples_per_m must be positive")
        if not m_values:
            raise InputError("ensemble config M must list at least one value")
        if model not in ("gnm", "gnp"):
            raise InputError(f"unknown model {model!r}")
        if model == "gnp" and not (p and 0 < p <= 1):
            raise InputError("gnp model needs 0 < p <= 1")
        if model == "gnp" and n < 3:
            raise InputError(f"gnp model needs N >= 3 to draw two red edges, got N={n}")
        repeated = sorted({m for m in m_values if m_values.count(m) > 1})
        if repeated:
            raise InputError(f"ensemble config M lists {', '.join(map(str, repeated))} more than once")
        total = n * (n - 1) // 2
        for m in m_values:
            if model == "gnm" and not 2 <= m <= total:
                raise InputError(f"M={m} outside 2..{total} for N={n}")
        vars(self).update(
            n=n, m_values=m_values, samples_per_m=samples_per_m, master_seed=master_seed, model=model, p=p
        )


def config_from_dict(d: dict) -> EnsembleConfig:
    """Accepts {"N": .., "M": [..] or int, "samples": .., "seed": ..,
    "model": "gnm"|"gnp", "p": ..}, the fields of ``EnsembleConfig``,
    which checks their values, p under model gnm included.  Any other key
    is an error.
    """
    if not isinstance(d, dict):
        raise InputError("ensemble config must be a JSON object")
    unknown = [key for key in d if key not in ("N", "M", "samples", "seed", "model", "p")]
    if unknown:
        raise InputError(f"ensemble config has unknown keys {unknown}")
    missing = [key for key in ("N", "M", "samples", "seed") if key not in d]
    if missing:
        raise InputError(f"ensemble config needs integer N, M, samples, seed; missing {missing}")
    m_values = d["M"] if isinstance(d["M"], list) else [d["M"]]
    return EnsembleConfig(d["N"], m_values, d["samples"], d["seed"], d.get("model", "gnm"), d.get("p"))


def sample_seed(master_seed: int, m: int, index: int) -> int:
    """Stable 64-bit per-sample seed, independent of worker layout."""
    digest = hashlib.blake2b(
        f"{master_seed}:{m}:{index}".encode(), digest_size=8
    ).digest()
    return int.from_bytes(digest, "big")


@functools.cache
def _all_pairs(n: int) -> tuple[tuple[int, int], ...]:
    """The vertex pairs i < j in lexicographic order, built once per n."""
    return tuple((i, j) for i in range(n) for j in range(i + 1, n))


@functools.cache
def _pair_ends(n: int) -> np.ndarray:
    """``_all_pairs(n)`` as a read-only (n(n-1)/2, 2) array."""
    ends = np.array(_all_pairs(n), dtype=np.intp).reshape(-1, 2)
    ends.flags.writeable = False
    return ends


@functools.lru_cache(maxsize=256)
def _pool_steps(n: int, k: int) -> tuple[tuple[int, int, int], ...] | None:
    """The (bound, bits, bound - 1) of each of the k picks that
    ``Random.sample`` takes from a shrinking pool of n, bits the bit length
    of the bound; None when it redraws from a set instead, by its own
    set-size rule (the same from Python 3.10 to 3.13)."""
    setsize = 21
    if k > 5:
        setsize += 4 ** math.ceil(math.log(k * 3, 4))
    if n > setsize:
        return None
    return tuple((bound, bound.bit_length(), bound - 1) for bound in range(n, n - k, -1))


def _sample(rng: random.Random, n: int, k: int) -> list[int]:
    """``rng.sample(range(n), k)``, the same picks from the same stream.

    ``Random.sample`` takes each pick from ``_randbelow``, which draws
    ``getrandbits(b)``, b the bit length of its bound, until the draw falls
    below the bound; here the draws are made directly.  A small population
    is drawn from a shrinking pool (``_pool_steps``), a large one by
    redrawing picks already taken.
    """
    getrandbits = rng.getrandbits
    out = []
    steps = _pool_steps(n, k)
    if steps is not None:
        pool = list(range(n))
        for bound, bits, last in steps:
            j = getrandbits(bits)
            while j >= bound:
                j = getrandbits(bits)
            out.append(pool[j])
            pool[j] = pool[last]
        return out
    bits = n.bit_length()
    taken = set()
    for _ in range(k):
        j = getrandbits(bits)
        while j >= n or j in taken:
            j = getrandbits(bits)
        taken.add(j)
        out.append(j)
    return out


def _sample_pairs(cfg: EnsembleConfig, m: int, rng: random.Random):
    """(the drawn pairs as sorted indices into ``_all_pairs(cfg.n)``,
    position of red edge 1, position of red edge 2), drawn from ``rng``,
    seeded with the sample's seed."""
    total = cfg.n * (cfg.n - 1) // 2
    if cfg.model == "gnm":
        chosen = sorted(_sample(rng, total, m))
    else:
        for _ in range(_GNP_MAX_DRAWS):
            chosen = [i for i in range(total) if rng.random() < cfg.p]
            if len(chosen) >= 2:
                break
        else:
            raise InputError(
                f"gnp model at N={cfg.n}, p={cfg.p} drew fewer than 2 edges "
                f"in {_GNP_MAX_DRAWS} tries; raise p or N"
            )
    r1, r2 = sorted(_sample(rng, len(chosen), 2))
    return chosen, r1, r2


def sample_graph(n: int, m: int, seed: int) -> SignedWeightedGraph:
    """One G(N,M) draw with two red edges: black weights 1, red weights -1."""
    cfg = EnsembleConfig(n, (m,), 1, 0)
    chosen, r1, r2 = _sample_pairs(cfg, m, random.Random(seed))
    edges = [_all_pairs(n)[i] for i in chosen]
    w = [Fraction(1)] * len(edges)
    w[r1] = Fraction(-1)
    w[r2] = Fraction(-1)
    return SignedWeightedGraph(n, tuple((u, v, wi) for (u, v), wi in zip(edges, w)))


class EnsembleRecord(NamedTuple):
    sample_id: int
    n: int
    m: int
    red1: tuple[int, int]
    red2: tuple[int, int]
    class_label: str
    gplus_connected: bool
    delta_zero: bool
    gap: float | None       # None = undefined (full graph disconnected, A_xy = 0)
    log10_gap: float | None  # -inf when gap == 0; None when gap undefined


def _class_label(connected: bool, shared: bool, hops) -> str:
    """The red-pair class: "disconnected_plus" when the black subgraph is
    not ``connected`` (takes precedence); "adj" when the red edges have a
    ``shared`` vertex; otherwise the four black-graph hop distances between
    their endpoints, ``hops``, sorted ascending, each clamped to '+' at 10
    and above, concatenated."""
    if not connected:
        return "disconnected_plus"
    if shared:
        return "adj"
    return "".join([_HOP_SYMBOLS[h] if h < 10 else "+" for h in sorted(hops)])


def classify(g: SignedWeightedGraph) -> str:
    """Red-pair geometry class of a 2-red-edge graph (``_class_label``), by
    the list BFS and component count of ``_kernels``: the reference that
    the array BFS of ``_stacked``, which labels the ensemble, is checked
    against."""
    from . import _kernels

    _require_r2(g, "classification")
    (u1, v1, _), (u2, v2, _) = g.red_edges
    adj: list[list[int]] = [[] for _ in range(g.n)]
    for u, v, _ in g.black_edges:
        adj[u].append(v)
        adj[v].append(u)
    hops = [dist[y] for dist in (_kernels.bfs_distances(adj, x) for x in (u1, v1)) for y in (u2, v2)]
    return _class_label(_kernels.component_count(adj) == 1, bool({u1, v1} & {u2, v2}), hops)


def _bordered_stack(lap: np.ndarray, reds: np.ndarray) -> np.ndarray:
    """The bordered matrices H = [[Q, B], [B^T, 0]] of
    ``spectral._eliminate`` for the Laplacian stack ``lap`` (shape (B, n,
    n), vertex 0 included), as one int64 array of shape (B, n + 1, n + 1):
    Q is ``lap[b]`` without vertex 0, and column i of B the incidence
    vector of the red edge ``reds[b, i]`` ((B, 2, 2) vertex pairs) without
    vertex 0."""
    batch, n = lap.shape[:2]
    full = np.zeros((batch, n + 2, n + 2), dtype=np.int64)
    # the Laplacian bordered by the red incidence columns; vertex 0's row
    # and column are cut off
    full[:, :n, :n] = lap
    b, cols = np.arange(batch)[:, None], np.array([n, n + 1])
    u, v = reds[:, :, 0], reds[:, :, 1]
    full[b, u, cols] = full[b, cols, u] = 1
    full[b, v, cols] = full[b, cols, v] = -1
    return full[:, 1:, 1:]


def _fits_int64(norms: np.ndarray) -> np.ndarray:
    """Per row of ``norms``, the squared row norms of one bordered matrix:
    whether prod max(1, |row_i|^2) < 2^62.

    By Hadamard's inequality every minor of H is at most the product of the
    norms of its rows, so that product bounds every product of two minors,
    and ``_stacked_minors``, whose dropped rows only take rows out of its
    minors, forms nothing larger than twice one.  The product is decided by
    the float sum of the log2 norms, far within 1e-3 of the exact one; the
    rows whose sum lies within 1e-3 of 62 take the exact ``math.prod``.
    """
    norms = np.maximum(norms, 1)
    logs = np.log2(norms).sum(axis=1)
    fits = logs < 62
    for i in np.flatnonzero(np.abs(logs - 62) < 1e-3).tolist():
        fits[i] = math.prod(norms[i].tolist()) < 1 << 62
    return fits


def _stacked_minors(h: np.ndarray) -> list[list[int]]:
    """[A_empty, A_x, A_y, A_xy] of each bordered matrix of the stack ``h``,
    as ``spectral._transfer_current`` reads them with ``_r2_minors``.

    Every step is ``spectral._schur``'s update (x p - f y) / prev, on every
    matrix at once, which ``_fits_int64`` must have cleared: the products
    are formed in int64, below 2^62, and the quotient, a minor below 2^31,
    is the rounded float64 quotient, within 2^-21 of it.  A zero pivot on a
    zero row of Q is dropped as ``spectral._eliminate`` drops it: its red
    entries are recorded at prev, its row and column zeroed and prev taken
    as its pivot, which leaves that matrix as it was.  Any other pivot <= 0
    is an InternalConsistencyError, as is a last division that leaves a
    remainder.  A matrix with no dropped row is read off its last block,
    one with dropped rows by ``spectral._read_eliminated``.
    """
    # the stack's own axis last, so each step runs long contiguous loops
    h = np.ascontiguousarray(h.transpose(1, 2, 0))
    prev = np.ones(h.shape[2], dtype=np.int64)
    dropped: dict[int, list] = {}
    for _ in range(len(h) - 2):
        p = h[0, 0]
        if not (p > 0).all():
            zero = np.flatnonzero(p == 0)
            if (p < 0).any() or h[0, 1:-2, zero].any():
                raise InternalConsistencyError("stacked elimination met a pivot < 0, or 0 on a nonzero row of Q")
            for b, entries, q in zip(zero.tolist(), h[0, -2:, zero].tolist(), prev[zero].tolist()):
                dropped.setdefault(b, []).append((entries, q))
            h[0, :, zero] = h[:, 0, zero] = 0
            p = np.where(p, p, prev)
        num = h[1:, 1:] * p
        num -= h[1:, :1] * h[:1, 1:]
        h = np.rint(num / prev).astype(np.int64)
        prev = p
    axy, rem = np.divmod(h[0, 0] * h[1, 1] - h[0, 1] * h[1, 0], prev)
    if rem.any():
        raise InternalConsistencyError("stacked bordered minor not divisible by det Q")
    values = np.stack([prev, -h[0, 0], -h[1, 1], axy], axis=1).tolist()
    for b, records in dropped.items():
        (x, f), (_, y) = h[:2, :2, b].tolist()
        values[b] = _read_eliminated([[x, f], [y]], records, values[b][0], _r2_minors)[:4]
    return values


def _hops(lap: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per graph of the Laplacian stack ``lap`` (shape (B, n, n)): the hop
    distance between every two vertices of one component (between two
    components, some number that no class reads), and each vertex's root,
    the least vertex of its component.

    One BFS from every vertex at once: each step multiplies the reached sets
    by the adjacency plus the identity, the nonzero pattern of ``lap`` with
    every diagonal entry set, in float32, at most n - 1 times, and each step
    adds 1 to the distance of every pair not yet reached.
    """
    n = lap.shape[1]
    step = (lap != 0).astype(np.float32)
    diag = np.arange(n)
    step[:, diag, diag] = 1
    reached = step
    dist = 2 - reached
    dist[:, diag, diag] = 0
    for _ in range(n - 2):
        grown = np.minimum(reached @ step, 1)
        if (grown == reached).all():
            break
        dist += 1 - grown
        reached = grown
    return dist.astype(np.intp), reached.argmax(axis=2)


# the base-11 code of four hop distances clamped at 10, sorted ascending:
# the first the most significant digit; the two codes past them are "adj"
# and "disconnected_plus"
_HOP_DIGITS = np.array([11**3, 11**2, 11, 1])
_ADJ, _DISCONNECTED = 11**4, 11**4 + 1


@functools.cache
def _labels_by_code() -> np.ndarray:
    """``_class_label`` at every code of ``_HOP_DIGITS`` that a sorted
    quadruple takes, and at ``_ADJ`` and ``_DISCONNECTED``, as an object
    array (the other entries are None)."""
    table = np.full(11**4 + 2, None, dtype=object)
    for hops in itertools.combinations_with_replacement(range(11), 4):
        table[_HOP_DIGITS @ hops] = _class_label(True, False, hops)
    table[_ADJ], table[_DISCONNECTED] = _class_label(True, True, ()), _class_label(False, False, ())
    return table


def _stacked(n: int, draws) -> tuple[list[str], dict[int, list[int]]]:
    """The class label of every sample of ``draws`` (``_sample_pairs``
    draws), and by position the minors of each sample whose bordered matrix
    passes the int64 bound.

    The chunk's black graphs are one int64 Laplacian stack, which every
    step reads: the BFS of ``_hops`` gives every label (by its code in
    ``_labels_by_code``; a root other than vertex 0 marks a disconnected
    sample); ``_bordered_stack`` gives every H, whose row norms pick the
    samples under the bound, which ``_stacked_minors`` eliminates.
    """
    batch = len(draws)
    chosen, r1, r2 = zip(*draws)
    counts = np.fromiter(map(len, chosen), dtype=np.intp, count=batch)
    ends = _pair_ends(n)[np.fromiter(itertools.chain.from_iterable(chosen), dtype=np.intp, count=counts.sum())]
    red_at = np.array([r1, r2], dtype=np.intp).T + (np.cumsum(counts) - counts)[:, None]
    is_black = np.ones(len(ends), dtype=bool)
    is_black[red_at] = False
    owner, (u, v), reds = np.repeat(np.arange(batch), counts)[is_black], ends[is_black].T, ends[red_at]
    lap = np.zeros((batch, n, n), dtype=np.int64)
    lap[owner, u, v] = lap[owner, v, u] = -1
    diag = np.arange(n)
    lap[:, diag, diag] = -lap.sum(axis=2)
    dist, root = _hops(lap)
    x, y = reds[:, 0, :, None], reds[:, 1, None, :]
    hops = np.minimum(dist[np.arange(batch)[:, None, None], x, y].reshape(-1, 4), 10)
    hops.sort(axis=1)
    codes = hops @ _HOP_DIGITS
    codes[(x == y).any(axis=(1, 2))] = _ADJ
    codes[root.any(axis=1)] = _DISCONNECTED
    labels = _labels_by_code()[codes].tolist()
    h = _bordered_stack(lap, reds)
    fits = _fits_int64(np.einsum("bij,bij->bi", h, h))
    return labels, dict(zip(np.flatnonzero(fits).tolist(), _stacked_minors(h[fits])))


def _records(cfg: EnsembleConfig, keys) -> list[EnsembleRecord]:
    """The records of ``keys``, a list of (M, sample_id) pairs, in order.

    Every sample is drawn first, from one generator reseeded per sample
    with its ``sample_seed``, then the whole chunk goes through
    ``_stacked``, which labels every sample and gives the minors of those
    under the int64 bound, connected or not; every other sample takes the
    Python-int core one by one.
    """
    n, master = cfg.n, cfg.master_seed
    pairs = _all_pairs(n)
    rng = random.Random(0)
    # the C seed that random.Random(seed) ends in: the same generator state,
    # without the Python layers of Random.__init__ and Random.seed
    reseed = _random.Random.seed.__get__(rng)
    draws = []
    for m, index in keys:
        reseed(sample_seed(master, m, index))
        draws.append(_sample_pairs(cfg, m, rng))
    labels, stacked = _stacked(n, draws)
    records = []
    for i, ((_, index), (chosen, r1, r2)) in enumerate(zip(keys, draws)):
        red1, red2 = pairs[chosen[r1]], pairs[chosen[r2]]
        if i in stacked:
            a00, ax, ay, axy = stacked[i]
        else:
            black = [(*pairs[j], 1) for j in chosen[:r1] + chosen[r1 + 1 : r2] + chosen[r2 + 1 :]]
            a00, ax, ay, axy, _ = _transfer_current(n, black, (red1, red2), _r2_minors)
        delta = axy * a00 - ax * ay
        if axy == 0:
            gap_val, log_val = None, None
        elif delta == 0:
            gap_val, log_val = 0.0, -math.inf
        else:
            gap_val, log_val = _gap_and_log(delta, axy)
        # the fields in order: sample_id, n, m, red1, red2, class_label,
        # gplus_connected, delta_zero, gap, log10_gap
        record = EnsembleRecord(index, n, len(chosen), red1, red2, labels[i], a00 != 0, delta == 0, gap_val, log_val)
        records.append(record)
    return records


def compute_record(cfg: EnsembleConfig, m: int, index: int) -> EnsembleRecord:
    """Full per-sample pipeline: sample, classify, exact discriminant, gap;
    a chunk of one sample."""
    return _records(cfg, [(m, index)])[0]


def _chunk_length(n: int) -> int:
    """Samples per chunk at N = ``n``: ``_CHUNK``, or fewer at large N, so
    that each stacked N x N array of a chunk holds at most
    ``_CHUNK_ENTRIES`` entries (1024 up to N = 22, 13 at N = 200, 1 at 724)."""
    return min(_CHUNK, _CHUNK_ENTRIES // n**2)


def iter_records(cfg: EnsembleConfig):
    """The records one at a time, in deterministic (M, sample_id) order.

    They are computed in chunks of ``_chunk_length(N)`` samples, each
    chunk's samples through one BFS and one stacked elimination, and handed
    on after each chunk, so memory stays bounded.
    """
    keys = ((m, i) for m in cfg.m_values for i in range(cfg.samples_per_m))
    while chunk := list(itertools.islice(keys, _chunk_length(cfg.n))):
        yield from _records(cfg, chunk)


def generate_records(cfg: EnsembleConfig, threads: int = 1) -> list[EnsembleRecord]:
    """All records in deterministic (M, sample_id) order.

    Samples run serially.  ``threads`` is accepted for compatibility and
    ignored: drawing, classifying and the Python-int core hold the GIL, and
    the stacked elimination is one short numpy pass per chunk, so worker
    threads cannot speed it up.
    """
    return list(iter_records(cfg))


# ---------------------------------------------------------------------------
# CSV / summary output

CSV_HEADER = (
    "sample_id,N,M,red1_u,red1_v,red2_u,red2_v,class,"
    "gplus_connected,delta_zero,gap,log10_gap"
)


def record_to_csv_line(rec: EnsembleRecord) -> str:
    """The CSV line of ``rec``, without its newline: a gap or log-gap that
    is None is left empty, a float is written with 17 significant digits
    (-inf as "-inf")."""
    sample_id, n, m, (u1, v1), (u2, v2), label, connected, zero, gap, log = rec
    return (
        f"{sample_id},{n},{m},{u1},{v1},{u2},{v2},{label},"
        f"{'true' if connected else 'false'},{'true' if zero else 'false'},"
        f"{'' if gap is None else f'{gap:.17g}'},{'' if log is None else f'{log:.17g}'}"
    )


def write_csv(records, path: str):
    """Write ``records``, any iterable, in order, as bytes, ``_CHUNK`` lines
    at a time.  The file is created once the first record is in hand, so a
    stream that fails on its first record leaves no file behind, and one
    that fails later leaves the line of every record before the failure."""
    records = iter(records)
    first = next(records, None)
    _write_file(path, _csv_chunks(first, records))


def _csv_chunks(first: EnsembleRecord | None, records):
    """The CSV's bytes, the header and the line of ``first`` (None when
    there are no records) and of each of ``records``, ``_CHUNK`` lines at a
    time.  When ``records`` fails, the lines before the failure come first,
    then the error."""
    lines = [CSV_HEADER] if first is None else [CSV_HEADER, record_to_csv_line(first)]
    try:
        for rec in records:
            lines.append(record_to_csv_line(rec))
            if len(lines) >= _CHUNK:
                yield _joined(lines)
                lines = []
    except Exception:
        yield _joined(lines)
        raise
    yield _joined(lines)


def _joined(lines: list[str]) -> bytes:
    """``lines``, each ended by a newline, as bytes."""
    lines.append("")
    return "\n".join(lines).encode()


class _Tally:
    """One M's running totals, which ``SummaryFold.add`` updates.  The
    conditional log10-gaps are kept, in arrival order, for the standard
    deviation's second pass."""

    def __init__(self):
        self.total = self.connected = self.delta_zero = 0
        self.cond: list[float] = []
        self.all = _Counts([0] * _HIST_BINS)
        self.hist: dict[str, _Counts] = {"all": self.all}

    def entry(self) -> dict:
        cond = self.cond
        mean = sum(cond) / len(cond) if cond else None
        std = math.sqrt(sum((x - mean) ** 2 for x in cond) / len(cond)) if cond else None
        return {
            "samples": self.total,
            "p_gplus_disconnected": (self.total - self.connected) / self.total,
            "p_delta_zero_given_connected": (self.delta_zero / self.connected) if self.connected else None,
            "log10_gap_mean": mean,
            "log10_gap_std": std,
            "histograms": {k: self.hist[k] for k in sorted(self.hist)},
        }


class SummaryFold:
    """``summarize`` folded one record at a time: ``add`` passes each record
    through, so the CSV writer and the summary can share one stream."""

    def __init__(self):
        self.count = 0
        self._by_m: dict[int, _Tally] = {}

    def add(self, rec: EnsembleRecord) -> EnsembleRecord:
        _, _, m, _, _, label, connected, zero, _, log = rec
        self.count += 1
        tally = self._by_m.get(m)
        if tally is None:
            tally = self._by_m[m] = _Tally()
        tally.total += 1
        if connected:
            tally.connected += 1
            if zero:
                tally.delta_zero += 1
            else:
                tally.cond.append(log)
        if log is not None:
            # 0.1-wide bins from _HIST_LO; -inf and everything below in the
            # first, +inf and everything above in the last
            x = (log - _HIST_LO) / 0.1
            b = 0 if x < 0 else int(x) if x < _HIST_BINS else _HIST_BINS - 1
            tally.all[b] += 1
            hist = tally.hist.get(label)
            if hist is None:
                hist = tally.hist[label] = _Counts([0] * _HIST_BINS)
            hist[b] += 1
        return rec

    def summary(self) -> dict:
        if not self.count:
            raise InputError("cannot summarize an empty record set")
        return {"per_m": {str(m): self._by_m[m].entry() for m in sorted(self._by_m)}}


def summarize(records) -> dict:
    """Per-M summary: disconnection/degeneracy probabilities, conditional
    log10-gap moments, and per-class histograms (0.1-wide bins on [-10, 10],
    zero gaps binned at -10, partitioning the defined-gap histogram).
    """
    fold = SummaryFold()
    for rec in records:
        fold.add(rec)
    return fold.summary()


def write_summary(summary: dict, path: str):
    """Write ``summary`` to ``path`` as the bytes of
    ``json.dumps(summary, indent=2, sort_keys=True) + "\n"``, whatever the
    order of its keys (``graph._json_text``)."""
    _write_file(path, ((_json_text(summary, sort_keys=True) + "\n").encode(),))
