"""A seeded contract for the command line: whatever the request, well formed
or not, ``cli.main`` returns 0 or 1 and raises nothing.

- Exit 2, a failed self-check, never occurs.
- An exit 1 writes one ``error:`` line, or an argparse usage message, to
  stderr, and nothing to stdout.
- An exit 0 writes JSON to stdout (the ensemble's summary) and nothing to
  stderr.
- The same request gives the same bytes twice: exit code, stdout, stderr
  and every file it writes.

The requests come from stdlib ``random`` with a fixed seed and run
in-process over all seven subcommands.  The graphs have N = 1 and 2, no
edges, no red edges, R past the ``coeffs`` guard, a disconnected full,
black or red graph, or a disconnected black subgraph (A_empty = 0).
Their numbers reach the 4300-digit limit and both ends of the float
range.  Documents are malformed in many ways (a vertex count past
``graph.MAX_VERTICES`` among them).  Valid ensemble configs run at N = 6,
10 and 12, through the stack's dropped rows, the Python-int core past the
int64 bound and the summary writer; invalid ones have each field wrong in
turn (N past 724 among them).  ``requests(rng, count)`` draws a larger sweep
from the same generator::

    PYTHONPATH=src:tests python -c "import random, tempfile, test_contract as t; \\
        print(t.sweep(random.Random(1), 6000, tempfile.mkdtemp()))"
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import random
from collections import Counter

from signedlap import cli

GRAPH_COMMANDS = ("analyze", "coeffs", "crossings", "disc", "factorize", "stability")
DIGIT_LIMIT = 4300  # Python's default int-string conversion limit


def _small(rng: random.Random) -> str:
    return f"{rng.randint(1, 60)}/{rng.randint(1, 9)}" if rng.random() < 0.5 else str(rng.randint(1, 9))


def _extreme(rng: random.Random) -> str:
    """A magnitude at an edge: near the top or the bottom of the float
    range, or a numerator or denominator at or one past the digit limit."""
    return rng.choice(
        (
            "1" + "0" * rng.randint(300, 320),
            "1/1" + "0" * rng.randint(300, 330),
            "17/3" + "0" * 307,
            "9" * DIGIT_LIMIT,
            "9" * (DIGIT_LIMIT + 1),
            "1/" + "9" * DIGIT_LIMIT,
            "3/" + "7" * (DIGIT_LIMIT + 1),
        )
    )


def _graph(rng: random.Random, n: int, black, red, extreme: float = 0.0) -> dict:
    """The document of the graph on n vertices with ``black`` and ``red``
    vertex pairs, in a random order; each weight is extreme with
    probability ``extreme``."""
    edges = [(u, v, "") for u, v in black] + [(u, v, "-") for u, v in red]
    rng.shuffle(edges)
    return {
        "n": n,
        "edges": [
            {"u": u, "v": v, "w": sign + (_extreme(rng) if rng.random() < extreme else _small(rng))}
            for u, v, sign in edges
        ],
    }


def _tree(rng: random.Random, vertices) -> list[tuple[int, int]]:
    vertices = list(vertices)
    rng.shuffle(vertices)
    return [tuple(sorted((vertices[i], vertices[rng.randrange(i)]))) for i in range(1, len(vertices))]


def _valid_graph(rng: random.Random) -> dict:
    shape = rng.choice(("n1", "n2", "empty", "no_reds", "random", "random", "a_empty_zero", "a_empty_zero",
                        "disconnected", "red_apart", "past_guard", "extreme"))
    if shape == "n1":
        return {"n": 1, "edges": []}
    if shape == "n2":
        return _graph(rng, 2, *rng.choice((([], []), ([(0, 1)], []), ([], [(0, 1)]))))
    if shape == "empty":
        return {"n": rng.randint(2, 6), "edges": []}
    if shape == "past_guard":  # 21 triangles, one red edge each: R = 21 > 20
        return _graph(rng, 43, [(2 * i, 2 * i + 1) for i in range(21)] + [(2 * i + 1, 2 * i + 2) for i in range(21)],
                      [(2 * i, 2 * i + 2) for i in range(21)])
    n = rng.randint(3, 9)
    pairs = list(itertools.combinations(range(n), 2))
    if shape in ("a_empty_zero", "disconnected"):
        # black trees on the parts of a partition; red edges join the parts
        # (all of them, or all but the last for a disconnected graph)
        order = list(range(n))
        rng.shuffle(order)
        cuts = sorted(rng.sample(range(1, n), rng.randint(1, min(4, n - 1))))
        parts = [order[a:b] for a, b in zip([0, *cuts], [*cuts, n])]
        black = [e for part in parts for e in _tree(rng, part)]
        joined = parts if shape == "a_empty_zero" else parts[:-1]
        red = [tuple(sorted((rng.choice(joined[i]), rng.choice(joined[rng.randrange(i)])))) for i in range(1, len(joined))]
        red = list(dict.fromkeys(red))
        return _graph(rng, n, black, red)
    black = _tree(rng, range(n))
    rest = [p for p in pairs if p not in black]
    rng.shuffle(rest)
    if shape == "no_reds":
        return _graph(rng, n, black + rest[: rng.randint(0, 3)], [])
    if shape == "red_apart":  # two red edges, on four distinct vertices when N >= 4
        a, b, c, d = rng.sample(range(n), 4) if n >= 4 else (0, 1, 1, 2)
        red = list(dict.fromkeys([tuple(sorted((a, b))), tuple(sorted((c, d)))]))
        return _graph(rng, n, [e for e in black if e not in red], red)
    extra = rng.randint(0, 3)
    red = rest[extra : extra + rng.randint(1, 6)]
    return _graph(rng, n, black + rest[:extra], red, extreme=0.5 if shape == "extreme" else 0.0)


_MALFORMED = (
    b"",
    b"{",
    b"[]",
    b"null",
    b'"graph"',
    b"\xef\xbb\xbf{\"n\": 2, \"edges\": []}",
    b"\xff\xfe{}",
    b'{"n": 2, "edges": [{"u": 0, "v": 1, "w": "\xc3\x28"}]}',
    b"[" * 100_000 + b"]" * 100_000,
    b'{"n": NaN, "edges": []}',
    b'{"n": Infinity, "edges": []}',
    b'{"n": 2, "edges": [], "n": 3}',
    b'{"n": 1' + b"0" * (DIGIT_LIMIT + 5) + b', "edges": []}',
    b'{"n": 2, "edges": [{"u": 0, "v": 1, "w": 1' + b"0" * DIGIT_LIMIT + b"}]}",
)


def _broken_graph(rng: random.Random) -> dict | bytes:
    """A document that is not a valid graph."""
    if rng.random() < 0.3:
        return rng.choice(_MALFORMED)
    edge = {"u": 0, "v": 1, "w": "1"}
    broken = rng.choice(
        (
            {"n": "3", "edges": []},
            {"n": 3},
            {"edges": []},
            {"n": 3, "edges": {}},
            {"n": 0, "edges": []},
            {"n": -2, "edges": []},
            {"n": 10**30, "edges": []},
            {"n": 4097, "edges": []},
            {"n": 2.0, "edges": []},
            {"n": True, "edges": []},
            {"n": None, "edges": []},
            {"n": 3, "edges": [edge, edge]},
            {"n": 3, "edges": [[0, 1, "1"]]},
            {"n": 3, "edges": [{"u": 0, "v": 1}]},
            {"n": 3, "edges": [{**edge, "x": 1}]},
        )
    )
    if rng.random() < 0.5:
        return broken
    key, value = rng.choice(
        (
            ("u", 3), ("u", -1), ("u", 1), ("u", 1.0), ("u", True), ("u", "0"), ("u", None), ("v", 10**30),
            ("w", "0"), ("w", "-0"), ("w", "0/5"), ("w", "abc"), ("w", "1/0"), ("w", 1.5), ("w", True),
            ("w", None), ("w", ["1"]), ("w", "١"), ("w", "1e5"), ("w", " 1"), ("w", "+1"), ("w", "--1"),
            ("w", "1/-2"), ("w", "1.5"), ("w", "0x10"), ("w", "½"), ("w", 0),
            ("w", "nan"), ("w", "inf"), ("w", ""),
        )
    )
    return {"n": 3, "edges": [{"u": 0, "v": 2, "w": "1"}, {**edge, key: value}]}


def _vector(rng: random.Random, length: int) -> str:
    """``length`` comma-separated components, sometimes one more or one
    fewer: most small rationals, some at the edges of ``_extreme``, some
    not rationals at all.  Extreme ones only when length <= 9: on the 21
    triangles every exact route is a 42-row Bareiss elimination, which a
    4300-digit denominator slows to minutes."""
    if rng.random() < 0.1:
        length += rng.choice((-1, 1))
    parts = []
    for _ in range(max(length, 0)):
        roll = rng.random()
        if roll < 0.7:
            parts.append(_small(rng))
        elif roll < 0.85 and length <= 9:
            parts.append(_extreme(rng))
        else:
            parts.append(rng.choice(("0", "-1", "-2/3", "x", "1/0", "nan", "inf", "1e3", "١", "0x10", "", "1/-2")))
    return ",".join(parts)


def _red_count(doc) -> int:
    try:
        return sum(isinstance(e["w"], str) and e["w"].startswith("-") for e in doc["edges"])
    except (TypeError, KeyError):
        return 1


_ENSEMBLE = {"N": 6, "M": [5, 8], "samples": 3, "seed": 1}
_GNP = {"N": 6, "M": [1], "samples": 3, "seed": 2, "model": "gnp", "p": 0.5}
# valid configs past N = 6: M = 9 at N = 10 and M = 10 at N = 12 leave
# every black subgraph disconnected, so the int64 stack drops zero rows;
# K12 (M = 66) is over the int64 bound and takes the Python-int core
_VALID = (_ENSEMBLE, _GNP, {"N": 10, "M": [9, 45], "samples": 3, "seed": 3}, {"N": 12, "M": [10, 66], "samples": 2, "seed": 4})
_WRONG_FIELDS = {
    "N": (0, 1, 2, -3, "6", 6.5, True, None, [6], float("inf"), 1e301, 10**301, 725),
    "M": ([], [1], [0], [16], [5, 5], "5", [5.5], [True], [-2], {"a": 1}, None),
    "samples": (0, -1, "3", 2.5, True, None, [3]),
    "seed": ("x", 1.5, True, None, [1]),
    "model": ("gnq", 5, None, "GNM", ["gnm"]),
    "p": (0.5, 0, -0.1, 1.5, "0.5", True, None),
}


def _ensemble_config(rng: random.Random) -> dict | bytes:
    roll = rng.random()
    if roll < 0.25:  # valid, small
        base = dict(rng.choice(_VALID))
        base["seed"] = rng.randrange(2**40)
        return base
    if roll < 0.35:
        return rng.choice((b"{", b"[]", b"null", b'{"N": 6}', b"\xef\xbb\xbf{}", json.dumps({**_ENSEMBLE, "x": 1}).encode()))
    base = dict(rng.choice((_ENSEMBLE, _GNP)))
    field = rng.choice(sorted(_WRONG_FIELDS))
    if rng.random() < 0.15:
        base.pop(field, None)
    else:
        base[field] = rng.choice(_WRONG_FIELDS[field])
    return base


def _options(rng: random.Random, command: str, doc) -> list[str]:
    r = _red_count(doc)
    if command in ("analyze", "stability"):
        return ["--t", _vector(rng, r)] if rng.random() < 0.7 else []
    if command == "crossings":
        return ["--ray", _vector(rng, r)] if rng.random() < 0.95 else []
    return []


def requests(rng: random.Random, count: int) -> list[tuple[list[str], bytes]]:
    """``count`` requests: (argv with the input path as "{input}" and the
    output path as "{output}", input file bytes)."""
    out = []
    for _ in range(count):
        roll = rng.random()
        if roll < 0.15:
            doc = _ensemble_config(rng)
            argv = ["ensemble", "--input", "{input}", "--output", "{output}"]
            if rng.random() < 0.2:
                argv += rng.choice((["--seed", str(rng.randrange(-5, 10**6))], ["--seed", "x"], ["--threads", "2"],
                                    ["--threads", "0"], ["--threads", "-1"], ["--seed", "9" * (DIGIT_LIMIT + 1)]))
        else:
            command = rng.choice(GRAPH_COMMANDS)
            doc = _broken_graph(rng) if roll < 0.3 else _valid_graph(rng)
            argv = [command, "--input", "{input}", *_options(rng, command, doc)]
            quirk = rng.random()
            if quirk < 0.03:
                argv[1] = "--in"  # an abbreviation: argparse reads it
            elif quirk < 0.06:
                argv += ["--bogus", "1"]
            elif quirk < 0.08:
                argv[2] = "{input}.missing"
            elif quirk < 0.1:
                argv += ["--output", "{output}"]
        data = doc if isinstance(doc, bytes) else json.dumps(doc).encode()
        out.append((argv, data))
    return out


def _call(argv: list[str], outputs: list[str]):
    for path in outputs:
        if os.path.exists(path):
            os.remove(path)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main(argv)
    files = []
    for path in outputs:
        if os.path.exists(path):
            with open(path, "rb") as f:
                files.append(f.read())
    return code, stdout.getvalue(), stderr.getvalue(), files


def check(argv: list[str], data: bytes, workdir: str) -> int:
    """Run one request twice and assert the contract; its exit code."""
    source, output = os.path.join(workdir, "in.json"), os.path.join(workdir, "out.csv")
    with open(source, "wb") as f:
        f.write(data)
    argv = [a.replace("{input}", source).replace("{output}", output) for a in argv]
    outputs = [output, output[: -len(".csv")] + ".summary.json"]
    first = _call(argv, outputs)
    code, out, err, _ = first
    assert code in (0, 1), (argv, data[:200], first[:3])
    lines = err.splitlines()
    if code == 1:
        usage = lines[:1] and lines[0].startswith("usage: ") and lines[-1].startswith("signedlap") and ": error: " in lines[-1]
        assert usage or len(lines) == 1 and lines[0].startswith("error: "), (argv, data[:200], err)
        assert out == "", (argv, data[:200], out)
    else:
        assert err == "", (argv, data[:200], err)
        if "--output" not in argv or argv[0] == "ensemble":
            json.loads(out)
    assert "Traceback" not in err
    assert _call(argv, outputs) == first, (argv, data[:200])
    return code


def sweep(rng: random.Random, count: int, workdir: str) -> Counter:
    """Check ``count`` requests from ``rng``, their files in ``workdir``;
    the count of each (subcommand, exit code)."""
    return Counter((argv[0], check(argv, data, workdir)) for argv, data in requests(rng, count))


def test_every_request_exits_0_or_1_with_a_clean_stderr(tmp_path):
    seen = sweep(random.Random(27), 400, str(tmp_path))
    assert {command for command, _ in seen} == {*GRAPH_COMMANDS, "ensemble"}
    codes = Counter()
    for (_, code), n in seen.items():
        codes[code] += n
    assert min(codes[0], codes[1]) >= 100, seen
