"""CLI behavior: outputs, formats, exit codes."""

import argparse
import itertools
import json
import math
import os
import random
import stat
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import signedlap
from signedlap import _kernels, cli, crossing, discriminants, graph, oracles, spectral, stability
from signedlap import ensemble as ens

from conftest import (
    RATIONAL_STRINGS,
    fraction_outcome,
    kn_with_reds,
    random_connected_graph,
    rational_string_id,
    swg,
    triangle_chain,
)

K4_SHARED = {
    "n": 4,
    "edges": [
        {"u": 0, "v": 1, "w": "-1"},
        {"u": 0, "v": 2, "w": "-1"},
        {"u": 0, "v": 3, "w": "1"},
        {"u": 1, "v": 2, "w": "1"},
        {"u": 1, "v": 3, "w": "1"},
        {"u": 2, "v": 3, "w": "1"},
    ],
}

CHAIN2 = {
    "n": 5,
    "edges": [
        {"u": 0, "v": 1, "w": "1"},
        {"u": 1, "v": 2, "w": "1"},
        {"u": 0, "v": 2, "w": "-1"},
        {"u": 2, "v": 3, "w": "1"},
        {"u": 3, "v": 4, "w": "1"},
        {"u": 2, "v": 4, "w": "-1"},
    ],
}


def _n13_doc():
    """Unit-weight two-red graph on 13 vertices: a black cycle with chords,
    reds (3,9) and (5,9) sharing their larger endpoint."""
    black = [(i, i + 1) for i in range(12)] + [(0, 12)] + [(i, i + 4) for i in range(0, 9, 2)]
    edges = [{"u": u, "v": v, "w": "1"} for u, v in black]
    edges += [{"u": 3, "v": 9, "w": "-1"}, {"u": 5, "v": 9, "w": "-1"}]
    return {"n": 13, "edges": edges}


def _graph_doc(g):
    return {"n": g.n, "edges": [{"u": u, "v": v, "w": str(w)} for u, v, w in g.edges]}


def _graph_file(tmp_path, name, doc):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture
def k4_file(tmp_path):
    path = tmp_path / "k4.json"
    path.write_text(json.dumps(K4_SHARED))
    return str(path)


@pytest.fixture
def chain_file(tmp_path):
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(CHAIN2))
    return str(path)


def _run(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


def test_analyze(capsys, k4_file):
    code, out = _run(capsys, ["analyze", "--input", k4_file])
    assert code == 0
    assert out["n"] == 4 and out["red_count"] == 2
    assert out["tau"] == 2
    assert out["index_limits"] == {"small_t": [3, 1, 0], "large_t": [1, 1, 2]}


def test_analyze_with_t(capsys, k4_file):
    code, out = _run(capsys, ["analyze", "--input", k4_file, "--t", "0,0"])
    assert code == 0
    assert out["index"] == [3, 1, 0]
    assert len(out["eigenvalues"]) == 4


# the alternating 4-cycle: its black subgraph has two components (A_empty = 0)
C4_ALTERNATING = {
    "n": 4,
    "edges": [
        {"u": 0, "v": 1, "w": "1"},
        {"u": 2, "v": 3, "w": "1"},
        {"u": 1, "v": 2, "w": "-1"},
        {"u": 0, "v": 3, "w": "-1"},
    ],
}


def test_analyze_with_t_on_a_zero_diagonal(capsys, tmp_path):
    # the alternating 4-cycle at t = (1, 1) has an all-zero diagonal, so the
    # first pivot of the exact inertia needs the congruence step
    path = _graph_file(tmp_path, "c4", C4_ALTERNATING)
    code, out = _run(capsys, ["analyze", "--input", path, "--t", "1,1"])
    assert code == 0
    assert out["index"] == [1, 2, 1]


def test_analyze_and_stability_index_take_no_matrix_inertia(monkeypatch, capsys, tmp_path):
    # the index comes off the touched block, never off inertia(laplacian(g,
    # t)): with spectral.inertia made to raise, every byte is what the
    # matrix route gives (on C4 stability stops at the thresholds)
    runs = []
    for name, doc in (("k4", K4_SHARED), ("c4", C4_ALTERNATING)):
        path = _graph_file(tmp_path, name, doc)
        for argv in (["analyze", "--t", "1,1"], ["analyze", "--t", "3,1/2"], ["stability", "--t", "3/10,3/10"], ["stability", "--t", "1,1"]):
            runs.append([*argv, "--input", path])

    def outputs():
        return [(cli.main(argv), *capsys.readouterr()) for argv in runs]

    with monkeypatch.context() as m:
        _patch_everywhere(m, spectral._graph_inertia, lambda g, t: spectral.inertia(spectral.laplacian(g, t)))
        expected = outputs()

    def forbidden(*args):
        raise AssertionError("spectral.inertia called")

    _patch_everywhere(monkeypatch, spectral.inertia, forbidden)
    assert outputs() == expected
    assert [code for code, _, _ in expected] == [0, 0, 0, 0, 0, 0, 1, 1]
    payloads = [json.loads(out) for code, out, _ in expected if code == 0]
    assert [p.get("index") or p["verified_index"] for p in payloads] == [[2, 1, 1], [2, 1, 1], [3, 1, 0], [2, 1, 1], [1, 2, 1], [2, 1, 1]]


def test_analyze_eigenvalues_take_no_fraction_laplacian(monkeypatch, capsys, tmp_path):
    # analyze --t reads its eigenvalues off the integer Laplacian: with
    # spectral.laplacian and spectral.eigenvalues made to raise, every byte
    # is what eigenvalues(laplacian(g, t)) gives, errors included
    huge = {"n": 3, "edges": [{"u": 0, "v": 1, "w": "1" + "0" * 400}, {"u": 1, "v": 2, "w": "1"}, {"u": 0, "v": 2, "w": "-1"}]}
    runs = []
    for name, doc in (("k4", K4_SHARED), ("c4", C4_ALTERNATING), ("huge", huge)):
        path = _graph_file(tmp_path, name, doc)
        for t in ("1,1", "3,1/2", "0,7/3", "1", "1,-1"):
            runs.append(["analyze", "--input", path, "--t", t])

    def outputs():
        return [(cli.main(argv), *capsys.readouterr()) for argv in runs]

    with monkeypatch.context() as m:
        _patch_everywhere(m, spectral._graph_eigenvalues, lambda g, t: spectral.eigenvalues(spectral.laplacian(g, t)))
        expected = outputs()

    def forbidden(*args):
        raise AssertionError("an N x N Fraction matrix was built")

    _patch_everywhere(monkeypatch, spectral.laplacian, forbidden)
    _patch_everywhere(monkeypatch, spectral.eigenvalues, forbidden)
    assert outputs() == expected
    assert [code for code, _, _ in expected] == [0, 0, 0, 1, 1] * 2 + [1, 1, 1, 1, 1]
    assert "within the float range" in expected[-2][2]  # huge at t = 1


def test_coeffs_with_a_disconnected_black_subgraph_eliminates_once(monkeypatch, capsys, tmp_path):
    # A_empty = 0: the forest subsets are read off the one elimination that
    # crossing_polynomial ran, wherever _eliminate is looked up
    path = _graph_file(tmp_path, "c4", C4_ALTERNATING)
    real, calls = spectral._eliminate, []

    def counted(*args):
        calls.append(args)
        return real(*args)

    holders = [
        m for name, m in sys.modules.items() if name.startswith("signedlap") and getattr(m, "_eliminate", None) is real
    ]
    assert holders == [spectral]  # _transfer_current looks it up there
    for module in holders:
        monkeypatch.setattr(module, "_eliminate", counted)
    code, out = _run(capsys, ["coeffs", "--input", path])
    assert code == 0 and out == {"00": "0", "10": "1", "01": "1", "11": "2"}
    assert len(calls) == 1


def test_analyze_with_t_outside_float_range_is_input_error(capsys, tmp_path):
    edges = [(0, 1, "1" + "0" * 400), (1, 2, "1"), (0, 2, "-1")]
    doc = {"n": 3, "edges": [{"u": u, "v": v, "w": w} for u, v, w in edges]}
    path = _graph_file(tmp_path, "huge", doc)
    assert cli.main(["analyze", "--input", path, "--t", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "float range" in captured.err
    code, out = _run(capsys, ["analyze", "--input", path])  # no eigenvalues without --t
    assert code == 0 and out["tau"] == 1


def test_analyze_with_t_below_float_range_is_input_error(capsys, tmp_path):
    # black weights 10^-400 would enter the eigensolver as 0.0
    path = _graph_file(tmp_path, "tiny", _k4_with_black_weight(str(Fraction(1, 10**400))))
    assert cli.main(["analyze", "--input", path, "--t", "1,1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "float range" in captured.err and "Traceback" not in captured.err


def _k4_with_black_weight(w: str) -> dict:
    return {**K4_SHARED, "edges": [{**e, "w": w} if e["w"] == "1" else e for e in K4_SHARED["edges"]]}


@pytest.mark.parametrize("exponent", [200, -200])
def test_disc_gap_past_float_range_ratio(capsys, tmp_path, exponent):
    # Delta scales as w^4 and A11 as w, so the gap is w times the unit K4's
    # sqrt(32)/3 while the ratio 2|Delta|/A11^2 ~ w^2 leaves float range
    w = Fraction(10) ** exponent
    path = _graph_file(tmp_path, "k4w", _k4_with_black_weight(str(w)))
    code, out = _run(capsys, ["disc", "--input", path])
    assert code == 0
    assert out["delta"] == str(-16 * w**4)
    assert 0 < out["gap"] < float("inf")
    assert abs(out["gap"] / float(w) - 1.8856180831641267) < 1e-12
    # within one ulp of the exact gap w*sqrt(32)/3, compared squared
    g, ulp = Fraction(out["gap"]), Fraction(math.ulp(out["gap"]))
    assert (g - ulp) ** 2 <= Fraction(32, 9) * w**2 <= (g + ulp) ** 2


@pytest.mark.parametrize("exponent", [400, -400])
def test_disc_gap_outside_float_range_is_input_error(capsys, tmp_path, exponent):
    path = _graph_file(tmp_path, "k4w", _k4_with_black_weight(str(Fraction(10) ** exponent)))
    assert cli.main(["disc", "--input", path]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "float range" in captured.err


@pytest.mark.parametrize("n", [10**30, 2**62, graph.MAX_VERTICES + 1])
def test_vertex_count_past_the_bound_is_input_error(tmp_path, capsys, n):
    # a graph of more than graph.MAX_VERTICES vertices is rejected when it
    # is built: every graph subcommand exits 1 with one error line, no
    # OverflowError or MemoryError traceback, and allocates nothing of the
    # graph's size
    path = _graph_file(tmp_path, "big", {"n": n, "edges": []})
    for argv in (["analyze"], ["coeffs"], ["crossings", "--ray", "1"], ["disc"], ["factorize"], ["stability"]):
        tracemalloc.start()
        try:
            _assert_one_error_line(capsys, [*argv, "--input", path], f"vertex count must be at most {graph.MAX_VERTICES}")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, argv


def test_analyze_malformed_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"n": 4')
    assert cli.main(["analyze", "--input", str(bad)]) == 1
    err = capsys.readouterr().err
    assert "malformed" in err


def test_analyze_graph_error_exit_code(tmp_path, capsys):
    doc = {"n": 2, "edges": [{"u": 0, "v": 0, "w": "1"}]}
    path = tmp_path / "loop.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["analyze", "--input", str(path)]) == 1
    assert "self-loop" in capsys.readouterr().err


def _ensemble_argv(tmp_path, config):
    return ["ensemble", "--input", str(config), "--output", str(tmp_path / "runs.csv")]


def _assert_input_error(capsys, argv, message):
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ") and message in captured.err, argv


def test_input_that_is_not_utf8_is_input_error(tmp_path, capsys):
    bad = tmp_path / "latin1.json"
    bad.write_bytes(b'{"n": 2, "edges": [], "note": "caf\xe9"}')
    _assert_input_error(capsys, ["coeffs", "--input", str(bad)], "codec can't decode byte 0xe9")
    _assert_input_error(capsys, _ensemble_argv(tmp_path, bad), "codec can't decode byte 0xe9")
    assert not (tmp_path / "runs.csv").exists()
    # a UTF-8 byte order mark decodes, and the JSON reader rejects it
    bom = tmp_path / "bom.json"
    bom.write_bytes(b"\xef\xbb\xbf" + json.dumps(K4_SHARED).encode())
    _assert_input_error(capsys, ["coeffs", "--input", str(bom)], "malformed JSON")
    # UTF-16 is not UTF-8: the file is readable but not text to the decoder
    utf16 = tmp_path / "utf16.json"
    utf16.write_bytes(json.dumps(K4_SHARED).encode("utf-16"))
    _assert_input_error(capsys, ["coeffs", "--input", str(utf16)], f"JSON in {utf16} is not text")
    # parse_graph reads bytes with the same decoder as a file
    for path in (bad, bom, utf16):
        with pytest.raises(signedlap.InputError) as exc:
            graph.parse_graph(path.read_bytes())
        assert cli.main(["coeffs", "--input", str(path)]) == 1
        assert str(exc.value).replace("graph JSON", f"JSON in {path}") in capsys.readouterr().err


def test_input_file_that_cannot_be_read_is_input_error(tmp_path, capsys):
    missing = tmp_path / "missing.json"
    _assert_input_error(capsys, ["coeffs", "--input", str(missing)], f"cannot read {missing}: [Errno 2]")
    _assert_input_error(capsys, _ensemble_argv(tmp_path, missing), f"cannot read {missing}: [Errno 2]")


def test_json_nested_past_the_recursion_limit_is_input_error(tmp_path, capsys):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000)
    _assert_input_error(capsys, ["analyze", "--input", str(deep)], "nested too deeply")
    _assert_input_error(capsys, _ensemble_argv(tmp_path, deep), "nested too deeply")
    assert not (tmp_path / "runs.csv").exists()


@pytest.mark.parametrize("name", ["coeffs", "disc", "factorize", "stability", "analyze"])
def test_unwritable_output_is_input_error(tmp_path, capsys, k4_file, name):
    target = tmp_path / "missing" / "out.json"
    _assert_input_error(capsys, [name, "--input", k4_file, "--output", str(target)], "No such file or directory")
    assert not target.parent.exists()


def test_file_errors_keep_the_messages_of_open(tmp_path, capsys, k4_file):
    # the files are read and written with os.open, os.read and os.write;
    # each error reads as open() words it, os.read's nameless EISDIR too
    directory = tmp_path / "adir"
    directory.mkdir()
    missing = tmp_path / "missing.json"
    cfg = _graph_file(tmp_path, "cfg", {"N": 5, "M": [6], "samples": 2, "seed": 1})
    no_parent = tmp_path / "missing" / "out.json"
    under_file = f"{k4_file}/out.json"
    cases = [
        (["coeffs", "--input", str(directory)], f"cannot read {directory}: [Errno 21] Is a directory: {str(directory)!r}"),
        (_ensemble_argv(tmp_path, directory), f"cannot read {directory}: [Errno 21] Is a directory: {str(directory)!r}"),
        (["coeffs", "--input", str(missing)], f"cannot read {missing}: [Errno 2] No such file or directory: {str(missing)!r}"),
        (_ensemble_argv(tmp_path, missing), f"cannot read {missing}: [Errno 2] No such file or directory: {str(missing)!r}"),
        (["coeffs", "--input", k4_file, "--output", str(directory)], f"[Errno 21] Is a directory: {str(directory)!r}"),
        (["ensemble", "--input", cfg, "--output", str(directory)], f"[Errno 21] Is a directory: {str(directory)!r}"),
        (["coeffs", "--input", k4_file, "--output", str(no_parent)], f"[Errno 2] No such file or directory: {str(no_parent)!r}"),
        (["coeffs", "--input", k4_file, "--output", under_file], f"[Errno 20] Not a directory: {under_file!r}"),
        (["ensemble", "--input", cfg, "--output", under_file], f"[Errno 20] Not a directory: {under_file!r}"),
    ]
    for argv, message in cases:
        assert cli.main(argv) == 1, argv
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"error: {message}\n", argv
    assert not (tmp_path / "runs.csv").exists()


def test_output_files_are_created_and_truncated_as_open_does(tmp_path, capsys, k4_file):
    cfg = _graph_file(tmp_path, "cfg", {"N": 5, "M": [6], "samples": 2, "seed": 1})
    out, csv = tmp_path / "out.json", tmp_path / "runs.csv"
    out.write_text("x" * 10_000)  # a longer file is truncated, not overwritten in place
    old = os.umask(0o027)
    try:
        assert cli.main(["coeffs", "--input", k4_file, "--output", str(out)]) == 0
        assert cli.main(["coeffs", "--input", k4_file, "--output", str(tmp_path / "new.json")]) == 0
        assert cli.main(["ensemble", "--input", cfg, "--output", str(csv)]) == 0
        with open(tmp_path / "reference", "w"):
            pass
    finally:
        os.umask(old)
    capsys.readouterr()
    assert json.loads(out.read_text()) == {"00": "3", "10": "5", "01": "5", "11": "3"}
    created = [tmp_path / "new.json", csv, tmp_path / "runs.summary.json", tmp_path / "reference"]
    assert [stat.S_IMODE(path.stat().st_mode) for path in created] == [0o666 & ~0o027] * 4


@pytest.mark.parametrize("s", [s for s in RATIONAL_STRINGS if "," not in s], ids=rational_string_id)
def test_rational_components_read_as_fraction_reads_them(capsys, tmp_path, s):
    # --t and --ray components take the weights' reader: a component is
    # read as Fraction reads it after the blanks around it are stripped,
    # and an error carries Fraction's own text
    expected = fraction_outcome(s.strip()) if s.strip() else None
    message = None if isinstance(expected, Fraction) or expected is None else expected[1]
    if message is None:
        assert cli._parse_fractions(s) == (() if expected is None else (expected,))
    else:
        with pytest.raises(signedlap.InputError) as exc:
            cli._parse_fractions(s)
        assert str(exc.value) == f"the components of {s!r} must be finite rationals: {message}"
    if message is None and len(s) > 40:
        return  # a ray of 1/(4300 digits) puts its root past the float range of "midpoint"
    tri = _graph_file(tmp_path, "tri", {"n": 3, "edges": [{"u": 0, "v": 1, "w": "1"}, {"u": 1, "v": 2, "w": "1"}, {"u": 0, "v": 2, "w": "-1"}]})
    ray = [f"--ray={s}"] if s.startswith("-") else ["--ray", s]  # a leading "-" is only read in the "=" form
    code = cli.main(["crossings", "--input", tri, *ray])
    captured = capsys.readouterr()
    if message is not None:
        assert code == 1 and captured.err == f"error: the components of {s!r} must be finite rationals: {message}\n"
    elif expected is not None and expected > 0:
        assert code == 0 and json.loads(captured.out)["ray"] == [str(expected)]
    else:
        assert code == 1 and captured.out == ""


def test_json_number_past_the_digit_limit_is_input_error(tmp_path, capsys):
    # json.loads raises a plain ValueError on such a number: once a traceback
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        pytest.skip("this Python converts strings of any length to int")
    digits = "1" * max(limit + 1, 5000)
    graph_path = tmp_path / "long.json"
    graph_path.write_text('{"n": 2, "edges": [{"u": 0, "v": 1, "w": %s}]}' % digits)
    cfg = tmp_path / "seed.json"
    cfg.write_text('{"N": 6, "M": [8], "samples": 2, "seed": %s}' % digits)
    for argv, path in ((["coeffs", "--input", str(graph_path)], graph_path), (_ensemble_argv(tmp_path, cfg), cfg)):
        _assert_input_error(capsys, argv, f"JSON in {path} holds a number too long to read: Exceeds the limit ({limit} digits)")
    assert not (tmp_path / "runs.csv").exists()


def _assert_one_error_line(capsys, argv, message):
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith(f"error: {message}") and captured.err.count("\n") == 1, argv


def test_result_past_the_digit_limit_is_input_error(tmp_path, capsys):
    # K4 with black weights of half the limit's digits: the A_I, the ray
    # polynomial and Delta are products of three weights, past the limit,
    # which str() once met with a ValueError traceback; the thresholds
    # (about one weight) and the factorization outcome stay within it
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        pytest.skip("this Python converts ints of any length to strings")
    w = "1" + "0" * (limit // 2 - 1)
    edges = [(0, 1, "-1"), (0, 2, "-1")] + [(u, v, w) for u, v in ((0, 3), (1, 2), (1, 3), (2, 3))]
    path = _graph_file(tmp_path, "k4-digits", {"n": 4, "edges": [{"u": u, "v": v, "w": x} for u, v, x in edges]})
    message = f"a result holds a number too long to write: Exceeds the limit ({limit} digits)"
    for argv in (["coeffs"], ["crossings", "--ray", "1,1"], ["disc"]):
        _assert_one_error_line(capsys, [*argv, "--input", path], message)
    for command in ("factorize", "analyze", "stability"):
        code, out = _run(capsys, [command, "--input", path])
        assert code == 0
    assert out["thresholds"] == ["6" + "0" * (len(w) - 2)] * 2  # 3w/5 on both axes


def test_root_past_the_float_range_is_input_error(tmp_path, capsys):
    # one red edge on a unit triangle: M(t alpha) = 1 - 2 alpha t, whose
    # root 1/(2 alpha) lies above the float range of "midpoint" for a
    # 400-digit denominator (once an OverflowError traceback) and below it,
    # where it rounded to 0.0, for a 400-digit alpha; 1/(2 * 10^-308) is
    # within it
    tri = _graph_file(tmp_path, "tri", {"n": 3, "edges": [{"u": 0, "v": 1, "w": "1"}, {"u": 1, "v": 2, "w": "1"}, {"u": 0, "v": 2, "w": "-1"}]})
    message = "a root's midpoint needs the root within the float range (2.5e-324 < x < 1.8e308)\n"
    for ray in ("1/" + "1" * 400, "1" * 400):
        _assert_one_error_line(capsys, ["crossings", "--input", tri, "--ray", ray], message)
    code, out = _run(capsys, ["crossings", "--input", tri, "--ray", "1/1" + "0" * 308])
    assert code == 0 and [r["midpoint"] for r in out["roots"]] == [5e307]


_JSON_VALUES = [
    None, True, False, 0, -7, 10**40, -0.0, 0.0, 1e-300, 5e-324, 1.7976931348623157e308, 0.1, -2.5,
    float("nan"), float("inf"), -float("inf"),
    "", "plain", 'quote " and \\ backslash', "café ☃ \U0001f600", "\x00\x1f\n\t ",
    [], {}, [[]], [{}], {"a": {}}, {"a": []}, [1, [2, [3, []]], {"k": None}],
    {"b": 1, "a": [True, None, "x"], "é": {"nested": [0.5, -0.0, float("nan")]}},
    {"inf": [float("inf"), 1], "nan": {"x": float("nan")}},
    (1, 2), {"t": (3, [4])}, {1: "int key"}, {"a": {2.5: "float key", None: 0}}, [{True: 1}],
    {"z": {"y": [{"b": 1, "a": 2}], "x": None}, "a": {"d": {"c": {}, "b": []}, "c": 0}},
    {"b": [], "a": {}},
    {"x": None, "y": -1.5e-300, "\u00e9": True, "z": [3, 0]},
    {"w": -math.inf, "v": math.nan, "n": 10**30, "f": 1 / 3, "k": "\n\"", "h": graph._Counts([0, 12, 0, 100, 0])},
    pytest.param(graph._Counts([0, -3, 0, 10**40, 0, 0]), id="_Counts([0, -3, 0, 10**40, 0, 0])"),
    pytest.param(graph._Counts(), id="_Counts()"),
    # a plain list of falsy and bool entries: written item by item, not
    # joined over "0"s as a _Counts is
    [0, 0.0, False, True, None],
]


@pytest.mark.parametrize("value", _JSON_VALUES, ids=repr)
def test_json_writer_writes_what_json_dumps_writes(value):
    # both key orders in one test, so that each value keeps one test id
    for sort_keys in (False, True):
        try:
            expected = json.dumps(value, indent=2, sort_keys=sort_keys)
        except TypeError:  # sort_keys over keys that do not compare
            with pytest.raises(TypeError):
                graph._json_text(value, sort_keys=sort_keys)
        else:
            assert graph._json_text(value, sort_keys=sort_keys) == expected


def test_json_writer_writes_every_corpus_payload_as_json_dumps(monkeypatch, tmp_path, capsys):
    # every payload of cli-corpus seeds 1-3, printed to stdout, and the
    # ensemble's stdout payload
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    import corpus

    payloads = []
    emit = cli._emit

    def recorded(payload, output):
        payloads.append(payload)
        emit(payload, output)

    monkeypatch.setattr(cli, "_emit", recorded)
    path = tmp_path / "in.json"
    for seed in (1, 2, 3):
        for req in corpus.requests("cli-corpus", seed):
            path.write_text(json.dumps(req.doc))
            assert cli.main([req.kind, "--input", str(path), *req.options]) == 0
            assert capsys.readouterr().out == json.dumps(payloads[-1], indent=2) + "\n"
    assert len(payloads) > 400
    cfg = _graph_file(tmp_path, "cfg", {"N": 5, "M": [6], "samples": 2, "seed": 1})
    assert cli.main(_ensemble_argv(tmp_path, cfg)) == 0
    payload = {"csv": str(tmp_path / "runs.csv"), "summary": str(tmp_path / "runs.summary.json"), "records": 2}
    assert capsys.readouterr().out == json.dumps(payload, indent=2) + "\n"


def test_coeffs_mapping(capsys, k4_file):
    code, out = _run(capsys, ["coeffs", "--input", k4_file])
    assert code == 0
    assert out == {"00": "3", "10": "5", "01": "5", "11": "3"}


def test_disc(capsys, k4_file):
    code, out = _run(capsys, ["disc", "--input", k4_file])
    assert code == 0
    assert out["delta"] == "-16"
    assert abs(out["gap"] - 1.8856180831641267) < 1e-12
    assert out["degenerate_point"] is None
    assert out["forest_sum"] == out["cycle_minor"] == "4"  # reds share vertex 0, the smaller endpoint of both


def test_disc_forest_sum_beyond_the_enumeration_caps(capsys, tmp_path):
    # N = 13 is over the 12-vertex oracle limit, and K12 has C(66, 10)
    # 2-forest candidates, over the 4M-subset cap; sigma comes from the
    # bordered elimination at any size
    k12 = kn_with_reds(12, [(0, 1), (0, 2)])
    for name, doc in (("n13", _n13_doc()), ("k12", _graph_doc(k12))):
        code, out = _run(capsys, ["disc", "--input", _graph_file(tmp_path, name, doc)])
        assert code == 0
        assert out["forest_sum"] is not None and Fraction(out["forest_sum"]) != 0
        assert Fraction(out["forest_sum"]) ** 2 == abs(Fraction(out["delta"]))
        assert Fraction(out["cycle_minor"]) ** 2 == abs(Fraction(out["delta"]))


def test_disc_cycle_minor_is_the_cycle_basis_minor(monkeypatch, connected_iso_corpus):
    # disc reads the cycle minor off sigma with the sign rule of
    # _cycle_minor; cycle_basis_minor's Gram determinant is the oracle for
    # its value, its sign and its None, on every red pair of the N <= 6
    # corpus and on seeded unit-weight graphs up to N = 12
    graphs = [
        swg(n, [(u, v, -1 if (u, v) in pair else 1) for u, v in edge_list])
        for n, reps in connected_iso_corpus.items()
        for edge_list in reps
        for pair in itertools.combinations(edge_list, 2)
    ]
    rng = random.Random(1919)
    while len(graphs) < 4208 + 1200:
        g = random_connected_graph(rng, n_min=3, n_max=12, extra_max=12, red_choices=(2,), unit_weights=True)
        if g.red_count == 2:
            graphs.append(g)
    monkeypatch.setattr(cli, "_load_graph", lambda g: g)
    flipped = undefined = 0
    for g in graphs:
        out = cli._cmd_disc(argparse.Namespace(input=g))
        cm = discriminants.cycle_basis_minor(g)
        assert out["cycle_minor"] == (None if cm is None else str(cm)), g
        undefined += cm is None
        flipped += cm is not None and out["cycle_minor"] != out["forest_sum"]
        assert (cm is None) == (graph.component_counts(g)[1] > 1), g
    assert flipped >= 100 and undefined >= 100, (flipped, undefined)


def _patch_everywhere(monkeypatch, fn, replacement):
    """Replace ``fn`` in every signedlap module namespace that holds it."""
    for key, mod in list(sys.modules.items()):
        if key == "signedlap" or key.startswith("signedlap."):
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    monkeypatch.setattr(mod, attr, replacement)


def test_user_facing_commands_take_no_exponential_or_per_mask_route(monkeypatch, capsys, tmp_path):
    # minors, tree sums, the enumerations, the general determinant and the
    # cycle Gram minor are test oracles; no command may reach them, in
    # whatever module namespace it looks them up, and every output is the
    # one the unpatched run gives.  K4 with reds (0,1), (1,2) takes the
    # cycle minor's sign flip, and the 4-cycle its null (A_empty = 0)
    k4_path = _graph_doc(kn_with_reds(4, [(0, 1), (1, 2)]))
    c4 = _graph_doc(swg(4, [(0, 1, 1), (1, 2, -1), (2, 3, 1), (0, 3, -1)]))
    cfg = _graph_file(tmp_path, "cfg", {"N": 7, "M": [6, 12], "samples": 10, "seed": 3})
    runs = [["ensemble", "--input", cfg, "--output", str(tmp_path / "runs.csv")]]
    for name, doc in (("k4", K4_SHARED), ("chain", CHAIN2), ("n13", _n13_doc()), ("k4_path", k4_path), ("c4", c4)):
        path = _graph_file(tmp_path, name, doc)
        for argv in (
            ["analyze", "--t", "1,1"],
            ["coeffs"],
            ["disc"],
            ["factorize"],
            ["stability", "--t", "1/10,1/10"],
            ["crossings", "--ray", "1,2"],
        ):
            runs.append([*argv, "--input", path])

    def outputs():
        out = []
        for argv in runs:
            code = cli.main(argv)
            captured = capsys.readouterr()
            files = [Path(tmp_path / name).read_bytes() for name in ("runs.csv", "runs.summary.json")]
            out.append((code, captured.out, captured.err, files))
        return out

    expected = outputs()

    def forbidden(*args, **kwargs):
        raise AssertionError("a user-facing command reached an oracle route")

    routes = (oracles.minor, spectral.tree_sum, oracles.two_forests, oracles.spanning_trees, _kernels.det_int, discriminants.cycle_basis_minor)
    for fn in routes:
        _patch_everywhere(monkeypatch, fn, forbidden)
    assert outputs() == expected
    disc = {argv[-1]: json.loads(out) for argv, (_, out, _, _) in zip(runs, expected) if argv[0] == "disc"}
    assert [(out["forest_sum"], out["cycle_minor"]) for out in disc.values()] == [
        ("4", "4"),
        ("0", "0"),
        ("3381", "3381"),
        ("4", "-4"),
        ("1", None),
    ]
    failed = [argv[0] for argv, (code, *_) in zip(runs, expected) if code]
    assert failed == ["factorize", "stability"]  # the 4-cycle's A_empty = 0


def test_crossings_factorize_stability_take_no_2r_route(monkeypatch, capsys, tmp_path):
    # the 2^R coefficients, their ray expansion and their re-expansion are
    # oracles for these three commands: outputs are unchanged without them
    runs = []
    for name, doc in (("k4", K4_SHARED), ("chain", CHAIN2), ("n13", _n13_doc()), ("chain5", _graph_doc(triangle_chain(5)))):
        path = _graph_file(tmp_path, name, doc)
        r = sum(1 for e in doc["edges"] if e["w"].startswith("-"))
        ray = ",".join(str(k + 1) for k in range(r))
        t = ",".join(["1/10"] * r)
        for argv in (["crossings", "--ray", ray], ["factorize"], ["stability", "--t", t], ["stability"]):
            runs.append([*argv, "--input", path])
    expected = []
    for argv in runs:
        assert cli.main(argv) == 0, argv
        expected.append(capsys.readouterr().out)

    def forbidden(*args, **kwargs):
        raise AssertionError("the command reached a 2^R route")

    for fn in (crossing.crossing_polynomial, crossing.ray_polynomial, discriminants.factorize):
        _patch_everywhere(monkeypatch, fn, forbidden)
    for argv, out in zip(runs, expected):
        assert cli.main(argv) == 0, (argv, capsys.readouterr().err)
        assert capsys.readouterr().out == out, argv


def test_factorize_and_crossings_past_the_2r_guard(capsys, tmp_path):
    # N = 43, R = 21: over the 2^R guard that coeffs keeps
    path = _graph_file(tmp_path, "chain21", _graph_doc(triangle_chain(21)))
    code, out = _run(capsys, ["factorize", "--input", path])
    assert code == 0 and out == {"alpha": "1", "C": ["2"] * 21}
    code, out = _run(capsys, ["crossings", "--input", path, "--ray", ",".join(["1"] * 21)])
    assert code == 0
    assert [(r["value"], r["multiplicity"]) for r in out["roots"]] == [("1/2", 21)]
    assert cli.main(["coeffs", "--input", path]) == 1
    assert "exceeds the 2^R guard" in capsys.readouterr().err


def test_crossings_interpolation_fault_is_internal_fault(monkeypatch, capsys, k4_file):
    # one corrupted determinant (P(1) read as 0, a dropped zero row) breaks
    # the ray polynomial's sign and degree contract
    real = crossing._pivots
    calls = []

    def corrupt(upper, prev):
        calls.append(upper)
        return ([], 1) if len(calls) == 2 else real(upper, prev)

    monkeypatch.setattr(crossing, "_pivots", corrupt)
    assert cli.main(["crossings", "--input", k4_file, "--ray", "1,1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "sign and degree contract" in captured.err


def test_factorize_negative_diagonal_is_internal_fault(monkeypatch, capsys, chain_file):
    real = discriminants._transfer_current

    def negated_axis(n, black, reds, read):
        # the read sees K with K_11 negated
        return real(n, black, reds, lambda k, d: read([k[0], [-k[1][0], *k[1][1:]], *k[2:]], d))

    monkeypatch.setattr(discriminants, "_transfer_current", negated_axis)
    assert cli.main(["factorize", "--input", chain_file]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "negative tree-sum coefficient -2 at mask 2" in captured.err


def test_coeffs_negative_pivot_is_internal_fault(monkeypatch, capsys, k4_file):
    real = crossing._transfer_current

    def flipped(n, black, reds, read):
        # K_00 < 0: the pivot of mask 1 is negative
        return real(n, black, reds, lambda k, d: read([[-k[0][0], *k[0][1:]], *k[1:]], d))

    monkeypatch.setattr(crossing, "_transfer_current", flipped)
    assert cli.main(["coeffs", "--input", k4_file]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "negative tree-sum coefficient -5 at mask 1" in captured.err


def test_disc_inexact_division_is_internal_fault(monkeypatch, capsys, k4_file):
    # A_xy = det K / det Q is exact by Sylvester's identity: a read of K
    # with K_00 one too large leaves a remainder
    real = discriminants._transfer_current

    def perturbed(n, black, reds, read):
        return real(n, black, reds, lambda k, d: read([[k[0][0] + 1, *k[0][1:]], *k[1:]], d))

    monkeypatch.setattr(discriminants, "_transfer_current", perturbed)
    assert cli.main(["disc", "--input", k4_file]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "det K = 14 not divisible by det Q = 3" in captured.err


# black edges (0,1) of weight 2, (2,3) of weight 3/2 and (0,4) of weight 5,
# red edges (1,2) and (3,4): two black components (|Z| = 1, A_empty = 0) and
# L = 2, so the dropped row of vertex 3 is recorded at pivot 12 and det Q
# over the other pivots is d = 120
BRIDGED_R2 = {
    "n": 5,
    "edges": [
        {"u": 0, "v": 1, "w": "2"},
        {"u": 2, "v": 3, "w": "3/2"},
        {"u": 1, "v": 2, "w": "-1"},
        {"u": 3, "v": 4, "w": "-1"},
        {"u": 0, "v": 4, "w": "5"},
    ],
}


def test_coeffs_inexact_bridged_division_is_internal_fault(monkeypatch, capsys, tmp_path):
    # Y^T Y / d of the recorded rows is exact by Sylvester's identity: a
    # recorded red entry one too large leaves a remainder
    path = _graph_file(tmp_path, "bridged-r2", BRIDGED_R2)
    assert _run(capsys, ["coeffs", "--input", path]) == (0, {"00": "0", "10": "15", "01": "15", "11": "41/2"})
    code, out = _run(capsys, ["disc", "--input", path])
    assert code == 0 and (out["delta"], out["forest_sum"], out["gap"], out["cycle_minor"]) == ("-225", "-15", 1.0347904114925086, None)
    real = spectral._eliminate

    def perturbed(*args):
        upper, dropped, prev = real(*args)
        (entries, level), *rest = dropped
        assert (entries, level, prev) == ([-12, 12], 12, 120)
        return upper, [([entries[0] + 1, *entries[1:]], level), *rest], prev

    monkeypatch.setattr(spectral, "_eliminate", perturbed)
    assert cli.main(["coeffs", "--input", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "internal consistency fault: Y^T Y of the dropped rows not divisible by det Q = 120\n"


def test_coeffs_takes_no_determinant(monkeypatch, capsys, tmp_path, k4_file):
    # with a connected black subgraph (K4, the chain) and without: the
    # alternating 4-cycle (one dropped row) and K5 with black edges (0,1) and
    # (2,3) only (two dropped rows), whose 256 coefficients summed by |I| give
    # the ray polynomial 20t^2 - 60t^3 + 45t^4 along (1, ..., 1)
    chain = _graph_file(tmp_path, "chain8", _graph_doc(triangle_chain(8)))
    c4 = _graph_file(tmp_path, "c4", C4_ALTERNATING)
    k5 = _graph_file(tmp_path, "k5", _graph_doc(kn_with_reds(5, set(itertools.combinations(range(5), 2)) - {(0, 1), (2, 3)})))
    paths = (k4_file, chain, c4, k5)
    expected = [_run(capsys, ["coeffs", "--input", path]) for path in paths]

    def forbidden(*args):
        raise AssertionError("det_int called")

    monkeypatch.setattr(_kernels, "det_int", forbidden)
    assert [_run(capsys, ["coeffs", "--input", path]) for path in paths] == expected
    assert expected[0] == (0, {"00": "3", "10": "5", "01": "5", "11": "3"})
    assert sorted(set(expected[1][1].values()), key=int) == [str(2 ** k) for k in range(9)]
    assert expected[2] == (0, {"00": "0", "10": "1", "01": "1", "11": "2"})
    code, out = expected[3]
    sums = [sum(int(a) for key, a in out.items() if key.count("1") == k) for k in range(9)]
    assert code == 0 and sums == [0, 0, 20, 60, 45, 0, 0, 0, 0]
    assert sum(a != "0" for a in out.values()) == 113


def test_factorize_chain(capsys, chain_file):
    code, out = _run(capsys, ["factorize", "--input", chain_file])
    assert code == 0
    assert out == {"alpha": "1", "C": ["2", "2"]}


def test_factorize_negative(capsys, k4_file):
    code, out = _run(capsys, ["factorize", "--input", k4_file])
    assert code == 0
    assert out == {"factorizable": False}


def test_crossings(capsys, k4_file):
    code, out = _run(capsys, ["crossings", "--input", k4_file, "--ray", "1,1"])
    assert code == 0
    assert out["ray_polynomial"] == ["3", "-10", "3"]
    assert [(r["value"], r["multiplicity"]) for r in out["roots"]] == [("1/3", 1), ("3", 1)]


def test_crossings_builds_the_ray_polynomial_once(monkeypatch, capsys, k4_file):
    calls = []
    real = crossing.graph_ray_polynomial

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(crossing, "graph_ray_polynomial", counted)
    code, out = _run(capsys, ["crossings", "--input", k4_file, "--ray", "1,2"])
    assert code == 0 and len(calls) == 1
    assert out["ray_polynomial"] == ["3", "-15", "6"]


def test_crossings_zero_ray_polynomial_is_internal_fault(monkeypatch, capsys, k4_file):
    monkeypatch.setattr(crossing, "graph_ray_polynomial", lambda g, alpha: [])
    assert cli.main(["crossings", "--input", k4_file, "--ray", "1,1"]) == 2
    assert "ray polynomial is identically zero" in capsys.readouterr().err


_SPLIT = {"n": 4, "edges": [{"u": 0, "v": 1, "w": "1"}, {"u": 1, "v": 2, "w": "-1"}]}  # vertex 3 isolated


def test_analyze_on_a_disconnected_graph_has_no_crossing_count(capsys, tmp_path):
    code, out = _run(capsys, ["analyze", "--input", _graph_file(tmp_path, "split", _SPLIT)])
    assert code == 0
    assert out["components"] == {"full": 2, "black": 3, "red": 3}
    assert out["tau"] is None and out["index_limits"] is None


def test_crossings_on_a_disconnected_graph_is_input_error(capsys, tmp_path):
    # the route checks connectivity after the ray has been read
    path = _graph_file(tmp_path, "split", _SPLIT)
    _assert_input_error(capsys, ["crossings", "--input", path, "--ray", "1"], "the ray polynomial requires a connected graph")
    _assert_input_error(capsys, ["crossings", "--input", path, "--ray", "x"], "the components of 'x' must be finite rationals")


def test_disc_prints_no_cycle_minor_for_weighted_black_edges(capsys, tmp_path):
    code, out = _run(capsys, ["disc", "--input", _graph_file(tmp_path, "k4w", _k4_with_black_weight("2"))])
    assert code == 0
    assert out["forest_sum"] == "16" and out["cycle_minor"] is None


def test_crossings_requires_ray(capsys, k4_file):
    assert cli.main(["crossings", "--input", k4_file]) == 1


_GRAPH_COMMANDS = [name for name in cli._COMMANDS if name != "ensemble"]


@pytest.mark.parametrize(
    "argv, missing",
    [([name], "--input") for name in _GRAPH_COMMANDS if name != "crossings"]
    + [
        (["crossings", "--ray", "1,1"], "--input"),
        (["crossings", "--input", "g.json"], "--ray"),
        (["ensemble", "--output", "x.csv"], "--input"),
        (["ensemble", "--input", "cfg.json"], "--output"),
    ],
)
def test_missing_required_option_is_usage_error(capsys, argv, missing):
    # argparse rejects the request before any file is opened
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "usage:" in captured.err and f"required: {missing}" in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("name", _GRAPH_COMMANDS)
@pytest.mark.parametrize("option", ["--seed", "--threads"])
def test_graph_commands_reject_ensemble_options(capsys, k4_file, name, option):
    extra = ["--ray", "1,1"] if name == "crossings" else []
    assert cli.main([name, "--input", k4_file, *extra, option, "2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and f"unrecognized arguments: {option} 2" in captured.err


def test_help_exits_zero(capsys):
    assert cli.main(["--help"]) == 0
    assert "usage: signedlap" in capsys.readouterr().out
    assert cli.main(["ensemble", "--help"]) == 0
    assert "--threads" in capsys.readouterr().out


def test_parser_is_built_once_per_process(monkeypatch, capsys, k4_file):
    built = []
    real_init = argparse.ArgumentParser.__init__

    def counted_init(self, *args, **kwargs):
        built.append(self)
        real_init(self, *args, **kwargs)

    cli.build_parser.cache_clear()
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted_init)
    # a canonical argv is read off the option table: no parser is built
    assert cli.main(["coeffs", "--input", k4_file]) == 0
    assert cli.main(["analyze", "--input", k4_file, "--t", "1,x"]) == 1  # an input error, not a usage error
    assert built == []
    # the first argv that is not canonical builds it, and every later one
    # shares it
    assert cli.main(["coeffs", f"--input={k4_file}"]) == 0
    first = len(built)
    assert first == 1 + len(cli._OPTIONS)  # the parser and one per subcommand
    assert cli.main(["disc", "--in", k4_file]) == 0
    assert cli.main(["crossings"]) == 1
    assert cli.main(["disc", "--input", k4_file]) == 0
    assert len(built) == first
    capsys.readouterr()


def test_parser_actions_are_the_option_table():
    # build_parser declares nothing of its own: past --help, each
    # subcommand's actions are its _OPTIONS entries, field by field and in
    # order, so the canonical reader and argparse cannot drift apart
    parser = cli.build_parser()
    (sub,) = [action for action in parser._actions if isinstance(action, argparse._SubParsersAction)]
    assert list(sub.choices) == list(cli._OPTIONS) == list(cli._COMMANDS)
    for name, options in cli._OPTIONS.items():
        help_action, *actions = sub.choices[name]._actions
        assert help_action.option_strings == ["-h", "--help"], name
        assert [(a.option_strings, a.dest, a.type, a.required, a.default, a.help) for a in actions] == [
            ([option], dest, kind, required, default, text) for option, dest, kind, required, default, text in options
        ], name


def _argparse_outcome(capsys, argv):
    """(vars of the Namespace or None, exit code or None, stdout, stderr) of
    ``build_parser().parse_args(argv)`` run directly."""
    try:
        namespace, code = vars(cli.build_parser().parse_args(argv)), None
    except SystemExit as exc:
        namespace, code = None, exc.code
    captured = capsys.readouterr()
    return namespace, code, captured.out, captured.err


def _argvs() -> list[list[str]]:
    """Every corpus shape, then the argvs that must reach argparse, then a
    seeded draw of commands, option strings and values."""
    canonical = [
        ["analyze", "--input", "g.json", "--output", "o.json", "--t", "1/2,3"],
        ["analyze", "--input", "g.json"],
        ["coeffs", "--input", "g.json", "--output", "o.json"],
        ["disc", "--output", "o.json", "--input", "g.json"],
        ["factorize", "--input", "g.json", "--output", "o.json"],
        ["stability", "--input", "g.json", "--output", "o.json", "--t", "3/10,3/10"],
        ["crossings", "--input", "g.json", "--output", "o.json", "--ray", "1,2"],
        ["crossings", "--ray", "1,2", "--input", "g.json"],
        ["ensemble", "--input", "c.json", "--output", "r.csv", "--threads", "2"],
        ["ensemble", "--input", "c.json", "--output", "r.csv", "--seed", "7", "--threads", "1"],
        ["ensemble", "--threads", " 3 ", "--seed", "1_0", "--output", "r", "--input", "c.json"],
        ["analyze", "--input", "g.json", "--t", ""],
        ["analyze", "--input", "", "--t", " "],
    ]
    others = [
        [], ["-h"], ["--help"], ["coeffs"], ["coeffs", "-h"], ["coeffs", "--help"], ["ensemble", "--help"],
        ["nope", "--input", "g.json"], ["coeff", "--input", "g.json"],
        ["coeffs", "--in", "g.json"], ["coeffs", "--input=g.json"], ["coeffs", "--input=g.json", "--out", "o.json"],
        ["coeffs", "--input", "g.json", "--input", "h.json"], ["coeffs", "--output", "o.json"],
        ["coeffs", "--input", "g.json", "--bogus", "1"], ["coeffs", "--input", "g.json", "--t", "1"],
        ["coeffs", "--input", "g.json", "extra"], ["coeffs", "--input", "g.json", "--"],
        ["coeffs", "--input", "-"], ["coeffs", "--input", "-x"], ["coeffs", "--input"],
        ["analyze", "--input", "g.json", "--t", "-1,2"], ["analyze", "--input", "g.json", "--t=-1,2"],
        ["analyze", "--input", "g.json", "--t", "-1"], ["crossings", "--input", "g.json"],
        ["crossings", "--input", "g.json", "--ray"], ["crossings", "--input", "g.json", "--r", "1,1"],
        ["ensemble", "--input", "c.json"], ["ensemble", "--input", "c.json", "--output", "r.csv", "--seed", "x"],
        ["ensemble", "--input", "c.json", "--output", "r.csv", "--threads", "1.5"],
        ["ensemble", "--input", "c.json", "--output", "r.csv", "--seed", "-5"],
        ["ensemble", "--input", "c.json", "--output", "r.csv", "--seed", "1" * 5000],
        ["ensemble", "--input", "c.json", "--output", "r.csv", "--se", "9"],
        ["ensemble", "--input", "c.json", "--output", "r.csv", "--seed", "2", "--seed", "3"],
    ]
    rng = random.Random("argv")
    options = cli._OPTIONS
    names = sorted({option[0] for spec in options.values() for option in spec})
    names += ["--in", "--out", "--bogus", "--input=g.json", "-h", "--help", "--"]
    values = ["g.json", "o.json", "1,1", "1/2", "7", " 8 ", "x", "1_0", "", " ", "coeffs", "-1,2", "-x", "--input"]
    drawn = []
    for _ in range(400):
        # the subcommand's own options, each required one nearly always, in
        # any order, then at most one change: a foreign name, a repeat or
        # a token dropped
        command = rng.choice(sorted(options))
        pairs = [
            [name, rng.choice(values[:11]) if rng.random() < 0.9 else rng.choice(values)]
            for name, _, _, required, _, _ in options[command]
            if rng.random() < (0.95 if required else 0.5)
        ]
        rng.shuffle(pairs)
        change = rng.random()
        if change < 0.1:
            pairs.append([rng.choice(names), rng.choice(values)])
        elif change < 0.15 and pairs:
            pairs.append(list(rng.choice(pairs)))
        argv = [command, *itertools.chain.from_iterable(pairs)]
        if 0.15 <= change < 0.2:
            argv.pop(rng.randrange(len(argv)))
        drawn.append(argv)
    return canonical + others + drawn


def test_canonical_argv_reads_what_argparse_reads(monkeypatch, capsys):
    # the canonical form is read off the option table; every other
    # argv reaches argparse, so main's exit code, stdout and stderr are
    # those of parse_args run directly
    def handler(args):
        raise signedlap.InputError(json.dumps(vars(args), sort_keys=True))

    monkeypatch.setattr(cli, "_COMMANDS", dict.fromkeys(cli._COMMANDS, handler))
    argvs = _argvs()
    fast = 0
    for argv in argvs:
        namespace, code, out, err = _argparse_outcome(capsys, argv)
        args = cli._canonical_args(argv)
        if args is not None:
            fast += 1
            assert vars(args) == namespace, argv
        if namespace is not None:
            code, err = 1, f"error: {json.dumps(namespace, sort_keys=True)}\n"
        assert [cli.main(argv), *capsys.readouterr()] == [code, out, err], argv
    # both routes are taken, and every corpus shape reads canonically
    assert fast >= 13 + 20 and fast <= len(argvs) - 100, fast
    assert all(cli._canonical_args(argv) is not None for argv in argvs[:13])


@pytest.mark.parametrize(
    "argv",
    [
        ["crossings", "--ray", "1,,1"],
        ["crossings", "--ray", "1,1,"],
        ["crossings", "--ray", ",1,1"],
        ["analyze", "--t", " , 1/2, 3"],
        ["stability", "--t", "1/2, ,1/2"],
    ],
)
def test_empty_vector_component_is_input_error(capsys, k4_file, argv):
    # these once parsed as 2-vectors on the two-red K4, the blanks dropped
    assert cli.main([*argv, "--input", k4_file]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "empty component" in captured.err


def test_empty_string_is_the_empty_vector(capsys, tmp_path):
    doc = {"n": 3, "edges": [{"u": 0, "v": 1, "w": "1"}, {"u": 1, "v": 2, "w": "2"}]}
    black = _graph_file(tmp_path, "black", doc)
    code, out = _run(capsys, ["crossings", "--input", black, "--ray", ""])
    assert code == 0
    assert out["ray"] == [] and out["ray_polynomial"] == ["2"] and out["roots"] == []
    code, out = _run(capsys, ["analyze", "--input", black, "--t", " "])
    assert code == 0
    assert out["t"] == [] and out["index"] == [2, 1, 0]
    code, out = _run(capsys, ["stability", "--input", black, "--t", ""])
    assert code == 0
    assert out["thresholds"] == [] and out["verified_index"] == [2, 1, 0]


@pytest.mark.parametrize("t", [None, "3/10,3/10"])
def test_stability_computes_the_thresholds_once(monkeypatch, capsys, k4_file, t):
    calls = []
    real = stability.axis_thresholds

    def counted(g):
        calls.append(g)
        return real(g)

    monkeypatch.setattr(stability, "axis_thresholds", counted)
    argv = ["stability", "--input", k4_file] + ([] if t is None else ["--t", t])
    code, out = _run(capsys, argv)
    assert code == 0 and len(calls) == 1
    assert out["thresholds"] == ["3/5", "3/5"]


@pytest.mark.parametrize("t", ["1,,1", "x", "1/2"])
def test_stability_reports_a_disconnected_black_subgraph_first(capsys, tmp_path, t):
    # two black components joined by one red edge: the threshold error comes
    # before any complaint about --t
    edges = [(0, 1, "1"), (2, 3, "1"), (1, 2, "-1")]
    doc = {"n": 4, "edges": [{"u": u, "v": v, "w": w} for u, v, w in edges]}
    assert cli.main(["stability", "--input", _graph_file(tmp_path, "split", doc), "--t", t]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "thresholds require a connected black subgraph" in captured.err


def test_stability(capsys, k4_file):
    code, out = _run(capsys, ["stability", "--input", k4_file, "--t", "3/10,3/10"])
    assert code == 0
    assert out["thresholds"] == ["3/5", "3/5"]
    assert out["certified"] is True and out["boundary"] is True
    assert out["verified_index"] == [3, 1, 0]


def test_output_file_roundtrip(tmp_path, capsys, k4_file):
    target = tmp_path / "out.json"
    code = cli.main(["coeffs", "--input", k4_file, "--output", str(target)])
    assert code == 0
    assert json.loads(target.read_text()) == {"00": "3", "10": "5", "01": "5", "11": "3"}


def test_ensemble_run(tmp_path, capsys):
    cfg = {"N": 9, "M": [12, 15], "samples": 40, "seed": 21}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    csv_path = tmp_path / "runs.csv"
    code = cli.main(
        ["ensemble", "--input", str(cfg_path), "--output", str(csv_path), "--threads", "2"]
    )
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["records"] == 80
    summary = json.loads((tmp_path / "runs.summary.json").read_text())
    assert set(summary["per_m"]) == {"12", "15"}
    lines = csv_path.read_text().splitlines()
    assert len(lines) == 81

    # identical rerun produces byte-identical files
    csv2 = tmp_path / "again.csv"
    cli.main(["ensemble", "--input", str(cfg_path), "--output", str(csv2)])
    capsys.readouterr()
    assert csv2.read_bytes() == csv_path.read_bytes()


def _hist_bin(log_gap: float) -> int:
    """The 0.1-wide bin of ``log_gap`` from -10, clamped to the 200 bins."""
    if not math.isfinite(log_gap):
        return 0 if log_gap < 0 else ens._HIST_BINS - 1
    b = int(math.floor((log_gap + 10.0) / 0.1))
    return min(max(b, 0), ens._HIST_BINS - 1)


def _list_summary(records) -> dict:
    """The summary by grouping a full record list per M: the route the CLI
    took before it streamed, kept as the oracle for the streamed fold."""
    by_m = {}
    for rec in records:
        by_m.setdefault(rec.m, []).append(rec)
    per_m = {}
    for m in sorted(by_m):
        recs = by_m[m]
        connected = [r for r in recs if r.gplus_connected]
        cond = [r.log10_gap for r in connected if not r.delta_zero]
        hist = {"all": [0] * ens._HIST_BINS}
        for r in recs:
            if r.log10_gap is not None:
                b = _hist_bin(r.log10_gap)
                hist["all"][b] += 1
                hist.setdefault(r.class_label, [0] * ens._HIST_BINS)[b] += 1
        mean = sum(cond) / len(cond) if cond else None
        per_m[str(m)] = {
            "samples": len(recs),
            "p_gplus_disconnected": sum(1 for r in recs if not r.gplus_connected) / len(recs),
            "p_delta_zero_given_connected": (
                sum(1 for r in connected if r.delta_zero) / len(connected) if connected else None
            ),
            "log10_gap_mean": mean,
            "log10_gap_std": math.sqrt(sum((x - mean) ** 2 for x in cond) / len(cond)) if cond else None,
            "histograms": {k: hist[k] for k in sorted(hist)},
        }
    return {"per_m": per_m}


@pytest.mark.parametrize("chunk", [ens._CHUNK, 7])
@pytest.mark.parametrize(
    "cfg",
    [
        {"N": 9, "M": [12, 20, 15], "samples": 60, "seed": 5},
        # G(N, p): the edge count, and so the summary key, varies per sample
        {"N": 8, "M": [10, 11], "samples": 50, "seed": 9, "model": "gnp", "p": 0.45},
    ],
)
def test_streamed_ensemble_matches_the_list_path_byte_for_byte(tmp_path, capsys, monkeypatch, cfg, chunk):
    monkeypatch.setattr(ens, "_CHUNK", chunk)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert cli.main(["ensemble", "--input", str(cfg_path), "--output", str(tmp_path / "s.csv")]) == 0
    out = json.loads(capsys.readouterr().out)
    records = ens.generate_records(ens.config_from_dict(cfg))
    ens.write_csv(records, tmp_path / "l.csv")
    ens.write_summary(_list_summary(records), tmp_path / "l.summary.json")
    assert out["records"] == len(records) == len(cfg["M"]) * cfg["samples"]
    assert (tmp_path / "s.csv").read_bytes() == (tmp_path / "l.csv").read_bytes()
    assert (tmp_path / "s.summary.json").read_bytes() == (tmp_path / "l.summary.json").read_bytes()
    assert len(_list_summary(records)["per_m"]) >= len(cfg["M"])


def test_ensemble_records_stream_in_chunks(monkeypatch):
    cfg = ens.config_from_dict({"N": 8, "M": [10, 12], "samples": 6, "seed": 3})
    drawn = []
    draw = ens._sample_pairs
    monkeypatch.setattr(ens, "_sample_pairs", lambda *args: drawn.append(args) or draw(*args))
    monkeypatch.setattr(ens, "_CHUNK", 5)
    records = ens.iter_records(cfg)
    next(records)
    assert len(drawn) == 5  # one chunk, not all 12 samples
    assert [r.sample_id for r in records] == [1, 2, 3, 4, 5, 0, 1, 2, 3, 4, 5]
    assert len(drawn) == 12


def test_ensemble_over_the_int64_bound_takes_the_scalar_route(tmp_path, capsys, monkeypatch):
    # the scalar route takes exactly the samples over the bound: none at
    # N = 10, where M = 9 and 12 leave many black subgraphs disconnected
    # (each stacked, its values from the core's closed form), and every
    # sample at N = 40, where the stack stays empty and the output is the
    # Python-int core's alone
    stacked, scalar, bridged = [], [], []
    stack, transfer_current, read_eliminated = ens._stacked_minors, ens._transfer_current, ens._read_eliminated
    monkeypatch.setattr(ens, "_stacked_minors", lambda h: stacked.append(len(h)) or stack(h))
    monkeypatch.setattr(ens, "_transfer_current", lambda *args: scalar.append(args) or transfer_current(*args))
    monkeypatch.setattr(ens, "_read_eliminated", lambda *args: bridged.append(args) or read_eliminated(*args))
    cfg_path = tmp_path / "cfg10.json"
    cfg_path.write_text(json.dumps({"N": 10, "M": [9, 12, 45], "samples": 20, "seed": 1}))
    assert cli.main(["ensemble", "--input", str(cfg_path), "--output", str(tmp_path / "n10.csv")]) == 0
    capsys.readouterr()
    assert stacked == [60] and scalar == []
    rows = (tmp_path / "n10.csv").read_text().splitlines()[1:]
    assert len(bridged) == sum(",disconnected_plus," in row for row in rows) > 0
    stacked.clear()
    bridged.clear()
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"N": 40, "M": [60, 300], "samples": 4, "seed": 1}))
    assert cli.main(["ensemble", "--input", str(cfg_path), "--output", str(tmp_path / "a.csv")]) == 0
    assert json.loads(capsys.readouterr().out)["records"] == 8
    assert stacked == [0] and len(scalar) == 8 and bridged == []
    # with no sample under the bound, the scalar route writes the same bytes,
    # the bridged N = 10 samples included
    monkeypatch.setattr(ens, "_fits_int64", lambda norms: np.zeros(len(norms), dtype=bool))
    for config, name in ((tmp_path / "cfg10.json", "n10"), (cfg_path, "a")):
        assert cli.main(["ensemble", "--input", str(config), "--output", str(tmp_path / f"{name}-scalar.csv")]) == 0
        capsys.readouterr()
        for suffix in (".csv", ".summary.json"):
            assert (tmp_path / f"{name}{suffix}").read_bytes() == (tmp_path / f"{name}-scalar{suffix}").read_bytes()


@pytest.mark.parametrize("n", [1e301, 10**301, 725])
def test_ensemble_n_past_the_chunk_bound_is_input_error(tmp_path, capsys, n):
    # one sample's stacked N x N array must fit a chunk (2^19 entries), so
    # N > 724 exits 1 before anything is drawn or written
    config = {"N": n, "M": [5, 8], "samples": 3, "seed": 1}
    message = "ensemble config N must be at most 724"
    with pytest.raises(signedlap.InputError, match=message):
        ens.config_from_dict(config)
    assert ens.config_from_dict({**config, "N": 724}).n == 724
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    _assert_one_error_line(capsys, _ensemble_argv(tmp_path, cfg_path), message)
    assert list(tmp_path.iterdir()) == [cfg_path]


def test_ensemble_rejects_empty_m(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"N": 10, "M": [], "samples": 5, "seed": 1}))
    out = tmp_path / "x.csv"
    assert cli.main(["ensemble", "--input", str(cfg_path), "--output", str(out)]) == 1
    assert "M must list at least one value" in capsys.readouterr().err
    assert not out.exists() and list(tmp_path.iterdir()) == [cfg_path]


@pytest.mark.parametrize(
    "extra, message",
    [({"modle": "gnp", "p": 0.5}, "unknown keys ['modle']"), ({"p": 0.5}, "p applies only to model gnp")],
)
def test_ensemble_rejects_unknown_config_keys(tmp_path, capsys, extra, message):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"N": 6, "M": [8], "samples": 2, "seed": 1, **extra}))
    out = tmp_path / "x.csv"
    assert cli.main(["ensemble", "--input", str(cfg_path), "--output", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and message in captured.err
    assert list(tmp_path.iterdir()) == [cfg_path]


def test_ensemble_invalid_samples(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"N": 9, "M": [12], "samples": 0, "seed": 1}))
    assert cli.main(["ensemble", "--input", str(cfg_path), "--output", "x.csv"]) == 1


def test_ensemble_rejects_fractional_n(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"N": 10.7, "M": [15], "samples": 5, "seed": 1}))
    out = tmp_path / "x.csv"
    assert cli.main(["ensemble", "--input", str(cfg_path), "--output", str(out)]) == 1
    assert "must be an integer" in capsys.readouterr().err
    assert not out.exists()


def test_ensemble_gnp_redraw_cap_is_input_error(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"N": 10, "M": [1], "samples": 3, "seed": 1, "model": "gnp", "p": 1e-9}))
    out = tmp_path / "x.csv"
    assert cli.main(["ensemble", "--input", str(cfg_path), "--output", str(out)]) == 1
    assert "N=10, p=1e-09 drew fewer than 2 edges" in capsys.readouterr().err
    assert not out.exists()


def test_ensemble_seed_override(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"N": 8, "M": [10], "samples": 15, "seed": 1}))
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    cli.main(["ensemble", "--input", str(cfg_path), "--output", str(a), "--seed", "2"])
    cli.main(["ensemble", "--input", str(cfg_path), "--output", str(b)])
    capsys.readouterr()
    assert a.read_bytes() != b.read_bytes()


def test_ensemble_non_object_config_with_seed(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps([{"N": 8, "M": [10], "samples": 15, "seed": 1}]))
    out = tmp_path / "x.csv"
    assert cli.main(["ensemble", "--input", str(cfg_path), "--output", str(out), "--seed", "3"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "ensemble config must be a JSON object" in captured.err
    assert not out.exists()


def test_internal_fault_exit_code(monkeypatch, capsys, k4_file):
    from signedlap.errors import InternalConsistencyError

    def boom(args):
        raise InternalConsistencyError("synthetic fault")

    monkeypatch.setitem(cli._COMMANDS, "coeffs", boom)
    assert cli.main(["coeffs", "--input", k4_file]) == 2
    assert "internal consistency fault" in capsys.readouterr().err


def test_unknown_subcommand_is_input_error(capsys):
    assert cli.main(["frobnicate"]) == 1


def test_boolean_weight_is_input_error(capsys, tmp_path):
    doc = {"n": 2, "edges": [{"u": 0, "v": 1, "w": True}]}
    assert cli.main(["analyze", "--input", _graph_file(tmp_path, "bool", doc)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "weight must be a rational string or integer, got bool" in captured.err


def test_crossings_reports_the_stability_threshold_exactly(capsys, tmp_path):
    # one red edge: the ray polynomial A_0 - A_1 t is linear, and its root is
    # the threshold omega_1 = A_0 / A_1, here with a 21-digit denominator
    a, b = 10**20 + 1, 10**20 + 3
    edges = [(0, 1, str(a)), (1, 2, str(b)), (0, 2, "-1")]
    doc = {"n": 3, "edges": [{"u": u, "v": v, "w": w} for u, v, w in edges]}
    path = _graph_file(tmp_path, "triangle", doc)
    code, out = _run(capsys, ["stability", "--input", path])
    assert code == 0
    (threshold,) = out["thresholds"]
    assert Fraction(threshold) == Fraction(a * b, a + b)
    code, out = _run(capsys, ["crossings", "--input", path, "--ray", "1"])
    assert code == 0
    (root,) = out["roots"]
    assert root["value"] == threshold and root["interval"] == [threshold, threshold]


def test_disc_requires_two_reds(capsys, chain_file, tmp_path):
    doc = {"n": 3, "edges": [{"u": 0, "v": 1, "w": "1"}, {"u": 1, "v": 2, "w": "-1"}]}
    path = tmp_path / "r1.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["disc", "--input", str(path)]) == 1


def test_disc_rejects_other_red_counts_first(monkeypatch, capsys, tmp_path):
    def forbidden(*args, **kwargs):
        raise AssertionError("disc built the 2^R crossing polynomial")

    monkeypatch.setattr(crossing, "crossing_polynomial", forbidden)
    k4 = kn_with_reds(4, [(0, 1), (0, 2), (1, 3)])
    assert cli.main(["disc", "--input", _graph_file(tmp_path, "r3", _graph_doc(k4))]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "operation requires exactly 2 red edges, got 3" in captured.err


def _fresh(script, *args, flags=()):
    """The JSON that ``script`` prints, run in a fresh interpreter, started
    with ``flags``, on the ``signedlap`` under test: this process has
    imported numpy already."""
    path = os.pathsep.join(filter(None, [str(Path(signedlap.__file__).parents[1]), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, *flags, "-c", script, *args],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return json.loads(proc.stdout)


_PACKAGE_API = """
import json, pkgutil, sys
import signedlap


def loaded():
    return sorted(name for name in sys.modules if name.partition(".")[0] == "signedlap")


imported = loaded()
names = dir(signedlap)
try:
    signedlap.no_such_name
except AttributeError as exc:
    error = str(exc)
else:
    error = None
hasattr_ = hasattr(signedlap, "no_such_name")
untouched = loaded()
signedlap.laplacian
library = loaded()
exports = {}
for name in signedlap.__all__:
    obj = getattr(signedlap, name)
    exports[name] = [obj.__module__, vars(sys.modules[obj.__module__]).get(name) is obj]
star = {}
exec("from signedlap import *", star)
submodules = sorted(m.name for m in pkgutil.iter_modules(signedlap.__path__))
print(json.dumps({
    "imported": imported,
    "dir": names,
    "error": error,
    "hasattr": hasattr_,
    "untouched": untouched,
    "library": library,
    "exports": exports,
    "star": sorted(name for name, obj in star.items() if name != "__builtins__" and obj is getattr(signedlap, name)),
    "submodules": {m: getattr(signedlap, m) is sys.modules["signedlap." + m] for m in submodules},
}))
"""


def test_package_exports_the_ensemble_on_first_use():
    """``import signedlap`` loads ``errors`` alone; every exported name and
    every submodule resolves on first use, to what its module holds, and
    the first exported name loads every exact module."""
    out = _fresh(_PACKAGE_API)
    assert out["imported"] == out["untouched"] == ["signedlap", "signedlap.errors"]
    exact = ("crossing", "discriminants", "errors", "graph", "oracles", "polyroots", "spectral", "stability")
    assert out["library"] == ["signedlap"] + [f"signedlap.{m}" for m in exact]
    assert out["error"] == "module 'signedlap' has no attribute 'no_such_name'"
    assert out["hasattr"] is False
    assert list(out["exports"]) == signedlap.__all__
    assert all(held for _, held in out["exports"].values())
    assert {module for module, _ in out["exports"].values()} == {
        f"signedlap.{m}" for m in ("errors", "graph", "oracles", "spectral", "crossing", "discriminants", "stability", "ensemble")
    }
    assert out["star"] == sorted(signedlap.__all__)
    submodules = sorted(m.stem for m in Path(signedlap.__file__).parent.glob("*.py") if m.stem != "__init__")
    assert out["submodules"] == dict.fromkeys(submodules, True)
    assert set(out["dir"]) >= {*signedlap.__all__, *submodules, "__version__"}
    for name in signedlap.__all__:
        obj = getattr(signedlap, name)
        assert getattr(sys.modules[obj.__module__], name) is obj, name
    assert signedlap.ensemble is ens
    assert all(getattr(signedlap, name) is getattr(ens, name) for name in ("EnsembleConfig", "EnsembleRecord", "classify", "sample_graph"))
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        signedlap.no_such_name


_HINTS = """
import json, sys, typing
import signedlap.crossing
before = "signedlap.polyroots" in sys.modules
roots = typing.get_type_hints(signedlap.crossing.RayCrossings)["roots"]
print(json.dumps([before, roots == tuple[signedlap.polyroots.RootRecord, ...]]))
"""


def test_ray_crossings_hints_resolve_without_a_loaded_root_finder():
    """``crossing`` loads without ``polyroots``, and its public
    ``RayCrossings`` annotation still resolves, importing it."""
    assert _fresh(_HINTS) == [False, True]


# after ``import signedlap``, after ``import signedlap.cli`` and after
# ``cli.main(argv)`` when an argv is given: the ``signedlap`` modules
# loaded, and whether numpy, dataclasses, inspect, argparse and typing
# were loaded and were not before the import; then the run's exit code,
# stdout and stderr
_STARTUP = """
import contextlib, io, json, sys
before = set(sys.modules)


def loaded():
    new = set(sys.modules) - before
    return [sorted(name for name in new if name.partition(".")[0] == "signedlap"), [name in new for name in ("numpy", "dataclasses", "inspect", "argparse", "typing")]]


import signedlap
steps = [loaded()]
import signedlap.cli
steps.append(loaded())
run = None
if len(sys.argv) > 1:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = signedlap.cli.main(json.loads(sys.argv[1]))
    run = [code, out.getvalue(), err.getvalue()]
    steps.append(loaded())
print(json.dumps({"steps": steps, "run": run}))
"""

_CLI_MODULES = ["signedlap", "signedlap.cli", "signedlap.errors", "signedlap.graph"]


def _cli_modules(*names):
    return sorted(_CLI_MODULES + [f"signedlap.{name}" for name in names])


def _start(capsys, argv, files=(), code=0):
    """The ``signedlap`` modules loaded after a fresh ``cli.main(argv)``,
    and which of numpy, dataclasses, inspect, argparse and typing it
    loaded.  Its exit code must be ``code``, and its exit code, stdout,
    stderr and ``files`` what the same run writes in this process."""
    out = _fresh(_STARTUP, json.dumps(argv))
    package, cli_import, (modules, others) = out["steps"]
    assert package == [["signedlap", "signedlap.errors"], [False] * 5], argv
    assert cli_import == [_CLI_MODULES, [False] * 5], argv
    written = [Path(path).read_bytes() for path in files]
    run = out["run"]
    assert run[0] == code and run == _in_process(capsys, argv), argv
    assert written == [Path(path).read_bytes() for path in files], argv
    return modules, others


def _in_process(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return [code, captured.out, captured.err]


def test_exact_commands_start_without_numpy(capsys, k4_file):
    """Each subcommand loads only the modules it runs: ``coeffs`` no root
    finder, no subcommand ``_kernels`` or ``oracles``, none numpy,
    dataclasses, inspect or argparse.  ``import signedlap.cli`` loads no
    typing either; the exact layers' result records are
    ``typing.NamedTuple``s, so a subcommand may."""
    # -S: no site module, which may import typing itself
    for flags in ((), ("-S",)):
        assert _fresh(_STARTUP, flags=flags)["steps"] == [
            [["signedlap", "signedlap.errors"], [False] * 5],
            [_CLI_MODULES, [False] * 5],
        ], flags
    expected = [
        (["analyze", "--input", k4_file], _cli_modules("spectral")),
        (["coeffs", "--input", k4_file], _cli_modules("spectral", "crossing")),
        (["disc", "--input", k4_file], _cli_modules("spectral", "crossing", "discriminants")),
        (["factorize", "--input", k4_file], _cli_modules("spectral", "crossing", "discriminants")),
        (["stability", "--input", k4_file], _cli_modules("spectral", "stability")),
        (["stability", "--input", k4_file, "--t", "3/10,3/10"], _cli_modules("spectral", "stability")),
        (["crossings", "--input", k4_file, "--ray", "1,2"], _cli_modules("spectral", "crossing", "polyroots")),
    ]
    for argv, modules in expected:
        loaded, others = _start(capsys, argv)
        assert (loaded, others[:4]) == (modules, [False] * 4), argv


def test_argparse_loads_only_for_an_argv_that_is_not_canonical(monkeypatch, capsys, k4_file):
    """An ``=`` form, an abbreviation, --help and a usage error reach
    argparse, in a fresh process as in this one, and load nothing else."""
    monkeypatch.setenv("COLUMNS", "80")  # --help wraps to the terminal width
    expected = [
        (["coeffs", f"--input={k4_file}"], 0, _cli_modules("spectral", "crossing")),
        (["disc", "--in", k4_file], 0, _cli_modules("spectral", "crossing", "discriminants")),
        (["--help"], 0, _CLI_MODULES),
        (["crossings", "--help"], 0, _CLI_MODULES),
        (["crossings", "--input", k4_file], 1, _CLI_MODULES),
        (["ensemble", "--input", k4_file, "--output", "x.csv", "--seed", "x"], 1, _CLI_MODULES),
    ]
    for argv, code, modules in expected:
        loaded, others = _start(capsys, argv, code=code)
        assert (loaded, others[:4]) == (modules, [False, False, False, True]), argv


def test_analyze_with_t_and_ensemble_load_numpy(capsys, tmp_path, k4_file):
    argv = ["analyze", "--input", k4_file, "--t", "1,1"]
    modules, others = _start(capsys, argv)
    # numpy brings in inspect, but nothing here loads dataclasses or argparse
    assert modules == _cli_modules("spectral") and others[:2] + others[3:4] == [True, False, False]

    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"N": 9, "M": [9, 20], "samples": 15, "seed": 4}))
    csv = tmp_path / "runs.csv"
    argv = ["ensemble", "--input", str(cfg), "--output", str(csv)]
    modules, others = _start(capsys, argv, [csv, tmp_path / "runs.summary.json"])
    assert modules == _cli_modules("spectral", "crossing", "discriminants", "ensemble")
    assert others[:2] + others[3:4] == [True, False, False]
