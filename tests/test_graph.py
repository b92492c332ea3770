"""Graph construction, parsing, minors, and enumeration oracles."""

import random
import sys
from fractions import Fraction

import pytest

from signedlap import (
    InputError,
    SignedWeightedGraph,
    component_counts,
    is_connected,
    minor,
    parse_graph,
    spanning_trees,
    two_forests,
)
from signedlap.graph import MAX_VERTICES, _rational
from signedlap.oracles import minor_with_info, pairs_form_forest, red_subset_is_forest

from conftest import (
    RATIONAL_STRINGS,
    assert_value,
    fraction_outcome,
    k4_shared,
    kn_with_reds,
    random_connected_graph,
    rational_string_id,
    reference_component_count,
    swg,
    triangle_one_red,
)


def test_parse_basic():
    g = parse_graph('{"n": 2, "edges": [{"u": 0, "v": 1, "w": "2"}]}')
    assert g.n == 2 and g.black_count == 1 and g.red_count == 0
    assert g.edges[0][2] == 2
    # an integer weight is accepted as the rational it is
    assert parse_graph('{"n": 2, "edges": [{"u": 0, "v": 1, "w": -3}]}').edges == ((0, 1, Fraction(-3)),)


def test_parse_red_classification():
    g = parse_graph(
        '{"n": 3, "edges": [{"u": 0, "v": 1, "w": "1"}, {"u": 0, "v": 2, "w": "-1/2"}]}'
    )
    assert g.red_count == 1
    assert g.red_edges[0] == (0, 2, Fraction(-1, 2))
    assert g.red_indices == (1,)


@pytest.mark.parametrize(
    "doc,msg",
    [
        ('{"n": 2, "edges": [{"u": 0, "v": 0, "w": "1"}]}', "self-loop"),
        ('{"n": 2, "edges": [{"u": 0, "v": 1, "w": "0"}]}', "zero weight"),
        ('{"n": 2, "edges": [{"u": 0, "v": 5, "w": "1"}]}', "out of range"),
        (
            '{"n": 3, "edges": [{"u": 0, "v": 1, "w": "1"}, {"u": 1, "v": 0, "w": "2"}]}',
            "duplicate",
        ),
        ("[1, 2]", "must be a JSON object"),
        ('{"edges": []}', 'needs keys "n" and "edges"'),
        ('{"n": 2}', 'needs keys "n" and "edges"'),
        ('{"n": 2, "edges": {}}', '"edges" must be a list'),
        ('{"n": 2, "edges": [[0, 1, "1"]]}', 'each edge needs keys "u", "v", "w"'),
        ('{"n": 2, "edges": [{"u": 0, "v": 1}]}', 'each edge needs keys "u", "v", "w"'),
        ('{"n": 2, "edges": [', "malformed graph JSON"),
        ('{"n": 2, "edges": [{"u": 0, "v": 1, "w": "1/x"}]}', "cannot parse weight '1/x'"),
        ('{"n": 2, "edges": [{"u": 0, "v": 1, "w": "1/0"}]}', "cannot parse weight '1/0'"),
        # bytes are read as strict UTF-8, as a CLI input file is: a byte
        # order mark decodes to U+FEFF, which JSON does not allow, and
        # UTF-16 is not UTF-8 (json.loads alone would accept both)
        pytest.param(b'\xef\xbb\xbf{"n": 1, "edges": []}', "malformed graph JSON: Unexpected UTF-8 BOM", id="utf-8-bom"),
        pytest.param('{"n": 1, "edges": []}'.encode("utf-16"), "graph JSON is not text", id="utf-16"),
        pytest.param('{"n": 1, "edges": []}'.encode("utf-16-le"), "malformed graph JSON", id="utf-16-le"),
    ],
)
def test_parse_rejections(doc, msg):
    with pytest.raises(InputError, match=msg):
        parse_graph(doc)


def test_parse_json_nested_past_the_recursion_limit_is_input_error():
    # the decoder's RecursionError is an input error, as in the CLI
    with pytest.raises(InputError, match="nested too deeply"):
        parse_graph("[" * 100000)


def test_parse_bytes_that_are_not_text_is_input_error():
    with pytest.raises(InputError, match="not text"):
        parse_graph(b"\xff{}")
    assert parse_graph(b'{"n": 1, "edges": []}').n == 1


@pytest.mark.parametrize(
    "doc,msg",
    [
        ('{"n": 2, "edges": [{"u": 0, "v": 1, "w": true}]}', "got bool"),
        ('{"n": 2, "edges": [{"u": 0, "v": 1, "w": false}]}', "got bool"),
        ('{"n": true, "edges": []}', '"n" must be an integer'),
        ('{"n": 2, "edges": [{"u": false, "v": true, "w": "1"}]}', "endpoints must be integers"),
        ('{"n": 2, "edges": [{"u": 0, "v": true, "w": "1"}]}', "endpoints must be integers"),
    ],
)
def test_parse_rejects_booleans(doc, msg):
    # JSON true / false are Python bools, which isinstance(_, int) accepts
    with pytest.raises(InputError, match=msg):
        parse_graph(doc)


def test_graph_rejects_boolean_fields():
    with pytest.raises(InputError, match="vertex count"):
        SignedWeightedGraph(True, ())
    with pytest.raises(InputError, match="endpoints"):
        SignedWeightedGraph(2, ((False, True, Fraction(1)),))
    with pytest.raises(InputError, match="got bool"):
        SignedWeightedGraph(2, ((0, 1, True),))


def test_graph_rejects_a_vertex_count_past_the_bound():
    assert SignedWeightedGraph(MAX_VERTICES, ((0, MAX_VERTICES - 1, Fraction(1)),)).n == MAX_VERTICES
    for n in (MAX_VERTICES + 1, 2**62, 10**30, 10**5000):
        with pytest.raises(InputError, match=f"vertex count must be at most {MAX_VERTICES}"):
            SignedWeightedGraph(n, ())
        with pytest.raises(InputError, match=f"vertex count must be at most {MAX_VERTICES}"):
            parse_graph({"n": n, "edges": []})


def _over_the_digit_limit() -> int:
    """A digit count past Python's int-string conversion limit; the test
    is skipped where the running Python has no limit."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        pytest.skip("this Python converts strings of any length to int")
    return max(limit + 1, 5000)


def test_parse_json_integer_past_the_digit_limit_is_input_error():
    # json.loads raises a plain ValueError for such a number, which the
    # JSON reader maps like its other errors
    digits = _over_the_digit_limit()
    doc = '{"n": 2, "edges": [{"u": 0, "v": 1, "w": %s}]}' % ("1" * digits)
    for text in (doc, doc.encode()):
        with pytest.raises(InputError, match=r"graph JSON holds a number too long to read: .*\(\d+ digits\)"):
            parse_graph(text)


@pytest.mark.parametrize("s", RATIONAL_STRINGS, ids=rational_string_id)
def test_rational_strings_read_as_fraction_reads_them(s):
    expected = fraction_outcome(s)
    doc = {"n": 2, "edges": [{"u": 0, "v": 1, "w": s}]}
    if isinstance(expected, Fraction):
        assert type(_rational(s)) is Fraction and _rational(s) == expected
        assert (_rational(s).numerator, _rational(s).denominator) == (expected.numerator, expected.denominator)
        if expected:
            assert parse_graph(doc).edges[0][2] == expected
        else:
            with pytest.raises(InputError, match="zero weight"):
                parse_graph(doc)
        return
    with pytest.raises(expected[0]) as exc:
        _rational(s)
    assert str(exc.value) == expected[1]
    with pytest.raises(InputError) as exc:
        parse_graph(doc)
    assert str(exc.value) == f"cannot parse weight {s!r} as a rational"
    assert (type(exc.value.__cause__), str(exc.value.__cause__)) == expected


def test_parse_rejects_float_weights():
    with pytest.raises(InputError, match="float"):
        parse_graph({"n": 2, "edges": [{"u": 0, "v": 1, "w": 0.5}]})


def test_wire_format_roundtrip():
    from signedlap import graph_to_dict

    rng = random.Random(3)
    for _ in range(20):
        g = random_connected_graph(rng, n_min=2, n_max=7)
        assert parse_graph(graph_to_dict(g)) == g


def test_red_indices_follow_sequence_order_not_magnitude():
    g = swg(3, [(0, 1, "-5"), (1, 2, "-1/7"), (0, 2, 1)])
    assert g.red_indices == (0, 1)
    assert g.red_edges[0][2] == -5  # red index 0 is the first in the sequence


def test_component_counts():
    g = kn_with_reds(4, [(0, 1), (0, 2)])
    assert component_counts(g) == (1, 1, 2)
    g = kn_with_reds(4, [(0, 1), (2, 3)])
    assert component_counts(g) == (1, 1, 2)
    g = swg(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1), (0, 3, 1)])  # all black
    assert component_counts(g) == (1, 1, 4)


def test_edge_classes_and_component_counts_match_per_edge_references():
    # connected graphs and random edge subsets of them (often disconnected);
    # the classes are per-edge sign tests, the counts three union-find passes
    rng = random.Random(113)
    for _ in range(60):
        g = random_connected_graph(rng, n_min=1, n_max=9, extra_max=8, red_choices=(0, 1, 2, 3, 5))
        h = SignedWeightedGraph(g.n, tuple(e for e in g.edges if rng.random() < 0.6))
        for x in (g, h):
            assert x.red_indices == tuple(i for i, (_, _, w) in enumerate(x.edges) if w < 0)
            assert x.red_edges == tuple(e for e in x.edges if e[2] < 0)
            assert x.black_edges == tuple(e for e in x.edges if e[2] > 0)
            assert (x.red_count, x.black_count) == (len(x.red_edges), len(x.black_edges))
            expect = tuple(
                reference_component_count(x.n, [(u, v) for u, v, w in x.edges if keep(w)])
                for keep in (lambda w: True, lambda w: w > 0, lambda w: w < 0)
            )
            assert component_counts(x) == expect
            assert is_connected(x) == (expect[0] == 1)
            assert component_counts(x) is component_counts(x)  # computed once per graph
    assert repr(swg(2, [(0, 1, -1)])) == "SignedWeightedGraph(n=2, edges=((0, 1, Fraction(-1, 1)),))"
    assert swg(2, [(0, 1, -1)]) == swg(2, [(1, 0, -1)])


def test_graph_is_an_immutable_value():
    # equal and hashed by n and the normalized edges; the sign classes and
    # the cached component counts cannot be reassigned either
    g = swg(3, [(0, 1, 1), (1, 2, -1)])
    assert component_counts(g) == (1, 2, 2)
    assert_value(g, swg(3, [(1, 0, 1), (2, 1, -1)]), swg(4, [(0, 1, 1), (1, 2, -1)]), swg(3, [(0, 1, 1), (1, 2, -2)]), (3, g.edges))
    for name in ("red_indices", "red_edges", "black_edges", "_counts"):
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(g, name, ())
    assert g.red_indices == (1,) and component_counts(g) == (1, 2, 2)
    with pytest.raises(InputError, match="vertex count must be a positive integer"):
        SignedWeightedGraph(0, ())
    # the records of a minor and of the enumeration oracles are named tuples;
    # a minor's red_map is a dict, so its record is not hashable
    info = minor_with_info(k4_shared(), {0}, set())
    assert info == minor_with_info(k4_shared(), {0}, set()) != minor_with_info(k4_shared(), set(), {0})
    with pytest.raises(AttributeError):
        info.graph = g
    trees = spanning_trees(g)
    assert_value(trees[0], spanning_trees(g)[0], *trees[1:])
    forests = two_forests(k4_shared(), (0, 1), (0, 2))
    assert_value(forests[0], two_forests(k4_shared(), (0, 1), (0, 2))[0], *forests[1:])


def test_red_subset_is_forest_counts_components():
    # a subset of red edges is a forest iff each edge lowers the component
    # count of the vertex set by one
    g = kn_with_reds(5, [(0, 1), (1, 2), (0, 2), (3, 4), (2, 3)])
    reds = [(u, v) for u, v, _ in g.red_edges]
    for mask in range(1 << len(reds)):
        subset = [i for i in range(len(reds)) if mask >> i & 1]
        forest = reference_component_count(g.n, [reds[i] for i in subset]) == g.n - len(subset)
        assert red_subset_is_forest(g, subset) == forest
        assert red_subset_is_forest(g, iter(subset)) == forest
    assert not red_subset_is_forest(g, [0, 1, 2])
    assert red_subset_is_forest(g, [])
    # a repeat names the same edge, as in minor_with_info: [0, 0] read as a 2-cycle
    assert red_subset_is_forest(g, [0, 0]) and red_subset_is_forest(g, [3, 4, 3])
    assert red_subset_is_forest(k4_shared(), [0, 0])


@pytest.mark.parametrize("indices", [[-1], [True], [5]])
def test_red_subset_is_forest_rejects_red_indices_out_of_range(indices):
    # -1 would read the last red edge, True red 1, and 5 raise IndexError
    with pytest.raises(InputError, match=r"red index .* out of range 0\.\.1"):
        red_subset_is_forest(k4_shared(), indices)


def test_minor_contract_merges_parallel_weights():
    g = swg(4, [(0, 1, -1), (0, 2, 1), (0, 3, 1), (1, 2, 1), (1, 3, 1), (2, 3, 1)])
    m = minor(g, {0}, set())
    assert m.n == 3
    assert m.edges == ((0, 1, Fraction(2)), (0, 2, Fraction(2)), (1, 2, Fraction(1)))


def test_minor_identity_and_delete():
    g = k4_shared()
    assert minor(g, set(), set()).canonical_key() == g.canonical_key()
    tri = triangle_one_red()
    path = minor(tri, set(), {0})
    assert path.n == 3 and len(path.edges) == 2 and path.red_count == 0


def test_minor_rejects_overlap():
    g = k4_shared()
    with pytest.raises(InputError, match="overlap"):
        minor(g, {0}, {0})


@pytest.mark.parametrize("contract,delete", [({2}, set()), (set(), {-1}), ({0}, {"1"})])
def test_minor_rejects_red_indices_out_of_range(contract, delete):
    with pytest.raises(InputError, match=r"out of range 0\.\.1"):
        minor(k4_shared(), contract, delete)


@pytest.mark.parametrize("route", [minor, minor_with_info])
def test_minor_rejects_a_bool_red_index(route):
    # True is an int to isinstance, but not red index 1
    with pytest.raises(InputError, match=r"red index True out of range 0\.\.1"):
        route(k4_shared(), {True}, set())


def test_minor_zero_merge_drops_edge():
    # contracting the red edge (0,1) makes (0,2) and (1,2) parallel: 1 + (-1) = 0
    g = swg(3, [(0, 1, -1), (0, 2, 1), (1, 2, -1)])
    m = minor(g, {0}, set())
    assert m.n == 2 and m.edges == ()


def test_minor_contraction_order_independence():
    # minor(g, A|B, C) = minor(minor(g, A, C), B) up to the canonical
    # renumbering, for disjoint A, B, C
    rng = random.Random(42)
    checked = 0
    for _ in range(120):
        g = random_connected_graph(rng, n_min=4, n_max=7, red_choices=(2, 3))
        r = g.red_count
        if r < 2:
            continue
        idx = rng.sample(range(r), min(r, 3))
        a, b = {idx[0]}, {idx[1]}
        c = {idx[2]} if len(idx) > 2 and rng.random() < 0.5 else set()
        combined = minor(g, a | b, c)
        # contract a (deleting c) first; red indices shift, so track the map
        info = minor_with_info(g, a, c)
        mapped = {info.red_map[i] for i in b}
        if None in mapped:
            continue  # first contraction already collapsed the second edge
        staged = minor(info.graph, mapped, set())
        assert staged.canonical_key() == combined.canonical_key()
        checked += 1
    assert checked >= 60


def test_spanning_trees_triangle():
    g = swg(3, [(0, 1, 1), (1, 2, 1), (0, 2, 1)])
    trees = spanning_trees(g)
    assert len(trees) == 3
    assert all(t.pi == 1 for t in trees)
    assert all(len(t.edge_indices) == 2 for t in trees)


def test_spanning_trees_signed_triangle():
    g = triangle_one_red()  # weights 1, 1, -1
    pis = sorted(t.pi for t in spanning_trees(g))
    assert pis == [-1, -1, 1]
    assert sum(pis) == -1


def test_spanning_tree_of_tree_is_itself():
    g = swg(4, [(0, 1, 1), (1, 2, 1), (1, 3, 1)])
    trees = spanning_trees(g)
    assert len(trees) == 1
    assert trees[0].edge_indices == (0, 1, 2)


def test_spanning_trees_of_one_vertex_is_the_empty_tree():
    (tree,) = spanning_trees(swg(1, []))
    assert tree == ((), Fraction(1), Fraction(1))


def test_spanning_trees_disconnected_empty():
    g = swg(4, [(0, 1, 1), (2, 3, 1)])
    assert spanning_trees(g) == []


def test_spanning_trees_match_unit_weight_mtt():
    # classical matrix-tree cross-check: tree count = any principal minor of
    # the positive Laplacian, exact arithmetic
    from signedlap.spectral import laplacian, det_rational

    rng = random.Random(7)
    for _ in range(40):
        g = random_connected_graph(rng, n_min=3, n_max=8, extra_max=3, unit_weights=True)
        all_black = swg(g.n, [(u, v, 1) for u, v, _ in g.edges])
        count = len(spanning_trees(all_black))
        q = [[-x for x in row] for row in laplacian(all_black).rows]
        i = rng.randrange(all_black.n)
        sub = [[row[j] for j in range(all_black.n) if j != i] for k, row in enumerate(q) if k != i]
        assert count == det_rational(sub)


def test_two_forests_four_cycle():
    # 4-cycle, U = (0,1), W = (2,3): of the six 2-edge forests only
    # {(1,2),(0,3)} splits both pairs, giving {0,3} | {1,2}; 0 pairs with 3
    # and 1 with 2, a swap under these enumeration orders, so epsilon = -1
    g = swg(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1), (0, 3, 1)])
    forests = two_forests(g, (0, 1), (2, 3))
    assert len(forests) == 1
    f = forests[0]
    assert len(f.edge_indices) == g.n - 2
    assert f.parts == (frozenset({0, 3}), frozenset({1, 2}))
    assert f.epsilon == -1


def test_two_forests_path_overlapping_pairs():
    # path 0-1-2, U = W = (0,1).  {(0,1)} puts both U vertices in one tree
    # (rejected); {(1,2)} splits {0} | {1,2} with identity matching.
    g = swg(3, [(0, 1, 1), (1, 2, 1)])
    forests = two_forests(g, (0, 1), (0, 1))
    assert len(forests) == 1
    assert forests[0].epsilon == 1
    assert forests[0].parts == (frozenset({0}), frozenset({1, 2}))


def test_two_forests_unsatisfiable():
    # triangle {0,1,2} with pendant 3: every connected bipartition either keeps
    # W = (1,2) together or keeps U = (0,3) together, so nothing qualifies.
    g = swg(4, [(0, 1, 1), (1, 2, 1), (0, 2, 1), (0, 3, 1)])
    assert two_forests(g, (0, 3), (1, 2)) == []


@pytest.mark.parametrize(
    "u_pair,w_pair", [((0, 0), (1, 2)), ((0, 1), (2, 2)), ((0,), (1, 2)), ((0, 1, 1), (2, 3)), ((0, 1), (2, 3, 0))]
)
def test_two_forests_pairs_need_two_distinct_vertices(u_pair, w_pair):
    # (0, 1, 1) passed a check of two distinct entries and raised a bare
    # ValueError at the unpacking
    with pytest.raises(InputError, match="two distinct vertices"):
        two_forests(k4_shared(), u_pair, w_pair)


@pytest.mark.parametrize("u_pair", [(-1, 2), (True, 2), (0, 4), (0, "1")])
def test_two_forests_reject_terminals_out_of_range(u_pair):
    with pytest.raises(InputError, match=r"vertex .* out of range 0\.\.3"):
        two_forests(k4_shared(), u_pair, (0, 1))


@pytest.mark.parametrize(
    "route",
    [
        lambda g: minor(g, 0, ()),
        lambda g: minor_with_info(g, (), 0),
        lambda g: red_subset_is_forest(g, 0),
        lambda g: two_forests(g, 0, (2, 3)),
        lambda g: two_forests(g, (0, 1), 2),
    ],
    ids=["minor", "minor_with_info", "red_subset_is_forest", "two_forests_u", "two_forests_w"],
)
def test_oracle_index_lists_that_are_not_iterable_are_input_errors(route):
    # each raised a bare TypeError
    with pytest.raises(InputError, match=r"(red index|vertex) list must be iterable, got [02]$"):
        route(k4_shared())


@pytest.mark.parametrize(
    "n,pairs,msg",
    [
        (3, [(0, 5)], r"vertex 5 out of range 0\.\.2"),
        (3, [(0, 1), (True, 2)], r"vertex True out of range 0\.\.2"),
        (3, [(0, 1), 2], "vertex list must be iterable, got 2"),
        (3, [(0, 1, 2)], "each pair must hold two vertices"),
        (3, [(0,)], "each pair must hold two vertices"),
        (3, 0, "pair list must be iterable, got 0"),
        (True, [], "vertex count must be a positive integer, got True"),
        (0, [], "vertex count must be a positive integer, got 0"),
        (-2, [], "vertex count must be a positive integer, got -2"),
        (3.0, [], r"vertex count must be a positive integer, got 3\.0"),
    ],
    ids=[
        "out_of_range",
        "bool",
        "not_iterable",
        "three_vertices",
        "one_vertex",
        "pairs_not_iterable",
        "n_bool",
        "n_zero",
        "n_negative",
        "n_float",
    ],
)
def test_pairs_form_forest_reads_each_pair_as_two_vertices(n, pairs, msg):
    # (0, 5) raised a bare IndexError and a pair list of 0 a bare TypeError;
    # n = True, 0 and -2 answered True
    with pytest.raises(InputError, match=msg):
        pairs_form_forest(n, pairs)


def test_pairs_form_forest_examples():
    assert pairs_form_forest(3, [(0, 1), (1, 2)]) and pairs_form_forest(3, [])
    assert not pairs_form_forest(3, [(0, 1), (1, 0)])
    assert not pairs_form_forest(3, [(0, 1), (1, 2), (0, 2)])
    assert not pairs_form_forest(3, [(1, 1)])  # a loop is a cycle


def test_two_forests_need_n_minus_2_edges():
    # N = 5 and one edge: no 2-forest has the N - 2 = 3 edges it needs
    assert two_forests(swg(5, [(0, 1, 1)]), (0, 1), (2, 3)) == []


def test_two_forests_over_the_subset_cap_raise_before_enumerating(monkeypatch):
    from signedlap import oracles

    def enumerate_nothing(*args):
        raise AssertionError("the forests were enumerated")

    monkeypatch.setattr(oracles, "_spanning_edge_sets", enumerate_nothing)
    with pytest.raises(InputError, match=r"too large: C\(66,10\) subsets"):
        two_forests(kn_with_reds(12, []), (0, 1), (2, 3))


def test_two_forests_epsilon_flips_with_enumeration_order():
    rng = random.Random(21)
    for _ in range(30):
        g = random_connected_graph(rng, n_min=4, n_max=6, unit_weights=True)
        verts = rng.sample(range(g.n), 4)
        u, w = (verts[0], verts[1]), (verts[2], verts[3])
        forward = {f.edge_indices: f.epsilon for f in two_forests(g, u, w)}
        flipped = {f.edge_indices: f.epsilon for f in two_forests(g, (u[1], u[0]), w)}
        assert set(forward) == set(flipped)
        for key, eps in forward.items():
            assert flipped[key] == -eps


def test_forest_edge_counts_exhaustive():
    rng = random.Random(5)
    for _ in range(20):
        g = random_connected_graph(rng, n_min=3, n_max=6, unit_weights=True)
        for t in spanning_trees(g):
            assert len(t.edge_indices) == g.n - 1
        verts = rng.sample(range(g.n), min(4, g.n))
        if len(verts) >= 4:
            for f in two_forests(g, (verts[0], verts[1]), (verts[2], verts[3])):
                assert len(f.edge_indices) == g.n - 2


def test_oracle_size_guard():
    g = swg(13, [(i, i + 1, 1) for i in range(12)])
    with pytest.raises(InputError, match="oracle"):
        spanning_trees(g)
