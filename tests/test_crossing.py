"""Crossing polynomial coefficients, evaluation, degree bounds, ray roots."""

import random
from fractions import Fraction as F

import pytest

from signedlap import (
    CrossingPolynomial,
    InputError,
    InternalConsistencyError,
    crossing_polynomial,
    degree_support,
    graph_ray_crossings,
    graph_ray_polynomial,
    inertia,
    laplacian,
    ray_crossings,
    ray_polynomial,
    spanning_trees,
    tree_sum,
)
from signedlap import _kernels, crossing
from signedlap.crossing import bits_to_mask, mask_to_bits
from signedlap.graph import component_counts
from signedlap.oracles import red_subset_is_forest
from signedlap.spectral import SpectralIndex, _graph_inertia

from conftest import (
    assert_value,
    k4_disjoint,
    k4_shared,
    minor_path_coefficients,
    random_connected_graph,
    reference_bordered_coefficients,
    reference_inertia,
    swg,
    triangle_chain,
)


def test_k4_shared_coefficients():
    p = crossing_polynomial(k4_shared())
    assert [p.coeffs[m] for m in (0, 1, 2, 3)] == [3, 5, 5, 3]


def test_k4_disjoint_coefficients():
    p = crossing_polynomial(k4_disjoint())
    assert list(p.coeffs) == [4, 4, 4, 4]


def test_all_black_single_coefficient():
    g = swg(3, [(0, 1, 1), (1, 2, 1), (0, 2, 1)])
    p = crossing_polynomial(g)
    assert p.red_count == 0 and p.coeffs == (F(3),)
    assert p.evaluate([]) == 3


def test_evaluate_examples():
    p = crossing_polynomial(k4_shared())
    assert p.evaluate([1, 1]) == 3 - 5 - 5 + 3 == -4
    assert p.evaluate([0, 0]) == 3
    assert crossing_polynomial(k4_disjoint()).evaluate([1, 1]) == 0


def test_evaluate_length_mismatch():
    p = crossing_polynomial(k4_shared())
    with pytest.raises(InputError):
        p.evaluate([1])


def test_central_identity_evaluate_equals_tree_sum():
    rng = random.Random(37)
    for _ in range(80):
        g = random_connected_graph(rng, n_min=3, n_max=7, extra_max=2)
        p = crossing_polynomial(g)
        for _ in range(3):
            t = [F(rng.randint(0, 50), rng.randint(1, 9)) for _ in range(g.red_count)]
            assert p.evaluate(t) == tree_sum(g, t)


def test_coefficients_match_tree_classification_oracle():
    # A_I equals the black-weight product sum over spanning trees whose red
    # set is exactly I
    rng = random.Random(41)
    for _ in range(40):
        g = random_connected_graph(rng, n_min=3, n_max=6, extra_max=2)
        reds = g.red_indices
        p = crossing_polynomial(g)
        sums = {mask: F(0) for mask in range(1 << g.red_count)}
        for t in spanning_trees(g):
            mask = 0
            for k, pos in enumerate(reds):
                if pos in t.edge_indices:
                    mask |= 1 << k
            sums[mask] += t.pi_black
        for mask in sums:
            assert p.coeffs[mask] == sums[mask]
            assert (p.coeffs[mask] > 0) == (sums[mask] > 0)


def _tree_classification(g):
    """A_I as the black-weight product sum over spanning trees whose red set
    is exactly I."""
    reds = g.red_indices
    sums = [F(0)] * (1 << g.red_count)
    for t in spanning_trees(g):
        sums[sum(1 << k for k, pos in enumerate(reds) if pos in t.edge_indices)] += t.pi_black
    return tuple(sums)


def test_bordered_core_matches_minor_path_on_weighted_graphs():
    # random rational weights, N <= 9, R <= 5; covers a disconnected black
    # subgraph (A_empty = 0), cyclic red subsets and R > N - 1
    rng = random.Random(61)
    seen = set()
    for _ in range(150):
        g = random_connected_graph(rng, n_min=3, n_max=9, extra_max=6, red_choices=(1, 2, 3, 4, 5))
        p = crossing_polynomial(g)
        assert p.coeffs == minor_path_coefficients(g)
        if g.n <= 6:
            assert p.coeffs == _tree_classification(g)
        r = g.red_count
        subsets = ([i for i in range(r) if mask >> i & 1] for mask in range(1 << r))
        cyclic = not all(red_subset_is_forest(g, s) for s in subsets)
        seen.update(
            {("a_empty_zero", p.coeffs[0] == 0), ("cyclic", cyclic), ("r_above_n_minus_1", r > g.n - 1)}
        )
    assert seen == {(name, flag) for name in ("a_empty_zero", "cyclic", "r_above_n_minus_1") for flag in (True, False)}
    # degenerate inputs: no black edge (every vertex but 0 dropped), a
    # disconnected full graph, and N = 1
    for g in (swg(4, [(0, 1, -2), (1, 2, -1), (0, 2, F(-1, 3)), (2, 3, -5)]), swg(5, [(0, 1, 1), (1, 2, -1), (3, 4, 2)]), swg(1, [])):
        assert crossing_polynomial(g).coeffs == minor_path_coefficients(g), g


def test_subset_recursion_matches_the_per_mask_minors():
    # seeded rational-weight graphs up to R = 12; the per-mask read-off of
    # the bordered elimination is the oracle.  Disconnected black subgraphs
    # (A_empty = 0, the bridged recursions), among them |Z| >= 3 dropped rows
    # and R >= 10, cyclic red subsets under a positive A_empty (pruned
    # subtrees) and R > N - 1 are each counted
    rng = random.Random(83)
    names = ("a_empty_zero", "dropped_at_least_3", "a_empty_zero_r_at_least_10", "cyclic", "r_above_n_minus_1", "r_at_least_10")
    seen = dict.fromkeys(names, 0)
    wide = dict(n_min=2, n_max=9, extra_max=14, red_choices=(0, 1, 2, 4, 6, 8, 10, 12))
    dense = dict(n_min=5, n_max=8, extra_max=20, red_choices=(3, 4, 5, 6))
    sparse = dict(n_min=6, n_max=10, extra_max=5, red_choices=(6, 8, 10, 11, 12))
    for params in [wide] * 100 + [dense] * 40 + [sparse] * 25:
        g = random_connected_graph(rng, den_max=15, **params)
        p = crossing_polynomial(g)
        assert p.coeffs == reference_bordered_coefficients(g), g
        r = g.red_count
        seen["a_empty_zero"] += p.coeffs[0] == 0
        seen["dropped_at_least_3"] += component_counts(g)[1] - 1 >= 3
        seen["a_empty_zero_r_at_least_10"] += p.coeffs[0] == 0 and r >= 10
        seen["cyclic"] += p.coeffs[0] != 0 and not all(
            red_subset_is_forest(g, [i for i in range(r) if mask >> i & 1]) for mask in range(1 << r)
        )
        seen["r_above_n_minus_1"] += r > g.n - 1
        seen["r_at_least_10"] += r >= 10
    assert min(seen.values()) >= 5, seen


def test_coefficients_take_no_determinant(monkeypatch):
    # every A_I comes from subset recursions, with no per-mask determinant:
    # one recursion when A_empty > 0, |Z| + 1 bridged ones when A_empty = 0
    # (|Z| = N - 1 with no black edge; the full graph disconnected at N = 5)
    rng = random.Random(89)
    graphs = [k4_shared(), k4_disjoint(), triangle_chain(6), swg(1, [])]
    graphs += [swg(4, [(0, 1, -2), (1, 2, -1), (0, 2, F(-1, 3)), (2, 3, -5)]), swg(5, [(0, 1, 1), (1, 2, -1), (3, 4, 2)])]
    connected = 0
    while len(graphs) < 50:
        g = random_connected_graph(rng, n_min=3, n_max=9, extra_max=10, red_choices=(1, 3, 5, 7, 9))
        if component_counts(g)[1] > 1 or connected < 24:
            graphs.append(g)
            connected += component_counts(g)[1] == 1
    assert sum(component_counts(g)[1] - 1 >= 2 for g in graphs) >= 10
    expected = [reference_bordered_coefficients(g) for g in graphs]

    def forbidden(*args):
        raise AssertionError("det_int called")

    monkeypatch.setattr(_kernels, "det_int", forbidden)
    assert [crossing_polynomial(g).coeffs for g in graphs] == expected


def test_triangle_chain_14_coefficients():
    # M = prod (1 - 2 t_i): A_I = 2^|I| over all 16384 subsets
    p = crossing_polynomial(triangle_chain(14))
    assert p.coeffs == tuple(F(2 ** mask.bit_count()) for mask in range(1 << 14))


def test_degree_support_examples():
    g = k4_shared()
    assert degree_support(crossing_polynomial(g), g) == (0, 2)

    path = swg(3, [(0, 1, 1), (1, 2, -1)])
    p = crossing_polynomial(path)
    assert p.coeffs[0] == 0 and p.coeffs[1] == 1  # polynomial is -s*t
    assert degree_support(p, path) == (1, 1)

    black = swg(3, [(0, 1, 1), (1, 2, 1), (0, 2, 1)])
    assert degree_support(crossing_polynomial(black), black) == (0, 0)


def test_degree_support_and_crossing_count_need_a_connected_graph():
    from signedlap import crossing_count

    g = swg(4, [(0, 1, 1), (1, 2, -1)])  # vertex 3 isolated
    with pytest.raises(InputError, match="degree bounds require a connected graph"):
        degree_support(crossing_polynomial(g), g)
    with pytest.raises(InputError, match="crossing count requires a connected graph"):
        crossing_count(g)


def test_degree_support_detects_corruption():
    g = k4_shared()
    p = crossing_polynomial(g)
    bad = CrossingPolynomial(2, (F(0), p.coeffs[1], p.coeffs[2], p.coeffs[3]))
    with pytest.raises(InternalConsistencyError):
        degree_support(bad, g)


def test_sum_rule_k4():
    # sum of coefficients = spanning tree count of the underlying unsigned K4
    p = crossing_polynomial(k4_shared())
    assert sum(p.coeffs) == 16 == 4 ** 2


def test_ray_polynomial_k4():
    p = crossing_polynomial(k4_shared())
    assert ray_polynomial(p, [1, 1]) == [F(3), F(-10), F(3)]
    pd = crossing_polynomial(k4_disjoint())
    assert ray_polynomial(pd, [1, 1]) == [F(4), F(-8), F(4)]
    assert ray_polynomial(p, [F(1, 2), F(2)])[0] == 3  # constant term is A_empty


def test_ray_polynomial_rejects_nonpositive_direction():
    p = crossing_polynomial(k4_shared())
    with pytest.raises(InputError):
        ray_polynomial(p, [1, 0])
    with pytest.raises(InputError):
        ray_polynomial(p, [1, -2])


def test_ray_crossings_k4_shared():
    p = crossing_polynomial(k4_shared())
    roots = ray_crossings(p, [1, 1]).roots
    assert [(r.value, r.multiplicity) for r in roots] == [(F(1, 3), 1), (F(3), 1)]


def test_ray_crossings_k4_disjoint_double():
    p = crossing_polynomial(k4_disjoint())
    roots = ray_crossings(p, [1, 1]).roots
    assert [(r.value, r.multiplicity) for r in roots] == [(F(1), 2)]


def test_ray_crossings_all_black_none():
    g = swg(3, [(0, 1, 1), (1, 2, 1), (0, 2, 1)])
    assert ray_crossings(crossing_polynomial(g), []).roots == ()


def test_crossing_inertia_agreement():
    # crossing at root multiplicity m: n_zero = 1 + m there, n_plus constant
    # between roots and up by m across each root
    rng = random.Random(43)
    checked = 0
    for _ in range(60):
        g = random_connected_graph(rng, n_min=4, n_max=6, red_choices=(1, 2))
        if g.red_count == 0:
            continue
        p = crossing_polynomial(g)
        alpha = [F(rng.randint(1, 5), rng.randint(1, 3)) for _ in range(g.red_count)]
        roots = ray_crossings(p, alpha).roots
        if not all(r.value is not None for r in roots):
            continue
        # probe points strictly between consecutive roots
        locs = [F(0)] + [r.value for r in roots]
        n_plus_prev = None
        for i, root in enumerate(roots):
            at_root = inertia(laplacian(g, [root.value * a for a in alpha]))
            assert at_root.n_zero == 1 + root.multiplicity
            lo = (locs[i] + root.value) / 2
            before = inertia(laplacian(g, [lo * a for a in alpha]))
            assert before.n_zero == 1
            if n_plus_prev is not None:
                assert before.n_plus == n_plus_prev
            n_plus_prev = before.n_plus + root.multiplicity
        if roots:
            hi = roots[-1].value * 2
            after = inertia(laplacian(g, [hi * a for a in alpha]))
            assert after.n_plus == n_plus_prev
            checked += 1
    assert checked >= 10


def test_serialization_roundtrip():
    p = crossing_polynomial(k4_shared())
    d = p.to_json_dict()
    assert d == {"00": "3", "10": "5", "01": "5", "11": "3"}
    assert CrossingPolynomial.from_json_dict(d) == p


@pytest.mark.parametrize(
    "d,msg",
    [
        ({}, "empty coefficient mapping"),
        ({"00": "3", "10": "5", "01": "5"}, "must cover every length-R bitmask"),
        ({"00": "3", "10": "5", "01": "5", "1": "3"}, "must cover every length-R bitmask"),
        ({"00": "3", "10": "5", "01": "5", "12": "3"}, "bad bitmask string '12'"),
    ],
)
def test_coefficient_mappings_that_are_not_complete_are_input_errors(d, msg):
    with pytest.raises(InputError, match=msg):
        CrossingPolynomial.from_json_dict(d)


def test_crossing_polynomial_is_a_validated_immutable_value():
    with pytest.raises(InputError, match="need 4 coefficients for 2 red edges"):
        CrossingPolynomial(2, (F(3), F(5), F(5)))
    p = crossing_polynomial(k4_shared())
    same = CrossingPolynomial(2, (F(3), F(5), F(5), F(3)))
    assert_value(p, same, CrossingPolynomial(2, (F(3), F(5), F(5), F(4))), (2, p.coeffs))
    assert repr(same) == (
        "CrossingPolynomial(red_count=2, coeffs=(Fraction(3, 1), Fraction(5, 1), Fraction(5, 1), Fraction(3, 1)))"
    )
    # a ray's crossings are a named tuple: 3 - 10t + 3t^2 along (1, 1)
    result = graph_ray_crossings(k4_shared(), [F(1), F(1)])
    assert [r.value for r in result.roots] == [F(1, 3), F(3)]
    assert_value(result, ray_crossings(p, [F(1), F(1)]), graph_ray_crossings(k4_shared(), [F(1), F(2)]))


def test_mask_bit_convention():
    # red edge 0 is the leftmost character
    assert mask_to_bits(0b01, 2) == "10"
    assert mask_to_bits(0b10, 2) == "01"
    assert bits_to_mask("10") == 1
    assert bits_to_mask("001") == 4
    for r in range(6):
        p = CrossingPolynomial(r, tuple(F(mask, 3) for mask in range(1 << r)))
        assert list(p.to_json_dict().items()) == [(mask_to_bits(m, r), str(F(m, 3))) for m in range(1 << r)]


def test_red_count_guard():
    g = swg(3, [(0, 1, -1), (1, 2, -1), (0, 2, -1)])
    with pytest.raises(InputError):
        crossing_polynomial(g, max_red=2)


def test_interpolated_ray_polynomial_matches_the_2r_expansion():
    # seeded rational-weight graphs, with A_empty = 0, R > N - 1, R = 0,
    # N <= 2, vertex 0 on a red edge, no red-free vertex but 0 and dense red
    # (R > 2(N - 1), so |T| = N - 1 < 2R) all present; the 2^R expansion of
    # crossing_polynomial is the oracle
    rng = random.Random(71)
    sparse = dict(n_min=1, n_max=8, extra_max=8, red_choices=(0, 1, 2, 3, 5, 7, 9))
    dense = dict(n_min=5, n_max=6, extra_max=30, red_choices=(9, 10, 11))
    seen = dict.fromkeys(
        ("a_empty_zero", "r_above_n_minus_1", "r_zero", "n_at_most_2", "vertex_0_red", "no_red_free", "dense"), 0
    )
    for params in [sparse] * 160 + [dense] * 20:
        g = random_connected_graph(rng, den_max=12, **params)
        alpha = [F(rng.randint(1, 40), rng.randint(1, 9)) for _ in range(g.red_count)]
        p = crossing_polynomial(g)
        q = graph_ray_polynomial(g, alpha)
        assert q == ray_polynomial(p, alpha), (g, alpha)
        assert graph_ray_crossings(g, alpha) == ray_crossings(p, alpha)
        touched = {x for u, v, _ in g.red_edges for x in (u, v)}
        seen["a_empty_zero"] += p.coeffs[0] == 0
        seen["r_above_n_minus_1"] += g.red_count > g.n - 1
        seen["r_zero"] += g.red_count == 0
        seen["n_at_most_2"] += g.n <= 2
        seen["vertex_0_red"] += 0 in touched
        seen["no_red_free"] += g.n > 1 and len(touched - {0}) == g.n - 1
        seen["dense"] += g.red_count > 2 * (g.n - 1)
    assert min(seen.values()) >= 5, seen


def test_interpolated_ray_polynomial_determinants_cover_only_red_touched_vertices(monkeypatch):
    # N = 12, R = 2: the vertices off the red edges are eliminated once, so
    # every determinant has at most |T| = 3 rows (red edges (0,5) and (5,9)),
    # not N - 1 = 11
    edges = [(i, (i + 1) % 12, F(i + 1, 2)) for i in range(12)] + [(0, 6, F(3)), (2, 8, F(5, 3)), (4, 10, F(7))]
    edges += [(0, 5, F(-1)), (5, 9, F(-2))]
    g = swg(12, edges)
    real, dims = crossing._pivots, []

    def counted(upper, prev):
        dims.append(len(upper))
        return real(upper, prev)

    monkeypatch.setattr(crossing, "_pivots", counted)
    q = graph_ray_polynomial(g, [F(1), F(2, 3)])
    assert len(dims) == len(q) == 3 and max(dims) <= 3, dims
    monkeypatch.undo()
    assert q == ray_polynomial(crossing_polynomial(g), [F(1), F(2, 3)])


def test_inertia_and_ray_polynomial_take_no_general_determinant(monkeypatch):
    # both are symmetric eliminations: spectral._pivots alone, with the
    # congruence step for a zero pivot instead of det_int's row swaps
    rng = random.Random(97)
    graphs = [k4_shared(), k4_disjoint(), triangle_chain(4)]
    while len(graphs) < 40:
        graphs.append(random_connected_graph(rng, n_min=3, n_max=8, extra_max=6, red_choices=range(1, 6)))
    cases = []
    for g in graphs:
        alpha = [F(rng.randint(1, 9), rng.randint(1, 5)) for _ in range(g.red_count)]
        roots = [r.value for r in graph_ray_crossings(g, alpha).roots if r.value is not None]
        cases.append((g, alpha, [[x * a for a in alpha] for x in [F(0), F(1), *roots]]))
    expected = [
        (ray_polynomial(crossing_polynomial(g), alpha), [reference_inertia(laplacian(g, t)) for t in ts])
        for g, alpha, ts in cases
    ]
    assert sum(idx.n_zero > 1 for _, inertias in expected for idx in inertias) >= 10

    def forbidden(*args):
        raise AssertionError("det_int called")

    monkeypatch.setattr(_kernels, "det_int", forbidden)
    got = [(graph_ray_polynomial(g, alpha), [inertia(laplacian(g, t)) for t in ts]) for g, alpha, ts in cases]
    assert got == expected


def test_interpolated_ray_polynomial_on_named_graphs():
    assert graph_ray_polynomial(k4_shared(), [1, 1]) == [F(3), F(-10), F(3)]
    assert graph_ray_polynomial(k4_disjoint(), [1, 1]) == [F(4), F(-8), F(4)]
    g = triangle_chain(5)
    assert graph_ray_polynomial(g, [F(1, 2)] * 5) == ray_polynomial(crossing_polynomial(g), [F(1, 2)] * 5)
    assert graph_ray_polynomial(swg(1, []), []) == [F(1)]


def test_interpolated_ray_polynomial_guards():
    with pytest.raises(InputError, match="expected 2 ray components"):
        graph_ray_polynomial(k4_shared(), [1])
    with pytest.raises(InputError, match="strictly positive"):
        graph_ray_polynomial(k4_shared(), [1, 0])
    with pytest.raises(InputError, match="connected graph"):
        graph_ray_polynomial(swg(3, [(0, 1, 1)]), [])



def test_ray_polynomials_are_real_rooted():
    # Q + L_red(alpha) is positive definite on a connected graph, so every
    # root of det(Q - t L_red(alpha)) is real: with the zero root of
    # multiplicity c(G+) - 1 and degree N - c(G-), the positive roots,
    # counted with multiplicity, are N - c(G-) - c(G+) + 1
    rng = random.Random(411)
    disconnected = 0
    for _ in range(200):
        g = random_connected_graph(rng, n_min=3, n_max=9, extra_max=6, red_choices=range(1, 7), num_max=99, den_max=9)
        _, c_plus, c_minus = component_counts(g)
        disconnected += c_plus > 1
        alpha = [F(rng.randint(1, 9), rng.randint(1, 5)) for _ in range(g.red_count)]
        roots = graph_ray_crossings(g, alpha).roots
        assert sum(r.multiplicity for r in roots) == g.n - c_minus - c_plus + 1, g
    assert 50 <= disconnected <= 150


def _ray_index(g, roots, s) -> SpectralIndex:
    """(N - 1 - o - rho(s) - m(s), 1 + m(s), o + rho(s)): o = c(G+) - 1,
    rho(s) the roots of ``roots`` in (0, s) and m(s) the multiplicity of
    s, each counted with multiplicity.  ``s`` is an exact root or lies
    outside every isolating interval."""
    o = component_counts(g)[1] - 1
    below = at = 0
    for r in roots:
        if r.value is None:
            assert r.hi <= s or s <= r.lo
            below += r.multiplicity * (r.hi <= s)
        else:
            below += r.multiplicity * (r.value < s)
            at += r.multiplicity * (r.value == s)
    return SpectralIndex(g.n - 1 - o - below - at, 1 + at, o + below)


def test_index_along_a_ray_follows_its_roots():
    # along s * alpha on a connected graph the eigenvalues only cross zero
    # at the ray's roots, m of them upward at a root of multiplicity m, and
    # the o = c(G+) - 1 of the zero root are crossed already: the index off
    # the touched block equals the one counted from graph_ray_crossings at
    # every exact root, both ends of every isolating interval and s = 1e-6.
    # The chain of three unit triangles along (1, 1, 1) has the root 1/2
    # with multiplicity 3, where the index is (3, 4, 0)
    rng = random.Random(1729)
    cases = [(triangle_chain(3), [F(1)] * 3)]
    while len(cases) < 300:
        g = random_connected_graph(rng, n_min=3, n_max=9, extra_max=6, red_choices=range(1, 7), num_max=99, den_max=9)
        cases.append((g, [F(rng.randint(1, 9), rng.randint(1, 5)) for _ in range(g.red_count)]))
    points = disconnected = irrational = multiple = 0
    for g, alpha in cases:
        roots = graph_ray_crossings(g, alpha).roots
        ends = [x for r in roots if r.value is None for x in (r.lo, r.hi)]
        for s in [F(1, 10**6), *(r.value for r in roots if r.value is not None), *ends]:
            assert _graph_inertia(g, [s * a for a in alpha]) == _ray_index(g, roots, s), (g, alpha, s)
            points += 1
        disconnected += component_counts(g)[1] > 1
        irrational += len(ends) // 2
        multiple += any(r.multiplicity > 1 for r in roots)
    assert _graph_inertia(triangle_chain(3), [F(1, 2)] * 3) == (3, 4, 0)
    assert points > 1000 and disconnected >= 100 and irrational >= 200 and multiple >= 1, (points, disconnected, irrational, multiple)
