"""Laplacian construction, exact inertia, eigenvalues, tree sum, limits."""

import itertools
import math
import random
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from signedlap import (
    CrossingPolynomial,
    InputError,
    axis_thresholds,
    certify,
    component_counts,
    SpectralIndex,
    crossing_count,
    crossing_polynomial,
    dodgson_identity_holds,
    eigenvalues,
    graph_ray_crossings,
    index_limits,
    inertia,
    laplacian,
    laplacian_minor,
    ray_crossings,
    spanning_trees,
    tree_sum,
)
from signedlap import _kernels
from signedlap import ensemble as ens
from signedlap.discriminants import _disc_minors, graph_factorization
from signedlap.graph import _UnionFind
from signedlap.spectral import (
    LaplacianMatrix,
    _graph_eigenvalues,
    _graph_inertia,
    _pivots,
    _schur,
    _transfer_current,
    det_rational,
)

from conftest import (
    k4_disjoint,
    k4_shared,
    kn_with_reds,
    random_connected_graph,
    random_fraction,
    reference_det,
    reference_inertia,
    swg,
    triangle_one_red,
)


def test_laplacian_single_black_edge():
    g = swg(2, [(0, 1, 2)])
    lap = laplacian(g)
    assert lap.rows == ((Fraction(-2), Fraction(2)), (Fraction(2), Fraction(-2)))
    assert lap == laplacian(g) != laplacian(swg(2, [(0, 1, 3)]))
    assert repr(laplacian(k4_shared())) == "LaplacianMatrix(n=4)"


def test_laplacian_triangle_unit():
    g = swg(3, [(0, 1, 1), (1, 2, 1), (0, 2, 1)])
    lap = laplacian(g)
    for i in range(3):
        assert lap.rows[i][i] == -2
        for j in range(3):
            if i != j:
                assert lap.rows[i][j] == 1


def test_laplacian_red_substitution_keeps_zero_row_sums():
    g = triangle_one_red()
    lap = laplacian(g, [Fraction(1, 2)])
    assert lap.rows[1][2] == Fraction(-1, 2)
    for row in lap.rows:
        assert sum(row) == 0


def test_laplacian_t_validation():
    # every route that takes red magnitudes checks them by one rule: one per
    # red edge, then each >= 0.  _graph_inertia took them unchecked
    g = triangle_one_red()
    for f in (laplacian, tree_sum, _graph_inertia, certify):
        with pytest.raises(InputError, match="expected 1 red magnitudes, got 2"):
            f(g, [1, 2])
        with pytest.raises(InputError, match=r"red magnitude t\[0\] = -1/2 is negative"):
            f(g, [Fraction(-1, 2)])


_RATIONAL_VECTOR_ROUTES = (
    "laplacian", "tree_sum", "certify", "_graph_inertia", "graph_ray_crossings", "ray_crossings", "evaluate", "from_json_dict"
)


@pytest.mark.parametrize("route", _RATIONAL_VECTOR_ROUTES)
@pytest.mark.parametrize("bad", ["abc", None, math.inf, math.nan, "1/0", True, 0.5])
def test_rational_vectors_that_are_not_finite_rationals_are_input_errors(bad, route):
    # magnitudes, rays and coefficients go through graph._rationals, as the
    # matrix entries do: a bare ValueError, TypeError, OverflowError or
    # ZeroDivisionError escaped each of these.  They are read by _exact, so
    # a bool or a float is not taken for the rational it equals (True would
    # be 1, 0.1 would be 3602879701896397/36028797018963968).  A matrix
    # entry is read by spectral._entry, which reads a float exactly and
    # rejects a bool (test_a_bool_is_not_a_matrix_entry)
    g = k4_shared()
    p = crossing_polynomial(g)
    calls = {
        "laplacian": lambda: laplacian(g, [1, bad]),
        "tree_sum": lambda: tree_sum(g, [1, bad]),
        "certify": lambda: certify(g, [1, bad]),
        "_graph_inertia": lambda: _graph_inertia(g, [1, bad]),
        "graph_ray_crossings": lambda: graph_ray_crossings(g, [1, bad]),
        "ray_crossings": lambda: ray_crossings(p, [1, bad]),
        "evaluate": lambda: p.evaluate([1, bad]),
        "from_json_dict": lambda: CrossingPolynomial.from_json_dict({"00": "3", "10": bad, "01": "5", "11": "3"}),
    }
    with pytest.raises(InputError, match="must be finite rationals"):
        calls[route]()


@pytest.mark.parametrize(
    "route", ["inertia", "eigenvalues", "det_rational", "laplacian_minor", "dodgson_identity_holds", "LaplacianMatrix"]
)
def test_a_bool_is_not_a_matrix_entry(route):
    # each took True as 1: inertia([[True]]) was (0, 0, 1)
    m = [[True, 1], [1, 2]]
    calls = {
        "inertia": lambda: inertia(m),
        "eigenvalues": lambda: eigenvalues(m),
        "det_rational": lambda: det_rational(m),
        "laplacian_minor": lambda: laplacian_minor(m, [0], [0]),
        "dodgson_identity_holds": lambda: dodgson_identity_holds(m, 0, 1, 0, 1),
        "LaplacianMatrix": lambda: LaplacianMatrix(m),
    }
    with pytest.raises(InputError, match="matrix entries must be finite rationals: True is a bool"):
        calls[route]()
    # a float entry is the rational it equals exactly
    assert det_rational([[0.5, 1], [1, 2]]) == 0 and inertia([[0.5]]) == SpectralIndex(0, 0, 1)


def test_inertia_diagonal():
    m = [[-1, 0, 0], [0, 0, 0], [0, 0, 2]]
    assert inertia(m) == SpectralIndex(1, 1, 1)


def test_inertia_triangle():
    g = swg(3, [(0, 1, 1), (1, 2, 1), (0, 2, 1)])
    assert inertia(laplacian(g)) == SpectralIndex(2, 1, 0)


def test_inertia_zero_diagonal_block():
    # [[0,b],[b,0]] has eigenvalues +-b
    assert inertia([[0, 3], [3, 0]]) == SpectralIndex(1, 0, 1)
    assert inertia([[0, 1, 0], [1, 0, 0], [0, 0, 0]]) == SpectralIndex(1, 1, 1)
    # one diagonal pivot leaves [[0, 1], [1, 0]]: the congruence is taken in
    # the middle of the elimination
    assert inertia([[1, 1, 0], [1, 1, 1], [0, 1, 0]]) == SpectralIndex(1, 0, 2)


def test_inertia_k4_shared_large_t():
    g = k4_shared()
    # t = (3,3) sits exactly on the upper diagonal crossing of 3t^2-10t+3
    assert inertia(laplacian(g, [3, 3])) == SpectralIndex(1, 2, 1)
    # beyond both crossings the large-t limit index holds
    assert inertia(laplacian(g, [4, 4])) == SpectralIndex(1, 1, 2)


def test_inertia_rejects_asymmetric():
    with pytest.raises(InputError):
        inertia([[0, 1], [2, 0]])


def test_inertia_matches_float_signs():
    rng = random.Random(11)
    for _ in range(50):
        g = random_connected_graph(rng, n_min=3, n_max=7)
        t = [Fraction(rng.randint(0, 40), rng.randint(1, 8)) for _ in range(g.red_count)]
        lap = laplacian(g, t)
        exact = inertia(lap)
        ev = eigenvalues(lap)
        scale = max(1.0, float(np.abs(ev).max()))
        tol = 1e-6 * scale
        if np.all(np.abs(ev) > tol) or exact.n_zero == np.sum(np.abs(ev) <= tol):
            n_minus = int(np.sum(ev < -tol))
            n_plus = int(np.sum(ev > tol))
            n_zero = len(ev) - n_minus - n_plus
            assert (n_minus, n_zero, n_plus) == tuple(exact)


def test_inertia_fuzz_general_symmetric():
    # arbitrary symmetric rational matrices, not just Laplacians; compare to
    # float eigenvalue signs whenever they are safely separated from zero
    rng = random.Random(97)
    for _ in range(150):
        n = rng.randint(1, 7)
        a = [[Fraction(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                x = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                if rng.random() < 0.35:
                    x = Fraction(0)  # plant zero diagonals and blocks
                a[i][j] = a[j][i] = x
        exact = inertia(a)
        assert exact.n_minus + exact.n_zero + exact.n_plus == n
        ev = eigenvalues([[float(x) for x in row] for row in a])
        scale = max(1.0, float(np.abs(ev).max()))
        tol = 1e-9 * scale
        n_minus = int(np.sum(ev < -tol))
        n_plus = int(np.sum(ev > tol))
        n_zero = n - n_minus - n_plus
        if np.all((np.abs(ev) > 1e-6 * scale) | (np.abs(ev) <= tol)):
            assert (n_minus, n_zero, n_plus) == tuple(exact)


def _random_symmetric(rng: random.Random, n: int) -> list[list[Fraction]]:
    """Dense, all-zero-diagonal or low-rank symmetric rational matrix."""
    kind = rng.choice(("dense", "zero_diagonal", "low_rank"))
    if kind == "low_rank":
        vecs = [
            (rng.choice((-1, 1)), [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)])
            for _ in range(rng.randint(0, n))
        ]
        return [[sum(s * v[i] * v[j] for s, v in vecs) for j in range(n)] for i in range(n)]
    a = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            if (i != j or kind == "dense") and rng.random() < 0.6:
                a[i][j] = a[j][i] = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
    return a


def test_inertia_matches_reference_on_random_symmetric_matrices():
    rng = random.Random(41)
    for _ in range(1500):
        a = _random_symmetric(rng, rng.randint(0, 8))
        assert inertia(a) == reference_inertia(a), a


def _int_symmetric(rng: random.Random, n: int) -> list[list[int]]:
    a = _random_symmetric(rng, n)
    scale = math.lcm(*(x.denominator for row in a for x in row))
    return [[int(x * scale) for x in row] for row in a]


def _upper(a):
    return [list(row[i:]) for i, row in enumerate(a)]


def _determinant(pivots, nullity, prev=1):
    return 0 if nullity else pivots[-1] if pivots else prev


def test_pivots_match_cofactor_determinant_and_reference_inertia():
    # the last pivot is the determinant (0 once a zero row is dropped), and
    # the signs of consecutive pivots are the inertia (Jacobi)
    rng = random.Random(47)
    seen = {"congruence": 0, "dropped": 0, "nonsingular": 0}
    for _ in range(600):
        a = _int_symmetric(rng, rng.randint(0, 6))
        pivots, nullity = _pivots(_upper(a))
        assert all(pivots) and len(pivots) + nullity == len(a)
        assert _determinant(pivots, nullity) == reference_det(a), a
        n_plus = sum((p > 0) == (q > 0) for p, q in zip(pivots, [1] + pivots))
        assert SpectralIndex(len(pivots) - n_plus, nullity, n_plus) == reference_inertia(a), a
        seen["congruence"] += bool(a) and not a[0][0] and any(a[0])
        seen["dropped"] += nullity > 0
        seen["nonsingular"] += nullity == 0
    assert min(seen.values()) >= 50, seen


def test_pivots_congruence_takes_minus_one_when_plus_one_leaves_a_zero_pivot():
    # a_00 = 0 and 2 a_01 + a_11 = 0, so s = -1: the pivot is
    # -2 a_01 + a_11 = -4, then (-4 * -2 - 3 * 3) / 1 = -1 = det
    assert _pivots([[0, 1], [-2]]) == ([-4, -1], 0)
    assert inertia([[0, 1], [1, -2]]) == reference_inertia([[0, 1], [1, -2]]) == SpectralIndex(1, 0, 1)
    assert _pivots([[0, 1], [2]]) == ([4, -1], 0)  # s = +1
    assert _pivots([[0, 0], [0]]) == ([], 2)


def test_pivots_resumed_after_schur_steps():
    # _pivots(rest, prev) of what ``steps`` _schur steps leave finishes the
    # same elimination: its last pivot is the whole determinant, with the
    # congruence step and dropped rows in the resumed part
    rng = random.Random(113)
    seen = {"resumed": 0, "congruence_after": 0, "singular": 0}
    for _ in range(1500):
        a = _int_symmetric(rng, rng.randint(1, 6))
        upper, prev, steps = _upper(a), 1, 0
        for _ in range(rng.randint(0, len(a))):
            if not upper[0][0]:
                break
            upper, prev, steps = _schur(upper, prev), upper[0][0], steps + 1
        assert len(upper) == len(a) - steps
        whole = reference_det(a)
        assert _determinant(*_pivots(upper, prev), prev) == whole, (a, steps)
        seen["resumed"] += steps > 0
        seen["congruence_after"] += steps > 0 and bool(upper) and not upper[0][0] and any(upper[0])
        seen["singular"] += whole == 0
    assert min(seen.values()) >= 20, seen


def test_inertia_matches_reference_at_certificate_boundaries():
    # the axis thresholds t = omega_i e_i and points with ||t||_1 = min omega
    # are singular Laplacians (n_zero = 2 on an axis), next to random t
    rng = random.Random(43)
    checked = 0
    for _ in range(120):
        g = random_connected_graph(rng, n_min=2, n_max=9, extra_max=5, red_choices=(1, 2, 3))
        if g.red_count == 0:
            continue
        points = [[Fraction(rng.randint(0, 40), rng.randint(1, 8)) for _ in range(g.red_count)]]
        if component_counts(g)[1] == 1:
            omegas = axis_thresholds(g)
            for i, w in enumerate(omegas):
                if w is not None:
                    points.append([w if j == i else Fraction(0) for j in range(g.red_count)])
            finite = [w for w in omegas if w is not None]
            if finite:
                cuts = sorted(Fraction(rng.randint(0, 10), 10) for _ in range(g.red_count - 1))
                shares = [b - a for a, b in zip([Fraction(0)] + cuts, cuts + [Fraction(1)])]
                points.append([min(finite) * s for s in shares])
        for t in points:
            lap = laplacian(g, t)
            assert inertia(lap) == reference_inertia(lap), (g, t)
            checked += 1
    assert checked >= 250


def test_eigenvalues_outside_float_range_are_input_errors():
    with pytest.raises(InputError, match="float range"):
        eigenvalues(laplacian(swg(2, [(0, 1, 10**400)])))
    with pytest.raises(InputError, match="float range"):
        eigenvalues([[10**308, 10**308], [10**308, 10**308]])  # entries fit, 2e308 does not
    assert inertia(laplacian(swg(2, [(0, 1, 10**400)]))) == SpectralIndex(1, 1, 0)


def test_eigenvalues_of_entries_below_float_range_are_input_errors():
    # 10^-400 would become 0.0: an input error, not the eigenvalues of the
    # zero matrix; inertia stays exact
    tiny = laplacian(swg(2, [(0, 1, Fraction(1, 10**400))]))
    with pytest.raises(InputError, match="float range"):
        eigenvalues(tiny)
    with pytest.raises(InputError, match="float range"):
        eigenvalues([[Fraction(1, 10**400), 0], [0, 1]])
    assert inertia(tiny) == SpectralIndex(1, 1, 0)
    assert list(eigenvalues([[5e-324, 0], [0, 1]])) == [5e-324, 1.0]  # subnormal, not zero


def test_eigenvalues_examples():
    assert np.allclose(eigenvalues([[-2, 2], [2, -2]]), [-4.0, 0.0])
    g = swg(3, [(0, 1, 1), (1, 2, 1), (0, 2, 1)])
    assert np.allclose(eigenvalues(laplacian(g)), [-3.0, -3.0, 0.0])
    assert np.allclose(eigenvalues(np.zeros((3, 3))), 0.0)
    # the 0 x 0 matrix has no eigenvalues, as inertia and det_rational read it
    # (a bare numpy LinAlgError before)
    assert eigenvalues([]).shape == (0,)
    assert inertia([]) == SpectralIndex(0, 0, 0) and det_rational([]) == 1


def test_eigenvalue_tolerance_contract():
    # 2x2 closed form: eigenvalues of [[-a,a],[a,-a]] are 0 and -2a
    rng = random.Random(3)
    for _ in range(20):
        a = rng.uniform(0.1, 100.0)
        ev = eigenvalues([[-a, a], [a, -a]])
        norm = max(1.0, 2 * a)
        assert abs(ev[0] - (-2 * a)) <= 1e-9 * norm
        assert abs(ev[1]) <= 1e-9 * norm


def test_tree_sum_triangle():
    g = swg(3, [(0, 1, 1), (1, 2, 1), (0, 2, 1)])
    assert tree_sum(g) == 3


def test_tree_sum_one_red_linear():
    g = triangle_one_red()
    for t in (Fraction(0), Fraction(1, 2), Fraction(7, 3)):
        assert tree_sum(g, [t]) == 1 - 2 * t


def test_tree_sum_disconnected_zero():
    g = swg(4, [(0, 1, 1), (2, 3, 1)])
    assert tree_sum(g) == 0


def test_tree_sum_equals_oracle_sum():
    rng = random.Random(13)
    for _ in range(60):
        g = random_connected_graph(rng, n_min=3, n_max=7, extra_max=2)
        assert tree_sum(g) == sum(t.pi for t in spanning_trees(g))


def test_tree_sum_nonzero_iff_simple_kernel():
    rng = random.Random(17)
    for _ in range(50):
        g = random_connected_graph(rng, n_min=3, n_max=6)
        t = [Fraction(rng.randint(0, 30), rng.randint(1, 6)) for _ in range(g.red_count)]
        m = tree_sum(g, t)
        idx = inertia(laplacian(g, t))
        assert (m != 0) == (idx.n_zero == 1)


def test_laplacian_row_sums_always_zero():
    rng = random.Random(19)
    for _ in range(30):
        g = random_connected_graph(rng, n_min=2, n_max=7)
        lap = laplacian(g)
        assert all(sum(row) == 0 for row in lap.rows)


def test_index_limits_examples():
    g = swg(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1)])  # all-black path
    small, large = index_limits(g)
    assert small == SpectralIndex(3, 1, 0)
    assert large == SpectralIndex(3, 1, 0)  # no red edges: both limits coincide

    g = k4_disjoint()
    small, large = index_limits(g)
    assert small == SpectralIndex(3, 1, 0)
    assert large.n_plus == 4 - 2 == 2

    with pytest.raises(InputError):
        index_limits(swg(4, [(0, 1, 1), (2, 3, 1)]))


def test_index_limits_dynamic_witnesses():
    # pick exact witnesses below the first / above the last ray crossing and
    # confirm the symbolic limits with exact inertia
    rng = random.Random(23)
    checked = 0
    for _ in range(40):
        g = random_connected_graph(rng, n_min=3, n_max=7, red_choices=(1, 2))
        if g.red_count == 0:
            continue
        small, large = index_limits(g)
        p = crossing_polynomial(g)
        alpha = [Fraction(1)] * g.red_count
        roots = ray_crossings(p, alpha).roots
        lo = Fraction(1, 100) if not roots else (roots[0].lo) / 2
        hi = Fraction(100) if not roots else (roots[-1].hi) * 2
        if lo == 0:
            continue
        assert inertia(laplacian(g, [lo] * g.red_count)) == small
        assert inertia(laplacian(g, [hi] * g.red_count)) == large
        checked += 1
    assert checked >= 30


def test_crossing_count_examples():
    assert crossing_count(k4_shared()) == 4 - 1 - 2 + 1 == 2
    assert crossing_count(k4_disjoint()) == 2
    g = swg(5, [(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 4, 1)])
    assert crossing_count(g) == 5 - 1 - 5 + 1 == 0


def test_monotonicity_in_each_red_magnitude():
    rng = random.Random(29)
    for _ in range(60):
        g = random_connected_graph(rng, n_min=3, n_max=7)
        r = g.red_count
        if r == 0:
            continue
        t = [Fraction(rng.randint(0, 20), rng.randint(1, 6)) for _ in range(r)]
        k = rng.randrange(r)
        delta = Fraction(rng.randint(1, 10), rng.randint(1, 4))
        t2 = list(t)
        t2[k] = t[k] + delta
        ev1 = eigenvalues(laplacian(g, t))
        ev2 = eigenvalues(laplacian(g, t2))
        assert np.all(ev2 >= ev1 - 1e-9)


def test_laplacian_matrix_requires_square_symmetric():
    with pytest.raises(InputError):
        LaplacianMatrix([[1, 2]])
    with pytest.raises(InputError):
        LaplacianMatrix([[1, 2], [3, 4]])


def test_eigenvalues_of_an_asymmetric_matrix_are_an_input_error():
    # eigvalsh reads one triangle: these were the eigenvalues of
    # [[0, 5], [5, 0]], not an error
    with pytest.raises(InputError, match=r"not symmetric at \(0,1\)"):
        eigenvalues([[0, 1], [5, 0]])
    with pytest.raises(InputError, match=r"not symmetric at \(0,1\)"):
        inertia([[0, 1], [5, 0]])


def test_eigenvalues_of_a_ragged_matrix_are_an_input_error():
    with pytest.raises(InputError, match="matrix must be square"):
        eigenvalues([[1, 2], [2]])
    with pytest.raises(InputError, match="matrix must be square"):
        inertia([[1, 2], [2]])


@pytest.mark.parametrize("rows", [[[1, 2]], [[1, 2], [3, 4], [5, 6]], [[1, 2], [3]]])
def test_det_rational_of_a_matrix_that_is_not_square_is_an_input_error(rows):
    # the 1 x 2 matrix had determinant 1; the others raised IndexError
    with pytest.raises(InputError, match="matrix must be square"):
        det_rational(rows)


def test_matrix_entries_that_are_not_finite_rationals_are_input_errors():
    # a NaN entry gave eigenvalues [0, -0]; inertia let numeric errors escape
    for bad in (math.inf, math.nan, "x", None, "1/0"):
        for f in (eigenvalues, inertia, det_rational):
            with pytest.raises(InputError, match="finite rationals"):
                f([[bad, 0], [0, 1]])
    for f in (eigenvalues, inertia, det_rational):
        with pytest.raises(InputError, match="finite rationals"):
            f([1, 2])  # rows that are not sequences


def test_eigenvalues_of_a_non_square_matrix_are_an_input_error():
    with pytest.raises(InputError, match="matrix must be square"):
        eigenvalues([[1, 2, 3], [2, 1, 3]])
    with pytest.raises(InputError, match="matrix must be square"):
        inertia([[1, 2, 3], [2, 1, 3]])


def _outcome(f, *args):
    try:
        return f(*args)
    except InputError as e:
        return str(e)


def test_crossing_data_take_no_determinant(monkeypatch):
    # every value read off the bordered elimination, with and without a
    # connected black subgraph, comes from _schur steps alone: the same
    # results (or InputErrors) with det_int made to raise.  The graphs
    # include one with no black edge and a disconnected one (|Z| = 3)
    rng = random.Random(101)
    graphs = [k4_shared(), k4_disjoint(), swg(3, [(0, 1, -2), (1, 2, -1)]), swg(5, [(0, 1, 1), (1, 2, -1), (3, 4, -2)])]
    while len(graphs) < 40:
        graphs.append(random_connected_graph(rng, n_min=3, n_max=8, extra_max=4, red_choices=(2,)))
    graphs = [g for g in graphs if g.red_count == 2]
    assert {component_counts(g)[1] - 1 for g in graphs} >= {0, 1, 2, 3}
    cfg = ens.config_from_dict({"N": 10, "M": [12, 30], "samples": 40, "seed": 3})
    fs = (crossing_polynomial, _disc_minors, axis_thresholds, graph_factorization)

    def run():
        values = [_outcome(f, g) for g in graphs for f in fs]
        return values + [ens.compute_record(cfg, m, i) for m in cfg.m_values for i in range(cfg.samples_per_m)]

    expected = run()

    def forbidden(*args):
        raise AssertionError("det_int called")

    monkeypatch.setattr(_kernels, "det_int", forbidden)
    assert run() == expected
    assert {r.gplus_connected for r in expected[4 * len(graphs) :]} == {True, False}


def _graph_inertia_kinds(g, t) -> list[str]:
    """The cases of ``_graph_inertia`` that (g, t) exercises."""
    c_all, c_plus, _ = component_counts(g)
    uf = _UnionFind(g.n)
    for u, v, _ in g.edges:
        uf.union(u, v)
    red_free = {uf.find(x) for x in range(g.n)} - {uf.find(x) for u, v, _ in g.red_edges for x in (u, v)}
    return [
        kind
        for kind, hit in (
            ("disconnected", c_all > 1),
            ("a_empty_0", c_plus > 1),
            ("zero_t", 0 in t),
            ("no_red", not g.red_count),
            ("red_at_0", any(u == 0 for u, _, _ in g.red_edges)),
            ("r_over_n_1", g.red_count > g.n - 1),
            # a component with no red edge and without vertex 0: a zero row
            # that the elimination drops
            ("dropped_row", bool(red_free - {uf.find(0)})),
        )
        if hit
    ]


def _graph_and_magnitude_cases(monkeypatch) -> list:
    """The 156 analyze and stability requests of cli-corpus seeds 1-3 (78
    graphs), then N = 1 and 300 random graphs, connected or not, with any
    signs, each with red magnitudes."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    import corpus

    cases = [
        (req.graph, [Fraction(x) for x in req.options[1].split(",")])
        for seed in (1, 2, 3)
        for req in corpus.requests("cli-corpus", seed)
        if req.kind in ("analyze", "stability")
    ]
    assert len(cases) == 156
    cases.append((swg(1, []), []))
    rng = random.Random(1117)
    for _ in range(300):
        n = rng.randint(2, 8)
        pairs = rng.sample(list(itertools.combinations(range(n), 2)), rng.randint(0, n * (n - 1) // 2))
        g = swg(n, [(u, v, rng.choice((-1, 1)) * random_fraction(rng, 9, 4)) for u, v in pairs])
        cases.append((g, [Fraction(0) if rng.random() < 0.2 else random_fraction(rng, 9, 4) for _ in range(g.red_count)]))
    return cases


def test_graph_inertia_matches_the_matrix_inertia(monkeypatch):
    # the touched-block read against inertia(laplacian(g, t))
    cases = _graph_and_magnitude_cases(monkeypatch)
    kinds = Counter()
    for g, t in cases:
        assert _graph_inertia(g, t) == inertia(laplacian(g, t)), (g, t)
        kinds.update(_graph_inertia_kinds(g, t))
    assert len(kinds) == 7 and min(kinds.values()) >= 10, kinds


def test_graph_eigenvalues_are_the_matrix_eigenvalues(monkeypatch):
    # the integer Laplacian over its scale gives eigvalsh the very array
    # that the Fraction Laplacian gives it, so the very eigenvalues
    for g, t in _graph_and_magnitude_cases(monkeypatch):
        assert np.array_equal(_graph_eigenvalues(g, t), eigenvalues(laplacian(g, t))), (g, t)


@pytest.mark.parametrize(
    "g, t",
    [
        (swg(3, [(0, 1, 10**400), (1, 2, 1), (0, 2, -1)]), [1]),  # above the float range
        (swg(3, [(0, 1, Fraction(1, 10**400)), (1, 2, 1), (0, 2, -1)]), [1]),  # rounds to 0.0
        (swg(3, [(0, 1, 1), (1, 2, 1), (0, 2, -1)]), [Fraction(1, 10**400)]),
        (swg(2, [(0, 1, 10**308)]), []),  # entries fit, the eigenvalue -2e308 does not
        (swg(3, [(0, 1, 1), (1, 2, 1), (0, 2, -1)]), [1, 2]),
        (swg(3, [(0, 1, 1), (1, 2, 1), (0, 2, -1)]), [-1]),
        (swg(3, [(0, 1, 1), (1, 2, 1), (0, 2, -1)]), [0.5]),
    ],
)
def test_graph_eigenvalues_raise_the_matrix_errors(g, t):
    with pytest.raises(InputError) as expected:
        eigenvalues(laplacian(g, t))
    with pytest.raises(InputError) as exc:
        _graph_eigenvalues(g, t)
    assert str(exc.value) == str(expected.value)


def _bridged_black(rng: random.Random, n: int, components: int) -> list[tuple[int, int, int]]:
    """Integer black edges (u, v, w), u < v, weights 1..9, forming exactly
    ``components`` black components on vertices 0..n-1: a random tree in
    each part of a random partition, plus a few extra edges inside parts."""
    order = list(range(n))
    rng.shuffle(order)
    cuts = sorted(rng.sample(range(1, n), components - 1))
    parts = [order[a:b] for a, b in zip([0, *cuts], [*cuts, n])]
    edges = {}
    for part in parts:
        for i in range(1, len(part)):
            a, b = part[i], part[rng.randrange(i)]
            edges[min(a, b), max(a, b)] = rng.randint(1, 9)
        for a, b in itertools.combinations(sorted(part), 2):
            if rng.random() < 0.2:
                edges[a, b] = rng.randint(1, 9)
    return [(u, v, w) for (u, v), w in edges.items()]


def test_bridged_reads_are_those_of_the_bridged_black_graph():
    # with A_empty = 0, _transfer_current hands its reader one (K, d) per
    # bridging weight k = 1..|Z|+1; each must be what a plain
    # _transfer_current reads off the same black edges plus an edge of
    # weight k from vertex 0 to the highest vertex of each black component
    # without vertex 0, whose Q_k is positive definite
    rng = random.Random(2027)
    checked, sizes = 0, Counter()
    for _ in range(300):
        z = rng.randint(1, 6)
        n = rng.randint(z + 2, z + 7)
        black = _bridged_black(rng, n, z + 1)
        pairs = list(itertools.combinations(range(n), 2))
        reds = rng.sample(pairs, rng.randint(1, min(5, len(pairs))))
        uf = _UnionFind(n)
        for u, v, _ in black:
            uf.union(u, v)
        top = {uf.find(x): x for x in range(n)}  # each component's highest vertex
        tops = sorted(x for root, x in top.items() if root != uf.find(0))
        assert len(tops) == z
        handed = []
        _transfer_current(n, black, reds, lambda k, d: handed.append((k, d)) or [0])
        assert len(handed) == z + 1
        for k, got in enumerate(handed, 1):
            expect = _transfer_current(n, black + [(0, t, k) for t in tops], reds, lambda k, d: [(k, d)])
            assert got == expect[0], (n, black, reds, k)
            checked += 1
        sizes[z] += 1
    assert sorted(sizes) == [1, 2, 3, 4, 5, 6] and checked > 1000, (sizes, checked)
