"""Discriminant geometry, forest/cycle duals, wildcards, factorization."""

import itertools
import math
import random
import re
from fractions import Fraction as F

import pytest

from signedlap import (
    InputError,
    Wildcard,
    classify,
    crossing_polynomial,
    cycle_basis_minor,
    degenerate_point,
    discriminant,
    dodgson_identity_holds,
    factorize,
    forest_sum,
    gap,
    graph_factorization,
    laplacian,
    laplacian_minor,
    ray_crossings,
    two_forests,
    wildcard_basis,
    wildcard_discriminant,
    wildcard_forest_sum,
)
from signedlap.discriminants import _cycle_minor, _disc_minors
from signedlap.graph import component_counts

from conftest import (
    assert_value,
    k4_disjoint,
    k4_shared,
    kn_with_reds,
    random_connected_graph,
    swg,
    triangle_chain,
)


def test_discriminant_k4():
    assert discriminant(crossing_polynomial(k4_shared())) == 3 * 3 - 5 * 5 == -16
    assert discriminant(crossing_polynomial(k4_disjoint())) == 0


def test_discriminant_requires_two_reds():
    g = swg(3, [(0, 1, 1), (0, 2, 1), (1, 2, -1)])
    with pytest.raises(InputError):
        discriminant(crossing_polynomial(g))


def test_gap_values():
    assert abs(gap(crossing_polynomial(k4_shared())) - math.sqrt(32) / 3) < 1e-15
    assert gap(crossing_polynomial(k4_disjoint())) == 0.0
    # disconnected graph with two reds: A11 = 0, gap undefined
    g = swg(5, [(0, 1, -1), (2, 3, -1), (3, 4, 1), (2, 4, 1)])
    assert gap(crossing_polynomial(g)) is None


def test_degenerate_point():
    assert degenerate_point(crossing_polynomial(k4_disjoint())) == (F(1), F(1))
    assert degenerate_point(crossing_polynomial(k4_shared())) is None
    assert degenerate_point(crossing_polynomial(triangle_chain(2))) == (F(1, 2), F(1, 2))


def test_degenerate_point_orientation():
    # asymmetric factorable case: triangle (1-2t) glued to a doubled triangle
    # (4-4t): M = (1-2x)(4-4y), zero lines x = 1/2, y = 1
    g = swg(
        5,
        [(0, 1, 1), (1, 2, 1), (0, 2, -1), (2, 3, 2), (3, 4, 2), (2, 4, -1)],
    )
    p = crossing_polynomial(g)
    assert list(p.coeffs) == [4, 8, 4, 8]  # A00, Ax, Ay, Axy
    assert discriminant(p) == 0
    assert degenerate_point(p) == (F(1, 2), F(1))


def test_forest_sum_k4():
    assert forest_sum(k4_disjoint()) == 0
    s = forest_sum(k4_shared())
    assert s * s == 16


def test_forest_sum_empty_case():
    # K4 minus the edge (1,2): reds (0,1),(0,2) share vertex 0; removing the
    # reds must still allow qualifying splits; construct the unsatisfiable
    # shape instead: triangle with pendant and reds meeting it
    g = swg(4, [(0, 1, 1), (1, 2, 1), (0, 2, -1), (0, 3, -1)])
    # U = (0,2), W = (0,3): vertex 3 is a leaf off 0, so the only connected
    # split separating 0 from 3 is {3} | rest, which keeps U together
    assert forest_sum(g) == 0


def test_forest_sum_squared_equals_abs_discriminant_random():
    rng = random.Random(47)
    done = 0
    while done < 60:
        g = random_connected_graph(rng, n_min=3, n_max=6, extra_max=3, red_choices=(2,))
        if g.red_count != 2:
            continue
        p = crossing_polynomial(g)
        s = forest_sum(g)
        assert s * s == abs(discriminant(p))
        done += 1


def test_forest_dual_matches_forest_sum_value_and_sign():
    # the bordered-elimination sigma against the 2-forest enumeration, on
    # rational weights, with and without a connected black subgraph (one or
    # two dropped rows, each bridged), and on vertex-sharing red pairs whose
    # shared vertex is the larger endpoint (there _forest_pairs flips a red
    # column)
    rng = random.Random(67)
    seen = set()
    dropped = set()
    for _ in range(200):
        g = random_connected_graph(rng, n_min=3, n_max=8, extra_max=4, red_choices=(2,))
        if g.red_count != 2:
            continue
        assert _disc_minors(g)[1] == forest_sum(g)
        (u1, v1, _), (u2, v2, _) = g.red_edges
        shared = {u1, v1} & {u2, v2}
        flipped = bool(shared) and min(shared) in (v1, v2)
        seen.add((crossing_polynomial(g).coeffs[0] == 0, bool(shared), flipped))
        dropped.add(component_counts(g)[1] - 1)
    assert {(False, False, False), (False, True, True), (True, False, False), (True, True, True)} <= seen
    assert dropped == {0, 1, 2}


@pytest.mark.parametrize(
    "rows,cols,msg",
    [
        ([0, 0], [0, 1], "duplicates"),
        ([0], [1, 1], "duplicates"),
        ([0], [3], "index 3 out of range 0..2"),
        ([-1], [0], "index -1 out of range 0..2"),
        (["0"], [0], "index '0' out of range 0..2"),
        (0, 0, "index list must be iterable, got 0"),
    ],
)
def test_laplacian_minor_rejects_bad_index_sets(rows, cols, msg):
    lap = laplacian(swg(3, [(0, 1, 1), (1, 2, 1), (0, 2, 1)]))
    with pytest.raises(InputError, match=msg):
        laplacian_minor(lap, rows, cols)


def test_laplacian_minor_examples():
    g = swg(3, [(0, 1, 1), (1, 2, 1), (0, 2, 1)])
    lap = laplacian(g)
    assert laplacian_minor(lap, [0], [0]) == 3
    assert laplacian_minor(lap, [], []) == 0  # full determinant of a Laplacian
    with pytest.raises(InputError):
        laplacian_minor(lap, [0], [0, 1])


def test_all_minors_tree_theorem_forest_counts():
    # det L(U|W) = (-1)^(N-k) (-1)^(sum U + sum W) sum eps(F) pi(F), 1-based sums
    rng = random.Random(53)
    for _ in range(40):
        g = random_connected_graph(rng, n_min=3, n_max=6, unit_weights=True)
        lap = laplacian(g)
        u = tuple(sorted(rng.sample(range(g.n), 2)))
        w = tuple(sorted(rng.sample(range(g.n), 2)))
        det = laplacian_minor(lap, u, w)
        s = sum(f.epsilon * f.pi for f in two_forests(g, u, w))
        sign = (-1) ** (g.n - 2) * (-1) ** (sum(u) + sum(w))  # 0- vs 1-based parity matches
        assert det == sign * s


def test_minor_linear_relations():
    rng = random.Random(59)
    for _ in range(40):
        g = random_connected_graph(rng, n_min=4, n_max=7, unit_weights=True)
        lap = laplacian(g)
        # vertices 1,2,3,4 of the statement are 0,1,2,3 here
        assert laplacian_minor(lap, [0, 1], [0, 2]) + laplacian_minor(
            lap, [0, 1], [0, 3]
        ) == laplacian_minor(lap, [0, 1], [2, 3])
        four = (
            laplacian_minor(lap, [0, 2], [0, 2])
            + laplacian_minor(lap, [0, 3], [0, 2])
            + laplacian_minor(lap, [0, 2], [1, 2])
            + laplacian_minor(lap, [0, 3], [1, 2])
        )
        assert four == -laplacian_minor(lap, [0, 1], [2, 3])


def test_dodgson_identity():
    assert dodgson_identity_holds([[1, 0, 0], [0, 1, 0], [0, 0, 1]], 0, 1, 0, 1)
    rng = random.Random(61)
    for _ in range(60):
        n = rng.randint(2, 6)
        m = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        idx = rng.sample(range(n), 2) if n >= 2 else [0, 0]
        jdx = rng.sample(range(n), 2)
        assert dodgson_identity_holds(m, idx[0], idx[1], jdx[0], jdx[1])
    # two equal rows: everything degenerates to 0 = 0
    m = [[1, 2, 3], [1, 2, 3], [4, 5, 6]]
    assert dodgson_identity_holds(m, 0, 1, 0, 1)
    with pytest.raises(InputError):
        dodgson_identity_holds(m, 0, 0, 0, 1)


def test_minor_and_dodgson_reject_malformed_matrices_and_indices():
    # a wide matrix is not cut to its leading square, a tall one is not an
    # IndexError, and an index is an int, not a float or a bool
    for m in ([[1, 2, 3], [4, 5, 6]], [[1, 2], [3, 4], [5, 6]], [[1, 2], [3]]):
        with pytest.raises(InputError, match="square"):
            laplacian_minor(m, [], [])
        with pytest.raises(InputError, match="square"):
            dodgson_identity_holds(m, 0, 1, 0, 1)
    m = [[2, -1, 0], [-1, 2, -1], [0, -1, 2]]
    for bad in (0.5, 1.0, True):
        with pytest.raises(InputError, match=re.escape(f"index {bad!r} out of range 0..2")):
            laplacian_minor(m, [bad], [0])
        with pytest.raises(InputError, match=re.escape(f"index {bad!r} out of range 0..2")):
            dodgson_identity_holds(m, 0, 2, bad, 2)
    assert laplacian_minor(m, [1], [1]) == 4 and dodgson_identity_holds(m, 0, 2, 0, 2)


def test_dodgson_reads_a_bool_index_as_no_index():
    # True == 1, so (True, 1) read as two equal rows
    m = [[2, -1, 0], [-1, 2, -1], [0, -1, 2]]
    with pytest.raises(InputError, match=r"index True out of range 0\.\.2"):
        dodgson_identity_holds(m, True, 1, 0, 1)


def test_cycle_minor_k4():
    assert abs(cycle_basis_minor(k4_shared())) == 4
    assert cycle_basis_minor(k4_disjoint()) == 0


def test_cycle_minor_guards():
    # removing both reds disconnects: undefined
    g = swg(4, [(0, 1, -1), (1, 2, 1), (2, 3, 1), (0, 3, -1)])
    assert cycle_basis_minor(g) is None
    # co-rank < 2: undefined
    g = swg(4, [(0, 1, -1), (1, 2, -1), (2, 3, 1), (0, 3, 1), (0, 2, 1)])
    assert cycle_basis_minor(g) is None or isinstance(cycle_basis_minor(g), F)
    tree_plus = swg(3, [(0, 1, -1), (1, 2, -1), (0, 2, 1)])
    assert cycle_basis_minor(tree_plus) is None  # co-rank 1
    with pytest.raises(InputError):
        cycle_basis_minor(swg(3, [(0, 1, -1), (1, 2, -1), (0, 2, 2)]))  # non-unit black


def test_disc_cycle_minor_needs_unit_black_weights():
    # K4 with reds (0,1), (0,2) and black weight 2 on (0,3): sigma is 5, and
    # the cycle minor, defined for unit black weights only, is None (it was
    # 5; only the CLI kept it from being printed)
    g = swg(4, [(0, 1, -1), (0, 2, -1), (0, 3, 2), (1, 2, 1), (1, 3, 1), (2, 3, 1)])
    _, sigma = _disc_minors(g)
    assert sigma == 5 and _cycle_minor(g, sigma) is None
    g = k4_shared()
    assert _cycle_minor(g, _disc_minors(g)[1]) == cycle_basis_minor(g) == 4


@pytest.mark.parametrize(
    "f,what", [(forest_sum, "forest sum"), (cycle_basis_minor, "cycle minor"), (classify, "classification")]
)
@pytest.mark.parametrize("reds", [[(0, 1)], [(0, 1), (0, 2), (1, 2)]])
def test_two_red_routes_reject_other_red_counts(f, what, reds):
    with pytest.raises(InputError, match=f"{what} requires exactly 2 red edges, got {len(reds)}"):
        f(kn_with_reds(4, reds))


def test_cycle_minor_squared_equals_abs_discriminant_random():
    rng = random.Random(67)
    done = 0
    while done < 40:
        g = random_connected_graph(
            rng, n_min=4, n_max=7, extra_max=4, red_choices=(2,), unit_weights=True
        )
        if g.red_count != 2:
            continue
        cm = cycle_basis_minor(g)
        if cm is None:
            continue
        assert cm * cm == abs(discriminant(crossing_polynomial(g)))
        done += 1


def test_wildcard_basis_r3_matches_enumeration():
    assert sorted(w.to_string() for w in wildcard_basis(3)) == ["**0", "**1", "*0*", "0**"]


def test_wildcard_basis_r4():
    strs = {w.to_string() for w in wildcard_basis(4)}
    assert len(strs) == 11
    assert "*0*0" in strs and "00**" in strs


def test_wildcard_basis_r2_forced():
    (w,) = wildcard_basis(2)
    assert w.to_string() == "**"
    with pytest.raises(InputError):
        wildcard_basis(1)


@pytest.mark.parametrize("r", [2.0, True, "3", None])
def test_wildcard_basis_needs_an_int_length(r):
    # 2.0 raised a bare TypeError from range; True was read as 1
    with pytest.raises(InputError, match=f"^wildcards need at least 2 red edges, got {re.escape(repr(r))}$"):
        wildcard_basis(r)


def test_wildcard_basis_cardinality():
    for r in range(2, 13):
        assert len(wildcard_basis(r)) == 2 ** r - r - 1


def test_wildcard_basis_recursion():
    # every basis wildcard of length r is w+"0" or w+"1" for a basis wildcard
    # of length r-1, or ends with a free position and is zero elsewhere
    for r in range(3, 9):
        prev = {w.to_string() for w in wildcard_basis(r - 1)}
        rebuilt = {s + "0" for s in prev} | {s + "1" for s in prev}
        rebuilt |= {
            "".join("*" if k in (i, r - 1) else "0" for k in range(r)) for i in range(r - 1)
        }
        assert rebuilt == {w.to_string() for w in wildcard_basis(r)}


def test_wildcard_discriminant_index_convention():
    # R=5, pattern 00*1*: picks coefficients over red sets {4}, {3,4}, {4,5},
    # {3,4,5} (1-based), i.e. masks 8, 12, 24, 28
    coeffs = tuple(F(2 * m + 3) for m in range(32))  # distinct values per mask
    from signedlap import CrossingPolynomial

    p = CrossingPolynomial(5, coeffs)
    w = Wildcard.from_string("00*1*")
    assert w.subset_masks() == (8, 12, 24, 28)
    assert wildcard_discriminant(p, w) == coeffs[28] * coeffs[8] - coeffs[12] * coeffs[24]


def test_wildcard_ss_is_discriminant():
    p = crossing_polynomial(k4_shared())
    assert wildcard_discriminant(p, Wildcard.from_string("**")) == discriminant(p)


def test_wildcard_string_roundtrip():
    for s in ("**", "*0*1", "10**", "0*1*0"):
        assert Wildcard.from_string(s).to_string() == s
    with pytest.raises(InputError):
        Wildcard.from_string("*01")
    with pytest.raises(InputError):
        Wildcard.from_string("**x")


def test_factorize_chain():
    for r in (2, 3, 4):
        fac = factorize(crossing_polynomial(triangle_chain(r)))
        assert fac is not None
        assert fac.alpha == 1
        assert fac.c == tuple([F(2)] * r)


def test_wildcard_is_a_validated_immutable_value():
    for r, i, j in ((3, 1, 1), (3, 2, 1), (3, 0, 3), (3, -1, 1)):
        with pytest.raises(InputError, match=f"free positions \\({i}, {j}\\) invalid for length {r}"):
            Wildcard(r, i, j, 0)
    with pytest.raises(InputError, match="fixed bits overlap the free positions"):
        Wildcard(3, 0, 1, 0b010)
    w = Wildcard.from_string("*1*0")
    assert_value(w, Wildcard(4, 0, 2, 0b0010), Wildcard(4, 0, 2, 0), Wildcard(5, 0, 2, 0b0010), (4, 0, 2, 0b0010))
    assert repr(w) == "Wildcard(r=4, i=0, j=2, bits=2)"
    assert len(set(wildcard_basis(6))) == 2**6 - 6 - 1


@pytest.mark.parametrize("r,bits", [(2, -4), (2, -1), (2, 4), (3, 0b1000), (3, 1 << 100)])
def test_wildcard_fixed_bits_fit_the_length(r, bits):
    # (2, -4) gave the discriminant -16 on K4 (negative masks index from the
    # end), (2, 4) a bare IndexError there, and (3, 0b1000) wrote "**0"
    # though it is not the wildcard "**0" reads as
    with pytest.raises(InputError, match=f"^fixed bits {bits} do not fit length {r}$"):
        Wildcard(r, 0, 1, bits)
    for w in wildcard_basis(r):
        assert Wildcard.from_string(w.to_string()) == w


@pytest.mark.parametrize("args", [(3, 0, True, 0), (2.0, 0, 1, 0), (3, 0, 1, True), (3, 0.0, 1, 0)])
def test_wildcard_fields_are_ints(args):
    # (3, 0, True, 0) was j = 1 and wrote "**0", (2.0, 0, 1, 0) raised a bare
    # TypeError in to_string, and (3, 0, 1, True) said the bits overlap
    with pytest.raises(InputError, match=r"^wildcard fields must be integers, got \("):
        Wildcard(*args)


def test_factorization_is_an_immutable_record():
    fac = factorize(crossing_polynomial(triangle_chain(3)))
    assert fac == (F(1), (F(2),) * 3)
    assert_value(fac, graph_factorization(triangle_chain(3)), factorize(crossing_polynomial(triangle_chain(2))))


def test_factorize_k4():
    fac = factorize(crossing_polynomial(k4_disjoint()))
    assert fac is not None and fac.alpha == 4 and fac.c == (F(1), F(1))
    assert factorize(crossing_polynomial(k4_shared())) is None


def test_factorize_requires_connected_black():
    g = swg(3, [(0, 1, -1), (1, 2, -1)])
    with pytest.raises(InputError):
        factorize(crossing_polynomial(g))


def test_factorize_trivial_r():
    g = swg(3, [(0, 1, 1), (0, 2, 1), (1, 2, -1)])
    fac = factorize(crossing_polynomial(g))
    assert fac is not None and fac.alpha == 1 and fac.c == (F(2),)
    black = swg(3, [(0, 1, 1), (0, 2, 1), (1, 2, 1)])
    fac = factorize(crossing_polynomial(black))
    assert fac is not None and fac.alpha == 3 and fac.c == ()


def test_factorize_implies_all_wildcards_vanish():
    for r in (3, 4):
        p = crossing_polynomial(triangle_chain(r))
        assert factorize(p) is not None
        count = 0
        for i, j in itertools.combinations(range(r), 2):
            free = [k for k in range(r) if k not in (i, j)]
            for bits in itertools.product((0, 1), repeat=len(free)):
                mask = sum(1 << k for k, b in zip(free, bits) if b)
                assert wildcard_discriminant(p, Wildcard(r, i, j, mask)) == 0
                count += 1
        assert count == math.comb(r, 2) * 2 ** (r - 2)


def test_factorize_maximal_degeneracy_ray():
    # along alpha = (1/C_1, ..., 1/C_R) the ray polynomial is alpha*(1-t)^R
    for r in (2, 3, 4):
        p = crossing_polynomial(triangle_chain(r))
        fac = factorize(p)
        alpha = [1 / c for c in fac.c]
        roots = ray_crossings(p, alpha).roots
        assert [(rt.value, rt.multiplicity) for rt in roots] == [(F(1), r)]


def test_wildcard_forest_sum_reduces_to_forest_sum():
    g = k4_shared()
    w = Wildcard.from_string("**")
    assert wildcard_forest_sum(g, w) == forest_sum(g)


def test_wildcard_forest_sum_chain():
    g = triangle_chain(3)
    s = wildcard_forest_sum(g, Wildcard.from_string("**0"))
    assert s == 0  # deletion preserves the product structure, delta_w = 0
    p = crossing_polynomial(g)
    for w in wildcard_basis(3):
        ws = wildcard_forest_sum(g, w)
        if ws is not None:
            assert ws * ws == abs(wildcard_discriminant(p, w))


def test_wildcard_forest_sum_contraction_case():
    # K4 with disjoint reds plus a pendant red edge; contracting the pendant
    # red reduces to the K4 case
    g = swg(
        5,
        [(0, 1, -1), (2, 3, -1), (0, 2, 1), (0, 3, 1), (1, 2, 1), (1, 3, 1), (3, 4, -1)],
    )
    w = Wildcard.from_string("**1")
    s = wildcard_forest_sum(g, w)
    assert s == forest_sum(k4_disjoint()) == 0
    p = crossing_polynomial(g)
    assert s * s == abs(wildcard_discriminant(p, w))


def test_wildcard_forest_sum_collapse_undefined():
    # triangle of reds: contracting red 2 (an edge parallel to nothing but
    # closing the triangle) identifies the endpoints of the free reds
    g = swg(3, [(0, 1, -1), (1, 2, -1), (0, 2, -1)])
    w = Wildcard.from_string("**1")
    assert wildcard_forest_sum(g, w) is None


def test_wildcard_forest_sum_of_a_cyclic_fixed_one_set_is_undefined():
    # the fixed ones contract the red triangle 0-1-2: no spanning tree holds
    # it, so every coefficient under the wildcard is zero
    g = swg(5, [(2, 3, -1), (3, 4, -1), (0, 1, -1), (1, 2, -1), (0, 2, -1), (0, 3, 1), (1, 4, 1)])
    assert wildcard_forest_sum(g, Wildcard.from_string("**111")) is None


def test_wildcards_of_the_wrong_length_are_input_errors():
    g = k4_shared()
    w = Wildcard.from_string("**0")
    with pytest.raises(InputError, match="wildcard length 3 != red count 2"):
        wildcard_discriminant(crossing_polynomial(g), w)
    with pytest.raises(InputError, match="wildcard length 3 != red count 2"):
        wildcard_forest_sum(g, w)


def test_wildcard_forest_sum_squared_matches_discriminant_random():
    rng = random.Random(71)
    done = 0
    while done < 30:
        g = random_connected_graph(rng, n_min=4, n_max=6, extra_max=3, red_choices=(3,))
        if g.red_count != 3:
            continue
        p = crossing_polynomial(g)
        for w in wildcard_basis(3):
            s = wildcard_forest_sum(g, w)
            if s is None:
                continue
            assert s * s == abs(wildcard_discriminant(p, w))
        done += 1


def _factorizations_agree(g):
    p = crossing_polynomial(g)
    if p.coeffs[0] == 0:
        for route in (lambda: factorize(p), lambda: graph_factorization(g)):
            with pytest.raises(InputError, match="connected black subgraph"):
                route()
        return None
    fac = graph_factorization(g)
    assert fac == factorize(p), g
    return fac


def test_transfer_current_factorization_matches_reexpansion_random():
    # seeded rational-weight graphs, A_empty = 0, R > N - 1, R = 0 and N <= 2
    # included; factorize on the 2^R coefficients is the oracle
    rng = random.Random(29)
    outcomes = {"none": 0, "factor": 0, "a_empty_zero": 0, "r_above_n_minus_1": 0, "r_zero": 0, "n_at_most_2": 0}
    for _ in range(200):
        g = random_connected_graph(
            rng, n_min=1, n_max=8, extra_max=6, red_choices=(0, 1, 2, 3, 6, 9), den_max=12
        )
        fac = _factorizations_agree(g)
        if crossing_polynomial(g).coeffs[0] == 0:
            outcomes["a_empty_zero"] += 1
        else:
            outcomes["none" if fac is None else "factor"] += 1
        outcomes["r_above_n_minus_1"] += g.red_count > g.n - 1
        outcomes["r_zero"] += g.red_count == 0
        outcomes["n_at_most_2"] += g.n <= 2
    assert min(outcomes.values()) >= 5, outcomes


def test_transfer_current_factorization_families_and_near_misses():
    for r in (1, 2, 3, 5):
        fac = _factorizations_agree(triangle_chain(r))
        assert fac.alpha == 1 and fac.c == tuple([F(2)] * r)
    assert _factorizations_agree(k4_disjoint()) == factorize(crossing_polynomial(k4_disjoint()))
    assert _factorizations_agree(k4_shared()) is None
    # near misses: one black edge joining two triangles of the chain, or a
    # red edge across two of them, couples their red edges (K_ij != 0)
    chain = triangle_chain(3)
    for extra in ((0, 3, F(1, 3)), (1, 4, F(7)), (0, 6, F(1, 100)), (1, 3, F(-2))):
        g = swg(chain.n, list(chain.edges) + [extra])
        assert _factorizations_agree(g) is None, extra
    # weights that keep the chain's triangles separate stay factorizable
    weighted = swg(7, [(0, 1, F(3, 2)), (1, 2, 5), (0, 2, -7), (2, 3, F(2, 9)), (3, 4, 1), (2, 4, F(-1, 3)),
                       (4, 5, 4), (5, 6, F(1, 8)), (4, 6, -1)])
    assert _factorizations_agree(weighted) is not None

