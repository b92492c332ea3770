"""Axis thresholds and the l1 stability certificate."""

import random
from fractions import Fraction as F

import pytest

from signedlap import (
    InputError,
    SpectralIndex,
    axis_thresholds,
    certify,
    crossing_polynomial,
    tree_sum,
)

from conftest import assert_value, k4_shared, kn_with_reds, random_connected_graph, swg, triangle_one_red


def test_thresholds_examples():
    assert axis_thresholds(triangle_one_red()) == [F(1, 2)]
    assert axis_thresholds(k4_shared()) == [F(3, 5), F(3, 5)]
    g = kn_with_reds(4, [(0, 1)])
    assert axis_thresholds(g) == [F(1)]  # 8 trees each side: 8 - 8t


def test_stability_report_is_an_immutable_record():
    report = certify(k4_shared(), [F(3, 10), F(3, 10)])
    assert report == ((F(3, 5), F(3, 5)), True, True, F(0), SpectralIndex(3, 1, 0))  # on the boundary
    assert_value(report, certify(k4_shared(), [F(3, 10), F(3, 10)]), certify(k4_shared(), [F(1, 10), F(3, 10)]))


def test_thresholds_require_connected_black():
    g = swg(3, [(0, 1, 1), (1, 2, -1)])
    with pytest.raises(InputError):
        axis_thresholds(g)


def test_thresholds_finite_and_positive_for_connected_black():
    # with G_+ connected, contracting any single red edge keeps the graph
    # connected, so A_{e_i} > 0 and every threshold is a positive rational
    rng = random.Random(73)
    for _ in range(30):
        g = random_connected_graph(rng, n_min=3, n_max=6, red_choices=(1, 2))
        try:
            omegas = axis_thresholds(g)
        except InputError:
            continue
        assert all(w is not None and w > 0 for w in omegas)


def test_certify_boundary_point():
    rep = certify(k4_shared(), [F(3, 10), F(3, 10)])
    assert rep.certified and rep.boundary
    assert rep.certificate_margin == 0
    assert rep.verified_index == SpectralIndex(3, 1, 0)


def test_certify_zero_vector():
    rep = certify(k4_shared(), [0, 0])
    assert rep.certified and not rep.boundary
    assert rep.verified_index == SpectralIndex(3, 1, 0)


def test_certify_beyond_thresholds():
    # between the diagonal crossings 1/3 and 3: one eigenvalue has crossed
    rep = certify(k4_shared(), [2, 2])
    assert not rep.certified
    assert rep.verified_index == SpectralIndex(2, 1, 1)
    # beyond both crossings: the large-magnitude limit
    rep = certify(k4_shared(), [4, 4])
    assert not rep.certified
    assert rep.verified_index == SpectralIndex(1, 1, 2)


def test_certificate_soundness_random():
    rng = random.Random(79)
    done = 0
    while done < 120:
        g = random_connected_graph(rng, n_min=3, n_max=7, red_choices=(1, 2, 3))
        try:
            omegas = axis_thresholds(g)
        except InputError:
            continue
        r = g.red_count
        if r == 0:
            continue
        finite = [w for w in omegas if w is not None]
        if not finite:
            continue
        bound = min(finite)
        # random point strictly inside the l1 ball
        weights = [F(rng.randint(0, 20), 1) for _ in range(r)]
        total = sum(weights)
        if total == 0:
            t = [F(0)] * r
        else:
            scale = bound * F(rng.randint(1, 99), 100) / total
            t = [w * scale for w in weights]
        rep = certify(g, t)
        assert rep.certified
        assert rep.verified_index == SpectralIndex(g.n - 1, 1, 0)
        done += 1


def test_axis_sharpness_exact():
    rng = random.Random(83)
    done = 0
    while done < 40:
        g = random_connected_graph(rng, n_min=3, n_max=6, red_choices=(1, 2))
        try:
            omegas = axis_thresholds(g)
        except InputError:
            continue
        r = g.red_count
        if r == 0:
            continue
        for i, w in enumerate(omegas):
            if w is None:
                continue
            axis_t = [F(0)] * r
            axis_t[i] = w
            assert tree_sum(g, axis_t) == 0  # exact zero at the threshold
            axis_t[i] = w * F(99, 100)
            assert tree_sum(g, axis_t) > 0  # strictly positive below it
        done += 1


def test_non_necessity_witness():
    # ||t||_1 = 16/25 > 3/5 = min omega, yet exact inertia is still (3,1,0):
    # the certificate is sufficient only
    g = k4_shared()
    t = [F(8, 25), F(8, 25)]
    assert sum(t) > min(w for w in axis_thresholds(g))
    rep = certify(g, t)
    assert not rep.certified
    assert rep.verified_index == SpectralIndex(3, 1, 0)
    assert crossing_polynomial(g).evaluate(t) == F(67, 625)


def test_certify_input_validation():
    g = k4_shared()
    with pytest.raises(InputError):
        certify(g, [1])
    with pytest.raises(InputError):
        certify(g, [F(-1), F(0)])
