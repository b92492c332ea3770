"""Per-edge critical thresholds and the l1 sufficient-stability certificate.

Along the i-th axis ray the crossing polynomial is A_empty - A_{e_i} * t, so
omega_i = A_empty / A_{e_i} is the exact magnitude where stability is first
lost on that axis.  Both numbers come from one bordered elimination of the
grounded black Laplacian Q: A_empty = det Q and A_{e_i} = K_ii, the
diagonal of K = B^T adj(Q) B over the red incidence columns B.  Any t with
||t||_1 <= min_i omega_i is a convex combination of stable axis points,
hence certified; the certificate is sufficient only.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Sequence

from .errors import InputError
from .graph import SignedWeightedGraph, component_counts
from .spectral import SpectralIndex, _graph_inertia, _graph_minors, _magnitudes


def axis_thresholds(g: SignedWeightedGraph) -> list[Fraction | None]:
    """omega_i = A_empty / A_{e_i} per red edge; None means the threshold is
    infinite (no spanning tree uses red edge i alone, so that axis never
    crosses).  Requires a connected black subgraph."""
    _, c_plus, _ = component_counts(g)
    if c_plus != 1:
        raise InputError("thresholds require a connected black subgraph")
    reds = [(u, v) for u, v, _ in g.red_edges]
    axes = [((i,), (i,)) for i in range(len(reds))]
    a_empty, *a_axes = _graph_minors(g, reds, [((), ())] + axes)
    return [a_empty / a_i if a_i != 0 else None for a_i in a_axes]


class StabilityReport(NamedTuple):
    """Certificate outcome plus an independent exact verification.

    certified: ||t||_1 <= min omega (boundary included).  On the open ball the
    index is (N-1, 1, 0); exactly on the boundary n_zero may be 2, which the
    boundary flag distinguishes.  verified_index is always the exact inertia
    of L(t), read off an elimination separate from the thresholds' (the
    red-free vertices of the grounded Laplacian at t, then the block over
    the red-touched ones), so it is independent of the certificate.
    """

    thresholds: tuple[Fraction | None, ...]
    certified: bool
    boundary: bool
    certificate_margin: Fraction | None  # min omega - ||t||_1; None if min is infinite
    verified_index: SpectralIndex


def certify(g: SignedWeightedGraph, t: Sequence[Fraction]) -> StabilityReport:
    """Check ||t||_1 <= min_i omega_i and verify the spectral index exactly.

    A disconnected black subgraph is reported before ``t`` is checked
    (``spectral._magnitudes``)."""
    omegas = axis_thresholds(g)
    t = _magnitudes(g, t)
    norm1 = sum(t, Fraction(0))
    finite = [w for w in omegas if w is not None]
    min_omega = min(finite) if finite else None
    certified = min_omega is None or norm1 <= min_omega
    boundary = min_omega is not None and norm1 == min_omega
    margin = None if min_omega is None else min_omega - norm1
    verified = _graph_inertia(g, t)
    return StabilityReport(tuple(omegas), certified, boundary, margin, verified)
