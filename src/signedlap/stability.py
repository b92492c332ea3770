"""Per-edge critical thresholds and the l1 sufficient-stability certificate.

Along the i-th axis ray the crossing polynomial is A_empty - A_{e_i} * t, so
omega_i = A_empty / A_{e_i} is the exact magnitude where stability is first
lost on that axis.  Both are reads of K = B^T adj(Q) B, Q the grounded
black Laplacian and B the red incidence columns: A_empty = det Q and
A_{e_i} = K_ii (``spectral._transfer_current``).  Any t with
||t||_1 <= min_i omega_i is a convex combination of stable axis points,
hence certified; the certificate is sufficient only.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Sequence

from .errors import InputError
from .graph import SignedWeightedGraph, component_counts
from .spectral import SpectralIndex, _graph_inertia, _magnitudes, _transfer_current


def axis_thresholds(g: SignedWeightedGraph) -> list[Fraction | None]:
    """omega_i = A_empty / A_{e_i} per red edge; None means the threshold is
    infinite (no spanning tree uses red edge i alone, so that axis never
    crosses).  Requires a connected black subgraph.  With L the lcm of the
    black-weight denominators, omega_i = det Q / (K_ii * L)."""
    _, c_plus, _ = component_counts(g)
    if c_plus != 1:
        raise InputError("thresholds require a connected black subgraph")
    scale, black = g._black_ints
    reds = [(u, v) for u, v, _ in g.red_edges]
    d, *diagonal = _transfer_current(g.n, black, reds, lambda k, d: [d, *(row[0] for row in k)])
    return [Fraction(d, k * scale) if k else None for k in diagonal]


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
