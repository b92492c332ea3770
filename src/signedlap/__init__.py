"""Spectral analysis of signed weighted graph Laplacians.

Exact-arithmetic toolkit for graphs whose edge signs encode a black/red
coloring: spectral index and its limits, the multilinear crossing polynomial,
eigenvalue-crossing discriminants and their spanning-forest / cycle-basis
duals, hyperplane factorization via wildcard discriminants, l1 stability
certificates, and Monte Carlo ensembles of random signed graphs.

The ensemble (``signedlap.ensemble``, and the names ``EnsembleConfig``,
``EnsembleRecord``, ``classify`` and ``sample_graph`` exported here) is
imported on first use, with numpy, so the exact routes start without
either.
"""

import importlib

from .errors import InputError, InternalConsistencyError
from .graph import (
    SignedWeightedGraph,
    SpanningTree,
    TwoForest,
    component_counts,
    graph_to_dict,
    is_connected,
    minor,
    parse_graph,
    spanning_trees,
    two_forests,
)
from .spectral import (
    LaplacianMatrix,
    SpectralIndex,
    crossing_count,
    eigenvalues,
    index_limits,
    inertia,
    laplacian,
    tree_sum,
)
from .crossing import (
    CrossingPolynomial,
    RayCrossings,
    crossing_polynomial,
    degree_support,
    graph_ray_crossings,
    graph_ray_polynomial,
    ray_crossings,
    ray_polynomial,
)
from .discriminants import (
    Factorization,
    Wildcard,
    cycle_basis_minor,
    degenerate_point,
    discriminant,
    dodgson_identity_holds,
    factorize,
    forest_sum,
    gap,
    graph_factorization,
    laplacian_minor,
    wildcard_basis,
    wildcard_discriminant,
    wildcard_forest_sum,
)
from .stability import StabilityReport, axis_thresholds, certify

__version__ = "0.1.0"

__all__ = [
    "InputError",
    "InternalConsistencyError",
    "SignedWeightedGraph",
    "SpanningTree",
    "TwoForest",
    "component_counts",
    "graph_to_dict",
    "is_connected",
    "minor",
    "parse_graph",
    "spanning_trees",
    "two_forests",
    "LaplacianMatrix",
    "SpectralIndex",
    "crossing_count",
    "eigenvalues",
    "index_limits",
    "inertia",
    "laplacian",
    "tree_sum",
    "CrossingPolynomial",
    "RayCrossings",
    "crossing_polynomial",
    "degree_support",
    "graph_ray_crossings",
    "graph_ray_polynomial",
    "ray_crossings",
    "ray_polynomial",
    "Factorization",
    "Wildcard",
    "cycle_basis_minor",
    "degenerate_point",
    "discriminant",
    "dodgson_identity_holds",
    "factorize",
    "forest_sum",
    "gap",
    "graph_factorization",
    "laplacian_minor",
    "wildcard_basis",
    "wildcard_discriminant",
    "wildcard_forest_sum",
    "StabilityReport",
    "axis_thresholds",
    "certify",
    "EnsembleConfig",
    "EnsembleRecord",
    "classify",
    "sample_graph",
]

_ENSEMBLE_NAMES = ("EnsembleConfig", "EnsembleRecord", "classify", "sample_graph")


def __getattr__(name):
    """Import the ensemble on first use of one of its names (PEP 562)."""
    if name == "ensemble" or name in _ENSEMBLE_NAMES:
        module = importlib.import_module(".ensemble", __name__)
        return module if name == "ensemble" else getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), "ensemble", *_ENSEMBLE_NAMES})
