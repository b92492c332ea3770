"""Spectral analysis of signed weighted graph Laplacians.

Exact-arithmetic toolkit for graphs whose edge signs encode a black/red
coloring: spectral index and its limits, the multilinear crossing polynomial,
eigenvalue-crossing discriminants and their spanning-forest / cycle-basis
duals, hyperplane factorization via wildcard discriminants, l1 stability
certificates, and Monte Carlo ensembles of random signed graphs.

``import signedlap`` loads ``signedlap.errors`` alone.  Every other
module, and every name exported here, is imported on first use (PEP 562).
A submodule loads itself and what it imports: the CLI imports the layer
each subcommand runs, so a ``signedlap <command>`` process starts with its
own modules only, and never the enumeration oracles (``oracles``).  The
first exported name, whichever it is, loads the exact layers and the
oracles (every module but ``ensemble``, ``_kernels`` and ``cli``), as
``import signedlap`` did before; the ensemble's names add
``signedlap.ensemble`` with numpy.  So a program written against the
package's names (perfbench's ``checks`` among them) has every exact layer
loaded before it calls one.
"""

import importlib

from .errors import InputError, InternalConsistencyError

__version__ = "0.1.0"

# each exported name under the module that defines it, in ``__all__`` order
_EXPORTS = {
    "errors": ("InputError", "InternalConsistencyError"),
    "graph": (
        "SignedWeightedGraph",
        "component_counts",
        "graph_to_dict",
        "is_connected",
        "parse_graph",
    ),
    "oracles": ("SpanningTree", "TwoForest", "minor", "spanning_trees", "two_forests"),
    "spectral": (
        "LaplacianMatrix",
        "SpectralIndex",
        "crossing_count",
        "eigenvalues",
        "index_limits",
        "inertia",
        "laplacian",
        "tree_sum",
    ),
    "crossing": (
        "CrossingPolynomial",
        "RayCrossings",
        "crossing_polynomial",
        "degree_support",
        "graph_ray_crossings",
        "graph_ray_polynomial",
        "ray_crossings",
        "ray_polynomial",
    ),
    "discriminants": (
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
    ),
    "stability": ("StabilityReport", "axis_thresholds", "certify"),
    "ensemble": ("EnsembleConfig", "EnsembleRecord", "classify", "sample_graph"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
# the exact layers and the oracles, which the first exported name loads
_LIBRARY = ("graph", "oracles", "spectral", "crossing", "polyroots", "discriminants", "stability")
_SUBMODULES = (
    "_kernels",
    "cli",
    "crossing",
    "discriminants",
    "ensemble",
    "errors",
    "graph",
    "oracles",
    "polyroots",
    "spectral",
    "stability",
)

__all__ = list(_MODULE_OF)


def __getattr__(name):
    """Import the exact layers and the module that defines ``name``, or
    the submodule ``name`` alone, on first use (PEP 562).  Nothing is cached
    here: an exported name is always what its module holds, and an imported
    submodule becomes an attribute of the package as any import makes it."""
    if name in _MODULE_OF:
        for module in _LIBRARY:
            importlib.import_module(f".{module}", __name__)
        return getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_MODULE_OF, *_SUBMODULES})
