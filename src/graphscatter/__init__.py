"""Scattering matrices and spectra of metric graphs with leads.

Every name below is exported lazily (PEP 562): ``import graphscatter``
loads no numpy, and a name imports its submodule on first access. The
submodules resolve as attributes the same way (``graphscatter.spectral``).
So ``python -m graphscatter.cli`` reaches the ``cli`` module before
numpy loads, and that module can still choose the BLAS thread count.
"""

import importlib

_EXPORTS = {
    "errors": (
        "DanglingVertexReference",
        "DegenerateConstantPolynomial",
        "DegreeMismatch",
        "DisconnectedGraph",
        "EmptyInterval",
        "FitResidualTooLarge",
        "GraphScatterError",
        "IncommensurableLengths",
        "InvalidCycle",
        "MissingVertexMatrix",
        "NearPole",
        "NonConstantLocals",
        "NonPositiveLength",
        "NotCompact",
        "NotInvolutive",
        "NumericalError",
        "ReductionNotApplicable",
        "SeriesDiverges",
        "SizeMismatch",
        "SpecFileError",
        "UnknownFixture",
        "UnknownSolid",
        "ValidationError",
    ),
    "graph": (
        "ExternalEdge",
        "Graph",
        "GraphSpec",
        "InternalEdge",
        "LocalSpec",
        "ModeIndex",
        "build_graph",
        "external_permutation",
        "internal_permutation",
        "mode_index",
    ),
    "local": (
        "LocalScattering",
        "check_rotation_invariance",
        "constant_local",
        "kirchhoff_local",
        "momentum_local",
        "tetra2_local",
    ),
    "assemble": (
        "BlockSystem",
        "PropagationMatrix",
        "assemble_blocks",
        "assemble_propagation",
        "resolve_locals",
    ),
    "solve": (
        "TotalSMatrix",
        "grid_defects",
        "internal_modes",
        "path_sum_oracle",
        "scattering_grid",
        "total_scattering",
        "verify_involution",
        "verify_unitarity",
    ),
    "spectral": (
        "PoleRecord",
        "SecularPolynomial",
        "compact_spectrum",
        "eigenmomenta",
        "find_poles",
        "secular_determinant",
        "secular_polynomial",
        "symmetry_factor_check",
    ),
    "generators": (
        "Colouring",
        "Fixture",
        "canonical",
        "commuting_colour_matrices",
        "platonic",
        "triangle_and_star_pair",
        "triangle_star_permutation",
    ),
    "specfile": (
        "graph_to_spec",
        "load_spec",
        "locals_from_spec",
        "parse_spec",
        "save_spec",
        "spec_to_dict",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = frozenset((*_EXPORTS, "cli"))

__all__ = sorted(_HOME)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _HOME:
        value = getattr(importlib.import_module("." + _HOME[name], __name__), name)
    elif name in _SUBMODULES:
        value = importlib.import_module("." + name, __name__)
    else:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__) | _SUBMODULES)
