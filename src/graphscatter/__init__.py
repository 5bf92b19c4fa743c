"""Scattering matrices and spectra of metric graphs with leads."""

from .errors import (
    DanglingVertexReference,
    DegenerateConstantPolynomial,
    DegreeMismatch,
    DisconnectedGraph,
    EmptyInterval,
    FitResidualTooLarge,
    GraphScatterError,
    IncommensurableLengths,
    InvalidCycle,
    MissingVertexMatrix,
    NearPole,
    NonConstantLocals,
    NonPositiveLength,
    NotCompact,
    NotInvolutive,
    NumericalError,
    ReductionNotApplicable,
    SeriesDiverges,
    SizeMismatch,
    SpecFileError,
    UnknownFixture,
    UnknownSolid,
    ValidationError,
)
from .graph import (
    ExternalEdge,
    Graph,
    GraphSpec,
    InternalEdge,
    LocalSpec,
    ModeIndex,
    build_graph,
    external_permutation,
    internal_permutation,
    mode_index,
)
from .local import (
    LocalScattering,
    check_rotation_invariance,
    constant_local,
    kirchhoff_local,
    momentum_local,
    tetra2_local,
)
from .assemble import (
    BlockSystem,
    PropagationMatrix,
    assemble_blocks,
    assemble_propagation,
    resolve_locals,
)
from .solve import (
    TotalSMatrix,
    grid_defects,
    internal_modes,
    path_sum_oracle,
    scattering_grid,
    total_scattering,
    verify_involution,
    verify_unitarity,
)
from .spectral import (
    PoleRecord,
    SecularPolynomial,
    compact_spectrum,
    eigenmomenta,
    find_poles,
    secular_determinant,
    secular_polynomial,
    symmetry_factor_check,
)
from .generators import (
    Colouring,
    Fixture,
    canonical,
    commuting_colour_matrices,
    platonic,
    triangle_and_star_pair,
    triangle_star_permutation,
)
from .specfile import (
    graph_to_spec,
    load_spec,
    locals_from_spec,
    parse_spec,
    save_spec,
    spec_to_dict,
)

__version__ = "0.1.0"
