"""Exact certification of uniform structures on distance-regular graphs.

The package constructs the classical families (Hamming, Johnson, halved
cubes, Doob, Gosset, Hermitian dual polar and Hermitian forms graphs),
builds the lowering/flat/raising split of the adjacency matrix at a base
vertex, decides with exact rational arithmetic whether a graph supports a
(strongly) uniform structure, and decomposes the standard module into
irreducible modules of the Terwilliger algebra.
"""

from .config import Config, DEFAULT
from .errors import (
    BudgetExceeded,
    DecompositionUnavailable,
    DisconnectedGraph,
    ExactnessError,
    GraphError,
    InvalidParams,
    IrrationalSpectrum,
    NegativeKrein,
    NotALadder,
    NotDistanceRegular,
    NotThin,
    ParseError,
    UnsupportedField,
)
from .graph_core import (
    ClassicalParameters,
    DistancePartition,
    Graph,
    IntersectionArray,
    KreinTensor,
    SpectralData,
    bfs_layers,
    classical_parameter_candidates,
    classical_parameters,
    gaussian_binomial,
    intersection_array,
    krein_parameters,
    near_polygon_check,
    primitive_idempotents,
    q_polynomial_orderings,
    read_edge_list,
    spectrum,
    write_edge_list,
)
from .families import (
    FamilySpec,
    build_family,
    doob,
    dual_polar_2a,
    gosset,
    halved_cube,
    hamming,
    hermitian_forms,
    johnson,
    shrikhande,
)
from .terwilliger import (
    FlattenedGraph,
    LFRSplit,
    cartesian_product,
    flatten,
    graph_isomorphic,
    lfr_split,
)
from .uniform import (
    LayerSolution,
    ParameterMatrix,
    UniformCertificate,
    UniformStructure,
    certify_uniform,
    check_parameter_conditions,
    non_thin_diagnostic,
    principal_determinant,
    solve_layer,
    verify_given,
)
from .tmodules import (
    LadderScalars,
    ModuleDescriptor,
    decompose,
    doob_symbolic_check,
    dual_endpoint,
    endpoint1_census,
    ladder_scalars,
    standard_basis,
    tf_isomorphic,
    theta_tilde,
    tightness,
)

__version__ = "0.1.0"
