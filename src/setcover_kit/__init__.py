"""setcover-kit: set-valued mappings with strong covering behaviour.

Representations of compact sets and set-valued maps in finite-dimensional
normed spaces, excess/Hausdorff computations, falsification-style
certification of covering and set-covering constants, a constructive
solver for set-inclusion problems phi(x) <= psi(x), and exact
penalization of inclusion-constrained minimization with verified
thresholds.
"""

from .geometry import (
    Ball,
    BoundednessFlag,
    Box,
    DimensionMismatchError,
    Distance,
    Distances,
    EnlargedSet,
    Family,
    FormGroup,
    NormedSpace,
    Orthant,
    PointCloud,
    Regions,
    Rounds,
    SamplingBudgetError,
    SetRep,
    Sphere,
    SublevelRegion,
    VPolytope,
    boundedness,
    contains_point,
    dist_point,
    dist_to_each,
    dists,
    enlarge,
    excess,
    hausdorff,
    sample,
    sample_enlargement,
    translate_set,
)
from .mappings import (
    Affine,
    BallValued,
    Composed,
    ConstantExhaustedError,
    Dilation,
    DimensionCapError,
    Epigraphical,
    LipschitzEstimate,
    MapConstants,
    MapSpec,
    NotSetCoveringError,
    PolyhedralProcess,
    ScaledNormRadial,
    SphereScale,
    SublinearSystem,
    Sum,
    UnitBallTranslate,
    WitnessUnavailableError,
    alpha_of,
    beta_of,
    cover_witness,
    empirical_lipschitz,
    eval_map,
    eval_maps,
    fallback_witness,
)
from .codec import (
    InstanceError,
    map_from_json,
    map_to_json,
    set_from_json,
    set_to_json,
)
from .certify import (
    Certificate,
    InteriorReport,
    ProcessAnomalyError,
    Violation,
    check_covering,
    check_exc_semicontinuity,
    check_inverse_errorbound,
    check_inverse_hausdorff,
    check_set_covering,
    interior_radius,
    inverse_distance,
    recheck_violation,
)
from .solver import (
    InclusionInstance,
    NotExpandingError,
    SolveTrace,
    StronglyFixedResult,
    solve_inclusion,
    strongly_fixed,
)
from .penalty import (
    AbsCoord,
    CalmnessEstimate,
    ConverseRecord,
    Linear,
    MinimizeResult,
    NormToPoint,
    ObjectiveSpec,
    ParamFamily,
    PenaltyProblem,
    SemiregularityEstimate,
    WeightedSum,
    calmness_diagnostic,
    converse_check,
    minimize_penalty,
    objective_lipschitz,
    objective_value,
    penalty_value,
    penalty_values,
    semiregularity_estimate,
    threshold,
    verify_exactness,
)

__version__ = "0.1.0"
