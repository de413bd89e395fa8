"""Fixed-point-free circle actions on simply connected compact 5-manifolds.

Decide which (H2, w2) classes admit one, construct an explicit Seifert
bundle presentation over a connected sum of CP^2's when they do, and verify
the construction by recomputing every algebraic invariant from the
presentation.  All arithmetic is exact.
"""

from .abgroup import (
    AbelianGroup,
    IntMatrix,
    PrimePower,
    group_from_cokernel,
    is_isomorphic,
    primary_decomposition,
    smith_normal_form,
)
from .classify import (
    INFINITY,
    FiveManifoldClass,
    GateVerdict,
    circle_action_admissible,
    smale_barden_realizable,
    validate_i,
)
from .cohomology import (
    INDETERMINATE,
    CohomologyReport,
    UnknownNonzero,
    full_report,
    h1_order,
    h2_group,
    h3_torsion,
    restriction_matrix,
    simply_connected,
    w2_class,
    wu_invariant,
)
from .construct import (
    ConstructionDefect,
    GateRejection,
    build,
    enumerate_admissible,
    schedule,
    solve_b,
    solve_twist,
    solve_unit_congruence,
    verify_roundtrip,
)
from .orbit_local import (
    LocalInvariants,
    OrbitInvariant,
    StabilizerRep,
    local_invariants,
    orbit_invariant_from_rep,
    reconstruct_rep,
)
from .sasakian import (
    MAX_EXCEPTIONAL_VALUES,
    InconclusiveSearch,
    Quadratic,
    SasakiReport,
    adjunction_genus,
    interval_density_check,
    quadratic_cover_search,
    sasaki_check,
)
from .seifert import (
    Divisor,
    Nonorientable,
    Orientable,
    SeifertSpec,
    SpecSchemaError,
    SpecValidationError,
    chern_class,
    chern_mu,
)

__version__ = "0.1.0"
