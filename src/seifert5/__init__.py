"""Fixed-point-free circle actions on simply connected compact 5-manifolds.

Decide which (H2, w2) classes admit one, construct an explicit Seifert
bundle presentation over a connected sum of CP^2's when they do, and verify
the construction by recomputing every algebraic invariant from the
presentation.  All arithmetic is exact.
"""

from .abgroup import AbelianGroup
from .classify import (
    INFINITY,
    FiveManifoldClass,
    GateVerdict,
    circle_action_admissible,
    smale_barden_realizable,
    validate_i,
)
from .cohomology import INDETERMINATE, CohomologyReport, full_report, w2_class
from .construct import (
    ConstructionDefect,
    GateRejection,
    build,
    enumerate_admissible,
    solve_unit_congruence,
    verify_roundtrip,
)
from .orbit_local import LocalInvariants, StabilizerRep, local_invariants
from .sasakian import (
    MAX_EXCEPTIONAL_VALUES,
    InconclusiveSearch,
    Quadratic,
    SasakiReport,
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
    chern_mu,
)

__version__ = "0.1.0"
