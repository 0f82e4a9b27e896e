"""Exact multiplier ideals and modules of monomial ideals.

Newton-polyhedron lattice conditions computed in exact rational
arithmetic, toric cone models of Rees and extended Rees algebras, and
machine verification of the graded decompositions of their multiplier
modules together with the pair-level rationality biconditional they imply.
"""

from .errors import DomainError, NotNormalError, ParseError, ReesmultError, ResourceLimitError
from .hypersurface import (
    DivisorData,
    LocalHypersurfaceModel,
    LocalMonomial,
    divisor_data,
    is_section,
    normal_form,
    regrade,
    snc_multiplier_section,
    verify_local_decomposition,
)
from .ideals import (
    JumpReport,
    MonomialIdeal,
    MonomialModule,
    default_box,
    integral_closure,
    is_normal,
    jumping_numbers,
    lct,
    minimalize,
    multiplier_ideal,
    multiplier_module,
    newton,
    omega_module,
    power,
)
from .polyhedra import (
    Cone,
    HalfSpace,
    Polyhedron,
    ThresholdSystem,
    cube,
    dual_cone,
    newton_from_points,
    primitive,
)
from .rees import (
    GradedModuleSpec,
    GradedToricAlgebra,
    VerificationReport,
    canonical_module,
    decomposition_rhs_S,
    decomposition_rhs_T,
    extended_rees_cone,
    graded_piece,
    is_pair_rational,
    multiplier_module_general,
    multiplier_module_principal,
    principal_divisor_pairings,
    rees_cone,
    verify_theoremA,
    verify_theoremB_S,
    verify_theoremB_T,
)

__version__ = "0.1.0"
