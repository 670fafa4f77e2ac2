"""Exact weighted sum-of-squares certificates in enveloping algebras.

Core layers: validated Lie algebras by structure constants (lie), exact
normal-form arithmetic in the enveloping algebra (pbw), expression parsing
(exprs), finite-dimensional star-representations with exact positivity
decisions (reps), the Gram/SDP membership pipeline with rational rounding and
bit-exact verification (gram, numeric, certs, sos), the conjugated-search
driver (driver), and mechanical relation audits (auditor).
"""

from .errors import (
    AlgebraMismatch,
    AntisymmetryViolation,
    ContextInvalid,
    CyclicAlias,
    DegreeMismatch,
    EnvSosError,
    ExprSyntaxError,
    JacobiViolation,
    NegativeExponent,
    NonCentralA,
    NonRealSymbol,
    NotAbelian,
    NotHermitean,
    OddDegreeTarget,
    UnknownAlgebra,
    UnknownIdentifier,
)
from .lie import LieAlgebra, b_constants, builtin, validate
from .pbw import (
    AlgebraElement,
    canonical_a,
    conjugate_by,
    reduce_odd,
    square_sum_form,
    x0,
)
from .poly import CommutativePoly, squared_norm_poly
from .exprs import parse, render
from .reps import (
    DualWindowResult,
    FiniteDimRep,
    direct_sum,
    is_su2_standard,
    make_point_rep,
    make_spin_rep,
    scan_dual_window,
    spin_window,
)
from .gram import CommGramProblem, GramSkeleton, SdpProblem, build_gram_problem
from .numeric import SolveOptions, solve_feasibility
from .certs import (
    CommutativeSosCertificate,
    WeightedSosCertificate,
    round_and_verify,
    verify_certificate,
    verify_certificate_json,
)
from .sos import FeasibilityReport, commutative_sos, find_certificate
from .driver import (
    SearchTranscript,
    TheoremInstance,
    check_assumption_i,
    check_assumption_ii,
    search_certificate,
)
from .auditor import (
    OperatorAlgebraContext,
    audit_cleared_commutator,
    audit_cleared_degree2,
    audit_r_relations,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
