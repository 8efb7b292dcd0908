"""Exact algebraic entropy of continuous endomorphisms of locally
linearly compact vector spaces over discrete fields.

Two independent engines compute the entropy of banded eventually
shift-stationary operators: direct trajectory iteration and the
limit-free codimension formula for verified automorphisms.  A theorem
suite machine-checks the structural laws (addition, logarithmic law,
conjugation invariance, monotonicity, discrete-corner reduction) on
finitely presented instances.
"""

__version__ = "0.1.0"

from .errors import (
    AmbientMismatch,
    DivisionByZero,
    EngineDisagreement,
    EngineInvariant,
    FieldMismatch,
    InfiniteField,
    InvalidOperator,
    InvarianceFailure,
    LlcentError,
    NonConstantProfile,
    NotAnInverse,
    NotContained,
    ParseError,
    ProfileMismatch,
    ValidationError,
)
from .fields import PrimeField, QQ, RationalField, field_from_name
from .linalg import SubspaceBasis, invert_matrix, quotient_dim, subspace_combine
from .spaces import (
    BlockwisePattern,
    CompactOpenSubspace,
    LlcVector,
    Profile,
    blockwise_restrict_quotient,
    cofinal_chain,
    open_combine,
    open_contains,
    open_quotient_dim,
)
from .operators import (
    BandedOperator,
    ComponentDecomposition,
    automorphism_image,
    compose,
    decompose_vc_vd,
    direct_sum_operator,
    identity_operator,
    induce_on_subspace_and_quotient,
    make_shift,
    power,
    validate,
    verify_inverse,
    zero_operator,
)
from .entropy import (
    DEFAULT_CONFIG,
    EntropyConfig,
    EntropyResult,
    Status,
    UnitEntropy,
    h_alg_value,
    limit_free_relative_entropy,
    relative_entropies,
    shift_closed_form,
    total_entropy,
    trajectory_relative_entropy,
)
from .theorems import PropertyReport, Verdict, check_addition, check_property
from .specfile import SpecFile, parse_spec, serialize_spec, spec_from_dict, to_canonical_dict
