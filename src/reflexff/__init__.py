"""reflexff: exact operator-space analysis over small finite fields.

Computes reflexive closures, reflexivity, minimal rank, local linear
dependence, and the coset counting quantities for spaces of linear maps
between finite-dimensional GF(q) vector spaces, and exhaustively verifies
the minimal-rank bound mrk(S) <= 2*dim(S) - 2 on non-reflexive spaces.
"""

__version__ = "0.1.0"

from .census import (
    CensusReport,
    Coset,
    TraceReport,
    census_report,
    coset_make,
    coset_rank_profile,
    incidence_count,
    nprime_count,
    proof_trace,
)
from .errors import (
    DependentBasisError,
    GuardExceeded,
    MembershipError,
    TheoremViolation,
)
from .field import FieldSpec, field_from_order, field_make
from .kernels import BACKEND
from .matrix import (
    Matrix,
    iter_projective,
    iter_vectors,
    mat_kernel,
    mat_rank,
    rref_rows,
)
from .opspace import (
    AnalysisReport,
    OperatorSpace,
    analyze,
)
from .search import (
    SearchParams,
    SearchReport,
    construct_regular_rep,
    enumerate_subspaces,
    exhaustive_verify,
    find_extremal,
    gaussian_binomial,
    random_verify,
)
from .serialize import (
    dumps,
    field_from_json,
    field_to_json,
    load_matrix,
    load_space,
    matrix_from_json,
    matrix_to_json,
    space_from_json,
    space_to_json,
)

