"""Amplitude-amplification operator family with optimal-angle selection and
one-step marked-item search."""

from .errors import (
    DenseCapExceeded,
    DimensionError,
    NormalizationError,
    ParameterOutOfRange,
    StateFormatError,
    SumZero,
)
from .family import (
    DENSE_CAP_DEFAULT,
    AmplifierSpec,
    ConditionViolated,
    ReflectionForm,
    SignChoice,
    apply,
    c_functional,
    dense_matrix,
    eta_functional,
    isometry_residual,
    make_spec,
    make_spec_from_beta0,
    reflection_form,
)
from .grover import (
    corollary_equivalence_check,
    dumps_trace_csv,
    grover_apply,
    grover_iterate,
)
from .optimal import (
    AmplifyReport,
    amplify_optimal,
    dumps_sweep_csv,
    optimal_theta,
    theta_sweep,
)
from .search import (
    ComparisonReport,
    SearchProblem,
    compare_with_grover,
    one_step_search,
    relabel_apply,
)
from .state import (
    StateVector,
    dumps_state_vector,
    load_state_vector,
    loads_state_vector,
    save_state_vector,
)

__version__ = "0.1.0"

__all__ = [
    "AmplifierSpec",
    "AmplifyReport",
    "ComparisonReport",
    "ConditionViolated",
    "DENSE_CAP_DEFAULT",
    "DenseCapExceeded",
    "DimensionError",
    "NormalizationError",
    "ParameterOutOfRange",
    "ReflectionForm",
    "SearchProblem",
    "SignChoice",
    "StateFormatError",
    "StateVector",
    "SumZero",
    "amplify_optimal",
    "apply",
    "c_functional",
    "compare_with_grover",
    "corollary_equivalence_check",
    "dense_matrix",
    "dumps_state_vector",
    "dumps_sweep_csv",
    "dumps_trace_csv",
    "eta_functional",
    "grover_apply",
    "grover_iterate",
    "isometry_residual",
    "load_state_vector",
    "loads_state_vector",
    "make_spec",
    "make_spec_from_beta0",
    "one_step_search",
    "optimal_theta",
    "reflection_form",
    "relabel_apply",
    "save_state_vector",
    "theta_sweep",
]
