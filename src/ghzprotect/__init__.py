"""Weak-measurement feed-forward protection of GHZ states under amplitude damping."""

from ghzprotect.closedform import (
    class_probability,
    eta_opt_probability,
    fid_total,
    metrics_closedform,
    prob_total,
    qfi_total,
)
from ghzprotect.dense import (
    DENSE_MAX_QUBITS,
    BranchRun,
    aggregate_metrics_dense,
    do_nothing_baseline,
    ghz_state,
    ghz_vector,
    qfi_general,
    run_all_branches,
    run_protocol_branch,
)
from ghzprotect.operators import (
    adc_basis_action,
    adc_kraus,
    flip_op,
    rotation_op,
    weak_meas_op,
)
from ghzprotect.optimize import (
    UNIT_PROBABILITY,
    ConstraintInfeasibleError,
    GridSpec,
    Objective,
    OptResult,
    ParetoPoint,
    ParetoScanResult,
    maximize_fidelity_at_unit_probability,
    maximize_metric,
    pareto_scan,
    sweep_r,
)
from ghzprotect.params import (
    Convention,
    DegeneracyError,
    Engine,
    MetricsRow,
    ProtocolParams,
    validate_params,
)
from ghzprotect.structured import (
    aggregate_complex,
    aggregate_metrics,
    metrics_grid,
)
from ghzprotect.validate import CheckResult, format_report, run_validation

__version__ = "0.1.0"

__all__ = [
    "BranchRun",
    "CheckResult",
    "ConstraintInfeasibleError",
    "Convention",
    "DegeneracyError",
    "DENSE_MAX_QUBITS",
    "Engine",
    "GridSpec",
    "MetricsRow",
    "Objective",
    "OptResult",
    "ParetoPoint",
    "ParetoScanResult",
    "ProtocolParams",
    "UNIT_PROBABILITY",
    "adc_basis_action",
    "adc_kraus",
    "aggregate_complex",
    "aggregate_metrics",
    "aggregate_metrics_dense",
    "class_probability",
    "do_nothing_baseline",
    "eta_opt_probability",
    "fid_total",
    "flip_op",
    "format_report",
    "ghz_state",
    "ghz_vector",
    "maximize_fidelity_at_unit_probability",
    "maximize_metric",
    "metrics_closedform",
    "metrics_grid",
    "pareto_scan",
    "prob_total",
    "qfi_general",
    "qfi_total",
    "rotation_op",
    "run_all_branches",
    "run_protocol_branch",
    "run_validation",
    "sweep_r",
    "validate_params",
    "weak_meas_op",
    "__version__",
]
