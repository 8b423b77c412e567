"""qdesk: exact desk-scale quantum register simulation.

Dense state vectors over named qubit registers, projective measurement
with exact outcome statistics, circuit programs with a measurement-deferral
rewrite and outcome backdating, period finding and drawer-search games, and
a classical-vs-quantum step-cost model.  Everything stochastic takes an
explicit seeded generator; everything called "exact" enumerates instead of
sampling.
"""

from .errors import (
    DegenerateStateError,
    ProgramError,
    QdeskError,
    RewriteNotApplicableError,
    ShapeMismatchError,
    UnknownRegisterError,
)
from .qstate import (
    PureState,
    RegisterLayout,
    StateDistance,
    compare_up_to_global_phase,
    make_basis_state,
    normalize,
)
from .gates import FunctionTable, ModedFunctionTable, modexp_table
from .measure import (
    DensityMatrix,
    MeasurementRecord,
    OutcomeDistribution,
    PhasedMixture,
    ProjectionOperator,
    analytic_average_density,
    average_density,
    born_sample,
    outcome_distribution,
    partial_trace,
    sample_phases,
)
from .circuit_ir import (
    CircuitProgram,
    Dephase,
    GateOp,
    Measure,
    Prepare,
    RunTrace,
    apply_instruction,
    backdate_outcome,
    defer_measurements,
    equivalent_distributions,
    measure_register,
    project,
    run,
    sample,
    unitary_prefix,
)
from .shor import (
    PeriodFindingInstance,
    build_modexp,
    build_periodic,
    exact_outcome_distribution,
    extract_period,
    period_circuit,
    single_run_success_probability,
    state_after_oracle,
)
from .grover import (
    GameInstance,
    GameTranscript,
    classical_worst_case_queries,
    iteration_count,
    mixture_equivalence_check,
    run_classical_game,
    run_extended_grover,
    run_standard_grover,
    standard_circuit,
    standard_grover_state,
)
from .costmodel import (
    StageCost,
    stage_costs,
    stage_table,
)

__version__ = "0.1.0"
