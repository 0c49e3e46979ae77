"""chainopt: incremental subgradient optimization driven by Markov chains.

Minimizes a weighted sum of convex functions over a box by letting one
or more finite Markov chains pick which component's subgradient to apply
at each iteration, averaging the parallel updates, and projecting. Ships
exact chain analysis (recurrent classes, periods, Cesaro and power
limits), the weight computation that ties chain statistics to the
objective, seeded reproducible runs, and a benchmark study harness.
"""

from .markov import (
    ROW_SUM_TOL,
    SOLVE_RESIDUAL_TOL,
    ChainDecomposition,
    ChainState,
    InvalidDistributionError,
    MarkovError,
    NegativeEntryError,
    NoConvergenceError,
    RowSumError,
    SingularSolveError,
    TransitionMatrix,
    cesaro_limit,
    decompose,
    decomposition_report,
    limiting_distribution,
    make_chain,
    power_limit,
    read_distribution_text,
    read_matrix_text,
    validate_stochastic,
    walk,
    write_matrix_text,
)
from .problems import (
    Box,
    ConvexSumProblem,
    L1Component,
    NoiseModel,
    make_l1_problem,
    objective,
    project,
    sample_noise_block,
    weights_from_chains,
)
from .optimizer import (
    CROSSING_THRESHOLDS,
    ChainSpec,
    ConstantStepsize,
    DiminishingBlockStepsize,
    InvalidNeighborsError,
    InvalidParametersError,
    RunConfig,
    Trace,
    UnreachableClassWarning,
    make_baseline,
    parse_trace_csv,
    run,
    run_batch,
    start_chains,
    stepsize,
    thin_trace,
    write_trace_csv,
)
from .harness import (
    METHODS,
    TESTS,
    DecayFit,
    DecayReport,
    DegenerateFitError,
    ExperimentSpec,
    InvalidSpecError,
    UnknownMethodError,
    UnknownTestError,
    build_experiment,
    decay_diagnostic,
    default_schedule,
    first_crossings,
    noise_for_test,
    run_suite,
    study_chain_starts,
    study_design,
    study_matrix,
    study_weights,
)

__version__ = "0.1.0"
