"""Net survival from cancer-registry data with contamination-corrected life tables.

The package estimates net survival (Pohar-Perme), the relative survival
ratio (Ederer I), and the crude probability of cancer death, either against
the raw life-table cohort survival or against a non-cancer survival obtained
by solving a discrete integral equation that removes prevalent cancer
patients and future cancer deaths from the life-table population.  A
microsimulation harness reproduces the accompanying bias/rMSE study.
"""

from .adjustment import (
    AdjustmentEngine,
    PrevalentCaseSurvival,
    Solution,
    SolverError,
    prevalent_case_survival,
    solve_noncancer_survival,
)
from .diagnostics import Diagnostics
from .estimators import (
    RiskSetSummary,
    crude_probability,
    ederer1,
    evaluate_at_years,
    pohar_perme,
    population_survival,
)
from .extrapolation import (
    ExtendedSurvival,
    extend_survival,
    follow_up_cutoff,
)
from .incidence import (
    IncidenceTable,
    PrevalenceCalculator,
    compute_incidence,
    load_incidence_table,
    time_to_diagnosis_increments,
)
from .io import load_registry
from .lifetable import (
    DiagonalSurvival,
    LifeTable,
    diagonal_survival,
    load_life_table,
)
from .registry import (
    Banding,
    EventTable,
    PatientRecord,
    RegistryFrame,
    StepSurvivalCurve,
    StratumKey,
    build_strata,
    kaplan_meier,
    merge_small_strata,
)
from .simulation import (
    Cohort,
    ExperimentResult,
    ScenarioConfig,
    derive_tables,
    excess_hazard,
    generate_cohort,
    make_registry,
    run_experiment,
    run_replicate,
    true_net_survival,
    true_noncancer_survival,
)
from .survival_provider import OverallSurvivalProvider

__version__ = "0.1.0"
