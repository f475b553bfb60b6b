"""Net survival from cancer-registry data with contamination-corrected life tables.

The package estimates net survival (Pohar-Perme), the relative survival
ratio (Ederer I), and the crude probability of cancer death, either against
the raw life-table cohort survival or against a non-cancer survival obtained
by solving a discrete integral equation that removes prevalent cancer
patients and future cancer deaths from the life-table population.  A
microsimulation harness reproduces the accompanying bias/rMSE study.
"""

from .adjustment import (
    AdjustedPopulationSurvival,
    AdjustmentEngine,
    PrevalentCaseSurvival,
    SolverError,
    prevalent_case_survival,
    solve_noncancer_survival,
)
from .diagnostics import Diagnostics
from .estimators import (
    PopulationSurvivalProvider,
    adjusted_population_provider,
    crude_probability,
    ederer1,
    evaluate_at_years,
    naive_population_provider,
    pohar_perme,
)
from .extrapolation import (
    ExtendedSurvival,
    extend_survival,
    fit_exponential_tail,
    follow_up_cutoff,
    loglinear_interpolate,
    select_anchor_times,
)
from .incidence import (
    IncidenceTable,
    PrevalenceCalculator,
    compute_incidence,
    load_incidence_table,
    prevalence,
    time_to_diagnosis_cdf,
    time_to_diagnosis_increment,
    time_to_diagnosis_increments,
)
from .io import load_registry, write_registry
from .lifetable import (
    DiagonalSurvival,
    LifeTable,
    diagonal_cumulative_hazard,
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
    nelson_aalen,
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
