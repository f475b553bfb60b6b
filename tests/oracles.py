"""Independent reference implementations the package is checked against.

* `triangular_cells` and `solve_noncancer_survival_triangular`: the S_P
  system assembled as one explicit strictly-lower-triangular kernel matrix
  per lattice cell, solved by forward substitution, every cell the targets
  depend on once; `triangular_residuals` returns its r(t).
* `SurvivalLagTable`: every stratum's overall survival on one dense grid of
  half-year lags, from one provider call, and `lag_table`, the table over
  every lag a solve could read.
* `ScalarPrevalence`: the prevalence recursion one age and one diagonal at a
  time, as a dot product per age, reading the dense lag table, with the
  per-cell lag-weight vector and survival-from-diagnosis matrix of the
  prevalent cases;
  `ScalarIngredients` feeds it and the other one-cell solver inputs to the
  triangular solver; `prevalence_inputs_from_views` builds the solver's
  one prevalence call from a bundle's one-cell views.  `cell_keys`,
  `take_cells` and `lookup_keys` convert between keys and the
  (demographics, codes, ages, years) cells the package takes.
* `ir_at` and `q_at`: one incidence rate and one death probability,
  clamped and counted as the tables' diagonal gathers do.
* `build_strata_reference`: strata numbered by `np.unique`'s sort.
* `merge_small_strata_reference`: the plain rescanning stratum merger on
  {key: size} dicts, which rebuilds the small-stratum list, the neighbour
  pool and the alias map on every merge.
* `true_noncancer_survival`: the generator's non-cancer survival from an
  exact age, in closed form.
* `draw_potentials_reference`, `generate_cohort_reference` and
  `derive_tables_reference`: the cohort draw with Weibull(1) and
  exponential(1) draws and the excess hazard evaluated per subject, and the
  life table and incidence rates one gender at a time through boolean
  masks, built as {(age, year, demographics): value} dicts.
* `true_net_survival_reference`: the generator truth from one draw of the
  whole truth cohort, held at once.
* `make_registry_reference`: the registry of one window from its own
  censoring draw.
* `resolve_stratum`: the stratum one key maps onto, by the scalar clamp and
  nearest-stratum search over the strata of its demographics; `strata_of`
  and `alias_of` give a provider's strata and holders as key dicts.
* `PerStratumSurvival`, `select_anchor_times` and `fit_exponential_tail`:
  registry overall survival one stratum at a time (event table, Kaplan-Meier,
  anchors, `np.polyfit` tail, population hardening against a grid read
  cell by cell), the path the provider's one event table of all strata
  replaced.
* `diagonal_cumulative_hazard`: the life table's piecewise-linear cumulative
  hazard along a diagonal.
* `nelson_aalen`: the all-cause cumulative-hazard step function of an event
  table.
* `time_to_diagnosis_cdf` and `time_to_diagnosis_increment`: the
  time-to-diagnosis law in closed form, one value at a time.
* `DenseRiskSet`, `dense_pohar_perme` and `dense_crude_probability`: the
  estimators over one whole strata x times at-risk matrix (built with
  `np.add.at` and a reversed cumsum) and whole strata x times S_P and
  Lambda_P matrices, with their off-grid evaluations;
  `dense_pohar_perme_sums` gives Pohar-Perme's at-risk and death sums;
  `population_cumulative_hazard` evaluates Lambda_P cell by cell, and
  `exact_population_hazard` sums its increments over the at-risk patients
  in exact rational arithmetic.  Their S_P source has `survival_matrix(keys,
  t)` and `grid(keys)`, as `conftest.LifeTableSP`; Lambda_P is built from
  the grids floored at `WEIGHT_FLOOR`.
* `lag_since_diagnosis_increments` and `lag_since_diagnosis_cdf`: the
  prevalent-case diagnosis-lag distribution, read from the prevalence
  recursion's own terms, and its cdf summed from the increments.
* `load_registry`, `load_life_table`, `load_incidence_table` and
  `load_counts`, with the row-list `check_table_extent`: the CSV loaders one
  `csv.DictReader` record at a time, each record's checks made in turn,
  the tables built from {(age, year, demographics): value} dicts.
* `compute_incidence_reference`: the incidence rates of `--population`,
  diagnoses over person-years, joined on cell dicts one cell at a time.
* `write_rows_csv_reference`: the CSV writer one dict row at a time, each
  value formatted and handed to `csv.writer`.
"""
import csv
import math
from contextlib import contextmanager, nullcontext
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

import numpy as np

from netadjust.adjustment import R_FLOOR, SP_CLIP_EPS, SolverError
from netadjust.diagnostics import Diagnostics, ensure_diagnostics, log
from netadjust.estimators import WEIGHT_FLOOR
from netadjust.incidence import (
    IR_CLIP,
    IncidenceError,
    IncidenceTable,
    PrevalenceCalculator,
    PrevalenceError,
    time_to_diagnosis_increments,
)
from netadjust.io import MAX_AGE, REGISTRY_HEADER, RegistryFormatError
from netadjust.lifetable import LifeTable, LifeTableError
from netadjust.registry import (
    MAX_TABLE_CELLS,
    EventTable,
    RegistryFrame,
    StratumKey,
    cell_key,
    stratum_keys,
)
from netadjust.simulation import LIFETABLE_MAX_AGE, Cohort, excess_hazard
from netadjust.survival_provider import ProviderError

from conftest import cell_table, stratum_cells


def triangular_cells(ing, keys, diagnostics=None):
    """Solve every lattice cell the targets depend on, each cell once;
    returns {cell: (values, clips, guards, r)} for the cells solved.

    A cell that needs horizon n passes n - k on to its k-th shift for each
    k < n with nonzero diagnosis mass dF_k (the kernel terms with dF_k = 0
    vanish), so a cell's diagnosis mass is read only when it needs two or
    more horizons.  Every ingredient is read with one-cell calls, once per
    cell."""
    diag = ensure_diagnostics(diagnostics)
    K = ing.horizon
    need: dict[StratumKey, int] = {key: K for key in keys}
    mass: dict[StratumKey, np.ndarray] = {}
    stack = list(need)
    while stack:
        s = stack.pop()
        n = need[s]
        if n < 2:
            continue
        if s not in mass:
            mass[s] = np.asarray(ing.diagnosis_mass(stratum_cells([s]))[0], dtype=np.float64)[:K]
        for k in range(1, n):
            s2 = StratumKey(s.age + k, s.year + k, s.demographics)
            if mass[s][k - 1] != 0.0 and need.get(s2, 0) < n - k:
                need[s2] = n - k
                stack.append(s2)
    # dependencies (shifts toward higher age at smaller horizons) first
    order = sorted(need, key=lambda s: (s.demographics, s.year - s.age, -s.age))
    solved: dict[StratumKey, tuple] = {}
    so_grids: dict[StratumKey, np.ndarray] = {}
    for s in order:
        n = need[s]
        cell = stratum_cells([s])
        a = float(ing.alpha(cell)[0])
        lt = np.asarray(ing.lt_survival_grid(cell)[0], dtype=np.float64)
        if a == 0.0:
            numer = lt[1 : n + 1]
        elif a >= 1.0:
            raise SolverError(f"prevalence {a} >= 1 at {s}")
        else:
            numer = (lt - a * np.asarray(ing.prevalent_grid(cell)[0], dtype=np.float64))[1 : n + 1]
        dF = mass[s] if n >= 2 else np.zeros(K)
        H = np.zeros((n, n))
        for k in range(1, n):
            if dF[k - 1] == 0.0:
                continue
            shifted = StratumKey(s.age + k, s.year + k, s.demographics)
            if shifted not in so_grids:
                so_grids[shifted] = np.asarray(ing.so_grid(stratum_cells([shifted]))[0], dtype=np.float64)
            so = so_grids[shifted]
            sp = solved[shifted][0]
            m = n - k
            H[k:, k - 1] = 1.0 - so[1 : m + 1] / sp[1 : m + 1]
        r = 1.0 - H @ dF[:n]
        too_small = r < R_FLOOR
        if too_small.any():
            t_bad = int(np.flatnonzero(too_small)[0]) + 1
            raise SolverError(
                f"residual denominator r({t_bad})={r[t_bad - 1]:.3e} at {s}; inputs are inconsistent"
            )
        raw = numer / ((1.0 - a) * r)
        values = np.ones(n + 1)
        clips = guards = 0
        for t in range(1, n + 1):
            v = raw[t - 1]
            c = min(max(v, SP_CLIP_EPS), 1.0)
            if c != v:
                clips += 1
            v = c
            if v > values[t - 1]:
                guards += 1
                v = values[t - 1]
            values[t] = v
        solved[s] = (values, clips, guards, r)
        diag.incr("sp_clip", clips)
        diag.incr("sp_monotone_guard", guards)
    return solved


class TriangularCurve(NamedTuple):
    """S_P of one target cell at t = 0..K, with its own clip and guard counts."""

    origin: StratumKey
    values: np.ndarray
    clip_count: int
    guard_count: int


def solve_noncancer_survival_triangular(ing, keys, diagnostics=None):
    """S_P of the target cell with its own clip/guard counts, or a list of
    them for a sequence of targets solved together (each cell they depend
    on solved once)."""
    single = isinstance(keys, StratumKey)
    targets = [keys] if single else list(keys)
    solved = triangular_cells(ing, targets, diagnostics)
    curves = [TriangularCurve(key, *solved[key][:3]) for key in targets]
    return curves[0] if single else curves


def triangular_residuals(ing, key) -> np.ndarray:
    """r(t), t = 1..K, at the target cell from the oracle's kernel matrix."""
    return triangular_cells(ing, [key])[key][3]


def ir_at(table: IncidenceTable, age: int, year: int, demo: tuple, diagnostics=None) -> float:
    """IR at one cell, clamped into the table's ranges (counted) and 0 at a
    missing cell (counted); an empty table is 0 and counts nothing."""
    if not table._values.size:
        return 0.0
    a = min(max(age, table.age_min), table.age_max)
    y = min(max(year, table.year_min), table.year_max)
    if (a, y) != (age, year) and diagnostics is not None:
        diagnostics.incr("incidence_clamp")
    d = table._demo_index.get(demo)
    value = math.nan if d is None else table._values.item(d, a - table.age_min, y - table.year_min)
    if math.isnan(value):
        if diagnostics is not None:
            diagnostics.incr("incidence_missing_cell")
        return 0.0
    return value


def q_at(lt: LifeTable, age: int, year: int, demo: tuple, diagnostics=None) -> float:
    """q at one cell, clamped into the table's ranges (counted); a missing
    cell raises."""
    a = min(max(age, lt.age_min), lt.age_max)
    y = min(max(year, lt.year_min), lt.year_max)
    if (a, y) != (age, year) and diagnostics is not None:
        diagnostics.incr("lifetable_clamp")
    d = lt._demo_index.get(demo)
    q = math.nan if d is None else lt._values.item(d, a - lt.age_min, y - lt.year_min)
    if math.isnan(q):
        raise LifeTableError(f"no life-table cell (age={a}, year={y}, {demo})")
    return q


class SurvivalLagTable:
    """Overall survival of each stratum on one grid of lags 0, 1/2, 1, ..., max_lag.

    Column c of `values` holds lag c/2: integer lags sit at even columns,
    the half-year-offset lags s - 1/2 at odd ones.  Row r holds the
    provider's stratum r; the first read of `values` fills every row with
    one call of the provider on the whole grid, counted in the provider's
    counters unless `counted` is false (see `uncounted`)."""

    def __init__(self, provider, max_lag: int, counted: bool = True):
        self.provider = provider
        self.lookup = provider.lookup
        self.n_strata = len(provider.strata)
        self.max_lag = int(max_lag)
        self.lags = 0.5 * np.arange(2 * self.max_lag + 1, dtype=np.float64)
        self.counted = counted
        self._values = None

    @property
    def values(self) -> np.ndarray:
        """Strata x lags array of overall survival."""
        if self._values is None:
            with (nullcontext() if self.counted else uncounted(self.provider)):
                self._values = self.provider.survival(np.arange(self.n_strata), self.lags)
        return self._values


def lag_table(provider, horizon: int) -> tuple[SurvivalLagTable, int]:
    """The uncounted lag table over every lag a solve could read from
    `provider`, and the oldest cell it covers: a solve's chains reach the
    strata's oldest age plus horizon - 1, and read lags up to that plus the
    horizon."""
    max_age = int(provider.cells[2].max()) + horizon - 1
    return SurvivalLagTable(provider, max_age + horizon, counted=False), max_age


@contextmanager
def uncounted(provider):
    """`provider` with its curves built and its counters sent, until the
    block ends, to a throwaway `Diagnostics` (a provider without counters
    is left as it is)."""
    if not hasattr(provider, "diagnostics"):
        yield provider
        return
    provider._build()
    counted, provider.diagnostics = provider.diagnostics, Diagnostics()
    try:
        yield provider
    finally:
        provider.diagnostics = counted


def survival_reads(provider, incidence, keys, read, horizon: int, offset: int) -> dict[int, np.ndarray]:
    """The lags at which one prevalence pass over the cells `keys`, with
    the read cells `read`, reads S_O, as {stratum row: sorted lags}.

    Each diagonal (birth year, demographics) of `keys` reaches its oldest
    key.  Every age d below a diagonal's reach with IR > 0 reads the
    stratum of its cell at lags 1..oldest+K-d, each less offset / 2 years;
    every read cell reads its stratum at lags 0..K.  Strata resolve by
    `resolve_stratum`, so nothing is counted."""
    reach: dict[tuple, int] = {}
    for key in keys:
        ident = (key.year - key.age, key.demographics)
        reach[ident] = max(reach.get(ident, 0), key.age)
    rows = strata_of(provider)
    lags: dict[int, set] = {}
    for (birth, demo), oldest in reach.items():
        for d in range(oldest):
            if ir_at(incidence, d, birth + d, demo) > 0.0:
                row = rows[resolve_stratum(provider, StratumKey(d, birth + d, demo))[0]]
                lags.setdefault(row, set()).update(s - offset / 2 for s in range(1, oldest + horizon - d + 1))
    for key in read:
        lags.setdefault(rows[resolve_stratum(provider, key)[0]], set()).update(range(horizon + 1))
    return {row: np.array(sorted(found), dtype=np.float64) for row, found in lags.items()}


def survival_read_counters(provider, reads: dict[int, np.ndarray]) -> Diagnostics:
    """The counters of evaluating S_O at exactly the `reads` of
    `survival_reads`, stratum by stratum: `so_population_cap`, each read
    cell whose value the population cap lowers below the stratum's curve,
    and `lifetable_clamp`, each step of a stratum's population grid, one
    year past the later of its last lag read and its tau, that `q_at`
    clamps into the life table."""
    diag = Diagnostics()
    curve, keys = provider._build(), stratum_keys(provider.cells)
    for row, t in reads.items():
        with uncounted(provider):
            capped = provider.survival([row], t)[0]
        diag.incr("so_population_cap", int((capped < curve.survival_at(t, [row])[0]).sum()))
        cell = keys[provider.strata[row]]
        for j in range(int(np.floor(max(t.max(), curve.tau[row]))) + 1):
            q_at(provider.population_floor, cell.age + j, cell.year + j, cell.demographics, diag)
    return diag


class _DiagonalState:
    """Per-diagonal recursion state (one birth cohort, one demographic group).

    Arrays are indexed by age and sized once for ages 0..max_age; alpha is
    known for the first `n` ages (rows and irga for the first n - 1), ir for
    the first `n_ir` and the cohort survival for the first `n_surv`.
    """

    def __init__(self, max_age: int):
        size = max_age + 1
        self.n = 1                          # alpha(age 0) = 0 by construction
        self.n_ir = 0
        self.n_surv = 1
        self.alpha = np.zeros(size)
        self.irga = np.empty(size)          # IR(d) * (1 - alpha(d)) * cohort survival to d
        self.ir = np.empty(size)
        self.surv = np.ones(size)           # life-table cohort survival from age 0 along the diagonal
        self.rows = np.empty(size, dtype=np.intp)   # lag-table row of the age-d diagnosis stratum


class ScalarPrevalence:
    """The prevalence recursion as `PrevalenceCalculator` ran it before its
    diagonals were batched: each diagonal is extended one age at a time,
    reading one IR (`ir_at`), one q (`q_at`) and one lag-table row per age,
    and alpha(a) is one dot product of the lag-(a-d) survival anti-diagonal
    with the irga terms.  The prevalent cases' survival is the per-cell lag
    weights times the per-cell survival-from-diagnosis matrix."""

    def __init__(self, incidence, table: SurvivalLagTable, life_table, offset: int, max_age: int,
                 diagnostics=None):
        self.incidence = incidence
        self.table = table
        self.life_table = life_table
        self.offset = offset
        self.max_age = max_age
        self.diagnostics = ensure_diagnostics(diagnostics)
        self._diagonals: dict[tuple[int, tuple], _DiagonalState] = {}
        self._rows: dict[StratumKey, int] = {}

    @classmethod
    def of(cls, calc: PrevalenceCalculator, diagnostics=None) -> "ScalarPrevalence":
        """A walk over the inputs of `calc` and the lag table of its overall survival."""
        table, max_age = lag_table(calc.overall_survival, calc.horizon)
        return cls(calc.incidence, table, calc.life_table, calc.offset, max_age, diagnostics)

    def _row(self, key: StratumKey) -> int:
        """The key's lag-table row, looked up once per key."""
        if key not in self._rows:
            self._rows[key] = int(lookup_keys(self.table, [key])[0][0])
        return self._rows[key]

    def _ensure(self, key: StratumKey, age: int) -> _DiagonalState:
        if age > self.max_age:
            raise PrevalenceError(
                f"cell {key} is older than the {self.max_age} years the survival lag table covers"
            )
        yob = key.year - key.age
        ident = (yob, key.demographics)
        state = self._diagonals.get(ident)
        if state is None:
            state = self._diagonals[ident] = _DiagonalState(self.max_age)
        if state.n > age:
            return state
        for d in range(state.n_ir, age):
            state.ir[d] = ir_at(self.incidence, d, yob + d, key.demographics, self.diagnostics)
            state.n_ir = d + 1
        for d in range(state.n_surv - 1, age):
            q = q_at(self.life_table, d, yob + d, key.demographics, self.diagnostics)
            state.surv[d + 1] = state.surv[d] * (1.0 - q)
            state.n_surv = d + 2
        for a in range(state.n, age + 1):
            if state.surv[a] <= 0.0:
                raise PrevalenceError(
                    f"life-table cohort extinct at age {a} on diagonal "
                    f"(birth year {yob}, {key.demographics}); prevalence undefined"
                )
            d = a - 1
            state.rows[d] = self._row(StratumKey(d, yob + d, key.demographics))
            state.irga[d] = state.ir[d] * (1.0 - state.alpha[d]) * state.surv[d]
            terms = self.table.values[state.rows[:a], 2 * np.arange(a, 0, -1) - self.offset]
            value = float(terms @ state.irga[:a]) / state.surv[a]
            if value >= 1.0:
                raise PrevalenceError(
                    f"prevalence {value:.6f} >= 1 at age {a} on diagonal "
                    f"(birth year {yob}, {key.demographics}); incidence and survival inputs disagree"
                )
            state.alpha[a] = value
            state.n = a + 1
        return state

    def prevalence(self, key: StratumKey) -> float:
        if key.age < 0:
            raise ValueError("prevalence needs age >= 0")
        return float(self._ensure(key, key.age).alpha[key.age])

    def prevalent_mix_weights(self, key: StratumKey) -> np.ndarray:
        """Attrition-normalized diagnosis mass per lag s = 1..age, over alpha."""
        a = key.age
        alpha = self.prevalence(key)
        if alpha <= 0.0:
            raise PrevalenceError(f"prevalent mixture undefined at {key}: prevalence is 0")
        state = self._ensure(key, a)
        return state.irga[:a][::-1] / (state.surv[a] * alpha)

    def survival_from_diagnosis_matrix(self, key: StratumKey, horizon: int) -> np.ndarray:
        """M[s-1, t] = S_O(t + s | diagnosed age-s years back), t = 0..horizon,
        read at the recursion's within-year offset."""
        a = key.age
        state = self._ensure(key, a)
        s = np.arange(1, a + 1)
        lags = 2 * (s[:, None] + np.arange(horizon + 1)) - self.offset
        return self.table.values[state.rows[a - s][:, None], lags]

    def prevalent_survival(self, key: StratumKey, horizon: int) -> np.ndarray:
        """Lag weights times the survival-from-diagnosis matrix, clipped
        into [0, 1] and starting at 1."""
        values = self.prevalent_mix_weights(key) @ self.survival_from_diagnosis_matrix(key, horizon)
        values = np.clip(values, 0.0, 1.0)
        values[0] = 1.0
        return values


def cell_keys(cells) -> list[StratumKey]:
    """The key of each of the (demographics, codes, ages, years) cells."""
    return [cell_key(cells, i) for i in range(len(cells[1]))]


def take_cells(cells, index):
    """The cells at the positions `index`."""
    return cells[0], *(column[index] for column in cells[1:])


def lookup_keys(provider, keys):
    """`provider.lookup` of a list of keys: their rows and clamped flags."""
    return provider.lookup(stratum_cells(list(keys)))


def prevalence_inputs_from_views(ing, cells, read):
    """The solver's `prevalence_inputs(cells, read)` from an ingredient
    bundle's one-cell views: `alpha` of the cells, `prevalent_grid` of those
    with nonzero alpha (a row of 1 for the others) and `so_grid` of the
    read cells (not called when there are none)."""
    alpha = np.asarray(ing.alpha(cells), dtype=np.float64)
    prev = np.ones((len(alpha), ing.horizon + 1))
    mixed = np.flatnonzero(alpha != 0.0)
    if mixed.size:
        prev[mixed] = ing.prevalent_grid(take_cells(cells, mixed))
    so = ing.so_grid(read) if len(read[1]) else np.ones((0, ing.horizon + 1))
    return alpha, prev, so


class ScalarIngredients:
    """Solver inputs computed one cell at a time, independently of
    `AdjustmentEngine`: alpha and the prevalent-case survival from
    `ScalarPrevalence`, the life-table grid as a running product of `q_at`,
    the diagnosis mass from `ir_at` and the S_O grid from a lag table row.
    Each cell's inputs are computed once, so every counter counts each
    cell once."""

    def __init__(self, life_table, incidence, overall_survival, horizon=15, lag_eval="mid_year",
                 diagnostics=None):
        self.life_table = life_table
        self.incidence = incidence
        self.horizon = int(horizon)
        self.diagnostics = ensure_diagnostics(diagnostics)
        table, max_age = lag_table(overall_survival, self.horizon)
        offset = 0 if lag_eval == "year_start" else 1
        self.walk = ScalarPrevalence(incidence, table, life_table, offset, max_age, self.diagnostics)
        self._cache: dict[tuple[str, StratumKey], object] = {}

    def survival_read_counters(self) -> Diagnostics:
        """The S_O counters of one prevalence pass over the cells whose
        alpha was read, with the cells whose S_O grid was read
        (`survival_reads`): the counts a solve of the same cells makes."""
        keys = {name: [key for kind, key in self._cache if kind == name] for name in ("alpha", "so")}
        reads = survival_reads(self.walk.table.provider, self.incidence, keys["alpha"], keys["so"],
                               self.horizon, self.walk.offset)
        return survival_read_counters(self.walk.table.provider, reads)

    def _each(self, name, cells, compute):
        out = []
        for key in cell_keys(cells):
            if (name, key) not in self._cache:
                self._cache[(name, key)] = compute(key)
            out.append(self._cache[(name, key)])
        return np.array(out)

    def _lt(self, key):
        values = [1.0]
        for j in range(self.horizon):
            q = q_at(self.life_table, key.age + j, key.year + j, key.demographics, self.diagnostics)
            values.append(values[-1] * (1.0 - q))
        return np.array(values)

    def _mass(self, key):
        out, undiagnosed = [], 1.0
        for j in range(self.horizon):
            rate = ir_at(self.incidence, key.age + j, key.year + j, key.demographics, self.diagnostics)
            out.append(undiagnosed * rate)
            undiagnosed *= 1.0 - rate
        return np.array(out)

    def _so(self, key):
        table = self.walk.table
        return table.values[self.walk._row(key), : 2 * self.horizon + 1 : 2]

    def lt_survival_grid(self, cells):
        return self._each("lt", cells, self._lt)

    def alpha(self, cells):
        return self._each("alpha", cells, self.walk.prevalence)

    def prevalent_grid(self, cells):
        return self._each("prev", cells, lambda key: self.walk.prevalent_survival(key, self.horizon))

    def so_grid(self, cells):
        return self._each("so", cells, self._so)

    prevalence_inputs = prevalence_inputs_from_views

    def diagnosis_mass(self, cells):
        return self._each("mass", cells, self._mass)


def build_strata_reference(frame: RegistryFrame):
    """`build_strata` numbering the strata by `np.unique`'s sort of one
    integer per (demographics, age, year) cell."""
    age0, year0 = int(frame.age.min()), int(frame.year.min())
    n_ages, n_years = int(frame.age.max()) - age0 + 1, int(frame.year.max()) - year0 + 1
    codes, labels = np.unique(
        (frame.demo_code * n_ages + (frame.age - age0)) * n_years + (frame.year - year0), return_inverse=True
    )
    demo, cell = np.divmod(codes, n_ages * n_years)
    age, year = np.divmod(cell, n_years)
    return (frame.demo_vocab, demo, age + age0, year + year0), np.bincount(labels), labels.reshape(-1)


def merge_small_strata_reference(sizes, min_size=10, diagnostics=None):
    """Fold strata with fewer than min_size subjects into a neighbor.

    Preference: adjacent age with the same year, then the nearest existing
    stratum with the same demographics (Chebyshev distance on (age, year),
    ties toward lower age then lower year).  Works on stratum sizes.
    """
    diag = ensure_diagnostics(diagnostics)
    merged = dict(sizes)
    alias: dict[StratumKey, StratumKey] = {k: k for k in sizes}

    def neighbor(key: StratumKey) -> StratumKey | None:
        pool = [k for k in merged if k.demographics == key.demographics and k != key]
        if not pool:
            return None
        for cand in (StratumKey(key.age - 1, key.year, key.demographics),
                     StratumKey(key.age + 1, key.year, key.demographics)):
            if cand in merged:
                return cand
        return min(
            pool,
            key=lambda k: (max(abs(k.age - key.age), abs(k.year - key.year)),
                           abs(k.age - key.age) + abs(k.year - key.year),
                           k.age, k.year),
        )

    while True:
        small = [k for k, n in merged.items() if n < min_size]
        if not small:
            break
        small.sort(key=lambda k: (merged[k], k))
        key = small[0]
        target = neighbor(key)
        if target is None:
            break
        merged[target] += merged.pop(key)
        for orig, cur in alias.items():
            if cur == key:
                alias[orig] = target
        diag.incr("stratum_merge")
    return merged, alias


class InfiniteHazardError(ValueError):
    """q = 1 makes the annual hazard infinite at the named cell."""


def diagonal_cumulative_hazard(
    lt: LifeTable, key: StratumKey, t, diagnostics: Diagnostics | None = None
):
    """Piecewise-linear cumulative hazard along the diagonal.

    Annual slope is -log(1 - q_j); at integer t this equals -log of the
    diagonal survival.  Raises InfiniteHazardError when a needed q equals 1.
    """
    t_arr = np.atleast_1d(np.asarray(t, dtype=np.float64))
    if (t_arr < 0).any():
        raise ValueError("cumulative hazard requires t >= 0")
    steps = int(np.ceil(t_arr.max())) if t_arr.size else 0
    if steps == 0:
        out = np.zeros_like(t_arr)
        return out if np.ndim(t) else float(out[0])
    q = lt.q_diagonal(stratum_cells([key]), steps, diagnostics)[0]
    bad = np.flatnonzero(q == 1.0)
    if bad.size:
        j = int(bad[0])
        raise InfiniteHazardError(
            f"q=1 at cell (age={key.age + j}, year={key.year + j}, {key.demographics})"
        )
    slopes = -np.log1p(-q)
    cum = np.concatenate(([0.0], np.cumsum(slopes)))
    idx = np.minimum(np.floor(t_arr).astype(int), steps)
    frac = t_arr - idx
    slope_at = np.where(idx < steps, slopes[np.minimum(idx, steps - 1)], 0.0)
    out = cum[idx] + frac * slope_at
    return out if np.ndim(t) else float(out[0])


class CumulativeHazardCurve:
    """Non-decreasing step function, 0 at t = 0."""

    def __init__(self, jump_times: np.ndarray, values: np.ndarray):
        self.jump_times = np.asarray(jump_times, dtype=np.float64)
        self.values = np.asarray(values, dtype=np.float64)
        if self.jump_times.size and (np.diff(self.values) < -1e-15).any():
            raise ValueError("cumulative hazard must be non-decreasing")

    def hazard_at(self, t):
        t = np.asarray(t, dtype=np.float64)
        if self.jump_times.size == 0:
            out = np.zeros_like(t)
            return out if out.ndim else float(out)
        idx = np.searchsorted(self.jump_times, t, side="right") - 1
        out = np.where(idx >= 0, self.values[np.maximum(idx, 0)], 0.0)
        return out if out.ndim else float(out)

    __call__ = hazard_at


def nelson_aalen(table: EventTable) -> CumulativeHazardCurve:
    """Cumulative-hazard step function with increments deaths / at-risk."""
    has_death = table.deaths > 0
    t = table.times[has_death]
    inc = table.deaths[has_death] / table.at_risk[has_death]
    return CumulativeHazardCurve(t, np.cumsum(inc))


def time_to_diagnosis_cdf(
    ir: IncidenceTable, key: StratumKey, t: int, diagnostics: Diagnostics | None = None
) -> float:
    """P(diagnosed within t years | cancer-free at key) = 1 - prod (1 - IR)."""
    if t < 0:
        raise ValueError("t must be >= 0")
    if t == 0:
        return 0.0
    rates = ir.ir_diagonal(stratum_cells([key]), int(t), diagnostics)[0]
    return float(1.0 - np.prod(1.0 - rates))


def time_to_diagnosis_increment(
    ir: IncidenceTable, key: StratumKey, k: int, diagnostics: Diagnostics | None = None
) -> float:
    if k < 1:
        raise ValueError("k must be >= 1")
    return float(time_to_diagnosis_increments(ir, stratum_cells([key]), k, diagnostics)[0][-1])


def lag_since_diagnosis_increments(calc: PrevalenceCalculator, key: StratumKey) -> np.ndarray:
    """Mass of the prevalent-case diagnosis-lag distribution at s = 1..age:
    the lag-s contributions to alpha (patient survival times the
    attrition-normalized diagnosis mass), over alpha, from the one-age walk
    over the inputs of `calc`."""
    walk = ScalarPrevalence.of(calc)
    alpha = walk.prevalence(key)
    if alpha <= 0.0:
        raise PrevalenceError(f"lag distribution undefined at {key}: prevalence is 0")
    a = key.age
    state = walk._ensure(key, a)
    d = np.arange(a - 1, -1, -1)
    summands = walk.table.values[state.rows[d], 2 * (a - d) - walk.offset] * state.irga[d]
    return summands / state.surv[a] / alpha


def lag_since_diagnosis_cdf(calc: PrevalenceCalculator, key: StratumKey, t: int) -> float:
    """P(diagnosed within the last t years | prevalent at key)."""
    if t < 0:
        raise ValueError("t must be >= 0")
    if t == 0:
        return 0.0
    inc = lag_since_diagnosis_increments(calc, key)
    return float(inc[: min(int(t), inc.shape[0])].sum())


class DenseRiskSet:
    """A registry's risk sets with the at-risk counts as one strata x times
    matrix; deaths one entry per death in stratum order."""

    def __init__(self, frame: RegistryFrame):
        self.times, t_idx = np.unique(frame.time, return_inverse=True)
        order = np.lexsort((frame.year, frame.age, frame.demo_code))
        sa, sy, sc = frame.age[order], frame.year[order], frame.demo_code[order]
        first = np.concatenate(([True], (np.diff(sa) != 0) | (np.diff(sy) != 0) | (np.diff(sc) != 0)))
        self.keys = [
            StratumKey(int(sa[i]), int(sy[i]), frame.demo_vocab[int(sc[i])])
            for i in np.flatnonzero(first)
        ]
        rows = np.empty(frame.n, dtype=np.intp)
        rows[order] = np.cumsum(first) - 1
        # count each patient at its own time, then sum from the right
        self.at_risk = np.zeros((len(self.keys), self.times.shape[0]))
        np.add.at(self.at_risk, (rows, t_idx), 1.0)
        np.cumsum(self.at_risk[:, ::-1], axis=1, out=self.at_risk[:, ::-1])
        dead = order[frame.event[order]]
        self.death_rows, self.death_times = rows[dead], t_idx[dead]
        self.pooled_deaths = np.bincount(self.death_times, minlength=self.times.shape[0])
        self.pooled_at_risk = self.at_risk.sum(axis=0)


def _dense_locate(u, t):
    """(m, lo) as the estimators locate t > 0 on the observed times u."""
    m = int(np.searchsorted(u, t, side="left"))
    if m == u.shape[0]:
        return m - 1, None
    if u[m] == t:
        return m, None
    return m, (float(u[m - 1]) if m > 0 else 0.0)


def dense_pohar_perme_sums(rs: DenseRiskSet, provider):
    """(denom, denom_prev, weighted_deaths) of Pohar-Perme from whole
    matrices: at each observed time, the at-risk sum of 1/S_P at that time
    and at the previous one (S_P = 1 before the first), and the summed 1/S_P
    of the deaths."""
    u = rs.times
    sp = provider.survival_matrix(rs.keys, u)
    denom_prev = np.concatenate(
        ([rs.at_risk[:, 0].sum()], (rs.at_risk[:, 1:] / sp[:, :-1]).sum(axis=0))
    )
    w = np.reciprocal(sp, out=sp)
    denom = (rs.at_risk * w).sum(axis=0)
    weighted_deaths = np.bincount(
        rs.death_times, weights=w[rs.death_rows, rs.death_times], minlength=u.shape[0]
    )
    return denom, denom_prev, weighted_deaths


def dense_pohar_perme(rs: DenseRiskSet, provider):
    """(cum_hazard, value_at) of Pohar-Perme from whole matrices."""
    u = rs.times
    denom, denom_prev, weighted_deaths = dense_pohar_perme_sums(rs, provider)
    cum = np.cumsum(weighted_deaths / denom - (np.log(denom) - np.log(denom_prev)))

    def value_at(t):
        t = float(t)
        if t == 0:
            return 1.0
        m, lo = _dense_locate(u, t)
        if lo is None:
            return float(np.exp(-float(cum[m])))
        base = float(cum[m - 1]) if m > 0 else 0.0
        y = rs.at_risk[:, m]
        s = provider.survival_matrix(rs.keys, np.array([lo, t]))
        lam = base - float(np.log((y / s[:, 1]).sum()) - np.log((y / s[:, 0]).sum()))
        return float(np.exp(-lam))

    return cum, value_at


def _floored_grid(provider, keys):
    return np.maximum(provider.grid(keys), WEIGHT_FLOOR)


def population_cumulative_hazard(provider, keys, t):
    """Strata x times Lambda_P of `keys`, one cell at a time: piecewise
    linear through -log of each stratum's floored annual grid, the last
    yearly slope carried past the grid, capped at -log(floor)."""
    logs = -np.log(_floored_grid(provider, keys))
    slopes = np.diff(logs, axis=1)
    t = np.atleast_1d(np.asarray(t, dtype=np.float64))
    k = np.minimum(np.floor(t).astype(int), slopes.shape[1] - 1)
    return np.minimum(logs[:, k] + slopes[:, k] * (t - k), -np.log(WEIGHT_FLOOR))


def exact_population_hazard(rs: DenseRiskSet, provider):
    """For each observed time u_j, the at-risk patients' summed integral of
    the population hazard over (u_{j-1}, u_j], as Fractions: every yearly
    slope of -log of the floored grids (the last one carried past the
    grid, no cap) times the exact overlap of the interval with its year."""
    slopes = np.diff(-np.log(_floored_grid(provider, rs.keys)), axis=1)
    n_seg = slopes.shape[1]
    rates = [[Fraction(float(r)) for r in row] for row in slopes]
    edges = [Fraction(0)] + [Fraction(float(u)) for u in rs.times]
    out = []
    for j in range(len(rs.times)):
        lo, hi = edges[j], edges[j + 1]
        total = Fraction(0)
        for k in range(n_seg):
            stop = hi if k == n_seg - 1 else min(hi, Fraction(k + 1))
            overlap = stop - max(lo, Fraction(k))
            if overlap > 0:
                total += overlap * sum(
                    int(rs.at_risk[i, j]) * rates[i][k] for i in range(len(rs.keys))
                )
        out.append(total)
    return out


def dense_crude_probability(rs: DenseRiskSet, provider):
    """({cancer, other, cancer_isotonic}, value_at) of the crude
    probability from whole matrices."""
    na_inc = rs.pooled_deaths / rs.pooled_at_risk
    km_left = np.concatenate(([1.0], np.cumprod(1.0 - na_inc)[:-1]))
    lp = population_cumulative_hazard(provider, rs.keys, rs.times)
    pieces = np.empty_like(lp)
    pieces[:, 0] = lp[:, 0]
    np.subtract(lp[:, 1:], lp[:, :-1], out=pieces[:, 1:])
    pieces *= rs.at_risk
    avg_pop = pieces.sum(axis=0) / rs.pooled_at_risk
    cancer = np.cumsum(km_left * (na_inc - avg_pop))
    curves = {
        "cancer": cancer,
        "other": np.cumsum(km_left * avg_pop),
        "cancer_isotonic": np.maximum.accumulate(cancer),
    }

    def value_at(t, which="cancer"):
        t = float(t)
        if t == 0:
            return 0.0
        values = curves[which]
        m, lo = _dense_locate(rs.times, t)
        if lo is None:
            return float(values[m])
        base = float(values[m - 1]) if m > 0 else 0.0
        if which == "cancer_isotonic":
            return base
        y = rs.at_risk[:, m]
        lam = population_cumulative_hazard(provider, rs.keys, np.array([lo, t]))
        piece = float(km_left[m]) * float((y * (lam[:, 1] - lam[:, 0])).sum() / y.sum())
        return base + (-piece if which == "cancer" else piece)

    return curves, value_at


class ExtrapolationError(ValueError):
    """Tail fit impossible for this stratum."""


def select_anchor_times(curve, tau: float, h: int) -> np.ndarray:
    """The last h integer grid times <= tau where the curve is positive.

    Fewer than h available -> all of them; fewer than two -> error (the
    caller falls back to carrying the last value forward).
    """
    if h < 2:
        raise ValueError("need at least two anchor points")
    grid = np.arange(0, int(np.floor(tau)) + 1, dtype=np.float64)
    positive = grid[np.reshape(curve.survival_at(grid), -1) > 0.0]
    if positive.shape[0] < 2:
        raise ExtrapolationError(f"only {positive.shape[0]} positive grid point(s) at or before tau={tau}")
    return positive[-h:]


def fit_exponential_tail(curve, anchors: np.ndarray, diagnostics: Diagnostics | None = None):
    """OLS of -log S(anchor) on anchor time by `np.polyfit`; negative slope
    clipped to 0."""
    diag = ensure_diagnostics(diagnostics)
    anchors = np.asarray(anchors, dtype=np.float64)
    if np.unique(anchors).shape[0] < 2:
        raise ExtrapolationError("anchor times are all equal; tail fit is singular")
    values = np.reshape(curve.survival_at(anchors), -1).astype(np.float64)
    if (values <= 0).any():
        raise ExtrapolationError("tail fit needs positive survival at every anchor")
    y = -np.log(values)
    g1, g0 = np.polyfit(anchors, y, 1)
    if g1 < 0.0:
        if g1 < -1e-12:
            diag.incr("extrapolation_slope_clipped")
        g1 = 0.0
        g0 = float(np.mean(y))
    return float(g0), float(g1)


class _StepCurve:
    """One right-continuous step survival curve, evaluated by searchsorted."""

    def __init__(self, jump_times, values):
        self.jump_times, self.values = jump_times, values

    def survival_at(self, t):
        t = np.asarray(t, dtype=np.float64)
        if self.jump_times.size == 0:
            return np.ones_like(t) if t.ndim else 1.0
        idx = np.searchsorted(self.jump_times, t, side="right") - 1
        out = np.where(idx >= 0, self.values[np.maximum(idx, 0)], 1.0)
        return out if out.ndim else float(out)


def strata_of(provider) -> dict[StratumKey, int]:
    """The provider's strata as {key: row of its table}, in row order."""
    keys = stratum_keys(provider.cells)
    return {keys[i]: row for row, i in enumerate(provider.strata.tolist())}


def alias_of(provider) -> dict[StratumKey, StratumKey]:
    """Every registry stratum's key, merged or not, mapped onto the key of
    the stratum that holds its records."""
    keys = stratum_keys(provider.cells)
    return {key: keys[j] for key, j in zip(keys, provider.alias.tolist())}


def resolve_stratum(provider, key: StratumKey) -> tuple[StratumKey, bool]:
    """The stratum `key` maps onto, and whether it was clamped.

    A stratum, or a key merged into one (`alias_of`), maps onto that
    stratum.  Any other key is clamped into the age and year ranges of the
    strata of its demographics; the clamped cell maps onto its own stratum
    if it has one, otherwise onto the nearest stratum by (Chebyshev
    distance, L1 distance, age, year)."""
    strata, alias = strata_of(provider), alias_of(provider)
    if alias.get(key, key) in strata:
        return alias.get(key, key), False
    keys = [k for k in strata if k.demographics == key.demographics]
    if not keys:
        raise ProviderError(f"no strata with demographics {key.demographics}")
    a = min(max(key.age, min(k.age for k in keys)), max(k.age for k in keys))
    y = min(max(key.year, min(k.year for k in keys)), max(k.year for k in keys))
    cell = StratumKey(a, y, key.demographics)
    if alias.get(cell, cell) in strata:
        return alias.get(cell, cell), True
    nearest = min(keys, key=lambda k: (max(abs(k.age - a), abs(k.year - y)),
                                       abs(k.age - a) + abs(k.year - y), k.age, k.year))
    return nearest, True


class PerStratumSurvival:
    """Overall survival one stratum at a time, as the provider computed it
    before its strata were stacked: each stratum's event table from its own
    sorted observations, its Kaplan-Meier curve by `np.cumprod`, its
    anchors and `np.polyfit` tail, and hardening against its own
    population grid read cell by cell with `q_at`.  Curves are built the
    first time a stratum is evaluated; each evaluation builds its
    population grid, one year past the later of its last time and tau.

    `provider` (an `OverallSurvivalProvider`) supplies its strata, its
    merged-away keys and its settings; a key resolves by `resolve_stratum`.
    `frame` is the registry it was built from.
    """

    def __init__(self, provider, frame, diagnostics=None):
        self.provider = provider
        self.diagnostics = ensure_diagnostics(diagnostics)
        alias = alias_of(provider)
        owner = [
            alias.get(k, k)
            for k in (StratumKey(int(a), int(y), frame.demo_vocab[int(c)])
                      for a, y, c in zip(frame.age, frame.year, frame.demo_code))
        ]
        self.observations = {}
        for key in strata_of(provider):
            mine = np.array([o == key for o in owner])
            self.observations[key] = (frame.time[mine], frame.event[mine])
        self._curves = {}

    def curve(self, stratum):
        """(step curve, tau, g0, g1) of one stratum."""
        if stratum not in self._curves:
            raw_t, raw_e = self.observations[stratum]
            order = np.argsort(raw_t, kind="mergesort")
            raw_t, raw_e = raw_t[order], raw_e[order]
            times, inverse = np.unique(raw_t, return_inverse=True)
            deaths = np.bincount(inverse, weights=raw_e.astype(float), minlength=times.shape[0])
            totals = np.bincount(inverse, minlength=times.shape[0])
            at_risk = raw_t.shape[0] - np.concatenate(([0], np.cumsum(totals)[:-1]))
            has_death = deaths > 0
            km = _StepCurve(times[has_death], np.cumprod(1.0 - deaths[has_death] / at_risk[has_death]))
            ok = at_risk >= self.provider.tau_min_at_risk
            tau = float(times[ok][-1]) if ok.any() else float(times[-1])
            try:
                anchors = select_anchor_times(km, tau, self.provider.anchor_points)
                g0, g1 = fit_exponential_tail(km, anchors, self.diagnostics)
            except ExtrapolationError:
                self.diagnostics.incr("extrapolation_fallback")
                s_tau = float(km.survival_at(tau))
                g0, g1 = (-np.log(s_tau) if s_tau > 0 else np.inf), 0.0
            self._curves[stratum] = (km, tau, g0, g1)
        return self._curves[stratum]

    def _population_hazard(self, stratum, steps):
        """The cumulative hazard of the stratum's cell population on
        [0, steps): piecewise linear through -log of its floored annual grid
        of `steps` years."""
        lt = self.provider.population_floor
        values = [1.0]
        for j in range(steps):
            q = q_at(lt, stratum.age + j, stratum.year + j, stratum.demographics, self.diagnostics)
            values.append(values[-1] * (1.0 - q))
        logs = -np.log(np.maximum(np.array(values), 1e-12))
        slopes = np.diff(logs)

        def hazard(t):
            t = np.atleast_1d(np.asarray(t, dtype=np.float64))
            idx = np.floor(t).astype(int)
            return slopes[idx] * (t - idx) + logs[idx]

        return hazard

    def survival(self, key, times):
        stratum = resolve_stratum(self.provider, key)[0]
        km, tau, g0, g1 = self.curve(stratum)
        t = np.atleast_1d(np.asarray(times, dtype=np.float64))
        s_tau = float(km.survival_at(tau))
        tail = np.minimum(np.exp(-g0 - g1 * t), s_tau)
        values = np.where(t <= tau, km.survival_at(t), tail)
        if self.provider.population_floor is None:
            return values
        span = max(self.provider.anchor_points - 1, 1)
        hazard = self._population_hazard(stratum, int(np.floor(max(t.max(), tau))) + 1)
        lam_tau = float(hazard(tau)[0])
        lam_fit = (lam_tau - float(hazard(max(tau - span, 0.0))[0])) / min(span, tau) if tau > 0 else 0.0
        lam_t = hazard(t)
        growth = np.minimum(np.exp(-(lam_t - lam_tau - lam_fit * (t - tau))), 1.0)
        cap = s_tau * np.minimum(np.exp(-(lam_t - lam_tau)), 1.0)
        out = np.where(t > tau, np.minimum(values * growth, cap), values)
        self.diagnostics.incr("so_population_cap", int((out < values).sum()))
        return out


# Row-by-row CSV loaders: one csv.DictReader record at a time, each
# record's checks made in turn.  The package's column loaders must return
# what these return, or raise the same error.

def check_table_extent(name: str, rows, error: type[ValueError]) -> None:
    """Check the (age, year, demographics) of an input file's data rows, in
    file order (row 2 first, after the header), before anything is built
    from them: every age must lie in [0, MAX_AGE], and the (demographics,
    age, year) grid they span may hold at most MAX_TABLE_CELLS cells.
    Tables keep one dense array over that grid, and registry strata are
    numbered within it.  The error names the first row that breaks either
    rule."""
    rows = list(rows)
    if not rows:
        return
    ages, years, demographics = zip(*rows)
    if not (0 <= min(ages) and max(ages) <= MAX_AGE):
        i = next(i for i, age in enumerate(ages) if not 0 <= age <= MAX_AGE)
        raise error(f"{name}:{i + 2}: age {ages[i]} outside [0, {MAX_AGE}]")
    if len(set(demographics)) * (max(ages) - min(ages) + 1) * (max(years) - min(years) + 1) <= MAX_TABLE_CELLS:
        return
    # too big: find the row that stretches it past the limit
    seen, lo, hi = set(), (ages[0], years[0]), (ages[0], years[0])
    for i, (age, year, demo) in enumerate(rows):
        seen.add(demo)
        lo, hi = (min(lo[0], age), min(lo[1], year)), (max(hi[0], age), max(hi[1], year))
        cells = len(seen) * (hi[0] - lo[0] + 1) * (hi[1] - lo[1] + 1)
        if cells > MAX_TABLE_CELLS:
            raise error(
                f"{name}:{i + 2}: age {age}, year {year} would stretch the (sex, age, year) grid to "
                f"{cells} cells (ages {lo[0]}-{hi[0]}, years {lo[1]}-{hi[1]}; at most {MAX_TABLE_CELLS})"
            )


def load_registry(path) -> RegistryFrame:
    """Read a registry CSV (age_diag,year_diag,sex,time,event)."""
    path = Path(path)
    ages, years, codes, times, events = [], [], [], [], []
    vocab: dict[tuple, int] = {}
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or not set(REGISTRY_HEADER).issubset(reader.fieldnames):
            raise RegistryFormatError(f"{path.name}: header must contain {REGISTRY_HEADER}")
        for rownum, row in enumerate(reader, start=2):
            try:
                age = int(row["age_diag"])
                year = int(row["year_diag"])
                time = float(row["time"])
                event = int(row["event"])
            except (TypeError, ValueError) as exc:
                raise RegistryFormatError(f"{path.name}:{rownum}: {exc}") from None
            if event not in (0, 1):
                raise RegistryFormatError(f"{path.name}:{rownum}: event must be 0 or 1")
            if not (math.isfinite(time) and time >= 0):
                raise RegistryFormatError(
                    f"{path.name}:{rownum}: follow-up time {row['time']!r} is not a finite non-negative number"
                )
            demo = (row["sex"].strip(),)
            ages.append(age)
            years.append(year)
            codes.append(vocab.setdefault(demo, len(vocab)))
            times.append(time)
            events.append(bool(event))
    if not ages:
        raise RegistryFormatError(f"{path.name}: no data rows")
    check_table_extent(path.name, zip(ages, years, codes), RegistryFormatError)
    return RegistryFrame(ages, years, codes, times, events, list(vocab))


def load_life_table(path) -> LifeTable:
    """Read a life-table CSV with header age,year,sex,q.

    The observed ages x years rectangle must be complete for every sex;
    missing cells (named with the file), duplicates, q outside [0,1], ages outside [0, MAX_AGE]
    and a rectangle past MAX_TABLE_CELLS cells are hard errors reported with
    their coordinates / row numbers.
    """
    path = Path(path)
    cells: dict[tuple[int, int, tuple], float] = {}
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        required = {"age", "year", "sex", "q"}
        if reader.fieldnames is None or not required.issubset(reader.fieldnames):
            raise LifeTableError(f"{path.name}: header must contain {sorted(required)}")
        for rownum, row in enumerate(reader, start=2):
            try:
                age = int(row["age"])
                year = int(row["year"])
                q = float(row["q"])
            except (TypeError, ValueError) as exc:
                raise LifeTableError(f"{path.name}:{rownum}: {exc}") from None
            demo = (row["sex"].strip(),)
            keyc = (age, year, demo)
            if keyc in cells:
                raise LifeTableError(f"{path.name}:{rownum}: duplicate cell (age={age}, year={year}, sex={demo[0]})")
            if not 0.0 <= q <= 1.0:
                raise LifeTableError(f"{path.name}:{rownum}: q={q} outside [0,1] at (age={age}, year={year}, sex={demo[0]})")
            cells[keyc] = q
    check_table_extent(path.name, cells, LifeTableError)
    try:
        table = cell_table(LifeTable, cells, require_complete=True)
    except LifeTableError as exc:
        raise LifeTableError(f"{path.name}: {exc}") from None
    log.info("loaded life table %s: ages %d-%d, years %d-%d, %d groups",
             path.name, table.age_min, table.age_max, table.year_min, table.year_max,
             len(table.demographics))
    return table


def load_incidence_table(path) -> IncidenceTable:
    """Read an incidence CSV with header age,year,sex,ir; ages and the table's
    extent are checked as for a life table."""
    path = Path(path)
    cells: dict[tuple[int, int, tuple], float] = {}
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        required = {"age", "year", "sex", "ir"}
        if reader.fieldnames is None or not required.issubset(reader.fieldnames):
            raise IncidenceError(f"{path.name}: header must contain {sorted(required)}")
        for rownum, row in enumerate(reader, start=2):
            try:
                age = int(row["age"])
                year = int(row["year"])
                ir = float(row["ir"])
            except (TypeError, ValueError) as exc:
                raise IncidenceError(f"{path.name}:{rownum}: {exc}") from None
            demo = (row["sex"].strip(),)
            keyc = (age, year, demo)
            if keyc in cells:
                raise IncidenceError(f"{path.name}:{rownum}: duplicate cell (age={age}, year={year}, sex={demo[0]})")
            if not 0.0 <= ir < 1.0:
                raise IncidenceError(f"{path.name}:{rownum}: ir={ir} outside [0,1)")
            cells[keyc] = ir
    check_table_extent(path.name, cells, IncidenceError)
    return cell_table(IncidenceTable, cells)


def load_counts(path, value_column: str) -> dict:
    """Read a counts CSV (age,year,sex,<value_column>) into a cell dict; the
    cells become an incidence table, so their extent is checked as for one."""
    path = Path(path)
    out: dict[tuple[int, int, tuple], float] = {}
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        required = {"age", "year", "sex", value_column}
        if reader.fieldnames is None or not required.issubset(reader.fieldnames):
            raise IncidenceError(f"{path.name}: header must contain {sorted(required)}")
        for rownum, row in enumerate(reader, start=2):
            try:
                keyc = (int(row["age"]), int(row["year"]), (row["sex"].strip(),))
                value = float(row[value_column])
            except (TypeError, ValueError) as exc:
                raise IncidenceError(f"{path.name}:{rownum}: {exc}") from None
            if keyc in out:
                raise IncidenceError(f"{path.name}:{rownum}: duplicate cell {keyc}")
            if not (math.isfinite(value) and value >= 0):
                raise IncidenceError(
                    f"{path.name}:{rownum}: {value_column} {row[value_column]!r} is not a finite non-negative number"
                )
            out[keyc] = value
    check_table_extent(path.name, out, IncidenceError)
    return out


def compute_incidence_reference(new_diagnoses: dict, person_years: dict, diagnostics=None) -> IncidenceTable:
    """IR = diagnoses / person-years per cell, clipped into [0, 1-1e-9], on
    {(age, year, demographics): value} dicts: the cells with positive
    person-years, in person-years order; the first cell in diagnoses order
    with diagnoses but no person-years raises, and each clipped cell is
    counted and logged in turn."""
    diag = ensure_diagnostics(diagnostics)
    cells = {}
    for key, d in new_diagnoses.items():
        py = person_years.get(key, 0.0)
        if py <= 0 and d > 0:
            raise IncidenceError(f"{d} diagnoses but no person-years at cell {key}")
    for key, py in person_years.items():
        d = float(new_diagnoses.get(key, 0))
        if py <= 0:
            continue
        ir = d / py
        if ir > IR_CLIP:
            diag.incr("incidence_clip")
            log.warning("incidence rate %.6f clipped at cell %s", ir, key)
            ir = IR_CLIP
        cells[key] = ir
    return cell_table(IncidenceTable, cells)


# The CSV writer one dict row at a time through csv.writer: the column
# writer must write the same bytes.

def _format_value(value):
    if isinstance(value, (np.floating, float)):
        return repr(float(value))
    if isinstance(value, (np.integer, int)):
        return str(int(value))
    return str(value)


def write_rows_csv_reference(path, header, rows) -> None:
    """Write dict rows with a fixed column order and deterministic floats."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_format_value(row[col]) for col in header])


def true_noncancer_survival(cfg, age: int, t: float) -> float:
    """Generator's non-cancer survival t years past exact integer age."""
    if cfg.dataset in (1, 2):
        lam, p = 1.0e-2, 2.0
        return float(np.exp(-((lam * (age + t)) ** p) + ((lam * age) ** p)))
    mu, sigma = math.log(75.0), 2.0

    def s(x):
        return 0.5 * math.erfc((math.log(x) - mu) / (sigma * math.sqrt(2.0)))

    return s(age + t) / s(age)


def draw_potentials_reference(rng: np.random.Generator, dataset: int, n: int):
    """Potential diagnosis and other-death ages, the exponential laws drawn
    as Weibull(1) and Weibull(2) as the square root of exponential(1)
    draws."""
    if dataset in (1, 2):
        return rng.weibull(1.0, n) / (0.5e-2 if dataset == 1 else 1.5e-2), np.sqrt(rng.exponential(1.0, n)) / 1.0e-2
    return rng.lognormal(math.log(65.0), 2.0 if dataset == 3 else 1.0, n), rng.lognormal(math.log(75.0), 2.0, n)


def true_net_survival_reference(cfg, years=None, seed_offset: int = 2_000_000) -> dict:
    """The generator truth from one draw of the whole cohort held at once:
    E[exp(-t * excess hazard)] over its diagnosed-in-window subjects."""
    years = tuple(cfg.years) if years is None else tuple(years)
    rng = np.random.default_rng(cfg.base_seed + seed_offset)
    n = cfg.n_truth
    gender = rng.integers(0, 2, n).astype(np.int8)
    t_diag, t_other = draw_potentials_reference(rng, cfg.dataset, n)
    lo, hi = cfg.diag_window
    keep = (t_diag >= lo) & (t_diag < hi) & (t_diag < t_other)
    age_cell = np.floor(t_diag[keep])
    lam = excess_hazard(age_cell, cfg.birth_year + age_cell, gender[keep])
    return {float(y): float(np.mean(np.exp(-lam * float(y)))) for y in years}


def make_registry_reference(cohort: Cohort, censor_seed: int, window=(60.0, 75.0), censor_max: float = 15.0):
    """The registry of one (lo, hi) window: censoring drawn for every
    diagnosed subject, then the window's subjects kept."""
    rng = np.random.default_rng(censor_seed)
    diag_idx = np.flatnonzero(cohort.diagnosed)
    censor = rng.uniform(0.0, censor_max, diag_idx.shape[0])
    t_diag = cohort.t_diag[diag_idx]
    keep = (t_diag >= window[0]) & (t_diag < window[1])
    diag_idx, censor, t_diag = diag_idx[keep], censor[keep], t_diag[keep]
    t_death = cohort.time_to_death[diag_idx]
    age = np.floor(t_diag).astype(np.int64)
    return RegistryFrame(age, cohort.birth_year + age, cohort.gender[diag_idx].astype(np.int64),
                         np.minimum(t_death, censor), t_death <= censor, [("0",), ("1",)])


def generate_cohort_reference(cfg, seed: int) -> Cohort:
    """`generate_cohort` with the excess hazard evaluated for every subject
    and the histories assembled by full-cohort `np.where`."""
    rng = np.random.default_rng(seed)
    n = cfg.cohort_size
    gender = rng.integers(0, 2, n).astype(np.int8)
    t_diag, t_other = draw_potentials_reference(rng, cfg.dataset, n)
    exp_raw = rng.exponential(1.0, n)
    age_cell = np.floor(t_diag)
    t_cancer = exp_raw / excess_hazard(age_cell, cfg.birth_year + age_cell, gender)
    diagnosed = t_diag < t_other
    time_to_death = np.where(diagnosed, np.minimum(t_cancer, t_other - t_diag), np.nan)
    death_age = np.where(diagnosed, t_diag + time_to_death, t_other)
    return Cohort(cfg.birth_year, gender, t_diag, t_other, t_cancer, diagnosed, time_to_death, death_age)


def derive_tables_reference(cohort: Cohort, person_years: str = "midyear", max_age: int = LIFETABLE_MAX_AGE):
    """`derive_tables` one gender at a time: each gender's subjects taken by
    a boolean mask, its counts binned by age, and the cells collected one
    (age, gender) at a time into {(age, year, demographics): value} dicts."""
    if person_years not in ("midyear", "exact"):
        raise ValueError(f"unknown person_years convention {person_years!r}")
    lt_cells: dict = {}
    ir_cells: dict = {}
    a_max_common = None
    per_sex = []
    for sex in (0, 1):
        mask = cohort.gender == sex
        if not mask.any():
            raise ValueError(f"cohort has no subjects with gender {sex}")
        deaths_per_year = np.bincount(np.floor(cohort.death_age[mask]).astype(np.int64))
        alive = deaths_per_year[::-1].cumsum()[::-1]
        a_max = min(int(np.flatnonzero(alive > 0)[-1]), max_age)
        per_sex.append((mask, deaths_per_year, alive))
        a_max_common = a_max if a_max_common is None else min(a_max_common, a_max)
    for sex, (mask, deaths_per_year, alive) in zip((0, 1), per_sex):
        demo = (str(sex),)
        q = deaths_per_year[: a_max_common + 1] / alive[: a_max_common + 1]
        free_until = np.minimum(cohort.t_diag[mask], cohort.t_other[mask])
        free_floor = np.floor(free_until).astype(np.int64)
        free_counts = np.bincount(free_floor, minlength=a_max_common + 2)
        free_alive = free_counts[::-1].cumsum()[::-1]
        diag_counts = np.bincount(
            np.floor(cohort.t_diag[mask][cohort.diagnosed[mask]]).astype(np.int64), minlength=a_max_common + 1
        )
        if person_years == "midyear":
            py = 0.5 * (free_alive[: a_max_common + 1] + free_alive[1 : a_max_common + 2])
        else:
            frac = np.bincount(free_floor, weights=free_until - free_floor, minlength=a_max_common + 2)
            py = free_alive[1 : a_max_common + 2] + frac[: a_max_common + 1]
        for a in range(a_max_common + 1):
            year = cohort.birth_year + a
            lt_cells[(a, year, demo)] = float(q[a])
            d = float(diag_counts[a]) if a < diag_counts.shape[0] else 0.0
            if py[a] > 0:
                ir_cells[(a, year, demo)] = min(d / float(py[a]), 1.0 - 1e-9)
            elif d > 0:
                raise ValueError(f"diagnoses without person-years at age {a}, gender {sex}")
    return cell_table(LifeTable, lt_cells, require_complete=False), cell_table(IncidenceTable, ir_cells)
