"""Annual cancer incidence rates and the prevalence machinery built on them.

IR(age, year, demo) is the annual probability that a cancer-free member of
the cell is newly diagnosed within the year.  Three derived quantities feed
the life-table adjustment:

* prevalence: the probability that a member of a cell has a prior diagnosis,
  via the recursion  alpha(a) = sum_s S_O(s | a-s) * IR(a-s) * (1 - alpha(a-s))
  with alpha(age 0) = 0;
* the lag-since-diagnosis distribution of prevalent cases (the same summands,
  normalized by alpha);
* the time-to-diagnosis distribution of cancer-free members,
  F(t) = 1 - prod_{s<t} (1 - IR(a+s)).

The recursion walks each birth-cohort diagonal once (each cell depends only
on strictly earlier cells of the same diagonal); every overall-survival value
it reads comes from one lag table, evaluated once per diagnosis stratum.
"""
from __future__ import annotations

import csv
import math
from pathlib import Path

import numpy as np

from .diagnostics import Diagnostics, ensure_diagnostics, log
from .registry import StratumKey
from .survival_provider import OverallSurvivalProvider, SurvivalLagTable


class IncidenceError(ValueError):
    """Malformed incidence input."""


class PrevalenceError(ValueError):
    """Prevalence recursion produced an impossible value (>= 1)."""


IR_CLIP = 1.0 - 1e-9


class IncidenceTable:
    """Annual incidence rates keyed like a life table.

    Cells absent after range clamping default to 0 (counted), so pediatric
    gaps in real incidence files do not abort a run.
    """

    def __init__(self, cells: dict):
        self.cells: dict[tuple[int, int, tuple], float] = {}
        for (age, year, demo), ir in cells.items():
            ir = float(ir)
            if not 0.0 <= ir < 1.0:
                raise IncidenceError(f"ir={ir} outside [0,1) at cell (age={age}, year={year}, {demo})")
            self.cells[(int(age), int(year), demo)] = ir
        if self.cells:
            ages = [k[0] for k in self.cells]
            years = [k[1] for k in self.cells]
            self.age_min, self.age_max = min(ages), max(ages)
            self.year_min, self.year_max = min(years), max(years)
        else:
            self.age_min = self.age_max = 0
            self.year_min = self.year_max = 0

    @classmethod
    def zero(cls) -> "IncidenceTable":
        """Empty table: IR identically 0 (the no-adjustment limit)."""
        table = cls({})
        return table

    def ir(self, age: int, year: int, demo: tuple, diagnostics: Diagnostics | None = None) -> float:
        if not self.cells:
            return 0.0
        a = min(max(age, self.age_min), self.age_max)
        y = min(max(year, self.year_min), self.year_max)
        if (a, y) != (age, year) and diagnostics is not None:
            diagnostics.incr("incidence_clamp")
        value = self.cells.get((a, y, demo))
        if value is None:
            if diagnostics is not None:
                diagnostics.incr("incidence_missing_cell")
            return 0.0
        return value

    def ir_diagonal(self, key: StratumKey, steps: int, diagnostics: Diagnostics | None = None) -> np.ndarray:
        return np.array(
            [self.ir(key.age + j, key.year + j, key.demographics, diagnostics) for j in range(steps)]
        )


def compute_incidence(
    new_diagnoses: dict, person_years: dict, diagnostics: Diagnostics | None = None
) -> IncidenceTable:
    """IR = diagnoses / person-years per cell, clipped into [0, 1-1e-9].

    Cells come from the person-years table (it defines the population);
    nonzero diagnoses without exposure are a hard error.
    """
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
    return IncidenceTable(cells)


def time_to_diagnosis_cdf(
    ir: IncidenceTable, key: StratumKey, t: int, diagnostics: Diagnostics | None = None
) -> float:
    """P(diagnosed within t years | cancer-free at key) = 1 - prod (1 - IR)."""
    if t < 0:
        raise ValueError("t must be >= 0")
    if t == 0:
        return 0.0
    rates = ir.ir_diagonal(key, int(t), diagnostics)
    return float(1.0 - np.prod(1.0 - rates))


def time_to_diagnosis_increments(
    ir: IncidenceTable, key: StratumKey, k_max: int, diagnostics: Diagnostics | None = None
) -> np.ndarray:
    """Year-by-year diagnosis mass for k = 1..k_max: F(k) - F(k-1).

    Equals IR(key+k-1) times the probability of staying undiagnosed through
    the earlier years; increments telescope back to the cdf.
    """
    rates = ir.ir_diagonal(key, int(k_max), diagnostics)
    undiagnosed = np.concatenate(([1.0], np.cumprod(1.0 - rates)[:-1]))
    return undiagnosed * rates


def time_to_diagnosis_increment(
    ir: IncidenceTable, key: StratumKey, k: int, diagnostics: Diagnostics | None = None
) -> float:
    if k < 1:
        raise ValueError("k must be >= 1")
    return float(time_to_diagnosis_increments(ir, key, k, diagnostics)[-1])


class _DiagonalState:
    """Per-diagonal recursion state (one birth cohort, one demographic group).

    Arrays are indexed by age and sized once for ages 0..max_age; alpha is
    known for the first `n` ages (rows and irga for the first n - 1), ir for
    the first `n_ir` and the cohort survival for the first `n_surv`.
    """

    __slots__ = ("n", "n_ir", "n_surv", "alpha", "irga", "ir", "surv", "rows")

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


class PrevalenceCalculator:
    """Prevalence and diagnosis-lag distributions from incidence + survival.

    Each lag-s term multiplies the chance of a diagnosis s years back
    (IR * fraction then undiagnosed), the patients' survival over those s
    years, and the ratio of the cell populations then and now; the last
    factor is the reciprocal of the life table's own diagonal survival and
    re-normalizes for cohort attrition between the two cells, without which
    prevalence at high-mortality ages is badly understated.

    `overall_survival` is a callable (StratumKey, times array) -> survival
    array; registry-backed providers extrapolate past follow-up internally.
    It is read only through `table`, a `SurvivalLagTable` covering cells up
    to `max_age` and horizons up to `horizon` (lags up to their sum).  With
    a registry provider `max_age` is the oldest cell the solver reaches from
    a registry stratum (its oldest age plus horizon - 1), so no lag past
    what a solve can read is evaluated; otherwise it is the life table's
    oldest age.
    `lag_eval` picks where within the diagnosis year the survival curve is
    read: "year_start" uses the full integer lag, "mid_year" shifts the
    evaluation point back half a year.
    """

    def __init__(
        self,
        incidence: IncidenceTable,
        overall_survival,
        life_table,
        lag_eval: str = "year_start",
        diagnostics: Diagnostics | None = None,
        horizon: int = 15,
    ):
        if lag_eval not in ("year_start", "mid_year"):
            raise ValueError(f"unknown lag_eval {lag_eval!r}")
        self.incidence = incidence
        self.life_table = life_table
        self.offset = 0 if lag_eval == "year_start" else 1   # in half-year table columns
        self.diagnostics = ensure_diagnostics(diagnostics)
        if isinstance(overall_survival, OverallSurvivalProvider):
            self.max_age = overall_survival.max_age + horizon - 1
        else:
            self.max_age = life_table.age_max
        self.table = SurvivalLagTable(overall_survival, self.max_age + horizon)
        self._diagonals: dict[tuple[int, tuple], _DiagonalState] = {}

    def _ensure(self, key: StratumKey, age: int) -> _DiagonalState:
        """Extend the key's diagonal through `age`; alpha(a) is one dot product
        of the lag-(a-d) survival anti-diagonal with the irga terms."""
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
            state.ir[d] = self.incidence.ir(d, yob + d, key.demographics, self.diagnostics)
            state.n_ir = d + 1
        for d in range(state.n_surv - 1, age):
            q = self.life_table.q(d, yob + d, key.demographics, self.diagnostics)
            state.surv[d + 1] = state.surv[d] * (1.0 - q)
            state.n_surv = d + 2
        for a in range(state.n, age + 1):
            if state.surv[a] <= 0.0:
                raise PrevalenceError(
                    f"life-table cohort extinct at age {a} on diagonal "
                    f"(birth year {yob}, {key.demographics}); prevalence undefined"
                )
            d = a - 1
            state.rows[d] = self.table.row(StratumKey(d, yob + d, key.demographics))
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
        """alpha at the key's cell."""
        if key.age < 0:
            raise ValueError("prevalence needs age >= 0")
        state = self._ensure(key, key.age)
        return float(state.alpha[key.age])

    def _summands(self, key: StratumKey) -> np.ndarray:
        """Lag-s contributions to alpha: patient survival times the attrition-
        normalized diagnosis mass, s = 1..age."""
        a = key.age
        state = self._ensure(key, a)
        d = np.arange(a - 1, -1, -1)
        out = self.table.values[state.rows[d], 2 * (a - d) - self.offset] * state.irga[d]
        return out / state.surv[a]

    def lag_since_diagnosis_increments(self, key: StratumKey) -> np.ndarray:
        """Mass of the prevalent-case diagnosis-lag distribution at s = 1..age."""
        alpha = self.prevalence(key)
        if alpha <= 0.0:
            raise PrevalenceError(
                f"lag distribution undefined at {key}: prevalence is 0"
            )
        return self._summands(key) / alpha

    def lag_since_diagnosis_cdf(self, key: StratumKey, t: int) -> float:
        """P(diagnosed within the last t years | prevalent at key)."""
        if t < 0:
            raise ValueError("t must be >= 0")
        if t == 0:
            return 0.0
        inc = self.lag_since_diagnosis_increments(key)
        return float(inc[: min(int(t), inc.shape[0])].sum())

    def prevalent_mix_weights(self, key: StratumKey) -> np.ndarray:
        """Attrition-normalized diagnosis mass per lag s = 1..age, over alpha.

        These pair with `survival_from_diagnosis_matrix`: weight * M[s-1, t]
        is the probability of a diagnosis s years back followed by survival
        to horizon t, already conditioned on being prevalent.  The t = 0
        column then mixes to exactly 1 (the recursion's own sum).
        """
        a = key.age
        alpha = self.prevalence(key)
        if alpha <= 0.0:
            raise PrevalenceError(f"prevalent mixture undefined at {key}: prevalence is 0")
        state = self._ensure(key, a)
        return state.irga[:a][::-1] / (state.surv[a] * alpha)

    def survival_from_diagnosis_matrix(self, key: StratumKey, horizon: int) -> np.ndarray:
        """Matrix M[s-1, t] = S_O(t + s | diagnosed age-s years back), t = 0..horizon.

        Row s pairs with the lag-s mass of the prevalent-case distribution;
        the evaluation point carries the same within-year offset as the
        recursion.
        """
        a = key.age
        if a + horizon > self.table.max_lag:
            raise ValueError(
                f"lag {a + horizon} at {key} is past the survival lag table's {self.table.max_lag}"
            )
        state = self._ensure(key, a)
        s = np.arange(1, a + 1)
        lags = 2 * (s[:, None] + np.arange(horizon + 1)) - self.offset
        return self.table.values[state.rows[a - s][:, None], lags]


def prevalence(
    incidence: IncidenceTable, overall_survival, life_table, key: StratumKey, **kwargs
) -> float:
    """One-shot alpha computation (builds a throwaway calculator)."""
    return PrevalenceCalculator(incidence, overall_survival, life_table, **kwargs).prevalence(key)


def load_incidence_table(path) -> IncidenceTable:
    """Read an incidence CSV with header age,year,sex,ir."""
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
    return IncidenceTable(cells)


def load_counts(path, value_column: str) -> dict:
    """Read a counts CSV (age,year,sex,<value_column>) into a cell dict."""
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
    return out
