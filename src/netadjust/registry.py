"""Registry data model, stratification, and product-limit estimation.

A registry row carries the covariates fixed at diagnosis (age, calendar year,
demographic codes), the follow-up time in years, and an all-cause death
indicator.  Records are grouped into strata by their diagnosis covariates and
each stratum gets a Kaplan-Meier / Nelson-Aalen fit.

Conventions: the at-risk set at time u is {T >= u} (subjects dying at u count
as at risk at u), and deaths are processed before censorings at tied times.
"""
from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .diagnostics import Diagnostics, ensure_diagnostics, log


class EmptyInputError(ValueError):
    """Raised when an operation requires at least one record."""


@dataclass(frozen=True)
class PatientRecord:
    """One registry row: covariates at diagnosis, follow-up, event flag."""

    age_diag: int
    year_diag: int
    demographics: tuple
    time: float
    event: bool

    def __post_init__(self):
        if not (math.isfinite(self.time) and self.time >= 0):
            raise ValueError(f"follow-up time {self.time} is not a finite non-negative number")
        if self.age_diag < 0:
            raise ValueError(f"negative age at diagnosis {self.age_diag}")


@dataclass(frozen=True, order=True)
class StratumKey:
    """Stratum identifier: (age, calendar year, demographic codes)."""

    age: int
    year: int
    demographics: tuple

    def shift(self, s: int) -> "StratumKey":
        """Move s years along the Lexis diagonal (age and year together)."""
        return StratumKey(self.age + s, self.year + s, self.demographics)


@dataclass(frozen=True)
class Banding:
    """Stratification config: band widths for age and calendar year."""

    age_width: int = 1
    year_width: int = 1

    def __post_init__(self):
        if self.age_width < 1 or self.year_width < 1:
            raise ValueError("band widths must be >= 1")


class RegistryFrame:
    """Column-oriented registry (ages, years, demo codes, times, events).

    Demographics tuples are interned into a small vocabulary so grouping can
    be done with integer arrays.
    """

    def __init__(self, age, year, demo_code, time, event, demo_vocab):
        self.age = np.asarray(age, dtype=np.int64)
        self.year = np.asarray(year, dtype=np.int64)
        self.demo_code = np.asarray(demo_code, dtype=np.int64)
        self.time = np.asarray(time, dtype=np.float64)
        self.event = np.asarray(event, dtype=bool)
        self.demo_vocab: list[tuple] = list(demo_vocab)
        n = self.age.shape[0]
        if not all(a.shape[0] == n for a in (self.year, self.demo_code, self.time, self.event)):
            raise ValueError("registry columns have unequal lengths")
        if n and not (np.isfinite(self.time).all() and self.time.min() >= 0):
            raise ValueError("follow-up times in registry must be finite and non-negative")

    @property
    def n(self) -> int:
        return self.age.shape[0]

    @property
    def n_events(self) -> int:
        return int(self.event.sum())

    @classmethod
    def from_records(cls, records: Sequence[PatientRecord]) -> "RegistryFrame":
        vocab: dict[tuple, int] = {}
        codes = np.empty(len(records), dtype=np.int64)
        for i, r in enumerate(records):
            codes[i] = vocab.setdefault(r.demographics, len(vocab))
        return cls(
            [r.age_diag for r in records],
            [r.year_diag for r in records],
            codes,
            [r.time for r in records],
            [r.event for r in records],
            list(vocab),
        )


def as_frame(records) -> RegistryFrame:
    if isinstance(records, RegistryFrame):
        return records
    return RegistryFrame.from_records(list(records))


class EventTable:
    """Risk-set summary of one stratum: distinct times, deaths, censorings.

    Keeps the raw (time, event) arrays so tables can be merged exactly.
    """

    def __init__(self, raw_times: np.ndarray, raw_events: np.ndarray):
        raw_times = np.asarray(raw_times, dtype=np.float64)
        raw_events = np.asarray(raw_events, dtype=bool)
        if raw_times.size == 0:
            raise EmptyInputError("event table needs at least one observation")
        order = np.argsort(raw_times, kind="mergesort")
        self.raw_times = raw_times[order]
        self.raw_events = raw_events[order]
        self.times, inverse = np.unique(self.raw_times, return_inverse=True)
        m = self.times.shape[0]
        self.deaths = np.bincount(inverse, weights=self.raw_events.astype(float), minlength=m).astype(np.int64)
        totals = np.bincount(inverse, minlength=m).astype(np.int64)
        self.censored = totals - self.deaths
        exits = np.concatenate(([0], np.cumsum(totals)[:-1]))
        self.at_risk = raw_times.shape[0] - exits
        self._validate()

    def _validate(self):
        if (self.deaths < 0).any() or (self.censored < 0).any():
            raise ValueError("negative counts in event table")
        if (np.diff(self.at_risk) > 0).any():
            raise ValueError("at-risk counts must be non-increasing")

    @property
    def n(self) -> int:
        return int(self.at_risk[0]) if self.at_risk.size else 0

    def merge(self, other: "EventTable") -> "EventTable":
        return EventTable(
            np.concatenate([self.raw_times, other.raw_times]),
            np.concatenate([self.raw_events, other.raw_events]),
        )


def build_strata(records, banding: Banding = Banding()) -> dict[StratumKey, EventTable]:
    """Partition records into strata keyed by banded (age, year, demographics).

    Band representatives are the lower band edges.  Every record lands in
    exactly one stratum; stratum sizes sum to the record count.
    """
    frame = as_frame(records)
    if frame.n == 0:
        raise EmptyInputError("cannot stratify an empty registry")
    b_age = (frame.age // banding.age_width) * banding.age_width
    b_year = (frame.year // banding.year_width) * banding.year_width
    order = np.lexsort((b_year, b_age, frame.demo_code))
    strata: dict[StratumKey, EventTable] = {}
    ca, cy, cc = b_age[order], b_year[order], frame.demo_code[order]
    boundaries = np.flatnonzero(
        (np.diff(ca) != 0) | (np.diff(cy) != 0) | (np.diff(cc) != 0)
    ) + 1
    starts = np.concatenate(([0], boundaries))
    ends = np.concatenate((boundaries, [frame.n]))
    for s, e in zip(starts, ends):
        idx = order[s:e]
        key = StratumKey(int(ca[s]), int(cy[s]), frame.demo_vocab[int(cc[s])])
        strata[key] = EventTable(frame.time[idx], frame.event[idx])
    return strata


class _DemographicPool:
    """Live strata of one demographic group, as arrays for neighbour search."""

    def __init__(self, keys: list[StratumKey]):
        self.keys = keys
        self.pos = {k: i for i, k in enumerate(keys)}
        self.ages = np.array([k.age for k in keys], dtype=np.int64)
        self.years = np.array([k.year for k in keys], dtype=np.int64)
        self.live = np.ones(len(keys), dtype=bool)

    def remove(self, key: StratumKey) -> None:
        self.live[self.pos[key]] = False

    def nearest(self, key: StratumKey) -> StratumKey:
        """Closest live stratum: Chebyshev distance, then Manhattan, then
        lower age, then lower year."""
        idx = np.flatnonzero(self.live)
        da = np.abs(self.ages[idx] - key.age)
        dy = np.abs(self.years[idx] - key.year)
        best = np.lexsort((self.years[idx], self.ages[idx], da + dy, np.maximum(da, dy)))[0]
        return self.keys[idx[best]]


def merge_small_strata(
    strata: dict[StratumKey, EventTable],
    min_size: int = 10,
    diagnostics: Diagnostics | None = None,
) -> tuple[dict[StratumKey, EventTable], dict[StratumKey, StratumKey]]:
    """Fold strata with fewer than min_size subjects into a neighbor.

    The smallest stratum (ties toward the lower key) goes first.  Preference:
    adjacent age with the same year, then the nearest existing stratum with
    the same demographics (Chebyshev distance on (age, year), ties toward
    lower age then lower year).  Returns the merged map plus a lookup from
    every original key to the key that now holds its records.

    Each merge touches only the two strata involved: a heap orders the small
    strata by (size, key), dropping entries a merge made stale, and a
    reverse map lists the original keys each stratum holds.
    """
    diag = ensure_diagnostics(diagnostics)
    merged = dict(strata)
    alias: dict[StratumKey, StratumKey] = {k: k for k in strata}
    holds: dict[StratumKey, list[StratumKey]] = {k: [k] for k in strata}
    by_demo: dict[tuple, list[StratumKey]] = {}
    for k in merged:
        by_demo.setdefault(k.demographics, []).append(k)
    pools = {demo: _DemographicPool(keys) for demo, keys in by_demo.items()}
    small = [(t.n, k) for k, t in merged.items() if t.n < min_size]
    heapq.heapify(small)
    while small:
        n, key = small[0]
        table = merged.get(key)
        if table is None or table.n != n:
            heapq.heappop(small)
            continue
        pool = pools[key.demographics]
        pool.remove(key)
        if not pool.live.any():
            break
        for target in (StratumKey(key.age - 1, key.year, key.demographics),
                       StratumKey(key.age + 1, key.year, key.demographics)):
            if target in merged:
                break
        else:
            target = pool.nearest(key)
        heapq.heappop(small)
        merged[target] = merged[target].merge(merged.pop(key))
        moved = holds.pop(key)
        for orig in moved:
            alias[orig] = target
        holds[target].extend(moved)
        if merged[target].n < min_size:
            heapq.heappush(small, (merged[target].n, target))
        diag.incr("stratum_merge")
        log.debug("merged stratum %s (n<%d) into %s", key, min_size, target)
    return merged, alias


class StepSurvivalCurve:
    """Right-continuous step survival curve with S(0) = 1."""

    def __init__(self, jump_times: np.ndarray, values: np.ndarray):
        self.jump_times = np.asarray(jump_times, dtype=np.float64)
        self.values = np.asarray(values, dtype=np.float64)
        if self.jump_times.size:
            if (np.diff(self.jump_times) <= 0).any():
                raise ValueError("jump times must be strictly increasing")
            if self.jump_times[0] <= 0:
                raise ValueError("jumps must occur at positive times")
            if (np.diff(self.values) > 1e-15).any():
                raise ValueError("survival curve must be non-increasing")
            if self.values.max() > 1 or self.values.min() < 0:
                raise ValueError("survival values must lie in [0, 1]")

    def survival_at(self, t):
        """Right-continuous evaluation; constant after the last jump."""
        t = np.asarray(t, dtype=np.float64)
        if self.jump_times.size == 0:
            out = np.ones_like(t)
            return out if out.ndim else float(out)
        idx = np.searchsorted(self.jump_times, t, side="right") - 1
        out = np.where(idx >= 0, self.values[np.maximum(idx, 0)], 1.0)
        return out if out.ndim else float(out)

    __call__ = survival_at


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


def kaplan_meier(table: EventTable) -> StepSurvivalCurve:
    """Product-limit curve of an event table (jumps at death times only)."""
    has_death = table.deaths > 0
    t = table.times[has_death]
    factors = 1.0 - table.deaths[has_death] / table.at_risk[has_death]
    return StepSurvivalCurve(t, np.cumprod(factors))


def nelson_aalen(table: EventTable) -> CumulativeHazardCurve:
    """Cumulative-hazard step function with increments deaths / at-risk."""
    has_death = table.deaths > 0
    t = table.times[has_death]
    inc = table.deaths[has_death] / table.at_risk[has_death]
    return CumulativeHazardCurve(t, np.cumsum(inc))
