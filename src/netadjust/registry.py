"""Registry data model, stratification, and product-limit estimation.

A registry row carries the covariates fixed at diagnosis (age, calendar year,
demographic codes), the follow-up time in years, and an all-cause death
indicator.  Records are grouped into strata by their diagnosis covariates;
the strata share one stacked event table, and one call fits the
Kaplan-Meier curves of all of them.

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

MAX_AGE = 150                 # oldest age an input row or a registry may name
MAX_TABLE_CELLS = 1 << 22     # cells of the (demographics, age, year) grid an input may span


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
    """Stratum identifier: (age, calendar year, demographic codes), hashed
    by its fields.  Keys label strata at the edges; every layer below them
    takes the same strata as cells (`stratum_cells`)."""

    age: int
    year: int
    demographics: tuple


def stratum_cells(keys) -> tuple[list, np.ndarray, np.ndarray, np.ndarray]:
    """The cells of a sequence of keys as (demographics, codes, ages, years)
    columns: `codes` index the `demographics` list, which holds the keys'
    demographics in first-seen order."""
    index: dict[tuple, int] = {}
    codes = np.fromiter((index.setdefault(k.demographics, len(index)) for k in keys), np.intp, len(keys))
    ages = np.fromiter((k.age for k in keys), np.int64, len(keys))
    return list(index), codes, ages, np.fromiter((k.year for k in keys), np.int64, len(keys))


def cell_key(cells, i: int) -> StratumKey:
    """The key of cell i of `cells`, for a message that names it."""
    return StratumKey(int(cells[2][i]), int(cells[3][i]), cells[0][cells[1][i]])


def diagonals(cells) -> tuple[np.ndarray, np.ndarray]:
    """The birth-cohort diagonals of `cells`, (code, birth year) pairs in
    first-seen order: each cell's diagonal, and each diagonal's first cell."""
    _, codes, ages, years = cells
    births = (years - ages) - (years - ages).min(initial=0)
    _, first, inverse = np.unique(codes * (births.max(initial=0) + 1) + births, return_index=True, return_inverse=True)
    return np.argsort(np.argsort(first))[inverse.reshape(-1)], np.sort(first)


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
    be done with integer arrays.  Ages must lie in [0, MAX_AGE] and follow-up
    times must be finite and non-negative.
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
        bad = np.flatnonzero((self.age < 0) | (self.age > MAX_AGE))
        if bad.size:
            raise ValueError(f"age {self.age[bad[0]]} at index {bad[0]} outside [0, {MAX_AGE}]")
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


class EventTable:
    """Risk-set summary of one stratum, or of many stacked stratum after
    stratum: each stratum's distinct times with their deaths, censorings and
    at-risk counts.

    `labels` gives each observation's stratum 0..S-1, and every stratum must
    have one; without it the table is a single stratum.  The observations are
    sorted once by (stratum, time), and stratum i owns the entries
    `offsets[i]:offsets[i + 1]`; `sizes` are the observations per stratum.
    """

    def __init__(self, times: np.ndarray, events: np.ndarray, labels: np.ndarray | None = None):
        times = np.asarray(times, dtype=np.float64)
        events = np.asarray(events, dtype=bool)
        n = times.shape[0]
        if n == 0:
            raise EmptyInputError("event table needs at least one observation")
        self.stacked = labels is not None
        labels = np.zeros(n, dtype=np.intp) if labels is None else np.asarray(labels, dtype=np.intp)
        self.sizes = np.bincount(labels)
        if not self.sizes.all():
            raise EmptyInputError("every stratum of an event table needs at least one observation")
        # by time, then stably by stratum (a radix sort while labels fit 16 bits)
        order = np.argsort(times)
        narrow = labels[order].astype(np.min_scalar_type(self.sizes.shape[0] - 1))
        order = order[np.argsort(narrow, kind="stable")]
        t, lab = times[order], labels[order]
        first = np.empty(n, dtype=bool)
        first[0] = True
        np.not_equal(t[1:], t[:-1], out=first[1:])
        first[1:] |= lab[1:] != lab[:-1]
        starts = np.flatnonzero(first)
        stratum = lab[starts]
        self.times = t[starts]
        self.deaths = np.add.reduceat(events[order].astype(np.int64), starts)
        self.censored = np.diff(np.append(starts, n)) - self.deaths
        self.at_risk = np.cumsum(self.sizes)[stratum] - starts
        self.offsets = np.concatenate(([0], np.cumsum(np.bincount(stratum, minlength=self.sizes.shape[0]))))

    @property
    def n(self) -> int:
        return int(self.sizes.sum())


def build_strata(frame: RegistryFrame, banding: Banding = Banding()) -> tuple[dict[StratumKey, int], np.ndarray]:
    """Partition a registry into strata keyed by banded (age, year, demographics).

    Band representatives are the lower band edges.  Returns the size of each
    stratum, keys in (demographics, age, year) order, and each patient's
    stratum as an index into that order; stratum sizes sum to the patient
    count.  Strata are numbered within the (demographics, age, year) grid the
    registry spans, which may hold at most MAX_TABLE_CELLS cells.
    """
    if frame.n == 0:
        raise EmptyInputError("cannot stratify an empty registry")
    b_age = (frame.age // banding.age_width) * banding.age_width
    b_year = (frame.year // banding.year_width) * banding.year_width
    # one integer per stratum, ordered like (demographics, age, year)
    age0, year0 = int(b_age.min()), int(b_year.min())
    n_ages, n_years = int(b_age.max()) - age0 + 1, int(b_year.max()) - year0 + 1
    cells = len(frame.demo_vocab) * n_ages * n_years
    if cells > MAX_TABLE_CELLS:
        raise ValueError(
            f"registry spans ages {age0}-{age0 + n_ages - 1} and years {year0}-{year0 + n_years - 1}: "
            f"{cells} (demographics, age, year) cells, at most {MAX_TABLE_CELLS}"
        )
    codes, labels = np.unique(
        (frame.demo_code * n_ages + (b_age - age0)) * n_years + (b_year - year0), return_inverse=True
    )
    demo, cell = np.divmod(codes, n_ages * n_years)
    age, year = np.divmod(cell, n_years)
    keys = [
        StratumKey(a + age0, y + year0, frame.demo_vocab[d])
        for d, a, y in zip(demo.tolist(), age.tolist(), year.tolist())
    ]
    return dict(zip(keys, np.bincount(labels).tolist())), labels.reshape(-1)


class _DemographicPool:
    """Live strata of one demographic group, as arrays for neighbour search."""

    def __init__(self, keys: list[StratumKey]):
        self.keys = sorted(keys)   # by (age, year): the first of tied distances is the tie-break
        self.pos = {k: i for i, k in enumerate(self.keys)}
        self.ages = np.array([k.age for k in self.keys], dtype=np.int64)
        self.years = np.array([k.year for k in self.keys], dtype=np.int64)
        # Manhattan distances between members stay below this, so Chebyshev
        # distance * span + Manhattan distance orders by both
        self.span = int(np.ptp(self.ages) + np.ptp(self.years)) + 1
        self.dead = np.zeros(len(self.keys), dtype=np.int64)   # a distance past any live one

    def remove(self, key: StratumKey) -> None:
        self.dead[self.pos[key]] = np.iinfo(np.int64).max

    def nearest(self, key: StratumKey) -> StratumKey:
        """Closest live stratum: Chebyshev distance, then Manhattan, then
        lower age, then lower year, by one arg-min."""
        da = np.abs(self.ages - key.age)
        dy = np.abs(self.years - key.year)
        distance = np.maximum(da, dy) * self.span + (da + dy)
        return self.keys[int(np.maximum(distance, self.dead).argmin())]


def merge_small_strata(
    sizes: dict[StratumKey, int],
    min_size: int = 10,
    diagnostics: Diagnostics | None = None,
) -> tuple[dict[StratumKey, int], dict[StratumKey, StratumKey]]:
    """Fold strata with fewer than min_size subjects into a neighbor.

    Merges are decided from the stratum sizes alone.  The smallest stratum
    (ties toward the lower key) goes first.  Preference: adjacent age with
    the same year, then the nearest existing stratum with the same
    demographics (Chebyshev distance on (age, year), ties toward lower age
    then lower year).  Returns the sizes of the merged strata plus a lookup
    from every original key to the key that now holds its records.

    Each merge touches only the two strata involved: a heap orders the small
    strata by (size, key), dropping entries a merge made stale, and a
    reverse map lists the original keys each stratum holds.
    """
    diag = ensure_diagnostics(diagnostics)
    merged = dict(sizes)
    alias: dict[StratumKey, StratumKey] = {k: k for k in sizes}
    holds: dict[StratumKey, list[StratumKey]] = {k: [k] for k in sizes}
    by_demo: dict[tuple, list[StratumKey]] = {}
    for k in merged:
        by_demo.setdefault(k.demographics, []).append(k)
    pools = {demo: _DemographicPool(keys) for demo, keys in by_demo.items()}
    small = [(n, k) for k, n in merged.items() if n < min_size]
    heapq.heapify(small)
    while small:
        n, key = small[0]
        if merged.get(key) != n:
            heapq.heappop(small)
            continue
        pool = pools[key.demographics]
        pool.remove(key)
        if pool.dead.all():
            break
        for target in (StratumKey(key.age - 1, key.year, key.demographics),
                       StratumKey(key.age + 1, key.year, key.demographics)):
            if target in merged:
                break
        else:
            target = pool.nearest(key)
        heapq.heappop(small)
        merged[target] += merged.pop(key)
        moved = holds.pop(key)
        for orig in moved:
            alias[orig] = target
        holds[target].extend(moved)
        if merged[target] < min_size:
            heapq.heappush(small, (merged[target], target))
        diag.incr("stratum_merge")
        log.debug("merged stratum %s (n<%d) into %s", key, min_size, target)
    return merged, alias


def _segment_cumprod(values: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Cumulative product restarting at each segment `offsets[i]:offsets[i+1]`,
    bit-identical to `np.cumprod` of each segment.  Segments are grouped by
    length class (the same power of two at or above the length), each class
    padded with ones into one matrix and multiplied along its rows, so the
    padding never exceeds the data."""
    out = np.empty_like(values)
    lengths = np.diff(offsets)
    width_class = np.frexp(lengths.astype(np.float64))[1]   # 2**(c-1) <= length < 2**c
    for c in np.unique(width_class[lengths > 0]).tolist():
        segs = np.flatnonzero(width_class == c)
        idx = offsets[segs, None] + np.arange(1 << c)
        used = idx < offsets[segs + 1, None]
        block = np.ones(idx.shape)
        block[used] = values[idx[used]]
        np.cumprod(block, axis=1, out=block)
        out[idx[used]] = block[used]
    return out


class StepSurvivalCurve:
    """Right-continuous step survival curves with S(0) = 1, one per stratum.

    Stratum i jumps at `jump_times[offsets[i]:offsets[i + 1]]` to the
    matching `values`.  Without `offsets` there is one curve, evaluated at
    times of any shape.  A stacked curve evaluates every stratum, or the
    `rows` asked for, at a vector of times shared by all of them (a rows x
    times array), or at a rows x m array of times, one row per stratum.
    Every evaluation is one exact search: each jump is keyed by its stratum
    and the rank of its time among all jump times, so one `searchsorted`
    over the keys counts the jumps at or before each (stratum, time) pair.
    """

    def __init__(self, jump_times: np.ndarray, values: np.ndarray, offsets: np.ndarray | None = None):
        self.jump_times = np.asarray(jump_times, dtype=np.float64)
        self.values = np.asarray(values, dtype=np.float64)
        n = self.jump_times.shape[0]
        self.stacked = offsets is not None
        self.offsets = np.array([0, n]) if offsets is None else np.asarray(offsets, dtype=np.intp)
        self._stratum = stratum = np.repeat(np.arange(self.offsets.shape[0] - 1), np.diff(self.offsets))
        if n:
            within = stratum[1:] == stratum[:-1]
            if (np.diff(self.jump_times)[within] <= 0).any():
                raise ValueError("jump times must be strictly increasing")
            if self.jump_times.min() <= 0:
                raise ValueError("jumps must occur at positive times")
            if (np.diff(self.values)[within] > 1e-15).any():
                raise ValueError("survival curve must be non-increasing")
            if self.values.max() > 1 or self.values.min() < 0:
                raise ValueError("survival values must lie in [0, 1]")
        self._ranks = np.unique(self.jump_times)
        self._keys = stratum * (self._ranks.shape[0] + 1) + np.searchsorted(self._ranks, self.jump_times)

    def survival_at(self, t, rows=None):
        """Right-continuous evaluation; constant after the last jump."""
        t = np.asarray(t, dtype=np.float64)
        if not self.stacked:
            rows = np.zeros((), dtype=np.intp)
        else:
            rows = np.arange(self.offsets.shape[0] - 1) if rows is None else np.asarray(rows, dtype=np.intp)
            rows = rows[:, None]
            t = t if t.ndim == 2 else np.atleast_1d(t)
        start = self.offsets[rows]
        rank = np.searchsorted(self._ranks, t, side="right")
        idx = np.searchsorted(self._keys, rows * (self._ranks.shape[0] + 1) + rank) - 1
        out = np.where(idx >= start, np.append(self.values, 1.0)[idx], 1.0)   # idx -1 reads the 1
        return out if out.ndim else float(out)

    def zero_times(self) -> np.ndarray:
        """Each stratum's first time at 0 (inf where its curve stays positive)."""
        lengths = np.diff(self.offsets)
        positive = np.bincount(self._stratum[self.values > 0], minlength=lengths.shape[0])
        first_zero = self.offsets[:-1] + positive
        out = np.full(lengths.shape, np.inf)
        hit = positive < lengths
        out[hit] = self.jump_times[first_zero[hit]]
        return out


def kaplan_meier(table: EventTable) -> StepSurvivalCurve:
    """Product-limit curve of each stratum of an event table (jumps at death
    times only), stacked like the table."""
    has_death = table.deaths > 0
    t = table.times[has_death]
    factors = 1.0 - table.deaths[has_death] / table.at_risk[has_death]
    offsets = np.concatenate(([0], np.cumsum(np.add.reduceat(has_death, table.offsets[:-1], dtype=np.intp))))
    return StepSurvivalCurve(t, _segment_cumprod(factors, offsets), offsets if table.stacked else None)
