"""Registry data model, stratification, and product-limit estimation.

A registry row carries the covariates fixed at diagnosis (age, calendar year,
demographic codes), the follow-up time in years, and an all-cause death
indicator.  Records are grouped into strata by their diagnosis covariates;
the strata share one event table, stratum after stratum, and one call
fits the Kaplan-Meier curves of all of them.

Conventions: the at-risk set at time u is {T >= u} (subjects dying at u count
as at risk at u), and deaths are processed before censorings at tied times.
"""
from __future__ import annotations

import heapq
import logging
from dataclasses import dataclass

import numpy as np

from .diagnostics import Diagnostics, ensure_diagnostics, log

MAX_AGE = 150                 # oldest age an input row or a registry may name
MAX_TABLE_CELLS = 1 << 22     # cells of the (demographics, age, year) grid an input may span


class EmptyInputError(ValueError):
    """Raised when an operation requires at least one record."""


@dataclass(frozen=True, order=True)
class StratumKey:
    """Stratum identifier: (age, calendar year, demographic codes), hashed
    by its fields.  Keys label strata at the edges: the risk-set summary's
    `keys`, log lines and error messages.  Stratification, merging and
    every layer below take the same strata as (demographics, codes, ages,
    years) columns: `codes` index the `demographics` list."""

    age: int
    year: int
    demographics: tuple


def stratum_keys(cells) -> list[StratumKey]:
    """The keys of (demographics, codes, ages, years) cells, in order."""
    return [StratumKey(a, y, cells[0][c]) for c, a, y in zip(*(column.tolist() for column in cells[1:]))]


def cell_key(cells, i: int) -> StratumKey:
    """The key of cell i of `cells`, for a message that names it."""
    return StratumKey(int(cells[2][i]), int(cells[3][i]), cells[0][cells[1][i]])


def key_order(cells) -> np.ndarray:
    """The order that sorts (demographics, codes, ages, years) cells as
    their `StratumKey`s sort: by age, year, then demographics as tuples."""
    demographics, codes, ages, years = cells
    rank = np.argsort(sorted(range(len(demographics)), key=demographics.__getitem__))
    return np.lexsort((rank[codes], years, ages))


def diagonals(cells) -> tuple[np.ndarray, np.ndarray]:
    """The birth-cohort diagonals of `cells`, (code, birth year) pairs in
    first-seen order: each cell's diagonal, and each diagonal's first cell."""
    _, codes, ages, years = cells
    births = (years - ages) - (years - ages).min(initial=0)
    _, first, inverse = np.unique(codes * (births.max(initial=0) + 1) + births, return_index=True, return_inverse=True)
    return np.argsort(np.argsort(first))[inverse.reshape(-1)], np.sort(first)


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


class EventTable:
    """Risk-set summary of many strata, one after another: each stratum's
    distinct times with their deaths and at-risk counts.

    `labels` gives each observation's stratum 0..S-1, and every stratum must
    have one; one stratum is labels of zeros.  The observations are sorted
    once by (stratum, time), and stratum i owns the entries
    `offsets[i]:offsets[i + 1]`; `sizes` are the observations per stratum.
    """

    def __init__(self, times: np.ndarray, events: np.ndarray, labels: np.ndarray):
        times = np.asarray(times, dtype=np.float64)
        events = np.asarray(events, dtype=bool)
        n = times.shape[0]
        if n == 0:
            raise EmptyInputError("event table needs at least one observation")
        labels = np.asarray(labels, dtype=np.intp)
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
        self.at_risk = np.cumsum(self.sizes)[stratum] - starts
        self.offsets = np.searchsorted(stratum, np.arange(self.sizes.shape[0] + 1))

    @property
    def n(self) -> int:
        return int(self.sizes.sum())


def build_strata(frame: RegistryFrame) -> tuple[tuple, np.ndarray, np.ndarray]:
    """Partition a registry into strata by (age, year, demographics), one
    stratum per 1-year cell, as the life table's cells are.

    Returns the strata as (demographics, codes, ages, years) cells in
    (demographics, age, year) order, `demographics` being the registry's
    vocabulary, their sizes, which sum to the patient count, and each
    patient's stratum as an index into that order.  Strata are numbered by
    one count per cell of the grid the registry spans, which may hold at
    most MAX_TABLE_CELLS cells.
    """
    if frame.n == 0:
        raise EmptyInputError("cannot stratify an empty registry")
    # one integer per stratum, ordered like (demographics, age, year)
    age0, year0 = int(frame.age.min()), int(frame.year.min())
    n_ages, n_years = int(frame.age.max()) - age0 + 1, int(frame.year.max()) - year0 + 1
    cells = len(frame.demo_vocab) * n_ages * n_years
    if cells > MAX_TABLE_CELLS:
        raise ValueError(
            f"registry spans ages {age0}-{age0 + n_ages - 1} and years {year0}-{year0 + n_years - 1}: "
            f"{cells} (demographics, age, year) cells, at most {MAX_TABLE_CELLS}"
        )
    cell = (frame.demo_code * n_ages + (frame.age - age0)) * n_years + (frame.year - year0)
    counts = np.bincount(cell, minlength=cells)
    present = np.flatnonzero(counts)
    demo, rest = np.divmod(present, n_ages * n_years)
    age, year = np.divmod(rest, n_years)
    labels = (np.cumsum(counts > 0) - 1)[cell]
    return (frame.demo_vocab, demo, age + age0, year + year0), counts[present], labels


def merge_small_strata(strata, sizes, min_size: int = 10, diagnostics: Diagnostics | None = None) -> np.ndarray:
    """Fold strata with fewer than min_size subjects into a neighbor.

    `strata` are (demographics, codes, ages, years) cells and `sizes` their
    subject counts; merges are decided from the sizes alone.  The smallest
    stratum (ties toward the lower `StratumKey`) goes first.  Preference:
    adjacent age with the same year, then the nearest live stratum with the
    same demographics (Chebyshev distance on (age, year), then Manhattan,
    ties toward lower age then lower year).  Merging stops when a stratum
    is the last of its demographics.  Returns each stratum's holder: the
    index of the stratum that now holds its records, its own if kept.

    A heap orders the small strata by (size, rank in `key_order`), dropping
    entries a merge made stale.  The holder is one arg-min over its
    demographic's strata of a table of the distance of each (age, year)
    offset, read with one `take` whose merged strata clip onto an entry
    past any other, so memory stays linear in the strata and the span of
    ages and years.
    """
    diag = ensure_diagnostics(diagnostics)
    demographics, codes, ages, years = strata
    small = np.flatnonzero(np.asarray(sizes) < min_size)
    order = key_order(strata)
    rank = np.argsort(order).tolist()
    # demographic d's strata by (age, year) are pool[start[d]:start[d + 1]], i at slot[i]
    pool = order[np.argsort(codes[order], kind="stable")]
    start, slot = np.searchsorted(codes[pool], np.arange(len(demographics) + 1)).tolist(), np.argsort(pool).tolist()
    # each (age, year) offset's Chebyshev distance * span + Manhattan distance
    # (< span), but 0 for an adjacent age in the same year, and past every
    # offset one entry `far`, onto which a merged stratum's place clips
    n_ages, n_years = int(np.ptp(ages)) + 1, int(np.ptp(years)) + 1
    da, dy = np.abs(np.arange(1 - n_ages, n_ages))[:, None], np.abs(np.arange(1 - n_years, n_years))
    distance = ((np.maximum(da, dy) * (n_ages + n_years) + da + dy) * ((da != 1) | (dy != 0))).ravel()
    origin, distance = distance.size // 2, np.append(distance, np.iinfo(np.int64).max)
    offset = (ages - ages.min()) * (2 * n_years - 1) + (years - years.min())
    place, offset = offset[pool], offset.tolist()   # by slot; a merged stratum's is past the table
    size, order, left = np.asarray(sizes).tolist(), order.tolist(), np.diff(start).tolist()
    holder, merges, debug = list(range(len(codes))), 0, log.isEnabledFor(logging.DEBUG)
    code, member = codes.tolist(), pool.tolist()
    heap = [(size[i], rank[i]) for i in small.tolist()]
    heapq.heapify(heap)
    while heap:
        n, r = heap[0]
        i = order[r]
        if size[i] != n or holder[i] != i:
            heapq.heappop(heap)
            continue
        d = code[i]
        place[slot[i]] = distance.size
        left[d] -= 1
        if not left[d]:
            break
        s, e = start[d], start[d + 1]
        # the distances from i's offset: the table read from the entry of offset -offset[i]
        near = distance[origin - offset[i] :].take(place[s:e], mode="clip")
        j = member[s + int(near.argmin())]
        heapq.heappop(heap)
        size[j] += size[i]
        holder[i] = j
        if size[j] < min_size:
            heapq.heappush(heap, (size[j], rank[j]))
        merges += 1
        if debug:
            log.debug("merged stratum %s (n<%d) into %s", cell_key(strata, i), min_size, cell_key(strata, j))
    diag.incr("stratum_merge", merges)
    holder = np.array(holder, dtype=np.intp)
    while (holder[holder] != holder).any():
        holder = holder[holder]
    return holder


class StepSurvivalCurve:
    """Right-continuous step survival curves, one per stratum, 1 before the
    first jump.

    Stratum i jumps at `jump_times[offsets[i]:offsets[i + 1]]`, all >= 0, to
    the matching `values`; one curve is offsets [0, n].  A jump at 0 (deaths
    at time 0) makes S(0) = 1 - d_0 / n_0.  `survival_at`
    evaluates every stratum, or the `rows` asked for, at a vector of times
    shared by all of them (a rows x times array), or at a rows x m array of
    times, one row per stratum.  Every evaluation is one exact search: each
    jump is keyed by its stratum and the rank of its time among all jump
    times, so one `searchsorted` over the keys counts the jumps at or
    before each (stratum, time) pair.
    """

    def __init__(self, jump_times: np.ndarray, values: np.ndarray, offsets: np.ndarray):
        self.jump_times = np.asarray(jump_times, dtype=np.float64)
        self.values = np.asarray(values, dtype=np.float64)
        n = self.jump_times.shape[0]
        self.offsets = np.asarray(offsets, dtype=np.intp)
        self._stratum = stratum = np.repeat(np.arange(self.offsets.shape[0] - 1), np.diff(self.offsets))
        if n:
            within = stratum[1:] == stratum[:-1]
            if ((np.diff(self.jump_times) <= 0) & within).any():
                raise ValueError("jump times must be strictly increasing")
            if self.jump_times.min() < 0:
                raise ValueError("jumps must occur at non-negative times")
            if ((np.diff(self.values) > 1e-15) & within).any():
                raise ValueError("survival curve must be non-increasing")
            if self.values.max() > 1 or self.values.min() < 0:
                raise ValueError("survival values must lie in [0, 1]")
        self._ranks, rank = np.unique(self.jump_times, return_inverse=True)
        self._keys = stratum * (self._ranks.shape[0] + 1) + rank.reshape(-1)

    def survival_at(self, t, rows=None) -> np.ndarray:
        """Right-continuous evaluation; constant after the last jump."""
        t = np.atleast_1d(np.asarray(t, dtype=np.float64))
        rows = (np.arange(self.offsets.shape[0] - 1) if rows is None else np.asarray(rows, dtype=np.intp))[:, None]
        start = self.offsets[rows]
        rank = np.searchsorted(self._ranks, t, side="right")
        idx = np.searchsorted(self._keys, rows * (self._ranks.shape[0] + 1) + rank) - 1
        return np.where(idx >= start, np.append(self.values, 1.0)[idx], 1.0)   # idx -1 reads the 1

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
    times only), one curve and one `np.cumprod` per stratum of the table."""
    has_death = np.flatnonzero(table.deaths)
    t = table.times[has_death]
    factors = 1.0 - table.deaths[has_death] / table.at_risk[has_death]
    offsets = np.searchsorted(has_death, table.offsets)
    values = np.empty_like(factors)
    for s, e in zip(offsets[:-1].tolist(), offsets[1:].tolist()):
        np.cumprod(factors[s:e], out=values[s:e])
    return StepSurvivalCurve(t, values, offsets)
