"""Reference computations that share no code with the package under test."""
from __future__ import annotations

import csv
import math

import numpy as np

# Dataset-2 generator laws (simulation study): diagnosis age ~ Weibull(shape 1,
# rate 0.015), other-cause death age ~ Weibull(shape 2, rate 0.01), one birth
# cohort, gender 0/1 with probability 1/2, registry window [60, 75).
DS2_DIAG_RATE = 0.015
DS2_OTHER_RATE = 0.01
DS2_BIRTH_YEAR = 1960
DS2_WINDOW = (60, 75)


def ds2_excess_hazard(age_cell, gender):
    """0.1 at (age 60, year 2000, gender 0); x1.2 per 7.5 years of age,
    x0.95 per 15 calendar years, x0.8 for gender 1."""
    year = DS2_BIRTH_YEAR + age_cell
    return (0.1 * 1.2 ** ((age_cell - 60.0) / 7.5)
            * 0.95 ** ((year - 2000.0) / 15.0) * 0.8 ** gender)


def ds2_net_survival(years, nodes: int = 64) -> dict[float, float]:
    """True dataset-2 net survival of the registry window, by quadrature.

    A subject enters the registry if diagnosed in the window before dying of
    other causes, so diagnosis ages carry the density f(x) * S_other(x); the
    excess hazard is constant given the integer age cell and gender.
    """
    x, w = np.polynomial.legendre.leggauss(nodes)
    cells = np.arange(*DS2_WINDOW, dtype=np.float64)
    mass = np.empty(cells.shape[0])
    for i, a in enumerate(cells):
        ages = a + 0.5 * (x + 1.0)
        dens = DS2_DIAG_RATE * np.exp(-DS2_DIAG_RATE * ages) * np.exp(-(DS2_OTHER_RATE * ages) ** 2)
        mass[i] = 0.5 * float(w @ dens)
    mass /= mass.sum()
    out = {}
    for y in years:
        per_cell = 0.5 * (np.exp(-ds2_excess_hazard(cells, 0) * y) + np.exp(-ds2_excess_hazard(cells, 1) * y))
        out[float(y)] = float(mass @ per_cell)
    return out


def pooled_kaplan_meier(registry_csv, years) -> dict[float, float]:
    """All-cause Kaplan-Meier of the whole registry CSV at each year."""
    times, events = [], []
    with open(registry_csv, newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            times.append(float(row["time"]))
            events.append(int(row["event"]))
    t = np.asarray(times)
    e = np.asarray(events, dtype=bool)
    order = np.lexsort((~e, t))        # deaths before censorings at ties
    t, e = t[order], e[order]
    at_risk = t.shape[0] - np.searchsorted(t, t, side="left")
    factors = np.where(e, 1.0 - 1.0 / at_risk, 1.0)
    curve = np.cumprod(factors)
    out = {}
    for y in years:
        m = int(np.searchsorted(t, y, side="right"))
        out[float(y)] = float(curve[m - 1]) if m else 1.0
    return out


def pohar_perme_se(reg, years) -> dict[float, float]:
    """Standard error of the Pohar-Perme net survival at each year.

    Uses the usual variance of the weighted excess cumulative hazard,
    sum over deaths of w_i^2 / (sum_j Y_j w_j)^2 with w = 1 / S_P, where
    S_P is the patient's life-table survival along its diagonal (constant
    hazard within each year); the risk sets are summed per (age, year, sex)
    cell.
    """
    keys = np.stack([reg.age, reg.year, reg.sex], axis=1)
    cells, cell_of = np.unique(keys, axis=0, return_inverse=True)
    cell_of = cell_of.ravel()
    t_max = max(years)
    steps = int(math.ceil(t_max)) + 1
    h = reg.diagonal_hazards(cells[:, 0], cells[:, 1], cells[:, 2], steps)
    cum = np.concatenate([np.zeros((cells.shape[0], 1)), np.cumsum(h, axis=1)], axis=1)
    sorted_times = [np.sort(reg.time[cell_of == g]) for g in range(cells.shape[0])]

    dead = reg.event & (reg.time <= t_max)
    u = reg.time[dead]
    order = np.argsort(u)
    u, dead_cell = u[order], cell_of[dead][order]
    terms = np.empty(u.shape[0])
    for lo in range(0, u.shape[0], 2048):
        uc = u[lo:lo + 2048]
        whole = np.floor(uc).astype(np.int64)
        hazard = cum[:, whole] + (uc - whole) * h[:, whole]          # cells x chunk
        at_risk = np.stack([st.shape[0] - np.searchsorted(st, uc, side="left") for st in sorted_times])
        denom = (at_risk * np.exp(hazard)).sum(axis=0)
        w_dead = np.exp(hazard[dead_cell[lo:lo + 2048], np.arange(uc.shape[0])])
        terms[lo:lo + 2048] = (w_dead / denom) ** 2
    var = np.cumsum(terms)
    out = {}
    for y in years:
        m = int(np.searchsorted(u, y, side="right"))
        v = float(var[m - 1]) if m else 0.0
        out[float(y)] = reg.net_survival(y) * math.sqrt(v)
    return out
