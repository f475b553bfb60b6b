"""Randomized ingredient bundles for exercising the two solver paths."""
import numpy as np

from netadjust.registry import StratumKey

from oracles import cell_keys, prevalence_inputs_from_views


class SyntheticIngredients:
    """Random per-cell grids, generated lazily, one row per cell asked for;
    each ingredient takes (demographics, codes, ages, years) cells.

    Occasionally produces numerators above one or locally increasing grids
    so the clip and monotonicity-guard paths get exercised; total diagnosis
    mass stays below 0.85 so residual denominators stay comfortably positive.
    """

    def __init__(self, seed: int, horizon: int = 6):
        self.horizon = horizon
        self.salt = int(seed)
        self._cells: dict[StratumKey, dict] = {}

    def _cell(self, key: StratumKey) -> dict:
        cell = self._cells.get(key)
        if cell is None:
            # seeded by (salt, cell) so content is independent of access order
            rng = np.random.default_rng(np.random.SeedSequence((self.salt, key.age, key.year)))
            k = self.horizon
            lt = np.concatenate(([1.0], np.cumprod(1.0 - rng.uniform(0.0, 0.15, k))))
            if rng.random() < 0.15:
                lt = lt * 1.4          # forces the clip-to-one path
            if rng.random() < 0.15:
                j = rng.integers(1, k + 1)
                lt[j] = min(lt[j - 1] * 1.05, 1.5)   # forces the monotone guard
            alpha = 0.0 if rng.random() < 0.2 else float(rng.uniform(0.0, 0.45))
            prev = np.concatenate(([1.0], np.cumprod(1.0 - rng.uniform(0.0, 0.25, k))))
            so = np.concatenate(([1.0], np.cumprod(1.0 - rng.uniform(0.0, 0.25, k))))
            mass = rng.uniform(0.0, 1.0, k)
            mass *= rng.uniform(0.0, 0.85) / max(mass.sum(), 1e-9)
            cell = {"lt": lt, "alpha": alpha, "prev": prev, "so": so, "mass": mass}
            self._cells[key] = cell
        return cell

    def _stack(self, cells, name):
        return np.array([self._cell(key)[name] for key in cell_keys(cells)])

    def lt_survival_grid(self, cells):
        return self._stack(cells, "lt")

    def alpha(self, cells):
        return self._stack(cells, "alpha")

    def prevalent_grid(self, cells):
        return self._stack(cells, "prev")

    def so_grid(self, cells):
        return self._stack(cells, "so")

    prevalence_inputs = prevalence_inputs_from_views

    def diagnosis_mass(self, cells):
        return self._stack(cells, "mass")


BASE_KEY = StratumKey(60, 2020, ("x",))
