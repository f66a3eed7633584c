"""NSGA-II over mixed real/categorical genomes, plus a random-search baseline.

Designs whose coverage LPs are infeasible are pruned: they stay in the
sample archive with sentinel objectives strictly above the worst attainable
score, so every feasible design dominates them and they never reach the
reported front. The evaluation budget is honored exactly; a final partial
generation is evaluated (but not selected from) when the budget is not a
multiple of the population size.

All randomness flows through one seeded generator consumed in a fixed
order. Designs are scored one generation per evaluator call (the whole
budget in one call for random search), as genome rows in archive order,
and scoring never touches the generator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .arrangement import DesignSpace, Genome

SBX_ETA = 15.0
SBX_RATE = 0.9
MUTATION_ETA = 20.0


@dataclass
class ParetoArchive:
    """Every evaluated sample as one row of four columns, the non-dominated
    feasible rows, and provenance.

    reals (n, n_reals) and cats (n, n_cats) hold the genomes, objectives
    (n, 2) the (e_force, e_velocity) scores, with (sentinel, sentinel) on
    pruned rows, and feasible (n,) which rows were scored. front_indices
    lists the front's rows in evaluation order.
    """

    reals: np.ndarray
    cats: np.ndarray
    objectives: np.ndarray
    feasible: np.ndarray
    front_indices: np.ndarray
    seed: int
    sentinel: float
    generations: int = 0
    history: list[dict] = field(default_factory=list)

    @classmethod
    def empty(cls, space: DesignSpace, n: int, seed: int, sentinel: float) -> ParetoArchive:
        return cls(
            reals=np.empty((n, space.n_reals)),
            cats=np.empty((n, space.n_cats), dtype=np.int64),
            objectives=np.full((n, 2), sentinel),
            feasible=np.zeros(n, dtype=bool),
            front_indices=np.empty(0, dtype=np.intp),
            seed=seed,
            sentinel=sentinel,
        )

    @property
    def evaluation_count(self) -> int:
        return len(self.feasible)

    def genome(self, i: int) -> Genome:
        return Genome(self.reals[i], self.cats[i])


def dominates(a, b) -> bool:
    """True when a is no worse in both objectives and better in one."""
    return a[0] <= b[0] and a[1] <= b[1] and (a[0] < b[0] or a[1] < b[1])


def non_dominated_sort(objectives: np.ndarray) -> list[list[int]]:
    """Fast non-dominated sort; front 0 holds the mutually non-dominated points."""
    objs = np.asarray(objectives, dtype=float)
    n = len(objs)
    le = np.all(objs[:, None, :] <= objs[None, :, :], axis=-1)
    lt = np.any(objs[:, None, :] < objs[None, :, :], axis=-1)
    dom = le & lt  # dom[i, j]: i dominates j
    counts = dom.sum(axis=0)
    fronts = []
    current = np.flatnonzero(counts == 0)
    assigned = np.zeros(n, dtype=bool)
    while len(current):
        fronts.append([int(i) for i in current])
        assigned[current] = True
        counts = counts - dom[current].sum(axis=0)
        current = np.flatnonzero((counts == 0) & ~assigned)
    return fronts


def crowding_distance(objectives: np.ndarray) -> np.ndarray:
    """Normalized neighbor-gap sums; boundary points get +inf."""
    objectives = np.asarray(objectives, dtype=float)
    n = len(objectives)
    dist = np.zeros(n)
    if n <= 2:
        return np.full(n, np.inf)
    for k in range(objectives.shape[1]):
        order = np.argsort(objectives[:, k], kind="stable")
        vals = objectives[order, k]
        dist[order[0]] = np.inf
        dist[order[-1]] = np.inf
        span = vals[-1] - vals[0]
        if span <= 0:
            continue
        dist[order[1:-1]] += (vals[2:] - vals[:-2]) / span
    return dist


def pareto_front_indices(objectives: np.ndarray, feasible: np.ndarray) -> np.ndarray:
    """Rows of the non-dominated feasible samples, in evaluation order.

    Sweep in (e_force, e_velocity) order: within a tie group of equal
    e_force only the minimal e_velocity survives (duplicates included, as
    identical points do not dominate each other), and it must beat every
    strictly-cheaper group's best e_velocity.
    """
    feas = np.flatnonzero(feasible)
    if not len(feas):
        return feas
    objs = np.asarray(objectives)[feas]
    order = np.lexsort((objs[:, 1], objs[:, 0]))
    ef, ev = objs[order, 0], objs[order, 1]
    new_group = np.concatenate([[True], ef[1:] != ef[:-1]])
    group_min = ev[new_group]  # each group is sorted by e_velocity
    best_before = np.minimum.accumulate(np.concatenate([[np.inf], group_min[:-1]]))
    group = np.cumsum(new_group) - 1
    keep = (group_min < best_before)[group] & (ev == group_min[group])
    return np.sort(feas[order[keep]])


def extend_front(objectives: np.ndarray, feasible: np.ndarray, front: np.ndarray,
                 start: int) -> np.ndarray:
    """pareto_front_indices(objectives, feasible), given front, that of the
    rows before start.

    A sample dominated within the prefix is dominated by a member of its
    front, so only the front and the new rows need to be swept.
    """
    candidates = np.concatenate([front, np.arange(start, len(feasible))])
    return candidates[pareto_front_indices(objectives[candidates], feasible[candidates])]


def hypervolume_2d(objectives: np.ndarray, ref_point) -> float:
    """Dominated area between a minimization front and the reference point."""
    ref = np.asarray(ref_point, dtype=float)
    pts = np.asarray(objectives, dtype=float).reshape(-1, 2)
    pts = pts[(pts[:, 0] < ref[0]) & (pts[:, 1] < ref[1])]
    if len(pts) == 0:
        return 0.0
    pts = pts[np.lexsort((pts[:, 1], pts[:, 0]))]
    hv = 0.0
    y_prev = ref[1]
    for x, y in pts:
        if y < y_prev:
            hv += (ref[0] - x) * (y_prev - y)
            y_prev = y
    return float(hv)


# --- genome sampling and variation ------------------------------------------


def random_genome(space: DesignSpace, rng: np.random.Generator) -> Genome:
    reals = rng.random(space.n_reals)
    cats = rng.integers(0, space.cat_cardinality, size=space.n_cats)
    return Genome(reals, cats)


def _sbx_pair(a, b, rng):
    """Simulated binary crossover on unit-interval reals (Deb's formulation)."""
    c1 = a.copy()
    c2 = b.copy()
    for k in range(len(a)):
        if rng.random() > 0.5:
            continue
        x1, x2 = a[k], b[k]
        if abs(x1 - x2) < 1e-14:
            continue
        u = rng.random()
        if u <= 0.5:
            beta = (2.0 * u) ** (1.0 / (SBX_ETA + 1.0))
        else:
            beta = (1.0 / (2.0 * (1.0 - u))) ** (1.0 / (SBX_ETA + 1.0))
        c1[k] = 0.5 * ((1 + beta) * x1 + (1 - beta) * x2)
        c2[k] = 0.5 * ((1 - beta) * x1 + (1 + beta) * x2)
    return np.clip(c1, 0.0, 1.0), np.clip(c2, 0.0, 1.0)


def _polynomial_mutation(reals, rate, rng):
    out = reals.copy()
    for k in range(len(out)):
        if rng.random() >= rate:
            continue
        x = out[k]
        u = rng.random()
        if u < 0.5:
            delta = (2 * u + (1 - 2 * u) * (1.0 - x) ** (MUTATION_ETA + 1)) ** (
                1.0 / (MUTATION_ETA + 1)
            ) - 1.0
        else:
            delta = 1.0 - (
                2 * (1 - u) + 2 * (u - 0.5) * x ** (MUTATION_ETA + 1)
            ) ** (1.0 / (MUTATION_ETA + 1))
        out[k] = min(1.0, max(0.0, x + delta))
    return out


def _vary_pair(p1: Genome, p2: Genome, space: DesignSpace, rng) -> tuple[Genome, Genome]:
    if rng.random() < SBX_RATE:
        r1, r2 = _sbx_pair(p1.reals, p2.reals, rng)
        c1 = p1.cats.copy()
        c2 = p2.cats.copy()
        if space.n_cats:
            swap = rng.random(space.n_cats) < 0.5
            c1[swap], c2[swap] = c2[swap], c1[swap]
    else:
        r1, r2 = p1.reals.copy(), p2.reals.copy()
        c1, c2 = p1.cats.copy(), p2.cats.copy()
    rate = 1.0 / max(1, space.n_reals + space.n_cats)
    r1 = _polynomial_mutation(r1, rate, rng)
    r2 = _polynomial_mutation(r2, rate, rng)
    for c in (c1, c2):
        for k in range(space.n_cats):
            if rng.random() < rate:
                c[k] = rng.integers(0, space.cat_cardinality)
    return Genome(r1, c1), Genome(r2, c2)


def _tournament(rank, crowd, rng) -> int:
    # ties go to the first pick, keeping selection uniform on plateaus
    i = int(rng.integers(0, len(rank)))
    j = int(rng.integers(0, len(rank)))
    if (rank[j], -crowd[j]) < (rank[i], -crowd[i]):
        return j
    return i


# --- the optimizer -----------------------------------------------------------

# (reals (P, n_reals), cats (P, n_cats)) -> (objectives (P, 2), feasible (P,))
EvaluateFn = Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]


def _rows(genomes: list[Genome], space: DesignSpace) -> tuple[np.ndarray, np.ndarray]:
    """Genomes as (P, n_reals) reals and (P, n_cats) int64 cats."""
    n = len(genomes)
    reals = np.array([g.reals for g in genomes], dtype=float).reshape(n, space.n_reals)
    cats = np.array([g.cats for g in genomes], dtype=np.int64).reshape(n, space.n_cats)
    return reals, cats


def _fill(archive: ParetoArchive, row: int, reals: np.ndarray, cats: np.ndarray,
          evaluate_fn) -> int:
    """Score genome rows with one evaluator call into the archive rows from
    row on; returns the next free row. Pruned rows keep the sentinel."""
    end = row + len(reals)
    archive.reals[row:end] = reals
    archive.cats[row:end] = cats
    objectives, feasible = evaluate_fn(reals, cats)
    archive.objectives[row:end][feasible] = objectives[feasible]
    archive.feasible[row:end] = feasible
    return end


def evolve(
    evaluate_fn: EvaluateFn,
    space: DesignSpace,
    population: int,
    budget: int,
    seed: int,
    max_objective: float,
    on_generation: Callable[[dict], None] | None = None,
) -> ParetoArchive:
    """Run NSGA-II for exactly `budget` design evaluations.

    evaluate_fn maps a generation's genome rows to their objectives and
    feasible mask (see feasibility.make_evaluator).
    max_objective is the worst attainable score (directions x states); the
    pruning sentinel is one above it. The population is a set of archive rows.
    """
    if population < 2 or population % 2:
        raise ValueError("population must be even and at least 2")
    if budget < population:
        raise ValueError("budget must cover at least one population")
    rng = np.random.default_rng(seed)
    archive = ParetoArchive.empty(space, budget, seed, float(max_objective) + 1.0)

    def record(start: int, end: int):
        archive.front_indices = extend_front(
            archive.objectives[:end], archive.feasible[:end], archive.front_indices, start
        )
        front = archive.objectives[archive.front_indices]
        best = front.min(axis=0).tolist() if len(front) else (None, None)
        entry = {
            "generation": archive.generations,
            "evaluations": end,
            "front_size": len(front),
            "best_e_force": best[0],
            "best_e_velocity": best[1],
        }
        archive.history.append(entry)
        if on_generation is not None:
            on_generation(entry)

    initial = [random_genome(space, rng) for _ in range(population)]
    row = _fill(archive, 0, *_rows(initial, space), evaluate_fn)
    current = np.arange(population)
    record(0, row)

    while row < budget:
        objs = archive.objectives[current]
        fronts = non_dominated_sort(objs)
        rank = np.empty(len(current), dtype=int)
        crowd = np.empty(len(current))
        for r, front in enumerate(fronts):
            rank[front] = r
            crowd[front] = crowding_distance(objs[front])

        offspring: list[Genome] = []
        while len(offspring) < population:
            a = _tournament(rank, crowd, rng)
            b = _tournament(rank, crowd, rng)
            offspring.extend(_vary_pair(archive.genome(current[a]), archive.genome(current[b]),
                                        space, rng))

        start = row
        row = _fill(archive, start, *_rows(offspring[: budget - start], space), evaluate_fn)
        archive.generations += 1
        record(start, row)
        if row - start < population:
            break  # partial final batch: budget exhausted, no further selection

        merged = np.concatenate([current, np.arange(start, row)])
        objs = archive.objectives[merged]
        fronts = non_dominated_sort(objs)
        survivors: list[int] = []
        for front in fronts:
            if len(survivors) + len(front) <= population:
                survivors.extend(front)
                continue
            crowd_f = crowding_distance(objs[front])
            order = sorted(
                range(len(front)), key=lambda k: (-crowd_f[k], front[k])
            )
            need = population - len(survivors)
            survivors.extend(front[k] for k in order[:need])
            break
        current = merged[survivors]

    return archive


def random_search(
    evaluate_fn: EvaluateFn,
    space: DesignSpace,
    budget: int,
    seed: int,
    max_objective: float,
) -> ParetoArchive:
    """Uniform sampling with the same budget semantics as evolve."""
    rng = np.random.default_rng(seed)
    archive = ParetoArchive.empty(space, budget, seed, float(max_objective) + 1.0)
    samples = [random_genome(space, rng) for _ in range(budget)]
    _fill(archive, 0, *_rows(samples, space), evaluate_fn)
    archive.front_indices = pareto_front_indices(archive.objectives, archive.feasible)
    return archive
