"""NSGA-II over mixed real/categorical genomes, plus a random-search baseline.

Designs whose coverage LPs are infeasible are pruned: they stay in the
sample archive with sentinel objectives strictly above the worst attainable
score, so every feasible design dominates them and they never reach the
reported front. The evaluation budget is honored exactly; a final partial
generation is evaluated (but not selected from) when the budget is not a
multiple of the population size.

All randomness flows through one seeded generator consumed in a fixed
order. Designs are evaluated one after another in generation order, and
evaluations never touch the generator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .arrangement import DesignSpace, Genome, genome_decode

SBX_ETA = 15.0
SBX_RATE = 0.9
MUTATION_ETA = 20.0


@dataclass
class Individual:
    genome: Genome
    e_force: float
    e_velocity: float
    feasible: bool

    @property
    def objectives(self) -> tuple[float, float]:
        return (self.e_force, self.e_velocity)


@dataclass
class ParetoArchive:
    """Every evaluated sample, the non-dominated feasible subset, and provenance."""

    individuals: list[Individual]
    front_indices: list[int]
    seed: int
    evaluation_count: int
    sentinel: float
    generations: int = 0
    history: list[dict] = field(default_factory=list)

    @property
    def front(self) -> list[Individual]:
        return [self.individuals[i] for i in self.front_indices]


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


def pareto_front_indices(individuals: list[Individual]) -> list[int]:
    """Indices of non-dominated feasible samples, in evaluation order.

    Sweep in (e_force, e_velocity) order: within a tie group of equal
    e_force only the minimal e_velocity survives (duplicates included, as
    identical points do not dominate each other), and it must beat every
    strictly-cheaper group's best e_velocity.
    """
    feas = [i for i, ind in enumerate(individuals) if ind.feasible]
    if not feas:
        return []
    objs = np.array([individuals[i].objectives for i in feas])
    order = np.lexsort((objs[:, 1], objs[:, 0]))
    keep: list[int] = []
    best_ev = np.inf
    pos = 0
    while pos < len(order):
        ef = objs[order[pos], 0]
        end = pos
        while end < len(order) and objs[order[end], 0] == ef:
            end += 1
        group_min = objs[order[pos], 1]
        if group_min < best_ev:
            for k in range(pos, end):
                if objs[order[k], 1] == group_min:
                    keep.append(feas[order[k]])
            best_ev = group_min
        pos = end
    return sorted(keep)


def extend_front(individuals: list[Individual], front: list[int], start: int) -> list[int]:
    """pareto_front_indices(individuals), given front, that of individuals[:start].

    A sample dominated within the prefix is dominated by a member of its
    front, so only the front and the new samples need to be swept.
    """
    candidates = front + list(range(start, len(individuals)))
    kept = pareto_front_indices([individuals[i] for i in candidates])
    return [candidates[k] for k in kept]


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

EvaluateFn = Callable[..., object]


def _evaluate_batch(evaluate_fn, space, genomes, sentinel) -> list[Individual]:
    def one(genome: Genome) -> Individual:
        res = evaluate_fn(genome_decode(genome, space))
        if not res.feasible:
            return Individual(genome, sentinel, sentinel, False)
        return Individual(genome, res.e_force, res.e_velocity, True)

    return [one(g) for g in genomes]


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

    evaluate_fn maps a decoded arrangement to an object with e_force,
    e_velocity and feasible attributes (see feasibility.EvaluationResult).
    max_objective is the worst attainable score (directions x states); the
    pruning sentinel is one above it.
    """
    if population < 2 or population % 2:
        raise ValueError("population must be even and at least 2")
    if budget < population:
        raise ValueError("budget must cover at least one population")
    rng = np.random.default_rng(seed)
    sentinel = float(max_objective) + 1.0

    archive: list[Individual] = []
    history: list[dict] = []
    archive_front: list[int] = []

    def record(generation: int, batch_size: int):
        nonlocal archive_front
        archive_front = extend_front(archive, archive_front, len(archive) - batch_size)
        entry = {
            "generation": generation,
            "evaluations": len(archive),
            "front_size": len(archive_front),
            "best_e_force": min((archive[i].e_force for i in archive_front), default=None),
            "best_e_velocity": min((archive[i].e_velocity for i in archive_front),
                                   default=None),
        }
        history.append(entry)
        if on_generation is not None:
            on_generation(entry)

    pop = [random_genome(space, rng) for _ in range(population)]
    evaluated = _evaluate_batch(evaluate_fn, space, pop, sentinel)
    archive.extend(evaluated)
    current = evaluated
    generation = 0
    record(generation, len(evaluated))

    while len(archive) < budget:
        objs = np.array([ind.objectives for ind in current])
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
            offspring.extend(_vary_pair(current[a].genome, current[b].genome, space, rng))
        offspring = offspring[:population]

        remaining = budget - len(archive)
        batch = offspring[: min(population, remaining)]
        evaluated = _evaluate_batch(evaluate_fn, space, batch, sentinel)
        archive.extend(evaluated)
        generation += 1
        record(generation, len(evaluated))
        if len(batch) < population:
            break  # partial final batch: budget exhausted, no further selection

        merged = current + evaluated
        objs = np.array([ind.objectives for ind in merged])
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
        current = [merged[i] for i in survivors]

    return ParetoArchive(
        individuals=archive,
        front_indices=archive_front,
        seed=seed,
        evaluation_count=len(archive),
        sentinel=sentinel,
        generations=generation,
        history=history,
    )


def random_search(
    evaluate_fn: EvaluateFn,
    space: DesignSpace,
    budget: int,
    seed: int,
    max_objective: float,
) -> ParetoArchive:
    """Uniform sampling with the same budget semantics as evolve."""
    rng = np.random.default_rng(seed)
    sentinel = float(max_objective) + 1.0
    genomes = [random_genome(space, rng) for _ in range(budget)]
    archive = _evaluate_batch(evaluate_fn, space, genomes, sentinel)
    return ParetoArchive(
        individuals=archive,
        front_indices=pareto_front_indices(archive),
        seed=seed,
        evaluation_count=len(archive),
        sentinel=sentinel,
    )
