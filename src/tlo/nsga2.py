"""NSGA-II over mixed real/categorical genomes.

Its generation 0 is a uniform random population, so the equal-budget
random-search baseline is evolve with population = budget (an even one):
one evaluator call on `budget` random genomes, no selection, one history
entry.

Designs whose coverage LPs are infeasible are pruned: they stay in the
sample archive with sentinel objectives strictly above the worst attainable
score, so every feasible design dominates them and they never reach the
reported front. The evaluation budget is honored exactly; a final partial
generation is evaluated (but not selected from) when the budget is not a
multiple of the population size.

All randomness flows through one seeded generator consumed in a fixed
order. The search breeds genome rows, and each generation's rows become
designs in one place: evolve decodes them with genome_rows_decode and
hands the scorer the (P,) Design stack, in archive order, one call per
generation. Scoring never touches the generator.

The initial population holds, per genome, the reals of one
random(n_reals) and then the cats of one integers(0, D + 1, size=n_cats)
(a size-0 draw when there are no cats). These values, and the generator
state they leave, come from one random_raw block of the PCG64 bit
generator, by its layout rules:

- a double is (raw >> 11) * 2**-53;
- a cat is (u32 * (D + 1)) >> 32 (Lemire's bounded integers); the u32 are
  the raws' 32-bit halves, low half first, and a high half stays buffered
  in the generator state (has_uint32, uinteger) across the doubles, so the
  raw of every double and half follows from the gene counts and the
  buffer on entry;
- Lemire rejects a half when (u32 * (D + 1)) mod 2**32 < 2**32 mod (D + 1)
  and draws the next one (see random_rows);
- the buffer is written back as the per-genome calls leave it.

NEP 19 lets numpy change Generator streams between versions; the
differential tests in tests/test_nsga2.py (TestRandomRows) compare the
block with the per-genome calls, forced rejections included, so such a
change fails there.

Each generation then breeds its P children with one block per operator
(pairs = P / 2):

1. integers(0, P, size=(2, pairs, 2)): [parent slot, pair, pick] of the
   binary tournaments;
2. random(pairs) < SBX_RATE: the pairs that cross;
3. random((pairs, n_reals)) <= 0.5: the genes that cross in a crossing pair;
4. random((pairs, n_reals)): the SBX spread u;
5. random((pairs, n_cats)) < 0.5: the cat swaps of crossing pairs;
6. the children of pair k are rows 2k and 2k + 1;
7. random((P, n_reals)) < 1 / n_genes: the polynomial-mutation mask, then
   random((P, n_reals)): its step;
8. random((P, n_cats)) < 1 / n_genes: the cat-reset mask, then
   integers(0, D + 1, size=(P, n_cats)): the reset values.

Without cats (constant designs) the cat draws of 5 and 8 are skipped: a
size-0 draw leaves the generator state as it is, buffered half included.

The golden digests in tests/golden/optimize_digests.json pin these draws.
Every block is drawn whole, but polynomial mutation and the cat reset
compute only on the genes their masks select. Selection (sorting,
crowding, survivors) draws nothing; it takes crowding twice per
generation, on the cut front of the merged rows when one is cut, and on
the survivors for the next tournaments. tests/reference_nsga2.py keeps
the operators computed on every gene and the crowding of all merged rows,
and TestAgainstReference in tests/test_nsga2.py requires the same bytes.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .arrangement import Design, DesignSpace, genome_rows_decode
from .model import FieldError, integer_field

SBX_ETA = 15.0
SBX_RATE = 0.9
MUTATION_ETA = 20.0


@dataclass
class OptimizerParams:
    """A search's population, evaluation budget and seed: a scenario's
    optimizer block, whose rules raise a FieldError naming the field."""

    population: int = 100
    budget: int = 10000
    seed: int = 0

    def __post_init__(self):
        self.population, self.budget, self.seed = (
            integer_field(getattr(self, key), key) for key in ("population", "budget", "seed"))
        if self.population < 2 or self.population % 2:
            raise FieldError("population must be even and at least 2", "population")
        if self.budget < self.population:
            raise FieldError("budget must be at least the population size", "budget")
        if self.seed < 0:
            raise FieldError("seed must be at least 0", "seed")


@dataclass
class ParetoArchive:
    """Every evaluated sample as one row of four columns, the non-dominated
    feasible rows, and provenance.

    reals (n, n_reals) and cats (n, n_cats) hold the genomes, objectives
    (n, 2) the (e_force, e_velocity) scores, with (sentinel, sentinel) on
    pruned rows, and feasible (n,) which rows were scored. front_indices
    lists the front's rows in evaluation order, one per distinct point.
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


def non_dominated_sort(objectives: np.ndarray) -> np.ndarray:
    """Pareto rank of each row of two-objective scores, as an (n,) array:
    0 for the non-dominated rows, else one more than the highest rank among
    the row's dominators.

    Sweep in (f0, f1) order, so that a row's dominators come before it,
    keeping each front's last point; their f1 values rise with the rank. A
    row is dominated by a front exactly when that front's last f1 is <= its
    own, unless the last point equals it (equal points do not dominate each
    other), so it joins front bisect_right(last f1, f1), or the front before
    when that front's last point is the row itself.
    """
    objs = np.asarray(objectives, dtype=float)
    f0, f1 = objs[:, 0].tolist(), objs[:, 1].tolist()
    rank = [0] * len(f0)
    last_f0: list[float] = []
    last_f1: list[float] = []
    for i in np.lexsort((objs[:, 1], objs[:, 0])).tolist():
        a, b = f0[i], f1[i]
        r = bisect_right(last_f1, b)
        if r and last_f1[r - 1] == b and last_f0[r - 1] == a:
            r -= 1
        if r == len(last_f1):
            last_f0.append(a)
            last_f1.append(b)
        else:
            last_f0[r] = a
            last_f1[r] = b
        rank[i] = r
    return np.array(rank, dtype=np.intp)


def crowding_distance(objectives: np.ndarray, rank: np.ndarray) -> np.ndarray:
    """Normalized neighbor-gap sums within each front of rank; a front's
    boundary points, and so every point of a front of at most two, get +inf.

    One sort per objective orders every front at once (by rank, then by the
    objective, then by row); the gaps, spans and their sums are those of a
    separate stable sort per front, bit for bit. Each front's values depend
    on its own rows alone.
    """
    objectives = np.asarray(objectives, dtype=float)
    rank = np.asarray(rank)
    n = len(objectives)
    # every sort puts the fronts in rank order, so they share one layout
    sorted_rank = np.sort(rank)
    first = np.empty(n, dtype=bool)
    first[:1] = True
    first[1:] = sorted_rank[1:] != sorted_rank[:-1]
    last = np.empty(n, dtype=bool)
    last[:-1] = first[1:]
    last[-1:] = True
    edge = first | last
    lo, hi = first.nonzero()[0], last.nonzero()[0]
    inner_front = (first.cumsum() - 1)[1:-1]
    dist = np.zeros(n)
    for column in objectives.T:
        order = np.lexsort((column, rank))
        vals = column[order]
        span = vals[hi] - vals[lo]
        # a front without spread has no gaps either, and 0 / inf adds 0
        span[span == 0] = np.inf
        terms = np.empty(n)
        np.divide(vals[2:] - vals[:-2], span[inner_front], out=terms[1:-1])
        terms[edge] = np.inf
        dist[order] += terms
    return dist


def pareto_front_indices(objectives: np.ndarray, feasible: np.ndarray) -> np.ndarray:
    """Rows of the non-dominated feasible samples, one per distinct point
    (its earliest row), in evaluation order.

    Sweep in (e_force, e_velocity, row) order: a tie group of equal e_force
    keeps its first row, which holds the group's minimal e_velocity, when
    that beats every strictly-cheaper group's best e_velocity.
    """
    feas = np.asarray(feasible).nonzero()[0]
    if not len(feas):
        return feas
    objs = np.asarray(objectives)[feas]
    order = np.lexsort((objs[:, 1], objs[:, 0]))
    ef, ev = objs[order].T
    new_group = np.empty(len(ef), dtype=bool)
    new_group[0] = True
    new_group[1:] = ef[1:] != ef[:-1]
    group_min = ev[new_group]  # each group is sorted by e_velocity
    best_before = np.empty(len(group_min))
    best_before[0] = np.inf
    best_before[1:] = np.minimum.accumulate(group_min[:-1])
    keep = new_group.nonzero()[0][group_min < best_before]
    return np.sort(feas[order[keep]])


def extend_front(objectives: np.ndarray, feasible: np.ndarray, front: np.ndarray,
                 start: int) -> np.ndarray:
    """pareto_front_indices(objectives, feasible), given front, that of the
    rows before start.

    A prefix row outside that front is dominated by one of its members or
    repeats one's point at a later row, so only the front and the new rows
    need to be swept.
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


def random_rows(space: DesignSpace, n: int,
                rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """n uniform genomes as (n, n_reals) float reals and (n, n_cats) int64
    cats: the values, and the generator end state, of one random(n_reals)
    then one integers(0, D + 1, size=n_cats) per genome, decoded from one
    random_raw block by PCG64's layout rules (module docstring): doubles
    from raw >> 11, cats from the buffered-then-low-then-high 32-bit halves.
    TestRandomRows in tests/test_nsga2.py holds the per-genome calls as the
    reference and pins this equality. Any other bit generator is refused.
    evolve draws generation 0 with it, and tlo oracle each trial's genome.

    A cat half that Lemire's method rejects (probability 2**-32 per draw
    for D + 1 = 3 or 5, never for 2 or 4) shifts every later half, so the
    genomes before it are block-drawn again from the saved state, its genome
    is drawn with the two calls, and the rest continue as a block.
    """
    bitgen = rng.bit_generator
    if not isinstance(bitgen, np.random.PCG64):
        raise TypeError(f"random genomes decode PCG64 output, not {type(bitgen).__name__}")
    n_reals, n_cats, card = space.n_reals, space.n_cats, space.cat_cardinality
    saved = bitgen.state
    buffered = saved["has_uint32"]
    # raws drawn for cats before genome i: each gives two halves, after the buffered one
    cat_raws = -(-np.maximum(np.arange(n + 1) * n_cats - buffered, 0) // 2)
    is_real = np.zeros(n * n_reals + cat_raws[-1], dtype=bool)
    is_real[(np.arange(n) * n_reals + cat_raws[:-1])[:, None] + np.arange(n_reals)] = True
    raws = bitgen.random_raw(len(is_real))
    reals = ((raws[is_real] >> 11) * 2.0**-53).reshape(n, n_reals)
    cat_raw = raws[~is_real]
    halves = np.stack([cat_raw & 0xFFFFFFFF, cat_raw >> 32], axis=1).ravel()
    if buffered:
        halves = np.concatenate([[np.uint64(saved["uinteger"])], halves])
    scaled = halves[: n * n_cats] * np.uint64(card)
    rejected = np.flatnonzero((scaled & 0xFFFFFFFF) < 2**32 % card)
    if len(rejected):
        g = int(rejected[0]) // n_cats
        bitgen.state = saved
        head = random_rows(space, g, rng)
        one = rng.random((1, n_reals)), rng.integers(0, card, size=(1, n_cats))
        tail = random_rows(space, n - g - 1, rng)
        return tuple(np.concatenate(part) for part in zip(head, one, tail))
    end = bitgen.state
    end["has_uint32"] = len(halves) - n * n_cats
    if len(halves):
        end["uinteger"] = int(halves[-1])
    bitgen.state = end
    return reals, (scaled >> 32).astype(np.int64).reshape(n, n_cats)


def _offspring(rank: np.ndarray, crowd: np.ndarray, reals: np.ndarray, cats: np.ndarray,
               space: DesignSpace, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Breed one generation from the parents' (P, n_reals) reals and
    (P, n_cats) cats: binary tournaments on (rank, -crowd), simulated binary
    crossover (Deb's formulation) with uniform cat swaps, then polynomial and
    uniform-reset mutation. Returns P children as float reals and int64
    cats; the children of pair k are rows 2k and 2k + 1. Each operator draws
    one block, in the order set out in the module docstring; mutation and
    reset compute only on the genes their masks select.
    """
    n, n_reals = reals.shape
    pairs, n_cats = n // 2, space.n_cats
    rate = 1.0 / max(1, n_reals + n_cats)
    sbx_power = 1.0 / (SBX_ETA + 1.0)
    eta = MUTATION_ETA + 1.0
    mutation_power = 1.0 / eta

    # [pick, pair, parent slot]; ties go to the first pick, keeping
    # selection uniform on plateaus
    picks = rng.integers(0, n, size=(2, pairs, 2)).T
    (rank0, rank1), (crowd0, crowd1) = rank[picks], crowd[picks]
    wins = (rank1 < rank0) | ((rank1 == rank0) & (crowd1 > crowd0))
    parents = np.where(wins, picks[1], picks[0])

    # each child starts as its parent: [pair, child, gene]
    x = reals[parents]
    x1, x2 = x[:, 0], x[:, 1]
    crossing = rng.random(pairs) < SBX_RATE
    genes = crossing[:, None] & (rng.random((pairs, n_reals)) <= 0.5) & (abs(x1 - x2) >= 1e-14)
    u = rng.random((pairs, n_reals))
    beta = np.where(u <= 0.5, 2.0 * u, 1.0 / (2.0 * (1.0 - u))) ** sbx_power
    # child j is 0.5 * ((1 + beta) * its parent + (1 - beta) * the other
    # one); the sum commutes, so the second child's bits are those of
    # 0.5 * ((1 - beta) * x1 + (1 + beta) * x2)
    sbx = 0.5 * ((1.0 + beta)[:, None] * x + (1.0 - beta)[:, None] * x[:, ::-1])
    x = np.where(genes[:, None], sbx.clip(0.0, 1.0), x)
    if n_cats:
        swap = crossing[:, None] & (rng.random((pairs, n_cats)) < 0.5)
        c = cats[parents]
        c = np.where(swap[:, None], c[:, ::-1], c).reshape(n, n_cats)
    x = x.reshape(n, n_reals)

    mutate = rng.random((n, n_reals)) < rate
    u = rng.random((n, n_reals))[mutate]
    xm = x[mutate]
    delta = np.where(
        u < 0.5,
        (2.0 * u + (1.0 - 2.0 * u) * (1.0 - xm) ** eta) ** mutation_power - 1.0,
        1.0 - (2.0 * (1.0 - u) + 2.0 * (u - 0.5) * xm ** eta) ** mutation_power,
    )
    x[mutate] = (xm + delta).clip(0.0, 1.0)
    if not n_cats:
        return x, np.empty((n, 0), dtype=np.int64)
    reset = rng.random((n, n_cats)) < rate
    values = rng.integers(0, space.cat_cardinality, size=(n, n_cats))
    return x, np.where(reset, values, c)


# --- the optimizer -----------------------------------------------------------

# designs (P,) -> (objectives (P, 2), feasible (P,))
EvaluateFn = Callable[[Design], tuple[np.ndarray, np.ndarray]]


def _fill(archive: ParetoArchive, row: int, reals: np.ndarray, cats: np.ndarray,
          space: DesignSpace, evaluate_fn: EvaluateFn) -> int:
    """Score genome rows, decoded as designs of space, with one evaluator
    call into the archive rows from row on; returns the next free row.
    Pruned rows keep the sentinel."""
    end = row + len(reals)
    archive.reals[row:end] = reals
    archive.cats[row:end] = cats
    objectives, feasible = evaluate_fn(genome_rows_decode(reals, cats, space))
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
) -> ParetoArchive:
    """Run NSGA-II for exactly `budget` design evaluations.

    evaluate_fn maps a generation's designs, the (P,) Design stack that
    genome_rows_decode makes of its genome rows, to their objectives and
    feasible mask (see feasibility.make_evaluator).
    max_objective is the worst attainable score (directions x states); the
    pruning sentinel is one above it. The population is a set of archive rows.
    archive.history gets one entry per generation: its front size (distinct
    points) and best objectives after that generation's evaluations.
    """
    OptimizerParams(population, budget, seed)  # checks the arguments
    rng = np.random.default_rng(seed)
    archive = ParetoArchive.empty(space, budget, seed, float(max_objective) + 1.0)

    def record(start: int, end: int):
        archive.front_indices = extend_front(
            archive.objectives[:end], archive.feasible[:end], archive.front_indices, start
        )
        # each feasible row is dominated by or equal to a front point: same minima
        front = archive.objectives[archive.front_indices]
        e_force, e_velocity = front.min(axis=0).tolist() if len(front) else (None, None)
        archive.history.append({
            "generation": archive.generations,
            "evaluations": end,
            "front_size": len(front),
            "best_e_force": e_force,
            "best_e_velocity": e_velocity,
        })

    row = _fill(archive, 0, *random_rows(space, population, rng), space, evaluate_fn)
    record(0, row)
    if row == budget:
        return archive  # no generation follows, so nothing is selected
    current = np.arange(population)
    rank = non_dominated_sort(archive.objectives[current])

    while row < budget:
        objs = archive.objectives[current]
        crowd = crowding_distance(objs, rank)
        reals, cats = _offspring(rank, crowd, archive.reals[current], archive.cats[current],
                                 space, rng)

        start = row
        row = _fill(archive, start, reals[: budget - start], cats[: budget - start], space,
                    evaluate_fn)
        archive.generations += 1
        record(start, row)
        if row - start < population:
            break  # partial final batch: budget exhausted, no further selection

        merged = np.concatenate([current, np.arange(start, row)])
        objs = archive.objectives[merged]
        rank = non_dominated_sort(objs)
        survivors = _survivors(objs, rank, population)
        current, rank = merged[survivors], rank[survivors]

    return archive


def _survivors(objectives: np.ndarray, rank: np.ndarray, population: int) -> np.ndarray:
    """The population rows of a merged generation that survive, given its
    ranks: whole fronts by rank, rows in index order; a front that does not
    fit keeps its most isolated rows, ties going to the lower index.
    Crowding is taken on that cut front's rows alone: a front's distances
    depend on its own rows only, so they are those among all merged rows.

    Every dominator of a survivor has a lower rank and survives too, so the
    survivors' ranks among themselves are their ranks in the merged sort:
    evolve carries them to the next generation instead of sorting again.
    """
    order = np.argsort(rank, kind="stable")
    cut = rank[order[population - 1]]
    end = np.count_nonzero(rank <= cut)
    if end > population:
        # the cut front's rows, in index order
        kept = np.count_nonzero(rank < cut)
        tied = order[kept:end]
        crowd = crowding_distance(objectives[tied], rank[tied])
        order[kept:population] = tied[np.argsort(-crowd, kind="stable")[: population - kept]]
    return order[:population]

