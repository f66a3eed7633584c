"""Reference copies of NSGA-II's generation step, as each function first
computed it.

tlo.nsga2 gathers the tournament's ranks and crowding once, writes the
children into preallocated arrays, evaluates the polynomial-mutation step
and the cat reset only on the genes their masks select, builds crowding
from slices, and takes crowding in _survivors on the cut front alone. None
of that may change a draw, a child or a survivor: tests/test_nsga2.py
(TestAgainstReference) requires the package's results, and the generator
state after each call, to have the same bytes as these.

Here every operator computes on every gene and then selects with
np.where, crowding uses np.roll and np.cumsum, and _survivors takes
crowding on all merged rows whenever a front is cut.
"""

from __future__ import annotations

import numpy as np

from tlo.nsga2 import MUTATION_ETA, SBX_ETA, SBX_RATE


def crowding_distance(objectives, rank):
    objectives = np.asarray(objectives, dtype=float)
    rank = np.asarray(rank)
    n = len(objectives)
    dist = np.zeros(n)
    sorted_rank = np.sort(rank)
    first = np.ones(n, dtype=bool)
    first[1:] = sorted_rank[1:] != sorted_rank[:-1]
    last = np.roll(first, -1)
    edge = first | last
    front = np.cumsum(first) - 1
    for k in range(objectives.shape[1]):
        order = np.lexsort((objectives[:, k], rank))
        vals = objectives[order, k]
        span = (vals[last] - vals[first])[front]
        inner = np.flatnonzero(~edge & (span > 0))
        dist[order[inner]] += (vals[inner + 1] - vals[inner - 1]) / span[inner]
        dist[order[edge]] = np.inf
    return dist


def survivors(objectives, rank, population):
    survivors = np.argsort(rank, kind="stable")[:population]
    cut = rank[survivors[-1]]
    if np.count_nonzero(rank <= cut) > population:
        crowd = crowding_distance(objectives, rank)
        tied = np.flatnonzero(rank == cut)
        kept = survivors[rank[survivors] < cut]
        tied = tied[np.argsort(-crowd[tied], kind="stable")]
        survivors = np.concatenate([kept, tied[: population - len(kept)]])
    return survivors


def offspring(rank, crowd, reals, cats, space, rng):
    n, n_reals = reals.shape
    pairs, n_cats = n // 2, space.n_cats
    rate = 1.0 / max(1, n_reals + n_cats)
    sbx_power = 1.0 / (SBX_ETA + 1.0)
    mutation_power = 1.0 / (MUTATION_ETA + 1)

    picks = rng.integers(0, n, size=(2, pairs, 2))
    first, second = picks[..., 0], picks[..., 1]
    wins = (rank[second] < rank[first]) | (
        (rank[second] == rank[first]) & (crowd[second] > crowd[first]))
    a, b = np.where(wins, second, first)

    x1, x2 = reals[a], reals[b]
    crossing = rng.random(pairs) < SBX_RATE
    genes = crossing[:, None] & (rng.random((pairs, n_reals)) <= 0.5) & (abs(x1 - x2) >= 1e-14)
    u = rng.random((pairs, n_reals))
    beta = np.where(u <= 0.5, 2.0 * u, 1.0 / (2.0 * (1.0 - u))) ** sbx_power
    r1 = np.where(genes, np.clip(0.5 * ((1 + beta) * x1 + (1 - beta) * x2), 0.0, 1.0), x1)
    r2 = np.where(genes, np.clip(0.5 * ((1 - beta) * x1 + (1 + beta) * x2), 0.0, 1.0), x2)
    swap = crossing[:, None] & (rng.random((pairs, n_cats)) < 0.5)
    c1, c2 = np.where(swap, cats[b], cats[a]), np.where(swap, cats[a], cats[b])
    x = np.stack([r1, r2], axis=1).reshape(n, n_reals)
    c = np.stack([c1, c2], axis=1).reshape(n, n_cats)

    mutate = rng.random((n, n_reals)) < rate
    u = rng.random((n, n_reals))
    delta = np.where(
        u < 0.5,
        (2 * u + (1 - 2 * u) * (1.0 - x) ** (MUTATION_ETA + 1)) ** mutation_power - 1.0,
        1.0 - (2 * (1 - u) + 2 * (u - 0.5) * x ** (MUTATION_ETA + 1)) ** mutation_power,
    )
    reset = rng.random((n, n_cats)) < rate
    values = rng.integers(0, space.cat_cardinality, size=(n, n_cats))
    return np.where(mutate, np.clip(x + delta, 0.0, 1.0), x), np.where(reset, values, c)
