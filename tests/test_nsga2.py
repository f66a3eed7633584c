import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tlo.arrangement import DesignSpace, genome_rows_decode
import reference_nsga2 as reference
import tlo.nsga2
from tlo.nsga2 import (
    OptimizerParams,
    _offspring,
    _random_rows,
    _survivors,
    crowding_distance,
    evolve,
    extend_front,
    hypervolume_2d,
    non_dominated_sort,
    pareto_front_indices,
)

SPACE = DesignSpace("variable", 2, 2, 2)
WIDE_SPACE = DesignSpace("variable", 3, 3, 2)
CONSTANT_SPACE = DesignSpace("constant", 2, None, 2)


def toy_evaluator(reals, cats):
    """Cheap deterministic objectives: smooth trade-off plus a pruned pocket.

    Scores derive from relay fractions (the reals) and link choices (the
    cats) only, so the optimizer sees a realistic mixed landscape without
    any LP work.
    """
    feasible = reals[:, 0] >= 0.1  # outside the pruned pocket
    a = 5 * np.sum((reals - 0.35) ** 2, axis=1) + 0.1 * np.sum(cats == 1, axis=1)
    b = 5 * np.sum((reals - 0.65) ** 2, axis=1) + 0.1 * np.sum(cats == 2, axis=1)
    return np.column_stack([a, b]), feasible


def hill_evaluator(reals, cats):
    """Perfectly correlated objectives: a pure descent task for selection."""
    a = np.sum((reals - 0.4) ** 2, axis=1)
    return np.column_stack([a, 2 * a]), np.ones(len(reals), dtype=bool)


def dominates(a, b) -> bool:
    """True when a is no worse in both objectives and better in one."""
    return a[0] <= b[0] and a[1] <= b[1] and (a[0] < b[0] or a[1] < b[1])


def brute_force_front(objectives):
    """Rows that no row dominates, repeated points included."""
    return [
        i
        for i, oi in enumerate(objectives)
        if not any(dominates(oj, oi) for j, oj in enumerate(objectives) if j != i)
    ]


def brute_force_front_points(objectives):
    """The earliest row of each distinct point of brute_force_front."""
    return [i for i in brute_force_front(objectives)
            if not any(np.array_equal(objectives[j], objectives[i]) for j in range(i))]


def per_front_crowding(objectives, rank):
    """Crowding distance computed one front at a time, the front's rows in
    index order: the reference for the single-pass crowding_distance."""
    dist = np.empty(len(objectives))
    for r in np.unique(rank):
        front = np.flatnonzero(rank == r)
        objs = objectives[front]
        d = np.zeros(len(front))
        if len(front) <= 2:
            d[:] = np.inf
        else:
            for k in range(objs.shape[1]):
                order = np.argsort(objs[:, k], kind="stable")
                vals = objs[order, k]
                d[order[0]] = np.inf
                d[order[-1]] = np.inf
                span = vals[-1] - vals[0]
                if span <= 0:
                    continue
                d[order[1:-1]] += (vals[2:] - vals[:-2]) / span
        dist[front] = d
    return dist


def per_genome_rows(space, n, rng):
    """One random(n_reals) then one integers(0, D + 1, size=n_cats) per
    genome: the reference for _random_rows, which decodes one raw block."""
    reals = np.empty((n, space.n_reals))
    cats = np.empty((n, space.n_cats), dtype=np.int64)
    for i in range(n):
        reals[i] = rng.random(space.n_reals)
        cats[i] = rng.integers(0, space.cat_cardinality, size=space.n_cats)
    return reals, cats


class CountingGenerator(np.random.Generator):
    """A Generator that counts its integers calls."""

    def __init__(self, bit_generator):
        super().__init__(bit_generator)
        self.integers_calls = 0

    def integers(self, *args, **kwargs):
        self.integers_calls += 1
        return super().integers(*args, **kwargs)


# small integer grids: ties on each objective, exact duplicates, and
# sentinel rows (33, 33) as pruned designs carry them
GRID = st.lists(
    st.one_of(st.tuples(st.integers(0, 5), st.integers(0, 5)), st.just((33, 33))),
    min_size=1, max_size=60,
)


class TestSorting:
    def test_chain(self):
        assert non_dominated_sort(np.array([[1.0, 1.0], [2.0, 2.0]])).tolist() == [0, 1]

    def test_incomparable_pair(self):
        assert non_dominated_sort(np.array([[1.0, 2.0], [2.0, 1.0]])).tolist() == [0, 0]

    @given(
        st.lists(
            st.tuples(st.integers(0, 8), st.integers(0, 8)), min_size=1, max_size=40
        )
    )
    @settings(max_examples=80, deadline=None)
    def test_front_zero_matches_brute_force(self, pairs):
        objs = np.array(pairs, dtype=float)
        rank = non_dominated_sort(objs)
        assert rank.shape == (len(objs),)
        assert np.flatnonzero(rank == 0).tolist() == brute_force_front(objs)

    def test_later_fronts_dominated_only_by_earlier(self):
        rng = np.random.default_rng(5)
        objs = rng.integers(0, 6, size=(30, 2)).astype(float)
        rank = non_dominated_sort(objs)
        for i in range(len(objs)):
            for j in range(len(objs)):
                if dominates(objs[i], objs[j]):
                    assert rank[i] < rank[j]

    @given(GRID)
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_rank_properties(self, pairs):
        objs = np.array(pairs, dtype=float)
        rank = non_dominated_sort(objs)
        for i, oi in enumerate(objs):
            for j, oj in enumerate(objs):
                if dominates(oi, oj):
                    assert rank[i] < rank[j]
                if np.array_equal(oi, oj):
                    assert rank[i] == rank[j]
            if rank[i] > 0:
                assert any(dominates(objs[j], oi) for j in np.flatnonzero(rank == rank[i] - 1))


class TestSurvivors:
    @given(GRID, st.integers(1, 60))
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_carried_ranks_equal_a_fresh_sort(self, pairs, population):
        """evolve carries the survivors' merged ranks to the next generation:
        they equal a sort of the survivors alone, with tied points, fronts
        cut by crowding and sentinel rows (33, 33) included."""
        objs = np.array(pairs, dtype=float)
        population = min(population, len(objs))
        rank = non_dominated_sort(objs)
        survivors = _survivors(objs, rank, population)
        assert sorted(survivors.tolist()) == sorted(set(survivors.tolist()))
        assert len(survivors) == population
        assert rank[survivors].tolist() == non_dominated_sort(objs[survivors]).tolist()


class TestCrowding:
    def test_pair_is_infinite(self):
        d = crowding_distance(np.array([[0.0, 1.0], [1.0, 0.0]]), np.zeros(2, dtype=int))
        assert np.all(np.isinf(d))

    def test_equally_spaced_interior(self):
        objs = np.array([[0, 4], [1, 3], [2, 2], [3, 1], [4, 0]], dtype=float)
        d = crowding_distance(objs, np.zeros(5, dtype=int))
        assert np.isinf(d[0]) and np.isinf(d[-1])
        np.testing.assert_allclose(d[1:-1], d[1])

    def test_permutation_invariance(self):
        rng = np.random.default_rng(2)
        objs = rng.random((12, 2))
        d = crowding_distance(objs, np.zeros(12, dtype=int))
        perm = rng.permutation(12)
        d_perm = crowding_distance(objs[perm], np.zeros(12, dtype=int))
        np.testing.assert_allclose(d_perm, d[perm])

    @given(GRID)
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_matches_per_front_reference_on_grids(self, pairs):
        objs = np.array(pairs, dtype=float)
        rank = non_dominated_sort(objs)
        assert np.array_equal(crowding_distance(objs, rank), per_front_crowding(objs, rank))

    @given(st.integers(0, 2**32 - 1), st.integers(1, 80))
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_matches_per_front_reference_on_reals(self, seed, n):
        rng = np.random.default_rng(seed)
        objs = rng.random((n, 2)).round(rng.integers(1, 4))
        rank = non_dominated_sort(objs)
        assert np.array_equal(crowding_distance(objs, rank), per_front_crowding(objs, rank))


def archive_columns(samples):
    """objectives and feasible columns from (e_force, e_velocity, feasible)
    samples; pruned rows hold the sentinel 33, as in evolve's archive."""
    objs = np.array([(a, b) if f else (33.0, 33.0) for a, b, f in samples],
                    dtype=float).reshape(-1, 2)
    return objs, np.array([f for _, _, f in samples], dtype=bool)


# few distinct values: ties on each objective and exact duplicates
SAMPLES = st.lists(
    st.tuples(st.integers(0, 4), st.integers(0, 4), st.booleans()), min_size=1, max_size=60
)


class TestParetoFrontIndices:
    @given(SAMPLES)
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_matches_brute_force_with_duplicates(self, samples):
        objs, feasible = archive_columns(samples)
        rows = np.flatnonzero(feasible)
        expect = [int(rows[k]) for k in brute_force_front_points(objs[rows])]
        assert pareto_front_indices(objs, feasible).tolist() == expect

    def test_excludes_infeasible(self):
        objs, feasible = archive_columns([(0.0, 0.0, False), (5.0, 5.0, True)])
        assert pareto_front_indices(objs, feasible).tolist() == [1]

    def test_empty_when_all_pruned(self):
        objs, feasible = archive_columns([(0.0, 0.0, False)])
        assert pareto_front_indices(objs, feasible).tolist() == []


class TestExtendFront:
    @given(SAMPLES, st.integers(1, 12))
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_equals_the_full_front_after_every_batch(self, samples, batch):
        objs, feasible = archive_columns(samples)
        front = np.empty(0, dtype=np.intp)
        for start in range(0, len(objs), batch):
            end = start + batch
            front = extend_front(objs[:end], feasible[:end], front, start)
            assert front.tolist() == pareto_front_indices(objs[:end], feasible[:end]).tolist()


class TestHypervolume:
    def test_single_point(self):
        assert hypervolume_2d(np.array([[1.0, 1.0]]), (33, 33)) == pytest.approx(32 * 32)

    def test_dominated_point_adds_nothing(self):
        pts = np.array([[1.0, 1.0], [2.0, 2.0]])
        assert hypervolume_2d(pts, (33, 33)) == pytest.approx(32 * 32)

    def test_staircase(self):
        pts = np.array([[0.0, 2.0], [2.0, 0.0]])
        assert hypervolume_2d(pts, (4, 4)) == pytest.approx(2 * 4 + 2 * 2)

    def test_outside_reference_ignored(self):
        assert hypervolume_2d(np.array([[50.0, 1.0]]), (33, 33)) == 0.0
        assert hypervolume_2d(np.empty((0, 2)), (33, 33)) == 0.0


class TestEvolve:
    def test_budget_equal_population_is_initial_front(self):
        arch = evolve(toy_evaluator, SPACE, 20, 20, seed=1, max_objective=32.0)
        assert arch.evaluation_count == 20
        assert arch.generations == 0
        assert arch.cats.dtype == np.int64
        reals, cats = per_genome_rows(SPACE, 20, np.random.default_rng(1))
        assert np.array_equal(arch.reals, reals)
        assert np.array_equal(arch.cats, cats)

    def test_deterministic(self):
        a = evolve(toy_evaluator, SPACE, 20, 200, seed=7, max_objective=32.0)
        b = evolve(toy_evaluator, SPACE, 20, 200, seed=7, max_objective=32.0)
        assert a.evaluation_count == b.evaluation_count
        assert np.array_equal(a.reals, b.reals)
        assert np.array_equal(a.cats, b.cats)
        assert np.array_equal(a.objectives, b.objectives)
        assert np.array_equal(a.feasible, b.feasible)

    def test_exact_budget_accounting(self):
        import math

        for budget in (20, 47, 100, 101):
            arch = evolve(toy_evaluator, SPACE, 20, budget, seed=3, max_objective=32.0)
            assert arch.evaluation_count == budget
            for column in (arch.reals, arch.cats, arch.objectives, arch.feasible):
                assert len(column) == budget
            assert arch.generations == math.ceil(budget / 20) - 1

    def test_one_sort_per_selection(self, monkeypatch):
        """Generation 0's parents are sorted when a generation follows;
        later parents carry their ranks from the merged sort that selected
        them."""
        calls = []

        def counted(objectives):
            calls.append(len(objectives))
            return non_dominated_sort(objectives)

        monkeypatch.setattr(tlo.nsga2, "non_dominated_sort", counted)
        evolve(toy_evaluator, SPACE, 20, 101, seed=3, max_objective=32.0)
        assert calls == [20] + [40] * 4  # four full bred generations; the fifth is partial
        calls.clear()
        evolve(toy_evaluator, SPACE, 20, 20, seed=3, max_objective=32.0)
        assert calls == []  # no generation follows the initial population

    def test_sentinel_and_front_exclusion(self):
        arch = evolve(toy_evaluator, SPACE, 20, 400, seed=5, max_objective=32.0)
        pruned = arch.objectives[~arch.feasible]
        assert len(pruned), "pruned pocket should be sampled"
        assert np.all(pruned == 33.0)
        assert np.all(arch.feasible[arch.front_indices])
        # brute-force domination check over feasible samples
        objs = arch.objectives[arch.feasible]
        for fo in arch.objectives[arch.front_indices]:
            assert not any(dominates(o, fo) for o in objs)

    def test_running_front_equals_the_full_front_every_generation(self):
        # rounded objectives give ties and duplicates across generations
        scores = []

        def coarse(reals, cats):
            objectives, feasible = toy_evaluator(reals, cats)
            objectives = objectives.round(1)
            scores.extend(zip(objectives[:, 0], objectives[:, 1], feasible))
            return objectives, feasible

        arch = evolve(coarse, SPACE, 20, 410, seed=4, max_objective=32.0)
        assert [entry["generation"] for entry in arch.history] == list(range(21))
        for entry in arch.history:
            objs, feasible = archive_columns(scores[: entry["evaluations"]])
            front = pareto_front_indices(objs, feasible)
            assert entry["front_size"] == len(front)
            assert entry["best_e_force"] == min(objs[i, 0] for i in front)
            assert entry["best_e_velocity"] == min(objs[i, 1] for i in front)
        assert (arch.front_indices.tolist()
                == pareto_front_indices(arch.objectives, arch.feasible).tolist())
        objs = [tuple(o) for o in arch.objectives[arch.front_indices].tolist()]
        assert len(objs) == len(set(objs))  # one row per distinct point
        feasible = [tuple(o) for o in arch.objectives[arch.feasible].tolist()]
        assert any(feasible.count(o) > 1 for o in objs)  # a front point that later rows tie

    def test_archive_hypervolume_monotone(self):
        arch = evolve(toy_evaluator, SPACE, 20, 400, seed=9, max_objective=32.0)
        ref = (33.0, 33.0)
        prev = -1.0
        for entry in arch.history:
            upto = arch.objectives[: entry["evaluations"]]
            front = pareto_front_indices(upto, arch.feasible[: entry["evaluations"]])
            hv = hypervolume_2d(upto[front], ref)
            assert hv >= prev - 1e-12
            prev = hv

    def test_history_schema(self):
        arch = evolve(toy_evaluator, SPACE, 20, 100, seed=2, max_objective=32.0)
        assert [h["generation"] for h in arch.history] == list(range(len(arch.history)))
        assert arch.history[-1]["evaluations"] == 100
        assert all(h["front_size"] >= 0 for h in arch.history)

    @pytest.mark.parametrize("space", [SPACE, CONSTANT_SPACE], ids=["variable", "constant"])
    def test_population_of_two(self, space):
        arch = evolve(toy_evaluator, space, 2, 21, seed=1, max_objective=32.0)
        assert arch.evaluation_count == 21
        assert arch.generations == 10
        assert arch.cats.shape == (21, space.n_cats)
        again = evolve(toy_evaluator, space, 2, 21, seed=1, max_objective=32.0)
        assert np.array_equal(arch.reals, again.reals)

    @pytest.mark.parametrize("space", [SPACE, CONSTANT_SPACE], ids=["variable", "constant"])
    def test_any_two_argument_function_is_an_evaluator(self, space):
        # the search hands the evaluator genome rows and nothing else
        sizes = []

        def plain(reals, cats):
            sizes.append(len(reals))
            return toy_evaluator(reals, cats)

        evolve(plain, space, 20, 410, seed=5, max_objective=32.0)
        evolve(plain, space, 50, 50, seed=5, max_objective=32.0)
        assert sizes == [20] * 20 + [10, 50]

    def test_validation(self):
        with pytest.raises(ValueError, match="population must be even and at least 2"):
            evolve(toy_evaluator, SPACE, 21, 100, seed=0, max_objective=32.0)
        with pytest.raises(ValueError, match="budget must be at least the population size"):
            evolve(toy_evaluator, SPACE, 20, 10, seed=0, max_objective=32.0)

    def test_settings_may_be_numpy_integers(self):
        # and are kept as ints, which run_meta.json's encoder takes
        params = OptimizerParams(np.int64(40), np.int32(200), np.uint8(3))
        assert [(type(v), v) for v in (params.population, params.budget, params.seed)] == [
            (int, 40), (int, 200), (int, 3)]
        arch = evolve(toy_evaluator, SPACE, np.int64(20), np.int64(40), np.int64(1), 32.0)
        assert arch.evaluation_count == 40

    def test_selection_pressure_beats_random_descent(self):
        # correlated objectives leave a single optimum: selection must descend
        # the nine-dimensional well far faster than uniform sampling
        wins = 0
        for seed in range(5):
            a = evolve(hill_evaluator, WIDE_SPACE, 20, 400, seed=seed, max_objective=32.0)
            r = evolve(hill_evaluator, WIDE_SPACE, 400, 400, seed=seed, max_objective=32.0)
            wins += a.objectives[:, 0].min() <= r.objectives[:, 0].min()
        assert wins >= 4


class TestOffspring:
    def breed(self, space, population, seed=0):
        rng = np.random.default_rng(seed)
        reals, cats = _random_rows(space, population, rng)
        rank = np.arange(population) % 3
        crowd = rng.random(population)
        return _offspring(rank, crowd, reals, cats, space, rng)

    def test_constant_space_has_empty_int_cats(self):
        reals, cats = self.breed(CONSTANT_SPACE, 6)
        assert reals.shape == (6, CONSTANT_SPACE.n_reals)
        assert cats.shape == (6, 0) and cats.dtype == np.int64

    def test_children_within_ranges(self):
        reals, cats = self.breed(WIDE_SPACE, 40)
        assert reals.shape == (40, WIDE_SPACE.n_reals) and reals.dtype == float
        assert cats.shape == (40, WIDE_SPACE.n_cats) and cats.dtype == np.int64
        assert np.all((reals >= 0) & (reals <= 1))
        assert np.all((cats >= 0) & (cats < WIDE_SPACE.cat_cardinality))

    def test_identical_parents_change_only_by_mutation(self):
        # crossing equal genes is the identity, so only mutation changes a
        # gene: the changed counts are binomial at the mutation rate (a cat
        # reset redraws the old value with probability 1 / (D + 1))
        rng = np.random.default_rng(0)
        parent_reals, parent_cats = _random_rows(WIDE_SPACE, 1, rng)
        n, n_reals, n_cats = 2000, WIDE_SPACE.n_reals, WIDE_SPACE.n_cats
        rate = 1.0 / (n_reals + n_cats)
        reals, cats = _offspring(np.zeros(n, dtype=np.intp), np.zeros(n),
                                 np.tile(parent_reals, (n, 1)), np.tile(parent_cats, (n, 1)),
                                 WIDE_SPACE, rng)
        for changed, p in ((reals != parent_reals, rate),
                           (cats != parent_cats, rate * (1 - 1 / WIDE_SPACE.cat_cardinality))):
            trials = changed.size
            mean, sigma = p * trials, np.sqrt(trials * p * (1 - p))
            assert abs(np.count_nonzero(changed) - mean) < 5 * sigma


def grid_objectives(rng, n):
    """n rows drawn as GRID draws them: a 6 x 6 integer grid (ties and
    duplicate points) with about a fifth of the rows at the sentinel."""
    objs = rng.integers(0, 6, size=(n, 2)).astype(float)
    objs[rng.random(n) < 0.2] = 33.0
    return objs


class TestAgainstReference:
    """The generation step against its plain copies in
    tests/reference_nsga2.py, by their bytes: distances, survivors,
    children, and the generator state after breeding."""

    @given(GRID, st.integers(0, 3))
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_crowding(self, pairs, groups):
        # groups 0: the ranks of a sort; else rows split round-robin into
        # groups that are not fronts
        objs = np.array(pairs, dtype=float)
        rank = non_dominated_sort(objs) if groups == 0 else np.arange(len(objs)) % groups
        assert (crowding_distance(objs, rank).tobytes()
                == reference.crowding_distance(objs, rank).tobytes())

    @given(GRID, st.integers(1, 60))
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_survivors_on_grids(self, pairs, population):
        objs = np.array(pairs, dtype=float)
        population = min(population, len(objs))
        rank = non_dominated_sort(objs)
        assert (_survivors(objs, rank, population).tobytes()
                == reference.survivors(objs, rank, population).tobytes())

    @given(st.sampled_from([2, 4, 40, 100, 500]), st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_survivors_of_merged_generations(self, population, seed):
        objs = grid_objectives(np.random.default_rng(seed), 2 * population)
        rank = non_dominated_sort(objs)
        assert (_survivors(objs, rank, population).tobytes()
                == reference.survivors(objs, rank, population).tobytes())

    @given(st.sampled_from([2, 4, 40, 100, 500]),
           st.sampled_from([SPACE, WIDE_SPACE, CONSTANT_SPACE]),
           st.integers(0, 2**32 - 1), st.booleans())
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_offspring(self, population, space, seed, clones):
        # reals at exactly 0 and 1; clones: every parent one genome, so
        # that no gene crosses and only mutation moves the children
        rng = np.random.default_rng(seed)
        reals, cats = _random_rows(space, population, rng)
        reals[rng.random(reals.shape) < 0.2] = 0.0
        reals[rng.random(reals.shape) < 0.2] = 1.0
        if clones:
            reals, cats = reals[[0] * population], cats[[0] * population]
        objs = grid_objectives(rng, population)
        rank = non_dominated_sort(objs)
        crowd = crowding_distance(objs, rank)
        ours, theirs = np.random.default_rng(seed + 1), np.random.default_rng(seed + 1)
        children = _offspring(rank, crowd, reals, cats, space, ours)
        expected = reference.offspring(rank, crowd, reals, cats, space, theirs)
        for got, want in zip(children, expected):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()
        assert ours.bit_generator.state == theirs.bit_generator.state


class TestEmptyDraws:
    """_offspring skips the cat draws of a genome without cats: a size-0
    draw must leave the PCG64 state as it is, a buffered 32-bit half
    (has_uint32, uinteger) included."""

    @pytest.mark.parametrize("shape", [0, (0,), (20, 0), (0, 3)])
    @pytest.mark.parametrize("buffered", [False, True], ids=["empty", "buffered"])
    def test_size_zero_draws_leave_the_state(self, shape, buffered):
        for seed in range(3):
            rng = np.random.default_rng(seed)
            if buffered:
                rng.integers(0, 3)
            before = rng.bit_generator.state
            assert before["has_uint32"] == buffered
            assert rng.random(shape).size == 0
            for cardinality in (2, 3, 4, 5):
                assert rng.integers(0, cardinality, size=shape).size == 0
            assert rng.bit_generator.state == before


class TestRandomRows:
    """_random_rows against the per-genome calls: values, generator state
    and the draws after it."""

    @staticmethod
    def generators(seed, buffered, state=None):
        """Two PCG64 generators in the same state: the reference one and a
        CountingGenerator; buffered draws one cat so that a 32-bit half is
        buffered on entry, state overrides the bit generator state."""
        pair = np.random.default_rng(seed), CountingGenerator(np.random.PCG64(seed))
        for rng in pair:
            if buffered:
                rng.integers(0, 3)
            if state is not None:
                rng.bit_generator.state = state
        assert pair[1].bit_generator.state == pair[0].bit_generator.state
        pair[1].integers_calls = 0
        return pair

    @staticmethod
    def assert_same_draws(space, n, reference, rng):
        expected = per_genome_rows(space, n, reference)
        reals, cats = _random_rows(space, n, rng)
        assert reals.dtype == float and cats.dtype == np.int64
        assert np.array_equal(reals, expected[0])
        assert np.array_equal(cats, expected[1])
        assert rng.bit_generator.state == reference.bit_generator.state
        assert np.array_equal(rng.random(5), reference.random(5))
        assert np.array_equal(rng.integers(0, 5, size=5), reference.integers(0, 5, size=5))
        return cats

    @pytest.mark.parametrize("space", [CONSTANT_SPACE] + [
        DesignSpace("variable", 3, 2, d) for d in (1, 2, 3, 4)] + [WIDE_SPACE],
        ids=["constant", "D1", "D2", "D3", "D4", "D2-even-cats"])
    @pytest.mark.parametrize("n", [0, 1, 7, 40, 500])
    @pytest.mark.parametrize("buffered", [False, True], ids=["empty", "buffered"])
    def test_matches_per_genome_calls(self, space, n, buffered):
        # 7 * 3 cats is odd: the last genome leaves a half buffered
        for seed in range(3):
            reference, rng = self.generators(seed, buffered)
            assert rng.bit_generator.state["has_uint32"] == buffered
            self.assert_same_draws(space, n, reference, rng)
            assert rng.integers_calls == 1  # the next-draws check, not _random_rows

    @pytest.mark.parametrize("n", [1, 40])
    def test_rejection_at_the_first_genome(self, n):
        # a buffered 0 half: (0 * 3) mod 2**32 = 0 < 2**32 mod 3 = 1
        space = DesignSpace("variable", 3, 2, 2)
        state = np.random.default_rng(0).bit_generator.state
        state.update(has_uint32=1, uinteger=0)
        reference, rng = self.generators(0, False, state)
        self.assert_same_draws(space, n, reference, rng)
        assert rng.integers_calls == 2  # the rejected genome, then the next-draws check

    @pytest.mark.parametrize("n", [5, 40, 500])
    def test_rejection_at_a_later_genome(self, n):
        # genome 4 of 6 reals and 3 cats starts its cats with the low half
        # of raw 5 * 6 + ceil(4 * 3 / 2) = 36 (counting from 0); PCG64 outputs
        # rotr64(hi ^ lo, state >> 122) from its post-step state, so
        # hi << 64 | (hi ^ x << 32) with state >> 122 = 0 outputs x << 32,
        # and stepping it back 37 steps makes that the 37th raw
        space = DesignSpace("variable", 3, 2, 2)
        hi, x = 0x0123456789ABCDEF >> 6, 0xDEADBEEF
        assert (hi << 64) >> 122 == 0
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        state["state"]["state"] = hi << 64 | (hi ^ x << 32)
        rng.bit_generator.state = state
        rng.bit_generator.advance(2**128 - 37)
        assert rng.bit_generator.random_raw(37)[-1] == x << 32
        rng.bit_generator.advance(2**128 - 37)
        reference, rng = self.generators(0, False, rng.bit_generator.state)
        cats = self.assert_same_draws(space, n, reference, rng)
        assert rng.integers_calls == 2
        assert cats[4, 0] == (x * 3) >> 32  # the rejected low half's high half

    def test_refuses_other_bit_generators(self):
        with pytest.raises(TypeError, match="PCG64"):
            _random_rows(SPACE, 3, np.random.Generator(np.random.Philox(0)))


class TestRandomSearch:
    """The random-search baseline is generation 0 of evolve at population = budget."""

    @pytest.mark.parametrize("space", [SPACE, CONSTANT_SPACE], ids=["variable", "constant"])
    def test_first_rows_equal_generation_zero_of_evolve(self, space):
        # both take the initial genomes from _random_rows, so bred generations
        # never shift the designs a random search of the same seed starts from
        a = evolve(toy_evaluator, space, 20, 200, seed=3, max_objective=32.0)
        r = evolve(toy_evaluator, space, 200, 200, seed=3, max_objective=32.0)
        assert np.array_equal(a.reals[:20], r.reals[:20])
        assert np.array_equal(a.cats[:20], r.cats[:20])

    def test_budget_and_determinism(self):
        a = evolve(toy_evaluator, SPACE, 124, 124, seed=4, max_objective=32.0)
        b = evolve(toy_evaluator, SPACE, 124, 124, seed=4, max_objective=32.0)
        assert a.evaluation_count == 124
        assert a.generations == 0 and len(a.history) == 1
        for column in ("reals", "cats", "objectives", "feasible", "front_indices"):
            assert np.array_equal(getattr(a, column), getattr(b, column))

    def test_archive_equals_per_genome_calls(self):
        arch = evolve(toy_evaluator, WIDE_SPACE, 1000, 1000, seed=11, max_objective=32.0)
        reals, cats = per_genome_rows(WIDE_SPACE, 1000, np.random.default_rng(11))
        assert np.array_equal(arch.reals, reals)
        assert np.array_equal(arch.cats, cats)
        objectives, feasible = toy_evaluator(reals, cats)
        assert np.array_equal(arch.feasible, feasible)
        assert np.array_equal(arch.objectives[feasible], objectives[feasible])
        assert np.all(arch.objectives[~feasible] == 33.0)
        assert arch.front_indices.tolist() == pareto_front_indices(arch.objectives,
                                                                   feasible).tolist()

    @pytest.mark.parametrize("budget", [0, -1])
    def test_rejects_budget_below_one(self, budget):
        with pytest.raises(ValueError, match="population must be even and at least 2"):
            evolve(toy_evaluator, SPACE, budget, budget, seed=0, max_objective=32.0)

    def test_genomes_within_ranges(self):
        arch = evolve(toy_evaluator, SPACE, 50, 50, seed=6, max_objective=32.0)
        assert np.all(arch.reals >= 0) and np.all(arch.reals <= 1)
        assert np.all(arch.cats >= 0) and np.all(arch.cats <= 2)
        designs = genome_rows_decode(arch.reals, arch.cats, SPACE)  # checks every design
        assert designs.shape == (50,)
