import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tlo.arrangement import DesignSpace, genome_decode
from tlo.feasibility import EvaluationResult
from tlo.nsga2 import (
    crowding_distance,
    dominates,
    evolve,
    extend_front,
    hypervolume_2d,
    non_dominated_sort,
    pareto_front_indices,
    random_genome,
    random_search,
)

SPACE = DesignSpace("variable", 2, 2, 2)
WIDE_SPACE = DesignSpace("variable", 3, 3, 2)


def toy_evaluator(design):
    """Cheap deterministic objectives: smooth trade-off plus a pruned pocket.

    Scores derive from relay fractions only, so the optimizer sees a
    realistic mixed landscape without any LP work.
    """
    fracs = design.fractions.ravel()
    links = design.links.ravel()
    if fracs[0] < 0.1:  # pruned pocket
        return EvaluationResult(feasible=False)
    a = float(5 * np.sum((fracs - 0.35) ** 2) + 0.1 * np.sum(links == 1))
    b = float(5 * np.sum((fracs - 0.65) ** 2) + 0.1 * np.sum(links == 2))
    return EvaluationResult(True, None, None, a, b)


def hill_evaluator(design):
    """Perfectly correlated objectives: a pure descent task for selection."""
    fracs = design.fractions.ravel()
    a = float(np.sum((fracs - 0.4) ** 2))
    return EvaluationResult(True, None, None, a, 2 * a)


def brute_force_front(objectives):
    return [
        i
        for i, oi in enumerate(objectives)
        if not any(dominates(oj, oi) for j, oj in enumerate(objectives) if j != i)
    ]


class TestSorting:
    def test_chain(self):
        assert non_dominated_sort(np.array([[1.0, 1.0], [2.0, 2.0]])) == [[0], [1]]

    def test_incomparable_pair(self):
        assert non_dominated_sort(np.array([[1.0, 2.0], [2.0, 1.0]])) == [[0, 1]]

    @given(
        st.lists(
            st.tuples(st.integers(0, 8), st.integers(0, 8)), min_size=1, max_size=40
        )
    )
    @settings(max_examples=80, deadline=None)
    def test_front_zero_matches_brute_force(self, pairs):
        objs = np.array(pairs, dtype=float)
        fronts = non_dominated_sort(objs)
        assert sorted(fronts[0]) == sorted(brute_force_front(objs))
        # every index appears exactly once across fronts
        seen = sorted(i for front in fronts for i in front)
        assert seen == list(range(len(objs)))

    def test_later_fronts_dominated_only_by_earlier(self):
        rng = np.random.default_rng(5)
        objs = rng.integers(0, 6, size=(30, 2)).astype(float)
        fronts = non_dominated_sort(objs)
        rank = {}
        for r, front in enumerate(fronts):
            for i in front:
                rank[i] = r
        for i in range(len(objs)):
            for j in range(len(objs)):
                if dominates(objs[i], objs[j]):
                    assert rank[i] < rank[j]


class TestCrowding:
    def test_pair_is_infinite(self):
        d = crowding_distance(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert np.all(np.isinf(d))

    def test_equally_spaced_interior(self):
        objs = np.array([[0, 4], [1, 3], [2, 2], [3, 1], [4, 0]], dtype=float)
        d = crowding_distance(objs)
        assert np.isinf(d[0]) and np.isinf(d[-1])
        np.testing.assert_allclose(d[1:-1], d[1])

    def test_permutation_invariance(self):
        rng = np.random.default_rng(2)
        objs = rng.random((12, 2))
        d = crowding_distance(objs)
        perm = rng.permutation(12)
        d_perm = crowding_distance(objs[perm])
        np.testing.assert_allclose(d_perm, d[perm])


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
        expect = [int(rows[k]) for k in brute_force_front(objs[rows])]
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
        rng = np.random.default_rng(1)
        genomes = [random_genome(SPACE, rng) for _ in range(20)]
        for i, g in enumerate(genomes):
            assert np.array_equal(arch.genome(i).reals, g.reals)
            assert np.array_equal(arch.genome(i).cats, g.cats)

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

        def coarse(design):
            res = toy_evaluator(design)
            if res.feasible:
                res = EvaluationResult(True, None, None, round(res.e_force, 1),
                                       round(res.e_velocity, 1))
            scores.append(res)
            return res

        def check(entry):
            objs, feasible = archive_columns(
                [(r.e_force, r.e_velocity, r.feasible) for r in scores[: entry["evaluations"]]])
            front = pareto_front_indices(objs, feasible)
            assert entry["front_size"] == len(front)
            assert entry["best_e_force"] == min(objs[i, 0] for i in front)
            assert entry["best_e_velocity"] == min(objs[i, 1] for i in front)
            checked.append(entry["generation"])

        checked = []
        arch = evolve(coarse, SPACE, 20, 410, seed=4, max_objective=32.0, on_generation=check)
        assert checked == list(range(21))
        assert (arch.front_indices.tolist()
                == pareto_front_indices(arch.objectives, arch.feasible).tolist())
        objs = [tuple(o) for o in arch.objectives[arch.front_indices].tolist()]
        assert len(objs) > len(set(objs))  # the front kept duplicates

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

    def test_validation(self):
        with pytest.raises(ValueError):
            evolve(toy_evaluator, SPACE, 21, 100, seed=0, max_objective=32.0)
        with pytest.raises(ValueError):
            evolve(toy_evaluator, SPACE, 20, 10, seed=0, max_objective=32.0)

    def test_selection_pressure_beats_random_descent(self):
        # correlated objectives leave a single optimum: selection must descend
        # the nine-dimensional well far faster than uniform sampling
        wins = 0
        for seed in range(5):
            a = evolve(hill_evaluator, WIDE_SPACE, 20, 400, seed=seed, max_objective=32.0)
            r = random_search(hill_evaluator, WIDE_SPACE, 400, seed=seed, max_objective=32.0)
            wins += a.objectives[:, 0].min() <= r.objectives[:, 0].min()
        assert wins >= 4


class TestRandomSearch:
    def test_budget_and_determinism(self):
        a = random_search(toy_evaluator, SPACE, 123, seed=4, max_objective=32.0)
        b = random_search(toy_evaluator, SPACE, 123, seed=4, max_objective=32.0)
        assert a.evaluation_count == 123
        assert np.array_equal(a.reals, b.reals)

    def test_genomes_within_ranges(self):
        arch = random_search(toy_evaluator, SPACE, 50, seed=6, max_objective=32.0)
        assert np.all(arch.reals >= 0) and np.all(arch.reals <= 1)
        assert np.all(arch.cats >= 0) and np.all(arch.cats <= 2)
        for i in range(arch.evaluation_count):
            genome_decode(arch.genome(i), SPACE)  # decodes cleanly
