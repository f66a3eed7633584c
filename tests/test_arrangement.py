import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    DEFAULT_STATES_DEG,
    PAPER_ARM_RANGES,
    PAPER_LENGTHS,
    PAPER_MASSES,
    encode_rows,
    random_constant_design,
    random_variable_design,
)
import tlo.arrangement
from tlo.arrangement import (
    Design,
    DesignSpace,
    Genome,
    design_to_jsonable,
    designs_to_jsonable,
    genome_decode,
    genome_rows_decode,
    muscle_jacobian,
    relay_points,
)
from tlo.config import ConfigError, ScenarioConfig, parse_config, parse_design
from tlo.feasibility import evaluate
from tlo.model import FieldError, RobotModel, forward_kinematics
from reference_geometry import wire_lengths


# conftest's random designs of either family, with the space of their genomes
FAMILIES = pytest.mark.parametrize("random_design, space", [
    (random_variable_design, DesignSpace("variable", 3, 3, 2)),
    (random_constant_design, DesignSpace("constant", 4, None, 2)),
], ids=["variable", "constant"])


def relay_world_positions(model, design, q):
    """Relay points of one design at one joint state, (M, N, 2)."""
    return relay_points(model, design, forward_kinematics(model, q))


class TestRelayPositions:
    def test_fixed_link_midpoint(self, paper_model):
        design = Design([[0, 0]], [[0.5, 1.0]])
        pts = relay_world_positions(paper_model, design, np.zeros(2))[0]
        np.testing.assert_allclose(pts[0], [0.2, 0.0], atol=1e-12)

    def test_straight_link_midpoint(self, paper_model):
        design = Design([[0, 1]], [[0.0, 0.5]])
        pts = relay_world_positions(paper_model, design, np.zeros(2))[0]
        np.testing.assert_allclose(pts[1], [0.7, 0.0], atol=1e-12)

    def test_tip_matches_forward_kinematics(self, paper_model):
        q = np.array([0.0, np.pi / 2])
        design = Design([[0, 2]], [[0.0, 1.0]])
        pts = relay_world_positions(paper_model, design, q)[0]
        np.testing.assert_allclose(
            pts[1], forward_kinematics(paper_model, q).ee_position, atol=1e-12
        )

    def test_out_of_range_link(self, paper_model):
        # a built design is read-only, so Design's check of a negative link holds
        design = Design([[0, 2]], [[0.0, 1.0]])
        with pytest.raises(ValueError, match="read-only"):
            design.links[0, 1] = -1
        for link in (7, 3):
            with pytest.raises(ValueError):
                relay_world_positions(paper_model, Design([[0, link]], [[0.0, 1.0]]), np.zeros(2))

    def test_link_past_the_last_one_is_named(self, paper_model, zero_center_scenario):
        # Design does not know the robot: link 3 passes its checks, and the
        # kernels refuse it on paper_model, whose last link is 2
        design = Design([[0, 1], [0, 3]], [[0.5, 0.5], [0.5, 0.5]])
        with pytest.raises(ValueError, match="^relay link 3 out of range$"):
            relay_world_positions(paper_model, design, np.zeros(2))
        with pytest.raises(ValueError, match="^relay link 3 out of range$"):
            evaluate(paper_model, design, zero_center_scenario)

    def test_constant_mode_rejected(self, paper_model):
        with pytest.raises(TypeError):
            relay_world_positions(paper_model, Design(None, np.zeros((1, 2))), np.zeros(2))


class TestWireLengths:
    def test_straight_segment(self, paper_model):
        design = Design([[0, 1]], [[0.5, 0.5]])
        np.testing.assert_allclose(
            wire_lengths(paper_model, design, np.zeros(2)), [0.5], atol=1e-12
        )

    def test_same_link_length_constant(self, paper_model):
        design = Design([[0, 0], [0, 2]], [[0.1, 0.9], [0.0, 0.3]])
        rng = np.random.default_rng(1)
        base = wire_lengths(paper_model, design, rng.uniform(-np.pi, np.pi, 2))
        for _ in range(10):
            cur = wire_lengths(paper_model, design, rng.uniform(-np.pi, np.pi, 2))
            assert cur[0] == pytest.approx(base[0], abs=1e-12)

    def test_length_change_matches_jacobian(self, paper_model):
        rng = np.random.default_rng(5)
        step = 1e-6
        for _ in range(25):
            design = random_variable_design(rng)
            q = rng.uniform(-np.pi, np.pi, 2)
            dq = rng.normal(size=2)
            dq *= step / np.linalg.norm(dq)
            predicted = muscle_jacobian(paper_model, design, q) @ dq
            actual = wire_lengths(paper_model, design, q + dq) - wire_lengths(
                paper_model, design, q
            )
            np.testing.assert_allclose(actual, predicted, atol=1e-10, rtol=1e-4)


class TestMuscleJacobian:
    def test_zero_row_for_base_only_wire(self, paper_model):
        design = Design([[0, 0]], [[0.1, 0.9]])
        rng = np.random.default_rng(2)
        for _ in range(10):
            g = muscle_jacobian(paper_model, design, rng.uniform(-np.pi, np.pi, 2))
            np.testing.assert_allclose(g, np.zeros((1, 2)), atol=1e-12)

    def test_wire_along_joint_plane(self, paper_model):
        # straight wire (0.2, 0) -> (0.7, 0) at zero pose: unit direction is
        # perpendicular to the joint-1 lever term, so dl/dtheta_1 = 0
        design = Design([[0, 1]], [[0.5, 0.5]])
        g = muscle_jacobian(paper_model, design, np.zeros(2))
        assert g[0, 0] == pytest.approx(0.0, abs=1e-12)

    def test_matches_finite_differences(self, paper_model):
        rng = np.random.default_rng(11)
        step = 1e-6
        checked = 0
        for _ in range(100):
            design = random_variable_design(rng, m=3, n=rng.integers(2, 5))
            q = rng.uniform(-np.pi, np.pi, 2)
            pts = relay_world_positions(paper_model, design, q)
            if min(np.linalg.norm(np.diff(p, axis=0), axis=1).min() for p in pts) < 1e-6:
                continue  # degenerate segment: derivative undefined by contract
            g = muscle_jacobian(paper_model, design, q)
            for k in range(2):
                e = np.zeros(2)
                e[k] = step
                fd = (
                    wire_lengths(paper_model, design, q + e)
                    - wire_lengths(paper_model, design, q - e)
                ) / (2 * step)
                denom = np.maximum(np.abs(fd), 1e-3)
                assert np.max(np.abs(g[:, k] - fd) / denom) < 1e-5
            checked += 1
        assert checked >= 90

    # (links, fractions) of a wire with a repeated world point, and the same
    # wire without it: LINK_0's tip is joint 1, LINK_1's tip is joint 2
    DUPLICATES = [
        ([0, 0, 1, 2], [0.3, 1.0, 0.0, 0.7], [0, 0, 2], [0.3, 1.0, 0.7]),
        ([0, 1, 2, 2], [0.2, 1.0, 0.0, 0.5], [0, 1, 2], [0.2, 1.0, 0.5]),
        ([0, 2, 2], [0.6, 0.4, 0.4], [0, 2], [0.6, 0.4]),
        ([0, 0, 1], [0.5, 0.5, 0.8], [0, 1], [0.5, 0.8]),
        ([0, 1, 1, 1], [0.0, 0.3, 0.3, 0.3], [0, 1], [0.0, 0.3]),
    ]
    STATES = [np.zeros(2), np.array([0.4, -1.1]), np.array([-2.5, 3.0]), np.array([np.pi, 1e-9])]

    @pytest.mark.parametrize("links, fracs, short_links, short_fracs", DUPLICATES)
    def test_repeated_point_drops_out(self, paper_model, links, fracs, short_links, short_fracs):
        with_dup = Design([links], [fracs])
        without = Design([short_links], [short_fracs])
        for q in self.STATES:
            segments = np.diff(relay_world_positions(paper_model, with_dup, q), axis=1)
            assert np.linalg.norm(segments, axis=2).min() == 0.0
            g = muscle_jacobian(paper_model, with_dup, q)
            assert np.all(np.isfinite(g))
            np.testing.assert_array_equal(g, muscle_jacobian(paper_model, without, q))

    def test_coincident_wire_has_zero_row(self, paper_model):
        # wire 0 sits at joint 1 three times over, wire 1 at the origin;
        # wire 2 is regular and keeps its row
        coincident = Design([[0, 0, 1], [0, 0, 0], [0, 2, 1]],
                                         [[1.0, 1.0, 0.0], [0.0, 0.0, 0.0], [0.2, 0.3, 1.0]])
        rest = Design([[0, 2, 1]], [[0.2, 0.3, 1.0]])
        for q in self.STATES:
            g = muscle_jacobian(paper_model, coincident, q)
            assert np.all(np.isfinite(g))
            assert np.array_equal(g[:2], np.zeros((2, 2)))
            np.testing.assert_array_equal(g[2:], muscle_jacobian(paper_model, rest, q))

    def test_constant_mode_value_and_theta_independence(self, paper_model, monkeypatch):
        # a constant design's G does not read the pose, so none is built
        monkeypatch.setattr(tlo.arrangement, "forward_kinematics", None)
        frac = np.array([[1.0, 0.5], [0.0, 1.0]])
        design = Design(None, frac)
        g0 = muscle_jacobian(paper_model, design, np.zeros(2))
        np.testing.assert_allclose(g0, [[-0.1, 0.0], [0.1, -0.1]], atol=1e-15)
        rng = np.random.default_rng(3)
        for _ in range(10):
            g = muscle_jacobian(paper_model, design, rng.uniform(-np.pi, np.pi, 2))
            assert np.array_equal(g, g0)

    def test_arm_matrix_must_match_the_joint_count(self, paper_model):
        design = Design(None, np.zeros((2, 3)))
        with pytest.raises(ValueError, match="arm matrix does not match joint count"):
            muscle_jacobian(paper_model, design, np.zeros(2))

    def test_constant_arms_requires_ranges(self):
        model = RobotModel([0.4, 0.6], [0.0, 4.0])
        design = Design(None, np.zeros((1, 1)))
        for arms in (lambda: muscle_jacobian(model, design, np.zeros(1)),
                     lambda: design_to_jsonable(design, model)):
            with pytest.raises(ValueError, match="no moment_arm_ranges for constant designs"):
                arms()


class TestGenome:
    def test_gene_counts_small(self):
        space = DesignSpace("variable", 1, 2, 2)
        assert (space.n_reals, space.n_cats) == (2, 1)

    @pytest.mark.parametrize("args, message", [
        (("magic", 1, 2, 2), "kind must be 'variable' or 'constant'"),
        (("variable", 0, 2, 2), "need at least one wire"),
        (("variable", 1, None, 2), "variable mode requires mode.relay_points"),
        (("variable", 1, 1, 2), "relay_points must be at least 2"),
        (("constant", 1, None, 0), "need at least one joint"),
        (("constant", 1, 1, 2), "relay_points must be at least 2"),
        (("variable", 2.5, 3, 2), "expected an integer"),
        (("variable", True, 2, 2), "expected an integer"),
        (("variable", 2, 3.0, 2), "expected an integer"),
        (("constant", 2, None, 1.5), "expected an integer"),
        (("variable", 2, 2, True), "expected an integer"),
    ])
    def test_space_rules_have_their_messages(self, args, message):
        with pytest.raises(ValueError, match=message):
            DesignSpace(*args)

    def test_space_counts_are_ints(self):
        space = DesignSpace("variable", np.int64(2), np.int32(3), np.int64(2))
        assert all(type(n) is int for n in (space.n_wires, space.n_relay_points, space.n_joints))
        assert (space.n_reals, space.n_cats) == (6, 4)

    def test_gene_counts_paper_scale(self):
        space = DesignSpace("variable", 4, 3, 2)
        assert (space.n_reals, space.n_cats) == (12, 8)
        space = DesignSpace("constant", 4, None, 2)
        assert (space.n_reals, space.n_cats) == (8, 0)

    def test_length_mismatch(self):
        space = DesignSpace("variable", 2, 3, 2)
        with pytest.raises(ValueError):
            genome_decode(Genome(np.zeros(5), np.zeros(4, dtype=int)), space)

    @given(
        m=st.integers(1, 4),
        n=st.integers(2, 5),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_variable_round_trip(self, m, n, data):
        reals = np.array(
            data.draw(
                st.lists(
                    st.floats(0, 1, allow_nan=False), min_size=m * n, max_size=m * n
                )
            )
        )
        cats = np.array(
            data.draw(st.lists(st.integers(0, 2), min_size=m * (n - 1), max_size=m * (n - 1))),
            dtype=np.int64,
        )
        space = DesignSpace("variable", m, n, 2)
        design = genome_decode(Genome(reals, cats), space)
        back_reals, back_cats = encode_rows([design])
        assert np.array_equal(back_reals[0], reals)
        assert np.array_equal(back_cats[0], cats)

    def test_constant_round_trip(self):
        rng = np.random.default_rng(8)
        space = DesignSpace("constant", 4, None, 2)
        for _ in range(100):
            reals = rng.random(8)
            design = genome_decode(Genome(reals, np.empty(0, dtype=np.int64)), space)
            back_reals, back_cats = encode_rows([design])
            assert np.array_equal(back_reals[0], reals) and back_cats.shape == (1, 0)

    def test_first_relay_point_forced_to_base(self):
        space = DesignSpace("variable", 1, 2, 2)
        design = genome_decode(Genome(np.array([0.3, 0.9]), np.array([2])), space)
        assert design.links[0, 0] == 0
        assert design.links[0, 1] == 2


def paper_config(**mode) -> ScenarioConfig:
    """A scenario of paper_model's robot whose design space is mode."""
    return parse_config({
        "schema_version": 1,
        "robot": {"link_lengths": PAPER_LENGTHS, "link_masses": PAPER_MASSES,
                  "moment_arm_ranges": PAPER_ARM_RANGES},
        "mode": mode,
        "limits": {"tension": [10.0, 200.0], "wire_speed": [-0.4, 0.4]},
        "targets": {"force_center": [0.0, 0.0], "force_radii": [40.0, 40.0],
                    "velocity_radii": [1.0, 1.0]},
        "gravity": "off",
        "evaluated_joint_states": DEFAULT_STATES_DEG,
    })


class TestDesignJson:
    def test_variable_round_trip(self, paper_model):
        rng = np.random.default_rng(4)
        design = random_variable_design(rng)
        doc = design_to_jsonable(design, paper_model)
        back = parse_design(doc, paper_config(kind="variable", wires=3, relay_points=3))
        assert np.array_equal(back.links, design.links)
        assert np.array_equal(back.fractions, design.fractions)

    def test_constant_arms_in_meters(self, paper_model):
        design = Design(None, np.array([[1.0, 0.0]]))
        doc = design_to_jsonable(design, paper_model)
        np.testing.assert_allclose(doc["arms"], [[0.1, -0.1]])
        back = parse_design(doc, paper_config(kind="constant", wires=1))
        np.testing.assert_allclose(back.fractions, design.fractions, atol=1e-12)

    @FAMILIES
    def test_batch_matches_one_design_at_a_time(self, paper_model, random_design, space):
        rng = np.random.default_rng(11)
        designs = [random_design(rng) for _ in range(5)]
        reals, cats = encode_rows(designs)
        docs = designs_to_jsonable(genome_rows_decode(reals, cats, space), paper_model)
        assert docs == [design_to_jsonable(genome_decode(Genome(r, c), space), paper_model)
                        for r, c in zip(reals, cats)]
        assert docs == [design_to_jsonable(design, paper_model) for design in designs]
        assert designs_to_jsonable(genome_rows_decode(reals[:0], cats[:0], space),
                                   paper_model) == []

    def test_constant_out_of_range_rejected(self):
        # 0.5 m lies outside the first joint's arm range, [-0.1, 0.1]
        with pytest.raises(ConfigError) as err:
            parse_design({"kind": "constant", "arms": [[0.5, 0.0]]},
                         paper_config(kind="constant", wires=1))
        assert str(err.value) == "$.arms[0][0]: arm must lie within the robot's moment_arm_ranges[0]"

    @pytest.mark.parametrize("doc, message", [
        ({"kind": "variable", "wires": [[{"link": 0, "frac": 0.5}, {"link": 1, "frac": 0.5}]],
          "extra": 1}, "$.extra: unknown field"),
        ({"kind": "variable", "wires": [[{"link": 0, "frac": 0.5},
                                         {"link": 1, "frac": 0.5, "x": 0.1}]]},
         "$.wires[0][1].x: unknown field"),
        # a design of the other kind reads the kind rule first, whatever else it holds
        ({"kind": "constant", "arms": [[0.05, 0.0]], "wires": []},
         "$.kind: kind must be variable, the config's mode.kind"),
    ], ids=["top", "relay point", "constant"])
    def test_unknown_keys_rejected(self, doc, message):
        # design.schema.json allows no other keys ("additionalProperties": false)
        with pytest.raises(ConfigError) as err:
            parse_design(doc, paper_config(kind="variable", wires=1, relay_points=2))
        assert str(err.value) == message

    def test_relay_point_must_be_an_object(self):
        doc = {"kind": "variable", "wires": [[{"link": 0, "frac": 0.5}, "ab"]]}
        with pytest.raises(ConfigError) as err:
            parse_design(doc, paper_config(kind="variable", wires=1, relay_points=2))
        assert str(err.value) == "$.wires[0][1]: expected an object"


class TestValidation:
    """Every check of the one design type, with its message."""

    def test_first_point_must_be_on_base(self):
        with pytest.raises(ValueError, match="every wire must start on LINK_0"):
            Design([[1, 2]], [[0.5, 0.5]])

    def test_fraction_range(self):
        with pytest.raises(ValueError, match=r"relay fractions must lie in \[0, 1\]"):
            Design([[0, 1]], [[1.5, 0.5]])

    def test_minimum_points(self):
        with pytest.raises(ValueError, match="every wire needs at least 2 relay points"):
            Design([[0]], [[0.5]])

    def test_constant_fraction_range(self):
        with pytest.raises(ValueError, match=r"arm fractions must lie in \[0, 1\]"):
            Design(None, np.array([[0.5, 1.2]]))

    def test_constant_fraction_not_a_number(self):
        with pytest.raises(ValueError, match=r"arm fractions must lie in \[0, 1\]"):
            Design(None, [[np.nan, 0.5], [0.2, 0.3]])

    @pytest.mark.parametrize("links, fractions, error, message", [
        ([[0.0, 1.0]], [[0.5, 0.5]], TypeError, "relay links must be integers"),
        ([0, 1], [0.5, 0.5], ValueError, r"links and fractions must be matching \(M, N\) arrays"),
        ([[0, 1]], [[0.5, 0.5, 0.5]], ValueError, "must be matching"),
        (np.zeros((2, 0, 2), dtype=int), np.zeros((2, 0, 2)), ValueError,
         "need at least one wire"),
        ([[0, -1]], [[0.5, 0.5]], ValueError, "link must be at least 0"),
        ([[0, 1]], [[np.nan, 0.5]], ValueError, r"relay fractions must lie in \[0, 1\]"),
        (None, [0.5, 0.5], ValueError, r"fractions must be an \(M, D\) matrix"),
        (None, np.zeros((3, 0, 2)), ValueError, r"fractions must be an \(M, D\) matrix"),
    ])
    def test_each_rule_has_its_message(self, links, fractions, error, message):
        with pytest.raises(error, match=message):
            Design(links, fractions)

    def test_arrays_are_read_only_views(self):
        links, fractions = np.array([[0, 1]], dtype=np.int64), np.array([[0.5, 0.5]])
        design = Design(links, fractions)
        for derived in (design, design[()], design.reshape(1, 1)):
            assert not (derived.links.flags.writeable or derived.fractions.flags.writeable)
        assert not Design(None, fractions).fractions.flags.writeable
        # the caller's own arrays stay writable, and writing them leaves the design as it was
        assert links.flags.writeable and fractions.flags.writeable
        assert not (np.shares_memory(design.links, links)
                    or np.shares_memory(design.fractions, fractions))
        links[0, 1], fractions[0, 1] = -1, 2.0
        assert design.links.tolist() == [[0, 1]] and design.fractions.tolist() == [[0.5, 0.5]]

    def test_a_design_in_a_stack_fails_the_whole_stack(self):
        # the error's path indexes the wire and point within the failing
        # design, as a design file does
        links = np.zeros((3, 2, 2), dtype=np.int64)
        fractions = np.full((3, 2, 2), 0.5)
        Design(links, fractions)
        off_base, negative, above = links.copy(), links.copy(), fractions.copy()
        off_base[2, 1, 0], negative[2, 1, 1], above[2, 1, 1] = 1, -1, 1.5
        for args, path, message in [
            ((off_base, fractions), ("wires", 1, 0, "link"), "every wire must start on LINK_0"),
            ((links, above), ("wires", 1, 1, "frac"), "relay fractions must lie in [0, 1]"),
            ((None, above), ("arms", 1, 1), "arm fractions must lie in [0, 1]"),
            ((negative, fractions), ("wires", 1, 1, "link"), "link must be at least 0"),
        ]:
            with pytest.raises(FieldError) as err:
                Design(*args)
            assert (str(err.value), err.value.path) == (message, path)

    def test_genome_rows_out_of_range(self):
        space = DesignSpace("variable", 1, 2, 2)
        with pytest.raises(ValueError, match=r"relay fractions must lie in \[0, 1\]"):
            genome_rows_decode(np.array([[0.5, 1.5]]), np.array([[1]]), space)
        space = DesignSpace("constant", 1, None, 2)
        with pytest.raises(ValueError, match=r"arm fractions must lie in \[0, 1\]"):
            genome_rows_decode(np.array([[np.nan, 0.5]]), np.zeros((1, 0)), space)

    def test_genome_rows_with_float_cats(self):
        # link genes are not rounded: a float cat fails Design's one type check
        space = DesignSpace("variable", 1, 4, 2)
        with pytest.raises(TypeError, match="relay links must be integers"):
            genome_rows_decode(np.full((1, 4), 0.5), np.array([[1.5, 0.9, 2.7]]), space)
        with pytest.raises(TypeError, match="relay links must be integers"):
            genome_decode(Genome(np.full(4, 0.5), np.array([1.0, 0.0, 2.0])), space)
        assert genome_rows_decode(np.full((1, 4), 0.5), np.array([[1, 0, 2]]),
                                  space).links.tolist() == [[[0, 1, 0, 2]]]
        # the empty cats of constant designs may have any type
        space = DesignSpace("constant", 1, None, 2)
        assert genome_rows_decode(np.full((1, 2), 0.5), np.zeros((1, 0)), space).links is None


class TestLeadingAxes:
    """A Design's leading axes stack designs of one shape."""

    def test_an_empty_stack_is_a_design(self):
        space = DesignSpace("variable", 2, 3, 2)
        designs = genome_rows_decode(np.zeros((0, 6)), np.zeros((0, 4)), space)
        assert designs.shape == (0,) and designs.links.shape == (0, 2, 3)

    @FAMILIES
    def test_rows_index_and_reshape(self, random_design, space):
        rng = np.random.default_rng(6)
        designs = [random_design(rng) for _ in range(6)]
        reals, cats = encode_rows(designs)
        stack = genome_rows_decode(reals.reshape(2, 3, -1), cats.reshape(2, 3, -1), space)
        assert stack.shape == (2, 3)
        flat = stack.reshape(-1)
        assert flat.shape == (6,)
        for i, design in enumerate(designs):
            one = genome_decode(Genome(reals[i], cats[i]), space)
            assert one.shape == ()
            for part in (flat[i], stack[divmod(i, 3)], one):
                assert part.fractions.tobytes() == design.fractions.tobytes()
                assert (part.links is None) == (design.links is None)
                if design.links is not None:
                    assert part.links.tobytes() == design.links.tobytes()

    def test_muscle_jacobian_of_a_stack(self, paper_model):
        rng = np.random.default_rng(12)
        designs = [random_variable_design(rng) for _ in range(4)]
        stack = Design(np.stack([d.links for d in designs]),
                       np.stack([d.fractions for d in designs]))
        q = np.array([0.3, -0.7])
        G = muscle_jacobian(paper_model, stack, q)
        assert G.shape == (4, 3, 2)
        for g, design in zip(G, designs):
            assert g.tobytes() == muscle_jacobian(paper_model, design, q).tobytes()
        pts = relay_world_positions(paper_model, stack, q)
        assert pts.shape == (4, 3, 3, 2)
        assert pts[2].tobytes() == relay_world_positions(paper_model, designs[2], q).tobytes()
