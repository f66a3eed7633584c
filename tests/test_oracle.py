import itertools

import numpy as np
import pytest

from tlo.oracle import (
    ConvexPolygon,
    convex_hull,
    force_polytope_exact,
    ray_h,
    velocity_polytope_exact,
)

J_BENT = np.array([[-0.6, -0.6], [0.6, 0.0]])  # paper chain at theta = (0, 90 deg)


def corner_image_hull(G, J, f_min, f_max):
    """Cross-check oracle: hull of all 2^M tension-box corner images."""
    m = G.shape[0]
    inv_jt = np.linalg.inv(J.T)
    pts = [
        inv_jt @ (-(G.T @ np.array(f)))
        for f in itertools.product([f_min, f_max], repeat=m)
    ]
    return convex_hull(np.array(pts))


class TestForcePolytope:
    def test_single_wire_is_segment(self):
        G = np.array([[-0.1, -0.05]])
        poly = force_polytope_exact(G, J_BENT, 10, 200)
        assert len(poly.vertices) == 2

    def test_zero_g_is_point(self):
        poly = force_polytope_exact(np.zeros((3, 2)), J_BENT, 10, 200)
        assert len(poly.vertices) == 1
        np.testing.assert_allclose(poly.vertices[0], [0.0, 0.0], atol=1e-12)

    def test_worked_example_square_torque_set(self):
        # arms (0.1,0), (-0.1,0), (0,0.1), (0,-0.1): torque box [-19,19]^2
        G = -np.array([[0.1, 0.0], [-0.1, 0.0], [0.0, 0.1], [0.0, -0.1]])
        poly = force_polytope_exact(G, J_BENT, 10, 200)
        back = poly.vertices @ J_BENT  # tau^T = F^T J
        hull = convex_hull(back)
        expect = convex_hull(np.array([[s * 19.0, t * 19.0] for s in (-1, 1) for t in (-1, 1)]))
        np.testing.assert_allclose(hull, expect, atol=1e-9)

    def test_matches_corner_hull(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            m = int(rng.integers(1, 6))
            G = rng.uniform(-0.4, 0.4, size=(m, 2))
            J = rng.normal(size=(2, 2))
            if abs(np.linalg.det(J)) < 0.1:
                continue
            poly = force_polytope_exact(G, J, 10, 200)
            hull = corner_image_hull(G, J, 10, 200)
            assert len(poly.vertices) <= 2 * m
            if len(hull) >= 3 and len(poly.vertices) >= 3:
                np.testing.assert_allclose(poly.vertices, hull, atol=1e-8)

    def test_singular_j_rejected(self):
        with pytest.raises(ValueError):
            force_polytope_exact(np.ones((2, 2)), np.array([[1.0, 2.0], [2.0, 4.0]]), 10, 200)

    def test_area_formula_two_generators(self):
        G = np.array([[-0.2, 0.0], [0.0, -0.3]])
        poly = force_polytope_exact(G, J_BENT, 10, 200)
        # torque box spans 0.2*190 by 0.3*190; area scales by |det(J^-T)|
        expect = (0.2 * 190) * (0.3 * 190) / abs(np.linalg.det(J_BENT.T))
        assert poly.area() == pytest.approx(expect, rel=1e-9)


class TestVelocityPolytope:
    def test_orthogonal_rows_parallelogram(self):
        G = np.array([[0.1, 0.0], [0.0, 0.2]])
        poly = velocity_polytope_exact(G, J_BENT, -0.4, 0.4)
        # qdot box is [-4,4] x [-2,2]; image under J has area 8*4*|det J|
        assert len(poly.vertices) == 4
        assert poly.area() == pytest.approx(8 * 4 * abs(np.linalg.det(J_BENT)), rel=1e-9)

    def test_zero_g_unbounded(self):
        # no wire bounds qdot: the set is the formal box |qdot_k| <= 1e6
        poly = velocity_polytope_exact(np.zeros((2, 2)), J_BENT, -0.4, 0.4)
        box = np.array([[-1e6, -1e6], [1e6, -1e6], [1e6, 1e6], [-1e6, 1e6]])
        np.testing.assert_allclose(poly.vertices, ConvexPolygon(box @ J_BENT.T).vertices)
        assert poly.area() == pytest.approx(4e12 * abs(np.linalg.det(J_BENT)), rel=1e-9)

    def test_rank_one_unbounded(self):
        # parallel wires leave the strip |qdot_0 + 2 qdot_1| <= 2, which the
        # formal box cuts at qdot_0 = +-1e6
        G = np.array([[0.1, 0.2], [0.2, 0.4]])
        poly = velocity_polytope_exact(G, J_BENT, -0.4, 0.4)
        strip = np.array([[1e6, -499999.0], [1e6, -500001.0],
                          [-1e6, 499999.0], [-1e6, 500001.0]])
        np.testing.assert_allclose(poly.vertices, ConvexPolygon(strip @ J_BENT.T).vertices,
                                   rtol=0, atol=1e-6)
        assert poly.area() == pytest.approx(4e6 * abs(np.linalg.det(J_BENT)), rel=1e-6)
        # across the strip the wires bound the ray, along it the box does
        across = np.array([1.0, 2.0]) / np.sqrt(5.0)
        assert ray_h(poly, np.zeros(2), J_BENT @ across) == pytest.approx(2 / np.sqrt(5.0))
        along = np.array([-2.0, 1.0])
        assert ray_h(poly, np.zeros(2), J_BENT @ along) == pytest.approx(5e5, rel=1e-9)

    def test_redundant_parallel_halfplane(self):
        G = np.array([[0.1, 0.0], [0.0, 0.2]])
        base = velocity_polytope_exact(G, J_BENT, -0.4, 0.4)
        widened = velocity_polytope_exact(
            np.vstack([G, [0.05, 0.0]]), J_BENT, -0.4, 0.4
        )
        np.testing.assert_allclose(base.vertices, widened.vertices, atol=1e-9)


class TestRayH:
    def square(self):
        return ConvexPolygon(np.array([[-0.5, -0.5], [0.5, -0.5], [0.5, 0.5], [-0.5, 0.5]]))

    def test_unit_square(self):
        assert ray_h(self.square(), np.zeros(2), np.array([1.0, 0.0])) == pytest.approx(0.5)

    def test_center_outside(self):
        assert ray_h(self.square(), np.array([2.0, 0.0]), np.array([1.0, 0.0])) == 0.0

    def test_unbounded_region(self):
        assert ray_h(None, np.zeros(2), np.array([1.0, 0.0])) == np.inf

    def test_point_region(self):
        point = ConvexPolygon(np.array([[1.0, 2.0]]))
        assert ray_h(point, np.array([1.0, 2.0]), np.array([1.0, 0.0])) == 0.0
        assert ray_h(point, np.array([0.0, 0.0]), np.array([1.0, 0.0])) == 0.0

    def test_segment_region(self):
        seg = ConvexPolygon(np.array([[0.0, 0.0], [2.0, 0.0]]))
        assert ray_h(seg, np.array([0.5, 0.0]), np.array([1.0, 0.0])) == pytest.approx(1.5)
        assert ray_h(seg, np.array([0.5, 0.0]), np.array([0.0, 1.0])) == 0.0

    def test_inverse_homogeneity_in_w(self):
        rng = np.random.default_rng(1)
        poly = ConvexPolygon(convex_hull(rng.normal(size=(12, 2))))
        center = poly.vertices.mean(axis=0)
        for _ in range(20):
            w = rng.normal(size=2)
            s = float(rng.uniform(0.5, 4.0))
            h1 = ray_h(poly, center, w)
            h2 = ray_h(poly, center, s * w)
            assert h2 == pytest.approx(h1 / s, rel=1e-9)


class TestPolygonHygiene:
    def test_canonical_start_and_orientation(self):
        square = np.array([[1.0, 1.0], [0.0, 1.0], [0.0, 0.0], [1.0, 0.0]])  # CW input
        poly = ConvexPolygon(square)
        np.testing.assert_allclose(poly.vertices[0], [0.0, 0.0])
        nxt = np.roll(poly.vertices, -1, axis=0)
        e1 = nxt - poly.vertices
        e2 = np.roll(nxt, -1, axis=0) - poly.vertices
        cross = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
        assert np.all(cross > 0)

    def test_collinear_input_collapses_to_segment(self):
        poly = ConvexPolygon(np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]]))
        assert len(poly.vertices) == 2

    def test_contains(self):
        poly = ConvexPolygon(np.array([[0, 0], [2, 0], [2, 2], [0, 2.0]]))
        assert poly.contains(np.array([1.0, 1.0]))
        assert not poly.contains(np.array([3.0, 1.0]))
