import math

import numpy as np
import pytest

from cvmesh.delaunay import triangulate2
from cvmesh.errors import DegenerateTetrahedron, DegenerateTriangle
from cvmesh.geometry import as_point_array, neighbor_heights, tetra_heights

from oracles import neighbor_height


def _rows(*corners):
    """One (1, d) row per corner, as the array kernels take them."""
    return [np.asarray(c, dtype=float)[None, :] for c in corners]


def triangle(i, jk, jk1):
    """(height, foot) of the single triangle row (i, jk, jk1)."""
    h, foot = neighbor_heights(*_rows(i, jk, jk1))
    return float(h[0]), bool(foot[0])


def tetra(i, j1, j2, j3):
    """(height, foot) of the single tetrahedron row (i, j1, j2, j3)."""
    h, foot = tetra_heights(*_rows(i, j1, j2, j3))
    return float(h[0]), bool(foot[0])


def test_point_rejects_non_finite():
    with pytest.raises(ValueError, match="point 2"):
        as_point_array([(0.0, 0.0), (1.0, 0.0), (float("nan"), 0.0)], 2)
    with pytest.raises(ValueError, match="point 1"):
        as_point_array([(0.0, 0.0, 0.0), (0.0, float("inf"), 1.0)], 3)
    # Rejected before the duplicate scan, which would name finite pairs.
    cloud = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [math.inf, 0.5], [1.0, 1.0]])
    with pytest.raises(ValueError, match="non-finite coordinates in point 3"):
        triangulate2(cloud)


def test_as_point_array_checks_shape():
    assert as_point_array([], 3).shape == (0, 3)
    assert as_point_array([(0, 1), (2, 3)], 2).dtype == float
    with pytest.raises(ValueError, match="expected 3D points"):
        as_point_array([(0.0, 1.0), (2.0, 3.0)], 3)


def test_classify_right_at_corner():
    h, foot = triangle((0, 0), (1, 0), (0, 1))
    assert not foot
    assert h == pytest.approx(1.0)  # the shorter leg at the right corner


def test_classify_equilateral_acute():
    _, foot = triangle((0, 0), (1, 0), (0.5, math.sqrt(3) / 2))
    assert foot


def test_classify_obtuse_derived_by_dot_product():
    a, b, c = np.array([0.0, 0.0]), np.array([2.0, 0.0]), np.array([3.0, 1.0])
    # oracle: the corner with a negative edge-vector dot product is obtuse
    dots = [
        float(np.dot(b - a, c - a)),
        float(np.dot(a - b, c - b)),
        float(np.dot(a - c, b - c)),
    ]
    assert dots[1] < 0 and dots[0] > 0 and dots[2] > 0
    # Every rotation of the row sees the same obtuse triangle.
    for row in ((a, b, c), (b, c, a), (c, a, b)):
        assert not triangle(*row)[1]


def test_classify_degenerate_raises():
    with pytest.raises(DegenerateTriangle):
        triangle((0, 0), (1, 1), (2, 2))


def test_classify_invariant_under_rigid_motion_and_scaling():
    rng = np.random.default_rng(7)
    tris, moved, scales = [], [], []
    for _ in range(100):
        tri = rng.standard_normal((3, 2))
        theta = rng.random() * 2 * math.pi
        rot = np.array([[math.cos(theta), -math.sin(theta)],
                        [math.sin(theta), math.cos(theta)]])
        scale = 10.0 ** rng.uniform(-3, 3)
        shift = rng.standard_normal(2) * 5
        tris.append(tri)
        moved.append(tri @ rot.T * scale + shift)
        scales.append(scale)
    tris, moved = np.asarray(tris), np.asarray(moved)
    ref_h, ref_foot = neighbor_heights(tris[:, 0], tris[:, 1], tris[:, 2])
    h, foot = neighbor_heights(moved[:, 0], moved[:, 1], moved[:, 2])
    assert np.array_equal(foot, ref_foot)
    np.testing.assert_allclose(h, ref_h * np.asarray(scales), rtol=1e-9)


def test_point_line_distance2_degenerate_segment():
    # The segment test is relative to the longest edge: a base of 1e-13 under
    # an apex 1e-5 away is 1e-8 of it, an ordinary acute row at every scale.
    # A base of zero length makes the corners collinear, which the area test
    # rejects before the segment test.
    for s in (1e-8, 1.0, 1e8):
        h, foot = triangle((0.0, 1e-5 * s), (-0.5e-13 * s, 0.0), (0.5e-13 * s, 0.0))
        assert foot
        assert h == pytest.approx(1e-5 * s, rel=1e-12)
        with pytest.raises(DegenerateTriangle):
            triangle((0.0, 1e-5 * s), (0.0, 0.0), (0.0, 0.0))


def _heights_outcome(rows, s):
    """(error type or None, heights / s, foot) of neighbor_heights on rows * s."""
    try:
        h, foot = neighbor_heights(*(r * s for r in rows))
    except DegenerateTriangle as exc:
        return type(exc), None, None
    return None, h / s, foot


@pytest.mark.parametrize("dim", [2, 3])
def test_neighbor_heights_scale_invariant(dim):
    """Raise or not, foot rule and heights / scale agree at scales 1e-8, 1
    and 1e8: every tolerance of the height rules is relative."""
    rng = np.random.default_rng(41 + dim)
    pad = np.zeros((1, dim - 2))
    cases = [
        # base 1e-8 of the longest edge under an acute apex
        [np.hstack([np.array([[0.0, 1e-5]]), pad]),
         np.hstack([np.array([[-0.5e-13, 0.0]]), pad]),
         np.hstack([np.array([[0.5e-13, 0.0]]), pad])],
        # collinear corners
        [np.zeros((1, dim)), np.eye(dim)[:1], 2.0 * np.eye(dim)[:1]],
    ]
    acute = [rng.normal(size=(200, dim)) for _ in range(3)]
    _, foot = neighbor_heights(*acute)
    cases.append([a[foot] for a in acute])
    cases.append(acute)
    for rows in cases:
        want = _heights_outcome(rows, 1.0)
        for s in (1e-8, 1e8):
            got = _heights_outcome(rows, s)
            assert got[0] == want[0]
            if want[0] is None:
                assert np.array_equal(got[2], want[2])
                np.testing.assert_allclose(got[1], want[1], rtol=1e-12, atol=0.0)
    assert _heights_outcome(cases[0], 1.0)[0] is None
    assert _heights_outcome(cases[1], 1.0)[0] is DegenerateTriangle
    assert len(cases[2][0]) > 20


def test_neighbor_height2_equilateral():
    h, foot = triangle((0, 0), (1, 0), (0.5, math.sqrt(3) / 2))
    assert foot
    assert h == pytest.approx(math.sqrt(3) / 2)


def test_neighbor_height2_right_triangle_fallback():
    h, foot = triangle((0, 0), (1, 0), (0, 1))
    assert not foot
    assert h == pytest.approx(min(1.0, 1.0))


def test_neighbor_height2_obtuse_fallback():
    # oracle: min of the two edge lengths at the apex
    expected = min(math.hypot(2, 0), math.hypot(3, 1))
    h, foot = triangle((0, 0), (2, 0), (3, 1))
    assert not foot
    assert h == pytest.approx(expected)
    assert h == pytest.approx(2.0)


def test_neighbor_height2_acute_matches_area_formula():
    # The first 100 acute rows of one stream of (3, 2) draws.
    rows = np.random.default_rng(11).standard_normal((1000, 3, 2)) * 3
    h, foot = neighbor_heights(rows[:, 0], rows[:, 1], rows[:, 2])
    take = np.nonzero(foot)[0][:100]
    assert len(take) == 100
    i, jk, jk1 = rows[take, 0], rows[take, 1], rows[take, 2]
    area2 = np.abs((jk[:, 0] - i[:, 0]) * (jk1[:, 1] - i[:, 1])
                   - (jk[:, 1] - i[:, 1]) * (jk1[:, 0] - i[:, 0]))
    expected = area2 / np.linalg.norm(jk1 - jk, axis=1)
    np.testing.assert_allclose(h[take], expected, rtol=1e-12)


def test_neighbor_height3_matches_2d_in_plane():
    h3 = triangle((0, 0, 0), (1, 0, 0), (0.5, math.sqrt(3) / 2, 0))
    h2 = triangle((0, 0), (1, 0), (0.5, math.sqrt(3) / 2))
    assert h3[0] == pytest.approx(h2[0], rel=1e-12)
    assert h3[1] is h2[1]


def test_point_line_distance3_reduces_to_2d():
    # Random rows embedded in the plane z = 0 give the 2D heights; where the
    # perpendicular foot is used, that height is the apex-to-base-line distance.
    rows = np.random.default_rng(3).standard_normal((300, 3, 2)) * 4
    lifted = np.concatenate([rows, np.zeros((300, 3, 1))], axis=2)
    got3, foot3 = neighbor_heights(lifted[:, 0], lifted[:, 1], lifted[:, 2])
    got2, foot2 = neighbor_heights(rows[:, 0], rows[:, 1], rows[:, 2])
    assert np.array_equal(foot3, foot2)
    np.testing.assert_allclose(got3, got2, rtol=1e-12, atol=1e-15)
    p, a, b = rows[foot2, 0], rows[foot2, 1], rows[foot2, 2]
    ab, ap = b - a, p - a
    line = np.abs(ab[:, 0] * ap[:, 1] - ab[:, 1] * ap[:, 0]) / np.linalg.norm(ab, axis=1)
    np.testing.assert_allclose(got3[foot2], line, rtol=1e-12, atol=1e-15)


def test_tetra_height_foot_on_boundary_counts_inside():
    h, foot = tetra((0, 0, 1), (0, 0, 0), (1, 0, 0), (0, 1, 0))
    assert foot
    assert h == pytest.approx(1.0)


def test_tetra_height_foot_at_centroid():
    h, foot = tetra((1 / 3, 1 / 3, 5), (0, 0, 0), (1, 0, 0), (0, 1, 0))
    assert foot
    assert h == pytest.approx(5.0)


def test_tetra_height_outside_foot_falls_back_to_wall_heights():
    i = np.array([10.0, 10.0, 1.0])
    base = [np.array([0.0, 0.0, 0.0]), np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0])]
    # oracle: wall heights from the scalar classification rule
    expected = min(
        neighbor_height(i, base[0], base[1]),
        neighbor_height(i, base[1], base[2]),
        neighbor_height(i, base[2], base[0]),
    )
    h, foot = tetra(i, *base)
    assert not foot
    assert h == pytest.approx(expected, rel=1e-12)


def test_tetra_height_matches_volume_formula():
    # The first 100 foot rows of one stream of (4, 3) draws.
    rows = np.random.default_rng(5).standard_normal((2000, 4, 3)) * 2
    h, foot = tetra_heights(*(rows[:, k] for k in range(4)))
    take = np.nonzero(foot)[0][:100]
    assert len(take) == 100
    i, a, b, c = (rows[take, k] for k in range(4))
    normal = np.cross(b - a, c - a)
    vol6 = np.abs(np.einsum("ij,ij->i", normal, i - a))
    np.testing.assert_allclose(h[take], vol6 / np.linalg.norm(normal, axis=1), rtol=1e-10)


def test_tetra_height_degenerate_raises():
    with pytest.raises(DegenerateTetrahedron):
        tetra((3, 3, 0), (0, 0, 0), (1, 0, 0), (0, 1, 0))
