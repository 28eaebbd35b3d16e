import numpy as np
import pytest

from cvmesh.io import RunConfig, read_json
from cvmesh.optimize import OptimizerParams
from cvmesh.pipeline import run_pipeline
from cvmesh.solver import SimplexSystems

from conftest import flat_faced_box, hexagon_patch


def test_minimal_3d_single_tet(tmp_path):
    cfg = RunConfig(dimension=3, n=4, seed=5, equal_radii=True,
                    out_dir=str(tmp_path))
    res = run_pipeline(cfg)
    assert res.exit_code == 0
    mesh = read_json(res.artifacts["mesh.json"])
    assert len(mesh["cells"]) == 4
    assert len(mesh["simplices"]) == 1
    assert (tmp_path / "mesh.vtk").exists()


def test_exit_code_follows_residual_threshold(tmp_path):
    base = dict(dimension=2, n=10, seed=1, mode="exact-intersection",
                optimizer=OptimizerParams(generations=8))
    strict = run_pipeline(RunConfig(out_dir=str(tmp_path / "strict"),
                                    residual_threshold=1e-12, **base))
    loose = run_pipeline(RunConfig(out_dir=str(tmp_path / "loose"),
                                   residual_threshold=1e6, **base))
    assert strict.summary["residual"] == loose.summary["residual"] > 1e-12
    assert strict.exit_code == 3
    assert loose.exit_code == 0
    summary = read_json(strict.artifacts["summary.json"])
    trace = summary["solver_trace"]
    assert len(trace) == 8 and trace == sorted(trace, reverse=True)
    assert trace[-1] >= summary["residual"]
    assert summary["solver_n_eval"] > 8 * 140


def test_radii_artifact_carries_overlap_counts(tmp_path):
    cfg = RunConfig(dimension=2, n=12, seed=3, equal_radii=True,
                    out_dir=str(tmp_path))
    res = run_pipeline(cfg)
    doc = read_json(res.artifacts["radii.json"])
    counts = doc["overlap"]
    assert counts["overlapping"] + counts["non_overlapping"] > 0
    assert doc["kind"] == "radii" and doc["mode"] == "radical-center"


def test_pipeline_accepts_prebuilt_points(tmp_path):
    pts = hexagon_patch(2, seed=0)
    cfg = RunConfig(dimension=2, n=len(pts), seed=0, bounds_policy="strict",
                    out_dir=str(tmp_path))
    res = run_pipeline(cfg, points=pts)
    assert res.exit_code == 0
    assert res.summary["clamped_points"] == 0
    assert np.isfinite(res.summary["residual"])


def test_summary_names_stages(tmp_path):
    cfg = RunConfig(dimension=2, n=10, seed=2, equal_radii=True,
                    out_dir=str(tmp_path))
    res = run_pipeline(cfg)
    for stage in ("gen", "tri", "neighbors", "solve", "overlap", "build", "validate",
                  "validate_global", "export", "render", "emit"):
        assert stage in res.summary["timings"], stage


def test_default_3d_cloud_with_hull_sliver_builds(tmp_path):
    # cloud 6 of perfbench voronoi3d seed 1: a hull-pocket repair once left a
    # wrong tetrahedralization here and build raised NonConvexCell
    cfg = RunConfig(dimension=3, n=60, seed=1006, equal_radii=True, out_dir=str(tmp_path))
    res = run_pipeline(cfg)
    assert res.exit_code == 0
    assert res.summary["global_ok"]


def _rotated_box(seed):
    q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((3, 3)))
    return flat_faced_box() @ q


@pytest.mark.parametrize("dim,seed", [(3, s) for s in range(4)] + [(2, s) for s in range(4)])
def test_hull_slivers_are_dropped_and_counted(tmp_path, dim, seed):
    # Rotating the box rounds its face points off their planes, and scaling a
    # hexagon patch rounds its border off straight lines: nearly flat hull
    # simplices, on which the radius heights would raise, unless the kernel
    # drops them.
    pts = _rotated_box(seed) if dim == 3 else hexagon_patch(3, seed) * 3.7
    cfg = RunConfig(dimension=dim, n=len(pts), seed=seed, equal_radii=True, out_dir=str(tmp_path))
    res = run_pipeline(cfg, points=pts)
    assert res.exit_code == 0
    assert res.summary["global_ok"]
    summary = read_json(res.artifacts["summary.json"])
    assert summary["hull_slivers_dropped"] == res.summary["hull_slivers_dropped"] >= 1


def test_summary_counts_domain_clipped_cells(tmp_path):
    for dim, n in ((2, 30), (3, 30)):
        cfg = RunConfig(dimension=dim, n=n, seed=4, equal_radii=True,
                        out_dir=str(tmp_path / f"d{dim}"))
        res = run_pipeline(cfg)
        summary = read_json(res.artifacts["summary.json"])
        mesh = read_json(res.artifacts["mesh.json"])
        walls = ([c["edge_neighbors"] for c in mesh["cells"]] if dim == 2 else
                 [[f["neighbor"] for f in c["faces"]] for c in mesh["cells"]])
        want = sum(1 for tags in walls if None in tags)
        assert summary["domain_clipped_cells"] == res.summary["domain_clipped_cells"] == want
        assert 0 < want < len(mesh["cells"])


def test_summary_counts_kernel_exact_tests_and_walk_steps(tmp_path):
    # The kernel's counters go to summary.json only; triangulation.json keeps
    # its keys, and so its bytes.
    from cvmesh.delaunay import tetrahedralize3

    cfg = RunConfig(dimension=3, n=60, seed=1, equal_radii=True, out_dir=str(tmp_path))
    res = run_pipeline(cfg)
    summary = read_json(res.artifacts["summary.json"])
    tri = tetrahedralize3(read_json(res.artifacts["points.json"])["points"])
    assert summary["tri_exact_tests"] == tri.exact_tests >= 0
    assert summary["tri_walk_steps"] == tri.walk_steps > 0
    doc = read_json(res.artifacts["triangulation.json"])
    assert sorted(doc) == ["dimension", "kind", "points", "schema", "simplices"]


def _unit_lattice(dim: int, k: int) -> np.ndarray:
    g = np.linspace(0.0, 1.0, k)
    return np.stack(np.meshgrid(*[g] * dim, indexing="ij"), axis=-1).reshape(-1, dim)


@pytest.mark.parametrize("dim, k", [(2, 8), (2, 13), (3, 4), (3, 5)])
def test_equal_radii_lattice_builds_and_validates(tmp_path, dim, k):
    """Unit-square and unit-cube lattices under equal radii: the two
    triangles of a square (the tetrahedra of a cube) share one circumcenter,
    computed once per simplex and so repeated exactly or an ulp apart. The
    ring merges the repeats (2D) and every coincident candidate counts as
    covered (3D), so the build succeeds, the mesh validates and the cells
    fill the domain."""
    pts = _unit_lattice(dim, k)
    cfg = RunConfig(dimension=dim, n=len(pts), equal_radii=True, out_dir=str(tmp_path),
                    formats=("json",))
    res = run_pipeline(cfg, points=pts)
    s = res.summary
    assert res.exit_code == 0
    assert s["global_ok"] and s["perpendicularity_violations"] == 0
    assert s["total_measure"] == pytest.approx(s["domain_measure"], rel=1e-12)


@pytest.mark.parametrize("dim, n, shift", [(2, 400, 1e3), (3, 60, 1e3), (3, 60, 1e5)])
def test_run_far_from_origin(tmp_path, dim, n, shift):
    """A unit box moved far from the origin builds and validates as the
    unshifted box does: the radical centers, the bisectors that cut the hull
    cells and the face planes are all taken relative to a nearby point, so
    they keep the digits that absolute coordinates lose. So are the cell and
    domain measures, which must agree as condition (iv) asks."""
    box = (shift,) * dim + (shift + 1.0,) * dim
    cfg = RunConfig(dimension=dim, n=n, seed=1, equal_radii=True, box=box,
                    formats=("json",), out_dir=str(tmp_path))
    res = run_pipeline(cfg)
    assert res.exit_code == 0
    assert res.summary["global_ok"]
    assert res.summary["total_measure"] == pytest.approx(res.summary["domain_measure"], rel=1e-9)


@pytest.mark.parametrize("case", ["equal2d", "equal3d", "exact2d"])
def test_run_is_equivariant_under_power_of_two_scaling(tmp_path, case):
    """The box [0, 2^k]^d gives the unit box's run times 2^k, bit for bit:
    the exit code, the radii and every cell vertex scaled by 2^k, the same
    starts, tags and simplex ids. Every cut compares a true distance with an
    eps relative to the domain scale, and scaling by a power of two is exact,
    so no step may see the scale."""
    dim, n, seed, kw, pts = {
        "equal2d": (2, 400, 1, dict(equal_radii=True), None),
        "equal3d": (3, 60, 1000, dict(equal_radii=True), None),
        "exact2d": (2, 19, 1, dict(mode="exact-intersection"), hexagon_patch(2, seed=1)),
    }[case]

    def run(k):
        s = 2.0 ** k
        cfg = RunConfig(dimension=dim, n=n, seed=seed, box=(0.0,) * dim + (s,) * dim,
                        formats=(), out_dir=str(tmp_path / str(k)), **kw)
        return run_pipeline(cfg, points=None if pts is None else pts * s)

    unit = run(0)
    for k in (-40, -20, 20, 40):
        res, s = run(k), 2.0 ** k
        assert res.exit_code == unit.exit_code, k
        a, b = res.mesh, unit.mesh
        assert a.radii.tobytes() == (b.radii * s).tobytes(), k
        assert a.cells.verts.tobytes() == (b.cells.verts * s).tobytes(), k
        for name in ("starts", "tags", "simplices"):
            assert np.array_equal(getattr(a.cells, name), getattr(b.cells, name)), (k, name)


@pytest.mark.parametrize("kw", [dict(mode="exact-intersection", bounds_policy="clamp",
                                     optimizer=OptimizerParams(generations=5)),
                                dict(equal_radii=True)], ids=["exact", "equal"])
def test_summary_carries_residual_spread(tmp_path, kw):
    """summary.json gives the median and 99th percentile of |power| over the
    simplices at the written radii, and the simplex with the largest; the
    radii.json document does not change for them."""
    pts = hexagon_patch(2, seed=4)
    res = run_pipeline(RunConfig(dimension=2, n=len(pts), seed=4,
                                 out_dir=str(tmp_path), **kw), points=pts)
    summary = read_json(res.artifacts["summary.json"])
    radii = read_json(res.artifacts["radii.json"])
    tri = read_json(res.artifacts["triangulation.json"])
    size = np.abs(SimplexSystems(pts, np.asarray(tri["simplices"])).powers(np.asarray(radii["radii"])))
    assert summary["residual_p50"] == float(np.percentile(size, 50))
    assert summary["residual_p99"] == float(np.percentile(size, 99))
    assert summary["worst_simplex"] == int(np.argmax(size))
    assert summary["max_simplex_residual"] == size[summary["worst_simplex"]] > 0.0
    assert summary["residual_p50"] <= summary["residual_p99"] <= summary["max_simplex_residual"]
    assert not {"residual_p50", "residual_p99", "worst_simplex"} & set(radii)
