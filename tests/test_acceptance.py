"""Acceptance suite: one test per criterion, each printing a PASS line with its
measured figure (run with -s to see them on success).

Instance notes: criteria that exercise the strict radius bounds run on seeded
jittered-lattice clouds (the bounds demand locally uniform spacing; see
conftest); equal-radii and triangulation criteria use the uniform generator
directly. Seeds are frozen.
"""
import os
import time

import numpy as np
import pytest

from cvmesh.cli import main
from cvmesh.delaunay import neighbor_map, tetrahedralize3, triangulate2
from cvmesh.io import RunConfig, read_json
from cvmesh.mesh import build_volumes2, build_volumes3, validate_global, validate_perpendicularity
from cvmesh.pipeline import run_pipeline
from cvmesh.solver import VolumeMode, solve_radii

from conftest import (
    bcc_cell,
    exact_instance,
    hexagon_patch,
    radical_centers,
    uniform_points,
)
from oracles import (
    cell_records,
    convex_hull_area,
    convex_hull_volume,
    dedup_vertices,
    empty_circumcircles,
    empty_circumspheres,
    gauss_solve,
    tetra_volume,
    triangle_area,
    vertex_sets_match,
    voronoi_cell_2d,
    voronoi_cell_3d,
)


def _report(num: int, detail: str):
    print(f"ACCEPTANCE {num}: PASS - {detail}")


def test_criterion_1_radical_center_correctness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    draws = [(rng.standard_normal((3, 2)) * 2, 0.2 + rng.random(3)) for _ in range(1000)]
    q2, _ = radical_centers([c for c, _ in draws], [r for _, r in draws])
    worst2 = 0.0
    for (c, r), q in zip(draws, q2):
        powers = np.sum((q - c) ** 2, axis=1) - r**2
        scale = max(np.linalg.norm(c[i] - c[j]) for i in range(3) for j in range(i))
        mism = np.max(np.abs(powers - powers[0])) / scale**2
        assert mism <= 1e-9
        worst2 = max(worst2, mism)

    draws = [(rng.standard_normal((4, 3)) * 2, 0.2 + rng.random(4)) for _ in range(1000)]
    q3, _ = radical_centers([c for c, _ in draws], [r for _, r in draws])
    worst3 = 0.0
    for (c, r), q in zip(draws, q3):
        a = 2.0 * (c[0] - c[1:])
        b = np.array([r[k] ** 2 - r[0] ** 2 + float(c[0] @ c[0] - c[k] @ c[k]) for k in (1, 2, 3)])
        expected = gauss_solve(a, b)
        rel = np.linalg.norm(q - expected) / max(np.linalg.norm(expected), 1e-30)
        assert rel <= 1e-10
        worst3 = max(worst3, rel)

    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    _report(1, f"power mismatch <= {worst2:.2e}, linear-solve deviation <= {worst3:.2e}, {elapsed:.2f}s")


def _cells_match_voronoi_2d(pts, mesh, tol):
    for cell in cell_records(mesh):
        oracle = voronoi_cell_2d(pts, cell.owner, mesh.domain.verts)
        a = dedup_vertices(cell.verts, tol / 10)
        b = dedup_vertices(oracle, tol / 10)
        assert vertex_sets_match(a, b, tol), f"cell {cell.owner} differs from Voronoi oracle"


def _cells_match_voronoi_3d(pts, mesh, tol):
    dv = mesh.domain.verts
    lo, hi = dv.min(axis=0), dv.max(axis=0)
    for cell in cell_records(mesh):
        oracle = voronoi_cell_3d(pts, cell.owner, lo, hi)
        a = dedup_vertices(cell.all_vertices(), tol / 10)
        b = dedup_vertices(np.vstack(oracle), tol / 10)
        assert vertex_sets_match(a, b, tol), f"cell {cell.owner} differs from Voronoi oracle"


def test_criterion_2_equal_radii_matches_voronoi():
    t0 = time.perf_counter()
    checked = 0
    for n, seed in ((10, 1), (25, 2), (50, 3)):
        pts = uniform_points(2, n, seed)
        tri = triangulate2(pts)
        nm = neighbor_map(tri)
        sol = solve_radii(tri, nm, pts, equal_radii=True)
        mesh = build_volumes2(tri, nm, pts, sol.radii)
        _cells_match_voronoi_2d(pts, mesh, 1e-9 * mesh.scale())
        checked += n
    for n, seed in ((9, 1), (20, 2)):
        pts = uniform_points(3, n, seed)
        tet = tetrahedralize3(pts)
        nm = neighbor_map(tet)
        sol = solve_radii(tet, nm, pts, equal_radii=True)
        mesh = build_volumes3(tet, nm, pts, sol.radii)
        _cells_match_voronoi_3d(pts, mesh, 1e-9 * mesh.scale())
        checked += n
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _report(2, f"{checked} cells match the half-space Voronoi oracle, {elapsed:.1f}s")


def test_criterion_3_perpendicularity_by_construction(hex50, uni30_3d):
    tri = triangulate2(hex50)
    nm = neighbor_map(tri)
    sol = solve_radii(tri, nm, hex50, mode=VolumeMode.RADICAL_CENTER, bounds_policy="clamp")
    mesh2 = build_volumes2(tri, nm, hex50, sol.radii)
    rep2 = validate_perpendicularity(mesh2, tol=1e-9)
    assert rep2.ok, rep2.violations[:5]

    tet = tetrahedralize3(uni30_3d)
    nm3 = neighbor_map(tet)
    sol3 = solve_radii(tet, nm3, uni30_3d, mode=VolumeMode.RADICAL_CENTER, bounds_policy="clamp")
    mesh3 = build_volumes3(tet, nm3, uni30_3d, sol3.radii)
    rep3 = validate_perpendicularity(mesh3, tol=1e-9)
    assert rep3.ok, rep3.violations[:5]
    _report(3, f"0 violations in {rep2.checked} (2D) + {rep3.checked} (3D) walls at 1e-9 rad")


def test_criterion_4_exact_intersection_recovery():
    t0 = time.perf_counter()
    results = []
    for n in (5, 6, 7):
        pts, tri, nm, r_star, lo, hi = exact_instance(n)
        rng = np.random.default_rng(99)
        width = hi - lo
        r0 = np.clip(r_star + 0.10 * width * (rng.random(n) * 2 - 1),
                     lo + 1e-6 * width, hi - 1e-6 * width)
        sol = solve_radii(tri, nm, pts, mode=VolumeMode.EXACT_INTERSECTION, seed=0,
                          r0=r0, bounds_policy="clamp")
        assert sol.objective < 1e-8, f"n={n}: residual {sol.objective:.3e}"
        results.append(sol.objective)
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    _report(4, "residuals " + ", ".join(f"{v:.1e}" for v in results) + f", {elapsed:.1f}s")


def test_criterion_5_bounds_compliance():
    checked = 0
    for rings, seeds in ((2, range(25)), (3, range(25))):
        for seed in seeds:
            pts = hexagon_patch(rings, seed)
            tri = triangulate2(pts)
            nm = neighbor_map(tri)
            sol = solve_radii(tri, nm, pts, mode=VolumeMode.RADICAL_CENTER,
                              bounds_policy="strict")
            assert np.all(sol.radii > sol.lo) and np.all(sol.radii < sol.hi)
            checked += 1
    for seed in range(50):
        pts = bcc_cell(seed)
        tet = tetrahedralize3(pts)
        nm = neighbor_map(tet)
        sol = solve_radii(tet, nm, pts, mode=VolumeMode.RADICAL_CENTER,
                          bounds_policy="strict")
        assert np.all(sol.radii > sol.lo) and np.all(sol.radii < sol.hi)
        checked += 1
    # optimizer outputs respect the box too
    from cvmesh.optimize import OptimizerParams

    for n in (5, 6, 7):
        pts, tri, nm, r_star, lo, hi = exact_instance(n)
        sol = solve_radii(tri, nm, pts, mode=VolumeMode.EXACT_INTERSECTION, seed=1,
                          params=OptimizerParams(generations=30), bounds_policy="clamp")
        assert np.all(sol.radii > sol.lo) and np.all(sol.radii < sol.hi)
        checked += 1
    assert checked >= 100
    _report(5, f"{checked} seeded instances, every output strictly inside its bounds")


def test_criterion_6_delaunay_oracle():
    pts = uniform_points(2, 200, 12)
    tri = triangulate2(pts)
    ok, witness = empty_circumcircles(pts, tri.triangles, eps=1e-9)
    assert ok, witness
    area = sum(triangle_area(pts[a], pts[b], pts[c]) for a, b, c in tri.triangles)
    assert area == pytest.approx(convex_hull_area(pts), rel=1e-9)

    pts3 = uniform_points(3, 60, 12)
    tet = tetrahedralize3(pts3)
    ok, witness = empty_circumspheres(pts3, tet.tetrahedra, eps=1e-9)
    assert ok, witness
    vol = sum(tetra_volume(pts3[a], pts3[b], pts3[c], pts3[d]) for a, b, c, d in tet.tetrahedra)
    assert vol == pytest.approx(convex_hull_volume(pts3), rel=1e-8)
    _report(6, f"{len(tri.triangles)} triangles and {len(tet.tetrahedra)} tets oracle-clean, measures conserved")


def test_criterion_7_conservation_and_disjointness(hex50, uni30_3d):
    tri = triangulate2(hex50)
    nm = neighbor_map(tri)
    sol = solve_radii(tri, nm, hex50, mode=VolumeMode.RADICAL_CENTER, bounds_policy="clamp")
    mesh2 = build_volumes2(tri, nm, hex50, sol.radii)
    rep2 = validate_global(mesh2)
    assert not rep2.overlaps
    assert rep2.total_measure == pytest.approx(rep2.domain_measure, rel=1e-9)

    tet = tetrahedralize3(uni30_3d)
    nm3 = neighbor_map(tet)
    sol3 = solve_radii(tet, nm3, uni30_3d, mode=VolumeMode.RADICAL_CENTER, bounds_policy="clamp")
    mesh3 = build_volumes3(tet, nm3, uni30_3d, sol3.radii)
    rep3 = validate_global(mesh3)
    assert not rep3.overlaps
    assert rep3.total_measure == pytest.approx(rep3.domain_measure, rel=1e-8)
    _report(7, "cell measures sum to the domain measure; the certificate finds no overlap")


def test_criterion_8_run_determinism(tmp_path):
    cfg = RunConfig(dimension=2, n=25, seed=2, equal_radii=True,
                    out_dir=str(tmp_path / "a"))
    res_a = run_pipeline(cfg)
    res_b = run_pipeline(cfg.replace(out_dir=str(tmp_path / "b")))
    assert res_a.exit_code == res_b.exit_code == 0
    compared = []
    for name in res_a.artifacts:
        if name == "summary.json":
            continue  # carries wall-clock timings
        with open(res_a.artifacts[name], "rb") as fa, open(res_b.artifacts[name], "rb") as fb:
            assert fa.read() == fb.read(), f"{name} differs between runs"
        compared.append(name)
    assert "mesh.json" in compared and "mesh.svg" in compared
    _report(8, f"byte-identical artifacts across two runs: {', '.join(sorted(compared))}")


def test_criterion_9_fig4_style_run(tmp_path):
    out = str(tmp_path / "fig4")
    code = main(["run", "--dim", "2", "--n", "20", "--mode", "exact-intersection",
                 "--out", out])
    assert code in (0, 3)  # non-convergence is reported, artifacts still emitted
    svg = open(os.path.join(out, "mesh.svg")).read()
    assert svg.count("<circle") == 20          # one radius circle per point
    assert svg.count("<polygon") == 20         # one control volume per point
    assert '<g id="delaunay"' in svg
    summary = read_json(os.path.join(out, "summary.json"))
    assert summary["max_simplex_residual"] >= 0.0
    perp = read_json(os.path.join(out, "report.json"))["perpendicularity"]
    assert perp["violations"] == []
    _report(9, f"SVG with triangulation, circles and cells; max simplex residual "
               f"{summary['max_simplex_residual']:.2e}")
