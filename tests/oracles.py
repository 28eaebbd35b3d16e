"""Independent brute-force oracles used by the tests.

Everything here is deliberately written from scratch (no imports from cvmesh
beyond plain numpy) so the checks stay independent of the code paths they
verify: direct circumcircle/circumsphere scans, half-plane-intersection
Voronoi cells, a two-variable Newton solve for equal-power points, a
hand-rolled Gaussian elimination, and one-face, one-vertex-at-a-time loops
for the 3D cell clipping, face-loop ordering, containment, volume, simplex
matching and perpendicularity that cvmesh computes as array code over whole
cells.
"""
from __future__ import annotations

import math

import numpy as np


def circumcircle(a, b, c):
    ax, ay = a
    bx, by = b
    cx, cy = c
    d = 2.0 * (ax * (by - cy) + bx * (cy - ay) + cx * (ay - by))
    a2 = ax * ax + ay * ay
    b2 = bx * bx + by * by
    c2 = cx * cx + cy * cy
    ux = (a2 * (by - cy) + b2 * (cy - ay) + c2 * (ay - by)) / d
    uy = (a2 * (cx - bx) + b2 * (ax - cx) + c2 * (bx - ax)) / d
    r2 = (ax - ux) ** 2 + (ay - uy) ** 2
    return np.array([ux, uy]), r2


def circumsphere(a, b, c, d):
    m = 2.0 * np.vstack([b - a, c - a, d - a])
    rhs = np.array([b @ b - a @ a, c @ c - a @ a, d @ d - a @ a])
    cc = gauss_solve(m, rhs)
    return cc, float((a - cc) @ (a - cc))


def empty_circumcircles(pts, triangles, eps=1e-9):
    """Every point must lie outside every triangle's circumcircle shrunk by eps."""
    pts = np.asarray(pts, dtype=float)
    for t in triangles:
        cc, r2 = circumcircle(pts[t[0]], pts[t[1]], pts[t[2]])
        d2 = np.sum((pts - cc) ** 2, axis=1)
        inside = d2 < r2 * (1.0 - eps)
        inside[list(t)] = False
        if np.any(inside):
            return False, (tuple(int(v) for v in t), int(np.nonzero(inside)[0][0]))
    return True, None


def empty_circumspheres(pts, tets, eps=1e-9):
    pts = np.asarray(pts, dtype=float)
    for t in tets:
        cc, r2 = circumsphere(pts[t[0]], pts[t[1]], pts[t[2]], pts[t[3]])
        d2 = np.sum((pts - cc) ** 2, axis=1)
        inside = d2 < r2 * (1.0 - eps)
        inside[list(t)] = False
        if np.any(inside):
            return False, (tuple(int(v) for v in t), int(np.nonzero(inside)[0][0]))
    return True, None


def triangle_area(a, b, c) -> float:
    return 0.5 * abs((b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0]))


def tetra_volume(a, b, c, d) -> float:
    return abs(np.linalg.det(np.vstack([b - a, c - a, d - a]))) / 6.0


def convex_hull_area(pts) -> float:
    """Monotone-chain hull followed by the shoelace formula."""
    p = sorted(map(tuple, np.asarray(pts, dtype=float)))

    def half(seq):
        out = []
        for v in seq:
            while len(out) >= 2 and _cross(out[-2], out[-1], v) <= 0:
                out.pop()
            out.append(v)
        return out

    hull = half(p)[:-1] + half(p[::-1])[:-1]
    area = 0.0
    for k in range(len(hull)):
        x1, y1 = hull[k]
        x2, y2 = hull[(k + 1) % len(hull)]
        area += x1 * y2 - x2 * y1
    return abs(area) / 2.0


def _cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def convex_hull_volume(pts) -> float:
    """Hull volume as a sum of pyramids from the centroid over the hull planes.

    The hull planes are found by brute force: a plane through a point triple
    with every point on one side. All triples of one plane (a flat face holding
    more than three points) give one plane, identified by the points on it, and
    count once with the area of the 2D hull of those points."""
    pts = np.asarray(pts, dtype=float)
    n = len(pts)
    center = pts.mean(axis=0)
    planes: dict[frozenset, np.ndarray] = {}
    for i in range(n):
        for j in range(i + 1, n):
            ks = np.arange(j + 1, n)
            nrm = np.cross(pts[j] - pts[i], pts[ks] - pts[i])      # one row per k
            side = (pts - pts[i]) @ nrm.T                          # (n, len(ks))
            tol = 1e-10 * np.abs(side).max(axis=0, initial=0.0)
            hull = (np.linalg.norm(nrm, axis=1) >= 1e-14) & (
                np.all(side <= tol, axis=0) | np.all(side >= -tol, axis=0))
            for col in np.nonzero(hull)[0]:
                on = frozenset(np.nonzero(np.abs(side[:, col]) <= tol[col])[0].tolist())
                planes.setdefault(on, nrm[col])
    vol = 0.0
    for on, nrm in planes.items():
        q = pts[sorted(on)]
        unit = nrm / np.linalg.norm(nrm)
        e1 = (q[1] - q[0]) / np.linalg.norm(q[1] - q[0])
        e2 = np.cross(unit, e1)
        area = convex_hull_area(np.stack([(q - q[0]) @ e1, (q - q[0]) @ e2], axis=1))
        vol += area * abs(float((center - q[0]) @ unit)) / 3.0
    return vol


# Radius-height rules of the paper, one triangle or tetrahedron at a time: the
# scalar reference for cvmesh.geometry.neighbor_heights/tetra_heights and the
# radius bounds built on them. Thresholds as in cvmesh.geometry.
EPS_RIGHT = 1e-9
EPS_AREA = 1e-12
EPS_VOL = 1e-12
EPS_LEN = 1e-12


def _cross_norm(u, v) -> float:
    if u.shape[0] == 2:
        return abs(u[0] * v[1] - u[1] * v[0])
    return float(np.linalg.norm(np.cross(u, v)))


def neighbor_height(i, jk, jk1) -> float:
    """Height of the triangle (i, jk, jk1), 2D or 3D: the distance from i to
    the line (jk, jk1) when the triangle is acute, else the shorter edge at i."""
    a, b, c = (np.asarray(x, dtype=float) for x in (i, jk, jk1))
    corners = (a, b, c)
    longest = max(np.linalg.norm(b - a), np.linalg.norm(c - b), np.linalg.norm(a - c))
    if _cross_norm(b - a, c - a) <= 2.0 * EPS_AREA * longest * longest:
        raise ValueError("collinear corners")
    acute = True
    for k in range(3):
        u = corners[(k + 1) % 3] - corners[k]
        v = corners[(k + 2) % 3] - corners[k]
        cos_k = float(np.dot(u, v) / (np.linalg.norm(u) * np.linalg.norm(v)))
        if abs(cos_k) <= EPS_RIGHT or cos_k < 0.0:
            acute = False
    if acute:
        ab = c - b
        seg = float(np.linalg.norm(ab))
        return _cross_norm(a - b, ab) / seg
    return min(float(np.linalg.norm(a - b)), float(np.linalg.norm(a - c)))


def tetra_height(i, j1, j2, j3) -> float:
    """Height of the tetrahedron (i, j1, j2, j3): the plane distance when the
    foot of i falls inside the base triangle, else the smallest wall height."""
    ii, a, b, c = (np.asarray(x, dtype=float) for x in (i, j1, j2, j3))
    u = b - a
    v = c - a
    normal = np.cross(u, v)
    nn = float(np.linalg.norm(normal))
    edges = [ii - a, ii - b, ii - c, u, v, c - b]
    longest = max(float(np.linalg.norm(e)) for e in edges)
    volume6 = abs(float(np.dot(normal, ii - a)))
    if volume6 <= 6.0 * EPS_VOL * longest**3:
        raise ValueError("coplanar corners")
    w = ii - a
    uu = float(np.dot(u, u))
    uv = float(np.dot(u, v))
    vv = float(np.dot(v, v))
    wu = float(np.dot(w, u))
    wv = float(np.dot(w, v))
    den = uu * vv - uv * uv
    s = (vv * wu - uv * wv) / den
    t = (uu * wv - uv * wu) / den
    if s >= -EPS_LEN and t >= -EPS_LEN and s + t <= 1.0 + EPS_LEN:
        return volume6 / nn
    return min(neighbor_height(ii, a, b), neighbor_height(ii, b, c), neighbor_height(ii, c, a))


def radius_bounds_loop(nm, pts):
    """Per-point loop over the height rules: (r_max, lo, hi, blocking) with
    blocking[i] the first neighbour attaining lo (None when lo is 0). Reads
    only the rings/stars of the neighbour map."""
    pts = np.asarray(pts, dtype=float)
    n = len(pts)
    r_max = np.full(n, np.inf)
    for i in range(n):
        if nm.dim == 2:
            ring = nm.rings[i]
            for k in range(len(nm.ring_simplices[i])):
                u, v = ring[k], ring[(k + 1) % len(ring)]
                r_max[i] = min(r_max[i], neighbor_height(pts[i], pts[u], pts[v]))
        else:
            for t0, t1, t2 in nm.stars[i]:
                r_max[i] = min(r_max[i], tetra_height(pts[i], pts[t0], pts[t1], pts[t2]))
    lo = np.zeros(n)
    blocking = [None] * n
    for i in range(n):
        if nm.dim == 2:
            rows = [(int(u), float(np.linalg.norm(pts[i] - pts[u]))) for u in nm.rings[i]]
        else:
            rows = [(int(t[l]), neighbor_height(pts[i], pts[t[l]], pts[t[(l + 1) % 3]]))
                    for t in nm.stars[i] for l in range(3)]
        for j, reach in rows:
            value = reach - float(r_max[j])
            if value > lo[i]:
                lo[i] = value
                blocking[i] = j
    return r_max, lo, r_max.copy(), blocking


def clip_poly_halfplane(verts, n, c):
    """Test-local Sutherland-Hodgman: keep n.x <= c."""
    out = []
    k = len(verts)
    for a in range(k):
        b = (a + 1) % k
        va, vb = verts[a], verts[b]
        da = va @ n - c
        db = vb @ n - c
        if da <= 0:
            out.append(va)
            if db > 0:
                out.append(va + (da / (da - db)) * (vb - va))
        elif db <= 0:
            out.append(va + (da / (da - db)) * (vb - va))
    return np.asarray(out) if out else None


def voronoi_cell_2d(pts, i, domain_verts, radii=None):
    """Brute-force power/Voronoi cell: clip the domain polygon by the bisector
    of (i, j) for every other j."""
    pts = np.asarray(pts, dtype=float)
    r = np.zeros(len(pts)) if radii is None else np.asarray(radii, dtype=float)
    cell = np.asarray(domain_verts, dtype=float)
    for j in range(len(pts)):
        if j == i or cell is None:
            continue
        n = 2.0 * (pts[j] - pts[i])
        c = float(pts[j] @ pts[j] - pts[i] @ pts[i]) + r[i] ** 2 - r[j] ** 2
        cell = clip_poly_halfplane(cell, n, c)
    return cell


def clip_polyhedron_halfspace(faces, n, c, eps=1e-12):
    """Test-local convex polyhedron clip: faces are vertex loops; keep n.x <= c."""
    new_faces = []
    section = []
    allv = np.vstack(faces)
    d_all = allv @ n - c
    if np.all(d_all <= eps):
        return faces
    if np.all(d_all >= -eps):
        return None
    for f in faces:
        d = f @ n - c
        if np.all(d >= -eps):
            for k in range(len(f)):
                if abs(d[k]) <= eps:
                    section.append(f[k])
            continue
        if np.all(d <= eps):
            new_faces.append(f)
            for k in range(len(f)):
                if abs(d[k]) <= eps:
                    section.append(f[k])
            continue
        loop = []
        k = len(f)
        for a in range(k):
            b = (a + 1) % k
            da, db = d[a], d[b]
            if da <= eps:
                loop.append(f[a])
                if abs(da) <= eps:
                    section.append(f[a])
                if db > eps:
                    x = f[a] + (da / (da - db)) * (f[b] - f[a])
                    loop.append(x)
                    section.append(x)
            elif db <= eps:
                x = f[a] + (da / (da - db)) * (f[b] - f[a])
                loop.append(x)
                section.append(x)
        if len(loop) >= 3:
            new_faces.append(np.asarray(loop))
    uniq = []
    for p in section:
        if all(np.linalg.norm(p - q) > 1e-9 for q in uniq):
            uniq.append(p)
    if len(uniq) >= 3:
        center = np.mean(uniq, axis=0)
        nn = n / np.linalg.norm(n)
        seed = np.array([1.0, 0.0, 0.0]) if abs(nn[0]) < 0.9 else np.array([0.0, 1.0, 0.0])
        e1 = np.cross(nn, seed)
        e1 /= np.linalg.norm(e1)
        e2 = np.cross(nn, e1)
        rel = np.asarray(uniq) - center
        order = np.argsort(np.arctan2(rel @ e2, rel @ e1))
        new_faces.append(np.asarray(uniq)[order])
    return new_faces if new_faces else None


def box_faces(lo, hi):
    x0, y0, z0 = lo
    x1, y1, z1 = hi
    quad = lambda *vs: np.asarray(vs, dtype=float)
    return [
        quad((x0, y0, z0), (x0, y1, z0), (x1, y1, z0), (x1, y0, z0)),
        quad((x0, y0, z1), (x1, y0, z1), (x1, y1, z1), (x0, y1, z1)),
        quad((x0, y0, z0), (x1, y0, z0), (x1, y0, z1), (x0, y0, z1)),
        quad((x0, y1, z0), (x0, y1, z1), (x1, y1, z1), (x1, y1, z0)),
        quad((x0, y0, z0), (x0, y0, z1), (x0, y1, z1), (x0, y1, z0)),
        quad((x1, y0, z0), (x1, y1, z0), (x1, y1, z1), (x1, y0, z1)),
    ]


def voronoi_cell_3d(pts, i, lo, hi, radii=None):
    pts = np.asarray(pts, dtype=float)
    r = np.zeros(len(pts)) if radii is None else np.asarray(radii, dtype=float)
    faces = box_faces(lo, hi)
    for j in range(len(pts)):
        if j == i or faces is None:
            continue
        n = 2.0 * (pts[j] - pts[i])
        c = float(pts[j] @ pts[j] - pts[i] @ pts[i]) + r[i] ** 2 - r[j] ** 2
        faces = clip_polyhedron_halfspace(faces, n, c)
    return faces


def vertex_sets_match(a, b, tol) -> bool:
    """Every vertex of a has a distinct partner in b within tol, and conversely."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if len(a) != len(b):
        return False
    used = np.zeros(len(b), dtype=bool)
    for v in a:
        d = np.linalg.norm(b - v, axis=1)
        d[used] = np.inf
        k = int(np.argmin(d))
        if d[k] > tol:
            return False
        used[k] = True
    return True


def newell_normal(verts) -> np.ndarray:
    """Newell normal of one vertex loop, summed with np.sum per component."""
    v = verts
    w = np.roll(v, -1, axis=0)
    return np.array([
        float(np.sum((v[:, 1] - w[:, 1]) * (v[:, 2] + w[:, 2]))),
        float(np.sum((v[:, 2] - w[:, 2]) * (v[:, 0] + w[:, 0]))),
        float(np.sum((v[:, 0] - w[:, 0]) * (v[:, 1] + w[:, 1]))),
    ])


def cell_contains3(cell, p, margin: float = 0.0) -> bool:
    """Point-in-cell test for a 3D cell, one face at a time: p must lie within
    margin of the inner side of the plane through each face's first vertex;
    faces with a zero normal are skipped."""
    p = np.asarray(p, dtype=float)
    for f in cell.faces or []:
        n = newell_normal(f.verts)
        nn = float(np.linalg.norm(n))
        if nn == 0.0:
            continue
        if float(np.dot(n, p - f.verts[0])) / nn > margin:
            return False
    return bool(cell.faces)


def cell_contains_many3(cell, pts, margin: float = 0.0) -> np.ndarray:
    """cell_contains3 over an (M, 3) array, one face at a time."""
    if not cell.faces:
        return np.zeros(len(pts), dtype=bool)
    ok = np.ones(len(pts), dtype=bool)
    for f in cell.faces:
        n = newell_normal(f.verts)
        nn = float(np.linalg.norm(n))
        if nn == 0.0:
            continue
        d = (pts - f.verts[0]) @ (n / nn)
        ok &= d <= margin
    return ok


def cell_volume3(cell) -> float:
    """Divergence-theorem volume of a 3D cell, summed over each face's fan
    triangles one at a time."""
    total = 0.0
    for f in cell.faces or []:
        v = f.verts
        for k in range(1, len(v) - 1):
            total += float(np.dot(v[0], np.cross(v[k], v[k + 1])))
    return total / 6.0


def match_simplex_ids(verts, q, candidates, eps) -> list:
    """Per vertex, the first candidate t in order with |q[t] - v| <= eps, else None."""
    ids = []
    for v in verts:
        found = None
        for t in candidates:
            if np.linalg.norm(q[t] - v) <= eps:
                found = int(t)
                break
        ids.append(found)
    return ids


def perpendicularity_loop3(mesh, tol: float = 1e-6) -> tuple[int, list]:
    """(checked, violations) of the wall-perpendicularity check of a 3D mesh,
    one wall and one edge at a time: per wall, the arcsine of the largest
    |cos| between an edge longer than 1e-12 * scale and the segment joining
    the two generators."""
    pts = mesh.points
    dv = mesh.domain.vertices()
    scale = float(np.linalg.norm(dv.max(axis=0) - dv.min(axis=0)))
    checked = 0
    violations = []
    for cell in mesh.volumes:
        i = cell.owner
        for f in cell.faces or []:
            if f.neighbor is None:
                continue
            axis = pts[f.neighbor] - pts[i]
            axis = axis / np.linalg.norm(axis)
            v = f.verts
            worst = 0.0
            for k in range(len(v)):
                e = v[(k + 1) % len(v)] - v[k]
                ln = float(np.linalg.norm(e))
                if ln <= 1e-12 * scale:
                    continue
                worst = max(worst, abs(float(e @ axis)) / ln)
            dev = math.asin(min(1.0, worst))
            checked += 1
            if dev > tol:
                violations.append((i, int(f.neighbor), dev))
    return checked, violations


def clip_polyhedron_loop(faces, normal, offset: float, tag, eps: float):
    """Keep the part of the polyhedron with normal . x <= offset, one face and
    one vertex at a time: the loop code cvmesh ran before its stacked clip
    kernel. faces are (verts, tag) pairs; returns the clipped list or None.
    The section polygon becomes one new face labelled `tag`, oriented with its
    outward normal along +normal."""
    n = np.asarray(normal, dtype=float)
    all_v = np.vstack([v for v, _ in faces])
    d_all = all_v @ n - offset
    if np.all(d_all <= eps):
        return faces
    if np.all(d_all >= -eps):
        return None

    new_faces = []
    cut_points = []
    for f in faces:
        v = f[0]
        d = v @ n - offset
        if np.all(d >= -eps):
            continue
        if np.all(d <= eps):
            new_faces.append(f)
            # boundary-touching vertices still seed the cap polygon
            for k in range(len(v)):
                if abs(d[k]) <= eps:
                    cut_points.append(v[k])
            continue
        loop = []
        k = len(v)
        for a in range(k):
            b = (a + 1) % k
            da, db = d[a], d[b]
            if da <= eps:
                loop.append(v[a])
                if abs(da) <= eps:
                    cut_points.append(v[a])
                if db > eps:
                    s = da / (da - db)
                    x = v[a] + s * (v[b] - v[a])
                    loop.append(x)
                    cut_points.append(x)
            elif db <= eps:
                s = da / (da - db)
                x = v[a] + s * (v[b] - v[a])
                loop.append(x)
                cut_points.append(x)
        loop_arr = dedup_loop(np.asarray(loop), eps)
        if loop_arr is not None:
            new_faces.append((loop_arr, f[1]))

    cap = cap_face(cut_points, n, eps)
    if cap is not None:
        new_faces.append((cap, tag))
    if not new_faces:
        return None
    return new_faces


def dedup_loop(verts, eps):
    """Drop each vertex within eps of the last one kept, then the last kept
    one when it lies within eps of the first; None under three left."""
    if len(verts) == 0:
        return None
    keep = [verts[0]]
    for v in verts[1:]:
        if np.linalg.norm(v - keep[-1]) > eps:
            keep.append(v)
    if len(keep) > 1 and np.linalg.norm(keep[0] - keep[-1]) <= eps:
        keep.pop()
    if len(keep) < 3:
        return None
    return np.asarray(keep)


def cap_face(points, n, eps):
    """Order section points CCW around +n so the cap's outward normal is +n."""
    if len(points) < 3:
        return None
    pts = np.asarray(points)
    # unique within eps
    uniq = []
    for p in pts:
        if all(np.linalg.norm(p - q) > eps for q in uniq):
            uniq.append(p)
    if len(uniq) < 3:
        return None
    pts = np.asarray(uniq)
    center = pts.mean(axis=0)
    nn = n / np.linalg.norm(n)
    seed = np.array([1.0, 0.0, 0.0]) if abs(nn[0]) < 0.9 else np.array([0.0, 1.0, 0.0])
    e1 = np.cross(nn, seed)
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(nn, e1)  # (e1, e2, nn) right-handed => CCW angles wind around +nn
    rel = pts - center
    ang = np.arctan2(rel @ e2, rel @ e1)
    order = np.argsort(ang, kind="stable")
    loop = pts[order]
    # (e1, e2) chosen so increasing angle winds CCW when viewed from +n;
    # flip if the realized normal disagrees (degenerate seeds).
    realized = newell_normal(loop)
    if np.dot(realized, nn) < 0.0:
        loop = loop[::-1]
    return loop


def face_loop_around_edge(i: int, j: int, q, tet_ids, pts, eps: float):
    """Order the candidate vertices of all tetrahedra on edge (i, j) cyclically
    in the plane perpendicular to the edge; returns (loop, simplex ids)."""
    axis = pts[j] - pts[i]
    axis = axis / np.linalg.norm(axis)
    seed = np.array([1.0, 0.0, 0.0]) if abs(axis[0]) < 0.9 else np.array([0.0, 1.0, 0.0])
    e1 = np.cross(axis, seed)
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(axis, e1)
    # sort around the vertex centroid: it is interior to the convex face loop,
    # unlike the edge midpoint, so angular order equals boundary order
    rel = q[tet_ids] - np.mean(q[tet_ids], axis=0)
    ang = np.arctan2(rel @ e2, rel @ e1)
    order = np.argsort(ang, kind="stable")
    loop = q[np.asarray(tet_ids)[order]]
    ids = [int(np.asarray(tet_ids)[k]) for k in order]
    keep_v = []
    keep_i = []
    for v, t in zip(loop, ids):
        if keep_v and np.linalg.norm(v - keep_v[-1]) <= eps:
            continue
        keep_v.append(v)
        keep_i.append(t)
    if len(keep_v) > 1 and np.linalg.norm(keep_v[0] - keep_v[-1]) <= eps:
        keep_v.pop()
        keep_i.pop()
    if len(keep_v) < 3:
        return None, None
    return np.asarray(keep_v), keep_i


def dedup_vertices(verts, tol):
    out = []
    for v in np.asarray(verts, dtype=float):
        if all(np.linalg.norm(v - w) > tol for w in out):
            out.append(v)
    return np.asarray(out)


def newton_equal_power_2d(centers, radii, x0, iters=60):
    """Newton solve of power(c1)=power(c2)=power(c3) in the plane."""
    c = np.asarray(centers, dtype=float)
    r = np.asarray(radii, dtype=float)
    x = np.asarray(x0, dtype=float).copy()
    for _ in range(iters):
        p = np.sum((x - c) ** 2, axis=1) - r**2
        f = np.array([p[0] - p[1], p[0] - p[2]])
        jac = np.array([2.0 * (c[1] - c[0]), 2.0 * (c[2] - c[0])])
        x = x - gauss_solve(jac, f)
    return x


def gauss_solve(a, b):
    """Partial-pivot Gaussian elimination, written out by hand."""
    a = np.asarray(a, dtype=float).copy()
    b = np.asarray(b, dtype=float).copy()
    n = len(b)
    for col in range(n):
        piv = col + int(np.argmax(np.abs(a[col:, col])))
        if piv != col:
            a[[col, piv]] = a[[piv, col]]
            b[[col, piv]] = b[[piv, col]]
        for row in range(col + 1, n):
            f = a[row, col] / a[col, col]
            a[row, col:] -= f * a[col, col:]
            b[row] -= f * b[col]
    x = np.zeros(n)
    for row in range(n - 1, -1, -1):
        x[row] = (b[row] - a[row, row + 1:] @ x[row + 1:]) / a[row, row]
    return x


def validate_global_brute_force(mesh, probes=10_000, seed=0, tol=None) -> dict:
    """The GlobalReport fields of cvmesh's validate_global, computed by testing
    every probe and every generator against every cell. Uses only the mesh's
    own methods (shared_walls, contains, contains_many, measures)."""
    scale = mesh.scale()
    tol = 1e-9 * scale if tol is None else tol
    pts = mesh.points

    mismatches = []
    for (i, j), sides in mesh.shared_walls().items():
        if len(sides) != 2:
            mismatches.append((i, j, "missing side"))
            continue
        a, b = sides[i], sides[j]
        if len(a) != len(b) or not vertex_sets_match(a, b, tol):
            mismatches.append((i, j, "wall geometry differs"))

    rng = np.random.default_rng(seed)
    dverts = mesh.domain.verts if mesh.dim == 2 else mesh.domain.vertices()
    lo = dverts.min(axis=0)
    hi = dverts.max(axis=0)
    samples = lo + (hi - lo) * rng.random((probes, mesh.dim))
    hit = np.zeros(probes, dtype=np.int64)
    first_owner = np.full(probes, -1, dtype=np.int64)
    overlaps = []
    for cell in mesh.volumes:
        if cell.empty:
            continue
        inside = cell.contains_many(samples, margin=-tol)
        fresh = inside & (hit == 0)
        first_owner[fresh] = cell.owner
        clash = np.nonzero(inside & (hit > 0))[0]
        for m in clash:
            overlaps.append((int(m), int(first_owner[m]), cell.owner))
        hit[inside] += 1

    owners_outside = []
    foreign = []
    for cell in mesh.volumes:
        if cell.empty:
            owners_outside.append(cell.owner)
            continue
        if not cell.contains(pts[cell.owner], margin=-tol):
            owners_outside.append(cell.owner)
        inside = cell.contains_many(pts, margin=-tol)
        for j in np.nonzero(inside)[0]:
            if int(j) != cell.owner:
                foreign.append((cell.owner, int(j)))

    return dict(
        shared_wall_mismatches=mismatches,
        overlaps=overlaps,
        owners_outside=owners_outside,
        foreign_points=foreign,
        total_measure=mesh.total_measure(),
        domain_measure=mesh.domain_measure(),
        probes=probes,
    )
