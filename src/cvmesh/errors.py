"""Exception hierarchy shared by all cvmesh stages."""
from __future__ import annotations


class CvMeshError(Exception):
    """Base class for all cvmesh errors."""


class DegenerateTriangle(CvMeshError):
    """Triangle is collinear within tolerance (area ~ 0)."""


class DegenerateTetrahedron(CvMeshError):
    """Tetrahedron is coplanar within tolerance (volume ~ 0)."""


class TooFewPoints(CvMeshError):
    """Fewer points than a triangulation needs (3 in 2D, 4 in 3D)."""


class AllCollinear(CvMeshError):
    """Every input point lies on one line."""


class AllCoplanar(CvMeshError):
    """Every input point lies on one plane."""


class DuplicatePoints(CvMeshError):
    """Two input points coincide within tolerance."""

    def __init__(self, pairs):
        self.pairs = list(pairs)
        super().__init__(f"coincident point pairs: {self.pairs}")


class EmptyInterval(CvMeshError):
    """A radius interval is empty (lo >= hi)."""

    def __init__(self, point, lo, hi, blocking_neighbor=None):
        self.point = point
        self.lo = lo
        self.hi = hi
        self.blocking_neighbor = blocking_neighbor
        msg = f"empty radius interval at point {point}: lo={lo:.6g} >= hi={hi:.6g}"
        if blocking_neighbor is not None:
            msg += f" (blocking neighbor {blocking_neighbor})"
        super().__init__(msg)


class NonConvexCell(CvMeshError):
    """An assembled control volume is not convex."""

    def __init__(self, owner, detail=""):
        self.owner = owner
        super().__init__(f"non-convex cell for point {owner}" + (f": {detail}" if detail else ""))


class NonPlanarFace(CvMeshError):
    """A 3D cell face deviates from a plane beyond tolerance."""

    def __init__(self, owner, neighbor, deviation):
        self.owner = owner
        self.neighbor = neighbor
        self.deviation = deviation
        super().__init__(
            f"non-planar face between points {owner} and {neighbor} (deviation {deviation:.3g})"
        )


class OrphanVertex(CvMeshError):
    """A simplex candidate vertex inside the domain is missing from a corner's cell."""

    def __init__(self, simplex):
        self.simplex = simplex
        super().__init__(f"candidate vertex of simplex {simplex} missing from a corner's cell")


class RejectionBudgetExceeded(CvMeshError):
    """Point generation could not place N points at the required separation."""


class UnsupportedFormat(CvMeshError):
    """Unknown export/import format name."""


class IoFailure(CvMeshError):
    """File could not be written or content is unusable (e.g. empty mesh)."""


class DimensionMismatch(CvMeshError):
    """Operation applied to a mesh of the wrong dimension."""


class PipelineError(CvMeshError):
    """A pipeline stage failed; carries the stage name."""

    def __init__(self, stage, cause):
        self.stage = stage
        self.cause = cause
        super().__init__(f"stage '{stage}' failed: {cause}")


class PointLocationFailed(CvMeshError):
    """The Delaunay kernel's walk to a new point's first conflicting simplex
    took more steps than there are simplices."""

    def __init__(self, point, steps):
        self.point = point
        self.steps = steps
        super().__init__(f"point location: the walk to point {point} did not end after {steps} steps")
