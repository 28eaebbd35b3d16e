"""cvmesh: unstructured cell-centered control-volume meshes in 2D and 3D.

Cells grow around scattered points from circles/spheres of optimized radii:
Delaunay neighborhoods supply the local simplices, each simplex contributes a
closed-form candidate vertex (the radical center of its circles), radius
bounds keep the construction valid, and an evolution strategy polished by
Levenberg-Marquardt in the squared radii drives the circles toward common
intersection points when exact-intersection meshes are requested.
"""
from .delaunay import (
    NeighborMap,
    Triangulation2,
    Triangulation3,
    neighbor_map,
    tetrahedralize3,
    triangulate2,
)
from .errors import CvMeshError
from .io import RunConfig, export_mesh, generate_points, mesh_from_doc, read_json
from .mesh import (
    ControlVolumeMesh,
    build_volumes2,
    build_volumes3,
    validate_global,
    validate_perpendicularity,
)
from .optimize import (
    OptimizeResult,
    OptimizerParams,
    levenberg_marquardt,
    rosenbrock_minimize,
    soft_selection_minimize,
)
from .pipeline import run_pipeline
from .solver import (
    OverlapMode,
    VolumeMode,
    classify_overlap,
    max_radii,
    solve_radii,
)
from .svg import SvgOptions, render_svg

__version__ = "0.1.0"
