"""Exact affine stratifications of momentum-map images, with DH densities."""

__version__ = "0.1.0"

from .linalg import (  # noqa: F401
    AffineSubspace,
    Mat,
    Vec,
    direction_intersect,
    frac,
    hnf_lattice_basis,
    kernel_lattice,
    mat,
    rref,
    vec,
)
from .polyhedron import (  # noqa: F401
    Face,
    FaceLattice,
    HPolytope,
    RelOpenCell,
    cell_from_closure_points,
    common_refinement,
    face_lattice,
    project_relint,
    vertices,
)
from .cover import (  # noqa: F401
    PiecewiseAffineCover,
    membership_signature,
    validate,
)
from .stratifier import (  # noqa: F401
    Stratification,
    Stratum,
    compute_d_field,
    stratify,
    verify_frontier,
    verify_tangent_condition,
)
from .toric import (  # noqa: F401
    IsotropyData,
    ToricAction,
    hamiltonian_stratification,
    isotropy_at,
    momentum_cover,
    regular_locus,
)
from .dh import (  # noqa: F401
    DensityPoly,
    FiberVolume,
    density_polynomial,
    fiber_volume,
    mc_fiber_volume,
)
