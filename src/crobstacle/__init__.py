"""crobstacle: a nonconforming finite-element solver for the elliptic obstacle problem.

The package discretises the obstacle problem

    minimise  1/2 ||grad v||^2 - (f, v)   over  {v >= chi, v = g on the boundary}

with Crouzeix-Raviart elements, enforces the obstacle at element barycenters,
solves the discrete complementarity system with a primal-dual active-set
method, reconstructs a locally conservative dual flux, and drives adaptive
mesh refinement with a constant-free primal-dual error estimator.

Modules
-------
mesh        triangulations, structured generation, red-green-blue refinement,
            nested-dissection orders
spaces      Crouzeix-Raviart, piecewise-constant and lowest-order flux fields,
            interpolation, barycentric quadrature and the data sampler
sparse      sparse LU solvers for SPD and saddle-point systems
assembly    stiffness and coupling matrices, data projection
solver      the discrete obstacle system and its primal-dual active-set solver
duality     flux reconstruction, primal and dual energy functionals
estimator   a posteriori error estimator with data oscillation, error measures,
            convergence rates
adaptivity  Dörfler marking and the refinement loop, adaptive or uniform
benchmarks  the ring, corner and pyramid benchmark problems
"""

from .mesh import (
    Mesh,
    MeshError,
    Rectangle,
    LShape,
    build_structured,
    refine_rgb,
    mesh_stats,
    export_vtk,
)
from .spaces import (
    CrFunction,
    P0Function,
    P0VectorField,
    Rt0Function,
    SpaceError,
    VertexFunction,
    interp_av,
    interp_cr,
    interp_rt,
    project_p0,
    prolong_cr,
    prolong_p0,
    segment_rule,
    triangle_rule,
)
from .assembly import AssemblyError, ExactSolution, ProblemData, build_dofmap
from .solver import (
    SolverError,
    SolveOutcome,
    build_system,
    pdas_solve,
)
from .duality import (
    DualField,
    DualityError,
    energy_dual_discrete,
    energy_primal_continuous,
    energy_primal_discrete,
    marini_flux,
)
from .estimator import (
    EstimatorBreakdown,
    EstimatorError,
    ErrorRecord,
    ExactErrors,
    aitken,
    eoc,
    estimate,
    exact_errors,
    postprocess_conforming,
    rho_reduced,
    write_error_history,
)
from .adaptivity import (
    AdaptivityError,
    AfemConfig,
    AfemHistory,
    AfemLevel,
    afem_run,
    doerfler_mark,
    dump_level_vtk,
)
from .benchmarks import BenchmarkDefinition, corner, get_benchmark, pyramid, ring

__version__ = "0.1.0"
