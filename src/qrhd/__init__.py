"""Quantum (Riemannian) Hamiltonian descent simulator.

Continuous optimization as quantum dynamics: the loss is the potential of a
wave function evolving under a curved-space Schrodinger equation with a
dissipative schedule.  The package discretizes the Laplace-Beltrami
operator on stereographic/constant/flat charts, integrates the dynamics
with Crank-Nicolson steps, and analyzes convergence times against
damped-oscillator lower bounds, with the query-cost arithmetic of the
interaction-picture simulation on top.
"""

from .errors import (
    BlowUpError,
    DomainError,
    NumericError,
    ParameterError,
    PoleSingularityError,
    QrhdError,
    ScheduleError,
    SingularMetricError,
    SolverError,
)
from .geometry import (
    ConstantChart,
    CustomChart,
    FlatChart,
    MetricChart,
    SphereStereographicChart,
    manifold_hessian,
    quantum_corrections,
)
from .discretize import (
    Grid,
    PotentialField,
    Schedule,
    assemble_laplace_beltrami,
    quadratic_potential,
    sphere_quadratic_potential,
)
from .evolve import (
    CrankNicolsonStepper,
    EvolutionTrace,
    evolve,
    init_state,
)
from .semiclassical import (
    RandomInstance,
    StudyReport,
    StudyRun,
    Trajectory,
    convergence_bound,
    detect_t_star,
    effective_potential_gradient,
    integrate_eom,
    lambert_w_minus1,
    run_instance_study,
)
from .complexity import (
    dyson_factor,
    kinetic_norm_bound,
    measured_sparsity,
    query_count,
    schedule_integral,
)

__version__ = "0.1.0"
