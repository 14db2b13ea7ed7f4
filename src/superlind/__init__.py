"""Secular Lindblad dynamics for slowly driven open quantum systems.

Builds completely positive master equations whose jump operators act
between super-adiabatic basis states of a time-dependent Hamiltonian, and
ships the solvers (density-matrix integration, Monte-Carlo unraveling) and
an avoided-crossing sweep harness on top.
"""

__version__ = "0.1.0"

from .errors import (
    AdiabaticityWarning,
    ConfigError,
    DegeneracyError,
    DimensionError,
    GridError,
    OrderCapError,
    ParameterError,
    PositivityError,
    StateIntegrityError,
    StiffnessError,
    SuperlindError,
    TimeDomainError,
    WindowWarning,
)
from .model import (
    BathSpectrum,
    LZParams,
    TimeDependentHamiltonian,
    dephasing_spectrum,
    lz_hamiltonian,
    ohmic_spectrum,
    sigma_x,
    sigma_y,
    sigma_z,
)
from .frames import (
    AdiabaticReport,
    FrameTrajectory,
    adaptive_time_grid,
    adiabatic_report,
    frame_couplings,
    instantaneous_frames,
    residual_oscillation,
    superadiabatic_frames,
    write_frames_csv,
)
from .generator import LindbladGenerator
from .propagation import (
    IntegratorConfig,
    TrajectoryConfig,
    bloch_vector,
    check_density_matrix,
    check_state_vector,
    evolve_lindblad,
    evolve_trajectories,
    evolve_unitary,
    write_bloch_csv,
)
from .experiments import (
    BathConfig,
    SweepConfig,
    SweepRecord,
    closed_lz_oracle,
    run_fig1,
    run_lz_sweep,
    run_sweep_curves,
    write_sweep_csv,
)
