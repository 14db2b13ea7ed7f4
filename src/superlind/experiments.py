"""Avoided-crossing sweep harness and figure-style data exports.

The harness drives the two-level linear-sweep model through its crossing
over a window t in [-T_f, +T_f] with T_f = window_factor * delta / v,
starting from the super-adiabatic ground state at -T_f, and reads out the
population of the instantaneous excited eigenstate of H(+T_f). The closed
system approaches exp(-pi delta^2 / (2 v)) for windows that dwarf the
crossing region.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, fields, replace

import numpy as np

from ._output import fmt, write_table
from .errors import (AdiabaticityWarning, ParameterError, WindowWarning, caller_stacklevel,
                     check_distinct, check_real, check_sequence, shown)
from .frames import (
    FrameTrajectory,
    adaptive_time_grid,
    adiabatic_report,
    check_order,
    instantaneous_frames,
    superadiabatic_frames,
)
from .generator import LindbladGenerator
from .model import (
    BathSpectrum,
    LZParams,
    dephasing_spectrum,
    lz_hamiltonian,
    ohmic_spectrum,
    sigma_z,
)
from .propagation import (
    IntegratorConfig,
    TrajectoryConfig,
    bloch_vector,
    evolve_lindblad,
    evolve_trajectories,
    evolve_unitary,
    write_bloch_csv,
)

MODES = ("superadiabatic", "instantaneous", "closed")
SOLVERS = ("me", "trajectories")
ADIABATICITY_WARN_THRESHOLD = 0.25
WINDOW_WARN_POPULATION = 1e-6


@dataclass(frozen=True)
class BathConfig:
    """Bath family and parameters for a sweep curve."""

    kind: str = "none"            # none | dephasing | ohmic
    gamma0: float = 0.0
    cutoff: float = 5.0
    temperature: float = 0.0
    symmetric_cutoff: bool = False

    def __post_init__(self):
        if self.kind not in ("none", "dephasing", "ohmic"):
            raise ParameterError(f"unknown bath kind {self.kind!r}")
        ohmic_spectrum(self.gamma0, self.cutoff, self.temperature,  # checks all four
                       symmetric_cutoff=self.symmetric_cutoff)
        if self.kind == "none" and self.gamma0 != 0:  # a row would carry a strength never applied
            raise ParameterError(f"bath kind 'none' needs gamma0 = 0, got {shown(self.gamma0)}")

    def spectrum(self) -> BathSpectrum:
        if self.kind == "ohmic":
            return ohmic_spectrum(
                self.gamma0,
                self.cutoff,
                self.temperature,
                symmetric_cutoff=self.symmetric_cutoff,
            )
        # kind "none" has gamma0 = 0: a zero-strength dephasing spectrum is no bath
        return dephasing_spectrum(self.gamma0)


@dataclass(frozen=True)
class SweepConfig:
    """One sweep curve: transition probability versus inverse velocity."""

    inv_velocities: tuple
    delta: float = 1.0
    bath: BathConfig = field(default_factory=BathConfig)
    mode: str = "superadiabatic"
    order: int = 4
    window_factor: float = 25.0
    solver: str = "me"
    n_traj: int = 1000
    seed: int = TrajectoryConfig.seed
    rtol: float = IntegratorConfig.rtol
    atol: float = IntegratorConfig.atol

    def __post_init__(self):
        inv_vs = check_sequence("inv_velocities", self.inv_velocities)
        object.__setattr__(self, "inv_velocities", tuple(
            check_real(f"inv_velocities[{i}]", x, 0) for i, x in enumerate(inv_vs)))
        check_distinct("inv_velocities", self.inv_velocities)
        check_real("delta", self.delta, 0)
        if self.mode not in MODES:
            raise ParameterError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.solver not in SOLVERS:
            raise ParameterError(f"solver must be one of {SOLVERS}, got {self.solver!r}")
        check_order(self.order)
        check_real("window_factor", self.window_factor, 10, inclusive=True)  # dwarfs the crossing
        # the solver configs check the tolerances, the ensemble size and the seed
        IntegratorConfig(rtol=self.rtol, atol=self.atol)
        TrajectoryConfig(n_traj=self.n_traj, seed=self.seed)


@dataclass(frozen=True)
class SweepRecord:
    """Result of one sweep point, with integration diagnostics: its fields, in order,
    are the columns of the sweep CSV."""

    gamma0: float
    inv_v: float
    p_ge: float
    min_eigenvalue: float
    adiabaticity: float

    def __post_init__(self):
        if not -1e-7 <= self.p_ge <= 1.0 + 1e-7:
            raise ParameterError(f"transition probability {self.p_ge} outside [0, 1]")


def closed_lz_oracle(delta: float, v: float) -> float:
    """Closed-form asymptotic transition probability exp(-pi delta^2 / (2 v))."""
    delta, v = check_real("delta", delta, 0), check_real("v", v, 0)
    return math.exp(-math.pi * delta**2 / (2.0 * v))


def _lz_point(delta: float, v: float, window_factor: float):
    """LZ at (delta, v), the window edge T = window_factor * delta / v, and the order-0
    frames on the adaptive grid of [-T, T], whose ends are exactly -T and T."""
    H = lz_hamiltonian(LZParams(v=v, delta=delta))
    t_final = window_factor * delta / v
    return H, t_final, instantaneous_frames(H, adaptive_time_grid(H, -t_final, t_final))


def _head(base: FrameTrajectory, order: int) -> FrameTrajectory:
    """``base`` on its first 2 order + 3 points. The level loop is pointwise but for the 3-point
    difference and the gauge chain from k = 0, so its first order-j frame is the whole grid's.
    Only a whole build's checks see the iteration break down, past the recommended order."""
    n = 2 * order + 3
    return FrameTrajectory(base.times[:n], base.basis[:n], base.energies[:n], 0, base.hamiltonian)


def _warn(message: str, category: type) -> None:
    """Warn with the stack level of the first frame outside this package."""
    warnings.warn(message, category, stacklevel=caller_stacklevel())


def _sweep_point(cfg: SweepConfig, inv_v: float, baths) -> list:
    """Records at one inverse velocity: one per bath, or one in closed mode,
    which ignores the bath.

    The model, grid, frames, warnings, initial and readout states are built
    once and shared by every bath.
    """
    H, t_final, base = _lz_point(cfg.delta, 1.0 / inv_v, cfg.window_factor)
    report = adiabatic_report(base)
    if report.global_max > ADIABATICITY_WARN_THRESHOLD:
        _warn(f"adiabatic parameter {report.global_max:.3f} > "
              f"{ADIABATICITY_WARN_THRESHOLD} at 1/v = {inv_v}", AdiabaticityWarning)

    if cfg.order > report.recommended_order:
        _warn(f"order {cfg.order} is above the recommended order "
              f"{report.recommended_order} at 1/v = {inv_v}: the super-adiabatic "
              "expansion is asymptotic, and its terms grow past that order", AdiabaticityWarning)

    whole = cfg.mode == "superadiabatic" or cfg.order > report.recommended_order  # else psi0 only
    head = base if whole else _head(base, cfg.order)
    traj = superadiabatic_frames(H, cfg.order, head.times, base=head)  # after the warnings
    psi0 = traj.basis[0, :, 0]
    leak0 = abs(np.vdot(base.basis[0, :, -1], psi0)) ** 2
    if leak0 > WINDOW_WARN_POPULATION:
        _warn(f"initial excited population {leak0:.2e} at 1/v = {inv_v}: window too short",
              WindowWarning)

    icfg = IntegratorConfig(rtol=cfg.rtol, atol=cfg.atol)
    excited = base.basis[-1, :, -1]

    def record(gamma0, p, d):
        return SweepRecord(gamma0=gamma0, inv_v=inv_v, p_ge=float(p),
                           min_eigenvalue=d.min_eigenvalue, adiabaticity=report.global_max)

    if cfg.mode == "closed":
        res = evolve_unitary(H, psi0, -t_final, t_final, cfg=icfg)
        return [record(0.0, abs(np.vdot(excited, res.state)) ** 2, res.diagnostics)]

    frames = base if cfg.mode == "instantaneous" else traj
    rho0 = np.outer(psi0, psi0.conj())
    tcfg = TrajectoryConfig(n_traj=cfg.n_traj, seed=cfg.seed)
    records = []
    for bath in baths:
        gen = LindbladGenerator(frames, sigma_z, bath.spectrum())
        if cfg.solver == "me":
            res = evolve_lindblad(gen, rho0, -t_final, t_final, cfg=icfg)
        else:
            res = evolve_trajectories(gen, psi0, -t_final, t_final, tcfg)
        p = float(np.real(excited.conj() @ res.state @ excited))
        records.append(record(bath.gamma0, p, res.diagnostics))
    return records


def run_lz_sweep(cfg: SweepConfig, output=None) -> list:
    """Run one sweep curve, records sorted by inverse velocity; optionally
    write them to a CSV file."""
    records = run_sweep_curves(cfg, (cfg.bath.gamma0,))
    if output is not None:
        write_sweep_csv(output, records, cfg)
    return records


def curve_baths(bath: BathConfig, gamma_values) -> list:
    """``bath`` at each strength of ``gamma_values``, a non-empty sequence of distinct ones."""
    baths = [replace(bath, gamma0=g) for g in check_sequence("gamma_values", gamma_values)]
    check_distinct("gamma0", [b.gamma0 for b in baths])
    return baths


def run_sweep_curves(base: SweepConfig, gamma_values) -> list:
    """Sweep curves differing in bath strength; records from all curves,
    sorted by (inv_v, gamma0).

    Each inverse velocity builds its grid and frames once for all curves; a
    closed sweep ignores the bath, so it runs once whatever the strengths.
    """
    baths = curve_baths(base.bath, gamma_values)  # checked before any grid
    records = [r for x in sorted(base.inv_velocities) for r in _sweep_point(base, x, baths)]
    records.sort(key=lambda r: (r.inv_v, r.gamma0))
    return records


def write_sweep_csv(path, records, cfg: SweepConfig) -> None:
    """Records to disk: `# key = value` metadata block of ``cfg``, then CSV rows.

    Rows are sorted by (inv_v, gamma0). Runtimes are intentionally left
    out of the file so identical runs produce identical bytes.
    """
    gammas = sorted({r.gamma0 for r in records})
    meta = [
        f"delta = {fmt(cfg.delta)}",
        f"mode = {cfg.mode}",
        f"order = {cfg.order}",
        f"window_factor = {fmt(cfg.window_factor)}",
        f"bath_kind = {cfg.bath.kind}",
        f"temperature = {fmt(cfg.bath.temperature)}",
        f"cutoff = {fmt(cfg.bath.cutoff)}",
        f"symmetric_cutoff = {fmt(cfg.bath.symmetric_cutoff)}",
        f"solver = {cfg.solver}",
        f"n_traj = {cfg.n_traj}",
        f"rtol = {fmt(cfg.rtol)}",
        f"atol = {fmt(cfg.atol)}",
        f"seed = {cfg.seed}",
        "gamma0_curves = " + ", ".join(fmt(g) for g in gammas),
    ]
    columns = [f.name for f in fields(SweepRecord)]
    rows = ([getattr(r, c) for c in columns]
            for r in sorted(records, key=lambda r: (r.inv_v, r.gamma0)))
    write_table(path, ["superlind sweep", *meta], columns, rows)


@dataclass(frozen=True)
class Fig1Result:
    times: np.ndarray
    bloch_instantaneous: np.ndarray
    bloch_superadiabatic: np.ndarray
    bloch_evolution: np.ndarray
    paths: tuple


def check_fig1(delta, v, order, window_factor) -> None:
    """Raise ParameterError unless ``run_fig1``'s model, order and window lie in their domains."""
    LZParams(v=v, delta=delta)
    check_order(order)
    check_real("window_factor", window_factor, 0)


def run_fig1(
    delta: float,
    v: float,
    order: int = 3,
    window_factor: float = 25.0,
    out_prefix=None,
) -> Fig1Result:
    """Three Bloch paths across the crossing: instantaneous ground state,
    order-j ground state, and the actual unitary evolution of the initial
    ground state. Written as one CSV per path when a prefix is given."""
    check_fig1(delta, v, order, window_factor)
    H, t_final, base = _lz_point(delta, v, window_factor)
    traj = superadiabatic_frames(H, order, base.times, base=base)
    res = evolve_unitary(H, traj.basis[0, :, 0], -t_final, t_final, sample_times=base.times)

    paths_rho = [
        np.einsum("ki,kj->kij", states, states.conj())
        for states in (base.basis[:, :, 0], traj.basis[:, :, 0], res.samples)
    ]
    inst, supa, evol = (np.stack(bloch_vector(rhos), axis=-1) for rhos in paths_rho)

    paths = ()
    if out_prefix is not None:
        prefix = str(out_prefix)
        names = (
            f"{prefix}_instantaneous.csv",
            f"{prefix}_superadiabatic.csv",
            f"{prefix}_evolution.csv",
        )
        header = [f"delta = {fmt(delta)}", f"v = {fmt(v)}", f"order = {order}"]
        for name, rhos in zip(names, paths_rho):
            write_bloch_csv(name, base.times, rhos, header_lines=header)
        paths = names
    return Fig1Result(
        times=base.times,
        bloch_instantaneous=inst,
        bloch_superadiabatic=supa,
        bloch_evolution=evol,
        paths=paths,
    )
