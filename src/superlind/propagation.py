"""Time evolution: unitary, master-equation, and jump-unraveling engines.

All engines integrate forward in time. States are plain ndarrays: a state
vector is a complex (N,) array of unit norm, a density matrix a complex
(N, N) Hermitian unit-trace array with nonnegative spectrum.

The unitary and master-equation engines share one integrator: an embedded
Dormand-Prince 4(5) pair with a proportional step controller. It lands
exactly on requested sample times and on generator frame midpoints so the
snapped dissipator never changes inside a step. The Monte-Carlo engine
advances its ensemble in lockstep with fixed RK4 steps of the non-Hermitian
drift. The integrators are written here rather than borrowed so that every
accepted step can be projected (renormalization, re-hermitization) and so
trajectory jumps can be bisected inside a step.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionError,
    ParameterError,
    PositivityError,
    StateIntegrityError,
    StiffnessError,
    SuperlindError,
)
from ._output import write_table
from .model import TimeDependentHamiltonian

# Dormand-Prince 4(5) tableau
_DP_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_DP_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_DP_B = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_DP_E = np.array(
    [71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40]
)

_SAFETY = 0.9
_FAC_MIN = 0.2
_FAC_MAX = 5.0
_MAX_STEPS = 5_000_000


@dataclass(frozen=True)
class IntegratorConfig:
    """Tolerances and step cap of the adaptive Dormand-Prince 4(5) integrator.

    ``max_step`` is additionally capped at half the generator frame step
    whenever a frame grid is in play; the Monte-Carlo engine uses only
    ``max_step``.
    """

    rtol: float = 1e-8
    atol: float = 1e-10
    max_step: float | None = None

    def __post_init__(self):
        if self.rtol <= 0 or self.atol <= 0:
            raise ParameterError("tolerances must be > 0")
        if self.max_step is not None and self.max_step <= 0:
            raise ParameterError("max_step must be > 0")


@dataclass(frozen=True)
class TrajectoryConfig:
    """Monte-Carlo unraveling controls: ensemble size, seed, record flag."""

    n_traj: int
    seed: int = 0
    record_jumps: bool = True

    def __post_init__(self):
        if self.n_traj < 1:
            raise ParameterError("n_traj must be >= 1")


@dataclass(frozen=True)
class JumpEvent:
    """One quantum jump: channel (target, source); (-1, -1) is dephasing."""

    time: float
    target: int
    source: int


@dataclass
class IntegrationDiagnostics:
    n_steps: int = 0
    n_rejected: int = 0
    max_trace_drift: float = 0.0
    max_hermiticity_drift: float = 0.0
    min_eigenvalue: float = 0.0


@dataclass(frozen=True)
class UnitaryResult:
    state: np.ndarray
    sample_times: np.ndarray | None = None
    samples: np.ndarray | None = None


@dataclass(frozen=True)
class LindbladResult:
    state: np.ndarray
    diagnostics: IntegrationDiagnostics | None = None
    sample_times: np.ndarray | None = None
    samples: np.ndarray | None = None


@dataclass(frozen=True)
class TrajectoryResult:
    state: np.ndarray
    jumps: list | None = None
    n_traj: int = 0


def check_state_vector(psi: np.ndarray, tol: float = 1e-8) -> np.ndarray:
    psi = np.asarray(psi, dtype=complex)
    if psi.ndim != 1:
        raise DimensionError(f"state vector must be 1-d, got shape {psi.shape}")
    norm = float(np.linalg.norm(psi))
    if abs(norm - 1.0) > tol:
        raise StateIntegrityError(f"state vector norm {norm} != 1")
    return psi / norm


def check_density_matrix(rho: np.ndarray) -> np.ndarray:
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise DimensionError(f"density matrix must be square, got shape {rho.shape}")
    herm = float(np.max(np.abs(rho - rho.conj().T)))
    if herm > 1e-10:
        raise StateIntegrityError(f"density matrix hermiticity defect {herm:.3e}")
    tr = complex(np.trace(rho))
    if abs(tr - 1.0) > 1e-8:
        raise StateIntegrityError(f"density matrix trace {tr} != 1")
    rho = 0.5 * (rho + rho.conj().T) / tr.real
    min_eig = float(np.linalg.eigvalsh(rho).min())
    if min_eig < -1e-7:
        raise StateIntegrityError(f"density matrix min eigenvalue {min_eig:.3e}")
    return rho


# --------------------------------------------------------------------- core


def _error_norm(err, y_old, y_new, rtol, atol):
    scale = atol + rtol * np.maximum(np.abs(y_old), np.abs(y_new))
    return float(np.sqrt(np.mean((np.abs(err) / scale) ** 2)))


def _rk45_step(f, t, y, dt):
    k = [f(t, y)]
    for i in range(1, 7):
        yi = y
        for j, a in enumerate(_DP_A[i]):
            if a != 0.0:
                yi = yi + (dt * a) * k[j]
        k.append(f(t + _DP_C[i] * dt, yi))
    y_new = y
    for j, b in enumerate(_DP_B):
        if b != 0.0:
            y_new = y_new + (dt * b) * k[j]
    err = np.zeros_like(y)
    for j, e in enumerate(_DP_E):
        if e != 0.0:
            err = err + (dt * e) * k[j]
    return y_new, err


def _initial_step(f, t0, y0, f0, rtol, atol, max_step):
    scale = atol + rtol * np.abs(y0)
    d0 = float(np.sqrt(np.mean((np.abs(y0) / scale) ** 2)))
    d1 = float(np.sqrt(np.mean((np.abs(f0) / scale) ** 2)))
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    y1 = y0 + h0 * f0
    f1 = f(t0 + h0, y1)
    d2 = float(np.sqrt(np.mean((np.abs(f1 - f0) / scale) ** 2))) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    return min(100 * h0, h1, max_step)


def _merge_stops(t0, t1, sample_times, breakpoints):
    """Sorted stop times in (t0, t1] with a flag marking sampling stops."""
    ts = [np.array([t1])]
    flags = [np.array([False])]
    if sample_times is not None:
        s = np.asarray(sample_times, dtype=float)
        if s.size and np.any(np.diff(s) < 0):
            raise ParameterError("sample_times must be ascending")
        tol = 1e-12 * (t1 - t0)
        if s.size and (s[0] < t0 - tol or s[-1] > t1 + tol):
            raise ParameterError(
                f"sample_times must lie within [{t0}, {t1}]"
            )
        ts.append(s)
        flags.append(np.ones(s.size, dtype=bool))
    if breakpoints is not None:
        b = np.asarray(breakpoints, dtype=float)
        ts.append(b)
        flags.append(np.zeros(b.size, dtype=bool))
    t = np.concatenate(ts)
    f = np.concatenate(flags)
    span = t1 - t0
    keep = (t > t0 + 1e-12 * span) & (t <= t1 + 1e-12 * span)
    t, f = t[keep], f[keep]
    order = np.argsort(t, kind="stable")
    t, f = t[order], f[order]
    out_t, out_f = [], []
    for ti, fi in zip(t, f):
        if out_t and abs(ti - out_t[-1]) <= 1e-12 * span:
            out_f[-1] = out_f[-1] or fi
        else:
            out_t.append(float(ti))
            out_f.append(bool(fi))
    out_t[-1] = t1  # last stop is exactly the end point
    return out_t, out_f


def _integrate(
    f,
    y0,
    t0,
    t1,
    cfg,
    *,
    max_step_cap=None,
    post_step=None,
    sample_times=None,
    breakpoints=None,
):
    """Drive y' = f(t, y) from t0 to t1.

    Returns (y, samples list, number of rejected step attempts).
    """
    if not t1 > t0:
        raise ParameterError("need t1 > t0")
    span = t1 - t0
    max_step = span
    if cfg.max_step is not None:
        max_step = min(max_step, cfg.max_step)
    if max_step_cap is not None:
        max_step = min(max_step, max_step_cap)

    stops, record = _merge_stops(t0, t1, sample_times, breakpoints)
    samples = []
    if sample_times is not None:
        s = np.asarray(sample_times, dtype=float)
        n_initial = int(np.sum(s <= t0 + 1e-12 * span))
        samples.extend([np.array(y0, copy=True)] * n_initial)

    y = np.array(y0, dtype=complex, copy=True)
    t = t0
    dt = _initial_step(f, t0, y, f(t0, y), cfg.rtol, cfg.atol, max_step)

    min_step = 1e-14 * span
    n_steps = 0
    n_rejected = 0
    for stop, do_record in zip(stops, record):
        while t < stop - 1e-12 * span:
            n_steps += 1
            if n_steps > _MAX_STEPS:
                raise StiffnessError(f"step budget exhausted at t = {t}")
            step = min(dt, stop - t)
            y_new, err = _rk45_step(f, t, y, step)
            err_norm = _error_norm(err, y, y_new, cfg.rtol, cfg.atol)
            if err_norm > 1.0:
                n_rejected += 1
                dt = step * max(_FAC_MIN, _SAFETY * err_norm ** -0.2)
                if dt < min_step:
                    raise StiffnessError(f"step size underflow at t = {t}")
                continue
            factor = _FAC_MAX if err_norm == 0.0 else min(
                _FAC_MAX, max(_FAC_MIN, _SAFETY * err_norm ** -0.2)
            )
            dt = min(max_step, step * factor)
            t = t + step
            y = post_step(t, y_new) if post_step is not None else y_new
        t = stop
        if do_record:
            samples.append(np.array(y, copy=True))
    return y, samples, n_rejected


# ----------------------------------------------------------------- engines


def evolve_unitary(
    H: TimeDependentHamiltonian,
    psi0: np.ndarray,
    t0: float,
    t1: float,
    cfg: IntegratorConfig | None = None,
    sample_times=None,
) -> UnitaryResult:
    """Integrate i psi' = H(t) psi with per-step renormalization."""
    cfg = cfg or IntegratorConfig()
    psi0 = check_state_vector(psi0)

    def f(t, y):
        return -1j * (H(t) @ y)

    def renorm(t, y):
        return y / np.linalg.norm(y)

    psi, samples, _ = _integrate(
        f, psi0, t0, t1, cfg, post_step=renorm, sample_times=sample_times
    )
    return UnitaryResult(
        state=psi,
        sample_times=None if sample_times is None else np.asarray(sample_times, float),
        samples=np.stack(samples) if samples else None,
    )


def evolve_lindblad(
    gen,
    rho0: np.ndarray,
    t0: float,
    t1: float,
    cfg: IntegratorConfig | None = None,
    sample_times=None,
) -> LindbladResult:
    """Integrate the master equation from rho0.

    After each accepted step the state is re-hermitized and trace-normalized;
    positivity is monitored (never forced) and a violation below -1e-5
    aborts with an error, since the generator should preserve it.
    """
    cfg = cfg or IntegratorConfig()
    rho0 = check_density_matrix(rho0)
    diag = IntegrationDiagnostics(min_eigenvalue=float(np.linalg.eigvalsh(rho0).min()))

    def f(t, y):
        return gen.rhs(y, t)

    def project(t, y):
        diag.n_steps += 1
        tr = complex(np.trace(y))
        diag.max_trace_drift = max(diag.max_trace_drift, abs(tr - 1.0))
        herm = float(np.max(np.abs(y - y.conj().T)))
        diag.max_hermiticity_drift = max(diag.max_hermiticity_drift, herm)
        y = 0.5 * (y + y.conj().T)
        y = y / np.trace(y).real
        min_eig = float(np.linalg.eigvalsh(y).min())
        diag.min_eigenvalue = min(diag.min_eigenvalue, min_eig)
        if min_eig < -1e-5:
            raise PositivityError(
                f"min eigenvalue {min_eig:.3e} at t = {t}: tolerance too loose "
                "or generator not of Lindblad form"
            )
        return y

    times = gen.frames.times
    midpoints = 0.5 * (times[:-1] + times[1:])
    rho, samples, diag.n_rejected = _integrate(
        f,
        rho0,
        t0,
        t1,
        cfg,
        max_step_cap=gen.frames.step / 2.0,
        post_step=project,
        sample_times=sample_times,
        breakpoints=midpoints,
    )
    return LindbladResult(
        state=rho,
        diagnostics=diag,
        sample_times=None if sample_times is None else np.asarray(sample_times, float),
        samples=np.stack(samples) if samples else None,
    )


# ----------------------------------------------- Monte-Carlo unraveling


def _traj_rng(seed: int, index: int):
    key = np.array([seed & 0xFFFFFFFFFFFFFFFF, index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _heff_step(gen, psi, t, dt):
    """One RK4 step of the non-Hermitian drift.

    ``psi`` is one state (N,) or a stack of states (M, N), one per row.
    """
    ha = gen.effective_hamiltonian(t)
    hm = gen.effective_hamiltonian(t + 0.5 * dt)
    hb = gen.effective_hamiltonian(t + dt)
    k1 = -1j * (psi @ ha.T)
    k2 = -1j * ((psi + (0.5 * dt) * k1) @ hm.T)
    k3 = -1j * ((psi + (0.5 * dt) * k2) @ hm.T)
    k4 = -1j * ((psi + dt * k3) @ hb.T)
    return psi + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _resolve_jump(gen, rng, psi_a, t_a, dt, threshold, events, depth=0):
    """Handle a norm-threshold crossing inside [t_a, t_a + dt].

    Bisects the jump time to 1e-3 of the step, applies a channel drawn with
    probability proportional to ||L psi||^2, then finishes the step
    (recursing if the survivor crosses its fresh threshold again).
    """
    if depth > 64:
        raise StiffnessError("jump cascade did not terminate within one step")
    lo, hi = 0.0, 1.0
    psi_hi = _heff_step(gen, psi_a, t_a, dt)
    for _ in range(10):  # 2^-10 < 1e-3 of the step
        mid = 0.5 * (lo + hi)
        psi_mid = _heff_step(gen, psi_a, t_a, mid * dt)
        if float(np.vdot(psi_mid, psi_mid).real) < threshold:
            hi, psi_hi = mid, psi_mid
        else:
            lo = mid
    t_jump = t_a + hi * dt
    channels = gen.jump_channels(t_jump)
    if not channels:
        raise SuperlindError("norm decayed but no jump channel is active")
    weights = np.array(
        [float(np.vdot(L @ psi_hi, L @ psi_hi).real) for _, L in channels]
    )
    total = float(weights.sum())
    if total <= 0.0:
        raise SuperlindError("norm decayed but all jump weights vanish")
    u = rng.uniform() * total
    pick = int(np.searchsorted(np.cumsum(weights), u))
    pick = min(pick, len(channels) - 1)
    label, op = channels[pick]
    psi = op @ psi_hi
    psi = psi / np.linalg.norm(psi)
    if events is not None:
        events.append(JumpEvent(time=float(t_jump), target=label[0], source=label[1]))
    threshold = rng.uniform()
    if hi < 1.0:
        rest = (1.0 - hi) * dt
        psi_end = _heff_step(gen, psi, t_jump, rest)
        if float(np.vdot(psi_end, psi_end).real) < threshold:
            return _resolve_jump(gen, rng, psi, t_jump, rest, threshold, events, depth + 1)
        return psi_end, threshold
    return psi, threshold


def evolve_trajectories(
    gen,
    psi0: np.ndarray,
    t0: float,
    t1: float,
    tcfg: TrajectoryConfig,
    cfg: IntegratorConfig | None = None,
) -> TrajectoryResult:
    """Jump unraveling of the master equation, averaged over an ensemble.

    Pure states drift under H_eff = H + H_shift - (i/2) sum L^dag L without
    renormalization; a trajectory jumps when its squared norm falls below a
    uniform threshold, with channel probabilities ~ ||L psi||^2. All
    trajectories advance in lockstep on a fixed RK4 grid (half the frame
    step, aligned with frame boundaries), which keeps the ensemble exactly
    reproducible for a given seed: every trajectory consumes only its own
    counter-based random stream keyed by (seed, trajectory index).
    """
    psi0 = check_state_vector(psi0)
    if not t1 > t0:
        raise ParameterError("need t1 > t0")
    span = t1 - t0
    h = gen.frames.step
    step_target = h / 2.0
    if cfg is not None and cfg.max_step is not None:
        step_target = min(step_target, cfg.max_step)
    n = max(int(math.ceil(span / step_target)), 1)
    dt = span / n

    m = tcfg.n_traj
    rngs = [_traj_rng(tcfg.seed, i) for i in range(m)]
    thresholds = np.array([rng.uniform() for rng in rngs])
    psis = np.tile(psi0, (m, 1))
    events = [[] for _ in range(m)] if tcfg.record_jumps else None

    for i in range(n):
        t_a = t0 + i * dt
        new = _heff_step(gen, psis, t_a, dt)
        norms2 = np.einsum("mi,mi->m", new.conj(), new).real
        crossed = np.flatnonzero(norms2 < thresholds)
        for idx in crossed:
            new[idx], thresholds[idx] = _resolve_jump(
                gen,
                rngs[idx],
                psis[idx],
                t_a,
                dt,
                thresholds[idx],
                events[idx] if events is not None else None,
            )
        psis = new

    norms = np.linalg.norm(psis, axis=1)
    if np.any(norms <= 0):
        raise StateIntegrityError("a trajectory collapsed to the zero vector")
    psis = psis / norms[:, None]
    rho = np.einsum("mi,mj->ij", psis, psis.conj()) / m
    rho = 0.5 * (rho + rho.conj().T)
    return TrajectoryResult(state=rho, jumps=events, n_traj=m)


# ------------------------------------------------------------------- misc


def bloch_vector(rho: np.ndarray):
    """(x, y, z) with x = 2 Re rho01, y = 2 Im rho10, z = rho00 - rho11."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (2, 2):
        raise DimensionError(f"Bloch vector needs a 2x2 density matrix, got {rho.shape}")
    x = 2.0 * rho[0, 1].real
    y = 2.0 * rho[1, 0].imag
    z = (rho[0, 0] - rho[1, 1]).real
    return float(x), float(y), float(z)


def write_bloch_csv(path, times, rhos, header_lines=()) -> None:
    """Time series of 2x2 states as t, x, y, z rows."""
    comments = ["superlind bloch time series", *header_lines,
                "convention: x = 2 Re rho01, y = 2 Im rho10, z = rho00 - rho11"]
    rows = ((t, *bloch_vector(rho)) for t, rho in zip(times, rhos))
    write_table(path, comments, ["t", "x", "y", "z"], rows)


def write_density_csv(path, times, rhos, header_lines=()) -> None:
    """Time series of N x N states, entries flattened row-major (re, im)."""
    rhos = np.asarray(rhos)
    n = rhos.shape[-1]
    columns = ["t"]
    for i in range(n):
        for j in range(n):
            columns += [f"re_{i}{j}", f"im_{i}{j}"]
    comments = ["superlind density-matrix time series", *header_lines]
    rows = (
        [t] + [part for z in rho.ravel() for part in (z.real, z.imag)]
        for t, rho in zip(times, rhos)
    )
    write_table(path, comments, columns, rows)
