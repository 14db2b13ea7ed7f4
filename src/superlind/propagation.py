"""Time evolution: unitary, master-equation, and jump-unraveling engines.

All engines integrate forward in time. States are plain ndarrays: a state
vector is a complex (N,) array of unit norm, a density matrix a complex
(N, N) Hermitian unit-trace array with nonnegative spectrum.

All three engines share one kernel for y' = A(t) y: the matrix exponential
of a fourth-order Magnus exponent built from A at two Gauss nodes of a step,
with A = -iH, the real Liouvillian of the coherence vector of rho, or
-iH_eff for the jump unraveling. The
unitary and master-equation engines step between the edges t0, t1 and the
sample times, plus the frame midpoints for the master equation, so the
snapped dissipator is constant between two edges. Each interval between
edges is split into n equal sub-steps; n doubles until two passes agree
within the tolerances. The sub-step propagators of an interval are composed
by batched pairwise products before they touch the state, so Python runs
once per edge, not once per sub-step. The core only propagates; each engine
renormalizes the edge states once, after the solve, since the Magnus
exponent of -iH or of a Liouvillian preserves norm and trace up to rounding.
Sub-steps are exponentiated with the [9/9] Pade approximant, scaled and
squared where a matrix is above its range, each independently of its stack.
The exponential's products, the Magnus commutator and the pairwise fold use
``_matmul``: broadcast products for complex stacks, 2-5 times faster than
numpy's ``@`` at N = 2, and ``@`` for real ones, where it is the faster. The
matvec ``q @ y`` and the Monte-Carlo table's one GEMM per step keep ``@``.
The Monte-Carlo engine takes one such step per half frame cell, in lockstep
for the whole ensemble, a block of steps at a time; it finds each jump time
from the norms at the two ends of its step and handles the jumps of all
steps of a block as one batch.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionError,
    ParameterError,
    PositivityError,
    StateIntegrityError,
    StiffnessError,
    SuperlindError,
    TimeDomainError,
)
from ._output import write_table
from .model import TimeDependentHamiltonian, coherence_vector, density_matrix, hermiticity_defect

_GAUSS = 0.5 + np.array([-1.0, 1.0]) * (math.sqrt(3.0) / 6.0)  # Gauss-Legendre nodes on [0, 1]
_CHUNK_ENTRIES = 2**12  # matrix entries in the stack of propagators held at once
_BLOCK_ENTRIES = 2**16  # ensemble state entries at a Monte-Carlo block's edges, and of its table
# Doubling the sub-steps must cut the largest h * ||A|| below this fraction
# of its value: it halves for a bounded generator, stays put at a simple pole.
_SHRINK = 0.9

# Pade [9/9] coefficients of the scaling-and-squaring exponential, scaled to
# a unit constant term so that exp(0) comes out as the identity exactly
_PADE9 = np.array([
    17643225600.0, 8821612800.0, 2075673600.0, 302702400.0, 30270240.0,
    2162160.0, 110880.0, 3960.0, 90.0, 1.0,
]) / 17643225600.0
_THETA9 = 2.097847961257068   # largest 1-norm the [9/9] approximant takes unscaled
STATE_NORM_TOL = 1e-8  # largest |norm - 1| an initial state vector may have


@dataclass(frozen=True)
class IntegratorConfig:
    """Tolerances of the exponential propagator.

    A solve is accepted once doubling its sub-steps moves the state at no
    edge by more than atol + rtol * |state| (vector 2-norms).
    """

    rtol: float = 1e-8
    atol: float = 1e-10

    def __post_init__(self):
        if not (self.rtol > 0 and self.atol > 0):  # NaN fails too
            raise ParameterError("tolerances must be > 0")


@dataclass(frozen=True)
class TrajectoryConfig:
    """Monte-Carlo unraveling controls: ensemble size, seed, record flag."""

    n_traj: int
    seed: int = 0
    record_jumps: bool = True

    def __post_init__(self):
        for name, value in (("n_traj", self.n_traj), ("seed", self.seed)):
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ParameterError(f"{name} must be an integer, got {value!r}")
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
    """What a master-equation solve did.

    ``n_steps`` counts the sub-steps of the accepted pass and ``n_rejected``
    those of the resolved coarser passes discarded before it. The drifts are
    the largest over the edges of the trace and hermiticity drift accumulated
    from rho0, before the one renormalization of the returned states: rounding
    alone, since the core marches real coherence vectors under a generator with
    a zero trace row. The minimum eigenvalue, over the returned states, is the
    meaningful integrity number.
    """

    n_steps: int = 0
    n_rejected: int = 0
    max_trace_drift: float = 0.0
    max_hermiticity_drift: float = 0.0
    min_eigenvalue: float = 0.0


@dataclass(frozen=True)
class UnitaryResult:
    state: np.ndarray
    samples: np.ndarray | None = None
    max_norm_drift: float = 0.0  # largest | ||psi||^2 - 1 | over the edges, before renormalizing


@dataclass(frozen=True)
class LindbladResult:
    state: np.ndarray
    diagnostics: IntegrationDiagnostics | None = None
    samples: np.ndarray | None = None


@dataclass(frozen=True)
class TrajectoryResult:
    state: np.ndarray
    jumps: list | None = None


def check_state_vector(psi: np.ndarray) -> np.ndarray:
    psi = np.asarray(psi, dtype=complex)
    if psi.ndim != 1:
        raise DimensionError(f"state vector must be 1-d, got shape {psi.shape}")
    norm = float(np.linalg.norm(psi))
    if abs(norm - 1.0) > STATE_NORM_TOL:
        raise StateIntegrityError(f"state vector norm {norm} != 1")
    return psi / norm


def check_density_matrix(rho: np.ndarray) -> np.ndarray:
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise DimensionError(f"density matrix must be square, got shape {rho.shape}")
    herm = hermiticity_defect(rho)
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


def _of_dim(state: np.ndarray, dim: int) -> np.ndarray:
    if state.shape[0] != dim:
        raise DimensionError(f"initial state has dimension {state.shape[0]}, the model {dim}")
    return state


# --------------------------------------------------------------------- core


def _matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b for stacks of small matrices; for complex ones the sum over the
    inner index of broadcast products, as numpy's stacked ``@`` is slow there."""
    if not (np.iscomplexobj(a) or np.iscomplexobj(b)):
        return a @ b
    out = a[..., :, 0, None] * b[..., None, 0, :]
    for j in range(1, a.shape[-1]):
        out += a[..., :, j, None] * b[..., None, j, :]
    return out


def _expm(a: np.ndarray) -> np.ndarray:
    """Matrix exponential of each matrix in an (M, d, d) stack.

    The [9/9] Pade approximant after Higham, SIAM J. Matrix Anal. Appl. 26,
    1179 (2005), accurate to rounding up to the 1-norm theta_9, which bounds
    every resolved sub-step of the exponential core (h ||A||_1 <= 1). Only a
    matrix above it is halved until it is not, and its approximant squared as
    often: each matrix's exponential is the same in any stack.
    """
    norm = np.abs(a).sum(axis=-2).max(axis=-1)
    scaled = norm.max() > _THETA9
    if scaled:
        squarings = np.ceil(np.log2(np.maximum(norm, _THETA9) / _THETA9)).astype(int)
        a = a / (2.0 ** squarings)[:, None, None]
    b, eye = _PADE9, np.eye(a.shape[-1])
    a2 = _matmul(a, a)
    a4 = _matmul(a2, a2)
    a6 = _matmul(a4, a2)
    a8 = _matmul(a4, a4)
    u = _matmul(a, b[9] * a8 + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * eye)
    v = b[8] * a8 + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * eye
    r = np.linalg.solve(v - u, v + u)
    for level in range(squarings.max() if scaled else 0):
        sel = squarings > level
        r[sel] = _matmul(r[sel], r[sel])
    return r


def _magnus4(a1: np.ndarray, a2: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Fourth-order Magnus exponent of sub-steps of widths h, from A at their two
    Gauss nodes (Blanes, Casas, Oteo, Ros, Phys. Rep. 470, 151 (2009))."""
    h = h[:, None, None]
    commutator = _matmul(a2, a1) - _matmul(a1, a2)
    return (0.5 * h) * (a1 + a2) + (math.sqrt(3.0) / 12.0) * h**2 * commutator


def _edges(t0, t1, sample_times, breakpoints=()):
    """Ascending edges: t0, the sample times, the breakpoints inside (t0, t1), t1.

    Also returns the index of each sample time among the edges. Repeated
    edges need no merging: the interval between them has zero width.
    """
    if not -math.inf < t0 < t1 < math.inf:  # NaN fails too
        raise ParameterError(f"need finite t0 < t1, got t0 = {t0!r}, t1 = {t1!r}")
    s = np.asarray(() if sample_times is None else sample_times, dtype=float)
    if not np.all(np.isfinite(s)):
        raise ParameterError("sample_times must be finite")
    if s.size and np.any(np.diff(s) < 0):
        raise ParameterError("sample_times must be ascending")
    tol = 1e-12 * (t1 - t0)
    if s.size and (s[0] < t0 - tol or s[-1] > t1 + tol):
        raise ParameterError(f"sample_times must lie within [{t0}, {t1}]")
    b = np.asarray(breakpoints, dtype=float)
    times = np.concatenate([[t0], np.clip(s, t0, t1), b[(b > t0) & (b < t1)], [t1]])
    order = np.argsort(times, kind="stable")
    where = np.empty_like(order)
    where[order] = np.arange(order.size)
    return times[order], where[1:1 + s.size]


def _check_span(frames, t0, t1) -> None:
    """Raise TimeDomainError unless [t0, t1] lies on the frame grid, to the
    half cell ``index_at`` allows at either end; every edge lies in it."""
    try:
        frames.index_at(np.array([t0, t1]))
    except TimeDomainError:
        raise TimeDomainError(
            f"[t0, t1] = [{float(t0)!r}, {float(t1)!r}] is not inside the frame grid "
            f"[{float(frames.times[0])!r}, {float(frames.times[-1])!r}]"
        ) from None


def _march(generator, y0, edges, n):
    """One pass of n Magnus-4 sub-steps per interval between consecutive edges.

    The sub-step propagators are built a chunk at a time, at most
    ``_CHUNK_ENTRIES`` matrix entries, from one generator call per chunk. The
    chunk is a power of two, as is n, so each chunk holds whole blocks of
    m = min(n, chunk) consecutive sub-steps of one interval. Each block is
    folded into one propagator by log2(m) batched pairwise products, and
    Python iterates once per block: once per edge when n <= chunk.

    Returns the largest h * ||A||_1 over the sub-step nodes and, when that is
    at most 1 (every sub-step resolved), the states reached at the edges.
    """
    widths = np.diff(edges)
    d = y0.size
    raw = np.empty((edges.size, d), dtype=y0.dtype)
    raw[0] = y = y0
    worst = 0.0
    chunk = 1 << (max(_CHUNK_ENTRIES // d**2, 1).bit_length() - 1)
    m = min(n, chunk)
    total = n * widths.size
    for lo in range(0, total, chunk):
        step = np.arange(lo, min(lo + chunk, total))
        hc = widths[step // n] / n
        nodes = edges[step // n] + (step % n + _GAUSS[:, None]) * hc     # (2, C)
        a = generator(nodes.ravel()).reshape(2, hc.size, d, d)
        worst = max(worst, float(np.max(hc * np.abs(a).sum(axis=-2).max(axis=(0, -1)))))
        if worst > 1.0:
            continue  # an unresolved pass only reports how far it is from resolved
        p = _expm(_magnus4(a[0], a[1], hc)).reshape(-1, m, d, d)
        while p.shape[1] > 1:
            p = _matmul(p[:, 1::2], p[:, 0::2])  # the later sub-step acts last
        for block, q in enumerate(p[:, 0], start=lo // m):
            y = q @ y
            if (block + 1) * m % n == 0:
                raw[(block + 1) * m // n] = y
    return worst, raw if worst <= 1.0 else None


def _propagate(generator, y0, edges, cfg):
    """States of y' = A(t) y at the ascending ``edges``, from y0 at edges[0].

    ``generator(times)`` returns the stack A(times), shape (M, d, d). Each
    interval between consecutive edges is split into n equal sub-steps, and
    n doubles from 1. Only passes with every sub-step resolved are compared;
    the first one that agrees with the previous resolved pass within
    rtol/atol at every edge is accepted.

    Returns the states reached at the edges, extrapolated from the last two
    passes, the number of sub-steps of the accepted pass, and the number of
    sub-steps of the resolved passes discarded before it.
    """
    n, prev, prev_worst, prev_err, rejected = 1, None, math.inf, math.inf, 0
    while True:
        worst, raw = _march(generator, y0, edges, n)
        steps = n * (edges.size - 1)
        if raw is None:
            if worst >= _SHRINK * prev_worst:
                raise StiffnessError(
                    f"{steps} sub-steps left max h*||A|| at {worst:.3g}: the generator "
                    f"is singular in [{edges[0]}, {edges[-1]}]"
                )
            prev_worst = worst
            n *= 2
            continue
        if prev is not None:
            err = float(np.max(np.linalg.norm(raw - prev, axis=1) / (
                cfg.atol + cfg.rtol * np.linalg.norm(raw, axis=1)
            )))
            if err <= 1.0:
                # the global error of the time-symmetric Magnus-4 step expands
                # in h^4, h^6, ...: one Richardson step removes the h^4 term
                return raw + (raw - prev) / 15.0, steps, rejected
            if err >= prev_err:
                raise StiffnessError(
                    f"{steps} sub-steps did not shrink the error estimate "
                    f"({err:.3g} x tolerance): rtol/atol are below rounding"
                )
            prev_err = err
        prev = raw
        rejected += steps
        n *= 2


# ----------------------------------------------------------------- engines


def evolve_unitary(
    H: TimeDependentHamiltonian,
    psi0: np.ndarray,
    t0: float,
    t1: float,
    cfg: IntegratorConfig | None = None,
    sample_times=None,
) -> UnitaryResult:
    """Solve i psi' = H(t) psi, renormalizing at every sample time and at t1."""
    cfg = cfg or IntegratorConfig()
    psi0 = _of_dim(check_state_vector(psi0), H.dim)
    edges, at = _edges(t0, t1, sample_times)

    def generator(times):
        return -1j * H.on_grid(times)

    raw, _, _ = _propagate(generator, psi0, edges, cfg)
    norms = np.linalg.norm(raw, axis=-1, keepdims=True)
    states = raw / norms
    return UnitaryResult(
        state=states[-1],
        samples=states[at] if at.size else None,
        max_norm_drift=float(np.max(np.abs(norms**2 - 1.0))),
    )


def evolve_lindblad(
    gen,
    rho0: np.ndarray,
    t0: float,
    t1: float,
    cfg: IntegratorConfig | None = None,
    sample_times=None,
) -> LindbladResult:
    """Solve the master equation from rho0.

    The core marches the real coherence vector of rho between edges at the
    sample times and the frame midpoints, where the dissipator changes. Real
    coordinates are Hermitian states, and a zero trace row keeps the trace to
    rounding, so the two drifts in the diagnostics are structural; the states
    are trace-normalized once, after the solve. Positivity, the meaningful
    integrity number, is monitored (never forced); below -1e-5 it aborts,
    since the Magnus exponent is not of Lindblad form when H changes in a cell.
    """
    cfg = cfg or IntegratorConfig()
    rho0 = _of_dim(check_density_matrix(rho0), gen.frames.dim)
    times = gen.frames.times
    edges, at = _edges(t0, t1, sample_times, 0.5 * (times[:-1] + times[1:]))
    _check_span(gen.frames, t0, t1)

    raw, n_steps, n_rejected = _propagate(gen.liouvillian, coherence_vector(rho0), edges, cfg)
    raw = density_matrix(raw)
    rhos = raw / np.trace(raw, axis1=1, axis2=2).real[:, None, None]
    min_eigs = np.linalg.eigvalsh(rhos).min(axis=1)
    k = int(np.argmin(min_eigs))
    diag = IntegrationDiagnostics(
        n_steps=n_steps,
        n_rejected=n_rejected,
        max_trace_drift=float(np.max(np.abs(np.trace(raw, axis1=1, axis2=2) - 1.0))),
        max_hermiticity_drift=float(np.max(hermiticity_defect(raw))),
        min_eigenvalue=float(min_eigs[k]),
    )
    if diag.min_eigenvalue < -1e-5:
        raise PositivityError(
            f"min eigenvalue {diag.min_eigenvalue:.3e} at t = {edges[k]}: tolerance "
            "too loose or generator not of Lindblad form"
        )
    return LindbladResult(
        state=rhos[-1],
        diagnostics=diag,
        samples=rhos[at] if at.size else None,
    )


# ----------------------------------------------- Monte-Carlo unraveling


def _traj_rng(seed: int, index: int):
    key = np.array([int(seed) & 0xFFFFFFFFFFFFFFFF, index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _jumps(gen, cells, rngs, psi_a, psi_b, t_a, t_b, h_eff, thresholds, events):
    """Handle the norm-threshold crossings of a batch of trajectories, each in
    its own lockstep step [t_a, t_b], which lies in its frame cell ``cells``.

    ``rngs``, ``events`` (or None) and the rows of every array belong to the
    crossing trajectories. ``h_eff`` is each one's drift anywhere in its cell.
    There d||psi||^2/dt = -<psi, gamma psi> with gamma = i (H_eff - H_eff^dag)
    constant, so the step's ends give ||psi||^2 and its slope at both; each
    jump time is the threshold crossing of their cubic Hermite interpolant,
    bisected for the whole batch at once. One Magnus-4 exponential per
    trajectory reaches its jump, a channel drawn with probability ~ ||L psi||^2
    acts, and another finishes the step. Trajectories whose survivor crosses
    its fresh threshold again repeat this from their own jump time. Each
    round makes one ``effective_hamiltonian`` and one ``_expm`` call.

    Returns the states at t_b and the new thresholds.
    """
    if not gen.active_channels[cells].any(axis=1).all():
        raise SuperlindError("norm decayed but no jump channel is active")
    channels, labels = gen.channels[cells], gen.channel_labels        # (M, C, N, N)
    gamma = 1j * (h_eff - h_eff.conj().swapaxes(1, 2))
    out, out_thr = psi_b.copy(), thresholds.copy()
    todo = np.arange(len(rngs))
    for _round in range(65):  # the first crossings and at most 64 re-crossings
        if not todo.size:
            return out, out_thr
        m, h = todo.size, t_b - t_a
        ends = np.stack([psi_a, psi_b])                                 # (2, m, N)
        f0, f1 = np.einsum("emi,emi->em", ends.conj(), ends).real
        d0, d1 = -h * np.einsum("emi,mij,emj->em", ends.conj(), gamma, ends).real
        c2, c3 = 3.0 * (f1 - f0) - 2.0 * d0 - d1, 2.0 * (f0 - f1) + d0 + d1
        # bisect [lo, lo + 2^-i]: every midpoint is dyadic, so exactly (lo + hi) / 2
        lo, above = np.zeros(m), f0 - thresholds
        for i in range(1, 41):  # 2^-40 of the step, far below the interpolation error
            mid = lo + 0.5**i
            lo = np.where(above + mid * (d0 + mid * (c2 + mid * c3)) < 0.0, lo, mid)
        t_jump = t_a + (lo + 0.5**41) * h
        widths = np.concatenate([t_jump - t_a, t_b - t_jump])          # to the jump, then on
        nodes = np.concatenate([t_a, t_jump]) + _GAUSS[:, None] * widths
        a = -1j * gen.effective_hamiltonian(nodes.ravel()).reshape(2, 2 * m, *h_eff.shape[1:])
        props = _expm(_magnus4(a[0], a[1], widths))
        kicked = np.einsum("mcij,mjk,mk->mci", channels, props[:m], psi_a)  # (m, C, N)
        cum = np.cumsum(np.einsum("mci,mci->mc", kicked.conj(), kicked).real, axis=1)
        if not np.all(cum[:, -1] > 0.0):
            raise SuperlindError("norm decayed but all jump weights vanish")
        draws = np.array([rngs[i].random(2) for i in todo.tolist()])  # pick, new threshold
        # the first channel whose cumulative weight exceeds u: never a zero-weight one
        picks = np.argmax(cum > (draws[:, 0] * cum[:, -1])[:, None], axis=1)
        psi = kicked[np.arange(m), picks]
        psi /= np.sqrt(np.einsum("mi,mi->m", psi.conj(), psi).real)[:, None]
        if events is not None:
            for i, t, c in zip(todo.tolist(), t_jump.tolist(), picks.tolist()):
                events[i].append(JumpEvent(time=t, target=labels[c][0], source=labels[c][1]))
        psi_end = np.einsum("mij,mj->mi", props[m:], psi)
        thresholds = draws[:, 1]
        out[todo], out_thr[todo] = psi_end, thresholds
        again = np.einsum("mi,mi->m", psi_end.conj(), psi_end).real < thresholds
        todo, t_a, t_b, psi_a, psi_b, thresholds, channels, gamma = (
            x[again] for x in (todo, t_jump, t_b, psi, psi_end, thresholds, channels, gamma))
    raise StiffnessError("jump cascade did not terminate within one step")


def evolve_trajectories(
    gen,
    psi0: np.ndarray,
    t0: float,
    t1: float,
    tcfg: TrajectoryConfig,
) -> TrajectoryResult:
    """Jump unraveling of the master equation, averaged over an ensemble.

    Pure states drift under H_eff = H + H_shift - (i/2) sum L^dag L without
    renormalization; a trajectory jumps when its squared norm falls below a
    uniform threshold, with channel probabilities ~ ||L psi||^2. All
    trajectories advance in lockstep between the edges t0, t1 and the frame
    grid points and cell midpoints inside (t0, t1): two steps per frame cell,
    each propagated by the Magnus-4 exponential of the exponential core, with
    both Gauss nodes strictly inside one cell, ``_BLOCK_ENTRIES`` ensemble
    entries at a time. The step products between a block's edges, with no
    inverse, give each trajectory's first crossing in it; ``_jumps`` takes
    all as one batch, and the jumped go on from the end of their step. A jump
    time is the threshold crossing of the cubic Hermite interpolant of
    ||psi||^2 between the ends of its step. Every trajectory consumes only its
    own counter-based random stream keyed by (seed, trajectory index), so an
    ensemble is exactly reproducible for a given seed, whatever the block.
    """
    psi0 = _of_dim(check_state_vector(psi0), gen.frames.dim)
    times = gen.frames.times
    edges, _ = _edges(t0, t1, None, np.concatenate([times, 0.5 * (times[:-1] + times[1:])]))
    _check_span(gen.frames, t0, t1)
    widths = np.diff(edges)
    cells = gen.frames.index_at(edges[:-1] + 0.5 * widths)

    m, n = tcfg.n_traj, psi0.size
    rngs = [_traj_rng(tcfg.seed, i) for i in range(m)]
    thresholds = np.array([rng.uniform() for rng in rngs])
    psis = np.tile(psi0, (m, 1))
    events = [[] for _ in range(m)] if tcfg.record_jumps else None

    block = max(min(_BLOCK_ENTRIES // (m * n), math.isqrt(_BLOCK_ENTRIES) // n - 1), 1)
    for lo in range(0, widths.size, block):
        h = widths[lo:lo + block]
        b = h.size
        nodes = edges[lo:lo + b] + _GAUSS[:, None] * h                    # (2, B)
        heff = gen.effective_hamiltonian(nodes.ravel()).reshape(2, b, n, n)
        # table[k, :, s]: the steps' product from block edge s to edge k >= s, one GEMM per k
        table = np.tile(np.eye(n, dtype=complex)[:, None], (b + 1, 1, b + 1, 1))
        for k, p in enumerate(_expm(_magnus4(-1j * heff[0], -1j * heff[1], h))):
            table[k + 1, :, :k + 1] = (p @ table[k, :, :k + 1].reshape(n, -1)).reshape(n, -1, n)
        todo, start, psi = np.arange(m), np.zeros(m, dtype=int), psis  # psi is at edge start
        while True:
            end = np.einsum("mij,mj->mi", table[-1, :, start], psi)  # advanced index first
            # ||psi||^2 never grows: only those below threshold at the block end crossed
            c = np.flatnonzero(np.einsum("mi,mi->m", end.conj(), end).real < thresholds[todo])
            ends = np.einsum("kimj,mj->mki", table[:, :, start[c]], psi[c])  # (P, B + 1, N)
            below = np.einsum("mki,mki->mk", ends.conj(), ends).real < thresholds[todo[c], None]
            first = np.argmax(below & (np.arange(b + 1) > start[c, None]), axis=1)  # 0: none
            psis[todo] = end  # after reading psi[c]: psi is psis in the first round
            hit = np.flatnonzero(first)
            if not hit.size:
                break
            todo, start = todo[c[hit]], first[hit]
            j = lo + start - 1  # the step of each crossing
            psi, thresholds[todo] = _jumps(
                gen, cells[j], [rngs[i] for i in todo], ends[hit, start - 1], ends[hit, start],
                edges[j], edges[j + 1], heff[0, start - 1], thresholds[todo],
                [events[i] for i in todo] if events is not None else None,
            )

    norms = np.linalg.norm(psis, axis=1)
    if np.any(norms <= 0):
        raise StateIntegrityError("a trajectory collapsed to the zero vector")
    psis = psis / norms[:, None]
    rho = np.einsum("mi,mj->ij", psis, psis.conj()) / m
    rho = 0.5 * (rho + rho.conj().T)
    return TrajectoryResult(state=rho, jumps=events)


# ------------------------------------------------------------------- misc


def bloch_vector(rho: np.ndarray):
    """(x, y, z) with x = 2 Re rho01, y = 2 Im rho10, z = rho00 - rho11: floats
    for one 2x2 matrix, three arrays of shape (...) for a (..., 2, 2) stack."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape[-2:] != (2, 2):
        raise DimensionError(f"Bloch vector needs 2x2 density matrices, got {rho.shape}")
    x = 2.0 * rho[..., 0, 1].real
    y = 2.0 * rho[..., 1, 0].imag
    z = (rho[..., 0, 0] - rho[..., 1, 1]).real
    return (float(x), float(y), float(z)) if rho.ndim == 2 else (x, y, z)


def write_bloch_csv(path, times, rhos, header_lines=()) -> None:
    """Time series of 2x2 states as t, x, y, z rows."""
    comments = ["superlind bloch time series", *header_lines,
                "convention: x = 2 Re rho01, y = 2 Im rho10, z = rho00 - rho11"]
    rows = zip(times, *bloch_vector(rhos))
    write_table(path, comments, ["t", "x", "y", "z"], rows)
