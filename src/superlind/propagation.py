"""Time evolution: unitary, master-equation, and jump-unraveling engines.

All engines integrate forward in time. States are plain ndarrays: a state
vector is a complex (N,) array of unit norm, a density matrix a complex
(N, N) Hermitian unit-trace array with nonnegative spectrum.

All three engines share one kernel for y' = A(t) y: the matrix exponential
of a fourth-order Magnus exponent built from A at two Gauss nodes of a step,
with A = -iH, the real Liouvillian of the coherence vector of rho, or
-iH_eff for the jump unraveling. The unitary and master-equation engines
step between the edges t0, t1 and the sample times, plus the frame midpoints
for the master equation, where the snapped dissipator changes. Each interval
is split into n equal sub-steps of 1-norm at most theta_9; n doubles until
the Richardson error estimate of two passes meets the tolerances. Batched
pairwise products fold a chunk's sub-step propagators into one per interval,
and a work-efficient (Brent-Kung) prefix scan those into the edge states, in
about two products per interval: Python runs once per chunk, never once per
edge or sub-step. Each engine renormalizes the edge states once, after the
solve: the Magnus exponent of -iH or of a Liouvillian preserves norm and
trace up to rounding. Sub-steps are exponentiated in closed form for N = 2,
else by a degree-24 Taylor polynomial in products alone, scaled and squared
above theta_9, each independently of its stack.
All these products use ``_matmul``: broadcast products for complex stacks,
2-5 times faster than numpy's ``@`` at N = 2, and ``@`` for real ones.
Complex stacks follow the storage rule of ``model._stack``; complex edge states
are column sums in j order, equal bit for bit to ``@`` on a C-ordered stack.
The Monte-Carlo engine takes one such step per half frame cell, in lockstep
for the whole ensemble, and walks each trajectory over a binary-lifting table
of a block's step products to the step of its first crossing. There a bisection
that a Newton root predicts and one pass checks finds its jump time; a block's
jumps are handled as one batch, each a row of one array. One array kernel
computes the ensemble's numpy Philox streams. Every engine reports its
``IntegrationDiagnostics``.
"""
from __future__ import annotations

import functools
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
    check_array,
    check_ends,
    check_integer,
    check_real,
    shown,
)
from ._output import write_table
from .model import (TimeDependentHamiltonian, _eigh, _stack, coherence_vector, density_matrix,
                    hermiticity_defect)

_GAUSS = 0.5 + np.array([-1.0, 1.0]) * (math.sqrt(3.0) / 6.0)  # Gauss-Legendre nodes on [0, 1]
_CHUNK_ENTRIES = 2**14  # matrix entries in the stack of propagators held at once
_TABLE_ENTRIES = 2**16  # B log2(B) N^2: a Monte-Carlo block's lifting table of step products
_HALVES = 0.5 ** np.arange(1, 41)[:, None]  # the widths 2^-i of a jump time's bisection
_STREAM_WORDS = 32  # random words per trajectory drawn at first, doubled when one runs out
# Philox4x64-10's multipliers and key bumps (Salmon, Moraes, Dror & Shaw, SC'11)
_PHILOX_M = np.array([0xD2E7470EE14C6C93, 0xCA5A826395121157], dtype=np.uint64)
_PHILOX_W = np.array([0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B], dtype=np.uint64)
# Doubling the sub-steps must cut the largest h * ||A|| below this fraction
# of its value: it halves for a bounded generator, stays put at a simple pole.
_SHRINK = 0.9

# 1/k! of the degree-24 Taylor exponential, row j its Paterson-Stockmeyer block k = 5j..5j+4
_TAYLOR24 = np.array([1.0 / math.factorial(k) for k in range(25)]).reshape(5, 5)
# largest 1-norm of a resolved sub-step, taken unscaled: the [9/9] Pade approximant's
# (Higham 2005), where the Taylor remainder is theta^25/25!/(1 - theta/26) = 7.8e-18
_THETA9 = 2.097847961257068
STATE_NORM_TOL = 1e-8  # largest |norm - 1| an initial state vector may have


@dataclass(frozen=True)
class IntegratorConfig:
    """Tolerances of the exponential propagator, finite and > 0.

    A solve is accepted once the error estimate of its finer pass, a fifteenth
    of how far doubling the sub-steps moved the state, is at no edge above
    atol + rtol * |state| (vector 2-norms).
    """

    rtol: float = 1e-8
    atol: float = 1e-10

    def __post_init__(self):
        check_real("rtol", self.rtol, 0)
        check_real("atol", self.atol, 0)


@dataclass(frozen=True)
class TrajectoryConfig:
    """Monte-Carlo unraveling controls: ensemble size and seed in [0, 2^64)."""

    n_traj: int
    seed: int = 0

    def __post_init__(self):
        check_integer("n_traj", self.n_traj, 1)
        if not 0 <= check_integer("seed", self.seed) < 2**64:  # the Philox key's 64-bit word
            raise ParameterError(f"seed must lie in [0, 2**64), got {shown(self.seed)}")


# one row per quantum jump; channel (target, source), (-1, -1) for dephasing
_JUMP_DTYPE = np.dtype([("trajectory", int), ("time", float), ("target", int), ("source", int)])


@dataclass
class IntegrationDiagnostics:
    """What a solve did: the same four numbers from every engine.

    ``n_steps`` counts the sub-steps of the accepted pass and ``n_rejected``
    those of the resolved passes discarded before it; the Monte-Carlo engine
    counts its lockstep steps and rejects none. The trace drift is the unitary
    engine's largest | ||psi||^2 - 1 | over the edges, before the one
    renormalization. The density-matrix engines hold the trace by construction
    (a zero trace row, a mean of normalized projectors) and leave it at 0.0.
    The minimum eigenvalue over the edge states, 0 for a pure state, is the
    meaningful integrity number; Monte-Carlo: that of its rho.
    """

    n_steps: int = 0
    n_rejected: int = 0
    max_trace_drift: float = 0.0
    min_eigenvalue: float = 0.0


@dataclass(frozen=True)
class EvolutionResult:
    """The state at t1 of every engine. ``evolve_unitary`` and ``evolve_lindblad`` fill
    ``samples``, the states at the sample times; ``evolve_trajectories`` fills ``jumps``,
    a _JUMP_DTYPE row per jump, by trajectory and then time."""

    state: np.ndarray
    diagnostics: IntegrationDiagnostics
    samples: np.ndarray | None = None
    jumps: np.ndarray | None = None


def check_state_vector(psi: np.ndarray) -> np.ndarray:
    psi = check_array("state vector", psi, complex)
    if psi.ndim != 1:
        raise DimensionError(f"state vector must be 1-d, got shape {psi.shape}")
    norm = float(np.linalg.norm(psi))
    if not abs(norm - 1.0) <= STATE_NORM_TOL:  # NaN-safe, and before psi / norm
        raise StateIntegrityError(f"state vector norm {norm} != 1")
    return psi / norm


def check_density_matrix(rho: np.ndarray) -> np.ndarray:
    rho = check_array("density matrix", rho, complex)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise DimensionError(f"density matrix must be square, got shape {rho.shape}")
    herm = hermiticity_defect(rho)
    if not herm <= 1e-10:  # NaN-safe: a NaN entry makes the defect NaN
        raise StateIntegrityError(f"density matrix hermiticity defect {herm:.3e}")
    tr = complex(np.trace(rho))
    if not abs(tr - 1.0) <= 1e-8:
        raise StateIntegrityError(f"density matrix trace {tr} != 1")
    rho = 0.5 * (rho + rho.conj().T) / tr.real
    min_eig = float(_eigh(rho[None], vectors=False)[0, 0])
    if not min_eig >= -1e-7:
        raise StateIntegrityError(f"density matrix min eigenvalue {min_eig:.3e}")
    return rho


def _of_dim(state: np.ndarray, dim: int) -> np.ndarray:
    if state.shape[0] != dim:
        raise DimensionError(f"initial state has dimension {state.shape[0]}, the model {dim}")
    return state


# --------------------------------------------------------------------- core


def _matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b for stacks of small matrices; for complex ones the sum over the
    inner index of broadcast products into a ``_stack``, as numpy's stacked ``@``
    is slow there."""
    if not (np.iscomplexobj(a) or np.iscomplexobj(b)):
        return a @ b
    first = a[..., :, 0, None], b[..., None, 0, :]
    out = np.multiply(*first, out=_stack(np.broadcast(*first).shape))
    for j in range(1, a.shape[-1]):
        out += a[..., :, j, None] * b[..., None, j, :]
    return out


def _norm1(a: np.ndarray) -> np.ndarray:
    """1-norm of each matrix of a (..., d, d) stack, its largest absolute column sum,
    by loops over d: numpy's reductions over axes of length d cost 2-6 times more."""
    b = np.abs(a)
    cols = sum(b[..., i, :] for i in range(b.shape[-1]))
    return functools.reduce(np.maximum, np.moveaxis(cols, -1, 0))


def _expm2(a: np.ndarray) -> np.ndarray:
    """exp of an (M, 2, 2) stack: e^mu (cosh s I + sinh(s)/s (A - mu I)), with
    mu = tr A / 2, s^2 = -det(A - mu I) (Bernstein & So, IEEE TAC 38, 1228
    (1993)). Both factors are entire in s^2, so the root's branch does not
    matter; sinh(s)/s is 1 at s = 0. Where Re s > 1, e^(mu +- s) give both, as
    cosh s can overflow where e^mu underflows."""
    mu = 0.5 * (a[:, 0, 0] + a[:, 1, 1])
    half = 0.5 * (a[:, 0, 0] - a[:, 1, 1])
    s = np.sqrt(half * half + a[:, 0, 1] * a[:, 1, 0] + 0j)  # principal root: Re s >= 0
    big = s.real > 1.0
    z, e = np.where(big, 0.0, s), np.exp(mu)
    c = e * np.cosh(z)                                         # e^mu cosh s
    q = np.divide(np.sinh(z), z, out=np.ones_like(z), where=z != 0) * e  # e^mu sinh(s)/s
    if big.any():
        up, down = np.exp(mu[big] + s[big]), np.exp(mu[big] - s[big])
        c[big], q[big] = 0.5 * (up + down), (up - down) / (2.0 * s[big])
    r = _stack((a.shape[0], 2, 2))
    r[:, 0, 0], r[:, 1, 1] = c + q * half, c - q * half
    r[:, 0, 1], r[:, 1, 0] = q * a[:, 0, 1], q * a[:, 1, 0]
    return r if np.iscomplexobj(a) else np.ascontiguousarray(r.real)


def _expm(a: np.ndarray) -> np.ndarray:
    """Matrix exponential of each matrix in an (M, d, d) stack.

    ``_expm2`` for d = 2, else the degree-24 Taylor polynomial by Paterson &
    Stockmeyer, SIAM J. Comput. 2, 60 (1973): A^2..A^5, then four Horner steps
    in A^5 over elementwise block sums, 8 products and no solve. It is exact
    to rounding up to the 1-norm theta_9, which bounds every resolved sub-step
    (h ||A||_1 <= theta_9) but for its small commutator term. Only a matrix
    above it is halved until it is not, and its polynomial squared as often:
    each matrix's exponential is the same in any stack.
    """
    if a.shape[-1] == 2:
        return _expm2(a)
    squarings = np.ceil(np.log2(np.maximum(_norm1(a), _THETA9) / _THETA9)).astype(int)
    if squarings.any():
        a = a / (2.0 ** squarings)[:, None, None]
    powers = [np.eye(a.shape[-1]), a]
    for _ in range(4):
        powers.append(_matmul(powers[-1], a))                  # A^2 .. A^5
    r = None
    for c in _TAYLOR24[::-1]:
        block = c[1] * a
        for k in (2, 3, 4, 0):  # the identity last: exp(0) = I exactly, as c[0, 0] = 1
            block += c[k] * powers[k]
        r = block if r is None else np.add(block, _matmul(r, powers[5]), out=block)
    for level in range(squarings.max()):
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
    t0, t1 = check_ends(t0, t1)
    s = check_array("sample_times", () if sample_times is None else sample_times, float)
    if s.ndim != 1 or not np.all(np.isfinite(s)):
        raise ParameterError("sample_times must be a 1-d sequence of finite reals")
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


def _chunk(d: int) -> int:
    """Sub-steps per chunk of ``_march`` for a d x d generator: ``_CHUNK_ENTRIES`` / d^2
    rounded to the nearest power of two, so a chunk holds within sqrt(2) of that many
    entries (d = 2: 4096, d = 4: 1024, d = 9: 256)."""
    return 1 << max(round(math.log2(_CHUNK_ENTRIES / d**2)), 0)


def _scan(q: np.ndarray) -> np.ndarray:
    """Inclusive prefix products q[k] <- q[k] ... q[0] of a stack, in place, the
    later factor acting last: a Brent-Kung up-sweep and down-sweep over strided
    views (Brent & Kung, IEEE Trans. Comput. C-31, 260 (1982)), log2 len(q)
    batched rounds each, fewer than 2 len(q) pairwise products in all, for any
    length."""
    s = 1
    while 2 * s <= len(q):  # q[k] with k + 1 a multiple of 2s: the 2s factors ending at k
        hi = q[2 * s - 1::2 * s]
        hi[:] = _matmul(hi, q[s - 1::2 * s][:len(hi)])
        s *= 2
    while s > 1:            # q[k] with k + 1 an odd multiple of s: joined to the prefix before
        s //= 2
        hi = q[3 * s - 1::2 * s]
        hi[:] = _matmul(hi, q[2 * s - 1::2 * s][:len(hi)])
    return q


def _march(generator, y0, edges, n):
    """One pass of n Magnus-4 sub-steps per interval between consecutive edges.

    The sub-step propagators are built a chunk at a time, ``_chunk(d)`` of them,
    from one generator call per chunk. The chunk is a power of two, as is n, so
    it holds whole blocks of m = min(n, chunk) sub-steps of one interval.
    log2(m) batched pairwise products fold each block into one propagator, and
    ``_scan`` those into their prefix products, about two per block, so one
    batched matvec gives the state at every block end: Python runs once per
    chunk. The last chunk may hold any number of blocks.

    Returns the largest h * ||A||_1 over the sub-step nodes and, when that is
    at most theta_9 (every sub-step resolved), the states at the edges.
    """
    widths = np.diff(edges)
    d = y0.size
    raw = np.empty((edges.size, d), dtype=y0.dtype)
    raw[0] = y = y0
    worst = 0.0
    chunk = _chunk(d)
    m = min(n, chunk)
    total = n * widths.size
    for lo in range(0, total, chunk):
        step = np.arange(lo, min(lo + chunk, total))
        hc = widths[step // n] / n
        nodes = edges[step // n] + (step % n + _GAUSS[:, None]) * hc     # (2, C)
        a = generator(nodes.ravel()).reshape(2, hc.size, d, d)
        worst = max(worst, float(np.max(hc * np.maximum(*_norm1(a)))))
        if worst > _THETA9:
            continue  # an unresolved pass only reports how far it is from resolved
        p = _expm(_magnus4(a[0], a[1], hc)).reshape(-1, m, d, d)
        while p.shape[1] > 1:
            p = _matmul(p[:, 1::2], p[:, 0::2])  # the later sub-step acts last
        q = _scan(p[:, 0])
        states = sum(q[..., j] * y[j] for j in range(d)) if np.iscomplexobj(q) else q @ y
        ends = (lo // m + 1 + np.arange(len(states))) * m  # sub-steps done at each block end
        done = ends % n == 0                                # the block ends an interval
        raw[ends[done] // n] = states[done]
        y = states[-1]
    return worst, raw if worst <= _THETA9 else None


def _propagate(generator, y0, edges, cfg):
    """States of y' = A(t) y at the ascending ``edges``, from y0 at edges[0].

    ``generator(times)`` returns the stack A(times), shape (M, d, d). Each
    interval between consecutive edges is split into n equal sub-steps, and
    n doubles from 1. Only passes with every sub-step resolved are compared.
    The first one whose error estimate against the previous resolved pass,
    |raw - prev| / 15, is within atol + rtol |raw| at every edge is accepted
    (Hairer, Norsett & Wanner, Solving ODEs I, sec. II.9). Where |raw - prev|
    is below the pass's worst-case rounding, steps * eps * |raw|, it counts
    in full, so a tolerance below rounding raises rather than passes.

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
            # the global error of the time-symmetric Magnus-4 step expands in
            # h^4, h^6, ...: |raw - prev| / 15 estimates the error of raw, and
            # one Richardson step removes the h^4 term. A change within the
            # pass's rounding says nothing of that term, so it counts in full.
            diff, size = np.linalg.norm(raw - prev, axis=1), np.linalg.norm(raw, axis=1)
            est = np.where(diff < steps * np.finfo(float).eps * size, diff, diff / 15.0)
            err = float(np.max(est / (cfg.atol + cfg.rtol * size)))
            if err <= 1.0:
                return raw + (raw - prev) / 15.0, steps, rejected
            if not err < prev_err:  # a NaN estimate raises too
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
) -> EvolutionResult:
    """Solve i psi' = H(t) psi, renormalizing at every sample time and at t1."""
    cfg = cfg or IntegratorConfig()
    psi0 = _of_dim(check_state_vector(psi0), H.dim)
    edges, at = _edges(t0, t1, sample_times)

    def generator(times):
        return -1j * H.on_grid(times)

    raw, n_steps, n_rejected = _propagate(generator, psi0, edges, cfg)
    norms = np.linalg.norm(raw, axis=-1, keepdims=True)
    states = raw / norms
    return EvolutionResult(
        state=states[-1],
        diagnostics=IntegrationDiagnostics(
            n_steps=n_steps, n_rejected=n_rejected,
            max_trace_drift=float(np.max(np.abs(norms**2 - 1.0)))),
        samples=states[at] if at.size else None,
    )


def evolve_lindblad(
    gen,
    rho0: np.ndarray,
    t0: float,
    t1: float,
    cfg: IntegratorConfig | None = None,
    sample_times=None,
) -> EvolutionResult:
    """Solve the master equation from rho0.

    The core marches the real coherence vector of rho between edges at the
    sample times and the frame midpoints, where the dissipator changes. Real
    coordinates are Hermitian states, and a zero trace row (the dissipator's is
    checked, then zeroed) keeps the trace to rounding; the states are
    trace-normalized once, after the solve. Positivity, the meaningful
    integrity number, is monitored (never forced); below -1e-5 it aborts,
    since the Magnus exponent is not of Lindblad form when H changes in a cell.
    """
    cfg = cfg or IntegratorConfig()
    rho0 = _of_dim(check_density_matrix(rho0), gen.frames.dim)
    times = gen.frames.times
    edges, at = _edges(t0, t1, sample_times, 0.5 * (times[:-1] + times[1:]))
    gen.frames.index_at(edges[[0, -1]])  # TimeDomainError unless on the frame grid

    raw, n_steps, n_rejected = _propagate(gen.liouvillian, coherence_vector(rho0), edges, cfg)
    raw = density_matrix(raw)
    rhos = raw / np.trace(raw, axis1=1, axis2=2).real[:, None, None]
    min_eigs = _eigh(rhos, vectors=False)[:, 0]
    k = int(np.argmin(min_eigs))
    diag = IntegrationDiagnostics(n_steps=n_steps, n_rejected=n_rejected,
                                  min_eigenvalue=float(min_eigs[k]))
    if diag.min_eigenvalue < -1e-5:
        raise PositivityError(
            f"min eigenvalue {diag.min_eigenvalue:.3e} at t = {edges[k]}: tolerance "
            "too loose or generator not of Lindblad form"
        )
    return EvolutionResult(
        state=rhos[-1],
        diagnostics=diag,
        samples=rhos[at] if at.size else None,
    )


# ----------------------------------------------- Monte-Carlo unraveling


def _mulhilo(a, b):
    """High and low words of the 128-bit products of uint64 arrays, from 32-bit halves."""
    a0, a1, b0, b1 = a & 0xFFFFFFFF, a >> 32, b & 0xFFFFFFFF, b >> 32
    mid = a1 * b0 + ((a0 * b0) >> 32)  # below 2^64, as is the next sum
    return a1 * b1 + (mid >> 32) + (((mid & 0xFFFFFFFF) + a0 * b1) >> 32), a * b


def _philox(seed, rows, blocks):
    """Words of Philox4x64-10 keyed by (seed, row) at the counter blocks ``blocks``, 4 a block:
    row i's words are numpy's ``Philox(key=[seed, i]).random_raw()``, whose counter starts
    at block 1. uint64 arrays wrap silently, as the rounds want. Shape (rows, 4 blocks)."""
    key = [np.full((rows.size, 1), seed, dtype=np.uint64), rows.astype(np.uint64)[:, None]]
    zero = np.zeros((rows.size, blocks.size), dtype=np.uint64)
    x = [zero + blocks.astype(np.uint64), zero, zero, zero]
    for _ in range(10):
        (hi0, lo0), (hi1, lo1) = _mulhilo(_PHILOX_M[0], x[0]), _mulhilo(_PHILOX_M[1], x[2])
        x = [hi1 ^ x[1] ^ key[0], lo1, hi0 ^ x[3] ^ key[1], lo0]
        key = [key[0] + _PHILOX_W[0], key[1] + _PHILOX_W[1]]
    return np.stack(x, axis=-1).reshape(rows.size, -1)


class _Streams:
    """The ensemble's counter-based random streams, drawn in bulk: trajectory i takes
    the doubles of numpy's ``Generator(Philox(key=[seed, i])).random()`` in order,
    from one (M, W) word buffer that doubles when a trajectory runs out."""

    def __init__(self, seed: int, m: int):
        self.seed, self.rows, self.taken = int(seed), np.arange(m), np.zeros(m, dtype=int)
        self.words = _philox(self.seed, self.rows, np.arange(1, _STREAM_WORDS // 4 + 1))

    def draw(self, rows, k):
        """The next k doubles of each of the distinct trajectories ``rows``, (rows, k)."""
        at = self.taken[rows, None] + np.arange(k)
        w = self.words.shape[1]
        if at.max() >= w:  # k <= w: one doubling always suffices
            more = _philox(self.seed, self.rows, np.arange(w // 4 + 1, w // 2 + 1))
            self.words = np.concatenate([self.words, more], axis=1)
        self.taken[rows] += k
        return (self.words[rows[:, None], at] >> 11) * 2.0**-53  # as numpy's random()


def _cubic(c, s):
    """c0 + s (c1 + s (c2 + s c3)) for the coefficient rows c = (c0, c1, c2, c3)."""
    return c[0] + s * (c[1] + s * (c[2] + s * c[3]))


def _crossing(c):
    """The lo of 40 bisection levels of each cubic on [0, 1]: lo moves to the dyadic,
    so exact, midpoint lo + 2^-i wherever the cubic is not < 0. The levels that the
    bits of a Newton root predict are checked in one pass, and a row that the
    prediction misses goes on level by level from the first it missed."""
    s = np.full(c.shape[1], 0.5)
    for _ in range(4):  # Newton, but for steps as long as [0, 1] (a zero slope among them)
        g, slope = _cubic(c, s), c[1] + s * (2.0 * c[2] + 3.0 * s * c[3])
        s = np.clip(s - np.divide(g, slope, out=np.zeros_like(g), where=abs(slope) > abs(g)), 0, 1)
    lo = np.minimum(np.floor(s * 2.0**40), 2.0**40 - 1.0) * 0.5**40
    mids = np.floor(lo / (2.0 * _HALVES)) * (2.0 * _HALVES) + _HALVES   # (40, m)
    up = ~(_cubic(c, mids) < 0.0)
    miss = up != (lo >= mids)
    bad = np.flatnonzero(miss.any(axis=0))
    first = np.argmax(miss[:, bad], axis=0)
    at = mids[first, bad] - np.where(up[first, bad], 0.0, _HALVES[first, 0])
    for i in range(first.min(initial=_HALVES.size) + 1, _HALVES.size):
        mid = at + _HALVES[i]
        at = np.where((i > first) & ~(_cubic(c[:, bad], mid) < 0.0), mid, at)
    lo[bad] = at
    return lo


def _jumps(gen, cells, streams, rows, psi_a, psi_b, t_a, t_b, h_eff, thresholds):
    """Handle the norm-threshold crossings of a batch of trajectories, each in
    its own lockstep step [t_a, t_b], which lies in its frame cell ``cells``.

    ``rows`` are the crossing trajectories' indices in ``streams``; the rows of
    every array belong to them. ``h_eff`` is each one's drift anywhere in its
    cell. There d||psi||^2/dt = -<psi, gamma psi> with
    gamma = i (H_eff - H_eff^dag) constant, so the step's ends give ||psi||^2
    and its slope at both; each jump time is the threshold crossing of their
    cubic Hermite interpolant, found by ``_crossing`` to 2^-40 of the step, far
    below the interpolation error. One Magnus-4 exponential per trajectory
    reaches its jump, a channel drawn with probability ~ ||L psi||^2 acts, and
    another finishes the step; each jump draws the pick, then its new threshold.
    Trajectories whose survivor crosses its fresh threshold again repeat this
    from their own jump time. Each round makes one ``effective_hamiltonian``,
    one ``_expm``, one ``apply_jumps`` and one ``streams.draw`` call.

    Returns the states at t_b, the new thresholds and the jumps, ``_JUMP_DTYPE``
    rows in the order made: a trajectory's own in time order.
    """
    if not gen.active_channels[cells].any(axis=1).all():
        raise SuperlindError("norm decayed but no jump channel is active")
    labels = np.array(gen.channel_labels)
    gamma = 1j * (h_eff - h_eff.conj().swapaxes(1, 2))
    out, out_thr = psi_b.copy(), thresholds.copy()
    todo, record = np.arange(rows.size), []
    for _round in range(65):  # the first crossings and at most 64 re-crossings
        if not todo.size:
            return out, out_thr, np.concatenate(record)
        m, h = todo.size, t_b - t_a
        ends = np.stack([psi_a, psi_b])                                 # (2, m, N)
        f0, f1 = np.einsum("emi,emi->em", ends.conj(), ends).real
        d0, d1 = -h * np.einsum("emi,mij,emj->em", ends.conj(), gamma, ends).real
        cubic = np.stack([f0 - thresholds, d0, 3.0 * (f1 - f0) - 2.0 * d0 - d1,
                          2.0 * (f0 - f1) + d0 + d1])
        t_jump = t_a + (_crossing(cubic) + 0.5**41) * h
        widths = np.concatenate([t_jump - t_a, t_b - t_jump])          # to the jump, then on
        nodes = np.concatenate([t_a, t_jump]) + _GAUSS[:, None] * widths
        a = -1j * gen.effective_hamiltonian(nodes.ravel()).reshape(2, 2 * m, *h_eff.shape[1:])
        props = _expm(_magnus4(a[0], a[1], widths))
        kicked = gen.apply_jumps(cells, np.einsum("mij,mj->mi", props[:m], psi_a))  # (m, C, N)
        cum = np.cumsum(np.einsum("mci,mci->mc", kicked.conj(), kicked).real, axis=1)
        if not np.all(cum[:, -1] > 0.0):
            raise SuperlindError("norm decayed but all jump weights vanish")
        draws = streams.draw(rows[todo], 2)  # the pick, then the new threshold
        # the first channel whose cumulative weight exceeds u: never a zero-weight one
        picks = np.argmax(cum > (draws[:, 0] * cum[:, -1])[:, None], axis=1)
        psi = kicked[np.arange(m), picks]
        psi /= np.sqrt(np.einsum("mi,mi->m", psi.conj(), psi).real)[:, None]
        jumps = np.empty(m, dtype=_JUMP_DTYPE)
        jumps["trajectory"], jumps["time"] = rows[todo], t_jump
        jumps["target"], jumps["source"] = labels[picks].T
        record.append(jumps)
        psi_end = np.einsum("mij,mj->mi", props[m:], psi)
        thresholds = draws[:, 1]
        out[todo], out_thr[todo] = psi_end, thresholds
        again = np.einsum("mi,mi->m", psi_end.conj(), psi_end).real < thresholds
        todo, t_a, t_b, psi_a, psi_b, thresholds, cells, gamma = (
            x[again] for x in (todo, t_jump, t_b, psi, psi_end, thresholds, cells, gamma))
    raise StiffnessError("jump cascade did not terminate within one step")


def _walk(lift: list, at: np.ndarray, psi: np.ndarray, thresholds: np.ndarray):
    """Walk each psi from block edge ``at`` over ``lift[l][s]``, the 2^l steps from edge s,
    longest first, taking a span if ||psi||^2 stays >= the threshold. ||psi||^2 never grows,
    so the (edges, states) returned are those just before the first crossing, or at the end."""
    for level in range(len(lift) - 1, -1, -1):
        nxt = np.einsum("mij,mj->mi", lift[level][np.minimum(at, len(lift[level]) - 1)], psi)
        ok = np.einsum("mi,mi->m", nxt.conj(), nxt).real >= thresholds
        ok &= at + 2**level <= len(lift[0])
        at, psi = np.where(ok, at + 2**level, at), np.where(ok[:, None], nxt, psi)
    return at, psi


def evolve_trajectories(gen, psi0: np.ndarray, t0: float, t1: float,
                        tcfg: TrajectoryConfig) -> EvolutionResult:
    """Jump unraveling of the master equation, averaged over an ensemble.

    Pure states drift under H_eff = H + H_shift - (i/2) sum L^dag L without
    renormalization; a trajectory jumps when its squared norm falls below a
    uniform threshold, with channel probabilities ~ ||L psi||^2. All
    trajectories advance in lockstep between the edges t0, t1 and the frame
    grid points and cell midpoints inside (t0, t1), two Magnus-4 steps per
    frame cell, a block of B steps at a time: ``_walk`` takes each trajectory
    over the block's binary-lifting table of step products (B log2(B) N^2
    entries within ``_TABLE_ENTRIES``, no inverse) to the step of its first
    crossing, and ``_jumps`` takes all crossings as one batch. Every trajectory
    consumes only its own counter-based random stream, numpy's
    ``Philox(key=[seed, index])``, so an ensemble is exactly reproducible for a
    given seed, whatever the block.
    """
    psi0 = _of_dim(check_state_vector(psi0), gen.frames.dim)
    times = gen.frames.times
    edges, _ = _edges(t0, t1, None, np.concatenate([times, 0.5 * (times[:-1] + times[1:])]))
    gen.frames.index_at(edges[[0, -1]])  # the cells below would round an off-grid t0 into cell 0
    widths = np.diff(edges)
    cells = gen.frames.index_at(edges[:-1] + 0.5 * widths)

    m, n = tcfg.n_traj, psi0.size
    streams = _Streams(tcfg.seed, m)
    thresholds = streams.draw(np.arange(m), 1)[:, 0]
    psis = np.tile(psi0, (m, 1))
    record = [np.empty(0, dtype=_JUMP_DTYPE)]

    block = 1 << max(k for k in range(31) if (k << k) * n * n <= _TABLE_ENTRIES)
    for lo in range(0, widths.size, block):
        h = widths[lo:lo + block]
        nodes = edges[lo:lo + h.size] + _GAUSS[:, None] * h                 # (2, B)
        heff = gen.effective_hamiltonian(nodes.ravel()).reshape(2, h.size, n, n)
        lift = [_expm(_magnus4(-1j * heff[0], -1j * heff[1], h))]
        for span in (2**level for level in range(h.size.bit_length() - 1)):
            lift.append(_matmul(lift[-1][span:], lift[-1][:-span]))  # the later span acts last
        todo, at = np.arange(m), np.zeros(m, dtype=int)  # each at its block edge ``at``
        while True:
            at, psis[todo] = _walk(lift, at, psis[todo], thresholds[todo])
            todo, at = todo[at < h.size], at[at < h.size]  # each crossed in step ``at``
            if not todo.size:
                break
            j, psi = lo + at, psis[todo]
            psis[todo], thresholds[todo], jumps = _jumps(
                gen, cells[j], streams, todo, psi, np.einsum("mij,mj->mi", lift[0][at], psi),
                edges[j], edges[j + 1], heff[0, at], thresholds[todo])
            record.append(jumps)
            at += 1

    norms = np.linalg.norm(psis, axis=1)
    if np.any(norms <= 0):
        raise StateIntegrityError("a trajectory collapsed to the zero vector")
    psis = psis / norms[:, None]
    rho = np.einsum("mi,mj->ij", psis, psis.conj()) / m
    rho = 0.5 * (rho + rho.conj().T)
    jumps = np.concatenate(record)  # a trajectory's in time order, which the stable sort keeps
    diag = IntegrationDiagnostics(
        n_steps=widths.size, min_eigenvalue=float(_eigh(rho[None], vectors=False)[0, 0]))
    return EvolutionResult(rho, diag, jumps=jumps[np.argsort(jumps["trajectory"], kind="stable")])


# ------------------------------------------------------------------- misc


def bloch_vector(rho: np.ndarray):
    """(x, y, z) with x = 2 Re rho01, y = 2 Im rho10, z = rho00 - rho11: floats
    for one 2x2 matrix, three arrays of shape (...) for a (..., 2, 2) stack."""
    rho = check_array("rho", rho, complex)
    if rho.shape[-2:] != (2, 2):
        raise DimensionError(f"Bloch vector needs 2x2 density matrices, got {rho.shape}")
    x = 2.0 * rho[..., 0, 1].real
    y = 2.0 * rho[..., 1, 0].imag
    z = (rho[..., 0, 0] - rho[..., 1, 1]).real
    return (float(x), float(y), float(z)) if rho.ndim == 2 else (x, y, z)


def write_bloch_csv(path, times, rhos, header_lines=()) -> None:
    """Time series of 2x2 states as t, x, y, z rows, one time per state: a 1-d array for
    a (K, 2, 2) stack; for one 2x2 matrix, a scalar or a one-element array."""
    comments = ["superlind bloch time series", *header_lines,
                "convention: x = 2 Re rho01, y = 2 Im rho10, z = rho00 - rho11"]
    times, xyz = np.atleast_1d(check_array("times", times, float)), bloch_vector(rhos)
    if times.ndim != 1 or times.shape != np.atleast_1d(xyz[0]).shape:
        raise DimensionError(f"times must hold one time per state: got shape {times.shape} "
                             f"for rhos of shape {np.shape(rhos)}")
    rows = np.column_stack([times, *xyz])
    write_table(path, comments, ["t", "x", "y", "z"], rows)
