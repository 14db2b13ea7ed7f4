"""Gauge-fixed eigenframes on a time grid and the super-adiabatic iteration.

An order-0 frame trajectory holds the instantaneous eigenbasis of H(t) at
every grid point, phase-fixed so adjacent frames overlap with a real
positive inner product (discrete parallel transport). Higher orders are
built by repeatedly diagonalizing the co-moving frame Hamiltonian

    H_frame = diag(levels) - i K,    K[a, b] = <phi_a | d/dt phi_b>,

which suppresses the residual oscillation of the true evolution around the
basis by one power of the adiabatic parameter per level. Every spectral
solve goes through ``model._eigh``: closed form for N = 2, LAPACK for larger N.

Inside this module frame stacks are entries-major, ``(N, N, K)`` with the
grid index innermost and contiguous: numpy's ``einsum`` is several times
faster when the axis it keeps, not the one it sums, is innermost. A stack is
converted once on the way in (``_entries``) and once on the way out;
``FrameTrajectory.basis`` and ``frame_couplings`` stay ``(K, N, N)``.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegeneracyError,
    DimensionError,
    GridError,
    OrderCapError,
    ParameterError,
    TimeDomainError,
)
from ._output import BLOCK_ROWS, write_blocks
from .model import TimeDependentHamiltonian, _eigh
from .propagation import bloch_vector, evolve_unitary

J_MAX = 12  # highest super-adiabatic order built or recommended
GAP_TOL_FACTOR = 1e-9
MIN_ALIGN_OVERLAP = 0.5
MIN_STEP_OVERLAP_SQ = 0.99
UNITARITY_TOL = 1e-10
ENERGY_TOL = 1e-10
GRID_GAP_FRACTION = 0.01
GRID_INITIAL_POINTS = 129
GRID_MAX_POINTS = 2_000_000


def _checked_grid(times) -> np.ndarray:
    """``times`` as floats; raises unless 1-d, finite, uniform and increasing."""
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size < 2:
        raise ParameterError("need a 1-d time grid with at least two points")
    steps = np.diff(times)
    h = steps[0]
    # finiteness first: the uniformity test would subtract infinities
    if not (np.isfinite(times).all() and h > 0 and np.all(np.abs(steps - h) <= 1e-9 * h)):
        raise ParameterError("time grid must be finite, uniform and increasing")
    return times


class FrameTrajectory:
    """Frames on a uniform time grid, phase-continuous in k.

    ``basis[k, :, a]`` is basis vector ``a`` at ``times[k]``; ``energies``
    are the quasi-energies <phi|H|phi> against the source Hamiltonian.
    ``basis`` must be (K, N, N) and ``energies`` (K, N), with K grid points
    and N = ``hamiltonian.dim``; ``DimensionError`` otherwise. Instances are
    read-only after construction and safe to share.
    """

    def __init__(
        self,
        times: np.ndarray,
        basis: np.ndarray,
        energies: np.ndarray,
        order: int,
        hamiltonian: TimeDependentHamiltonian,
    ):
        # copies: the caller's arrays keep their flags, and its later writes do not reach these
        self.times = np.array(_checked_grid(times))
        self.basis = np.array(basis, dtype=complex, order="C")
        self.energies = np.array(energies, dtype=float, order="C")
        k, n = self.times.size, hamiltonian.dim
        if self.basis.shape != (k, n, n) or self.energies.shape != (k, n):
            raise DimensionError(f"{k} grid points and N = {n} need a {(k, n, n)} basis and "
                                 f"{(k, n)} energies, got {self.basis.shape}, {self.energies.shape}")
        self.order = int(order)
        self.hamiltonian = hamiltonian
        for arr in (self.times, self.basis, self.energies):
            arr.setflags(write=False)

    @property
    def step(self) -> float:
        return float(self.times[1] - self.times[0])

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    def __len__(self) -> int:
        return self.times.size

    def index_at(self, t):
        """Nearest grid index of t, or an index array for an array of times.

        Halves round to even, as ``round`` does; raises ``TimeDomainError``
        naming the first time outside the grid, NaN included."""
        t = np.asarray(t, dtype=float)
        h, first, last = self.step, self.times[0], self.times[-1]
        outside = ~((t >= first - 0.5 * h - 1e-9 * h) & (t <= last + 0.5 * h + 1e-9 * h))
        if outside.any():
            raise TimeDomainError(
                f"t = {float(t[outside][0])!r} outside frame grid [{first}, {last}]"
            )
        k = np.minimum(np.maximum(np.rint((t - first) / h), 0), self.times.size - 1).astype(int)
        return int(k) if k.ndim == 0 else k

    def validate(self) -> None:
        """Re-check the trajectory invariants; raises on violation."""
        basis = _entries(self.basis)
        gram = np.einsum("iak,ibk->abk", basis.conj(), basis)
        worst = float(np.max(np.abs(gram - np.eye(self.dim)[:, :, None])))
        if not worst <= UNITARITY_TOL:
            raise ParameterError(f"frame unitarity defect {worst:.3e} > {UNITARITY_TOL:.0e}")
        if not np.all(np.diff(self.energies, axis=1) >= 0):
            raise ParameterError("quasi-energies are not sorted ascending")
        recomputed = _quasi_energies(self.hamiltonian, self.times, basis)
        drift = float(np.max(np.abs(recomputed - self.energies)))
        if not drift <= ENERGY_TOL:
            raise ParameterError(f"stored quasi-energies drifted by {drift:.3e}")
        overlaps = _step_overlaps(basis)
        if np.any(overlaps.real < 0) or np.any(np.abs(overlaps.imag) >= 0.1):
            raise GridError("gauge smoothness violated between adjacent frames")
        _check_step_overlaps(self.times, overlaps)


def _entries(stack: np.ndarray) -> np.ndarray:
    """A (K, N, N) stack as a contiguous entries-major (N, N, K) array."""
    return np.ascontiguousarray(np.moveaxis(stack, 0, -1))


def _quasi_energies(
    H: TimeDependentHamiltonian, times: np.ndarray, basis: np.ndarray
) -> np.ndarray:
    """<phi_a | H(t_k) | phi_a> for every grid point k and column a of an
    (N, N, K) frame stack, as a (K, N) array."""
    return np.einsum("iak,ijk,jak->ka", basis.conj(), _entries(H.on_grid(times)), basis).real


@dataclass(frozen=True)
class AdiabaticReport:
    """Adiabatic parameter along the grid and the implied basis order."""

    samples: np.ndarray
    global_max: float
    recommended_order: int


def _reference_phase(basis_k: np.ndarray) -> np.ndarray:
    """Phase-fix columns: largest-magnitude component made real positive, the
    first of those within a relative 1e-12, so rounding cannot break a tie."""
    out = basis_k.copy()
    for a in range(out.shape[1]):
        col = out[:, a]
        i = int(np.argmax(np.abs(col) >= (1.0 - 1e-12) * np.abs(col).max()))
        z = col[i]
        if abs(z) > 0:
            col *= z.conjugate() / abs(z)
    return out


def _align_sweep(basis: np.ndarray, times: np.ndarray) -> np.ndarray:
    """Gauge-fix an (N, N, K) frame stack in place and return it: k=0 by the reference
    convention, then phase-chain forward so each adjacent same-index overlap is real positive."""
    basis[..., 0] = _reference_phase(basis[..., 0])
    raw = _step_overlaps(basis)
    mags = np.abs(raw)
    if not np.all(mags >= MIN_ALIGN_OVERLAP):
        bad = np.min(mags, axis=0)
        k = int(np.argmin(bad))
        raise GridError(
            f"adjacent-frame overlap {bad[k]:.3f} < {MIN_ALIGN_OVERLAP} near "
            f"t = {times[k + 1]}: grid too coarse"
        )
    # column phases accumulate: psi_k = psi_0 - sum_{j<=k} arg(raw_j)
    phases = -np.cumsum(np.angle(raw), axis=1)
    basis[..., 1:] *= np.exp(1j * phases)
    return basis


def _step_norms(mats: np.ndarray) -> np.ndarray:
    """||H_k+1 - H_k||_2 of a Hermitian stack: the largest |eigenvalue| of each step."""
    return np.abs(_eigh(mats[1:] - mats[:-1], vectors=False)).max(axis=1)


def _eigh_grid(mats: np.ndarray, times: np.ndarray, context: str):
    """Batched Hermitian eigendecomposition with a degeneracy guard."""
    vals, vecs = _eigh(mats)
    spread = float(np.max(vals[:, -1] - vals[:, 0]))
    gap_tol = GAP_TOL_FACTOR * spread
    gaps = np.diff(vals, axis=1)
    min_gap = float(gaps.min())
    if not (min_gap >= gap_tol and min_gap > 0.0):
        k = int(np.argmin(gaps.min(axis=1)))
        raise DegeneracyError(
            f"{context}: levels within {min_gap:.3e} (tol {gap_tol:.3e}) at t = {times[k]}"
        )
    return vals, vecs


def instantaneous_frames(
    H: TimeDependentHamiltonian, times: np.ndarray
) -> FrameTrajectory:
    """Order-0 trajectory: sorted eigenframes of H on the grid, gauge-fixed."""
    times = _checked_grid(times)
    vals, vecs = _eigh_grid(H.on_grid(times), times, "instantaneous frames")
    basis = _align_sweep(_entries(vecs), times)
    _check_step_overlaps(times, _step_overlaps(basis))
    return FrameTrajectory(times, np.moveaxis(basis, -1, 0), vals, order=0, hamiltonian=H)


def _step_overlaps(basis: np.ndarray) -> np.ndarray:
    """<phi_a(t_k) | phi_a(t_k+1)> for every column a and grid step k, (N, K-1)."""
    return np.einsum("iak,iak->ak", basis[..., :-1].conj(), basis[..., 1:])


def _check_step_overlaps(times: np.ndarray, overlaps: np.ndarray) -> None:
    o2 = np.abs(overlaps) ** 2
    if not np.all(o2 > MIN_STEP_OVERLAP_SQ):
        k = int(np.argmin(np.min(o2, axis=0)))
        raise GridError(
            f"adjacent-frame overlap^2 {float(o2.min()):.4f} <= {MIN_STEP_OVERLAP_SQ} "
            f"near t = {times[k]}: refine the grid"
        )


def _differentiate(stack: np.ndarray, h: float) -> np.ndarray:
    """d/dt of an (N, N, K) stack: central inside, 2nd-order one-sided at ends."""
    if stack.shape[-1] < 3:
        raise GridError("need at least three grid points to differentiate frames")
    d = np.empty_like(stack)
    d[..., 1:-1] = (stack[..., 2:] - stack[..., :-2]) / (2.0 * h)
    d[..., 0] = (-3.0 * stack[..., 0] + 4.0 * stack[..., 1] - stack[..., 2]) / (2.0 * h)
    d[..., -1] = (3.0 * stack[..., -1] - 4.0 * stack[..., -2] + stack[..., -3]) / (2.0 * h)
    return d


def frame_couplings(basis: np.ndarray, step: float) -> np.ndarray:
    """Derivative couplings K[k, a, b] = <phi_a | d/dt phi_b> at every grid point.

    ``basis`` is a (K, N, N) frame stack on a uniform grid of spacing
    ``step``. Anti-Hermitian up to the finite-difference error O(step^2);
    the diagonal vanishes to the same order under the smooth gauge.
    """
    return np.ascontiguousarray(np.moveaxis(_couplings(_entries(basis), step), -1, 0))


def _couplings(basis: np.ndarray, h: float) -> np.ndarray:
    """``frame_couplings`` of an (N, N, K) frame stack, as K[a, b, k]."""
    return np.einsum("iak,ibk->abk", basis.conj(), _differentiate(basis, h))


def adiabatic_report(traj: FrameTrajectory) -> AdiabaticReport:
    """Sample the adiabatic parameter on the whole grid and suggest an order.

    The suggested order is the integer nearest 1/max(A), clamped to
    [0, J_MAX]; a vanishing adiabatic parameter needs no correction at all.
    """
    if traj.order != 0:
        raise ParameterError("adiabatic report is defined on order-0 trajectories")
    couplings = _couplings(_entries(traj.basis), traj.step)
    off = ~np.eye(traj.dim, dtype=bool)
    levels = traj.energies.T
    gaps_off = np.abs(levels[None, :, :] - levels[:, None, :])[off]
    if not np.all(gaps_off > 0.0):
        k = int(np.argmin(np.min(gaps_off, axis=0)))
        gap = float(np.min(gaps_off[:, k]))
        raise DegeneracyError(f"degenerate pair at t = {traj.times[k]} (gap {gap:.3e})")
    samples = np.max(np.abs(couplings[off]) / gaps_off, axis=0)
    global_max = float(samples.max())
    if math.isnan(global_max):
        raise ParameterError("adiabatic parameter is NaN: the frames are not finite")
    if global_max < 1e-12:
        order = 0
    else:
        order = int(min(max(round(1.0 / global_max), 0), J_MAX))
    samples.setflags(write=False)
    return AdiabaticReport(samples=samples, global_max=global_max, recommended_order=order)


def check_order(order) -> None:
    """Raise ParameterError unless the super-adiabatic order is an integer in
    [0, J_MAX]: OrderCapError above the cap."""
    if isinstance(order, bool) or not isinstance(order, numbers.Integral) or order < 0:
        raise ParameterError(f"order must be an integer >= 0, got {order!r}")
    if order > J_MAX:
        raise OrderCapError(f"order {order} exceeds cap {J_MAX}")


def superadiabatic_frames(
    H: TimeDependentHamiltonian,
    order: int,
    times: np.ndarray,
    *,
    base: FrameTrajectory | None = None,
) -> FrameTrajectory:
    """Order-j super-adiabatic trajectory.

    Each level diagonalizes the co-moving frame Hamiltonian
    diag(previous level's frequencies) - i K, rotates the eigenvectors back
    to the lab frame and re-fixes the gauge. Quasi-energies of the result
    are recomputed against the original H(t). ``base`` may supply a
    pre-built order-0 trajectory of this H on the same grid.
    """
    check_order(order)
    times = np.asarray(times, dtype=float)
    if base is not None:
        if base.order != 0 or base.hamiltonian is not H or not np.array_equal(base.times, times):
            raise ParameterError("base must be an order-0 trajectory of H on the same grid")
        traj0 = base
    else:
        traj0 = instantaneous_frames(H, times)
    if order == 0:
        return traj0

    h = traj0.step
    # frame-local rotation of the current level, and the cumulative lab-frame basis
    level_vecs = lab = _entries(traj0.basis)
    level_vals = traj0.energies
    n = traj0.dim
    idx = np.arange(n)
    for level in range(1, order + 1):
        coupling = _couplings(level_vecs, h)
        anti = 0.5 * (coupling - np.conj(np.transpose(coupling, (1, 0, 2))))
        anti[idx, idx] = 0.0
        frame_h = -1j * anti
        frame_h[idx, idx] += level_vals.T   # exactly Hermitian, as anti is exactly anti-Hermitian
        del coupling, anti  # a stack each: freed before the solve and the product
        level_vals, level_vecs = _eigh_grid(np.moveaxis(frame_h, -1, 0), times,
                                            f"super-adiabatic level {level}")
        level_vecs = _align_sweep(_entries(level_vecs), times)
        # lab @ level_vecs as _matmul forms it: broadcast products summed in j order
        product = lab[:, 0, None] * level_vecs[0]
        for j in range(1, n):
            product += lab[:, j, None] * level_vecs[j]
        lab = product

    lab = _align_sweep(lab, times)
    _check_step_overlaps(times, _step_overlaps(lab))
    return FrameTrajectory(times, np.moveaxis(lab, -1, 0), _quasi_energies(H, times, lab),
                           order=order, hamiltonian=H)


def residual_oscillation(traj: FrameTrajectory) -> float:
    """Oscillation amplitude of the exact evolution around the basis.

    Starts in the trajectory's ground column at the first grid time, evolves
    unitarily under the trajectory's H across the grid, and returns the amplitude
    sqrt(max_t [1 - |<ground(t)|psi(t)>|^2]) of the leakage out of the
    instantaneous ground column. Scales like A^(j+1) for an order-j basis
    with adiabatic parameter A.
    """
    psi0 = traj.basis[0, :, 0]
    result = evolve_unitary(
        traj.hamiltonian, psi0, float(traj.times[0]), float(traj.times[-1]),
        sample_times=traj.times,
    )
    overlaps = np.einsum("ki,ki->k", traj.basis[:, :, 0].conj(), result.samples)
    leak = np.clip(1.0 - np.abs(overlaps) ** 2, 0.0, None)
    return float(math.sqrt(float(leak.max())))


def adaptive_time_grid(
    H: TimeDependentHamiltonian,
    t0: float,
    t1: float,
) -> np.ndarray:
    """Uniform grid fine enough to follow the eigenframes of H.

    The step is chosen from a ``GRID_INITIAL_POINTS`` probe so that the
    per-step Hamiltonian motion stays below ``GRID_GAP_FRACTION`` of the
    minimal gap, which by Weyl and Davis-Kahan holds adjacent eigenvector
    overlaps^2 above 1 - (0.01 / 0.99)^2, so only the levels are needed; the
    norm of each step is its largest |eigenvalue|. The condition is verified
    on the built grid, halved until it holds or until it would exceed
    ``GRID_MAX_POINTS`` and ``GridError`` is raised.
    """
    if not (math.isfinite(t0) and math.isfinite(t1) and t1 > t0):
        raise ParameterError(f"need finite t0 < t1, got {t0!r}, {t1!r}")

    def spectrum(times):
        """Minimal gap and largest per-step ||H_k+1 - H_k||_2."""
        mats = H.on_grid(times)
        min_gap = float(np.diff(_eigh(mats, vectors=False), axis=1).min())
        if min_gap <= 0:
            raise DegeneracyError("degenerate spectrum on the time grid")
        dnorm = float(np.max(_step_norms(mats)))
        return min_gap, dnorm

    probe = np.linspace(t0, t1, GRID_INITIAL_POINTS)
    min_gap, dnorm = spectrum(probe)
    rate = dnorm / (probe[1] - probe[0]) if dnorm > 0 else 0.0
    if rate > 0:
        # 0.95 headroom keeps the verification below from tripping on
        # float-equality at the bound and forcing a needless halving
        h_target = 0.95 * GRID_GAP_FRACTION * min_gap / rate
        n = max(int(math.ceil((t1 - t0) / h_target)) + 1, GRID_INITIAL_POINTS)
    else:
        n = GRID_INITIAL_POINTS

    while True:
        if n > GRID_MAX_POINTS:
            raise GridError(f"grid would exceed {GRID_MAX_POINTS} points")
        times = np.linspace(t0, t1, n)
        min_gap, dnorm = spectrum(times)
        if dnorm <= GRID_GAP_FRACTION * min_gap:
            return times
        n = 2 * (n - 1) + 1


def write_frames_csv(traj: FrameTrajectory, path) -> None:
    """Dump a trajectory as CSV: t, order, level, energy (+ x, y, z for N=2).

    The bytes `write_table` writes, one `%` call per block of rows; each time
    is formatted once per point, and `order` and `level` are template text."""
    comments = ["superlind frame trajectory", f"order = {traj.order}", f"points = {len(traj)}"]
    columns = ["t", "order", "level", "energy"]
    bloch = ()
    if traj.dim == 2:
        comments.append("bloch convention: x = 2 Re rho01, y = 2 Im rho10, z = rho00 - rho11")
        columns += ["x", "y", "z"]
        # x, y, z of the projector onto column a, each of shape (K, 2)
        bloch = bloch_vector(np.einsum("kia,kja->kaij", traj.basis, traj.basis.conj()))
    k, n = traj.energies.shape
    values = np.stack([traj.energies, *bloch], axis=2)  # (K, N, columns - 3)
    cells = ",".join(["%.12g"] * values.shape[2])
    # a point's rows are t + rest[0] + t + rest[1] + ... = t + t.join(rest)
    rest = [f",{traj.order:.12g},{a},{cells}\n" for a in range(n)]
    per, times = max(BLOCK_ROWS // n, 1), (("%.12g\n" * k) % tuple(traj.times.tolist())).split()
    blocks = ("".join([t + t.join(rest) for t in times[i:i + per]])
              % tuple(values[i:i + per].ravel().tolist()) for i in range(0, k, per))
    write_blocks(path, comments, columns, blocks)
