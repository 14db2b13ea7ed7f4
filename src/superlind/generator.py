"""Secular Lindblad generator built on a frame trajectory.

For a frame basis {|phi_a(t)>} with quasi-energies E_a(t), coupling operator
A and spectrum gamma/S, the jump operators are

    L0(t)   = sqrt(gamma(0)) * sum_a <phi_a|A|phi_a> |phi_a><phi_a|
    Lab(t)  = sqrt(gamma(w_ab)) * <phi_a|A|phi_b> |phi_a><phi_b|,  a != b

with w_ab = E_b - E_a, so the de-exciting operator |ground><excited| is
weighted by the rate at +gap and the exciting one at -gap. The optional
shift Hamiltonian is diagonal in the frame basis,

    H_shift(t) = sum_ab S(w_ab) |<phi_a|A|phi_b>|^2 |phi_b><phi_b|.

Between grid points the generator snaps to the nearest stored frame, so
the dissipator is constant on each frame cell, between two grid midpoints.
"""
from __future__ import annotations

import math
from functools import cached_property

import numpy as np

from .errors import DimensionError, ParameterError, StateIntegrityError
from .frames import FrameTrajectory
from .model import BathSpectrum, CouplingOperator, TimeDependentHamiltonian, hermiticity_defect

HERMITICITY_INPUT_TOL = 1e-8


class LindbladGenerator:
    """Time-dependent master-equation right-hand side.

    Immutable once built: all per-frame quantities (coupling matrix
    elements, transition frequencies, rates) are precomputed on the grid,
    so ``liouvillian`` and ``rhs`` are pure.

    ``channels`` holds every jump operator at every frame, (K, C, N, N)
    with C = 1 + N (N - 1), labeled by ``channel_labels``: the dephasing
    operator (-1, -1), then each transfer b -> a as (a, b) in row-major
    order. ``active_channels`` (K, C) flags the nonzero ones; an inactive
    operator is exactly zero. All three are read-only; the stack is built
    once, on first use.
    """

    def __init__(
        self,
        frames: FrameTrajectory,
        coupling: CouplingOperator | np.ndarray,
        spectrum: BathSpectrum,
        hamiltonian: TimeDependentHamiltonian | None = None,
        lamb_shift: bool = False,
    ):
        if isinstance(coupling, np.ndarray):
            coupling = CouplingOperator(coupling)
        if coupling.dim != frames.dim:
            raise DimensionError(
                f"coupling is {coupling.dim}x{coupling.dim} but frames are "
                f"{frames.dim}-dimensional"
            )
        self.frames = frames
        self.coupling = coupling
        self.spectrum = spectrum
        self.hamiltonian = hamiltonian if hamiltonian is not None else frames.hamiltonian
        self.lamb_shift = bool(lamb_shift)
        self._precompute()

    def _precompute(self) -> None:
        """Per-frame arrays, read-only: dephasing amplitudes, rates, channel
        amplitudes, shift, the non-Hermitian drift addition, and the labels
        and activity mask of the channel stack, whose operators ``channels``
        builds from these once, when ``jump_channels`` or the Monte-Carlo
        unraveling first reads them."""
        basis = self.frames.basis                      # (K, N, N)
        energies = self.frames.energies                # (K, N)
        a_mat = self.coupling.matrix
        abar = np.einsum("kia,ij,kjb->kab", basis.conj(), a_mat, basis)
        omega = energies[:, None, :] - energies[:, :, None]   # w[a,b] = E_b - E_a

        g0 = float(np.asarray(self.spectrum.gamma(0.0)))
        if not g0 >= 0.0:
            raise ParameterError(f"gamma(0) = {g0!r} must be >= 0")
        self._ell = math.sqrt(g0) * np.real(
            np.einsum("kaa->ka", abar)
        )                                              # (K, N), real

        gam = np.asarray(self.spectrum.gamma(omega.ravel()), dtype=float)
        gam = gam.reshape(omega.shape)
        if np.any(gam < -1e-15):
            raise ParameterError(
                f"gamma(w) must be >= 0; found {float(gam.min())} on the grid"
            )
        gam = np.clip(gam, 0.0, None)
        rate = gam * np.abs(abar) ** 2                 # (K, N, N)
        n = self.frames.dim
        idx = np.arange(n)
        rate[:, idx, idx] = 0.0
        self._rate = rate
        self._out_rate = rate.sum(axis=1)              # (K, N): total loss of level b
        self._amp = np.sqrt(gam) * abar                # channel amplitudes
        self._amp[:, idx, idx] = 0.0

        if self.lamb_shift:
            s_vals = np.asarray(self.spectrum.shift(omega.ravel()), dtype=float)
            s_vals = s_vals.reshape(omega.shape)
            self._shift_diag = np.einsum("kab->kb", s_vals * np.abs(abar) ** 2)
        else:
            self._shift_diag = np.zeros_like(energies)

        # non-Hermitian drift addition for trajectory unraveling:
        #   U (diag(shift) - i/2 diag(ell^2 + out_rate)) U^dag
        drift_diag = self._shift_diag - 0.5j * (self._ell**2 + self._out_rate)
        self._heff_add = np.einsum("kia,ka,kja->kij", basis, drift_diag, basis.conj())

        # the channel stack's labels and mask: the dephasing operator, then the transfers
        self._transfers = a_idx, b_idx = np.nonzero(~np.eye(n, dtype=bool))
        self.channel_labels = ((-1, -1), *zip(a_idx.tolist(), b_idx.tolist()))
        self.active_channels = np.concatenate(
            [np.any(self._ell != 0.0, axis=1)[:, None], self._amp[:, a_idx, b_idx] != 0.0], axis=1)
        for arr in (self._ell, self._rate, self._out_rate, self._amp,
                    self._shift_diag, self._heff_add, self.active_channels):
            arr.setflags(write=False)

    @cached_property
    def channels(self) -> np.ndarray:
        """The channel stack, built on first use: only the jump unraveling and
        ``jump_channels`` read it, and it is C times the size of a frame."""
        basis = self.frames.basis
        a_idx, b_idx = self._transfers
        stack = np.empty((len(self.frames), len(self.channel_labels)) + basis.shape[1:],
                         dtype=complex)
        stack[:, 0] = np.einsum("kia,ka,kja->kij", basis, self._ell, basis.conj())
        np.multiply(basis[:, :, a_idx].transpose(0, 2, 1)[..., :, None],          # kets
                    basis[:, :, b_idx].conj().transpose(0, 2, 1)[..., None, :],   # bras
                    out=stack[:, 1:])
        np.multiply(self._amp[:, a_idx, b_idx][..., None, None], stack[:, 1:], out=stack[:, 1:])
        stack.setflags(write=False)
        return stack

    def liouvillian(self, times) -> np.ndarray:
        """Generator of the master equation at each of ``times``, (M, N^2, N^2).

        Acts on row-major vec(rho): -i (H (x) I - I (x) H^T) plus the
        dissipator of the frame nearest to t. The dissipator is built in the
        frame basis, where the dephasing operator is diagonal and the jump
        channels are matrix units, and rotated by U (x) U*; it annihilates
        the trace and preserves hermiticity by construction.
        """
        n = self.frames.dim
        cells, where = np.unique(self.frames.index_at(times), return_inverse=True)
        ell, loss, ls = self._ell[cells], self._out_rate[cells], self._shift_diag[cells]
        decay = (
            -0.5 * (ell[:, :, None] - ell[:, None, :]) ** 2
            - 0.5 * (loss[:, :, None] + loss[:, None, :])
            - 1j * (ls[:, :, None] - ls[:, None, :])
        ).reshape(cells.size, n * n)
        u = self.frames.basis[cells]
        rot = np.einsum("cia,ckb->cikab", u, u.conj()).reshape(cells.size, n * n, n * n)
        pops = rot[:, :, :: n + 1]                     # columns vec(|a><a|)
        diss = (rot * decay[:, None, :]) @ rot.conj().transpose(0, 2, 1)
        diss += pops @ self._rate[cells] @ pops.conj().transpose(0, 2, 1)

        out = diss[where]
        blocks = out.reshape(len(times), n, n, n, n)   # [m, i, k, j, l]: (ik), (jl)
        h = self.hamiltonian.on_grid(times)
        for k in range(n):
            blocks[:, :, k, :, k] -= 1j * h                     # -i H (x) I
            blocks[:, k, :, k, :] += 1j * h.transpose(0, 2, 1)  # +i I (x) H^T
        return out

    def rhs(self, rho: np.ndarray, t: float) -> np.ndarray:
        """d rho / dt of the master equation at time t."""
        defect = hermiticity_defect(rho)
        if defect > HERMITICITY_INPUT_TOL:
            raise StateIntegrityError(
                f"input state non-Hermitian (defect {defect:.3e} > {HERMITICITY_INPUT_TOL:.0e})"
            )
        n = rho.shape[0]
        return (self.liouvillian([t])[0] @ rho.ravel()).reshape(n, n)

    def effective_hamiltonian(self, times) -> np.ndarray:
        """Non-Hermitian drift H(t) + H_shift - (i/2) sum_c Lc^dag Lc at each
        of ``times``, (M, N, N)."""
        return self.hamiltonian.on_grid(times) + self._heff_add[self.frames.index_at(times)]

    def jump_channels(self, t: float):
        """Nonzero jump channels at the frame nearest to t.

        Returns a list of ((a, b), L) pairs: the dephasing operator, diagonal
        in the frame basis and labeled (-1, -1), then each rank-one operator
        transferring b -> a. An empty list means no dissipator. With
        ``effective_hamiltonian`` this is the master equation in explicit
        operators: d rho/dt = -i (H_eff rho - rho H_eff^dag) + sum L rho L^dag.
        The operators are read-only views of the channel stack built once.
        """
        k = self.frames.index_at(t)
        return [(self.channel_labels[c], self.channels[k, c])
                for c in np.flatnonzero(self.active_channels[k])]
