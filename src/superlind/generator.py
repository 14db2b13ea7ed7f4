"""Secular Lindblad generator built on a frame trajectory.

For a frame basis {|phi_a(t)>} with quasi-energies E_a(t), coupling operator
A and spectrum gamma/S, the jump operators are

    L0(t)   = sqrt(gamma(0)) * sum_a <phi_a|A|phi_a> |phi_a><phi_a|
    Lab(t)  = sqrt(gamma(w_ab)) * <phi_a|A|phi_b> |phi_a><phi_b|,  a != b

with w_ab = E_b - E_a, so the de-exciting operator |ground><excited| is
weighted by the rate at +gap and the exciting one at -gap. The shift
Hamiltonian, zero unless the spectrum supplies a shift S, is diagonal in
the frame basis,

    H_shift(t) = sum_ab S(w_ab) |<phi_a|A|phi_b>|^2 |phi_b><phi_b|.

Between grid points the generator snaps to the nearest stored frame, so
the dissipator is constant on each frame cell, between two grid midpoints.
"""
from __future__ import annotations

from functools import cache, cached_property

import numpy as np

from .errors import DimensionError, ParameterError, StateIntegrityError
from .frames import FrameTrajectory
from .model import (BathSpectrum, TimeDependentHamiltonian, _require_hermitian, coherence_vector,
                    density_matrix, hermiticity_defect, operator_basis)
from .propagation import _CHUNK_ENTRIES, _matmul

HERMITICITY_INPUT_TOL = 1e-8


@cache
def _commutator_structure(n: int) -> np.ndarray:
    """F_g[a, b] = -i Tr(B_a [B_g, B_b]) in ``operator_basis(n)`` as one real
    (N^2, N^4) matrix, read-only; row a = 0 is zero: a commutator is traceless."""
    b = operator_basis(n)
    f = np.einsum("aji,gbij->gab", b, b[:, None] @ b[None] - b[None] @ b[:, None]).imag
    f[:, 0] = 0.0
    f.setflags(write=False)
    return f.reshape(n * n, -1)


class LindbladGenerator:
    """Time-dependent master-equation right-hand side.

    ``coupling`` is the checked Hermitian (N, N) array A, stored read-only.
    Immutable once built: all per-frame quantities (coupling matrix
    elements, transition frequencies, rates) are precomputed on the grid,
    so ``liouvillian`` and ``rhs`` are pure.

    ``channels`` holds every jump operator at every frame, (K, C, N, N)
    with C = 1 + N (N - 1), labeled by ``channel_labels``: the dephasing
    operator (-1, -1), then each transfer b -> a as (a, b) in row-major
    order. ``active_channels`` (K, C) flags the nonzero ones; an inactive
    operator is exactly zero. All three are read-only; the stack is built
    once, on first use.

    H, read as ``hamiltonian``, is the frames' own: the jump operators act between
    the frames of the H that drives the state. A fourth argument may only repeat it;
    it remains as ``perfbench/spec.py`` passes H, and goes when that call drops it.
    """

    def __init__(
        self,
        frames: FrameTrajectory,
        coupling: np.ndarray,
        spectrum: BathSpectrum,
        hamiltonian: TimeDependentHamiltonian | None = None,
    ):
        coupling = _require_hermitian(coupling, "coupling operator").copy()
        dim = coupling.shape[0]
        if dim != frames.dim:
            raise DimensionError(f"coupling is {dim}x{dim} but frames are {frames.dim}-dimensional")
        if hamiltonian is not None and hamiltonian is not frames.hamiltonian:
            raise ParameterError("hamiltonian must be the frames' own H")
        coupling.setflags(write=False)
        self.frames = frames
        self.coupling = coupling
        self.spectrum = spectrum
        self._precompute()

    @property
    def hamiltonian(self) -> TimeDependentHamiltonian:
        return self.frames.hamiltonian

    def _precompute(self) -> None:
        """Per-frame arrays, read-only: dephasing amplitudes, rates, channel
        amplitudes, the frame-diagonal drift, the non-Hermitian drift
        addition, and the labels and activity mask of the channel stack,
        whose operators ``channels`` builds from these once, when
        ``jump_channels`` or the Monte-Carlo unraveling first reads them. Every
        rate is one ``gamma`` call on w_ab, checked finite and >= 0 once; the
        dephasing amplitudes read gamma(0) off its diagonal, where w_aa = 0."""
        basis = self.frames.basis                      # (K, N, N)
        energies = self.frames.energies                # (K, N)
        abar = np.einsum("kia,ij,kjb->kab", basis.conj(), self.coupling, basis)
        omega = energies[:, None, :] - energies[:, :, None]   # w[a,b] = E_b - E_a

        gam = np.asarray(self.spectrum.gamma(omega.ravel()), dtype=float).reshape(omega.shape)
        bad = ~(np.isfinite(gam) & (gam >= 0.0))
        if bad.any():
            raise ParameterError(
                f"gamma(w) must be finite and >= 0; found {float(gam[bad][0])} on the grid"
            )
        n = self.frames.dim
        idx = np.arange(n)
        self._ell = np.sqrt(gam[:, idx, idx]) * np.einsum("kaa->ka", abar).real   # (K, N)
        rate = gam * np.abs(abar) ** 2                 # (K, N, N)
        rate[:, idx, idx] = 0.0
        self._rate = rate
        self._amp = np.sqrt(gam) * abar                # channel amplitudes
        self._amp[:, idx, idx] = 0.0

        s_vals = np.asarray(self.spectrum.shift(omega.ravel()), dtype=float).reshape(omega.shape)
        if not np.isfinite(s_vals).all():
            raise ParameterError("shift(w) must be finite on the grid")
        shift = np.einsum("kab->kb", s_vals * np.abs(abar) ** 2)

        # H_eff - H is diagonal in the frame basis, diag(shift - i/2 (ell^2 + total
        # loss rate)): the drift of the unraveling, U drift U^dag, and of the dissipator
        self._drift = shift - 0.5j * (self._ell**2 + rate.sum(axis=1))
        self._heff_add = np.einsum("kia,ka,kja->kij", basis, self._drift, basis.conj())

        # the channel stack's labels and mask: the dephasing operator, then the transfers
        self._transfers = a_idx, b_idx = np.nonzero(~np.eye(n, dtype=bool))
        self.channel_labels = ((-1, -1), *zip(a_idx.tolist(), b_idx.tolist()))
        self.active_channels = np.concatenate(
            [np.any(self._ell != 0.0, axis=1)[:, None], self._amp[:, a_idx, b_idx] != 0.0], axis=1)
        for arr in (self._ell, self._rate, self._amp, self._drift, self._heff_add,
                    self.active_channels):
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

    @cached_property
    def _dissipators(self) -> np.ndarray:
        """Each frame's dissipator as a real generator of coherence vectors,
        (K, N^2, N^2), built on first use, a chunk of frames at a time. In the
        frame basis U it maps rho_ij to c_ij rho_ij + delta_ij sum_l rate_il rho_ll,
        c_ij = -i (drift_i - drift_j^*) + ell_i ell_j, so with C_a = U^dag B_a U,
        D_ab = sum_ij (C_a)_ij^* c_ij (C_b)_ij + (C_a)_ii rate_ij (C_b)_jj."""
        n, d, ell = self.frames.dim, self._drift, self._ell
        c_ij = -1j * (d[:, :, None] - d[:, None, :].conj()) + ell[:, :, None] * ell[:, None, :]
        out = np.empty((len(self.frames), n * n, n * n))
        step = max(_CHUNK_ENTRIES // n**4, 1)
        for cells in (slice(lo, lo + step) for lo in range(0, len(out), step)):
            u = self.frames.basis[cells][:, None]
            c = _matmul(_matmul(u.conj().swapaxes(-1, -2), operator_basis(n)), u)  # C_a
            c = c.reshape(-1, n * n, n * n)
            pops = c[:, :, :: n + 1].real
            out[cells] = ((c.conj() * c_ij[cells].reshape(-1, 1, n * n)) @ c.swapaxes(-1, -2)).real
            out[cells] += pops @ self._rate[cells] @ pops.swapaxes(-1, -2)
        out[:, 0] = 0.0  # the trace is conserved
        out.setflags(write=False)
        return out

    def liouvillian(self, times) -> np.ndarray:
        """Real generator of the master equation at each of ``times``, (M, N^2, N^2),
        on coherence vectors (``model.coherence_vector``): the dissipator of the
        frame nearest to t plus sum_g Tr(B_g H(t)) F_g, which is -i [H, .]. Row 0,
        the trace, is exactly zero; real coordinates are a Hermitian rho."""
        n2 = self.frames.dim ** 2
        hc = coherence_vector(self.hamiltonian.on_grid(times))
        return self._dissipators[self.frames.index_at(times)] + (
            hc @ _commutator_structure(self.frames.dim)).reshape(-1, n2, n2)

    def rhs(self, rho: np.ndarray, t: float) -> np.ndarray:
        """d rho / dt of the master equation at time t, through the coherence vector."""
        defect = hermiticity_defect(rho)
        if defect > HERMITICITY_INPUT_TOL:
            raise StateIntegrityError(
                f"input state non-Hermitian (defect {defect:.3e} > {HERMITICITY_INPUT_TOL:.0e})"
            )
        return density_matrix(self.liouvillian([t])[0] @ coherence_vector(np.asarray(rho)))

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
