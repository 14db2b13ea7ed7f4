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

from .errors import DimensionError, ParameterError, StateIntegrityError, check_array
from .frames import FrameTrajectory
from .model import (BathSpectrum, TimeDependentHamiltonian, _entries, _require_hermitian,
                    coherence_vector, density_matrix, hermiticity_defect, operator_basis)
from .propagation import _CHUNK_ENTRIES

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

    The C = 1 + N (N - 1) jump channels are labeled by ``channel_labels``:
    the dephasing operator (-1, -1), then each transfer b -> a as (a, b) in
    row-major order. ``active_channels`` (K, C), read-only, flags the nonzero
    ones at each frame; an inactive operator is exactly zero. No operator is
    stored: ``apply_jumps`` applies them to states from the frames.

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
        addition, and the channels' labels and activity mask. Every
        rate is one ``gamma`` call on w_ab, checked real, finite and >= 0; the
        dephasing amplitudes read gamma(0) off its diagonal, where w_aa = 0. Frames are
        read entries-major, (N, N, K), so each einsum keeps the grid axis innermost."""
        basis = _entries(self.frames.basis)            # (N, N, K)
        energies = self.frames.energies                # (K, N)
        abar = np.einsum("ij,jbk->ibk", self.coupling, basis)                    # A |phi_b>
        abar = np.einsum("iak,ibk->abk", basis.conj(), abar).transpose(2, 0, 1)  # <phi_a|A|phi_b>
        omega = energies[:, None, :] - energies[:, :, None]   # w[a,b] = E_b - E_a

        gam, s_vals = (check_array(f"{name}(w)", getattr(self.spectrum, name)(omega), float)
                       for name in ("gamma", "shift"))
        for name, v in (("gamma", gam), ("shift", s_vals)):
            if v.shape != omega.shape or not np.isfinite(v).all():
                raise ParameterError(f"{name}(w) must be finite real values of w's shape")
        if (gam < 0.0).any():
            raise ParameterError(f"gamma(w) must be >= 0; found {float(gam.min())} on the grid")
        n, idx = self.frames.dim, np.arange(self.frames.dim)
        self._ell = np.sqrt(gam[:, idx, idx]) * np.einsum("kaa->ka", abar).real   # (K, N)
        self._rate = rate = gam * np.abs(abar) ** 2    # (K, N, N)
        rate[:, idx, idx] = 0.0
        self._amp = np.sqrt(gam) * abar                # channel amplitudes
        self._amp[:, idx, idx] = 0.0
        shift = np.einsum("kab->kb", s_vals * np.abs(abar) ** 2)
        del abar, gam, s_vals, omega  # freed before the build's peak, the einsum into H_eff

        # H_eff - H is diagonal in the frame basis, diag(shift - i/2 (ell^2 + total
        # loss rate)): the drift of the unraveling, U drift U^dag, and of the dissipator
        self._drift = shift - 0.5j * (self._ell**2 + rate.sum(axis=1))
        # (N, N, K): the propagation core's complex stacks are step-axis-contiguous
        self._heff_add = np.einsum("iak,ka,jak->ijk", basis, self._drift, basis.conj())

        # the channels' labels and mask: the dephasing operator, then the transfers
        self._transfers = a_idx, b_idx = np.nonzero(~np.eye(n, dtype=bool))
        self.channel_labels = ((-1, -1), *zip(a_idx.tolist(), b_idx.tolist()))
        self.active_channels = np.concatenate(
            [np.any(self._ell != 0.0, axis=1)[:, None], self._amp[:, a_idx, b_idx] != 0.0], axis=1)
        for arr in (self._ell, self._rate, self._amp, self._drift, self._heff_add,
                    self.active_channels):
            arr.setflags(write=False)

    @cached_property
    def _dissipators(self) -> np.ndarray:
        """Each frame's dissipator as a real generator of coherence vectors,
        (K, N^2, N^2), built on first use, a chunk of frames at a time. In the
        frame basis U it maps rho_ij to c_ij rho_ij + delta_ij sum_l rate_il rho_ll,
        c_ij = -i (drift_i - drift_j^*) + ell_i ell_j, so with C_a = U^dag B_a U,
        D_ab = sum_ij (C_a)_ij^* c_ij (C_b)_ij + (C_a)_ii rate_ij (C_b)_jj. As (C_a)_ij =
        sum_pq (B_a)_pq conj(U_pi) U_qj, a chunk's C_a are one product of the (N^2, N^2)
        matrix of the B_a with the outer products conj(u_p) u_q^T of the frame rows u_p,
        (p, q, i, j, cell). Row 0, the trace, vanishes in Lindblad form;
        StateIntegrityError if above 1e-12 ||D||_1."""
        n, d, ell = self.frames.dim, self._drift, self._ell
        c_ij = -1j * (d[:, :, None] - d[:, None, :].conj()) + ell[:, :, None] * ell[:, None, :]
        out = np.empty((len(self.frames), n * n, n * n))
        step = max(_CHUNK_ENTRIES // n**4, 1)
        for cells in (slice(lo, lo + step) for lo in range(0, len(out), step)):
            u = _entries(self.frames.basis)[..., cells]                           # (N, N, C)
            pairs = (u.conj()[:, None, :, None] * u[None, :, None]).reshape(n * n, -1)
            c = (operator_basis(n).reshape(n * n, n * n) @ pairs).reshape(n * n, n * n, -1)
            c = np.ascontiguousarray(c.transpose(2, 0, 1))  # C_a of each cell, C order for @
            pops = c[:, :, :: n + 1].real
            out[cells] = ((c.conj() * c_ij[cells].reshape(-1, 1, n * n)) @ c.swapaxes(-1, -2)).real
            out[cells] += pops @ self._rate[cells] @ pops.swapaxes(-1, -2)
            ok = np.abs(out[cells, 0]).max(1) <= 1e-12 * np.abs(out[cells]).sum(1).max(1)
            if not ok.all():  # a NaN fails, an all-zero D passes
                t = float(self.frames.times[cells][np.argmin(ok)])
                raise StateIntegrityError(f"dissipator trace row above 1e-12 ||D||_1 at t = {t!r}")
        out[:, 0] = 0.0
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
        rho = check_array("rho", rho, complex)
        defect = hermiticity_defect(rho)
        if defect > HERMITICITY_INPUT_TOL:
            raise StateIntegrityError(
                f"input state non-Hermitian (defect {defect:.3e} > {HERMITICITY_INPUT_TOL:.0e})"
            )
        return density_matrix(self.liouvillian([t])[0] @ coherence_vector(rho))

    def effective_hamiltonian(self, times) -> np.ndarray:
        """Non-Hermitian drift H(t) + H_shift - (i/2) sum_c Lc^dag Lc at each
        of ``times``, (M, N, N)."""
        drift = np.take(self._heff_add, self.frames.index_at(times), axis=-1).transpose(2, 0, 1)
        return self.hamiltonian.on_grid(times) + drift

    def jump_channels(self, t: float):
        """Nonzero jump channels at the frame nearest to t.

        Returns a list of ((a, b), L) pairs: the dephasing operator, diagonal
        in the frame basis and labeled (-1, -1), then each rank-one operator
        transferring b -> a. An empty list means no dissipator. With
        ``effective_hamiltonian`` this is the master equation in explicit
        operators: d rho/dt = -i (H_eff rho - rho H_eff^dag) + sum L rho L^dag.
        Each operator is ``apply_jumps`` of the identity's columns.
        """
        n, k = self.frames.dim, self.frames.index_at(t)
        ops = self.apply_jumps(np.full(n, k), np.eye(n)).transpose(1, 2, 0)  # (C, N, N)
        return [(self.channel_labels[c], ops[c]) for c in np.flatnonzero(self.active_channels[k])]

    def apply_jumps(self, cells, psi) -> np.ndarray:
        """L_c psi for every channel c at the frames ``cells``, (M, C, N) in
        ``channel_labels`` order, for states psi (M, N). From the frame coordinates
        c = U^dag psi: U (ell c) for the dephasing operator, amp_ab c_b phi_a for
        each transfer b -> a."""
        u, (a_idx, b_idx) = self.frames.basis[cells], self._transfers   # (M, N, N)
        coords = np.einsum("mia,mi->ma", u.conj(), psi)
        dephased = np.einsum("mia,ma->mi", u, self._ell[cells] * coords)
        weights = self._amp[cells[:, None], a_idx, b_idx] * coords[:, b_idx]
        kicks = weights[..., None] * u[:, :, a_idx].swapaxes(1, 2)      # amp c_b phi_a
        return np.concatenate([dephased[:, None], kicks], axis=1)
