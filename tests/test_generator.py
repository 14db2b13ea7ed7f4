import math
import re
from dataclasses import replace

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

import superlind as sl

from lzutil import (constant_hamiltonian, excited_population, excited_state, ladder_hamiltonian,
                    lz_hamiltonian, lz_setup, random_density, random_hermitian)


def _constant_traj(matrix, t1=10.0, n=201):
    H = constant_hamiltonian(matrix)
    return H, sl.instantaneous_frames(H, np.linspace(0.0, t1, n))


def _jumps(gen, t):
    """The rank-one jump channels at t, dephasing left out: {(a, b): L}."""
    return {label: L for label, L in gen.jump_channels(t) if label != (-1, -1)}


def _dephasing(gen, t):
    """The dephasing operator at t, or zero when it is not a channel."""
    return dict(gen.jump_channels(t)).get((-1, -1), np.zeros((gen.frames.dim,) * 2))


def _shift(gen, t):
    """The shift Hamiltonian at t: the Hermitian part of H_eff - H."""
    drift = gen.effective_hamiltonian([t])[0] - gen.hamiltonian(t)
    return 0.5 * (drift + drift.conj().T)


def _unraveled_rhs(gen, rho, t):
    """The master equation as the Monte-Carlo unraveling applies it:
    -i (H_eff rho - rho H_eff^dag) + sum_c L_c rho L_c^dag."""
    heff = gen.effective_hamiltonian([t])[0]
    out = -1j * (heff @ rho - rho @ heff.conj().T)
    for _, L in gen.jump_channels(t):
        out += L @ rho @ L.conj().T
    return out


@settings(max_examples=60, deadline=None)
@given(n=st.sampled_from([2, 3, 4]), seed=st.integers(0, 2**32 - 1), pointwise=st.booleans())
def _real_generator_matches_assembly(n, seed, pointwise):
    """``liouvillian`` of a random N-level model, with random frames, equals
    Tr(B_a L(B_b)) of the operator assembly L in an orthonormal Hermitian
    basis B; it is real and its trace row is exactly zero. Building it passes
    the dissipator's trace-row check."""
    rng = np.random.default_rng(seed)

    def hermitian():
        return 2.0 * random_hermitian(rng, n)

    h0, h1 = hermitian(), hermitian()
    H = (sl.TimeDependentHamiltonian(n, lambda t: h0 + math.sin(t) * h1) if pointwise
         else sl.TimeDependentHamiltonian.affine(h0, h1))
    frames, _ = np.linalg.qr(rng.normal(size=(5, n, n)) + 1j * rng.normal(size=(5, n, n)))
    energies = np.sort(rng.normal(size=(5, n)), axis=1)
    traj = sl.FrameTrajectory(np.linspace(-1.0, 1.0, 5), frames, energies, 0, H)
    spec = replace(sl.ohmic_spectrum(0.08, 5.0, 0.4), shift=lambda w: 0.02 * np.asarray(w))
    gen = sl.LindbladGenerator(traj, hermitian(), spec)
    basis = sl.model.operator_basis(n)
    assert np.array_equal(basis[0], np.eye(n) / math.sqrt(n))
    assert np.array_equal(basis, basis.conj().transpose(0, 2, 1))
    assert np.max(np.abs(np.einsum("aij,bji->ab", basis, basis) - np.eye(n * n))) < 1e-15
    probes = rng.uniform(-1.2, 1.2, size=6)
    got = gen.liouvillian(probes)
    assert got.dtype == np.float64 and not got[:, 0].any()
    for t, g in zip(probes, got):
        images = np.array([_unraveled_rhs(gen, b, t) for b in basis])
        want = np.einsum("aji,bij->ab", basis, images)
        assert np.max(np.abs(g - want)) < 1e-12


@settings(max_examples=60, deadline=None)
@given(n=st.sampled_from([2, 3, 4]), seed=st.integers(0, 2**32 - 1),
       gamma0=st.floats(0.01, 1.0), temperature=st.floats(0.0, 2.0), cells=st.floats(0.1, 4.0))
def test_constant_h_cell_propagator_is_cptp(n, seed, gamma0, temperature, cells):
    """exp(h L) of one ``liouvillian`` matrix of a constant random N-level H, a random
    Hermitian coupling and an ohmic bath, over h of up to four cells, is completely
    positive and trace preserving: its Choi matrix sum_ij |i><j| (x) Phi(|i><j|) is
    positive semidefinite and its partial trace over the output is the identity.
    Over 300 draws the least Choi eigenvalue was -3.5e-16 and the partial-trace
    defect 4.4e-16; the bound, 1e-12, is rounding of an O(1) exponential."""
    linalg = pytest.importorskip("scipy.linalg")
    rng = np.random.default_rng(seed)
    # levels at least 0.2 apart: no degeneracy for the frames to trip on
    u, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    h0 = u @ np.diag(np.cumsum(rng.uniform(0.2, 2.0, n))) @ u.conj().T
    frames = sl.instantaneous_frames(constant_hamiltonian(h0), np.linspace(0.0, 1.0, 11))
    gen = sl.LindbladGenerator(frames, random_hermitian(rng, n),
                               sl.ohmic_spectrum(gamma0, 5.0, temperature))
    prop = linalg.expm(cells * frames.step * gen.liouvillian([0.5])[0])
    basis = sl.model.operator_basis(n)
    # Phi(|i><j|) = sum_a (P x)_a B_a with x_a = Tr(B_a |i><j|) = (B_a)_ji
    images = np.einsum("ab,bji,akl->ijkl", prop, basis, basis)
    choi = images.transpose(0, 2, 1, 3).reshape(n * n, n * n)
    assert np.linalg.eigvalsh(choi).min() >= -1e-12
    assert np.max(np.abs(np.einsum("ijkk->ij", images) - np.eye(n))) <= 1e-12


class TestLindbladOps:
    """The explicit operators: ``jump_channels`` and ``effective_hamiltonian``."""

    def test_diagonal_coupling_frame(self):
        # frame basis diagonalizes sigma_z, so sigma_z coupling produces no
        # jump operators and the dephasing operator is sqrt(gamma(0)) sigma_z
        H, traj = _constant_traj(0.5 * sl.sigma_z)
        spec = sl.ohmic_spectrum(0.1, 5.0, 0.5)
        gen = sl.LindbladGenerator(traj, sl.sigma_z, spec)
        [(label, dephasing)] = gen.jump_channels(1.0)
        assert label == (-1, -1)
        g0 = spec.gamma(0.0)
        assert np.allclose(dephasing, math.sqrt(g0) * sl.sigma_z, atol=1e-12)

    def test_transverse_frame(self):
        # sigma_x eigenframe: sigma_z has no diagonal part, and the
        # de-excitation channel carries rate gamma(gap)
        H, traj = _constant_traj(0.5 * sl.sigma_x)
        spec = sl.ohmic_spectrum(0.1, 5.0, 0.5)
        gen = sl.LindbladGenerator(traj, sl.sigma_z, spec)
        assert np.max(np.abs(_dephasing(gen, 2.0))) < 1e-12
        jumps = _jumps(gen, 2.0)
        down = jumps[(0, 1)]
        rate = float(np.trace(down.conj().T @ down).real)
        assert rate == pytest.approx(spec.gamma(1.0), rel=1e-12)
        up = jumps[(1, 0)]
        assert float(np.trace(up.conj().T @ up).real) == pytest.approx(
            spec.gamma(-1.0), rel=1e-12
        )

    def test_zero_temperature_kills_upward_jumps(self):
        H, traj = _constant_traj(0.5 * sl.sigma_x)
        gen = sl.LindbladGenerator(traj, sl.sigma_z, sl.ohmic_spectrum(0.1, 5.0, 0.0))
        assert set(_jumps(gen, 0.0)) == {(0, 1)}

    def test_jump_rank_one_and_frame_structure(self):
        H, _, times, base, traj = lz_setup(3.0, order=2)
        gen = sl.LindbladGenerator(traj, sl.sigma_z, sl.ohmic_spectrum(0.1, 5.0, 0.5))
        k = traj.index_at(1.7)
        U = traj.basis[k]
        deph_f = U.conj().T @ _dephasing(gen, 1.7) @ U
        assert np.max(np.abs(deph_f - np.diag(np.diag(deph_f)))) < 1e-12
        for L in _jumps(gen, 1.7).values():
            assert np.linalg.matrix_rank(L, tol=1e-12) == 1

    @staticmethod
    def _case_generator(case):
        """LZ at order 2 in a warm ohmic bath with a Lamb shift or in a cold one,
        or the 3-level ladder at order 2 in a warm one."""
        if case == "ladder":
            H = ladder_hamiltonian()
            traj = sl.superadiabatic_frames(H, 2, sl.adaptive_time_grid(H, -40.0, 40.0))
            coupling, spec = np.diag([1.0, 0.0, -1.0]), sl.ohmic_spectrum(0.05, 5.0, 0.5)
        else:
            H, _, _, _, traj = lz_setup(3.0, order=2)
            coupling = sl.sigma_z
            spec = sl.ohmic_spectrum(0.1, 5.0, 0.5 if case == "lz_warm" else 0.0)
            if case == "lz_warm":
                spec = replace(spec, shift=lambda w: 0.01 * np.asarray(w))
        return sl.LindbladGenerator(traj, coupling, spec)

    @pytest.mark.parametrize("case", ["lz_warm", "lz_cold", "ladder"])
    def test_channel_stack_matches_per_call_construction(self, case):
        # each operator of jump_channels must equal the one built from the
        # frame at call time, at every cell
        gen = self._case_generator(case)
        traj = gen.frames
        seen = set()
        for k, t in enumerate(traj.times):
            u = traj.basis[k]
            want = []
            if np.any(gen._ell[k] != 0.0):
                want.append(((-1, -1), np.einsum("ia,a,ja->ij", u, gen._ell[k], u.conj())))
            want += [((a, b), gen._amp[k, a, b] * np.outer(u[:, a], u[:, b].conj()))
                     for a, b in np.argwhere(gen._amp[k] != 0.0).tolist()]
            got = gen.jump_channels(t)
            assert [label for label, _ in got] == [label for label, _ in want]
            for (_, x), (_, y) in zip(got, want):
                np.testing.assert_allclose(x, y, rtol=0.0, atol=1e-15)
            seen.update(label for label, _ in got)
        # at T = 0 gamma(0) and gamma(-gap) vanish: only the downward channel
        assert seen == {"lz_warm": {(-1, -1), (0, 1), (1, 0)}, "lz_cold": {(0, 1)},
                        "ladder": {(-1, -1), (0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1)}}[case]

    @pytest.mark.parametrize("case", ["lz_warm", "lz_cold", "ladder"])
    def test_batched_kicks_match_jump_channels(self, case):
        # one apply_jumps call on rows at different cells: each row's L_c psi is
        # jump_channels at that row's time applied to psi, and exactly zero
        # for an inactive channel
        gen = self._case_generator(case)
        rng = np.random.default_rng(7)
        n, k = gen.frames.dim, len(gen.frames)
        cells = np.concatenate([[0, k - 1, k // 2, k // 2], rng.integers(0, k, 12)])
        psi = rng.normal(size=(cells.size, n)) + 1j * rng.normal(size=(cells.size, n))
        kicks = gen.apply_jumps(cells, psi)
        assert kicks.shape == (cells.size, len(gen.channel_labels), n)
        for row, cell in enumerate(cells.tolist()):
            ops = dict(gen.jump_channels(gen.frames.times[cell]))
            for c, label in enumerate(gen.channel_labels):
                if label not in ops:
                    assert not gen.active_channels[cell, c]
                    assert np.all(kicks[row, c] == 0.0)
                    continue
                np.testing.assert_allclose(kicks[row, c], ops[label] @ psi[row], rtol=0.0,
                                           atol=1e-15 * np.linalg.norm(psi[row]))

    def test_lamb_shift_diagonal_in_frame(self):
        H, traj = _constant_traj(0.5 * sl.sigma_x)
        spec = replace(sl.ohmic_spectrum(0.1, 5.0, 0.5), shift=lambda w: 0.01 * np.asarray(w))
        gen = sl.LindbladGenerator(traj, sl.sigma_z, spec)
        U = traj.basis[0]
        shift_f = U.conj().T @ _shift(gen, 0.0) @ U
        assert np.max(np.abs(shift_f - np.diag(np.diag(shift_f)))) < 1e-12
        # sum_a S(w_ab) |<a|A|b>|^2 on the two-level transverse frame
        expected = np.diag([spec.shift(-1.0), spec.shift(1.0)])
        assert np.allclose(shift_f, expected, atol=1e-12)

    def test_spectrum_without_shift_gives_no_shift(self):
        H, traj = _constant_traj(0.5 * sl.sigma_x)
        gen = sl.LindbladGenerator(traj, sl.sigma_z, sl.ohmic_spectrum(0.1, 5.0, 0.5))
        assert np.max(np.abs(_shift(gen, 0.0))) == 0.0

    def test_zero_spectrum_disables_dissipator(self):
        # its all-zero dissipator passes the trace-row check that ``rhs`` builds it through
        H, _, times, base, traj = lz_setup(2.0)
        gen = sl.LindbladGenerator(traj, sl.sigma_z, sl.dephasing_spectrum(0.0))
        assert gen.jump_channels(0.0) == []
        assert np.max(np.abs(gen.effective_hamiltonian([0.0])[0] - gen.hamiltonian(0.0))) == 0.0
        rho = random_density(np.random.default_rng(0))
        h0 = gen.hamiltonian(0.0)
        assert np.allclose(gen.rhs(rho, 0.0), -1j * (h0 @ rho - rho @ h0), atol=1e-14)

    def test_time_outside_grid(self):
        H, traj = _constant_traj(0.5 * sl.sigma_x, t1=5.0)
        gen = sl.LindbladGenerator(traj, sl.sigma_z, sl.dephasing_spectrum(0.1))
        with pytest.raises(sl.TimeDomainError):
            gen.jump_channels(6.0)

    def test_negative_custom_rate_rejected(self):
        H, traj = _constant_traj(0.5 * sl.sigma_x)
        bad = sl.BathSpectrum(lambda w: np.asarray(w, dtype=float))
        with pytest.raises(sl.ParameterError):
            sl.LindbladGenerator(traj, sl.sigma_z, bad)

    @pytest.mark.parametrize("which, spoil", [
        pytest.param(which, spoil, id=which if spoil == "nan" else f"{which}-{spoil}")
        for spoil in ("nan", "complex", "scalar", "none") for which in ("gamma", "shift")])
    def test_nonfinite_custom_rate_or_shift_rejected(self, which, spoil):
        # a NaN here once made the master-equation solve double its sub-steps forever;
        # a complex value was once cut to its real part, a scalar or None failed a reshape
        H, _, _, _, traj = lz_setup(1.0)
        rate = sl.ohmic_spectrum(0.1, 5.0, 0.5).gamma
        spoiled = {"nan": lambda f: lambda w: np.where(np.asarray(w) > 0.5, np.nan, f(w)),
                   "complex": lambda f: lambda w: f(w) + 0.05j,
                   "scalar": lambda f: lambda w: 0.1,
                   "none": lambda f: lambda w: None}[spoil]
        spectrum = (sl.BathSpectrum(spoiled(rate)) if which == "gamma"
                    else sl.BathSpectrum(rate, spoiled(lambda w: 0.1 * np.asarray(w))))
        # a complex value or None gets check_array's message, a NaN or a scalar the shape rule's
        with pytest.raises(sl.ParameterError,
                           match=rf"^{which}\(w\) must be (finite|a numeric array of float,)"):
            sl.LindbladGenerator(traj, sl.sigma_z, spectrum)


class TestMasterEquationRHS:
    def test_trace_annihilation_and_hermiticity(self):
        H, _, times, base, traj = lz_setup(3.0, order=1)
        gen = sl.LindbladGenerator(traj, sl.sigma_z, sl.ohmic_spectrum(0.1, 5.0, 0.5))
        rng = np.random.default_rng(42)
        for _ in range(100):
            rho = random_density(rng)
            t = rng.uniform(times[0], times[-1])
            out = gen.rhs(rho, t)
            assert abs(complex(np.trace(out))) < 1e-12
            assert np.max(np.abs(out - out.conj().T)) < 1e-12

    def test_matches_explicit_operator_assembly(self):
        # rhs equals the master equation rebuilt from the operators that the
        # Monte-Carlo unraveling uses (Dalibard, Castin, Molmer, PRL 68, 580
        # (1992)), on the LZ model and a three-level ladder at orders 0-4, and,
        # entry by entry of the real generator, on random models of 2, 3 and 4
        # levels; each of these dissipators passes the trace-row check of its build
        _real_generator_matches_assembly()
        ladder = ladder_hamiltonian()
        ladder_coupling = np.diag([1.0, 0.0, -1.0]) + 0.3 * (np.eye(3, k=1) + np.eye(3, k=-1))
        shifted = replace(sl.ohmic_spectrum(0.08, 5.0, 0.4), shift=lambda w: 0.02 * np.asarray(w))
        spectra = (shifted, sl.ohmic_spectrum(0.1, 5.0, 0.02), sl.ohmic_spectrum(0.1, 5.0, 0.5),
                   sl.dephasing_spectrum(0.1))
        rng = np.random.default_rng(9)
        for order in range(5):
            lz_traj = lz_setup(2.0, order=order)[-1]
            ladder_traj = sl.superadiabatic_frames(
                ladder, order, sl.adaptive_time_grid(ladder, -30.0, 30.0))
            for traj, coupling in ((lz_traj, sl.sigma_z), (ladder_traj, ladder_coupling)):
                for spec in spectra:
                    gen = sl.LindbladGenerator(traj, coupling, spec)
                    for _ in range(20):
                        rho = random_density(rng, traj.dim)
                        t = rng.uniform(traj.times[0], traj.times[-1])
                        assert np.max(np.abs(gen.rhs(rho, t) - _unraveled_rhs(gen, rho, t))) < 1e-12

    def test_dissipator_trace_row_is_exactly_zero(self):
        # the build checks the trace row against rounding, then zeroes it: the master
        # equation holds the trace by construction, so no solve reports its drift
        ladder = sl.instantaneous_frames(ladder_hamiltonian(), np.linspace(-30.0, 30.0, 61))
        ladder_coupling = np.diag([1.0, 0.0, -1.0]) + 0.3 * (np.eye(3, k=1) + np.eye(3, k=-1))
        for traj, coupling in ((lz_setup(3.0, order=2)[-1], sl.sigma_z),
                               (ladder, ladder_coupling)):
            gen = sl.LindbladGenerator(traj, coupling, sl.ohmic_spectrum(0.1, 5.0, 0.5))
            assert np.count_nonzero(gen._dissipators[:, 0]) == 0
            assert np.count_nonzero(gen._dissipators[:, 1:]) > 0

    @pytest.mark.parametrize("spoil, cell", [("halved gain", 0), ("nan", 3)])
    def test_unbalanced_trace_row_raises_naming_the_cell(self, spoil, cell):
        # half of each level's gain no longer balances the loss of the others, and
        # a NaN fails the check too; the build raises at the first such cell
        H, _, _, _, traj = lz_setup(6.0, order=4)
        gen = sl.LindbladGenerator(traj, sl.sigma_z, sl.ohmic_spectrum(0.1, 5.0, 0.5))
        gen._rate = (0.5 * gen._rate if spoil == "halved gain" else
                     np.where(np.arange(len(traj))[:, None, None] == cell, np.nan, gen._rate))
        at = re.escape(f"at t = {float(traj.times[cell])!r}") + "$"
        with pytest.raises(sl.StateIntegrityError, match=at) as info:
            gen.liouvillian([0.0])
        assert info.value.exit_code == 7

    @pytest.mark.parametrize("n", [2, 3])
    def test_chunking_leaves_the_dissipators_unchanged(self, monkeypatch, n):
        # the default build, one chunk here, against chunks of one cell and of four,
        # the last of which is ragged; a NaN rate in a later chunk names its cell
        H = lz_hamiltonian(2.0) if n == 2 else ladder_hamiltonian()
        traj = sl.superadiabatic_frames(H, 2, np.linspace(-12.0, 12.0, 97))
        spec = replace(sl.ohmic_spectrum(0.1, 5.0, 0.5), shift=lambda w: 0.02 * np.asarray(w))
        coupling = (sl.sigma_z if n == 2 else
                    np.diag([1.0, 0.0, -1.0]) + 0.3 * (np.eye(3, k=1) + np.eye(3, k=-1)))
        want = sl.LindbladGenerator(traj, coupling, spec)._dissipators
        assert len(traj) * n**4 <= sl.generator._CHUNK_ENTRIES
        for cells in (1, 4):
            monkeypatch.setattr(sl.generator, "_CHUNK_ENTRIES", cells * n**4)
            gen = sl.LindbladGenerator(traj, coupling, spec)
            assert gen._dissipators.tobytes() == want.tobytes()
            gen = sl.LindbladGenerator(traj, coupling, spec)
            gen._rate = np.where(np.arange(len(traj))[:, None, None] == 42, np.nan, gen._rate)
            at = re.escape(f"at t = {float(traj.times[42])!r}") + "$"
            with pytest.raises(sl.StateIntegrityError, match=at):
                gen._dissipators

    def test_frame_gauge_invariance(self):
        rng = np.random.default_rng(4)
        H, _, times, base, _ = lz_setup(2.0)
        phases = np.exp(1j * rng.uniform(0, 2 * np.pi, size=2))
        rephased = sl.FrameTrajectory(
            base.times, base.basis * phases[None, None, :], base.energies,
            order=0, hamiltonian=H,
        )
        spec = sl.ohmic_spectrum(0.1, 5.0, 0.5)
        gen_a = sl.LindbladGenerator(base, sl.sigma_z, spec)
        gen_b = sl.LindbladGenerator(rephased, sl.sigma_z, spec)
        for _ in range(10):
            rho = random_density(rng)
            t = rng.uniform(times[0], times[-1])
            assert np.max(np.abs(gen_a.rhs(rho, t) - gen_b.rhs(rho, t))) < 1e-12

    def test_superadiabatic_ground_state_immune_at_zero_temperature(self):
        # dephasing and the shift act trivially on a basis state, and at
        # temperature zero there is no upward jump out of the ground state
        H, _, times, base, traj = lz_setup(3.0, order=2)
        spec = replace(sl.ohmic_spectrum(0.1, 5.0, 0.0), shift=lambda w: 0.03 * np.asarray(w))
        gen = sl.LindbladGenerator(traj, sl.sigma_z, spec)
        for t_probe in (-3.0, 0.0, 2.0):
            k = traj.index_at(t_probe)
            ground = traj.basis[k, :, 0]
            rho = np.outer(ground, ground.conj())
            t = traj.times[k]
            h_tot = gen.hamiltonian(t) + _shift(gen, t)
            unitary_only = -1j * (h_tot @ rho - rho @ h_tot)
            assert np.max(np.abs(gen.rhs(rho, t) - unitary_only)) < 1e-13

    def test_uniform_diagonal_coupling_is_silent(self):
        # identity coupling gives L0 proportional to the identity: no effect
        H, traj = _constant_traj(0.5 * sl.sigma_x)
        gen = sl.LindbladGenerator(traj, np.eye(2, dtype=complex),
                                   sl.dephasing_spectrum(0.2))
        rng = np.random.default_rng(1)
        for _ in range(5):
            rho = random_density(rng)
            h0 = gen.hamiltonian(0.0)
            assert np.allclose(gen.rhs(rho, 0.0), -1j * (h0 @ rho - rho @ h0), atol=1e-13)

    def test_thermal_state_is_fixed_point_under_detailed_balance(self):
        beta = 2.0  # T = 0.5
        H, traj = _constant_traj(0.5 * sl.sigma_x)
        spec = sl.ohmic_spectrum(0.1, 5.0, 1.0 / beta, symmetric_cutoff=True)
        gen = sl.LindbladGenerator(traj, sl.sigma_z, spec)
        # e^{-beta H} for H = sigma_x / 2, normalized
        thermal = np.cosh(beta / 2) * np.eye(2) - np.sinh(beta / 2) * np.array(
            [[0.0, 1.0], [1.0, 0.0]]
        )
        thermal = (thermal / np.trace(thermal)).astype(complex)
        assert np.max(np.abs(gen.rhs(thermal, 5.0))) < 1e-12

    def test_non_hermitian_input_rejected(self):
        H, traj = _constant_traj(0.5 * sl.sigma_x)
        gen = sl.LindbladGenerator(traj, sl.sigma_z, sl.dephasing_spectrum(0.1))
        bad = np.array([[0.5, 0.1], [0.3, 0.5]], dtype=complex)
        with pytest.raises(sl.StateIntegrityError):
            gen.rhs(bad, 0.0)


class TestInstantaneousMode:
    def test_equivalent_for_constant_hamiltonian(self):
        # the instantaneous mode is the generator built on order-0 frames
        H, traj0 = _constant_traj(0.5 * sl.sigma_x)
        times = traj0.times
        traj2 = sl.superadiabatic_frames(H, 2, times, base=traj0)
        spec = sl.ohmic_spectrum(0.1, 5.0, 0.5)
        gen = sl.LindbladGenerator(traj2, sl.sigma_z, spec)
        inst = sl.LindbladGenerator(traj0, sl.sigma_z, spec)
        rng = np.random.default_rng(8)
        for _ in range(5):
            rho = random_density(rng)
            assert np.max(np.abs(gen.rhs(rho, 3.0) - inst.rhs(rho, 3.0))) < 1e-10


def test_effective_hamiltonian_matches_ops():
    H, _, times, base, traj = lz_setup(2.0, order=1)
    spec = replace(sl.ohmic_spectrum(0.1, 5.0, 0.5), shift=lambda w: 0.01 * np.asarray(w))
    gen = sl.LindbladGenerator(traj, sl.sigma_z, spec)
    probes = np.array([-4.0, 0.0, 3.3])
    heff = gen.effective_hamiltonian(probes)
    assert heff.shape == (3, 2, 2)
    for t, got in zip(probes, heff):
        k = traj.index_at(t)
        U = traj.basis[k]
        # first-principles shift: U diag_b(sum_a S(E_b - E_a) |<a|A|b>|^2) U^dag
        abar = U.conj().T @ sl.sigma_z @ U
        omega = traj.energies[k][None, :] - traj.energies[k][:, None]
        shift = U @ np.diag((spec.shift(omega) * np.abs(abar) ** 2).sum(axis=0)) @ U.conj().T
        total = sum(L.conj().T @ L for _, L in gen.jump_channels(t))
        expected = gen.hamiltonian(t) + shift - 0.5j * total
        assert np.max(np.abs(got - expected)) < 1e-12


@pytest.mark.parametrize("order", [0, 4])
def test_generator_takes_its_frames_hamiltonian(order):
    """The H of the master equation is the frames' H: a fourth argument may only
    repeat it, by identity as ``superadiabatic_frames`` checks its base, and
    leaves every output bit for bit the same."""
    H, _, times, _, traj = lz_setup(2.0, order=order)
    spec = sl.ohmic_spectrum(0.1, 5.0, 0.5)
    for other in (lz_hamiltonian(3.0), lz_hamiltonian(2.0)):  # another LZ model, an equal copy
        with pytest.raises(sl.ParameterError, match="hamiltonian must be the frames' own H"):
            sl.LindbladGenerator(traj, sl.sigma_z, spec, other)
    implied, repeated = (sl.LindbladGenerator(traj, sl.sigma_z, spec, h) for h in (None, H))
    assert implied.hamiltonian is repeated.hamiltonian is H
    with pytest.raises(AttributeError):
        implied.hamiltonian = lz_hamiltonian(3.0)
    points = np.linspace(times[0], times[-1], 37)
    assert np.array_equal(implied.liouvillian(points), repeated.liouvillian(points))
    assert np.array_equal(implied.effective_hamiltonian(points),
                          repeated.effective_hamiltonian(points))


def test_outputs_ignore_frame_column_phases():
    """Random per-point column phases of order-4 frames move the master-equation
    P and a 200-trajectory Monte-Carlo P at a fixed seed by at most 1e-13: for LZ
    at 1/v = 2 with a dephasing bath and with an ohmic one, for the affine
    three-level ladder (coupling diag(1, 0, -1)) with the ohmic bath, where the
    Monte-Carlo P is 0.03 (under dephasing it is 3e-10), and for a random
    four-level affine H and coupling with the ohmic bath (6853 grid points,
    recommended order 4, final ground population 0.97). The dissipator, the
    jump operators and psi0's global phase are gauge-invariant."""
    H, t_final, _, _, traj = lz_setup(2.0, order=4)
    lz = (H, t_final, traj, sl.sigma_z, excited_state(H, t_final))
    ladder = ladder_hamiltonian()
    ladder_traj = sl.superadiabatic_frames(ladder, 4, sl.adaptive_time_grid(ladder, -150.0, 150.0))
    ground = np.linalg.eigh(ladder(150.0))[1][:, 0]
    rng = np.random.default_rng(3)
    h0, h1, coupling = (random_hermitian(rng, 4) for _ in range(3))
    four = sl.TimeDependentHamiltonian.affine(h0, 0.25 * h1)
    four_traj = sl.superadiabatic_frames(four, 4, sl.adaptive_time_grid(four, -40.0, 40.0))
    cases = [(*lz, sl.dephasing_spectrum(0.1)), (*lz, sl.ohmic_spectrum(0.1, 5.0, 0.5)),
             (ladder, 150.0, ladder_traj, np.diag([1.0, 0.0, -1.0]), ground,
              sl.ohmic_spectrum(0.05, 5.0, 0.5)),
             (four, 40.0, four_traj, coupling, np.linalg.eigh(four(40.0))[1][:, 0],
              sl.ohmic_spectrum(0.05, 5.0, 0.5))]
    tcfg = sl.TrajectoryConfig(n_traj=200, seed=5)
    for H, t_final, traj, coupling, target, spectrum in cases:
        angles = np.random.default_rng(29).uniform(-np.pi, np.pi, (len(traj), traj.dim))
        phases = np.exp(1j * angles)
        turned = sl.FrameTrajectory(traj.times, traj.basis * phases[:, None, :], traj.energies,
                                    traj.order, H)
        probabilities = []
        for frames in (traj, turned):
            gen = sl.LindbladGenerator(frames, coupling, spectrum)
            psi0 = frames.basis[0, :, 0]
            me = sl.evolve_lindblad(gen, np.outer(psi0, psi0.conj()), -t_final, t_final)
            mc = sl.evolve_trajectories(gen, psi0, -t_final, t_final, tcfg)
            probabilities.append([excited_population(r.state, target) for r in (me, mc)])
        (me0, mc0), (me1, mc1) = probabilities
        assert 0.0 < mc0 < 1.0
        assert abs(me1 - me0) <= 1e-13 and abs(mc1 - mc0) <= 1e-13
