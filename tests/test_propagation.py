import math

import hypothesis.extra.numpy as hnp
import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

import superlind as sl

from lzutil import (
    excited_population,
    excited_state,
    ladder_hamiltonian,
    lz_setup,
    random_density,
)


def _sequential_march(generator, y0, edges, n, project=None):
    """Reference for `_march`: one Magnus-4 sub-step at a time, in order, and
    optionally ``project`` of the state at every edge before going on.

    Returns the largest h * ||A||_1 over the nodes and the edge states."""
    d = y0.size
    raw, y, worst = [y0], y0, 0.0
    for t0, t1 in zip(edges[:-1], edges[1:]):
        h = (t1 - t0) / n
        for k in range(n):
            a = generator(t0 + (k + sl.propagation._GAUSS) * h).reshape(2, 1, d, d)
            worst = max(worst, h * np.abs(a).sum(axis=-2).max())
            y = sl.propagation._expm(sl.propagation._magnus4(a[0], a[1], np.array([h])))[0] @ y
        raw.append(y)
        if project is not None:
            y = project(y)
    return worst, np.array(raw)


def _sequential_jumps(gen, rng, psi_a, psi_b, t_a, t_b, h_eff, threshold, events, cascades,
                      depth=0):
    """Reference for `_jumps`: one trajectory's crossing inside [t_a, t_b],
    handled alone, with channels from ``jump_channels`` at the step's middle
    and the pick by ``searchsorted``. Counts each re-crossing in
    ``cascades[0]``; returns the state at t_b and the new threshold."""
    if depth > 64:
        raise sl.StiffnessError("jump cascade did not terminate within one step")
    h = t_b - t_a
    gamma = 1j * (h_eff - h_eff.conj().T)
    f0, f1 = (float(np.vdot(p, p).real) for p in (psi_a, psi_b))
    d0, d1 = (-h * float(np.vdot(p, gamma @ p).real) for p in (psi_a, psi_b))
    c2, c3 = 3.0 * (f1 - f0) - 2.0 * d0 - d1, 2.0 * (f0 - f1) + d0 + d1
    lo, hi = 0.0, 1.0
    for _ in range(40):
        s = 0.5 * (lo + hi)
        if f0 - threshold + s * (d0 + s * (c2 + s * c3)) < 0.0:
            hi = s
        else:
            lo = s
    t_jump = t_a + 0.5 * (lo + hi) * h
    widths = np.array([t_jump - t_a, t_b - t_jump])
    nodes = np.array([t_a, t_jump]) + sl.propagation._GAUSS[:, None] * widths
    a = -1j * gen.effective_hamiltonian(nodes.ravel()).reshape(2, 2, *h_eff.shape)
    to_jump, rest = sl.propagation._expm(sl.propagation._magnus4(a[0], a[1], widths))
    psi = to_jump @ psi_a
    channels = gen.jump_channels(0.5 * (t_a + t_b))
    weights = np.array([float(np.vdot(L @ psi, L @ psi).real) for _, L in channels])
    pick = int(np.searchsorted(np.cumsum(weights), rng.uniform() * weights.sum()))
    label, op = channels[min(pick, len(channels) - 1)]
    psi = op @ psi
    psi = psi / np.linalg.norm(psi)
    if events is not None:
        events.append(sl.JumpEvent(time=float(t_jump), target=label[0], source=label[1]))
    threshold = rng.uniform()
    psi_end = rest @ psi
    if float(np.vdot(psi_end, psi_end).real) < threshold:
        cascades[0] += 1
        return _sequential_jumps(gen, rng, psi, psi_end, t_jump, t_b, h_eff, threshold, events,
                                 cascades, depth + 1)
    return psi_end, threshold


def _projected_solve(generator, y0, edges, project, cfg=sl.IntegratorConfig()):
    """Reference solve that projects the state at every edge: sequential
    passes with n doubling, compared from the first resolved one, then one
    Richardson step; returns the projected edge states."""
    n, prev = 1, None
    while True:
        worst, raw = _sequential_march(generator, y0, edges, n, project)
        if worst <= 1.0:
            if prev is not None:
                scale = cfg.atol + cfg.rtol * np.linalg.norm(raw, axis=1)
                if np.max(np.linalg.norm(raw - prev, axis=1) / scale) <= 1.0:
                    return np.array([project(y) for y in raw + (raw - prev) / 15.0])
            prev = raw
        n *= 2


def _unit_trace(x):
    """A coherence vector rescaled to unit trace, sqrt(N) x_0 = 1."""
    return x / (math.sqrt(math.isqrt(x.size)) * x[0])


def _unit_norm(y):
    return y / np.linalg.norm(y)


def _never(*args, **kwargs):
    raise AssertionError("the model was evaluated")


def _strong_bath_coarse():
    """A strong warm bath on a 21-point grid: several jumps share a lockstep
    step, and some trajectories cross again after a jump in one step."""
    H = sl.TimeDependentHamiltonian.constant(0.5 * sl.sigma_x + 0.3 * sl.sigma_z)
    traj = sl.instantaneous_frames(H, np.linspace(0.0, 10.0, 21))
    gen = sl.LindbladGenerator(traj, sl.sigma_z, sl.ohmic_spectrum(1.0, 5.0, 1.0), H)
    return gen, traj.basis[0, :, 0], traj


def _lz_coarse():
    """Dephased LZ master equation (v = 1) on a 41-point grid over [-2, 2]."""
    H = sl.lz_hamiltonian(sl.LZParams(v=1.0, delta=1.0))
    base = sl.instantaneous_frames(H, np.linspace(-2.0, 2.0, 41))
    gen = sl.LindbladGenerator(base, sl.sigma_z, sl.dephasing_spectrum(0.1), H)
    psi0 = base.basis[0, :, 0]
    return gen, np.outer(psi0, psi0.conj())


class TestExponentialCore:
    @settings(max_examples=200, deadline=None)
    @given(n=st.sampled_from([2, 3, 4]), lead=st.sampled_from([(5,), (1,), (3, 4), (2, 1)]),
           real_b=st.booleans(), data=st.data())
    def test_matmul_matches_numpy(self, n, lead, real_b, data):
        def draw():
            return data.draw(hnp.arrays(float, (*lead, n, n), elements=st.floats(
                -1e3, 1e3, allow_subnormal=False)))

        a = draw() + 1j * draw()
        b = draw() if real_b else draw() + 1j * draw()
        got = sl.propagation._matmul(a, b)
        assert got.dtype == complex and got.shape == (*lead, n, n)
        # the inner sum in another order; below the normal range rounding is
        # absolute, hence the tiny term. Largest entries, as squares underflow
        norms = np.abs(a).max(axis=(-2, -1)) * np.abs(b).max(axis=(-2, -1))
        bound = 1e-14 * n * norms[..., None, None] + n * np.finfo(float).tiny
        assert np.all(np.abs(got - a @ b) <= bound)
        # real stacks (the coherence-vector generators) are numpy's @ itself
        assert np.array_equal(sl.propagation._matmul(a.real, b.real), a.real @ b.real)

    def test_expm_matches_scipy(self):
        linalg = pytest.importorskip("scipy.linalg")
        theta9 = sl.propagation._THETA9
        rng = np.random.default_rng(3)
        for n in (2, 3, 4, 9):
            z = rng.normal(size=(6, n, n)) + 1j * rng.normal(size=(6, n, n))
            # complex stacks (-iH, -iH_eff) and their real parts (generators of
            # the coherence vector), whose exponentials must stay real
            for a in (z, z.real):
                unit = a / np.abs(a).sum(axis=-2).max(axis=-1)[:, None, None]   # 1-norms 1
                # 1-norms from 1e-3 to ~1e3: the larger ones need squaring
                wide = a * np.logspace(-3, 2, 6)[:, None, None]
                # all at most theta_9: the [9/9] approximant, unscaled; the
                # norms above it are halved into range and squared back
                below = np.array([1e-3, 0.1, 0.5, 0.9, 1 - 1e-9, 1 - 1e-12])[:, None, None]
                above = np.array([1 + 1e-12, 1 + 1e-9, 1.1, 1.5, 2.0, 2.5])[:, None, None]
                below, above = theta9 * below * unit, theta9 * above * unit
                mixed = np.concatenate([below[3:], above[:3]])
                for stack in (wide, below, above, mixed):
                    stack = np.concatenate([stack, np.zeros((1, n, n))])
                    got = sl.propagation._expm(stack)
                    # scipy's complex path as the reference: on the widest real
                    # n = 3 stack its real path is 1.6e-12 off a 40-digit one
                    want = np.stack([linalg.expm(m + 0j) for m in stack])
                    assert got.dtype == a.dtype
                    scale = np.abs(want).max(axis=(1, 2))[:, None, None]
                    assert np.max(np.abs(got - want) / scale) < 1e-12
                    assert np.array_equal(got[-1], np.eye(n))

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("kind", [complex, float])
    def test_expm_independent_of_stack(self, n, kind):
        # one matrix above theta_9 must not change how the others are exponentiated
        rng = np.random.default_rng(n)
        z = rng.normal(size=(40, n, n)) + 1j * rng.normal(size=(40, n, n))
        a = z if kind is complex else z.real
        norms = np.logspace(-2, 2, 40)[rng.permutation(40)]  # 1-norms 1e-2 to 1e2, shuffled
        a = a / np.abs(a).sum(axis=-2).max(axis=-1)[:, None, None] * norms[:, None, None]
        stack = sl.propagation._expm(a)
        assert stack.dtype == a.dtype
        assert np.array_equal(stack[:20], sl.propagation._expm(a[:20]))
        assert np.array_equal(stack, np.stack([sl.propagation._expm(m[None])[0] for m in a]))

    @pytest.mark.parametrize("case", ["me_n_below_chunk", "unitary_n_above_chunk",
                                      "ladder_n_below_chunk", "ladder_n_above_chunk"])
    def test_march_matches_sequential_reference(self, case):
        # block composition reorders only the rounding of the sub-step products
        if case == "me_n_below_chunk":                # N^2 = 4: chunk 1024
            gen, rho0 = _lz_coarse()
            mid = 0.5 * (gen.frames.times[:-1] + gen.frames.times[1:])
            edges = np.concatenate([[-2.0], mid, [2.0]])
            generator, y0, n = gen.liouvillian, sl.model.coherence_vector(rho0), 8
        elif case == "unitary_n_above_chunk":         # d = 2: chunk 1024
            H = sl.lz_hamiltonian(sl.LZParams(v=1.0, delta=1.0))
            edges = np.array([-2.0, -0.5, 2.0])
            y0, n = np.array([1.0, 0.0], complex), 2048

            def generator(times):
                return -1j * H.on_grid(times)
        else:                                         # N^2 = 9: chunk 4096 // 81 = 50 -> 32
            H = ladder_hamiltonian()
            base = sl.instantaneous_frames(H, sl.adaptive_time_grid(H, -12.0, -8.0))
            gen = sl.LindbladGenerator(base, np.diag([1.0, 0.0, -1.0]),
                                       sl.ohmic_spectrum(0.05, 5.0, 0.5), H)
            mid = 0.5 * (base.times[:-1] + base.times[1:])
            edges = np.concatenate([[-12.0], mid, [-8.0]])
            psi0 = base.basis[0, :, 0]
            y0 = sl.model.coherence_vector(np.outer(psi0, psi0.conj()))
            generator = gen.liouvillian
            n = 8 if case == "ladder_n_below_chunk" else 128
            edges = edges if n == 8 else edges[:6]
        worst, raw = sl.propagation._march(generator, y0, edges, n)
        assert worst <= 1.0
        _, want = _sequential_march(generator, y0, edges, n)
        assert np.max(np.abs(raw - want)) < 1e-13

    @pytest.mark.parametrize("engine", ["lindblad", "unitary"])
    def test_projecting_once_matches_projecting_every_edge(self, engine):
        # the Magnus exponent preserves trace, hermiticity and norm, so
        # projecting only the returned states moves them by rounding alone
        samples = np.array([-1.3, -0.05, 0.6, 1.45])
        if engine == "lindblad":
            gen, rho0 = _lz_coarse()
            res = sl.evolve_lindblad(gen, rho0, -2.0, 2.0, sample_times=samples)
            generator, y0, project = gen.liouvillian, sl.model.coherence_vector(rho0), _unit_trace
            breakpoints = 0.5 * (gen.frames.times[:-1] + gen.frames.times[1:])
            state = sl.model.density_matrix
        else:
            H = sl.lz_hamiltonian(sl.LZParams(v=1.0, delta=1.0))
            y0 = np.array([1.0, 0.0], complex)
            res = sl.evolve_unitary(H, y0, -2.0, 2.0, sample_times=samples)

            def generator(times):
                return -1j * H.on_grid(times)

            project, breakpoints, state = _unit_norm, (), np.asarray
        got = np.concatenate([res.samples, [res.state]])
        edges, at = sl.propagation._edges(-2.0, 2.0, samples, breakpoints)
        want = state(_projected_solve(generator, y0, edges, project)[np.append(at, -1)])
        assert np.max(np.abs(got - want)) < 1e-12

    def test_lindblad_matches_dop853_oracle(self):
        integrate = pytest.importorskip("scipy.integrate")
        gen, rho0 = _lz_coarse()
        times = gen.frames.times
        edges = np.concatenate([[-2.0], 0.5 * (times[:-1] + times[1:]), [2.0]])
        eps = 1e-9 * gen.frames.step
        y = rho0.ravel()
        for a, b in zip(edges[:-1], edges[1:]):
            # keep the snapped dissipator on this cell at its end points
            def f(t, y, a=a, b=b):
                return gen.rhs(y.reshape(2, 2), min(max(t, a + eps), b - eps)).ravel()

            sol = integrate.solve_ivp(f, (a, b), y, method="DOP853", rtol=1e-12, atol=1e-14)
            y = sol.y[:, -1]
        excited = excited_state(gen.hamiltonian, 2.0)
        ours = sl.evolve_lindblad(gen, rho0, -2.0, 2.0).state
        assert excited_population(ours, excited) == pytest.approx(
            excited_population(y.reshape(2, 2), excited), abs=1e-8
        )

    def test_sample_on_midpoint_equals_split_solve(self):
        gen, rho0 = _lz_coarse()
        mid = 0.5 * (gen.frames.times[17] + gen.frames.times[18])
        whole = sl.evolve_lindblad(gen, rho0, -2.0, 2.0, sample_times=[mid])
        first = sl.evolve_lindblad(gen, rho0, -2.0, mid)
        second = sl.evolve_lindblad(gen, first.state, mid, 2.0)
        assert np.max(np.abs(whole.samples[0] - first.state)) < 1e-8
        assert np.max(np.abs(whole.state - second.state)) < 1e-8


class TestEvolveUnitary:
    def test_rabi_half_period(self):
        # H = (delta/2) sigma_x for a time pi/delta maps (1,0) to (0,-i)
        H = sl.TimeDependentHamiltonian.constant(0.5 * sl.sigma_x)
        res = sl.evolve_unitary(H, np.array([1.0, 0.0], complex), 0.0, math.pi)
        target = np.array([0.0, -1.0j])
        assert abs(np.vdot(target, res.state)) == pytest.approx(1.0, abs=1e-9)

    def test_zero_hamiltonian_is_identity(self):
        H = sl.TimeDependentHamiltonian(2, lambda t: np.zeros((2, 2), complex))
        psi0 = np.array([0.6, 0.8j])
        res = sl.evolve_unitary(H, psi0, 0.0, 7.0)
        assert np.max(np.abs(res.state - psi0)) < 1e-12

    def test_closed_lz_transition_probability(self):
        H, t_final, _, base, _ = lz_setup(3.0)
        res = sl.evolve_unitary(H, base.basis[0, :, 0], -t_final, t_final)
        p = excited_population(res.state, excited_state(H, t_final))
        assert p == pytest.approx(math.exp(-1.5 * math.pi), rel=0.01)

    def test_norm_unity_along_samples(self):
        H, t_final, times, base, _ = lz_setup(2.0)
        res = sl.evolve_unitary(H, base.basis[0, :, 0], -t_final, t_final,
                                sample_times=times[:: len(times) // 20])
        norms = np.linalg.norm(res.samples, axis=1)
        assert np.max(np.abs(norms - 1.0)) < 1e-10
        assert np.allclose(res.samples[0], base.basis[0, :, 0])

    def test_unnormalized_input_rejected(self):
        H = sl.TimeDependentHamiltonian.constant(0.5 * sl.sigma_x)
        with pytest.raises(sl.StateIntegrityError):
            sl.evolve_unitary(H, np.array([1.0, 1.0], complex), 0.0, 1.0)

    def test_wrong_dimension_state_rejected(self, monkeypatch):
        H = sl.TimeDependentHamiltonian.constant(0.5 * sl.sigma_x)
        monkeypatch.setattr(H, "on_grid", _never)
        with pytest.raises(sl.DimensionError, match="dimension 3, the model 2"):
            sl.evolve_unitary(H, np.array([1.0, 0.0, 0.0], complex), 0.0, 1.0)

    def test_stiff_problem_raises(self):
        H = sl.TimeDependentHamiltonian(
            2, lambda t: (1.0 / (1.0 - t)) * np.asarray(sl.sigma_z)
        )
        with pytest.raises(sl.StiffnessError):
            sl.evolve_unitary(H, np.array([1.0, 0.0], complex), 0.0, 1.0)

    def test_tolerance_below_rounding_raises(self):
        # doubling the sub-steps stops shrinking the error estimate long before it
        # reaches 1e-16: the pass that fails to shrink it raises
        H = sl.lz_hamiltonian(sl.LZParams(v=1.0, delta=1.0))
        with pytest.raises(sl.StiffnessError, match="below rounding"):
            sl.evolve_unitary(H, np.array([1.0, 0.0], complex), -5.0, 5.0,
                              cfg=sl.IntegratorConfig(rtol=1e-14, atol=1e-16))


class TestEvolveLindblad:
    def test_closed_limit_matches_unitary(self):
        H, t_final, _, base, _ = lz_setup(2.0)
        gen = sl.LindbladGenerator(base, sl.sigma_z, sl.dephasing_spectrum(0.0), H)
        psi0 = base.basis[0, :, 0]
        uni = sl.evolve_unitary(H, psi0, -t_final, t_final)
        lind = sl.evolve_lindblad(gen, np.outer(psi0, psi0.conj()), -t_final, t_final)
        diff = np.max(np.abs(lind.state - np.outer(uni.state, uni.state.conj())))
        assert diff < 5e-6

    def test_frozen_frame_relaxation_rate(self):
        # static transverse Hamiltonian, zero-temperature bath: the excited
        # population decays exponentially at rate gamma(gap)
        H = sl.TimeDependentHamiltonian.constant(0.5 * sl.sigma_x)
        times = np.linspace(0.0, 30.0, 301)
        traj = sl.instantaneous_frames(H, times)
        spec = sl.ohmic_spectrum(0.1, 5.0, 0.0)
        gen = sl.LindbladGenerator(traj, sl.sigma_z, spec, H)
        exc = traj.basis[0, :, 1]
        res = sl.evolve_lindblad(
            gen, np.outer(exc, exc.conj()), 0.0, 30.0,
            sample_times=np.array([10.0, 20.0, 30.0]),
        )
        rate = spec.gamma(1.0)
        for t, rho in zip((10.0, 20.0, 30.0), res.samples):
            pe = float(np.real(exc.conj() @ rho @ exc))
            assert pe == pytest.approx(math.exp(-rate * t), abs=1e-6)

    def test_integrity_diagnostics(self):
        H, t_final, _, base, traj = lz_setup(2.0, order=2)
        gen = sl.LindbladGenerator(traj, sl.sigma_z, sl.ohmic_spectrum(0.1, 5.0, 0.5), H)
        psi0 = traj.basis[0, :, 0]
        res = sl.evolve_lindblad(gen, np.outer(psi0, psi0.conj()), -t_final, t_final)
        d = res.diagnostics
        assert d.max_trace_drift < 1e-8
        assert d.max_hermiticity_drift < 1e-10
        assert d.min_eigenvalue >= -1e-7
        assert d.n_steps > 0

    def test_rejected_steps_counted(self):
        # 41 intervals: -2, the 40 frame midpoints inside (-2, 2), 2. Passes
        # split each into 1, 2, 4, ... sub-steps and evaluate the generator
        # at two Gauss nodes per sub-step; the resolved passes before the
        # accepted one are counted as rejected.
        gen, rho0 = _lz_coarse()
        nodes = 0
        liouvillian = gen.liouvillian

        def counted(times):
            nonlocal nodes
            nodes += len(times)
            return liouvillian(times)

        gen.liouvillian = counted
        d = sl.evolve_lindblad(gen, rho0, -2.0, 2.0).diagnostics
        n = d.n_steps // 41
        assert d.n_steps == 41 * n and n & (n - 1) == 0
        assert nodes == 2 * 41 * (2 * n - 1)
        # rejected: the passes m, 2m, ..., n/2 from the first resolved one, m
        first_resolved = n - d.n_rejected / 41
        assert first_resolved in {2**k for k in range(n.bit_length() - 1)}

    def test_positivity_violation_detected(self):
        # a drift that is not of Lindblad form pumps coherence without bound
        H = sl.TimeDependentHamiltonian.constant(0.5 * sl.sigma_z)
        times = np.linspace(0.0, 50.0, 501)
        traj = sl.instantaneous_frames(H, times)

        class BrokenGenerator:
            frames = traj

            def liouvillian(self, times):
                # rho -> 0.2 sigma_x tr(rho) on coherence vectors: tr(rho) = x . x(I)
                op = 0.2 * np.outer(sl.model.coherence_vector(sl.sigma_x),
                                    sl.model.coherence_vector(np.eye(2)))
                return np.broadcast_to(op, (len(times), 4, 4))

        rho0 = np.diag([0.5, 0.5]).astype(complex)
        with pytest.raises(sl.PositivityError):
            sl.evolve_lindblad(BrokenGenerator(), rho0, 0.0, 50.0)

    def test_tight_tolerance_near_stationary_start(self):
        # the instantaneous ground state barely moves at the start of the
        # window; a tight tolerance must still complete and converge
        H = sl.lz_hamiltonian(sl.LZParams(v=1.0, delta=1.0))
        base = sl.instantaneous_frames(H, sl.adaptive_time_grid(H, -10.0, 10.0))
        gen = sl.LindbladGenerator(base, sl.sigma_z, sl.dephasing_spectrum(0.1), H)
        psi0 = base.basis[0, :, 0]
        rho0 = np.outer(psi0, psi0.conj())
        excited = excited_state(H, 10.0)
        tight = sl.evolve_lindblad(
            gen, rho0, -10.0, 10.0, cfg=sl.IntegratorConfig(rtol=1e-10, atol=1e-12)
        )
        default = sl.evolve_lindblad(gen, rho0, -10.0, 10.0)
        assert excited_population(tight.state, excited) == pytest.approx(
            excited_population(default.state, excited), abs=1e-8
        )

    def test_wrong_dimension_state_rejected(self, monkeypatch):
        gen, _ = _lz_coarse()
        monkeypatch.setattr(gen, "liouvillian", _never)
        with pytest.raises(sl.DimensionError, match="dimension 3, the model 2"):
            sl.evolve_lindblad(gen, np.eye(3, dtype=complex) / 3.0, -2.0, 2.0)

    def test_invalid_initial_state_rejected(self):
        H, _, _, base, _ = lz_setup(2.0)
        gen = sl.LindbladGenerator(base, sl.sigma_z, sl.dephasing_spectrum(0.0), H)
        with pytest.raises(sl.StateIntegrityError):
            sl.evolve_lindblad(gen, np.diag([0.9, 0.9]).astype(complex), -1.0, 1.0)


class TestEvolveTrajectories:
    def test_no_bath_matches_unitary_for_any_ensemble(self):
        H, t_final, _, base, _ = lz_setup(2.0)
        gen = sl.LindbladGenerator(base, sl.sigma_z, sl.dephasing_spectrum(0.0), H)
        psi0 = base.basis[0, :, 0]
        res = sl.evolve_trajectories(
            gen, psi0, -t_final, t_final, sl.TrajectoryConfig(n_traj=3, seed=5)
        )
        uni = sl.evolve_unitary(H, psi0, -t_final, t_final)
        assert all(len(j) == 0 for j in res.jumps)
        rho_uni = np.outer(uni.state, uni.state.conj())
        assert np.max(np.abs(res.state - rho_uni)) < 1e-6
        excited = excited_state(H, t_final)
        assert abs(
            excited_population(res.state, excited)
            - excited_population(rho_uni, excited)
        ) < 1e-4

    def test_first_jump_times_match_dop853_oracle(self):
        # before its first jump a trajectory drifts under the snapped H_eff
        # alone and jumps where ||psi||^2 crosses its first random draw
        integrate = pytest.importorskip("scipy.integrate")
        H, t_final, _, _, traj = lz_setup(3.0, order=4)
        gen = sl.LindbladGenerator(traj, sl.sigma_z, sl.ohmic_spectrum(0.1, 5.0, 0.5), H)
        psi0 = traj.basis[0, :, 0]
        m = 30
        res = sl.evolve_trajectories(gen, psi0, -t_final, t_final,
                                     sl.TrajectoryConfig(n_traj=m, seed=0))
        first = np.array([events[0].time for events in res.jumps])
        thresholds = [sl.propagation._traj_rng(0, i).uniform() for i in range(m)]
        times = traj.times
        edges = np.concatenate([[-t_final], 0.5 * (times[:-1] + times[1:]), [t_final]])
        eps = 1e-9 * traj.step
        want = np.full(m, np.nan)
        y = psi0
        for a, b in zip(edges[:-1], edges[1:]):
            pending = np.flatnonzero(np.isnan(want))
            if not pending.size:
                break

            def f(t, y, a=a, b=b):  # the snapped H_eff of this cell at its end points
                return -1j * (gen.effective_hamiltonian([min(max(t, a + eps), b - eps)])[0] @ y)

            crossings = [lambda t, y, c=thresholds[i]: np.vdot(y, y).real - c for i in pending]
            sol = integrate.solve_ivp(f, (a, b), y, method="DOP853", rtol=1e-12, atol=1e-14,
                                      events=crossings)
            for i, hits in zip(pending, sol.t_events):
                if hits.size:
                    want[i] = hits[0]
            y = sol.y[:, -1]
        # the lockstep takes two steps per frame cell
        assert np.max(np.abs(first - want)) < 1e-3 * traj.step / 2

    def test_three_level_ladder_matches_master_equation(self):
        H = ladder_hamiltonian()
        times = sl.adaptive_time_grid(H, -150.0, 150.0)
        traj = sl.superadiabatic_frames(H, 4, times)
        gen = sl.LindbladGenerator(traj, np.diag([1.0, 0.0, -1.0]),
                                   sl.ohmic_spectrum(0.05, 5.0, 0.5), H)
        psi0 = traj.basis[0, :, 0]
        ground = np.linalg.eigh(H(150.0))[1][:, 0]
        me = sl.evolve_lindblad(gen, np.outer(psi0, psi0.conj()), -150.0, 150.0)
        m = 500
        mc = sl.evolve_trajectories(gen, psi0, -150.0, 150.0,
                                    sl.TrajectoryConfig(n_traj=m, seed=0, record_jumps=False))
        p_me, p_mc = (1.0 - excited_population(r.state, ground) for r in (me, mc))
        assert abs(p_mc - p_me) < 4.0 * math.sqrt(p_me * (1.0 - p_me) / m)

    def test_batched_jumps_match_sequential_reference(self, monkeypatch):
        gen, psi0, traj = _strong_bath_coarse()
        tcfg = sl.TrajectoryConfig(n_traj=200, seed=4)
        batched = sl.evolve_trajectories(gen, psi0, 0.0, 10.0, tcfg)
        cascades = [0]

        def sequential(gen, cells, rngs, psi_a, psi_b, t_a, t_b, h_eff, thresholds, events):
            done = [_sequential_jumps(gen, rngs[i], psi_a[i], psi_b[i], t_a[i], t_b[i], h_eff[i],
                                      thresholds[i], events[i], cascades)
                    for i in range(len(rngs))]
            return np.array([psi for psi, _ in done]), np.array([thr for _, thr in done])

        monkeypatch.setattr(sl.propagation, "_jumps", sequential)
        reference = sl.evolve_trajectories(gen, psi0, 0.0, 10.0, tcfg)
        assert cascades[0] > 0
        assert [[(e.target, e.source) for e in evs] for evs in batched.jumps] == [
            [(e.target, e.source) for e in evs] for evs in reference.jumps]
        got = np.array([e.time for evs in batched.jumps for e in evs])
        want = np.array([e.time for evs in reference.jumps for e in evs])
        assert np.max(np.abs(got - want)) < 1e-12 * traj.step / 2
        assert np.max(np.abs(batched.state - reference.state)) < 1e-12

    @pytest.mark.parametrize("bath, match", [
        (sl.dephasing_spectrum(0.0), "no jump channel is active"),
        (sl.ohmic_spectrum(0.2, 5.0, 0.0), "all jump weights vanish"),
    ])
    def test_jump_without_weight_raises(self, bath, match):
        # a crossing in the ground state: no channel at all, or only the
        # downward one, which annihilates it (H and frames are diagonal, so
        # its weight is exactly zero)
        H = sl.TimeDependentHamiltonian.constant(0.5 * sl.sigma_z)
        traj = sl.instantaneous_frames(H, np.linspace(0.0, 1.0, 11))
        gen = sl.LindbladGenerator(traj, sl.sigma_x, bath, H)
        ground = traj.basis[0, :, :1].T
        with pytest.raises(sl.SuperlindError, match=match):
            sl.propagation._jumps(gen, np.array([0]), [sl.propagation._traj_rng(0, 0)], ground,
                                  0.5 * ground, np.array([0.0]), np.array([0.05]), H(0.0)[None],
                                  np.array([0.5]), None)

    def test_results_do_not_depend_on_block_length(self, monkeypatch):
        # blocks of one lockstep step each against the default, here one block
        gen, psi0, traj = _strong_bath_coarse()
        tcfg = sl.TrajectoryConfig(n_traj=200, seed=4, record_jumps=True)
        blocked = sl.evolve_trajectories(gen, psi0, 0.0, 10.0, tcfg)
        monkeypatch.setattr(sl.propagation, "_BLOCK_ENTRIES", 1)
        stepwise = sl.evolve_trajectories(gen, psi0, 0.0, 10.0, tcfg)
        assert [[(e.target, e.source) for e in evs] for evs in blocked.jumps] == [
            [(e.target, e.source) for e in evs] for evs in stepwise.jumps]
        got = np.array([e.time for evs in blocked.jumps for e in evs])
        want = np.array([e.time for evs in stepwise.jumps for e in evs])
        # the two group the step products differently, so the rounding of a
        # norm can move a jump time by one bisection quantum, 2^-40 of a
        # lockstep step (half of traj.step), and that jump's successors with it
        assert np.max(np.abs(got - want)) < 1e-12 * traj.step
        assert np.max(np.abs(blocked.state - stepwise.state)) < 1e-12

    def test_wrong_dimension_state_rejected(self, monkeypatch):
        gen, _ = _lz_coarse()
        monkeypatch.setattr(gen, "effective_hamiltonian", _never)
        with pytest.raises(sl.DimensionError, match="dimension 3, the model 2"):
            sl.evolve_trajectories(gen, np.array([1.0, 0.0, 0.0], complex), -2.0, 2.0,
                                   sl.TrajectoryConfig(n_traj=2))

    def test_seed_reproducibility(self):
        H, t_final, _, base, _ = lz_setup(2.0)
        gen = sl.LindbladGenerator(base, sl.sigma_z, sl.ohmic_spectrum(0.1, 5.0, 0.5), H)
        psi0 = base.basis[0, :, 0]
        a = sl.evolve_trajectories(gen, psi0, -t_final, t_final,
                                   sl.TrajectoryConfig(n_traj=20, seed=7))
        b = sl.evolve_trajectories(gen, psi0, -t_final, t_final,
                                   sl.TrajectoryConfig(n_traj=20, seed=7))
        c = sl.evolve_trajectories(gen, psi0, -t_final, t_final,
                                   sl.TrajectoryConfig(n_traj=20, seed=8))
        assert np.array_equal(a.state, b.state)
        assert [[e.time for e in traj] for traj in a.jumps] == [
            [e.time for e in traj] for traj in b.jumps
        ]
        assert not np.array_equal(a.state, c.state)

    def test_jump_records_correlate_with_excitation(self):
        # dephasing jumps in the instantaneous basis kick the state off the
        # adiabatic path; averaging over jump times leaves the ensemble far
        # more excited than the jump-free closed evolution
        H, t_final, _, base, _ = lz_setup(4.0)
        gen = sl.LindbladGenerator(base, sl.sigma_z, sl.dephasing_spectrum(0.1), H)
        psi0 = base.basis[0, :, 0]
        excited = excited_state(H, t_final)
        res = sl.evolve_trajectories(
            gen, psi0, -t_final, t_final, sl.TrajectoryConfig(n_traj=150, seed=17)
        )
        assert all(len(j) > 0 for j in res.jumps)
        p_mc = excited_population(res.state, excited)
        closed = sl.evolve_unitary(H, psi0, -t_final, t_final)
        p_closed = excited_population(closed.state, excited)
        assert p_mc > 2.0 * p_closed

    def test_record_flag_off(self):
        H, t_final, _, base, _ = lz_setup(2.0)
        gen = sl.LindbladGenerator(base, sl.sigma_z, sl.dephasing_spectrum(0.05), H)
        res = sl.evolve_trajectories(
            gen, base.basis[0, :, 0], -t_final, t_final,
            sl.TrajectoryConfig(n_traj=4, seed=1, record_jumps=False),
        )
        assert res.jumps is None

    def test_jump_event_fields(self):
        H = sl.TimeDependentHamiltonian.constant(0.5 * sl.sigma_x)
        times = np.linspace(0.0, 80.0, 801)
        traj = sl.instantaneous_frames(H, times)
        gen = sl.LindbladGenerator(traj, sl.sigma_z, sl.ohmic_spectrum(0.2, 5.0, 0.0), H)
        exc = traj.basis[0, :, 1]
        res = sl.evolve_trajectories(gen, exc, 0.0, 80.0,
                                     sl.TrajectoryConfig(n_traj=8, seed=3))
        events = [e for traj_events in res.jumps for e in traj_events]
        assert events, "zero-temperature decay must produce jumps"
        assert all(0.0 < e.time < 80.0 for e in events)
        # only the de-excitation channel exists at zero temperature
        assert {(e.target, e.source) for e in events} == {(0, 1)}


class TestBlochVector:
    def test_poles_and_center(self):
        assert sl.bloch_vector(np.diag([1.0, 0.0]).astype(complex)) == (0.0, 0.0, 1.0)
        assert sl.bloch_vector(0.5 * np.eye(2, dtype=complex)) == (0.0, 0.0, 0.0)

    def test_pure_states_on_sphere(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            psi = rng.normal(size=2) + 1j * rng.normal(size=2)
            psi /= np.linalg.norm(psi)
            x, y, z = sl.bloch_vector(np.outer(psi, psi.conj()))
            assert x * x + y * y + z * z == pytest.approx(1.0, abs=1e-12)

    def test_stack_matches_pointwise(self):
        rng = np.random.default_rng(13)
        rhos = np.array([random_density(rng) for _ in range(12)]).reshape(3, 4, 2, 2)
        x, y, z = sl.bloch_vector(rhos)
        assert x.shape == y.shape == z.shape == (3, 4)
        for i in range(3):
            for j in range(4):
                assert (x[i, j], y[i, j], z[i, j]) == sl.bloch_vector(rhos[i, j])

    def test_dimension_error(self):
        with pytest.raises(sl.DimensionError):
            sl.bloch_vector(np.eye(3, dtype=complex) / 3.0)
        with pytest.raises(sl.DimensionError):
            sl.bloch_vector(np.zeros((5, 3, 3), dtype=complex))


class TestConfigsAndValidators:
    def test_integrator_config_validation(self):
        with pytest.raises(sl.ParameterError):
            sl.IntegratorConfig(rtol=0.0)
        with pytest.raises(sl.ParameterError):
            sl.IntegratorConfig(atol=-1.0)

    def test_trajectory_config_validation(self):
        with pytest.raises(sl.ParameterError):
            sl.TrajectoryConfig(n_traj=0)

    @pytest.mark.parametrize("kwargs", [
        {"n_traj": 2.5}, {"n_traj": 2.0}, {"n_traj": True}, {"n_traj": 2, "seed": 1.5},
        {"n_traj": 2, "seed": False}, {"n_traj": 2, "seed": "1"},
    ])
    def test_trajectory_config_rejects_non_integers(self, kwargs):
        with pytest.raises(sl.ParameterError, match="must be an integer"):
            sl.TrajectoryConfig(**kwargs)

    def test_trajectory_config_accepts_numpy_integers(self):
        H, t_final, _, base, _ = lz_setup(2.0)
        gen = sl.LindbladGenerator(base, sl.sigma_z, sl.dephasing_spectrum(0.05), H)
        args = (gen, base.basis[0, :, 0], -t_final, t_final)
        a = sl.evolve_trajectories(*args, sl.TrajectoryConfig(n_traj=np.int64(3), seed=np.int64(2)))
        b = sl.evolve_trajectories(*args, sl.TrajectoryConfig(n_traj=3, seed=2))
        assert np.array_equal(a.state, b.state)

    @pytest.mark.parametrize("t0,t1,samples", [
        (-math.inf, 1.0, None), (0.0, math.inf, None), (math.nan, 1.0, None),
        (0.0, math.nan, None), (0.0, 1.0, [0.0, math.nan]), (0.0, 1.0, [math.nan, 0.5]),
    ])
    def test_edges_reject_non_finite_times(self, t0, t1, samples):
        with pytest.raises(sl.ParameterError):
            sl.propagation._edges(t0, t1, samples)

    @pytest.mark.parametrize("engine", ["lindblad", "trajectories"])
    def test_span_checked_against_frame_grid(self, engine):
        gen, rho0 = _lz_coarse()
        psi0 = gen.frames.basis[0, :, 0]

        def solve(t0, t1):
            if engine == "lindblad":
                return sl.evolve_lindblad(gen, rho0, t0, t1)
            return sl.evolve_trajectories(gen, psi0, t0, t1, sl.TrajectoryConfig(n_traj=2))

        solve(-2.04, 2.04)  # within index_at's half cell (step 0.1) of the grid [-2, 2]
        for t0, t1 in ((-2.5, 2.0), (-2.0, 2.2)):
            with pytest.raises(sl.TimeDomainError) as err:
                solve(t0, t1)
            assert str(err.value) == (
                f"[t0, t1] = [{t0!r}, {t1!r}] is not inside the frame grid [-2.0, 2.0]"
            )

    def test_lindblad_rejects_nan_sample_time(self):
        gen, rho0 = _lz_coarse()
        with pytest.raises(sl.ParameterError):
            sl.evolve_lindblad(gen, rho0, -2.0, 2.0, sample_times=[0.0, math.nan])

    def test_density_matrix_validator(self):
        with pytest.raises(sl.StateIntegrityError):
            sl.check_density_matrix(np.array([[0.5, 0.3], [0.1, 0.5]], complex))
        with pytest.raises(sl.StateIntegrityError):
            sl.check_density_matrix(np.array([[1.2, 0.0], [0.0, -0.2]], complex))
        ok = sl.check_density_matrix(np.diag([0.25, 0.75]).astype(complex))
        assert np.allclose(ok, np.diag([0.25, 0.75]))


def test_time_series_writers(tmp_path):
    H = sl.TimeDependentHamiltonian.constant(0.5 * sl.sigma_x)
    psi0 = np.array([1.0, 0.0], complex)
    times = np.linspace(0.0, 2.0, 5)
    res = sl.evolve_unitary(H, psi0, 0.0, 2.0, sample_times=times)
    rhos = [np.outer(s, s.conj()) for s in res.samples]
    bpath = tmp_path / "bloch.csv"
    sl.write_bloch_csv(bpath, times, rhos, header_lines=["case = rabi"])
    lines = bpath.read_text().splitlines()
    assert lines[:4] == [
        "# superlind bloch time series",
        "# case = rabi",
        "# convention: x = 2 Re rho01, y = 2 Im rho10, z = rho00 - rho11",
        "t,x,y,z",
    ]
    assert len(lines) == 4 + len(times)
    assert lines[4] == "0,0,0,1"
