import functools
import math
import warnings

import hypothesis.extra.numpy as hnp
import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import assume, example, given, settings

import superlind as sl

from lzutil import (
    constant_hamiltonian,
    excited_population,
    excited_state,
    ladder_hamiltonian,
    lz_setup,
    random_density,
    random_hermitian,
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
    and the pick by ``searchsorted``. Appends each jump's (time, target, source)
    to ``events`` and counts each re-crossing in ``cascades[0]``; returns the
    state at t_b and the new threshold."""
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
    events.append((float(t_jump), label[0], label[1]))
    threshold = rng.uniform()
    psi_end = rest @ psi
    if float(np.vdot(psi_end, psi_end).real) < threshold:
        cascades[0] += 1
        return _sequential_jumps(gen, rng, psi, psi_end, t_jump, t_b, h_eff, threshold, events,
                                 cascades, depth + 1)
    return psi_end, threshold


def _numpy_stream(seed, index):
    """numpy's own generator of trajectory ``index``'s random stream."""
    return np.random.Generator(np.random.Philox(key=np.array([seed, index], dtype=np.uint64)))


def _literal_bisection(c):
    """Reference for `_crossing`: the 40 levels of the jump-time bisection of the
    cubics c0 + s (c1 + s (c2 + s c3)), one level at a time for the whole batch."""
    lo = np.zeros(c.shape[1])
    for i in range(1, 41):
        mid = lo + 0.5**i
        lo = np.where(c[0] + mid * (c[1] + mid * (c[2] + mid * c[3])) < 0.0, lo, mid)
    return lo


def _hermite(f0, f1, d0, d1, threshold):
    """The coefficient rows of ||psi||^2 - threshold as `_jumps` forms them from the
    squared norms f and scaled slopes d at the ends of a step."""
    f0, f1, d0, d1 = (np.asarray(x, dtype=float) for x in (f0, f1, d0, d1))
    return np.stack([f0 - threshold, d0, 3.0 * (f1 - f0) - 2.0 * d0 - d1,
                     2.0 * (f0 - f1) + d0 + d1])


@st.composite
def _crossing_rows(draw):
    """(f0, f1, d0, d1, threshold) with f0 >= threshold > f1: from random ends and
    slopes, both signs, so some cubics turn inside the step, and from ends within
    1e-16..1e-14 of the threshold, which puts the crossing that close to an end."""
    threshold = draw(st.floats(1e-3, 1.0))
    near = st.sampled_from([0.0, 1e-16, 3e-15, 1e-14])
    f0 = threshold + draw(near | st.floats(0.0, 1.0)) * (1.0 - threshold)
    f1 = threshold - draw(near.filter(bool) | st.floats(1e-16, 1.0)) * threshold
    slope = st.sampled_from([0.0]) | st.floats(-5.0, 5.0) | st.floats(-1e-3, 0.0)
    assume(f0 >= threshold > f1)
    return f0, f1, draw(slope), draw(slope), threshold


def _projected_solve(generator, y0, edges, project, cfg=sl.IntegratorConfig()):
    """Reference solve that projects the state at every edge: sequential
    passes with n doubling, compared from the first resolved one, accepted on
    the Richardson error estimate |raw - prev| / 15 (in full where the change
    is within the pass's rounding), then one Richardson step; returns the
    projected edge states."""
    n, prev = 1, None
    while True:
        worst, raw = _sequential_march(generator, y0, edges, n, project)
        if worst <= sl.propagation._THETA9:
            if prev is not None:
                diff, size = np.linalg.norm(raw - prev, axis=1), np.linalg.norm(raw, axis=1)
                rounding = n * (len(edges) - 1) * np.finfo(float).eps * size
                est = np.where(diff < rounding, diff, diff / 15.0)
                if np.max(est / (cfg.atol + cfg.rtol * size)) <= 1.0:
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
    H = constant_hamiltonian(0.5 * sl.sigma_x + 0.3 * sl.sigma_z)
    traj = sl.instantaneous_frames(H, np.linspace(0.0, 10.0, 21))
    gen = sl.LindbladGenerator(traj, sl.sigma_z, sl.ohmic_spectrum(1.0, 5.0, 1.0))
    return gen, traj.basis[0, :, 0], traj


def _walk_case(steps, at, psi, thresholds):
    """A lifting walk's inputs as arrays: a block's (B, N, N) step stack, and
    start edges, states and thresholds of the trajectories."""
    return (np.asarray(steps, dtype=complex), np.asarray(at), np.asarray(psi, dtype=complex),
            np.asarray(thresholds, dtype=float))


@st.composite
def _walks(draw):
    """Random contractive 2x2 or 3x3 steps, B = 1..20 of them (so B = 1 and ragged
    blocks occur), and trajectories at random start edges, with thresholds at or
    below their squared norm there and far from it at every later edge, past
    rounding."""
    n, b, m = draw(st.sampled_from([2, 3])), draw(st.integers(1, 20)), draw(st.integers(1, 6))
    unit = st.floats(-1.0, 1.0)
    raw = draw(hnp.arrays(float, (2, b, n, n), elements=unit))
    steps = raw[0] + 1j * raw[1]
    shrink = draw(hnp.arrays(float, b, elements=st.floats(0.5, 1.0)))
    steps *= (shrink / np.maximum(np.linalg.norm(steps, ord=2, axis=(1, 2)), 1.0))[:, None, None]
    at = draw(hnp.arrays(int, m, elements=st.integers(0, b)))
    psi = draw(hnp.arrays(float, (m, n), elements=unit)) + 0j
    fractions = draw(hnp.arrays(float, m, elements=st.floats(0.0, 1.0)))
    thresholds = fractions * np.einsum("mi,mi->m", psi.conj(), psi).real
    for s, y, thr in zip(at, psi, thresholds):
        for step in steps[s:]:
            y = step @ y
            assume(abs(np.vdot(y, y).real - thr) > 1e-9)
    return _walk_case(steps, at, psi, thresholds)


def _lz_coarse(points=41):
    """Dephased LZ master equation (v = 1) on a grid of ``points`` over [-2, 2]."""
    H = sl.lz_hamiltonian(sl.LZParams(v=1.0, delta=1.0))
    base = sl.instantaneous_frames(H, np.linspace(-2.0, 2.0, points))
    gen = sl.LindbladGenerator(base, sl.sigma_z, sl.dephasing_spectrum(0.1))
    psi0 = base.basis[0, :, 0]
    return gen, np.outer(psi0, psi0.conj())


def _ladder_coarse():
    """The ohmic three-level ladder's master equation over [-12, -8]."""
    H = ladder_hamiltonian()
    base = sl.instantaneous_frames(H, sl.adaptive_time_grid(H, -12.0, -8.0))
    return sl.LindbladGenerator(base, np.diag([1.0, 0.0, -1.0]),
                                sl.ohmic_spectrum(0.05, 5.0, 0.5))


@functools.cache
def _march_problem(d):
    """A generator of size d x d (2: closed LZ, 4: dephased LZ, 9: the ladder),
    an initial state and the span of times it may be called on."""
    if d == 2:
        H = sl.lz_hamiltonian(sl.LZParams(v=1.0, delta=1.0))
        return (lambda times: -1j * H.on_grid(times)), np.array([1.0, 0.0], complex), (-2.0, 2.0)
    gen = _lz_coarse()[0] if d == 4 else _ladder_coarse()
    psi0 = gen.frames.basis[0, :, 0]
    times = gen.frames.times
    y0 = sl.model.coherence_vector(np.outer(psi0, psi0.conj()))
    return gen.liouvillian, y0, (float(times[0]), float(times[-1]))


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

    @pytest.mark.parametrize("n, kind", [(3, complex), (4, float), (9, float), (9, complex)])
    def test_expm_matches_40_digit_reference(self, n, kind):
        # the degree-24 Taylor polynomial at half and all of theta_9, the largest
        # 1-norm it takes unscaled. Random matrices, and +- column-stochastic ones,
        # whose spectral radius is their 1-norm, so that their powers do not
        # shrink: degree 20 would be 1e-14 to 1e-12 off on those at theta_9
        mpmath = pytest.importorskip("mpmath")
        theta9 = sl.propagation._THETA9
        rng = np.random.default_rng(n)
        z = rng.normal(size=(3, n, n)) + (1j * rng.normal(size=(3, n, n)) if kind is complex else 0)
        unit = z / np.abs(z).sum(axis=-2).max(axis=-1)[:, None, None]
        stochastic = rng.uniform(size=(2, n, n))
        stochastic /= stochastic.sum(axis=-2, keepdims=True)
        sign = np.array([1.0, -1.0] if kind is float else [1j, np.exp(2.5j)])
        unit = np.concatenate([unit, sign[:, None, None] * stochastic])
        a = np.concatenate([0.5 * theta9 * unit, (1 - 1e-15) * theta9 * unit])
        assert np.all(sl.propagation._norm1(a) <= theta9)
        got = sl.propagation._expm(a)
        with mpmath.workdps(40):
            want = np.array([mpmath.expm(mpmath.matrix(m.tolist())).tolist() for m in a],
                            dtype=complex)
        assert got.dtype == kind
        scale = np.abs(want).max(axis=(1, 2))[:, None, None]
        assert np.max(np.abs(got - want) / scale) < 2e-15

    def test_expm_keeps_the_trace_row_exactly(self):
        # a real Liouvillian's row 0 is zero, so every power's is, and the
        # exponential's row 0 is e_0 bit for bit: the trace is conserved
        theta9 = sl.propagation._THETA9
        for gen in (_lz_coarse()[0], _ladder_coarse()):
            a = gen.liouvillian(np.linspace(gen.frames.times[0], gen.frames.times[-1], 64))
            assert not np.any(a[:, 0])
            for scale in (theta9, 4.0 * theta9):  # unscaled, and squared twice
                got = sl.propagation._expm(a * (scale / sl.propagation._norm1(a))[:, None, None])
                assert np.all(got[:, 0] == np.eye(a.shape[-1])[0])

    def test_norm1_matches_numpy(self):
        rng = np.random.default_rng(5)
        for shape in [(7, 2, 2), (2, 5, 4, 4), (3, 9, 9)]:
            for a in (rng.normal(size=shape), rng.normal(size=shape) + 1j * rng.normal(size=shape)):
                want = np.abs(a).sum(axis=-2).max(axis=-1)
                assert np.array_equal(sl.propagation._norm1(a), want)

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

    @pytest.mark.parametrize("n", [2, 3, 4, 9])
    @pytest.mark.parametrize("kind", [complex, float])
    def test_expm_independent_of_stack(self, n, kind):
        # one matrix above theta_9 must not change how the others are exponentiated,
        # in a stack of 40 or of the march's chunk for this n
        rng = np.random.default_rng(n)
        for size in (40, sl.propagation._chunk(n)):
            z = rng.normal(size=(size, n, n)) + 1j * rng.normal(size=(size, n, n))
            a = z if kind is complex else z.real
            norms = np.logspace(-2, 2, size)[rng.permutation(size)]  # 1e-2 to 1e2, shuffled
            a = a / np.abs(a).sum(axis=-2).max(axis=-1)[:, None, None] * norms[:, None, None]
            stack = sl.propagation._expm(a)
            assert stack.dtype == a.dtype
            assert np.array_equal(stack[:20], sl.propagation._expm(a[:20]))
            assert np.array_equal(stack, np.stack([sl.propagation._expm(m[None])[0] for m in a]))

    @pytest.mark.parametrize("kind", [complex, float])
    def test_expm_2x2_exact_at_zero_and_nilpotent(self, kind):
        # sinh(s)/s is 1 at s = 0: the identity and I + A, bit for bit
        b = (2.5 - 1.5j) if kind is complex else 2.5
        a = np.array([np.zeros((2, 2)), [[0.0, b], [0.0, 0.0]], [[0.0, 0.0], [b, 0.0]]], dtype=kind)
        got = sl.propagation._expm(a)
        assert got.dtype == kind
        assert np.array_equal(got[0], np.eye(2))
        assert np.array_equal(got[1:], np.eye(2) + a[1:])

    def test_expm_2x2_far_apart_levels_stay_finite(self):
        # levels 0 and -1600 or -2000, where e^mu underflows and cosh s
        # overflows, and two levels near -1000, whose exponential underflows
        linalg = pytest.importorskip("scipy.linalg")
        a = np.array([[[-1600.0, 1.0], [0.0, 0.0]], [[-1000.0, 3.0], [2.0, -1000.0]],
                      [[-1000.0, 1000.0], [1000.0, -1000.0]], [[0.0, 7.0], [0.0, -1600.0]]])
        for stack in (a, a + 0j):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = sl.propagation._expm(stack)
            assert got.dtype == stack.dtype and np.all(np.isfinite(got))
            # scipy squares 11 times here: 5e-14 off the exact 0.5 of the third
            want = np.stack([linalg.expm(m + 0j) for m in stack])
            assert np.max(np.abs(got - want)) < 1e-12

    def test_expm_2x2_unitary(self):
        # anti-Hermitian stacks at 1-norm <= 1, the unitary core's sub-steps
        rng = np.random.default_rng(7)
        z = rng.normal(size=(500, 2, 2)) + 1j * rng.normal(size=(500, 2, 2))
        a = 0.5j * (z + z.conj().swapaxes(1, 2))
        a *= rng.uniform(0.0, 1.0, 500)[:, None, None] / np.abs(a).sum(axis=-2).max(axis=-1)[
            :, None, None]
        u = sl.propagation._expm(a)
        assert np.max(np.abs(u.conj().swapaxes(1, 2) @ u - np.eye(2))) < 1e-14

    @pytest.mark.parametrize("case", ["me_n_below_chunk", "me_n1_many_chunks",
                                      "unitary_n_above_chunk", "ladder_n_below_chunk",
                                      "ladder_n_above_chunk"])
    def test_march_matches_sequential_reference(self, case):
        # block composition and the prefix scan reorder only the rounding of the
        # sub-step products; the "above" cases take twice the chunk of their d, so
        # they hold blocks, and "many_chunks" scans 1024 blocks, then 477
        def above(d):
            return 2 * sl.propagation._chunk(d)

        if case.startswith("me_"):                    # d = N^2 = 4, n below its chunk of 1024
            gen, rho0 = _lz_coarse(41 if case == "me_n_below_chunk" else 1501)
            mid = 0.5 * (gen.frames.times[:-1] + gen.frames.times[1:])
            edges = np.concatenate([[-2.0], mid, [2.0]])
            generator, y0 = gen.liouvillian, sl.model.coherence_vector(rho0)
            n = 8 if case == "me_n_below_chunk" else 1
        elif case == "unitary_n_above_chunk":         # d = 2
            H = sl.lz_hamiltonian(sl.LZParams(v=1.0, delta=1.0))
            edges = np.array([-2.0, -0.5, 2.0])
            y0, n = np.array([1.0, 0.0], complex), above(2)

            def generator(times):
                return -1j * H.on_grid(times)
        else:                                         # d = N^2 = 9
            gen = _ladder_coarse()
            base = gen.frames
            mid = 0.5 * (base.times[:-1] + base.times[1:])
            edges = np.concatenate([[-12.0], mid, [-8.0]])
            psi0 = base.basis[0, :, 0]
            y0 = sl.model.coherence_vector(np.outer(psi0, psi0.conj()))
            generator = gen.liouvillian
            n = 8 if case == "ladder_n_below_chunk" else above(9)
            edges = edges if n == 8 else edges[:6]
        worst, raw = sl.propagation._march(generator, y0, edges, n)
        assert worst <= 1.0
        _, want = _sequential_march(generator, y0, edges, n)
        assert np.max(np.abs(raw - want)) < 1e-13

    @pytest.mark.parametrize("blocks", [1, 3, 5, 7, 129])
    def test_march_ragged_last_chunk(self, blocks):
        # one sub-step per interval at d = 9: a full chunk of blocks, then a last
        # chunk of 1 to 129, whose scan runs on strided views of any length
        generator, y0, (t0, t1) = _march_problem(9)
        edges = np.linspace(t0, t1, sl.propagation._chunk(9) + blocks + 1)
        worst, raw = sl.propagation._march(generator, y0, edges, 1)
        assert worst <= 1.0
        _, want = _sequential_march(generator, y0, edges, 1)
        assert np.max(np.abs(raw - want)) < 1e-13

    @settings(max_examples=30, deadline=None)
    @given(d=st.sampled_from([2, 4, 9]), n=st.sampled_from([1, 2, 4]),
           blocks=st.integers(1, 600), seed=st.integers(0, 2**32 - 1))
    def test_march_matches_sequential_reference_on_random_edges(self, d, n, blocks, seed):
        # random edge sets with n below every chunk, so each interval is one block:
        # up to 600 blocks, one chunk or several, the last ragged, and some
        # intervals of zero width
        generator, y0, (t0, t1) = _march_problem(d)
        rng = np.random.default_rng(seed)
        inner = np.sort(rng.uniform(t0, t1, blocks - 1))
        inner[rng.uniform(size=inner.size) < 0.05] = t0  # repeated edges
        edges = np.sort(np.concatenate([[t0], inner, [t1]]))
        worst, raw = sl.propagation._march(generator, y0, edges, n)
        assume(worst <= sl.propagation._THETA9)
        _, want = _sequential_march(generator, y0, edges, n)
        assert np.max(np.abs(raw - want)) < 1e-13

    @pytest.mark.parametrize("length", [1, 2, 3, 5, 7, 8, 64, 129, 255, 256, 600])
    def test_scan_prefix_products_in_at_most_two_per_matrix(self, length, monkeypatch):
        # permutation matrices multiply exactly and do not commute, so the scan must
        # equal the sequential products bit for bit, in the right order
        rng = np.random.default_rng(length)
        q = np.eye(5)[[rng.permutation(5) for _ in range(length)]].swapaxes(1, 2).copy()
        want, acc = [], np.eye(5)
        for m in q:
            acc = m @ acc
            want.append(acc)
        products, matmul = [], sl.propagation._matmul  # pairwise products of each round
        monkeypatch.setattr(sl.propagation, "_matmul",
                            lambda a, b: products.append(len(a)) or matmul(a, b))
        got = sl.propagation._scan(q)
        assert got is q and np.array_equal(got, want)
        assert sum(products) <= 2 * length
        assert len(products) <= 2 * (length.bit_length() - 1)

    def test_chunk_is_the_nearest_power_of_two(self):
        # within sqrt(2) of _CHUNK_ENTRIES matrix entries, for every d the engines use
        for d in range(2, 17):
            c = sl.propagation._chunk(d)
            assert c & (c - 1) == 0
            assert abs(math.log2(c * d * d / sl.propagation._CHUNK_ENTRIES)) <= 0.5
        assert [sl.propagation._chunk(d) for d in (2, 4, 9)] == [4096, 1024, 256]

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


def _steps_contiguous(stack):
    """Whether each entry of a (M, N, N) stack holds its M steps contiguously."""
    return np.moveaxis(stack, 0, -1).flags.c_contiguous


def _step_contiguous_copy(stack):
    """A copy of a (M, N, N) stack laid out by the storage rule, ``model._stack``."""
    out = sl.model._stack(stack.shape)
    out[...] = stack
    return out


class TestStackLayout:
    """The core stores complex stacks with the step axis contiguous, which makes
    numpy's loops over them fast, and real stacks in C order, where ``@`` is
    fastest. The layout is a speed property only: no result changes a bit with it."""

    @staticmethod
    def _nodes(n, m=64):
        """A random affine N x N H, and -iH at the two Gauss nodes of m sub-steps as
        the core reads them: one ``on_grid`` stack, reshaped (2, m, N, N)."""
        rng = np.random.default_rng(n)
        H = sl.TimeDependentHamiltonian.affine(random_hermitian(rng, n), random_hermitian(rng, n))
        return H, (-1j * H.on_grid(np.linspace(-1.0, 1.0, 2 * m))).reshape(2, m, n, n)

    @pytest.mark.parametrize("n", [2, 3])
    def test_complex_stacks_keep_the_step_axis_contiguous(self, n):
        core = sl.propagation
        H, a = self._nodes(n)
        gen = _lz_coarse()[0] if n == 2 else _ladder_coarse()
        assert _steps_contiguous(H.on_grid(np.linspace(-1.0, 1.0, 9)))
        if n == 2:  # the closed form's eigenvectors; LAPACK's, for N > 2, are C-ordered
            assert _steps_contiguous(sl.model._eigh(H.on_grid(np.linspace(-1.0, 1.0, 9)))[1])
        assert _steps_contiguous(gen.effective_hamiltonian(gen.frames.times[:9]))
        m = core._magnus4(a[0], a[1], np.full(a.shape[1], 0.05))
        big = m * (4.0 * core._THETA9 / core._norm1(m))[:, None, None]  # squared twice
        c_ordered = np.ascontiguousarray(a[0])
        for stack in (m, core._matmul(a[0], a[1]), core._matmul(c_ordered, c_ordered),
                      core._expm(m), core._expm(big)):
            assert stack.dtype == complex and _steps_contiguous(stack)

    @pytest.mark.parametrize("n", [2, 4, 9])
    def test_real_stacks_stay_c_ordered(self, n):
        rng = np.random.default_rng(n)
        a, b = rng.normal(size=(2, 16, n, n))
        assert sl.propagation._matmul(a, b).flags.c_contiguous
        for scale in (0.5, 8.0):  # unscaled, and squared (the Taylor polynomial for n > 2)
            got = sl.propagation._expm(scale * a / sl.propagation._norm1(a)[:, None, None])
            assert got.dtype == float and got.flags.c_contiguous

    @pytest.mark.parametrize("n", [2, 3])
    def test_results_independent_of_the_input_layout(self, n):
        # C-ordered, Fortran-ordered and step-contiguous copies of the same values
        core = sl.propagation
        H, a = self._nodes(n)
        big = a * (4.0 * core._THETA9 / core._norm1(a[0]))[:, None, None]  # squared twice
        y0 = np.linalg.eigh(H(-1.0))[1][:, 0]
        edges = np.linspace(-1.0, 1.0, 7)
        results = []
        for layout in (np.ascontiguousarray, np.asfortranarray, _step_contiguous_copy):
            x, y, z = layout(a[0]), layout(a[1]), layout(big[0])
            results.append([core._matmul(x, y), core._expm(x), core._expm(z), core._norm1(x),
                            *core._march(lambda times: layout(-1j * H.on_grid(times)), y0,
                                         edges, 8)])
        assert results[0][-1] is not None  # every sub-step resolved: the march's edge states
        for got in results[1:]:
            assert all(np.array_equal(g, w) for g, w in zip(got, results[0]))


def _dop853(f, y0, edges):
    """Reference states at ``edges`` of y' = f(t, y, a, b), one DOP853 solve
    (rtol 1e-12, atol 1e-14) per interval [a, b] between consecutive edges."""
    integrate = pytest.importorskip("scipy.integrate")
    out = [y0]
    for a, b in zip(edges[:-1], edges[1:]):
        sol = integrate.solve_ivp(lambda t, y, a=a, b=b: f(t, y, a, b), (a, b), out[-1],
                                  method="DOP853", rtol=1e-12, atol=1e-14)
        out.append(sol.y[:, -1])
    return np.array(out)


def _lz_propagator(v, t0, t1):
    """Exact U(t1, t0) of H = 0.5 [[-v t, 1], [1, v t]] at 30 digits. With
    tau = sqrt(v) t and g = 1 / (2 sqrt(v)), the Weber functions
    c1 = D_{i g^2}(+-e^{-i pi/4} tau) and c2 = (i dc1/dtau + tau c1 / 2) / g give
    two independent solutions (c1, c2) (Zener, Proc. R. Soc. A 137, 696 (1932));
    U = Y(tau1) Y(tau0)^-1 of the matrix Y whose columns they are."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        root = mpmath.sqrt(v)
        g, rot = 1 / (2 * root), mpmath.expjpi(-0.25)
        nu = 1j * g**2

        def solutions(t):
            tau, columns = root * t, []
            for a in (rot, -rot):
                d = mpmath.pcfd(nu, a * tau)
                # dc1/dtau = a D'(a tau), with D'(z) = z D(z) / 2 - D_{nu+1}(z)
                slope = a * (a * tau / 2 * d - mpmath.pcfd(nu + 1, a * tau))
                columns.append([d, (1j * slope + tau * d / 2) / g])
            return mpmath.matrix(columns).T

        u = solutions(t1) * solutions(t0) ** -1
        return np.array(u.tolist(), dtype=complex)


class TestToleranceMet:
    """Every state an accepted solve returns lies within atol + rtol |y| (vector
    2-norms) of a tight DOP853 reference y, with atol = rtol / 100."""

    @staticmethod
    def _assert_within(got, want, rtol):
        err = np.linalg.norm(got - want, axis=1)
        assert np.all(err <= rtol / 100 + rtol * np.linalg.norm(want, axis=1))

    @pytest.mark.parametrize("rtol", [1e-6, 1e-8, 1e-10])
    def test_unitary_lz(self, rtol):
        H = sl.lz_hamiltonian(sl.LZParams(v=1.0, delta=1.0))
        psi0 = np.array([1.0, 0.0], complex)
        samples = np.linspace(-4.0, 4.0, 9)
        res = sl.evolve_unitary(H, psi0, -5.0, 5.0, sample_times=samples,
                                cfg=sl.IntegratorConfig(rtol=rtol, atol=rtol / 100))
        want = _dop853(lambda t, y, a, b: -1j * (H(t) @ y), psi0,
                       np.concatenate([[-5.0], samples, [5.0]]))
        self._assert_within(np.concatenate([res.samples, [res.state]]), want[1:], rtol)

    @pytest.mark.parametrize("rtol", [1e-6, 1e-8, 1e-10])
    def test_unitary_ladder(self, rtol):
        # N = 3: the Taylor exponential and the products of complex 3 x 3 stacks
        H = ladder_hamiltonian()
        psi0 = np.linalg.eigh(H(-12.0))[1][:, 0]
        samples = np.linspace(-11.5, -8.5, 7)
        res = sl.evolve_unitary(H, psi0, -12.0, -8.0, sample_times=samples,
                                cfg=sl.IntegratorConfig(rtol=rtol, atol=rtol / 100))
        want = _dop853(lambda t, y, a, b: -1j * (H(t) @ y), psi0,
                       np.concatenate([[-12.0], samples, [-8.0]]))
        self._assert_within(np.concatenate([res.samples, [res.state]]), want[1:], rtol)

    @pytest.mark.parametrize("inv_v", [1.0, 2.0, 4.0, 6.0])
    def test_unitary_lz_exact_propagator(self, inv_v):
        """The closed LZ solve from the order-4 frame at -25/v to +25/v, against
        the exact propagator of the parabolic-cylinder solutions."""
        H, t_final, _, _, traj = lz_setup(inv_v, order=4)
        psi0 = traj.basis[0, :, 0]
        cfg = sl.IntegratorConfig()
        res = sl.evolve_unitary(H, psi0, -t_final, t_final, cfg=cfg)
        want = _lz_propagator(1.0 / inv_v, -t_final, t_final) @ psi0
        assert np.linalg.norm(res.state - want) <= cfg.atol + cfg.rtol * np.linalg.norm(want)

    @pytest.mark.parametrize("case", ["lz_coarse", "ladder"])
    @pytest.mark.parametrize("rtol", [1e-6, 1e-8, 1e-10])
    def test_lindblad(self, case, rtol):
        # every frame midpoint is a sample; the reference holds the snapped
        # dissipator of each cell between two of them
        if case == "lz_coarse":
            gen, rho0 = _lz_coarse()
            t0, t1 = -2.0, 2.0
        else:                                        # N = 3, a short window
            H = ladder_hamiltonian()
            base = sl.instantaneous_frames(H, sl.adaptive_time_grid(H, -12.0, -8.0))
            gen = sl.LindbladGenerator(base, np.diag([1.0, 0.0, -1.0]),
                                       sl.ohmic_spectrum(0.05, 5.0, 0.5))
            psi0 = base.basis[0, :, 0]
            rho0, t0, t1 = np.outer(psi0, psi0.conj()), -12.0, -8.0
        times = gen.frames.times
        mid = 0.5 * (times[:-1] + times[1:])
        mid = mid[(mid > t0) & (mid < t1)]
        eps = 1e-9 * gen.frames.step

        def f(t, x, a, b):
            return gen.liouvillian([min(max(t, a + eps), b - eps)])[0] @ x

        want = _dop853(f, sl.model.coherence_vector(rho0), np.concatenate([[t0], mid, [t1]]))
        res = sl.evolve_lindblad(gen, rho0, t0, t1, sample_times=mid,
                                 cfg=sl.IntegratorConfig(rtol=rtol, atol=rtol / 100))
        got = sl.model.coherence_vector(np.concatenate([res.samples, [res.state]]))
        self._assert_within(got, want[1:], rtol)


class TestEvolveUnitary:
    def test_rabi_half_period(self):
        # H = (delta/2) sigma_x for a time pi/delta maps (1,0) to (0,-i)
        H = constant_hamiltonian(0.5 * sl.sigma_x)
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

    def test_diagnostics_count_power_of_two_sub_steps(self):
        # 21 intervals: -t_final, the 20 sample times (the first of them -t_final
        # again, an interval of zero width), t_final; every pass splits each into
        # the same power of two of sub-steps
        H, t_final, times, base, _ = lz_setup(2.0)
        samples = times[:: len(times) // 20][:20]
        d = sl.evolve_unitary(H, base.basis[0, :, 0], -t_final, t_final,
                              sample_times=samples).diagnostics
        n = d.n_steps // 21
        assert d.n_steps == 21 * n and n > 1 and n & (n - 1) == 0
        assert d.n_rejected % 21 == 0 and d.n_rejected < d.n_steps
        assert 0.0 <= d.max_trace_drift < 1e-8
        assert d.min_eigenvalue == 0.0  # a pure state

    def test_unnormalized_input_rejected(self):
        H = constant_hamiltonian(0.5 * sl.sigma_x)
        with pytest.raises(sl.StateIntegrityError):
            sl.evolve_unitary(H, np.array([1.0, 1.0], complex), 0.0, 1.0)

    def test_wrong_dimension_state_rejected(self, monkeypatch):
        H = constant_hamiltonian(0.5 * sl.sigma_x)
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


def _closed_limit_cases():
    """(H, window edge, frames) for LZ at v = 0.5: the adaptive grid of the
    standard window, and instantaneous frames on a uniform grid over [-6, 6]."""
    H, t_final, _, base, _ = lz_setup(2.0)
    uniform = sl.instantaneous_frames(H, np.linspace(-6.0, 6.0, 601))
    return (H, t_final, base), (H, 6.0, uniform)


class TestEvolveLindblad:
    def test_closed_limit_matches_unitary(self):
        for (H, t_final, frames), bound in zip(_closed_limit_cases(), (5e-6, 1e-7)):
            gen = sl.LindbladGenerator(frames, sl.sigma_z, sl.dephasing_spectrum(0.0))
            psi0 = frames.basis[0, :, 0]
            uni = sl.evolve_unitary(H, psi0, -t_final, t_final)
            lind = sl.evolve_lindblad(gen, np.outer(psi0, psi0.conj()), -t_final, t_final)
            rho_uni = np.outer(uni.state, uni.state.conj())
            assert np.max(np.abs(lind.state - rho_uni)) < bound
            assert abs(np.sum(np.square(sl.bloch_vector(rho_uni))) - 1.0) < 1e-8

    def test_frozen_frame_relaxation_rate(self):
        # static transverse Hamiltonian, zero-temperature bath: the excited
        # population decays exponentially at rate gamma(gap)
        H = constant_hamiltonian(0.5 * sl.sigma_x)
        times = np.linspace(0.0, 30.0, 301)
        traj = sl.instantaneous_frames(H, times)
        spec = sl.ohmic_spectrum(0.1, 5.0, 0.0)
        gen = sl.LindbladGenerator(traj, sl.sigma_z, spec)
        exc = traj.basis[0, :, 1]
        res = sl.evolve_lindblad(
            gen, np.outer(exc, exc.conj()), 0.0, 30.0,
            sample_times=np.array([10.0, 20.0, 30.0]),
        )
        rate = spec.gamma(1.0)
        for t, rho in zip((10.0, 20.0, 30.0), res.samples):
            pe = float(np.real(exc.conj() @ rho @ exc))
            assert pe == pytest.approx(math.exp(-rate * t), abs=1e-6)

    def test_integrity_diagnostics(self, monkeypatch):
        traces = []

        def spy(*args, _propagate=sl.propagation._propagate):
            raw, steps, rejected = _propagate(*args)
            traces.append(np.trace(sl.model.density_matrix(raw), axis1=1, axis2=2))
            return raw, steps, rejected

        monkeypatch.setattr(sl.propagation, "_propagate", spy)
        H, t_final, _, base, traj = lz_setup(2.0, order=2)
        gen = sl.LindbladGenerator(traj, sl.sigma_z, sl.ohmic_spectrum(0.1, 5.0, 0.5))
        psi0 = traj.basis[0, :, 0]
        res = sl.evolve_lindblad(gen, np.outer(psi0, psi0.conj()), -t_final, t_final)
        d = res.diagnostics
        # the coherence vectors hold the trace before the one renormalization, by
        # construction: the field that would report its drift is left at 0.0
        assert len(traces) == 1 and np.max(np.abs(traces[0] - 1.0)) < 1e-12
        assert d.max_trace_drift == 0.0
        assert sl.model.hermiticity_defect(res.state) < 1e-10
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
        H = constant_hamiltonian(0.5 * sl.sigma_z)
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
        gen = sl.LindbladGenerator(base, sl.sigma_z, sl.dephasing_spectrum(0.1))
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
        gen = sl.LindbladGenerator(base, sl.sigma_z, sl.dephasing_spectrum(0.0))
        with pytest.raises(sl.StateIntegrityError):
            sl.evolve_lindblad(gen, np.diag([0.9, 0.9]).astype(complex), -1.0, 1.0)


class TestEvolveTrajectories:
    def test_no_bath_matches_unitary_for_any_ensemble(self):
        ensembles = ((3, 5, 1e-6), (4, 0, 1e-7))  # n_traj, seed, bound
        for (H, t_final, frames), (n_traj, seed, bound) in zip(_closed_limit_cases(), ensembles):
            gen = sl.LindbladGenerator(frames, sl.sigma_z, sl.dephasing_spectrum(0.0))
            psi0 = frames.basis[0, :, 0]
            res = sl.evolve_trajectories(
                gen, psi0, -t_final, t_final, sl.TrajectoryConfig(n_traj=n_traj, seed=seed)
            )
            uni = sl.evolve_unitary(H, psi0, -t_final, t_final)
            assert res.jumps.size == 0 and res.jumps.dtype == sl.propagation._JUMP_DTYPE
            rho_uni = np.outer(uni.state, uni.state.conj())
            assert np.max(np.abs(res.state - rho_uni)) < bound
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
        gen = sl.LindbladGenerator(traj, sl.sigma_z, sl.ohmic_spectrum(0.1, 5.0, 0.5))
        psi0 = traj.basis[0, :, 0]
        m = 30
        res = sl.evolve_trajectories(gen, psi0, -t_final, t_final,
                                     sl.TrajectoryConfig(n_traj=m, seed=0))
        jumped, at = np.unique(res.jumps["trajectory"], return_index=True)
        assert jumped.tolist() == list(range(m))
        first = res.jumps["time"][at]  # each trajectory's jumps are in time order
        thresholds = [_numpy_stream(0, i).uniform() for i in range(m)]
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
                                   sl.ohmic_spectrum(0.05, 5.0, 0.5))
        psi0 = traj.basis[0, :, 0]
        ground = np.linalg.eigh(H(150.0))[1][:, 0]
        me = sl.evolve_lindblad(gen, np.outer(psi0, psi0.conj()), -150.0, 150.0)
        m = 500
        mc = sl.evolve_trajectories(gen, psi0, -150.0, 150.0,
                                    sl.TrajectoryConfig(n_traj=m, seed=0))
        p_me, p_mc = (1.0 - excited_population(r.state, ground) for r in (me, mc))
        assert abs(p_mc - p_me) < 4.0 * math.sqrt(p_me * (1.0 - p_me) / m)

    def test_batched_jumps_match_sequential_reference(self, monkeypatch):
        # every batch of crossings that the run hands to _jumps is handled again,
        # one trajectory at a time, by the reference on the same inputs and compared
        # call by call: end to end, a jump time that rounding moved by one bisection
        # quantum would move its successors too
        gen, psi0, traj = _strong_bath_coarse()
        tcfg = sl.TrajectoryConfig(n_traj=200, seed=4)
        batched, cascades, rngs, calls = sl.propagation._jumps, [0], {}, [0]

        def checked(gen, cells, streams, rows, psi_a, psi_b, t_a, t_b, h_eff, thresholds):
            got = batched(gen, cells, streams, rows, psi_a, psi_b, t_a, t_b, h_eff, thresholds)
            # numpy's own generator of each trajectory, past its first threshold
            for i in rows.tolist():
                if i not in rngs:
                    rngs[i] = _numpy_stream(tcfg.seed, i)
                    rngs[i].uniform()
            events = [[] for _ in rows.tolist()]
            done = [_sequential_jumps(gen, rngs[i], psi_a[k], psi_b[k], t_a[k], t_b[k], h_eff[k],
                                      thresholds[k], events[k], cascades)
                    for k, i in enumerate(rows.tolist())]
            want = np.array([(i, *e) for i, evs in zip(rows.tolist(), events) for e in evs],
                            dtype=sl.propagation._JUMP_DTYPE)
            psi, thr, jumps = got
            jumps = jumps[np.argsort(jumps["trajectory"], kind="stable")]  # rounds, then rows
            for name in ("trajectory", "target", "source"):
                assert np.array_equal(jumps[name], want[name])
            assert np.max(np.abs(jumps["time"] - want["time"])) < 1e-12 * traj.step / 2
            assert np.max(np.abs(psi - np.array([p for p, _ in done]))) < 1e-12
            assert thr.tobytes() == np.array([t for _, t in done]).tobytes()
            calls[0] += 1
            return got

        monkeypatch.setattr(sl.propagation, "_jumps", checked)
        res = sl.evolve_trajectories(gen, psi0, 0.0, 10.0, tcfg)
        assert calls[0] > 0 and cascades[0] > 0
        # a threshold, then two words a jump: some trajectory read past the first buffer
        most = np.bincount(res.jumps["trajectory"]).max()  # the busiest trajectory's jumps
        assert 1 + 2 * most > sl.propagation._STREAM_WORDS

    @settings(max_examples=300, deadline=None)
    @given(st.lists(_crossing_rows(), min_size=1, max_size=6))
    # f0 at the threshold, with and without d0 = 0; a dip below the threshold and
    # back up inside the step (a zero slope at Newton's start is the next test's)
    @example([(0.6, 0.2, 0.0, -0.3, 0.6), (0.6, 0.2, -0.3, 0.0, 0.6)])
    @example([(1.0, 0.4, -4.0, 3.0, 0.5), (0.9, 0.1, 2.0, -5.0, 0.3)])
    def test_jump_time_search_matches_literal_bisection(self, rows):
        c = _hermite(*zip(*rows))
        want = _literal_bisection(c)
        assert sl.propagation._crossing(c).tobytes() == want.tobytes()

    def test_jump_time_search_survives_a_missed_prediction(self):
        # f = 0.75 - 2 (s - 1/2)^3 in the first row has a zero slope at 1/2, which
        # stops Newton there, so the levels of 0.5 are predicted while the crossing
        # lies near 0.79: the check must catch it at level 2, and the literal levels
        # go on from there; the second row is predicted right; the third is the first
        # at threshold 0.68, whose crossing near 0.83 ends on an odd 2^-40 bit, so the
        # literal levels must run to the last one
        c = _hermite([1.0, 0.9, 1.0], [0.5, 0.1, 0.5], [-1.5, -0.1, -1.5], [-1.5, -0.1, -1.5],
                     np.array([0.7, 0.7, 0.68]))
        want = _literal_bisection(c)
        assert want[0] != 0.5 and want[2] != 0.5
        assert want[2] * 2.0**40 % 2.0 == 1.0
        assert sl.propagation._crossing(c).tobytes() == want.tobytes()
        assert sl.propagation._crossing(c[:, 1:]).tobytes() == want[1:].tobytes()

    @pytest.mark.parametrize("bath, match", [
        (sl.dephasing_spectrum(0.0), "no jump channel is active"),
        (sl.ohmic_spectrum(0.2, 5.0, 0.0), "all jump weights vanish"),
    ])
    def test_jump_without_weight_raises(self, bath, match):
        # a crossing in the ground state: no channel at all, or only the
        # downward one, which annihilates it (H and frames are diagonal, so
        # its weight is exactly zero)
        H = constant_hamiltonian(0.5 * sl.sigma_z)
        traj = sl.instantaneous_frames(H, np.linspace(0.0, 1.0, 11))
        gen = sl.LindbladGenerator(traj, sl.sigma_x, bath)
        ground = traj.basis[0, :, :1].T
        with pytest.raises(sl.SuperlindError, match=match):
            sl.propagation._jumps(gen, np.array([0]), sl.propagation._Streams(0, 1), np.array([0]),
                                  ground, 0.5 * ground, np.array([0.0]), np.array([0.05]),
                                  H(0.0)[None], np.array([0.5]))

    def test_results_do_not_depend_on_block_length(self, monkeypatch):
        # the default, here one block of all 40 lockstep steps, against blocks of
        # one step each and against five blocks of eight, set by the lifting
        # budget B log2(B) N^2
        gen, psi0, traj = _strong_bath_coarse()
        tcfg = sl.TrajectoryConfig(n_traj=200, seed=4)
        walk, blocks = sl.propagation._walk, set()

        def recorded(lift, *args):
            blocks.add(len(lift[0]))  # the steps of the walk's block
            return walk(lift, *args)

        monkeypatch.setattr(sl.propagation, "_walk", recorded)
        blocked = sl.evolve_trajectories(gen, psi0, 0.0, 10.0, tcfg)
        assert blocks == {40}
        for steps in (1, 8):
            blocks.clear()
            entries = steps * (steps.bit_length() - 1) * 4  # B log2(B) N^2 at B = steps
            monkeypatch.setattr(sl.propagation, "_TABLE_ENTRIES", entries)
            split = sl.evolve_trajectories(gen, psi0, 0.0, 10.0, tcfg)
            assert blocks == {steps}
            span = steps * traj.step / 2  # the time a block spans
            assert np.unique(split.jumps["time"] // span).size > 1
            for name in ("trajectory", "target", "source"):
                assert np.array_equal(blocked.jumps[name], split.jumps[name])
            got, want = blocked.jumps["time"], split.jumps["time"]
            # the runs group the step products differently, so the rounding of a
            # norm can move a jump time by one bisection quantum, 2^-40 of a
            # lockstep step (half of traj.step), and that jump's successors with it
            assert np.max(np.abs(got - want)) < 1e-12 * traj.step
            assert np.max(np.abs(blocked.state - split.state)) < 1e-12

    @settings(max_examples=200, deadline=None)
    @given(_walks())
    # B = 1 with one trajectory crossing in its step and one not; a ragged block of
    # B = 5 (spans 1, 2 and 4) with starts at 0, inside and at its end
    @example(_walk_case([[[0.5, 0.0], [0.0, 0.9]]], [0, 0], [[1.0, 0.0], [0.0, 1.0]],
                        [0.5, 0.5]))
    @example(_walk_case([np.diag([0.9, 0.8])] * 5, [0, 2, 5, 0],
                        [[1.0, 0.0], [0.0, 0.6], [0.3, 0.0], [0.6, 0.8]], [0.6, 0.2, 0.01, 0.1]))
    def test_lifting_walk_stops_before_the_first_crossing(self, case):
        steps, at, psi, thresholds = case
        b = len(steps)
        want = []
        for s, y, thr in zip(at, psi, thresholds):  # edge by edge: the first crossing, or none
            first = next((k for k in range(s + 1, b + 1)
                          if np.vdot(y := steps[k - 1] @ y, y).real < thr), b + 1)
            want.append(first - 1)
        # lift[l][s]: the product of the 2^l steps from edge s, the later acting last
        lift = [np.array([functools.reduce(lambda p, q: q @ p, steps[s:s + 2**level])
                          for s in range(b - 2**level + 1)]) for level in range(b.bit_length())]
        got, states = sl.propagation._walk(lift, at, psi, thresholds)
        assert got.tolist() == want
        for s, k, y, state in zip(at, got, psi, states):  # the state at the edge reached
            for step in steps[s:k]:
                y = step @ y
            assert np.allclose(state, y, rtol=0, atol=1e-12)

    def test_wrong_dimension_state_rejected(self, monkeypatch):
        gen, _ = _lz_coarse()
        monkeypatch.setattr(gen, "effective_hamiltonian", _never)
        with pytest.raises(sl.DimensionError, match="dimension 3, the model 2"):
            sl.evolve_trajectories(gen, np.array([1.0, 0.0, 0.0], complex), -2.0, 2.0,
                                   sl.TrajectoryConfig(n_traj=2))

    def test_seed_reproducibility(self):
        H, t_final, _, base, _ = lz_setup(2.0)
        gen = sl.LindbladGenerator(base, sl.sigma_z, sl.ohmic_spectrum(0.1, 5.0, 0.5))
        psi0 = base.basis[0, :, 0]
        a = sl.evolve_trajectories(gen, psi0, -t_final, t_final,
                                   sl.TrajectoryConfig(n_traj=20, seed=7))
        b = sl.evolve_trajectories(gen, psi0, -t_final, t_final,
                                   sl.TrajectoryConfig(n_traj=20, seed=7))
        c = sl.evolve_trajectories(gen, psi0, -t_final, t_final,
                                   sl.TrajectoryConfig(n_traj=20, seed=8))
        assert np.array_equal(a.state, b.state)
        assert a.jumps.tobytes() == b.jumps.tobytes()
        assert not np.array_equal(a.state, c.state)

    def test_jump_records_correlate_with_excitation(self):
        # dephasing jumps in the instantaneous basis kick the state off the
        # adiabatic path; averaging over jump times leaves the ensemble far
        # more excited than the jump-free closed evolution
        H, t_final, _, base, _ = lz_setup(4.0)
        gen = sl.LindbladGenerator(base, sl.sigma_z, sl.dephasing_spectrum(0.1))
        psi0 = base.basis[0, :, 0]
        excited = excited_state(H, t_final)
        res = sl.evolve_trajectories(
            gen, psi0, -t_final, t_final, sl.TrajectoryConfig(n_traj=150, seed=17)
        )
        assert np.array_equal(np.unique(res.jumps["trajectory"]), np.arange(150))
        p_mc = excited_population(res.state, excited)
        closed = sl.evolve_unitary(H, psi0, -t_final, t_final)
        p_closed = excited_population(closed.state, excited)
        assert p_mc > 2.0 * p_closed

    def test_jump_record_dtype_and_order(self):
        gen, psi0, traj = _strong_bath_coarse()
        jumps = sl.evolve_trajectories(gen, psi0, 0.0, 10.0, sl.TrajectoryConfig(n_traj=50)).jumps
        assert jumps.dtype == np.dtype([("trajectory", int), ("time", float),
                                        ("target", int), ("source", int)])
        assert np.all(np.diff(jumps["trajectory"]) >= 0)
        same = np.diff(jumps["trajectory"]) == 0
        assert same.any() and np.all(np.diff(jumps["time"])[same] > 0)  # time order within one
        assert set(np.unique(jumps["trajectory"])) <= set(range(50))
        labels = set(zip(jumps["target"].tolist(), jumps["source"].tolist()))
        assert labels <= set(gen.channel_labels) and (-1, -1) in labels and len(labels) > 1

    def test_diagnostics_match_returned_state(self):
        # 21 grid points over [0, 10]: 20 cells of two lockstep steps each
        gen, psi0, traj = _strong_bath_coarse()
        res = sl.evolve_trajectories(gen, psi0, 0.0, 10.0, sl.TrajectoryConfig(n_traj=40, seed=2))
        rho, d = res.state, res.diagnostics
        assert d.n_steps == 2 * (len(traj) - 1) == 40 and d.n_rejected == 0
        assert d.max_trace_drift == 0.0  # a mean of normalized projectors: held by construction
        assert abs(complex(np.trace(rho)) - 1.0) <= 1e-12
        assert sl.model.hermiticity_defect(rho) == 0.0  # symmetrized
        assert d.min_eigenvalue == float(sl.model._eigh(rho[None], vectors=False)[0, 0])
        assert d.min_eigenvalue == pytest.approx(np.linalg.eigvalsh(rho)[0], abs=1e-14)

    def test_jump_event_fields(self):
        H = constant_hamiltonian(0.5 * sl.sigma_x)
        times = np.linspace(0.0, 80.0, 801)
        traj = sl.instantaneous_frames(H, times)
        gen = sl.LindbladGenerator(traj, sl.sigma_z, sl.ohmic_spectrum(0.2, 5.0, 0.0))
        exc = traj.basis[0, :, 1]
        res = sl.evolve_trajectories(gen, exc, 0.0, 80.0,
                                     sl.TrajectoryConfig(n_traj=8, seed=3))
        events = res.jumps
        assert events.size, "zero-temperature decay must produce jumps"
        assert np.all((0.0 < events["time"]) & (events["time"] < 80.0))
        # only the de-excitation channel exists at zero temperature
        assert set(zip(events["target"].tolist(), events["source"].tolist())) == {(0, 1)}


class TestRandomStreams:
    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**64 - 1), st.lists(st.integers(0, 40), min_size=1, max_size=12))
    @example(0, [40, 0, 3])
    @example(2**64 - 1, [16])
    def test_bulk_draws_match_numpy_generators(self, seed, jumps):
        # trajectory i draws its first threshold, then two doubles in each of its
        # jumps[i] rounds, as the ensemble does; 16 jumps or more cross a doubling
        assume(1 + 2 * max(jumps) > sl.propagation._STREAM_WORDS)
        streams = sl.propagation._Streams(seed, len(jumps))
        got = [[x] for x in streams.draw(np.arange(len(jumps)), 1)]
        for r in range(max(jumps)):
            rows = np.flatnonzero(np.array(jumps) > r)[::(-1) ** r]  # every other round reversed
            for i, x in zip(rows, streams.draw(rows, 2)):
                got[i].append(x)
        for i, n in enumerate(jumps):
            rng = _numpy_stream(seed, i)
            want = [np.array([rng.uniform()])] + [rng.random(2) for _ in range(n)]
            assert np.concatenate(got[i]).tobytes() == np.concatenate(want).tobytes()

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2**64 - 1), st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=5),
           st.integers(1, 12))
    @example(0, [0, 2**64 - 1], 1)
    @example(2**64 - 1, [0, 2**64 - 1], 3)
    def test_kernel_words_match_numpy_philox(self, seed, indices, blocks):
        words = sl.propagation._philox(seed, np.array(indices, dtype=np.uint64),
                                       np.arange(1, blocks + 1))
        for i, row in zip(indices, words):
            raw = np.random.Philox(key=np.array([seed, i], dtype=np.uint64)).random_raw(4 * blocks)
            assert row.tobytes() == raw.tobytes()


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
        for bad in ({"rtol": math.inf}, {"atol": math.inf}, {"rtol": math.nan}, {"atol": math.nan}):
            with pytest.raises(sl.ParameterError, match="finite"):
                sl.IntegratorConfig(**bad)

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

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_trajectory_config_rejects_seeds_outside_64_bits(self, seed):
        # a mask would alias them: -1 with 2**64 - 1, 2**64 with 0
        with pytest.raises(sl.ParameterError, match=r"seed must lie in \[0, 2\*\*64\)"):
            sl.TrajectoryConfig(n_traj=2, seed=seed)

    def test_trajectory_config_accepts_numpy_integers(self):
        H, t_final, _, base, _ = lz_setup(2.0)
        gen = sl.LindbladGenerator(base, sl.sigma_z, sl.dephasing_spectrum(0.05))
        args = (gen, base.basis[0, :, 0], -t_final, t_final)
        a = sl.evolve_trajectories(*args, sl.TrajectoryConfig(n_traj=np.int64(3), seed=np.int64(2)))
        b = sl.evolve_trajectories(*args, sl.TrajectoryConfig(n_traj=3, seed=2))
        assert np.array_equal(a.state, b.state)
        # the largest seed, also as np.uint64, which np.int64 cannot hold
        top = sl.evolve_trajectories(*args, sl.TrajectoryConfig(n_traj=3, seed=2**64 - 1))
        same = sl.evolve_trajectories(*args, sl.TrajectoryConfig(n_traj=3, seed=np.uint64(2**64 - 1)))
        assert np.array_equal(top.state, same.state)
        assert not np.array_equal(top.state, a.state)

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

    @pytest.mark.parametrize("engine", ["unitary", "lindblad", "trajectories"])
    def test_nan_initial_state_raises(self, engine):
        gen, _ = _lz_coarse()
        psi0 = np.array([math.nan, 0.0], complex)
        with pytest.raises(sl.StateIntegrityError):
            if engine == "unitary":
                sl.evolve_unitary(gen.hamiltonian, psi0, -1.0, 1.0)
            elif engine == "lindblad":
                sl.evolve_lindblad(gen, np.outer(psi0, psi0.conj()), -1.0, 1.0)
            else:
                sl.evolve_trajectories(gen, psi0, -1.0, 1.0, sl.TrajectoryConfig(n_traj=4, seed=0))

    def test_nan_state_ends_the_doubling(self):
        # a NaN error estimate fails every comparison, so only a guard written
        # as "not shrinking" stops n from doubling forever
        def zero(times):
            return np.zeros((len(times), 2, 2), complex)

        with pytest.raises(sl.StiffnessError):
            sl.propagation._propagate(zero, np.array([math.nan, 0.0], complex),
                                      np.array([0.0, 1.0]), sl.IntegratorConfig())


def test_time_series_writers(tmp_path):
    H = constant_hamiltonian(0.5 * sl.sigma_x)
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
