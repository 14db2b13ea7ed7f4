import hypothesis.extra.numpy as hnp
import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import assume, given, settings

import superlind as sl
from superlind.frames import (
    _align_sweep, _check_step_overlaps, _eigh, _eigh_grid, _entries, _quasi_energies,
    _reference_phase, _step_norms,
)

from lzutil import constant_hamiltonian, ladder_hamiltonian, lz_hamiltonian, lz_setup


@pytest.fixture(scope="module")
def lz_slow():
    """v = 0.2 trajectory over the standard window (adiabatic parameter 0.1)."""
    return lz_setup(5.0)


class TestInstantaneousFrames:
    def test_crossing_ground_state(self):
        # grid starting at t = 0 so the reference-phase convention applies there
        H = sl.lz_hamiltonian(sl.LZParams(v=1.0, delta=1.0))
        traj = sl.instantaneous_frames(H, np.linspace(0.0, 1.0, 51))
        ground = traj.basis[0, :, 0]
        assert np.allclose(ground, np.array([1.0, -1.0]) / np.sqrt(2.0), atol=1e-12)
        assert traj.energies[0, 0] == pytest.approx(-0.5, abs=1e-12)

    def test_asymptotic_diabatic_states(self):
        # far past the crossing the ground state is the (1, 0) diabatic state
        # with energy -sqrt(v^2 t^2 + delta^2)/2; far before, it is (0, 1)
        H, t_final, times, base, _ = lz_setup(2.0)
        late = base.basis[-1]
        assert abs(late[0, 0]) ** 2 > 0.999
        assert abs(base.basis[0][1, 0]) ** 2 > 0.999
        v = 0.5
        assert base.energies[-1, 0] == pytest.approx(
            -0.5 * np.sqrt(v**2 * t_final**2 + 1.0), rel=1e-12
        )

    def test_constant_hamiltonian_frames_identical(self):
        H = constant_hamiltonian(0.5 * sl.sigma_x + 0.2 * sl.sigma_z)
        traj = sl.instantaneous_frames(H, np.linspace(0.0, 5.0, 41))
        assert np.max(np.abs(traj.basis - traj.basis[0])) < 1e-12

    def test_unitarity_and_quasi_energy_consistency(self, lz_slow):
        _, _, _, base, _ = lz_slow
        base.validate()
        gram = np.einsum("kia,kib->kab", base.basis.conj(), base.basis)
        assert np.max(np.abs(gram - np.eye(2))) < 1e-10
        recomputed = _quasi_energies(base.hamiltonian, base.times, _entries(base.basis))
        assert np.max(np.abs(recomputed - base.energies)) < 1e-10

    def test_degenerate_spectrum_rejected(self):
        H = constant_hamiltonian(np.eye(2, dtype=complex))
        with pytest.raises(sl.DegeneracyError):
            sl.instantaneous_frames(H, np.linspace(0.0, 1.0, 11))

    @pytest.mark.parametrize("n", [2, 3])
    def test_nan_levels_rejected(self, n):
        mats = np.tile(np.diag(np.arange(n, dtype=complex)), (5, 1, 1))
        mats[3, 0, 0] = np.nan
        with pytest.raises(sl.DegeneracyError, match="levels within nan .* at t = 3.0"):
            _eigh_grid(mats, np.arange(5.0), "test")

    def test_coarse_grid_rejected(self):
        H = sl.lz_hamiltonian(sl.LZParams(v=5.0, delta=0.2))
        with pytest.raises(sl.GridError):
            sl.instantaneous_frames(H, np.linspace(-10.0, 10.0, 7))

    def test_nonuniform_grid_rejected(self):
        H = sl.lz_hamiltonian(sl.LZParams(v=1.0, delta=1.0))
        with pytest.raises(sl.ParameterError):
            sl.instantaneous_frames(H, np.array([0.0, 0.1, 0.3, 0.35]))

    @pytest.mark.filterwarnings("error")  # rejected before H is evaluated on it
    @pytest.mark.parametrize(
        "times",
        [[0.0, np.nan, 2.0], [np.nan] * 3, [0.0, 1.0, np.inf], [-np.inf, 0.0, np.inf]],
        ids=["nan", "all-nan", "inf", "both-inf"],
    )
    def test_nonfinite_grid_rejected(self, times):
        H = sl.lz_hamiltonian(sl.LZParams(v=1.0, delta=1.0))
        with pytest.raises(sl.ParameterError, match="finite"):
            sl.instantaneous_frames(H, np.array(times))
        with pytest.raises(sl.ParameterError, match="finite"):
            sl.FrameTrajectory(times, np.zeros((3, 2, 2)), np.zeros((3, 2)), 0, H)

    @pytest.mark.parametrize(
        "basis, energies, H",
        [((400, 2, 2), (801, 2), lz_hamiltonian(1.0)), ((801, 2, 2), (400, 2), lz_hamiltonian(1.0)),
         ((801, 2, 2), (801, 2), ladder_hamiltonian()), ((801,), (801, 2), lz_hamiltonian(1.0))],
        ids=["short-basis", "short-energies", "3-level-H", "1-d-basis"],
    )
    def test_array_shapes_checked_against_grid_and_H(self, basis, energies, H):
        # a short basis once failed only inside a solve, the validator or the CSV writer
        times = np.linspace(-8.0, 8.0, 801)
        with pytest.raises(sl.DimensionError, match=r"^801 grid points and N = \d need a"):
            sl.FrameTrajectory(times, np.zeros(basis), np.zeros(energies), 0, H)

    def test_index_at(self, lz_slow):
        _, t_final, times, base, _ = lz_slow
        h = base.step
        assert base.index_at(times[10] + 0.4 * h) == 10
        assert base.index_at(times[10] + 0.6 * h) == 11
        with pytest.raises(sl.TimeDomainError):
            base.index_at(t_final + h)

    def test_index_at_array_matches_scalar(self, lz_slow):
        _, _, times, base, _ = lz_slow
        h = base.step
        probes = np.concatenate([
            times,
            0.5 * (times[:-1] + times[1:]),              # exact cell midpoints
            [times[0] - 0.5 * h, times[-1] + 0.5 * h],   # clamped to the end frames
            np.random.default_rng(3).uniform(times[0], times[-1], 2000),
        ])
        got = base.index_at(probes)
        assert got.shape == probes.shape
        assert np.array_equal(got, [base.index_at(t) for t in probes])
        # oracle: Python round() (halves to even) of the scaled offset, clamped
        oracle = [min(max(round((t - times[0]) / h), 0), times.size - 1) for t in probes]
        assert np.array_equal(got, oracle)
        assert base.index_at(times[0] - 0.5 * h) == 0
        assert base.index_at(times[-1] + 0.5 * h) == times.size - 1

    def test_index_at_array_outside_raises(self, lz_slow):
        _, t_final, times, base, _ = lz_slow
        probes = np.array([0.0, t_final + base.step, 1.0])
        with pytest.raises(sl.TimeDomainError, match=repr(float(probes[1]))):
            base.index_at(probes)

    def test_index_at_nan_is_outside(self, lz_slow):
        base = lz_slow[3]
        with pytest.raises(sl.TimeDomainError, match="nan"):
            base.index_at(np.nan)
        with pytest.raises(sl.TimeDomainError, match="nan"):
            base.index_at(np.array([0.0, np.nan]))

    def test_callers_arrays_stay_writable_and_apart(self):
        # every trajectory holds read-only arrays of its own: the caller's grid,
        # basis and energies keep their flags, and writing to them later leaves it be
        H = sl.lz_hamiltonian(sl.LZParams(v=0.5, delta=1.0))
        times = sl.adaptive_time_grid(H, -50.0, 50.0)
        base = sl.instantaneous_frames(H, times)
        basis, energies = base.basis.copy(), base.energies.copy()
        built = sl.FrameTrajectory(times, basis, energies, 0, H)
        trajs = [base, built, sl.superadiabatic_frames(H, 1, times),
                 sl.superadiabatic_frames(H, 1, times, base=base)]
        kept = [(t.times.copy(), t.basis.copy(), t.energies.copy()) for t in trajs]
        times[0], basis[0], energies[0] = -50.0, 0.0, 0.0
        times[:] = 7.0
        for traj, arrays in zip(trajs, kept):
            for arr, before in zip((traj.times, traj.basis, traj.energies), arrays):
                assert not arr.flags.writeable
                assert np.array_equal(arr, before)


def _align_pair(prev, cur):
    """Gauge-fix the two-frame stack (prev, cur) on a unit-step grid; (2, N, N)."""
    return np.moveaxis(_align_sweep(np.stack([prev, cur], axis=-1), np.array([0.0, 1.0])), -1, 0)


def _flip_every_other(basis):
    """Column 0 negated at every other grid point: negative step overlaps."""
    out = basis.copy()
    out[1::2, :, 0] *= -1.0
    return out


def _nan_at(k):
    """A copy of the array with a NaN row at grid point k."""
    def broken(arr):
        out = arr.copy()
        out[k, 0] = np.nan
        return out
    return broken


class TestValidate:
    """``FrameTrajectory.validate`` on hand-broken copies of a valid trajectory."""

    @staticmethod
    def _broken(basis=None, energies=None):
        H = sl.lz_hamiltonian(sl.LZParams(v=1.0, delta=1.0))
        good = sl.instantaneous_frames(H, np.linspace(-2.0, 2.0, 41))
        good.validate()
        return sl.FrameTrajectory(good.times, good.basis if basis is None else basis(good.basis),
                                  good.energies if energies is None else energies(good.energies),
                                  order=0, hamiltonian=H)

    @pytest.mark.parametrize("basis,energies,error,message", [
        (lambda b: 1.001 * b, None, sl.ParameterError, "unitarity defect"),
        (lambda b: b[:, :, ::-1], lambda e: e[:, ::-1], sl.ParameterError, "not sorted ascending"),
        (None, lambda e: e + 1e-8, sl.ParameterError, "drifted by"),
        (_flip_every_other, None, sl.GridError, "gauge smoothness"),
        (_nan_at(20), None, sl.ParameterError, "unitarity defect nan"),
        (None, _nan_at(20), sl.ParameterError, "not sorted ascending"),
    ], ids=["scaled-basis", "swapped-levels", "shifted-energies", "flipped-column",
            "nan-basis-row", "nan-energies"])
    def test_each_failure(self, basis, energies, error, message):
        with pytest.raises(error, match=message):
            self._broken(basis, energies).validate()

    def test_nan_quasi_energy_drift_raises(self, monkeypatch):
        traj = self._broken()
        nan_grid = np.full((len(traj), 2, 2), np.nan, dtype=complex)
        monkeypatch.setattr(traj.hamiltonian, "on_grid", lambda times: nan_grid)
        with pytest.raises(sl.ParameterError, match="drifted by nan"):
            traj.validate()

    def test_adiabatic_report_rejects_nan_energies(self):
        with pytest.raises(sl.DegeneracyError, match=r"pair at t = 0.0 \(gap nan\)"):
            sl.adiabatic_report(self._broken(energies=_nan_at(20)))
        with pytest.raises(sl.ParameterError, match="adiabatic parameter is NaN"):
            sl.adiabatic_report(self._broken(basis=_nan_at(20)))

    def test_adiabatic_report_rejects_a_degenerate_pair(self):
        def merge(energies):  # both levels equal at t = 0
            out = energies.copy()
            out[20] = 0.0
            return out

        with pytest.raises(sl.DegeneracyError, match="degenerate pair at t = 0.0"):
            sl.adiabatic_report(self._broken(energies=merge))


class TestSmoothGauge:
    def test_identity(self):
        _, _, _, base, _ = lz_setup(2.0)
        out = _align_pair(base.basis[100], base.basis[100])
        assert np.allclose(out[1], out[0], atol=1e-15)
        assert np.allclose(np.abs(out[0]), np.abs(base.basis[100]), atol=1e-15)

    def test_pure_phase_removed_exactly(self):
        _, _, _, base, _ = lz_setup(2.0)
        prev = base.basis[50]
        phased = prev.copy()
        phased[:, 0] *= np.exp(1j * np.pi / 3)
        out = _align_pair(prev, phased)
        assert np.max(np.abs(out[1] - out[0])) < 1e-12

    def test_nearby_unitary_output_overlap_real(self):
        rng = np.random.default_rng(3)
        _, _, _, base, _ = lz_setup(2.0)
        prev = base.basis[200]
        # small Hermitian perturbation of the frame, re-orthonormalized
        m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        herm = 0.05 * (m + m.conj().T)
        q, _ = np.linalg.qr(prev + 1j * herm @ prev)
        out = _align_pair(prev, q)
        overlaps = np.einsum("ia,ia->a", out[0].conj(), out[1])
        assert np.max(np.abs(overlaps.imag)) < 1e-12
        assert np.all(overlaps.real > 0)

    def test_reference_phase_breaks_ties_on_first_component(self):
        # component 1 is larger by one ulp, a tie that eigensolver rounding decides
        col = np.array([[1.0], [-(1.0 + 2.0**-52)]], dtype=complex) / np.sqrt(2.0)
        assert abs(col[1, 0]) > abs(col[0, 0])
        out = _reference_phase(col)
        assert out[0, 0].real > 0 and out[0, 0].imag == 0
        assert np.allclose(out[:, 0], np.array([1.0, -1.0]) / np.sqrt(2.0), atol=1e-15)

    def test_orthogonal_frames_rejected(self):
        _, _, _, base, _ = lz_setup(2.0)
        with pytest.raises(sl.GridError):
            _align_pair(base.basis[0], base.basis[-1])

    def test_nan_frame_rejected(self):
        _, _, _, base, _ = lz_setup(2.0)
        with pytest.raises(sl.GridError, match="overlap nan"):
            _align_pair(base.basis[100], np.full((2, 2), np.nan, dtype=complex))

    def test_nan_step_overlap_rejected(self):
        overlaps = np.ones((2, 4), dtype=complex)
        overlaps[1, 2] = np.nan
        with pytest.raises(sl.GridError, match=r"overlap\^2 nan .* near t = 2.0"):
            _check_step_overlaps(np.arange(5.0), overlaps)


class TestFrameCouplings:
    def test_constant_hamiltonian_zero(self):
        H = constant_hamiltonian(0.5 * sl.sigma_x + 0.2 * sl.sigma_z)
        traj = sl.instantaneous_frames(H, np.linspace(0.0, 5.0, 41))
        for k in (0, 20, 40):
            assert np.max(np.abs(sl.frame_couplings(traj.basis, traj.step)[k])) < 1e-12

    def test_lz_crossing_value(self):
        # |<e| d/dt g>| = v*delta / (2 (v^2 t^2 + delta^2)) from the analytic
        # eigenvectors; at the crossing this is v / (2 delta)
        v = 0.2
        H = sl.lz_hamiltonian(sl.LZParams(v=v, delta=1.0))
        times = np.linspace(-10, 10, 2001)
        traj = sl.instantaneous_frames(H, times)
        k0 = traj.index_at(0.0)
        assert abs(sl.frame_couplings(traj.basis, traj.step)[k0][0, 1]) == pytest.approx(
            v / 2.0, rel=1e-4
        )
        for t_probe in (-3.0, 1.5):
            k = traj.index_at(t_probe)
            t = traj.times[k]
            expected = v / (2.0 * (v**2 * t**2 + 1.0))
            assert abs(sl.frame_couplings(traj.basis, traj.step)[k][0, 1]) == pytest.approx(
                expected, rel=1e-4
            )

    def test_antihermitian_and_small_diagonal(self):
        v = 0.2
        H = sl.lz_hamiltonian(sl.LZParams(v=v, delta=1.0))
        times = np.linspace(-10, 10, 2001)  # h = 0.01
        traj = sl.instantaneous_frames(H, times)
        for k in (1, 1000, 1500, 1999):
            K = sl.frame_couplings(traj.basis, traj.step)[k]
            assert np.max(np.abs(K + K.conj().T)) < 1e-5
            assert np.max(np.abs(np.diag(K))) < 1e-6

    def test_gauge_invariance_of_magnitudes(self):
        rng = np.random.default_rng(11)
        _, _, times, base, _ = lz_setup(3.0)
        phases = np.exp(1j * rng.uniform(0, 2 * np.pi, size=2))
        rephased = sl.FrameTrajectory(
            base.times, base.basis * phases[None, None, :], base.energies,
            order=0, hamiltonian=base.hamiltonian,
        )
        for k in (5, len(base) // 2):
            a = np.abs(sl.frame_couplings(base.basis, base.step)[k])
            b = np.abs(sl.frame_couplings(rephased.basis, rephased.step)[k])
            off = ~np.eye(2, dtype=bool)
            assert np.max(np.abs(a[off] - b[off])) < 1e-12


class TestAdiabaticParameter:
    def test_crossing_value_and_global_max(self):
        v = 0.2
        _, _, _, base, _ = lz_setup(1.0 / v)
        k0 = base.index_at(0.0)
        report = sl.adiabatic_report(base)
        assert report.samples[k0] == pytest.approx(v / 2.0, rel=1e-3)
        assert report.global_max == pytest.approx(v / 2.0, rel=1e-3)
        k_star = int(np.argmax(report.samples))
        assert abs(base.times[k_star]) <= 2 * base.step

    def test_constant_hamiltonian_clamps_to_zero(self):
        H = constant_hamiltonian(0.5 * sl.sigma_x)
        traj = sl.instantaneous_frames(H, np.linspace(0.0, 4.0, 33))
        report = sl.adiabatic_report(traj)
        assert report.global_max < 1e-12
        assert report.recommended_order == 0

    def test_recommended_order_rounding_and_cap(self):
        _, _, _, base, _ = lz_setup(5.0)  # max A = 0.1
        assert sl.adiabatic_report(base).recommended_order == 10
        H = sl.lz_hamiltonian(sl.LZParams(v=0.02, delta=1.0))  # max A = 0.01
        traj = sl.instantaneous_frames(H, np.linspace(-5, 5, 801))
        assert sl.adiabatic_report(traj).recommended_order == 12  # capped

    def test_requires_order_zero(self, lz_slow):
        H, _, times, base, _ = lz_slow
        traj1 = sl.superadiabatic_frames(H, 1, times, base=base)
        with pytest.raises(sl.ParameterError):
            sl.adiabatic_report(traj1)


def _literal_couplings(basis, h):
    """Reference for `frame_couplings`: the derivative and the contraction on the
    (K, N, N) stack."""
    d = np.empty_like(basis)
    d[1:-1] = (basis[2:] - basis[:-2]) / (2.0 * h)
    d[0] = (-3.0 * basis[0] + 4.0 * basis[1] - basis[2]) / (2.0 * h)
    d[-1] = (3.0 * basis[-1] - 4.0 * basis[-2] + basis[-3]) / (2.0 * h)
    return np.einsum("kia,kib->kab", basis.conj(), d)


def _literal_align(basis):
    """Reference for `_align_sweep` on the (K, N, N) stack."""
    basis = basis.copy()
    basis[0] = _reference_phase(basis[0])
    raw = np.einsum("kia,kia->ka", basis[:-1].conj(), basis[1:])
    phases = -np.cumsum(np.angle(raw), axis=0)
    basis[1:] *= np.exp(1j * phases)[:, None, :]
    return basis


def _literal_levels(H, times, order):
    """Reference for `superadiabatic_frames`: the (K, N, N) stack-layout level loop.
    Yields (basis, energies, report samples) at orders 0 to ``order``; the samples
    are those of the order-0 frames."""
    vals, vecs = _eigh(H.on_grid(times))
    level_vecs = lab = _literal_align(vecs)
    level_vals, h, n = vals, times[1] - times[0], vals.shape[1]
    off, idx = ~np.eye(n, dtype=bool), np.arange(n)
    gaps = np.abs((vals[:, None, :] - vals[:, :, None])[:, off])
    samples = np.max(np.abs(_literal_couplings(lab, h)[:, off]) / gaps, axis=1)
    yield lab, vals, samples
    for _ in range(order):
        coupling = _literal_couplings(level_vecs, h)
        anti = 0.5 * (coupling - np.conj(np.transpose(coupling, (0, 2, 1))))
        anti[:, idx, idx] = 0.0
        frame_h = -1j * anti
        frame_h[:, idx, idx] += level_vals
        level_vals, level_vecs = _eigh(frame_h)
        level_vecs = _literal_align(level_vecs)
        lab = sl.propagation._matmul(lab, level_vecs)
        basis = _literal_align(lab)
        quasi = np.einsum("kia,kij,kja->ka", basis.conj(), H.on_grid(times), basis).real
        yield basis, quasi, samples


@pytest.mark.parametrize("H,t_final,orders", [
    *[(lz_hamiltonian(inv_v), 25.0 * inv_v, None) for inv_v in (1.5, 2.0, 5.0, 12.0)],
    (ladder_hamiltonian(), 150.0, (4, 12)),
], ids=["lz-1.5", "lz-2", "lz-5", "lz-12", "ladder"])
def test_frames_match_literal_stack_layout_bit_for_bit(H, t_final, orders):
    """The entries-major frames equal the (K, N, N) level loop they replaced, bit
    for bit: the layout moved, not a single rounding. LZ at every order up to the
    recommended one, the ladder at orders 4 and 12."""
    times = sl.adaptive_time_grid(H, -t_final, t_final)
    base = sl.instantaneous_frames(H, times)
    report = sl.adiabatic_report(base)
    orders = range(report.recommended_order + 1) if orders is None else orders
    for order, (basis, energies, samples) in enumerate(_literal_levels(H, times, max(orders))):
        if order == 0:
            assert np.array_equal(report.samples, samples)
        if order not in orders:
            continue
        traj = sl.superadiabatic_frames(H, order, times, base=base)
        assert np.array_equal(traj.basis, basis) and np.array_equal(traj.energies, energies)
        assert traj.basis.flags.c_contiguous and traj.energies.flags.c_contiguous
        couplings = sl.frame_couplings(traj.basis, traj.step)
        assert couplings.flags.c_contiguous
        assert np.array_equal(couplings, _literal_couplings(basis, traj.step))


class TestSuperadiabaticFrames:
    def test_order_zero_is_instantaneous(self, lz_slow):
        H, _, times, base, _ = lz_slow
        traj = sl.superadiabatic_frames(H, 0, times, base=base)
        assert traj is base

    def test_constant_hamiltonian_any_order(self):
        H = constant_hamiltonian(0.5 * sl.sigma_x + 0.1 * sl.sigma_z)
        times = np.linspace(0.0, 5.0, 81)
        base = sl.instantaneous_frames(H, times)
        traj = sl.superadiabatic_frames(H, 3, times, base=base)
        assert np.max(np.abs(traj.basis - base.basis)) < 1e-10
        assert np.max(np.abs(traj.energies - base.energies)) < 1e-12

    def test_first_order_deficit_scales_quadratically(self):
        # halving the sweep rate cuts 1 - |<n1|n0>|^2 by about four
        deficits = {}
        for inv_v in (5.0, 10.0):
            H, _, times, base, traj1 = lz_setup(inv_v, order=1)
            k0 = base.index_at(0.0)
            ov = abs(np.vdot(traj1.basis[k0, :, 0], base.basis[k0, :, 0])) ** 2
            deficits[inv_v] = 1.0 - ov
        ratio = deficits[5.0] / deficits[10.0]
        assert 3.0 < ratio < 5.0

    def test_invariants_hold_at_order_four(self):
        _, _, _, _, traj = lz_setup(3.0, order=4)
        traj.validate()

    def test_order_cap_and_negative_order(self, lz_slow):
        H, _, times, base, _ = lz_slow
        with pytest.raises(sl.OrderCapError):
            sl.superadiabatic_frames(H, 13, times, base=base)
        with pytest.raises(sl.ParameterError):
            sl.superadiabatic_frames(H, -1, times, base=base)

    def test_mismatched_base_rejected(self, lz_slow):
        H, _, times, _, _ = lz_slow
        other = sl.instantaneous_frames(H, times[: len(times) // 2])
        with pytest.raises(sl.ParameterError):
            sl.superadiabatic_frames(H, 1, times, base=other)
        # the frames of another Hamiltonian on the same grid: at order 0 they were returned as is
        foreign = sl.instantaneous_frames(sl.lz_hamiltonian(sl.LZParams(v=0.3, delta=1.0)), times)
        for order in (0, 1):
            with pytest.raises(sl.ParameterError, match="order-0 trajectory of H"):
                sl.superadiabatic_frames(H, order, times, base=foreign)

    def test_base_on_nearby_grid_rejected(self, lz_slow):
        # same size, ends 1e-6 apart: the frames would be labelled with the wrong times
        H, _, times, _, _ = lz_slow
        other = sl.instantaneous_frames(H, times * (1.0 + 1e-6))
        with pytest.raises(sl.ParameterError, match="same grid"):
            sl.superadiabatic_frames(H, 1, times, base=other)


class TestResidualOscillation:
    def test_constant_hamiltonian_silent(self):
        H = constant_hamiltonian(0.5 * sl.sigma_x)
        traj = sl.instantaneous_frames(H, np.linspace(0.0, 10.0, 201))
        assert sl.residual_oscillation(traj) < 1e-6

    def test_first_order_beats_instantaneous(self):
        H, _, times, base, traj1 = lz_setup(5.0, order=1)  # A = 0.1
        amp0 = sl.residual_oscillation(base)
        amp1 = sl.residual_oscillation(traj1)
        assert amp1 < amp0


def test_adaptive_time_grid_meets_conditions():
    H = sl.lz_hamiltonian(sl.LZParams(v=0.5, delta=1.0))
    times = sl.adaptive_time_grid(H, -20.0, 20.0)
    mats = H.on_grid(times)
    vals = np.linalg.eigvalsh(mats)
    min_gap = float(np.diff(vals, axis=1).min())
    dnorm = np.max(np.linalg.norm(mats[1:] - mats[:-1], ord=2, axis=(1, 2)))
    assert dnorm <= 0.01 * min_gap
    traj = sl.instantaneous_frames(H, times)
    overlaps = np.einsum("kia,kia->ka", traj.basis[:-1].conj(), traj.basis[1:])
    assert np.min(np.abs(overlaps) ** 2) > 0.999


def test_adaptive_time_grid_refines_a_bump_the_probe_misses(monkeypatch):
    # the bump in H is narrower than the probe spacing, so the probe underestimates
    # the motion and the built grid fails its check until it has been halved
    H = sl.TimeDependentHamiltonian(
        2, lambda t: 0.5 * sl.sigma_x + 0.3 * np.exp(-(t / 0.02) ** 2) * sl.sigma_z)
    sizes, on_grid = [], H.on_grid
    monkeypatch.setattr(H, "on_grid", lambda times: sizes.append(len(times)) or on_grid(times))
    times = sl.adaptive_time_grid(H, -3.0, 3.0)
    assert len(sizes) >= 3 and sizes[-1] == times.size == 2 * (sizes[-2] - 1) + 1
    mats = H.on_grid(times)
    min_gap = float(np.diff(np.linalg.eigvalsh(mats), axis=1).min())
    assert np.max(np.linalg.norm(mats[1:] - mats[:-1], ord=2, axis=(1, 2))) <= 0.01 * min_gap


def test_frame_pipeline_evaluates_each_grid_once():
    # the probe, each candidate grid and the accepted one are evaluated once: the
    # frames, the quasi-energies and validate() reuse the accepted grid's stack
    calls = []

    def evaluate(t):
        calls.append(t)
        return 0.5 * sl.sigma_x + 0.3 * np.exp(-(t / 0.02) ** 2) * sl.sigma_z

    H = sl.TimeDependentHamiltonian(2, evaluate)
    times = sl.adaptive_time_grid(H, -3.0, 3.0)
    base = sl.instantaneous_frames(H, times)
    sl.superadiabatic_frames(H, 2, times, base=base).validate()
    base.validate()
    # each grid is increasing, so a new one starts where t falls
    starts = [0] + [k for k in range(1, len(calls)) if calls[k] < calls[k - 1]] + [len(calls)]
    grids = [np.array(calls[a:b]) for a, b in zip(starts[:-1], starts[1:])]
    assert len(grids) >= 3  # the probe misses the bump, so one candidate is refined
    assert np.array_equal(grids[0], np.linspace(-3.0, 3.0, sl.frames.GRID_INITIAL_POINTS))
    for coarse, fine in zip(grids[1:-1], grids[2:]):
        assert fine.size == 2 * (coarse.size - 1) + 1
    assert np.array_equal(grids[-1], times)


def test_adaptive_time_grid_of_constant_hamiltonian_is_the_probe():
    H = constant_hamiltonian(0.5 * sl.sigma_x + 0.2 * sl.sigma_z)
    assert sl.adaptive_time_grid(H, 0.0, 10.0).size == sl.frames.GRID_INITIAL_POINTS == 129


@pytest.mark.parametrize("t0,t1", [(0.0, np.inf), (-np.inf, 0.0), (np.nan, 1.0), (0.0, np.nan),
                                   (1.0, 1.0), (1.0, 0.0)])
def test_adaptive_time_grid_needs_finite_increasing_ends(t0, t1):
    H = sl.lz_hamiltonian(sl.LZParams(v=0.5, delta=1.0))
    with pytest.raises(sl.ParameterError, match="finite t0 < t1") as info:
        sl.adaptive_time_grid(H, t0, t1)
    assert info.value.exit_code == 4


def _hermitian(a: np.ndarray) -> np.ndarray:
    return 0.5 * (a + a.conj().swapaxes(-1, -2))


_EPS = np.finfo(float).eps


@st.composite
def _hermitian_2x2_stacks(draw):
    """(K, 2, 2) Hermitian stacks with entries from 1e-6 to 1e6 in magnitude, of
    either sign on the diagonal. Off-diagonals are zero, 1e-12 of the diagonal,
    or free, with a free phase."""
    magnitude = st.floats(-6.0, 6.0).map(lambda e: 10.0**e)
    signed = st.tuples(st.sampled_from([-1.0, 1.0]), magnitude).map(lambda p: p[0] * p[1])
    mats = []
    for _ in range(draw(st.integers(1, 6))):
        a, d = draw(signed), draw(signed)
        size = draw(st.sampled_from([0.0, 1e-12 * max(abs(a), abs(d)), None]))
        b = (draw(magnitude) if size is None else size) * np.exp(1j * draw(st.floats(-np.pi, np.pi)))
        mats.append([[a, np.conj(b)], [b, d]])
    return np.array(mats, dtype=complex)


class TestClosedFormEigh:
    @settings(max_examples=300, deadline=None)
    @given(mats=_hermitian_2x2_stacks())
    def test_two_level_matches_lapack(self, mats):
        vals, vecs = _eigh(mats)
        ref_vals, ref_vecs = np.linalg.eigh(mats)
        scale = np.max(np.abs(ref_vals), axis=1)                    # ||H||_2
        assert np.all(np.diff(vals, axis=1) >= 0)
        # against 40-digit values ours stay within 2 ulps of ||H||, LAPACK's within 6
        assert np.all(np.abs(vals - ref_vals) <= 8 * _EPS * scale[:, None])
        assert np.array_equal(_eigh(mats, vectors=False), vals)
        # backward error and unitarity at rounding level, for every member
        residual = np.abs(mats @ vecs - vecs * vals[:, None, :]).max(axis=(1, 2))
        assert np.all(residual <= 8 * _EPS * scale)
        gram = np.einsum("kia,kib->kab", vecs.conj(), vecs)
        assert np.max(np.abs(gram - np.eye(2))) <= 4 * _EPS
        # eigenvectors are gauge-free, so compare projectors; both solvers move
        # them by up to eps ||H|| / gap, so only where the gap pins them to 1e-13
        proj = np.einsum("kia,kja->kaij", vecs, vecs.conj())
        ref_proj = np.einsum("kia,kja->kaij", ref_vecs, ref_vecs.conj())
        separated = np.diff(ref_vals, axis=1)[:, 0] > 1e-2 * scale
        assert np.max(np.abs(proj - ref_proj)[separated], initial=0.0) < 1e-13

    @settings(max_examples=50, deadline=None)
    @given(entries=hnp.arrays(float, (2, 4, 3, 3), elements=st.floats(-1e3, 1e3)))
    def test_larger_n_is_lapack(self, entries):
        """N = 3 and N = 4 are LAPACK's ``eigh`` bit for bit, with eigenvectors
        and for the levels alone."""
        mats = _hermitian(entries[0] + 1j * entries[1])
        vals, vecs = _eigh(mats)
        ref_vals, ref_vecs = np.linalg.eigh(mats)
        assert np.array_equal(vals, ref_vals) and np.array_equal(vecs, ref_vecs)
        assert np.array_equal(_eigh(mats, vectors=False), ref_vals)
        big = np.pad(mats, ((0, 0), (0, 1), (0, 1))) + np.diag([0.0, 0.0, 0.0, 7.0])
        assert np.array_equal(_eigh(big, vectors=False), np.linalg.eigh(big).eigenvalues)

    def test_larger_n_levels_survive_underflow(self):
        # squared entries of 1e-159 underflow; eigvalsh then returns +-1.49999836
        mats = np.zeros((1, 3, 3), dtype=complex)
        mats[0, 1, 0] = mats[0, 0, 1] = 1.3e-159
        mats[0, 2, 1], mats[0, 1, 2] = 1.5j, -1.5j
        assert np.max(np.abs(_eigh(mats, vectors=False) - [-1.5, 0.0, 1.5])) < 1e-15

    @settings(max_examples=150, deadline=None)
    @given(n=st.sampled_from([2, 3, 4]), data=st.data())
    def test_step_norms_match_svd(self, n, data):
        """||H_k+1 - H_k||_2 on a Hermitian stack, as ``adaptive_time_grid`` computes it."""
        re, im = data.draw(hnp.arrays(float, (2, 6, n, n), elements=st.floats(-1e3, 1e3)))
        mats = _hermitian(re + 1j * im)
        want = np.linalg.norm(mats[1:] - mats[:-1], ord=2, axis=(1, 2))
        assert np.all(np.abs(_step_norms(mats) - want) <= 16 * n * _EPS * want.max())


@settings(max_examples=200, deadline=None)
@given(n=st.sampled_from([2, 3, 4]), data=st.data())
def test_grid_motion_bound_implies_eigenvector_overlap(n, data):
    """||H1 - H0||_2 <= 0.01 * gap bounds every eigenvector overlap^2 above 0.999.

    Weyl moves each level by at most ||H1 - H0||_2, so Davis-Kahan gives
    sin(theta) <= 0.01 / 0.99: the motion clause of ``adaptive_time_grid``
    implies the overlap clause it no longer checks."""
    entries = hnp.arrays(float, (2, 2, n, n), elements=st.floats(-1.0, 1.0))
    re, im = data.draw(entries)
    h0, direction = _hermitian(re[0] + 1j * im[0]), _hermitian(re[1] + 1j * im[1])
    gap0 = float(np.diff(np.linalg.eigvalsh(h0)).min())
    size = float(np.linalg.norm(direction, ord=2))
    assume(gap0 > 1e-3 and size > 1e-3)  # keep eigh's own error far below the bound
    fraction = data.draw(st.floats(0.0, 1.0))
    h1 = h0 + direction * (fraction * 0.01 * gap0 / size)
    (_, vecs0), (vals1, vecs1) = np.linalg.eigh(h0), np.linalg.eigh(h1)
    min_gap = min(gap0, float(np.diff(vals1).min()))
    assume(np.linalg.norm(h1 - h0, ord=2) <= 0.01 * min_gap)  # the grid builder's clause
    overlap_sq = np.abs(np.einsum("ia,ia->a", vecs0.conj(), vecs1)) ** 2
    assert np.all(overlap_sq > 0.999)
    assert np.all(overlap_sq >= 1.0 - (0.01 / 0.99) ** 2 - 1e-9)


@pytest.mark.parametrize("H,t_final,points", [
    (sl.lz_hamiltonian(sl.LZParams(v=0.5, delta=1.0)), 50.0, 2633),
    (ladder_hamiltonian(), 150.0, 4028),
], ids=["lz-inv_v-2", "ladder"])
def test_adaptive_time_grid_sizes(H, t_final, points):
    assert sl.adaptive_time_grid(H, -t_final, t_final).size == points


def test_frames_csv_dump(tmp_path):
    H = sl.lz_hamiltonian(sl.LZParams(v=1.0, delta=1.0))
    traj = sl.instantaneous_frames(H, np.linspace(-2, 2, 41))
    out = tmp_path / "frames.csv"
    sl.write_frames_csv(traj, out)
    lines = out.read_text().splitlines()
    assert lines[:5] == [
        "# superlind frame trajectory",
        "# order = 0",
        "# points = 41",
        "# bloch convention: x = 2 Re rho01, y = 2 Im rho10, z = rho00 - rho11",
        "t,order,level,energy,x,y,z",
    ]
    rows = lines[5:]
    assert len(rows) == 41 * 2
    assert rows[0].split(",")[:3] == ["-2", "0", "0"]
