"""System models: driven Hamiltonians and bath spectra.

Units: hbar = k_B = 1 throughout. Energies and rates share one scale; for
the avoided-crossing (Landau-Zener) model the gap ``delta`` sets it.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import DimensionError, ParameterError

HERMITICITY_TOL = 1e-12

sigma_x = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
sigma_y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
sigma_z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
for _m in (sigma_x, sigma_y, sigma_z):
    _m.setflags(write=False)


def hermiticity_defect(m: np.ndarray) -> float | np.ndarray:
    """Largest entry of |m - m^dag| of one matrix (a float) or of each in a (..., N, N) stack."""
    d = np.abs(m - np.swapaxes(m, -1, -2).conj()).max(axis=(-2, -1))
    return float(d) if d.ndim == 0 else d


def _require_hermitian(m: np.ndarray, what: str) -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionError(f"{what} must be a square matrix, got shape {m.shape}")
    defect = hermiticity_defect(m)
    if not defect <= HERMITICITY_TOL:  # a NaN entry makes the defect NaN
        raise ParameterError(f"{what} is not Hermitian (defect {defect:.3e} > {HERMITICITY_TOL:.0e})")
    return m


def _eigh(mats: np.ndarray, vectors: bool = True):
    """Ascending eigenvalues (and eigenvectors) of a (K, N, N) Hermitian stack,
    read from the lower triangle as LAPACK does. For N = 2 one Jacobi rotation
    is exact: levels (a+d)/2 -+ hypot((a-d)/2, |b|) with b = m[1, 0], angle
    atan2(|b|, (a-d)/2) / 2. Larger N call LAPACK's ``eigh``, also for levels
    alone: ``eigvalsh`` can lose 1e-5 where squared entries underflow."""
    if mats.shape[-1] != 2:
        return np.linalg.eigh(mats) if vectors else np.linalg.eigh(mats).eigenvalues
    a, d, b = mats[:, 0, 0].real, mats[:, 1, 1].real, mats[:, 1, 0]
    half, size = 0.5 * (a - d), np.abs(b)
    mean, radius = 0.5 * (a + d), np.hypot(half, size)
    vals = np.stack([mean - radius, mean + radius], axis=1)
    if not vectors:
        return vals
    theta = 0.5 * np.arctan2(size, half)
    c, s = np.cos(theta), np.sin(theta)
    phase = np.divide(b, size, out=np.ones_like(b, dtype=complex), where=size > 0)
    vecs = np.stack([-s * phase.conj(), c, c, s * phase], axis=1).reshape(-1, 2, 2)
    return vals, vecs


@functools.cache
def operator_basis(n: int) -> np.ndarray:
    """Orthonormal Hermitian basis of the N x N matrices, (N^2, N, N), read-only:
    B_0 = I / sqrt(N), the N - 1 diagonal generalized Gell-Mann matrices, then the
    symmetric and the antisymmetric one of each pair j < k, scaled so that
    Tr(B_a B_b) = delta_ab (Hioe & Eberly, PRL 47, 838 (1981))."""
    basis = np.zeros((n * n, n, n), dtype=complex)
    basis[0] = np.eye(n) / math.sqrt(n)
    for m in range(1, n):
        basis[m, range(m + 1), range(m + 1)] = np.append(np.ones(m), -m) / math.sqrt(m * (m + 1))
    j, k = np.triu_indices(n, 1)
    sym, asym = n + np.arange(j.size), n + j.size + np.arange(j.size)
    basis[sym, j, k] = basis[sym, k, j] = math.sqrt(0.5)
    basis[asym, j, k], basis[asym, k, j] = -1j * math.sqrt(0.5), 1j * math.sqrt(0.5)
    basis.setflags(write=False)
    return basis


def coherence_vector(rho: np.ndarray) -> np.ndarray:
    """Real coordinates x_a = Tr(B_a rho) of Hermitian (..., N, N), (..., N^2); tr = sqrt(N) x_0."""
    n = rho.shape[-1]
    return (rho.reshape(*rho.shape[:-2], n * n) @ operator_basis(n).reshape(n * n, -1).conj().T).real


def density_matrix(x: np.ndarray) -> np.ndarray:
    """sum_a x_a B_a of real coordinates (..., N^2), Hermitian by construction, (..., N, N)."""
    n = math.isqrt(x.shape[-1])
    return (x @ operator_basis(n).reshape(n * n, -1)).reshape(*x.shape[:-1], n, n)


class TimeDependentHamiltonian:
    """An N x N Hermitian matrix-valued function of time.

    Wraps an evaluator ``t -> matrix`` of t alone, called with Python floats,
    or, built with ``affine``, the broadcast h0 + t * h1, exactly Hermitian at
    every t by construction and so not re-checked. ``on_grid`` checks an
    evaluator's stack once for shape and hermiticity and keeps the last one,
    read-only, to return again for the same times bit for bit: a grid that
    several stages read is evaluated once. ``H(t)`` is a stack of one.
    """

    def __init__(self, dim: int, evaluator: Callable[[float], np.ndarray]):
        if dim < 2:
            raise DimensionError(f"dimension must be >= 2, got {dim}")
        self.dim = int(dim)
        self._evaluator = evaluator
        self._last = (None, None)  # the bytes of the last times evaluated, and their stack

    @classmethod
    def affine(cls, h0: np.ndarray, h1: np.ndarray) -> "TimeDependentHamiltonian":
        """H(t) = h0 + t * h1, evaluated on a stack of times as one broadcast,
        from the exactly Hermitian parts (h + h^dag) / 2 of the checked h0, h1."""
        h0 = _require_hermitian(h0, "affine Hamiltonian h0")
        h1 = _require_hermitian(h1, "affine Hamiltonian h1")
        if h1.shape != h0.shape:
            raise DimensionError(f"h0 is {h0.shape} but h1 is {h1.shape}")
        h0, h1 = (0.5 * (h + h.conj().T) for h in (h0, h1))
        H = cls(h0.shape[0], None)  # checks the dimension; the broadcast replaces the evaluator
        H._stack = lambda times: h0 + times[:, None, None] * h1
        return H

    def __call__(self, t: float) -> np.ndarray:
        return self.on_grid([t])[0]

    def on_grid(self, times) -> np.ndarray:
        """H at each of a 1-d sequence of ``times``, shape (M, N, N)."""
        times = np.asarray(times, dtype=float)
        if times.ndim != 1:
            raise ParameterError(f"times must be a 1-d sequence, got shape {times.shape}")
        return self._stack(times)

    def _stack(self, times: np.ndarray) -> np.ndarray:
        key = times.tobytes()
        last_key, last = self._last
        if key != last_key:
            last = self._checked([self._evaluator(t) for t in times.tolist()], times)
            last.setflags(write=False)
            self._last = key, last
        return last

    def _checked(self, mats, times) -> np.ndarray:
        if not mats:
            return np.empty((0, self.dim, self.dim), dtype=complex)
        try:
            mats = np.asarray(mats, dtype=complex)
        except ValueError:
            raise DimensionError("Hamiltonian evaluator returned differing shapes") from None
        if mats.shape != (len(times), self.dim, self.dim):
            raise DimensionError(
                f"Hamiltonian evaluator returned shape {mats.shape[1:]}, "
                f"expected {(self.dim, self.dim)}"
            )
        defects = hermiticity_defect(mats)
        k = int(np.argmax(defects))
        if not defects[k] <= HERMITICITY_TOL:  # also a NaN defect, which argmax returns first
            raise ParameterError(
                f"H(t={float(times[k])!r}) is not Hermitian (defect {defects[k]:.3e})"
            )
        return mats


@dataclass(frozen=True)
class LZParams:
    """Linear sweep through an avoided crossing: velocity v, gap delta."""

    v: float
    delta: float

    def __post_init__(self):
        for name, value in (("v", self.v), ("delta", self.delta)):
            if not np.isfinite(value) or value <= 0:
                raise ParameterError(f"LZParams.{name} must be finite and > 0, got {value!r}")


def lz_hamiltonian(params: LZParams) -> TimeDependentHamiltonian:
    """H(t) = 0.5 * [[-v t, delta], [delta, v t]].

    Instantaneous gap sqrt(v^2 t^2 + delta^2); the crossing sits at t = 0.
    """
    # (0.5 v) t equals 0.5 (v t) exactly: halving commutes with rounding
    v, delta = params.v, params.delta
    return TimeDependentHamiltonian.affine(
        0.5 * np.array([[0.0, delta], [delta, 0.0]]), np.diag([-0.5 * v, 0.5 * v])
    )


def _zero_shift(w):
    w = np.asarray(w, dtype=float)
    out = np.zeros_like(w)
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class BathSpectrum:
    """One-sided bath correlation data.

    ``gamma(w)`` is the absorption/emission rate at frequency ``w`` (must be
    >= 0 everywhere for a completely positive master equation); ``shift(w)``
    is the corresponding energy-shift function, identically zero unless the
    caller supplies one. Both accept scalars or arrays. Build one directly
    for a user-defined spectrum; the generator re-checks every rate it
    evaluates.
    """

    gamma: Callable
    shift: Callable = field(default=_zero_shift)


def _check_scalars(**params) -> None:
    """ParameterError naming the first parameter that is a string or an array of ndim >= 1."""
    for name, value in params.items():
        if isinstance(value, (str, bytes)) or np.ndim(value) >= 1:
            raise ParameterError(f"{name} must be a real scalar, got {value!r}")


def ohmic_spectrum(
    gamma0: float,
    cutoff: float,
    temperature: float,
    *,
    symmetric_cutoff: bool = False,
) -> BathSpectrum:
    """Ohmic rate gamma(w) = gamma0 * w * exp(-w/cutoff) / (1 - exp(-w/T)).

    One expression for either sign of w: gamma0 |w| / (1 - exp(-|w|/T)) *
    exp(min(w, 0)/T - w/cutoff), nonnegative by construction and gamma0 T at
    w = 0 (the analytic limit). Both exponents are summed before exponentiating,
    so neither tail overflows alone. At temperature zero the thermal factor
    degenerates to a step: gamma0 * w * exp(-w/cutoff) for w > 0, zero otherwise.

    By default the exponential cutoff is applied literally (argument -w/cutoff
    for either sign of w), which breaks thermal detailed balance by a factor
    exp(2w/cutoff). ``symmetric_cutoff=True`` uses -|w|/cutoff instead, making
    gamma(-w) = exp(-w/T) * gamma(w) exact.
    """
    _check_scalars(gamma0=gamma0, cutoff=cutoff, temperature=temperature)
    if not np.isfinite(gamma0) or gamma0 < 0:
        raise ParameterError(f"gamma0 must be finite and >= 0, got {gamma0!r}")
    if not np.isfinite(cutoff) or cutoff <= 0:
        raise ParameterError(f"cutoff must be finite and > 0, got {cutoff!r}")
    if not np.isfinite(temperature) or temperature < 0:
        raise ParameterError(f"temperature must be finite and >= 0, got {temperature!r}")
    if not isinstance(symmetric_cutoff, bool):  # a truthy string would pick the symmetric branch
        raise ParameterError(f"symmetric_cutoff must be a bool, got {symmetric_cutoff!r}")

    def gamma(w):
        w_arr = np.asarray(w, dtype=float)
        size = np.abs(w_arr)
        arg = size if symmetric_cutoff else w_arr
        with np.errstate(over="ignore", invalid="ignore"):
            if temperature == 0.0:
                val = np.where(w_arr > 0.0, gamma0 * w_arr * np.exp(-arg / cutoff), 0.0)
            else:
                x = size / temperature
                thermal = np.divide(size, -np.expm1(-x), out=np.full_like(x, temperature),
                                    where=x > 0)
                val = gamma0 * thermal * np.exp(np.minimum(w_arr, 0.0) / temperature
                                                - arg / cutoff)
        return float(val) if val.ndim == 0 else val

    return BathSpectrum(gamma)


def dephasing_spectrum(gamma0: float) -> BathSpectrum:
    """Spectrum with weight only at zero frequency: gamma(0) = gamma0.

    Models a static or very slow environment: it damps coherences between
    basis states but cannot exchange energy with the system.
    """
    _check_scalars(gamma0=gamma0)
    if not np.isfinite(gamma0) or gamma0 < 0:
        raise ParameterError(f"gamma0 must be finite and >= 0, got {gamma0!r}")

    def gamma(w):
        w_arr = np.asarray(w, dtype=float)
        val = np.where(w_arr == 0.0, float(gamma0), 0.0)
        return float(val) if val.ndim == 0 else val

    return BathSpectrum(gamma)

