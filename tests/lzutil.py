"""Shared builders for the avoided-crossing setups used across tests."""
import numpy as np

import superlind as sl


def lz_hamiltonian(inv_v, delta=1.0):
    return sl.lz_hamiltonian(sl.LZParams(v=1.0 / inv_v, delta=delta))


def lz_setup(inv_v, order=0, delta=1.0, window=25.0):
    """Hamiltonian, window edge, grid, and an order-j trajectory."""
    v = 1.0 / inv_v
    t_final = window * delta / v
    H = sl.lz_hamiltonian(sl.LZParams(v=v, delta=delta))
    times = sl.adaptive_time_grid(H, -t_final, t_final)
    base = sl.instantaneous_frames(H, times)
    traj = base if order == 0 else sl.superadiabatic_frames(H, order, times, base=base)
    return H, t_final, times, base, traj


def constant_hamiltonian(matrix):
    """H(t) = matrix at every t: the affine H with a zero slope."""
    return sl.TimeDependentHamiltonian.affine(matrix, np.zeros(np.shape(matrix)))


def ladder_hamiltonian(v=0.25, delta=1.0):
    """Three levels with two separated avoided crossings, at t = -10 and t = +10:
    diag(v (t + 10) / 2, 0, v (t - 10) / 2) plus (delta / 2) nearest-neighbour
    couplings."""
    h0 = np.array([[5.0 * v, 0.5 * delta, 0.0],
                   [0.5 * delta, 0.0, 0.5 * delta],
                   [0.0, 0.5 * delta, -5.0 * v]])
    return sl.TimeDependentHamiltonian.affine(h0, np.diag([0.5 * v, 0.0, 0.5 * v]))


def excited_state(H, t):
    _, vecs = np.linalg.eigh(H(t))
    return vecs[:, -1]


def random_hermitian(rng, n):
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return 0.5 * (m + m.conj().T)


def random_density(rng, n=2):
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    rho = m @ m.conj().T
    return rho / np.trace(rho).real


def excited_population(rho_or_psi, excited):
    arr = np.asarray(rho_or_psi)
    if arr.ndim == 1:
        return float(abs(np.vdot(excited, arr)) ** 2)
    return float(np.real(excited.conj() @ arr @ excited))
