"""Truncated matrix model of the free Dirac operator.

Ladder modes in the transverse plane, an exact Fourier multiplier for the
longitudinal momentum on a periodic box, and the 4x4 spinor structure give
a (4 L N)-dimensional hermitian matrix whose spectrum follows the fiber
formula +-sqrt(2 b0 n + p^2 + m^2).  The square of the matrix is block
diagonal in the two transverse Pauli components; the top ladder level is
the only place truncation shows, and it is masked out of identity checks.

Every coupling is kron(., diag(p)) or kron(., I_N), so the operator
commutes with the longitudinal momentum: the rows with momentum p_j form
a closed (4 L x 4 L) fiber.  The square identity is checked one fiber at
a time (N products of 4 L x 4 L blocks instead of one dense product of
the full matrix), after asserting that no entry couples two fibers.  The
eigensolve stays one dense eigvalsh of the assembled matrix: the fiber
deviation and the smallest magnitude it reports are the values the
shipped dirac-check CSV carries, and a per-fiber solve would change
their last digits.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .counting import LogSpectrum
from .kernels1d import Grid1D
from .landau import LadderModel, build_ladder
from .ssf import PotentialSpec, SsfEstimator, edge_threshold


@dataclass(frozen=True)
class DiscreteH0:
    """Assembled free-operator matrix with its building blocks."""

    ladder: LadderModel
    momenta: np.ndarray
    m: float
    box_half_width: float
    matrix: np.ndarray

    @property
    def L(self):
        return self.ladder.L

    @property
    def N(self):
        return self.momenta.shape[0]

    @cached_property
    def eigenvalues(self) -> np.ndarray:
        """Ascending spectrum of the matrix, from one shared eigensolve."""
        return np.linalg.eigvalsh(self.matrix)

    def interior_mask(self) -> np.ndarray:
        """True on basis states untouched by the ladder cut.

        Components coupled through the raising operator lose their partner
        at the top level; masking ladder index L-1 in the second and
        fourth spinor components removes exactly those states.
        """
        L, N = self.L, self.N
        mask = np.ones(4 * L * N, dtype=bool)
        top = np.arange((L - 1) * N, L * N)
        for spinor in (1, 3):
            mask[spinor * L * N + top] = False
        return mask


def _ladder_for(b0: float, L: int) -> LadderModel:
    if L == 1:
        a = np.zeros((1, 1))
        return LadderModel(b0, 1, a, a.copy())
    return build_ladder(b0, L)


def build_h0(b0: float, m: float, L: int, N: int, X: float) -> DiscreteH0:
    """Assemble the truncated free operator.

    Longitudinal momentum is an exact multiplier on the periodic-box
    grid p_j = (pi / X) (j - N/2), which contains 0, so the bottom of the
    spectrum sits exactly at the mass gap.
    """
    if N < 4 or N % 2:
        raise ValueError("momentum grid size N must be even and at least 4")
    if not X > 0:
        raise ValueError("box half-width X must be positive")
    if L < 1:
        raise ValueError("ladder truncation L must be at least 1")
    ladder = _ladder_for(b0, L)
    momenta = (np.pi / X) * (np.arange(N) - N // 2)

    eye_l = np.eye(L)
    eye_ln = np.eye(L * N)
    p3 = np.kron(eye_l, np.diag(momenta))
    a_up = np.kron(ladder.a, np.eye(N))
    a_dn = np.kron(ladder.a_star, np.eye(N))
    z = np.zeros_like(p3)

    h = np.block([
        [m * eye_ln, z, p3, a_up],
        [z, m * eye_ln, a_dn, -p3],
        [p3, a_up, -m * eye_ln, z],
        [a_dn, -p3, z, -m * eye_ln],
    ])
    return DiscreteH0(ladder, momenta, float(m), float(X), h)


def check_square_identity(h0: DiscreteH0):
    """Residual of the block-diagonal form of the squared operator.

    The reference blocks use the untruncated transverse levels 2 b0 k
    and 2 b0 (k+1); the assembled square matches them exactly except on
    the top ladder level of the raised components, where the cut leaks
    an error of size 2 b0 L.  Returns (interior, full) max-abs residuals.

    The square is formed fiber by fiber: fiber j is indexed by
    idx[j, c] = c N + j with c = spinor L + level, and its reference is
    diagonal, levels + p_j^2 + m^2.  Off-fiber entries of the square and
    of the reference are both exactly zero, so the maxima over the fibers
    are the maxima over the full matrix.
    """
    L, N, m = h0.L, h0.N, h0.m
    b0 = h0.ladder.b0
    idx = np.arange(4 * L)[None, :] * N + np.arange(N)[:, None]
    fibers = h0.matrix[idx[:, :, None], idx[:, None, :]]
    if np.count_nonzero(fibers) != np.count_nonzero(h0.matrix):
        raise AssertionError("momentum fibers not decoupled: the matrix has "
                             "entries between different p3 values")
    levels = 2.0 * b0 * np.add.outer([0.0, 1.0, 0.0, 1.0], np.arange(L)).ravel()
    diag = levels[None, :] + (h0.momenta**2)[:, None] + m * m
    diff = np.abs(fibers @ fibers - diag[:, :, None] * np.eye(4 * L))
    full = float(np.max(diff))
    mask = h0.interior_mask()[idx[0]]
    interior = float(np.max(diff[:, mask][:, :, mask]))
    return interior, full


def check_gap(h0: DiscreteH0) -> float:
    """Smallest spectral magnitude; must equal the mass up to round-off."""
    smallest = float(np.min(np.abs(h0.eigenvalues)))
    delta_grid = (np.pi / h0.box_half_width) ** 2
    lo = h0.m * (1.0 - 1e-10)
    hi = math.sqrt(h0.m**2 + delta_grid)
    if not lo <= smallest <= hi:
        raise AssertionError(
            f"spectral gap violated: min |eig| = {smallest!r} outside [{lo!r}, {hi!r}]"
        )
    return smallest


def fiber_eigenvalues(h0: DiscreteH0) -> np.ndarray:
    """Sorted reference spectrum from the per-(level, momentum) fibers.

    Every pair (n, p) contributes +-sqrt(2 b0 n + p^2 + m^2) twice: the
    n >= 1 fibers are four dimensional, and the n = 0 values appear once
    from the zero-mode pair and once from the top-level orphan states.
    """
    b0 = h0.ladder.b0
    n_levels = 2.0 * b0 * np.arange(h0.L)
    vals = np.sqrt(n_levels[:, None] + h0.momenta[None, :] ** 2 + h0.m**2).ravel()
    doubled = np.repeat(vals, 2)
    return np.sort(np.concatenate([doubled, -doubled]))


def spectrum_symmetry_residual(h0: DiscreteH0) -> float:
    eigs = h0.eigenvalues
    return float(np.max(np.abs(eigs + eigs[::-1])))


# -- divergent weighted-resolvent part vs the scaled compression ----------

def _longitudinal_resolvent_modes(pot: PotentialSpec, grid: Grid1D, kappa: float):
    """Eigenvalues of sqrt(L) R sqrt(L) with the decaying resolvent kernel."""
    x = grid.nodes
    w = grid.trapezoid_weights
    lvals = np.asarray(pot.longitudinal.eval(x), dtype=float)
    sq = np.sqrt(np.clip(lvals * w, 0.0, None))
    diff = np.abs(np.subtract.outer(x, x))
    kernel = np.exp(-kappa * diff) / (2.0 * kappa)
    mat = kernel * np.outer(sq, sq)
    rho = np.linalg.eigvalsh(mat)
    return np.clip(rho, 0.0, None)


def _spinor_signature_eigs(pot: PotentialSpec, lam: float, m: float):
    """Eigenvalues of |D|^(1/2) M |D|^(1/2) twisted by the sign pattern.

    D = diag(lam + m, 0, lam - m, 0) restricted to its support; the
    result carries one nonnegative and one nonpositive value (the
    signature of the sign pattern) for a PSD matrix part.
    """
    mp = pot.matrix_part
    m2 = np.array([[mp[0, 0], mp[0, 2]], [mp[2, 0], mp[2, 2]]], dtype=complex)
    d_abs = np.diag([math.sqrt(lam + m), math.sqrt(m - lam)])
    twisted = d_abs @ m2 @ d_abs
    ev, vec = np.linalg.eigh(twisted)
    sqrt_t = (vec * np.sqrt(np.clip(ev, 0.0, None))) @ vec.conj().T
    s = np.diag([1.0, -1.0])
    return np.linalg.eigvalsh(sqrt_t @ s @ sqrt_t)


def tdiv_spectrum(est: SsfEstimator, lam: float, grid: Grid1D) -> LogSpectrum:
    """Nonzero spectrum of the divergent weighted-resolvent part in the gap.

    For a separable potential the operator factorises over (transverse
    Toeplitz) x (longitudinal resolvent modes) x (2x2 signed spinor
    block); the spectrum is the product set, assembled in the log domain.
    """
    pot, m = est.pot, est.m
    if not abs(lam) < m:
        raise ValueError("gap-side construction requires |lambda| < m")
    kappa = math.sqrt(m * m - lam * lam)
    log_tau = est.transverse_model.log_eigen_by_k
    rho = _longitudinal_resolvent_modes(pot, grid, kappa)
    sigma = _spinor_signature_eigs(pot, lam, m)

    floor = np.max(rho) * 1e-15 if rho.size else 0.0
    logs, signs = [], []
    for sg in sigma:
        if abs(sg) <= 1e-300:
            continue
        good = rho > max(floor, 1e-300)
        log_block = np.log(rho[good]) + math.log(abs(sg))
        grid_logs = (log_tau[:, None] + log_block[None, :]).ravel()
        logs.append(grid_logs)
        signs.append(np.full(grid_logs.shape, 1 if sg > 0 else -1, dtype=np.int8))
    if not logs:
        return LogSpectrum.from_log(np.empty(0))
    return LogSpectrum(np.concatenate(logs), np.concatenate(signs))


def tdiv_vs_omega_count(est: SsfEstimator, lam: float, grid: Grid1D, s: float):
    """Counting comparison between the divergent part and its compression.

    Returns (count_tdiv, count_omega, difference) for the +m edge: the
    n_+ count of the divergent part against the threshold-mapped count of
    the column-integrated compression.  Along a sweep toward the edge
    both counts diverge while the difference stays bounded.
    """
    count_tdiv = tdiv_spectrum(est, lam, grid).n_plus(s)
    mapped = s * edge_threshold(lam, 1.0, est.m)
    est.wplus_model.require_adequate(mapped)
    count_omega = est.wplus_model.spectrum.n_plus(mapped)
    return count_tdiv, count_omega, count_tdiv - count_omega
