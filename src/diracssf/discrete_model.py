"""Truncated matrix model of the free Dirac operator.

Ladder modes in the transverse plane, an exact Fourier multiplier for the
longitudinal momentum on a periodic box, and the 4x4 spinor structure give
a hermitian model with the spectrum +-sqrt(2 b0 n + p^2 + m^2).  Its
square is block diagonal in the two transverse Pauli components; only the
top ladder level feels the truncation, and identity checks mask it out.

The field has a constant direction, so the operator is the direct sum of
its momentum fibers, and the fibers are what ``build_h0`` stores: an
(N, 4 L, 4 L) stack in which no entry can couple two momenta.  The dense
(4 L N)-dimensional matrix is a view built on demand for the one dense
eigvalsh, because the fiber deviation and the smallest magnitude in the
shipped dirac-check CSV are read from it; a per-fiber solve would change
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

EXTRA_ROUNDINGS = 4  # roundings outside the dot products and the eigensolve, per bound


@dataclass(frozen=True)
class DiscreteH0:
    """Free operator as its stack of momentum fibers."""

    ladder: LadderModel
    momenta: np.ndarray
    m: float
    fibers: np.ndarray

    @property
    def L(self):
        return self.ladder.L

    @property
    def N(self):
        return self.momenta.shape[0]

    @property
    def matrix(self) -> np.ndarray:
        """Dense (4 L N)-dimensional matrix, scattered from the fibers
        afresh on every read so that no copy outlives its use."""
        n, N = 4 * self.L, self.N
        h = np.zeros((n, N, n, N))
        j = np.arange(N)
        h[:, j, :, j] = self.fibers
        return h.reshape(n * N, n * N)

    @cached_property
    def eigenvalues(self) -> np.ndarray:
        """Ascending spectrum of the matrix, from one shared eigensolve."""
        return np.linalg.eigvalsh(self.matrix)

    def interior_mask(self) -> np.ndarray:
        """True on the fiber states untouched by the ladder cut.

        Components coupled through the raising operator lose their partner
        at the top level; masking ladder index L-1 in the second and
        fourth spinor components removes exactly those states.
        """
        L = self.L
        mask = np.ones(4 * L, dtype=bool)
        mask[[2 * L - 1, 4 * L - 1]] = False
        return mask


def build_h0(b0: float, m: float, L: int, N: int, X: float) -> DiscreteH0:
    """Build the fibers of the truncated free operator.

    Longitudinal momentum is an exact multiplier on the periodic-box
    grid p_j = (pi / X) (j - N/2), which contains 0, so the bottom of the
    spectrum sits exactly at the mass gap.
    """
    if N < 4 or N % 2:
        raise ValueError("momentum grid size N must be even and at least 4")
    if not X > 0:
        raise ValueError("box half-width X must be positive")
    ladder = build_ladder(b0, L)
    momenta = (np.pi / X) * (np.arange(N) - N // 2)

    # H0(p) = [[m, S(p)], [S(p), -m]] on the two spinor pairs, with
    # S(p) = [[p, a], [a*, -p]] over the ladder levels
    eye = np.eye(L)
    z = np.zeros((L, L))
    off = np.array([[0.0, 1.0], [1.0, 0.0]])
    s_perp = np.block([[z, ladder.a], [ladder.a_star, z]])
    rest = np.kron(off, s_perp) + np.kron(np.diag([m, -m]), np.eye(2 * L))
    pattern = np.kron(off, np.block([[eye, z], [z, -eye]]))
    fibers = rest + momenta[:, None, None] * pattern
    return DiscreteH0(ladder, momenta, float(m), fibers)


def _square_residuals(h0: DiscreteH0) -> np.ndarray:
    """|F F - reference| for every fiber F, shape (N, 4 L, 4 L).

    Fiber j is squared against its diagonal reference, levels + p_j^2 +
    m^2; the square of a direct sum has no entries between fibers.
    """
    L, m = h0.L, h0.m
    fibers = h0.fibers
    levels = 2.0 * h0.ladder.b0 * np.add.outer([0.0, 1.0, 0.0, 1.0], np.arange(L)).ravel()
    diag = levels[None, :] + (h0.momenta**2)[:, None] + m * m
    return np.abs(fibers @ fibers - diag[:, :, None] * np.eye(4 * L))


def check_square_identity(h0: DiscreteH0):
    """Residual of the block-diagonal form of the squared operator.

    The reference blocks use the untruncated transverse levels 2 b0 k
    and 2 b0 (k+1); the square matches them exactly except on the top
    ladder level of the raised components, where the cut leaks an error
    of size 2 b0 L.  Returns (interior, full) max-abs residuals.
    """
    diff = _square_residuals(h0)
    mask = h0.interior_mask()
    return float(np.max(diff[:, mask][:, :, mask])), float(np.max(diff))


def roundoff_bounds(h0: DiscreteH0) -> tuple[np.ndarray, float]:
    """(square, eigenvalue) round-off bounds.

    Each entry of a squared fiber F F is a 4 L-term dot product, off by at
    most 4 L eps (|F| |F|)_ij; the square bound is that entrywise array,
    shape (N, 4 L, 4 L).  A backward-stable dense eigensolve of dimension
    n = 4 L N moves each eigenvalue by at most n eps ||H0||, with ||H0|| =
    max |eigenvalue|.  Each bound adds ``EXTRA_ROUNDINGS`` roundings of its
    scale: the stored ladder roots and the reference diagonal's sums, or
    the fiber formula's root of a three-term sum.
    """
    eps = float(np.finfo(float).eps)
    absf = np.abs(h0.fibers)
    norm = float(np.max(np.abs(h0.eigenvalues)))
    return ((4 * h0.L + EXTRA_ROUNDINGS) * eps * (absf @ absf),
            (4 * h0.L * h0.N + EXTRA_ROUNDINGS) * eps * norm)


def square_identity_within_roundoff(h0: DiscreteH0) -> bool:
    """Whether every interior entry of each squared fiber is within its
    entrywise round-off bound from ``roundoff_bounds``."""
    square_bound, _ = roundoff_bounds(h0)
    within = _square_residuals(h0) <= square_bound
    mask = h0.interior_mask()
    return bool(np.all(within[:, mask][:, :, mask]))


def check_gap(h0: DiscreteH0) -> float:
    """Smallest spectral magnitude; must equal the mass up to the
    eigenvalue round-off bound of ``roundoff_bounds``."""
    smallest = float(np.min(np.abs(h0.eigenvalues)))
    _, eig_tol = roundoff_bounds(h0)
    if not abs(smallest - h0.m) <= eig_tol:
        raise AssertionError(
            f"spectral gap violated: min |eig| = {smallest!r} is farther than "
            f"{eig_tol!r} from the mass {h0.m!r}"
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
    lvals = pot.longitudinal.eval(x)
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
