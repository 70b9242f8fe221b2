"""Spectral-shift estimators at the gap edges.

Both sides of the gap read the same two compressions pW+-p at one
threshold map t(lam, +-1), ``edge_threshold``; the compressions are one
compression pTp scaled: for V = M T(r) L(x3) the symbols are
W+- = M_ii (integral L) T, i = 1, 3.  Inside the gap the shift function
is bracketed by eigenvalue counts of W+ or W- at (1 +- eps) t(lam);
outside by (1/pi) Tr arctan(Omega1 / s), s = 1 -+ eps, for the diagonal
Omega1 = diag(W+ / t(lam, +1), W- / t(lam, -1)), which ``omega1_trace``
reads as each family's arctan trace at s t(lam, +-1).  The full block
operator, assembled from longitudinal trigonometric moments, is kept as
a reference for Omega1.  L is a Gaussian, whose integral and moments are
closed forms over the whole line.
Leading-order predictions read the transverse tail law: its counting
law n(t) and, outside the gap, its outside-to-inside constant
(1 / (2 cos(pi/alpha)) for power tails, 1/2 otherwise).
Both brackets carry a (1 +- eps) slack and exclude unknown bounded terms,
so every consumer works with ratios or differences where those terms are
negligible.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .counting import LogSpectrum
from .errors import DiracSsfError
from .kernels1d import Grid1D
from .landau import LLLBasis
from .toeplitz import RadialProfile, ToeplitzModel, toeplitz_radial_spectrum

ARC_TAIL_TOL = 0.02


@dataclass(frozen=True)
class GaussianLongitudinal:
    """The longitudinal factor L(x3) = exp(-(x3 / width)^2).

    Its integral and trigonometric moments run over the whole line and are
    read from their closed forms.
    """

    width: float

    def __post_init__(self):
        if not (self.width > 0 and math.isfinite(self.width)):
            raise ValueError(f"longitudinal width must be positive and finite, "
                             f"got {self.width!r}")

    def eval(self, x) -> np.ndarray:
        return np.exp(-(np.asarray(x, dtype=float) / self.width) ** 2)

    def integral(self) -> float:
        """width sqrt(pi)."""
        return self.width * math.sqrt(math.pi)

    def moments(self, k_lambda: float) -> tuple[float, float, float]:
        """(cos^2, sin*cos, sin^2) moments of L at frequency ``k_lambda``.

        cos^2 = (1 + cos 2y) / 2 and sin^2 = (1 - cos 2y) / 2, with the
        Gaussian's cosine transform at 2 k_lambda,
        width sqrt(pi) exp(-(k_lambda width)^2);
        the mixed moment of the even L vanishes.
        """
        half = 0.5 * self.integral()
        decay = -(k_lambda * self.width) ** 2
        return half * (1.0 + math.exp(decay)), 0.0, -half * math.expm1(decay)


def gaussian_longitudinal(width: float = 1.0) -> GaussianLongitudinal:
    return GaussianLongitudinal(width)


@dataclass(frozen=True)
class PotentialSpec:
    """Separable matrix potential M * T(r_perp) * L(x3) with decay metadata.

    The matrix part must be positive semidefinite; T is stored by its log
    and L is a Gaussian, so both are nonnegative and the potential is
    sign-definite.  ``nu`` records the joint decay exponent and must
    exceed 3 for the shift function to be defined through
    resolvent-difference traces.
    """

    matrix_part: np.ndarray
    transverse: RadialProfile
    longitudinal: GaussianLongitudinal
    nu: float

    def __post_init__(self):
        m = np.asarray(self.matrix_part, dtype=complex)
        if m.shape != (4, 4) or np.max(np.abs(m - m.conj().T)) > 1e-12:
            raise ValueError("matrix part must be a hermitian 4x4 matrix")
        eig = np.linalg.eigvalsh(m)
        if eig[0] < -1e-12 * max(1.0, eig[-1]):
            raise ValueError("matrix part must be positive semidefinite")
        if not self.nu > 3:
            raise ValueError("potential decay exponent nu must exceed 3")
        object.__setattr__(self, "matrix_part", m)

    def column_scale(self, diag_index: int) -> float:
        """M_ii times the integral of L: the column symbol is this times T."""
        return float(self.matrix_part[diag_index, diag_index].real) * self.longitudinal.integral()

    def _column_profile(self, diag_index: int) -> RadialProfile:
        scale = self.column_scale(diag_index)
        log_scale = -math.inf if scale == 0.0 else math.log(scale)
        trans = self.transverse
        # a nonnegative multiple of a nonincreasing T is nonincreasing
        return RadialProfile(lambda r: log_scale + trans.log_value(r), trans.law.scaled(scale),
                             trans.nonincreasing)

    @cached_property
    def w_plus(self) -> RadialProfile:
        """x3-integrated (1,1) entry, the symbol governing the +m edge."""
        return self._column_profile(0)

    @cached_property
    def w_minus(self) -> RadialProfile:
        """x3-integrated (3,3) entry, the symbol governing the -m edge."""
        return self._column_profile(2)


def edge_threshold(lam: float, edge: float, m: float = 1.0) -> float:
    """Threshold map 2 sqrt(|lam - edge m| / |lam + edge m|) at the edge
    edge * m (edge = +-1), on either side of the gap; it collapses to 0 as
    lam approaches that edge, which is the divergence mechanism."""
    return 2.0 * math.sqrt(abs(lam - edge * m) / abs(lam + edge * m))


def levinson_energies(eps: float, m: float, edge: float) -> tuple[float, float]:
    """(inside, outside) energies of a Levinson row: edge m (1 - eps) and
    edge m / (1 - eps), mirrored about the edge edge * m (edge = +-1)."""
    return edge * m * (1.0 - eps), edge * m / (1.0 - eps)


@dataclass(frozen=True)
class BracketEstimate:
    """(lower, upper) bracket with its slack; bounded terms excluded."""

    lower: float
    upper: float
    epsilon: float
    threshold: float | None = None
    bounded: bool = False

    def __post_init__(self):
        if self.lower > self.upper + 1e-12:
            raise ValueError("bracket lower end exceeds upper end")

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.lower + self.upper)


def omega1_trace(lam: float, wplus_spec: LogSpectrum, wminus_spec: LogSpectrum,
                 s, m: float = 1.0):
    """Tr arctan(Omega1 / s) for Omega1 = diag(W+ / t(lam, +1), W- / t(lam, -1)).

    Tr arctan((W / t) / s) = Tr arctan(W / (s t)), so each family is traced
    at its own threshold and no spectrum is scaled or merged.  s may be a
    1-D array of m values: each family is then traced once for all of
    them, at one call's fixed cost plus m rows of arctan values, and the
    traces come back as an array.
    """
    if not abs(lam) > m:
        raise ValueError("outside-gap operator requires |lambda| > m")
    return (wplus_spec.trace_arctan(s * edge_threshold(lam, 1.0, m))
            + wminus_spec.trace_arctan(s * edge_threshold(lam, -1.0, m)))


@dataclass(frozen=True)
class OmegaModel:
    """Tensor-factored outside-gap block operator for a separable potential.

    For V = M * T(r) L(x3) the operator factorises into a 2x2 Gram matrix
    of (cos, sin) under L, the Toeplitz compression of T, and a 2x2
    spinor block; the spectrum is the product set of the three factors
    over 2 kappa.
    """

    lam: float
    m: float
    moments: tuple
    q_eigs: np.ndarray
    spinor_eigs: np.ndarray
    log_tau: np.ndarray
    spectrum: LogSpectrum
    trace_sum: float
    trace_bound: float


def build_omega_full(est: "SsfEstimator", lam: float) -> OmegaModel:
    """Assemble the full outside-gap operator and its spectrum."""
    pot, m = est.pot, est.m
    if not abs(lam) > m:
        raise ValueError("outside-gap operator requires |lambda| > m")
    kappa = math.sqrt(lam * lam - m * m)
    m1, m2, m3 = pot.longitudinal.moments(kappa)
    q = np.array([[m1, m2], [m2, m3]])
    q_eigs = np.clip(np.linalg.eigvalsh(q), 0.0, None)

    mp = pot.matrix_part
    spinor = np.array(
        [
            [abs(lam + m) * mp[0, 0].real, kappa * mp[0, 2]],
            [kappa * np.conj(mp[0, 2]), abs(lam - m) * mp[2, 2].real],
        ],
        dtype=complex,
    )
    spinor_eigs = np.clip(np.linalg.eigvalsh(spinor), 0.0, None)

    tau = est.transverse_model
    log_tau = tau.log_eigen_by_k

    logs = []
    for qa in q_eigs:
        for cb in spinor_eigs:
            if qa <= 0.0 or cb <= 0.0:
                continue
            logs.append(log_tau + math.log(qa) + math.log(cb) - math.log(2.0 * kappa))
    spectrum = LogSpectrum.from_log(np.concatenate(logs) if logs else np.empty(0))

    tau_trace = float(np.exp(tau.spectrum.log_schatten_pth_power(1)))
    trace_sum = float(np.sum(q_eigs) * np.sum(spinor_eigs) * tau_trace / (2.0 * kappa))
    # Tr W+- = M_ii (integral L) Tr pTp
    bound = tau_trace * (math.sqrt(abs(lam + m) / abs(lam - m)) * pot.column_scale(0)
                         + math.sqrt(abs(lam - m) / abs(lam + m)) * pot.column_scale(2))
    if trace_sum > bound * (1.0 + 1e-9):
        raise AssertionError(f"trace bound violated: {trace_sum} > {bound}")
    return OmegaModel(lam, m, (m1, m2, m3), q_eigs, spinor_eigs, log_tau,
                      spectrum, trace_sum, bound)


class SsfEstimator:
    """Shared state for gap-edge shift-function estimates.

    Holds the Toeplitz compression of the transverse profile in one
    basis, whose truncation must be adequate for the requested threshold
    range, and the two column-symbol compressions, whose logs are its logs
    shifted by log(M_ii integral L).
    """

    def __init__(self, pot: PotentialSpec, basis: LLLBasis, m: float = 1.0):
        self.pot = pot
        self.m = m
        self.basis = basis

    @cached_property
    def transverse_model(self) -> ToeplitzModel:
        """pTp: the estimator's one radial quadrature."""
        return toeplitz_radial_spectrum(self.pot.transverse, self.basis)

    def _column_model(self, profile: RadialProfile, diag_index: int) -> ToeplitzModel:
        """pWp for W = M_ii (integral L) T: pTp's logs shifted by the log of
        that scale, no quadrature."""
        tau, scale = self.transverse_model, self.pot.column_scale(diag_index)
        if scale == 0.0 or tau.log_eigen_by_k is None:  # the zero operator
            return ToeplitzModel(self.basis, profile, None)
        return ToeplitzModel(self.basis, profile, tau.log_eigen_by_k + math.log(scale))

    @cached_property
    def wplus_model(self) -> ToeplitzModel:
        return self._column_model(self.pot.w_plus, 0)

    @cached_property
    def wminus_model(self) -> ToeplitzModel:
        return self._column_model(self.pot.w_minus, 2)

    def _edge(self, pair: str):
        """(edge sign e, column symbol, its compression): H- diverges at the
        +m edge (e = 1, W+), H+ at the -m edge (e = -1, W-)."""
        if pair == "H-":
            return 1.0, self.pot.w_plus, self.wplus_model
        if pair == "H+":
            return -1.0, self.pot.w_minus, self.wminus_model
        raise ValueError("pair must be 'H+' or 'H-'")

    # -- inside the gap ------------------------------------------------

    def inside_bracket(self, lam: float, eps: float, pair: str) -> BracketEstimate:
        """Counting bracket for the shift function inside the gap.

        The pair whose eigenvalues do not accumulate at the probed edge
        gets the degenerate bracket [0, 0] flagged ``bounded``.  lambda = 0
        is on both sides, so H+ at -0 mirrors H- at +0.  Both slack
        thresholds (1 -+ eps) t are checked in one guarded read and counted
        in one call.
        """
        if not abs(lam) < self.m:
            raise ValueError("inside bracket requires |lambda| < m")
        if not 0.0 < eps < 1.0:
            raise ValueError("slack eps must lie in (0, 1)")
        e, _, model = self._edge(pair)
        if e * lam < 0.0:
            return BracketEstimate(0.0, 0.0, eps, None, bounded=True)
        t = edge_threshold(lam, e, self.m)
        s = np.array([(1.0 - eps) * t, (1.0 + eps) * t])
        model.require_adequate(s)
        # H- counts -n_+ at the +m edge, H+ counts +n_+ at the -m edge
        lower, upper = sorted((-e * model.spectrum.n_plus(s)).tolist())
        return BracketEstimate(lower, upper, eps, t)

    # -- outside the gap -----------------------------------------------

    def outside_bracket(self, lam: float, eps: float, pair: str) -> BracketEstimate:
        """arctan-trace bracket for the shift function outside the gap.

        W+ and W- are each traced once, for both s = 1 +- eps.
        """
        if not 0.0 < eps < 1.0:
            raise ValueError("slack eps must lie in (0, 1)")
        if not abs(lam) > self.m:
            raise ValueError("outside bracket requires |lambda| > m")
        e, _, _ = self._edge(pair)
        if not e * lam > self.m:
            raise ValueError(
                "divergent asymptotics outside the gap pair H- with the +m edge "
                "and H+ with the -m edge; other combinations are not estimated"
            )
        wp, wm = self.wplus_model.spectrum, self.wminus_model.spectrum
        tr_lo, tr_hi = omega1_trace(lam, wp, wm, np.array([1.0 + eps, 1.0 - eps]),
                                    self.m).tolist()
        self._check_arctan_tail(lam, 1.0 - eps, tr_hi)
        # H- (+m edge) carries the minus sign, H+ (-m edge) the plus sign
        lower, upper = sorted((-e * tr_lo / math.pi, -e * tr_hi / math.pi))
        return BracketEstimate(lower, upper, eps)

    def _check_arctan_tail(self, lam: float, s: float, trace_value: float):
        """Abort when the truncated arctan sum visibly misses tail mass.

        The tail contribution is bounded by the scaled tail eigenvalue sum
        (arctan is below its argument); it must stay negligible against
        the computed trace.  Each family is read at s t(lam, +-1).
        """
        budget = max(ARC_TAIL_TOL, 1e-2 * abs(trace_value))
        for model, edge in ((self.wplus_model, 1.0), (self.wminus_model, -1.0)):
            lv = model.spectrum.positive_logs[::-1]  # ascending
            if lv.size < 4:
                continue
            ratio = math.exp(lv[0] - lv[1])  # local decay at the bottom
            if not ratio < 0.999999:
                raise TruncatedTailError("spectrum bottom is not decaying")
            # crude upper envelope: geometric continuation for exponential
            # tails, k^(-2)-type continuation otherwise
            tail_geo = math.exp(lv[0]) * ratio / (1.0 - ratio)
            tail_pow = math.exp(lv[0]) * lv.size
            tail_sum = min(tail_geo, tail_pow) if ratio > 0.99 else tail_geo
            tail = tail_sum / (s * edge_threshold(lam, edge, self.m))
            if tail > budget:
                raise TruncatedTailError(
                    f"arctan tail estimate {tail:.3e} exceeds "
                    f"budget {budget:.3e}; enlarge the basis"
                )

    # -- leading-order predictions and Levinson ratios ------------------

    def predict(self, lam: float, side: str, pair: str) -> float:
        """Leading asymptotic value of the shift function near the edge e m:
        -e n(edge_threshold(lam, e)) on both sides of the gap, with the edge
        symbol's counting law n, times its outside prefactor outside.  A
        zero edge symbol compresses to the zero operator and predicts 0
        under every law."""
        e, profile, model = self._edge(pair)
        if model.log_eigen_by_k is None:
            return 0.0
        value = profile.law.count(edge_threshold(lam, e, self.m), self.basis.field.b0)
        if side != "inside":
            value *= profile.law.outside_prefactor()
        return -e * value

    def levinson_target(self, pair: str) -> float:
        return self._edge(pair)[1].law.outside_prefactor()

    def levinson_rows(self, eps_sequence, pair: str = "H-",
                      eps_bracket: float = 0.1):
        """Midpoint ratio outside/inside at mirrored distances from the edge.

        Rows are (eps, lambda_inside, lambda_outside, mid_inside,
        mid_outside, ratio, target); the ratio converges to the target as
        eps decreases.
        """
        target = self.levinson_target(pair)
        e = self._edge(pair)[0]
        rows = []
        for eps in eps_sequence:
            lam_in, lam_out = levinson_energies(eps, self.m, e)
            inside = self.inside_bracket(lam_in, eps_bracket, pair)
            outside = self.outside_bracket(lam_out, eps_bracket, pair)
            if inside.midpoint == 0.0:
                raise ZeroDivisionError(
                    "inside estimate vanished; lambda too far from the edge "
                    "or truncation too small"
                )
            ratio = outside.midpoint / inside.midpoint
            rows.append((float(eps), lam_in, lam_out, inside.midpoint,
                         outside.midpoint, float(ratio), target))
        return rows


class TruncatedTailError(DiracSsfError, RuntimeError):
    """The truncated spectrum misses non-negligible arctan tail mass."""


# -- finite-rank realisation of the factorised gap-edge operators --------

def gap_edge_factor(est: SsfEstimator, grid: Grid1D, lam: float,
                    edge: float) -> np.ndarray:
    """Explicit factor K of the scaled gap-edge operator c * K^H K at the
    edge ``edge`` * m (edge = +-1).

    The transverse action of the square-rooted potential is realised
    through the matrix square root of the Toeplitz compression (diagonal
    here), the longitudinal action through pointwise square roots on the
    grid, and the spinor action through the PSD square root of the matrix
    part.  This makes K K^H equal a projected multiplication operator
    literally at finite rank, so the nonzero spectra of K^H K and K K^H
    must coincide exactly.
    """
    pot, m = est.pot, est.m
    if not abs(lam) < m:
        raise ValueError("gap-edge factorisation requires |lambda| < m")
    theta = np.exp(0.5 * est.transverse_model.log_eigen_by_k)

    x = grid.nodes
    w = grid.trapezoid_weights
    long_vals = pot.longitudinal.eval(x)
    sqrt_long = np.sqrt(np.clip(long_vals * w, 0.0, None))

    eigval, eigvec = np.linalg.eigh(pot.matrix_part)
    sqrt_m = (eigvec * np.sqrt(np.clip(eigval, 0.0, None))) @ eigvec.conj().T
    row = sqrt_m[0] if edge > 0 else sqrt_m[2]
    # the gap-edge operator is the compression over its threshold map
    prefactor = 1.0 / edge_threshold(lam, edge, m)
    factor = np.kron(np.diag(theta), np.kron(sqrt_long, row))
    return math.sqrt(prefactor) * factor
