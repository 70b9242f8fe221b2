"""In-process workloads: seeded inputs, operations and their output checks.

Each workload function takes the seed and returns a list of ``Op``.  An
op's ``run`` is the timed call into diracssf's public API; its ``check``
runs outside the timed region and returns None for a correct output or
a reason string.  Checks use oracles that do not go through the code
under test (closed forms, mpmath, scipy.special, a plain numpy
recomputation) at the acceptance tolerances.  Where an op can supply a
``key`` of its output, a pass whose output equals an already verified
one is accepted without re-running the oracle.

Library modules are reached through module attributes at call time, so
the tracer's wrappers see every call.
"""

import dataclasses
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from diracssf import (asymptotics, counting, discrete_model, kernels1d, landau,
                      ssf, toeplitz)


@dataclass(frozen=True)
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], str | None]
    key: Callable[[object], object] | None = None
    repeat: int = 1     # runs in a row per pass, so that cheap ops get enough samples


def _rel_dev(got, want):
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    return float(np.max(np.abs(got - want) / np.maximum(np.abs(want), 1e-300)))


# -- deep-basis ---------------------------------------------------------------

NORM_TOL = 1e-8       # criteria 2 and 3a: closed-form norms and eigenvalues
LAW_TOL = 1e-12       # law values recomputed from their closed forms


@dataclass(frozen=True)
class RadialCase:
    name: str
    b0: float
    kind: str             # power | gauss | disc
    param: float          # power exponent, gaussian eta, or disc radius
    phi_amp: float        # amplitude of phi_tilde = phi_amp * tanh(r); 0 = flat
    s_values: tuple
    sample_k: tuple = ()  # k checked against mpmath; set once K is known
    repeat: int = 1       # runs per pass; more for the cheap cases

    def field(self):
        if self.phi_amp == 0.0:
            return landau.FieldSpec(self.b0)
        amp = self.phi_amp
        return landau.FieldSpec(self.b0, lambda r: amp * np.tanh(r))

    def profile(self):
        if self.kind == "power":
            return toeplitz.power_profile(self.param)
        if self.kind == "gauss":
            return toeplitz.gaussian_profile(eta=self.param)
        return toeplitz.disc_profile(radius=self.param)


def _mp_log_moment(case, k, with_symbol):
    """log of integral_0^inf U(r)^[with_symbol] r^(2k+1) exp(-2 phi(r)) dr by mpmath.

    U is the Gaussian exp(-eta r^2) and phi = b0 r^2/4 + phi_amp tanh(r).
    """
    import mpmath as mp

    mp.mp.dps = 30
    b0, amp, eta = mp.mpf(case.b0), mp.mpf(case.phi_amp), mp.mpf(case.param)
    rate = b0 / 2 + (eta if with_symbol else 0)
    peak = mp.sqrt((2 * k + 1) / (2 * rate))
    width = 1 / mp.sqrt(2 * rate)
    # shift by the log-integrand at the peak so mpmath integrates O(1) values
    shift = (2 * k + 1) * mp.log(peak) - rate * peak ** 2

    def f(r):
        val = (2 * k + 1) * mp.log(r) - b0 * r * r / 2 - 2 * amp * mp.tanh(r) - shift
        if with_symbol:
            val -= eta * r * r
        return mp.exp(val)

    cuts = [peak + j * width for j in (-40, -12, -4, 0, 4, 12, 40)]
    points = [mp.mpf(0)] + [c for c in cuts if c > 0] + [mp.inf]
    return float(mp.log(mp.quad(f, points)) + shift)


def _check_radial(case, out):
    basis, model, comparison = out
    ks = np.arange(basis.K)
    if case.phi_amp == 0.0:
        dev = float(np.max(np.abs(basis.log_norms - landau.log_norms_closed_form(case.b0, ks))))
    else:
        dev = max(abs(basis.log_norms[k] - 0.5 * _mp_log_moment(case, k, False))
                  for k in case.sample_k)
    if not dev <= NORM_TOL:
        return f"log-norms deviate by {dev:.2e} from the oracle (> {NORM_TOL:g})"

    log_eigs = model.log_eigen_by_k
    exact = None
    if case.kind == "gauss" and case.phi_amp == 0.0:
        exact = (ks + 1.0) * math.log(case.b0 / (case.b0 + 2.0 * case.param))
    elif case.kind == "disc":
        from scipy.special import gammainc

        oracle = gammainc(ks + 1.0, 0.5 * case.b0 * case.param ** 2)
        ks = ks[oracle > 1e-290]
        exact = np.log(oracle[ks])
        log_eigs = log_eigs[ks]
    if exact is not None:
        dev = float(np.max(np.abs(np.expm1(log_eigs - exact))))
    elif case.kind == "power":
        dev = max(abs(math.expm1(log_eigs[k] - _mp_power_log_eig(case, k)))
                  for k in case.sample_k)
    else:
        dev = max(abs(math.expm1(log_eigs[k] - _mp_log_moment(case, k, True)
                                 + _mp_log_moment(case, k, False)))
                  for k in case.sample_k)
    if not dev <= NORM_TOL:
        return f"eigenvalues deviate by {dev:.2e} from the oracle (> {NORM_TOL:g})"

    counted = exact if exact is not None else model.log_eigen_by_k
    for s, n, law_value, ratio, halfwidth in comparison.rows:
        want_n = int(np.count_nonzero(counted > math.log(s)))
        if n != want_n:
            return f"n_plus({s:g}) = {n}, expected {want_n}"
        want_law = _law_value(case, s)
        if _rel_dev(law_value, want_law) > LAW_TOL:
            return f"law value at s={s:g} is {law_value!r}, expected {want_law!r}"
        if _rel_dev(ratio, n / want_law) > LAW_TOL or _rel_dev(halfwidth, 1 / want_law) > LAW_TOL:
            return f"ratio row at s={s:g} inconsistent with its count and law"
    return None


def _mp_power_log_eig(case, k):
    """log lambda_k for U = (1 + r^2)^(-alpha/2), flat field: a Gamma(k+1) average."""
    import mpmath as mp

    mp.mp.dps = 30
    half_alpha = mp.mpf(case.param) / 2
    c = 2 / mp.mpf(case.b0)
    lg = mp.loggamma(k + 1)

    def f(u):
        return mp.exp(k * mp.log(u) - u - lg) * (1 + c * u) ** (-half_alpha)

    w = mp.sqrt(k + 1)
    cuts = [k + j * w for j in (-40, -12, -4, 0, 4, 12, 40)]
    points = [mp.mpf(0)] + [x for x in cuts if x > 0] + [mp.inf]
    return float(mp.log(mp.quad(f, points)))


def _law_value(case, s):
    if case.kind == "power":
        return s ** (-2.0 / case.param) * case.b0 / 2.0
    if case.kind == "gauss":
        return abs(math.log(s)) / math.log1p(2.0 * case.param / case.b0)
    return abs(math.log(s)) / math.log(abs(math.log(s)))


def _radial_key(out):
    basis, model, comparison = out
    return (basis.log_norms.tobytes(), model.log_eigen_by_k.tobytes(), repr(comparison.rows))


def deep_basis(seed):
    """Large radial compressions: build the basis, the spectrum, and compare to the law.

    The seed jitters each case's thresholds by at most 1 %, which moves its
    truncation K by under 1 %, so the cost of a pass does not depend on
    the seed while its inputs do.
    """
    rng = np.random.default_rng(seed)

    def jitter(values):
        f = 1.0 + 0.01 * rng.uniform(-1.0, 1.0)
        return tuple(v * f for v in values)

    cases = [
        RadialCase("power-3", 1.0, "power", 3.0, 0.0, jitter((1e-4, 3e-4, 1e-3))),
        RadialCase("power-3.5", 1.0, "power", 3.5, 0.0, jitter((1e-4, 3e-4, 1e-3))),
        RadialCase("gauss-tanh", 1.0, "gauss", 0.05, 0.5 * (1.0 + 0.01 * rng.uniform(-1, 1)),
                   jitter((1e-20, 1e-30, 1e-40)), repeat=3),
        RadialCase("gauss-flat", 2.0, "gauss", 1.0, 0.0, jitter((1e-40, 1e-50, 1e-60)),
                   repeat=5),
        RadialCase("disc", 2.0, "disc", 1.0, 0.0, jitter((1e-20, 1e-30, 1e-40)), repeat=5),
    ]
    ops = []
    for case in cases:
        profile = case.profile()
        K = toeplitz.suggest_truncation(profile.law, min(case.s_values), case.b0)
        picks = {0, 1, K // 2, K - 1, *rng.integers(2, K - 1, size=2).tolist()}
        case = dataclasses.replace(case, sample_k=tuple(sorted(picks)))
        field = case.field()

        def run(case=case, profile=profile, field=field, K=K):
            basis = landau.build_lll_basis(field, K)
            model = toeplitz.toeplitz_radial_spectrum(profile, basis)
            law = asymptotics.law_for_profile(profile, case.b0)
            return basis, model, asymptotics.compare_law(model, law, case.s_values)

        ops.append(Op(f"{case.name} K={K}", run,
                      lambda out, case=case: _check_radial(case, out), _radial_key,
                      case.repeat))
    return ops


# -- edge-queries -------------------------------------------------------------

EDGE_EPS_RANGE = (1e-4, 1e-1)
EDGE_BRACKET = 0.1
EDGE_QUERIES = {"power": 48, "gauss": 16}   # about three power queries per Gaussian
EDGE_TOL = 1e-10


def _diag_matrix():
    mat = np.zeros((4, 4), dtype=complex)
    mat[0, 0] = mat[2, 2] = 1.0
    return mat


def _levinson_estimators():
    """The two shipped Levinson potentials, with their compressions built."""
    pot_pow = ssf.PotentialSpec(_diag_matrix(), toeplitz.power_profile(4.0, amplitude=8.0),
                                ssf.gaussian_longitudinal(1.0), nu=5.0)
    est_pow = ssf.SsfEstimator(pot_pow, landau.build_lll_basis(landau.FieldSpec(1.0), 4000))

    pot_exp = ssf.PotentialSpec(_diag_matrix(), toeplitz.gaussian_profile(1.0, amplitude=8.0),
                                ssf.gaussian_longitudinal(1.0), nu=5.0)
    eps = EDGE_EPS_RANGE[0]
    s_min = 2.0 * math.sqrt(eps / (2.0 - eps)) * (1.0 - EDGE_BRACKET)
    k = max(toeplitz.suggest_truncation(pot_exp.w_plus.law, s_min, 2.0),
            toeplitz.suggest_truncation(pot_exp.w_minus.law, s_min, 2.0), 8)
    est_exp = ssf.SsfEstimator(pot_exp, landau.build_lll_basis(landau.FieldSpec(2.0), k))
    for est in (est_pow, est_exp):
        est.wplus_model, est.wminus_model  # build both compressions now
    return {"power": (est_pow, 1.0 / (2.0 * math.cos(math.pi / 4.0))),
            "gauss": (est_exp, 0.5)}


def _check_levinson(est, target, eps, rows):
    """Recompute one H- Levinson row from the compressions' log-eigenvalues."""
    if len(rows) != 1:
        return f"expected one row, got {len(rows)}"
    eps_, lam_in, lam_out, mid_in, mid_out, ratio, target_ = rows[0]
    m = 1.0
    lp = est.wplus_model.log_eigen_by_k
    lm = est.wminus_model.log_eigen_by_k
    want_in, want_out = m * (1.0 - eps), m / (1.0 - eps)

    t = 2.0 * math.sqrt((m - want_in) / (m + want_in))
    counts = [int(np.count_nonzero(lp > math.log(f * t)))
              for f in (1.0 - EDGE_BRACKET, 1.0 + EDGE_BRACKET)]
    want_mid_in = -0.5 * (counts[0] + counts[1])

    log_fp = math.log(0.5) + 0.5 * math.log((want_out + m) / (want_out - m))
    log_fm = math.log(0.5) + 0.5 * math.log((want_out - m) / (want_out + m))
    with np.errstate(over="ignore"):
        traces = [float(np.sum(np.arctan(np.exp(lp + log_fp - math.log(s))))
                        + np.sum(np.arctan(np.exp(lm + log_fm - math.log(s)))))
                  for s in (1.0 - EDGE_BRACKET, 1.0 + EDGE_BRACKET)]
    want_mid_out = -(traces[0] + traces[1]) / (2.0 * math.pi)

    if eps_ != eps or _rel_dev([lam_in, lam_out], [want_in, want_out]) > 1e-15:
        return f"row parameters ({eps_!r}, {lam_in!r}, {lam_out!r}) do not match eps={eps!r}"
    if mid_in != want_mid_in:
        return f"inside midpoint {mid_in!r}, recomputed {want_mid_in!r}"
    if _rel_dev(mid_out, want_mid_out) > EDGE_TOL:
        return f"outside midpoint {mid_out!r}, recomputed {want_mid_out!r}"
    if _rel_dev(ratio, want_mid_out / want_mid_in) > EDGE_TOL or _rel_dev(target_, target) > 1e-15:
        return f"ratio {ratio!r} or target {target_!r} inconsistent"
    return None


def edge_queries(seed):
    """Single-eps Levinson queries against two prebuilt estimators."""
    rng = np.random.default_rng(seed)
    estimators = _levinson_estimators()
    lo, hi = (math.log10(e) for e in EDGE_EPS_RANGE)
    plan = [kind for kind, n in EDGE_QUERIES.items() for _ in range(n)]
    rng.shuffle(plan)
    ops = []
    for kind in plan:
        est, target = estimators[kind]
        eps = float(10.0 ** rng.uniform(lo, hi))
        ops.append(Op(
            f"levinson-{kind} eps={eps:.3g}",
            lambda est=est, eps=eps: est.levinson_rows([eps], "H-", eps_bracket=EDGE_BRACKET),
            lambda rows, est=est, target=target, eps=eps: _check_levinson(est, target, eps, rows),
            repr))
    return ops


# -- dense-identities ----------------------------------------------------------

IDENTITY_TOL = 1e-10   # criterion 5: arctan-trace identity
FIBER_TOL = 1e-9       # criterion 10
KERNEL_TOL = 1e-6      # criterion 6


def _check_mu_average(psd, s, value):
    eig = np.linalg.eigvalsh(psd)
    direct = float(np.sum(np.arctan(np.clip(eig, 0.0, None) / s))) / math.pi
    spec = counting.LogSpectrum.from_eigenvalues(eig, zero_floor=1e-14)
    lhs, rhs = counting.arctan_trace_identity(s, spec)
    dev = max(abs(value - direct), abs(value - rhs))
    return None if dev <= IDENTITY_TOL else f"mu-average off the arctan trace by {dev:.2e}"


def _h0_op(m):
    h0 = discrete_model.build_h0(1.0, m, 8, 32, 20.0)
    interior, _full = discrete_model.check_square_identity(h0)
    smallest = discrete_model.check_gap(h0)
    fiber = discrete_model.fiber_eigenvalues(h0)
    symmetry = discrete_model.spectrum_symmetry_residual(h0)
    return h0, interior, smallest, fiber, symmetry


def _check_h0(m, out):
    h0, interior, smallest, fiber, symmetry = out
    dev = float(np.max(np.abs(fiber - np.sort(np.linalg.eigvalsh(h0.matrix)))))
    if not (interior <= IDENTITY_TOL and abs(smallest - m) <= FIBER_TOL * m
            and dev <= FIBER_TOL and symmetry <= FIBER_TOL):
        return (f"H0 checks at m={m}: interior {interior:.2e}, gap {smallest!r}, "
                f"fiber {dev:.2e}, symmetry {symmetry:.2e}")
    return None


def _check_kernel_rows(rows):
    if len(rows) != 12:
        return f"expected 12 kernel norm rows, got {len(rows)}"
    for lam, p, closed, grid_value in rows:
        if _rel_dev(grid_value, closed) > KERNEL_TOL:
            return f"kernel norm row lambda={lam} p={p}: {closed!r} vs grid {grid_value!r}"
    return None


def dense_identities(seed):
    """Criterion-5 counting work plus the discrete H0 and kernel-norm checks.

    The 50 PSD dimensions are the fixed ladder 5..100 in seeded order, so
    the dense cost of a pass does not depend on the seed.
    """
    rng = np.random.default_rng(seed)
    ops = []
    for dim in rng.permutation(np.linspace(5, 100, 50).round().astype(int)):
        a = rng.standard_normal((dim, dim))
        psd = a @ a.T / dim
        s = float(abs(rng.standard_normal()) + 0.1)
        ops.append(Op(
            f"mu-average dim={dim}",
            lambda s=s, psd=psd: counting.mu_average_counting(s, np.zeros_like(psd), psd),
            lambda value, s=s, psd=psd: _check_mu_average(psd, s, value),
            float))
    for _ in range(200):
        t1 = rng.standard_normal((15, 15))
        t1 = 0.5 * (t1 + t1.T)
        a = rng.standard_normal((15, 15))
        t2 = a @ a.T / 15.0
        ops.append(Op(
            "counting-average bound dim=15",
            lambda t1=t1, t2=t2: counting.check_pushnitski_bound(0.7, 0.9, t1, t2),
            lambda ok: None if ok else "counting-average bound violated",
            bool))
    for m in (1.0, 2.0):
        ops.append(Op(f"discrete H0 m={m}", lambda m=m: _h0_op(m),
                      lambda out, m=m: _check_h0(m, out),
                      lambda out: tuple(np.asarray(x).tobytes() for x in out[1:])))
    grid = kernels1d.Grid1D(200.0, 2 ** 14)
    ops.append(Op(
        "kernel norm rows",
        lambda: kernels1d.im_s_norm_rows((1.01, 1.5, 2.0, 5.0), 2.0, (1, 2, 4), 1.0, grid),
        _check_kernel_rows, repr))
    return ops


IN_PROCESS = {
    "deep-basis": deep_basis,
    "edge-queries": edge_queries,
    "dense-identities": dense_identities,
}
