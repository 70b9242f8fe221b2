"""Magnetic field data, the spectral-gap constant, and the lowest Landau level.

For a field b = b0 + Laplacian(phi_tilde) with b0 > 0 and a bounded radial
phi_tilde, the zero modes of the transverse Pauli component are spanned by
z^k exp(-phi(|z|)) with phi(r) = b0 r^2/4 + phi_tilde(r).  Radial symmetry
keeps distinct angular momenta orthogonal, so the basis is fixed by the
norm of each radial function; those norms grow factorially and are kept in
the log domain from the start.  On the flat field (phi_tilde == 0) the
squared norms are the Gamma integrals (1/2)(2/b0)^(k+1) k!, with log k!
from the numpy table ``log_factorials`` and no quadrature; a perturbed
field integrates each norm with ``log_radial_moments``.
"""

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ._quad import QuadratureError, bracket_drop, find_peak, log_integral_batch

# FieldSpec.osc: phi_tilde is sampled at OSC_SAMPLES radii on [0, OSC_RADIUS]
OSC_SAMPLES = 10_000
OSC_RADIUS = 200.0
# log_radial_moments: the node count doubles from MOMENT_N0 until every
# log-integral of a MOMENT_CHUNK-row chunk is stable to NORM_TOL
NORM_TOL = 1e-10
MOMENT_N0 = 64
MOMENT_CHUNK = 2048
# log_factorials: math.lgamma below STIRLING_FROM, the Stirling series from there on
STIRLING_FROM = 16


@dataclass(frozen=True)
class FieldSpec:
    """Field strength b0 plus an optional bounded radial perturbation.

    ``osc`` is sup - inf of phi_tilde over a dense radial sample; it is an
    approximation of the true oscillation and is documented as such.
    """

    b0: float
    phi_tilde: Callable[[np.ndarray], np.ndarray] | None = None
    osc: float = field(init=False)

    def __post_init__(self):
        if not self.b0 > 0:
            raise ValueError("field strength b0 must be positive")
        if self.phi_tilde is None:
            osc = 0.0
        else:
            r = np.linspace(0.0, OSC_RADIUS, OSC_SAMPLES)
            vals = np.asarray(self.phi_tilde(r), dtype=float)
            if not np.all(np.isfinite(vals)):
                raise ValueError("phi_tilde must be finite on the sampled radii")
            # light boundedness check on the first derivative as well
            dv = np.diff(vals) / np.diff(r)
            if not np.all(np.isfinite(dv)):
                raise ValueError("phi_tilde must have finite derivatives")
            osc = float(np.max(vals) - np.min(vals))
        object.__setattr__(self, "osc", osc)

    def phi(self, r):
        """Total scalar potential b0 r^2 / 4 + phi_tilde(r)."""
        r = np.asarray(r, dtype=float)
        out = np.multiply(0.25 * self.b0, r)
        out *= r
        if self.phi_tilde is not None:
            out += self.phi_tilde(r)
        return out


def log_radial_moments(fs: FieldSpec, ks, log_symbol=None, support=None, info=None):
    """log of integral_0^inf U(r) r^(2k+1) exp(-2 phi(r)) dr for each k.

    ``log_symbol`` maps radii to log U(r) (None means U == 1); ``support``
    optionally caps the integration at a compact-support edge R.  Peaks are
    located per k by a safeguarded Newton search in log r seeded at the
    flat-field peak sqrt((2k+1)/b0) (or at R for rows still rising there);
    each interval ends where the log-integrand has fallen
    ``_quad.DROP_NATS`` (80 nats), found by regula falsi in log r; and the
    Gauss-Legendre node count doubles from ``MOMENT_N0`` until, in every
    row of a ``MOMENT_CHUNK``-row chunk, the remainder of the log-integral
    after its first-rule peak value (``_quad.log_integral_batch``'s shift)
    is stable to ``NORM_TOL``.  The test is on that O(1) remainder, not on
    log-integrals near 2^18 whose last bits exceed ``NORM_TOL``, so the node
    count does not depend on rounding.  The nodes of a chunk are evaluated
    in cache-sized row blocks (``_quad.BLOCK_ELEMENTS``), for which the
    integrand reads k at the block's rows; the integrand is built in place
    in one buffer, in the operation order of (2k+1) log r - 2 phi + log U,
    and summed by ``np.einsum``, so the block size and the BLAS thread
    count never change a value.  Pass a dict as
    ``info`` to collect the rule descriptor (max node count, outermost
    radius).  A symbol that vanishes at a row's peak seed, such as an
    annulus around a hole, is refused with a ValueError: the search cannot
    start from a zero.
    """
    ks = np.atleast_1d(np.asarray(ks, dtype=float))
    out = np.empty(ks.shape[0])
    for start in range(0, ks.shape[0], MOMENT_CHUNK):
        k = ks[start:start + MOMENT_CHUNK]

        def g(r, rows=slice(None), k=k):
            # (2k+1) log r - 2 phi + log U, built in place in one owned
            # buffer with the operation order of the plain expression
            r = np.asarray(r, dtype=float)
            kk = k[rows]
            kk = kk.reshape((-1,) + (1,) * (r.ndim - 1)) if r.ndim > 1 else kk
            with np.errstate(divide="ignore"):
                val = np.log(r)
            val *= 2.0 * kk + 1.0
            two_phi = fs.phi(r)
            two_phi *= 2.0
            val -= two_phi
            del two_phi  # the symbol's buffer reuses this memory
            if log_symbol is not None:
                val += log_symbol(r)
            return val

        r0 = np.sqrt((2.0 * k + 1.0) / fs.b0)
        if support is not None:
            r0 = np.minimum(r0, 0.95 * support)
        if log_symbol is not None:
            at_seed = np.isneginf(g(r0.reshape(-1, 1))[:, 0])
            if np.any(at_seed):
                i = int(np.argmax(at_seed))
                raise ValueError(
                    f"log-integrand is -inf at the peak seed r = {r0[i]:.6g} (k = {k[i]:g}): "
                    "the symbol vanishes there, as on an inner hole of its support, "
                    "and the peak search cannot start from a zero")
        peak = find_peak(g, r0, hi_cap=support)
        g_peak = g(peak.reshape(-1, 1))[:, 0]
        if np.any(np.isneginf(g_peak)):
            raise ValueError("symbol vanishes at the integrand peak; zero moment")
        lo = bracket_drop(g, peak, g_peak, side="left")
        hi = bracket_drop(g, peak, g_peak, side="right", hard_limit=support)
        vals, nodes = log_integral_batch(g, lo, hi, tol=NORM_TOL, n0=MOMENT_N0)
        out[start:start + MOMENT_CHUNK] = vals
        if info is not None:
            info["nodes"] = max(info.get("nodes", 0), nodes)
            info["r_max"] = max(info.get("r_max", 0.0), float(np.max(hi)))
    return out


@dataclass(frozen=True)
class LLLBasis:
    """Truncated radial zero-mode basis: K log-scale norms plus provenance.

    ``quad_nodes``/``quad_r_max`` describe the radial rule that produced
    the norms (largest node count and outermost radius over all k);
    ``quad_nodes = 0`` with ``quad_r_max = 0.0`` means the norms are the
    flat-field closed form and no rule was run.
    """

    field: FieldSpec
    K: int
    log_norms: np.ndarray
    quad_nodes: int = 0
    quad_r_max: float = 0.0


def log_factorials(K: int) -> np.ndarray:
    """log k! for k = 0 ... K-1.

    Below ``STIRLING_FROM`` each entry is ``math.lgamma(k + 1)``; from there
    on it is the Stirling series, evaluated as numpy rows:

        x (log x - 1) + (log(2 pi) + log x)/2 + 1/(12x) - 1/(360x^3)
            + 1/(1260x^5) - 1/(1680x^7) + 1/(1188x^9),   x = k.

    The first omitted term, 691/(360360 x^11), is below 1.1e-16 from
    x = 16 on, against log 16! = 30.7, so the table is rounding only:
    within 2 ulp of 40-digit mpmath over the tested k, as is math.lgamma.
    The rows go in slices of 4096, so the temporaries stay small beside
    the K-row table.
    """
    out = np.empty(K)
    head = min(K, STIRLING_FROM)
    out[:head] = [math.lgamma(k + 1.0) for k in range(head)]
    for lo in range(head, K, 4096):
        x = np.arange(float(lo), float(min(lo + 4096, K)))
        log_x = np.log(x)
        inv = 1.0 / x
        inv2 = inv * inv
        series = inv * (1 / 12 - inv2 * (1 / 360 - inv2 * (1 / 1260 - inv2 * (1 / 1680 - inv2 / 1188))))
        out[lo:lo + x.size] = x * (log_x - 1.0) + (0.5 * (math.log(2.0 * math.pi) + log_x) + series)
    return out


def build_lll_basis(fs: FieldSpec, K: int) -> LLLBasis:
    """Norms of the first K radial zero modes, in the log domain.

    On the flat field the log-norms are (1/2)[log(1/2) + (k+1) log(2/b0)
    + log k!], with log k! from ``log_factorials``, exact up to rounding,
    and the basis records ``quad_nodes = 0`` and ``quad_r_max = 0.0``.  A
    perturbed field takes the radial quadrature of ``log_radial_moments``,
    at ``NORM_TOL`` like the Toeplitz moments.
    """
    if K < 1:
        raise ValueError("basis size K must be at least 1")
    if fs.phi_tilde is None:
        log_ints = (math.log(0.5) + np.arange(1.0, K + 1.0) * math.log(2.0 / fs.b0)
                    + log_factorials(K))
        return LLLBasis(fs, K, 0.5 * log_ints)
    info = {}
    log_ints = log_radial_moments(fs, np.arange(K), info=info)
    if not np.all(np.isfinite(log_ints)):
        raise QuadratureError("non-finite basis norm encountered")
    return LLLBasis(fs, K, 0.5 * log_ints, info["nodes"], info["r_max"])


def log_norms_closed_form(b0: float, ks) -> np.ndarray:
    """Exact log-norms for phi_tilde == 0: (1/2) log[(1/2)(2/b0)^(k+1) k!]."""
    from scipy.special import gammaln

    ks = np.asarray(ks, dtype=float)
    return 0.5 * (np.log(0.5) + (ks + 1.0) * np.log(2.0 / b0) + gammaln(ks + 1.0))


@dataclass(frozen=True)
class LadderModel:
    """Truncated ladder pair and the transverse Pauli component that
    carries the zero mode.

    ``a`` raises the level index (lower-shift matrix with entries
    sqrt(2 b0 k)), ``a_star`` lowers it, so ``a @ a_star`` carries the
    zero mode.  ``commutator_defect`` stores a_star@a - a@a_star, which
    equals 2 b0 on the interior levels; the top level feels the cut.
    """

    b0: float
    L: int
    a: np.ndarray
    a_star: np.ndarray

    @property
    def h_perp_minus(self):
        return self.a @ self.a_star

    @property
    def commutator_defect(self):
        return self.a_star @ self.a - self.a @ self.a_star

    @property
    def interior(self):
        """Index mask excluding the top (truncation-polluted) level."""
        return np.arange(self.L) < self.L - 1


def build_ladder(b0: float, L: int) -> LadderModel:
    """Build the truncated ladder model; L >= 1 (L = 1 is the zero mode alone)."""
    if L < 1:
        raise ValueError("ladder truncation L must be at least 1")
    if not b0 > 0:
        raise ValueError("field strength b0 must be positive")
    entries = np.sqrt(2.0 * b0 * np.arange(1, L))
    a = np.diag(entries, k=-1)
    model = LadderModel(b0, L, a, a.T.copy())
    # construction invariants
    hm = np.sort(np.linalg.eigvalsh(model.h_perp_minus))
    if abs(hm[0]) > 1e-12 or (L > 1 and abs(hm[1] - 2.0 * b0) > 1e-10 * max(1.0, b0)):
        raise AssertionError("ladder spectrum does not start at {0, 2 b0}")
    defect = model.commutator_defect[:-1, :-1]
    if np.max(np.abs(defect - 2.0 * b0 * np.eye(L - 1)), initial=0.0) > 1e-12 * max(1.0, b0):
        raise AssertionError("interior commutator defect is not 2 b0")
    return model
