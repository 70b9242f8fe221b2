"""Shared quadrature machinery.

Everything here works on plain numpy arrays.  The log-domain batch
integrator is the workhorse behind the Landau-basis norms and the
Toeplitz moments: integrands of the form  exp(g_k(r))  with g_k peaking
at wildly different magnitudes are integrated per-k on per-k intervals,
entirely in the log domain (log-sum-exp over Gauss-Legendre nodes).
"""

from functools import lru_cache

import numpy as np
from scipy.special import logsumexp


class QuadratureError(RuntimeError):
    """Raised when node-count refinement fails to stabilise."""


@lru_cache(maxsize=64)
def gauss_legendre(n: int):
    """Cached Gauss-Legendre nodes/weights on [-1, 1].

    scipy's Newton-iteration root finder stays O(n); the companion-matrix
    route would go dense-cubic and stall at the node counts the adaptive
    integrators are allowed to reach.
    """
    from scipy.special import roots_legendre

    x, w = roots_legendre(n)
    return x, w


def gl_nodes(a: float, b: float, n: int):
    """Gauss-Legendre nodes and weights mapped to [a, b]."""
    x, w = gauss_legendre(n)
    return 0.5 * (b - a) * x + 0.5 * (a + b), 0.5 * (b - a) * w


def log_integral_batch(log_f, lo, hi, *, tol=1e-10, n0=64, n_max=8192):
    """log of integral_{lo_k}^{hi_k} exp(log_f(r)) dr, one value per row.

    ``log_f`` receives a node matrix of shape (m, n) whose k-th row holds
    nodes in [lo[k], hi[k]] and must return log-integrand values of the
    same shape (-inf allowed).  The node count doubles until the change
    in every log-integral is below ``tol``; failure to stabilise raises
    QuadratureError with the last two iterates in the message.
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    if np.any(hi <= lo):
        raise ValueError("empty integration interval")
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    prev = None
    n = n0
    while n <= n_max:
        x, w = gauss_legendre(n)
        nodes = half[:, None] * x[None, :] + mid[:, None]
        logw = np.log(half)[:, None] + np.log(w)[None, :]
        cur = logsumexp(log_f(nodes) + logw, axis=1)
        if prev is not None:
            delta = np.abs(cur - prev)
            # rows that are -inf on both iterates are converged (zero symbol)
            delta = np.where(np.isneginf(cur) & np.isneginf(prev), 0.0, delta)
            if np.max(delta) <= tol:
                return cur, n
        prev = cur
        n *= 2
    raise QuadratureError(
        f"log-integral did not stabilise to {tol:g} below {n_max} nodes; "
        f"last change {np.max(np.abs(cur - prev)):.3e}"
    )


def panel_integral(f, a, b, panel_width, *, order=16, tol=1e-12, max_order=256):
    """Composite Gauss-Legendre integral with fixed-width panels.

    Meant for oscillatory integrands: the caller passes a panel width
    tied to the oscillation half-period so every panel sees at most half
    a period.  The per-panel order doubles until the total is stable.
    """
    if b <= a:
        return 0.0
    width = min(panel_width, b - a)
    n_panels = int(np.ceil((b - a) / width))
    edges = np.linspace(a, b, n_panels + 1)
    prev = None
    n = order
    while n <= max_order:
        x, w = gauss_legendre(n)
        half = 0.5 * np.diff(edges)
        mid = 0.5 * (edges[1:] + edges[:-1])
        nodes = half[:, None] * x[None, :] + mid[:, None]
        weights = half[:, None] * w[None, :]
        cur = float(np.sum(f(nodes) * weights))
        if prev is not None and abs(cur - prev) <= tol * (1.0 + abs(cur)):
            return cur
        prev = cur
        n *= 2
    raise QuadratureError(
        f"panel integral did not stabilise: last change {abs(cur - prev):.3e}"
    )


def find_peak(log_f, r0, *, lo_cap=1e-300, hi_cap=None, iters=90):
    """Vectorised unimodal peak search for per-row log-integrands.

    ``log_f`` maps an (m,) or (m, p) array of radii to values of the same
    shape.  Starting from the guesses ``r0``, the bracket is expanded
    multiplicatively until the maximum sits strictly inside, then a
    ternary search contracts it.  Returns the peak positions (m,).
    """
    r0 = np.asarray(r0, dtype=float)
    lo = np.maximum(r0 * 0.25, lo_cap)
    hi = r0 * 4.0
    if hi_cap is not None:
        hi = np.minimum(hi, hi_cap)
        lo = np.minimum(lo, hi * 0.25)
    # expand until the midpoint value beats both edges
    for _ in range(200):
        trip = np.stack([lo, np.sqrt(lo * hi), hi], axis=1)
        vals = log_f(trip)
        move_left = vals[:, 0] >= vals[:, 1]
        move_right = vals[:, 2] >= vals[:, 1]
        if hi_cap is not None:
            move_right &= hi < hi_cap
        if not (np.any(move_left) or np.any(move_right)):
            break
        lo = np.where(move_left, np.maximum(lo * 0.25, lo_cap), lo)
        new_hi = np.where(move_right, hi * 4.0, hi)
        hi = np.minimum(new_hi, hi_cap) if hi_cap is not None else new_hi
    for _ in range(iters):
        m1 = lo + (hi - lo) / 3.0
        m2 = hi - (hi - lo) / 3.0
        pair = np.stack([m1, m2], axis=1)
        vals = log_f(pair)
        take_right = vals[:, 0] < vals[:, 1]
        lo = np.where(take_right, m1, lo)
        hi = np.where(take_right, hi, m2)
    return 0.5 * (lo + hi)


def bracket_drop(log_f, peak, g_peak, *, drop=80.0, side, hard_limit=None, iters=100):
    """Find per-row radii where the log-integrand has fallen by ``drop``.

    side='left' searches in (0, peak], side='right' in [peak, inf) or up
    to ``hard_limit`` (e.g. a compact support edge).  If the integrand at
    the hard limit is still above the drop target the limit itself is
    returned, which is what a boundary-peaked integrand needs.
    """
    peak = np.asarray(peak, dtype=float)
    target = g_peak - drop
    if side == "left":
        outer = np.maximum(peak * 1e-12, 1e-300)
        for _ in range(80):
            vals = log_f(outer)
            high = vals > target
            if not np.any(high):
                break
            outer = np.where(high, outer * 1e-3, outer)
            outer = np.maximum(outer, 1e-300)
        lo, hi = outer, peak
    else:
        step = np.maximum(peak, 1.0)
        outer = peak + step
        for _ in range(200):
            if hard_limit is not None:
                outer = np.minimum(outer, hard_limit)
            vals = log_f(outer)
            high = vals > target
            if hard_limit is not None:
                at_edge = outer >= hard_limit
                if not np.any(high & ~at_edge):
                    break
                outer = np.where(high & ~at_edge, peak + (outer - peak) * 2.0, outer)
            else:
                if not np.any(high):
                    break
                outer = np.where(high, peak + (outer - peak) * 2.0, outer)
        lo, hi = peak, outer
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        vals = log_f(mid)
        above = vals > target
        if side == "left":
            hi = np.where(above, mid, hi)
            lo = np.where(above, lo, mid)
        else:
            lo = np.where(above, mid, lo)
            hi = np.where(above, hi, mid)
    out = 0.5 * (lo + hi)
    if side == "right" and hard_limit is not None:
        edge_rows = log_f(np.asarray(hard_limit, dtype=float) * np.ones_like(peak)) > target
        out = np.where(edge_rows, hard_limit, out)
    return out
