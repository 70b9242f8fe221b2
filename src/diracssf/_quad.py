"""Shared quadrature machinery.

Everything here works on plain numpy arrays.  The log-domain batch
integrator is the package's one adaptive rule: it gives the Landau-basis
norms, the Toeplitz moments, the Raikov plane integral and the panels of
the longitudinal box integrals.  Integrands of the form exp(g_k(r)) with
g_k peaking at wildly different magnitudes are integrated per row on
per-row intervals, entirely in the log domain.  Each row is shifted once
by its largest log-integrand on the first Gauss-Legendre rule; every rule
then takes one exp per node of the shifted values, weighted by
``np.einsum`` (not ``@``, whose bits depend on the block height and the
BLAS threads), and the node count doubles on the O(1) remainder, so the
convergence test never sees the rounding of a log-integral near 2^18.
Each rule is evaluated in row blocks of about ``BLOCK_ELEMENTS`` nodes: a
2048-row chunk at 128 nodes would otherwise make every temporary of the
integrand a 2 MiB array, larger than a per-core L2 cache, and the
evaluation would run at memory speed.  Blocking changes only the
evaluation order, never the arithmetic of an element, so the results do
not depend on the block size.  The per-k intervals come from two searches
in u = log r: a safeguarded Newton search for the peak of g_k, and
Illinois regula falsi for the radii where g_k has fallen a fixed number
of nats below its peak.  The Gauss-Legendre rules themselves are computed
here too, in numpy, so the quadrature needs no scipy.
"""

from functools import lru_cache

import numpy as np

from .errors import DiracSsfError

# find_peak and bracket_drop: smallest radius either search moves to
R_FLOOR = 1e-300
# bracket_drop: nats below the peak where an interval ends
DROP_NATS = 80.0
# find_peak: half-width in u = log r of the central-difference stencil, and
# the Newton/bisection step in u below which a row has converged
PEAK_STEP = 1e-5
PEAK_UTOL = 1e-10
# bracket_drop: a row has converged when the log-integrand is within
# DROP_GTOL nats of its target, or its bracket in u is narrower than
# DROP_UTOL * max(1, |u|)
DROP_GTOL = 1e-7
DROP_UTOL = 1e-12
# iteration caps: bracket expansion, Newton steps, regula falsi steps
EXPAND_ITERS = 200
PEAK_ITERS = 100
DROP_ITERS = 100
# gauss_legendre: Newton in theta stops once n * |step| <= GL_STEP_TOL (the
# next step would be below one ulp); above x = GL_REINSCH_X the Legendre
# recurrence runs in 1 - x
GL_STEP_TOL = 1e-9
GL_NEWTON_ITERS = 10
GL_REINSCH_X = 0.9
BESSEL_J0_FIRST_ZERO = 2.404825557695773
# log_integral_batch: nodes per row block, 256 KiB per float64 temporary,
# so the integrand's temporaries stay in a per-core L2 cache; the node
# count doubles up to LOG_NODE_CAP
BLOCK_ELEMENTS = 1 << 15
LOG_NODE_CAP = 8192


class QuadratureError(DiracSsfError, RuntimeError):
    """Raised when node-count refinement fails to stabilise."""


@lru_cache(maxsize=64)
def gauss_legendre(n: int):
    """Cached Gauss-Legendre nodes (ascending) and weights on [-1, 1].

    Computed in numpy, in theta = arccos x on the nodes x >= 0 and
    mirrored.  Newton's method in theta starts from Tricomi's asymptotic
    guesses (Olver's at the node nearest x = 1); each step evaluates
    P_n(cos theta) and dP_n/dtheta by the three-term recurrence, carried
    in 1 - cos theta near x = 1, so nothing ever forms 1 - x^2 from a
    rounded x.  A node has converged once n * |step| <= ``GL_STEP_TOL``;
    its weight is w = 2 / (dP_n/dtheta)^2, with the derivative carried
    across that last step.  Work is O(n) vectors per degree, never an
    n x n array.  Against 40-digit roots every node is within 2^-52 and
    every weight within 1e-13 relative up to n = 8192.  (scipy's
    ``roots_legendre`` is Golub-Welsch through
    ``scipy.linalg.eigvals_banded``; the tests use it as an oracle.)
    """
    if n < 1:
        raise ValueError("Gauss-Legendre order must be positive")
    half = (n + 1) // 2
    k = np.arange(1, half + 1, dtype=float)
    # Tricomi: x_k ~ (1 - c_k) cos(phi_k), turned into theta without
    # forming 1 - x: 2 sin^2(theta/2) = 2 sin^2(phi/2) + c_k cos(phi)
    phi = (4.0 * k - 1.0) * np.pi / (4.0 * n + 2.0)
    c = (n - 1.0) / (8.0 * n**3) + (39.0 - 28.0 / np.sin(phi) ** 2) / (384.0 * n**4)
    theta = 2.0 * np.arcsin(np.sqrt(np.sin(0.5 * phi) ** 2 + 0.5 * c * np.cos(phi)))
    # Olver at the end node, where Tricomi's guess is 2 % off:
    # theta ~ psi + (psi cot psi - 1) / (8 psi nu^2), psi = j_{0,1} / nu
    psi = BESSEL_J0_FIRST_ZERO / (n + 0.5)
    theta[0] = psi + (psi / np.tan(psi) - 1.0) / (8.0 * psi * (n + 0.5) ** 2)
    dp = np.empty(half)
    active = np.arange(half)
    for _ in range(GL_NEWTON_ITERS):
        th = theta[active]
        p, d = _legendre_in_theta(n, th)
        step = p / d
        theta[active] = th - step
        # carry dP/dtheta across the step to first order, through
        # d2P/dtheta2 = -cot(theta) dP/dtheta - n(n+1) P
        dp[active] = d + step * (d / np.tan(th) + n * (n + 1.0) * p)
        active = active[n * np.abs(step) > GL_STEP_TOL]
        if active.size == 0:
            break
    else:
        raise QuadratureError(
            f"gauss_legendre({n}): Newton not converged after {GL_NEWTON_ITERS} "
            f"steps at {active.size} nodes"
        )
    x = np.cos(theta)
    if n % 2:
        x[-1] = 0.0
    w = 2.0 / dp**2
    return (np.concatenate([-x, x[::-1][n % 2:]]),
            np.concatenate([w, w[::-1][n % 2:]]))


def _legendre_in_theta(n, theta):
    """P_n(cos theta) and dP_n/dtheta for 0 < theta <= pi/2.

    Both come from the three-term recurrence, with
    dP_n/dtheta = n (x P_n - P_{n-1}) / sin theta and x = cos theta.
    Where x > ``GL_REINSCH_X`` the recurrence runs in y = 1 - x, so the
    small distance to x = 1 keeps full relative precision; elsewhere it
    runs in x itself, which 1 - y would only give to within eps.
    """
    x = np.cos(theta)
    near = x > GL_REINSCH_X
    p = np.empty_like(theta)
    dp = np.empty_like(theta)
    if np.any(near):
        p[near], dp[near] = _legendre_near_one(n, 2.0 * np.sin(0.5 * theta[near]) ** 2)
    if not np.all(near):
        p[~near], dp[~near] = _legendre_in_x(n, x[~near])
    return p, dp / np.sin(theta)


def _legendre_in_x(n, x):
    """P_n(x) and n (x P_n(x) - P_{n-1}(x)) by the plain recurrence."""
    p, p_prev, t = x.copy(), np.ones_like(x), np.empty_like(x)
    for k in range(1, n):
        np.multiply(x, p, out=t)
        t *= (2 * k + 1) / (k + 1)
        p_prev *= k / (k + 1)
        t -= p_prev
        p, p_prev, t = t, p, p_prev
    return p, n * (x * p - p_prev)


def _legendre_near_one(n, y):
    """P_n(1 - y) and n (x P_n - P_{n-1}) in Reinsch's form.

    The recurrence carries P_k and D_k = P_k - P_{k-1}, with
    (k+1) D_{k+1} = k D_k - (2k+1) y P_k, so x never appears rounded.
    """
    p, d, t = 1.0 - y, -y, np.empty_like(y)
    for k in range(1, n):
        np.multiply(y, p, out=t)
        t *= (2 * k + 1) / (k + 1)
        d *= k / (k + 1)
        d -= t
        p += d
    return p, n * (d - y * p)


def log_integral_batch(log_f, lo, hi, *, tol, n0):
    """log of integral_{lo_k}^{hi_k} exp(log_f(r)) dr, one value per row.

    ``log_f(nodes, rows)`` receives a node matrix of shape (b, n) for the
    batch rows ``rows`` (a slice), whose i-th row holds nodes in
    [lo[rows][i], hi[rows][i]], and must return a fresh float array of
    log-integrand values of the same shape (-inf allowed), which the kernel
    overwrites; per-row data of the integrand is read at ``rows``.  The
    node matrix lives in one buffer per rule, so ``log_f`` must not keep it.

    Each row is shifted by the maximum of its log-integrand over the first
    rule's nodes, ``shift``, and every rule sums exp(log_f - shift) against
    the Gauss-Legendre weights, in place, one exp per node.  The O(1)
    remainder rem = log(sum w exp(log_f - shift)) is what the node count
    doubles on, from ``n0`` until every row's remainder changes by at most
    ``tol``, so the test never meets the rounding of a log-integral of size
    2^18.  The result is shift + (log(half-width) + rem): the two O(1) terms
    are added first, so the value is rounded once at the scale of the
    shift instead of twice.  The weighted sum is
    ``np.einsum("ij,j->i")``, which adds a row's terms in the same order in
    a block of any height and calls no BLAS, so a row's bits depend neither
    on its block nor on the BLAS thread count (``E @ w`` gives neither).
    Each rule is evaluated in blocks of max(1, BLOCK_ELEMENTS // n) rows,
    so no temporary outgrows a per-core L2 cache; the result is the same
    for any block size.

    A remainder that is not finite raises QuadratureError naming the row:
    a NaN or +inf log-integrand, one that is -inf at every node of the
    first rule (the shift is then -inf and the remainder NaN), a value more
    than the float range above the first rule's maximum, or every value
    that far below it.  Failure to stabilise by ``LOG_NODE_CAP`` raises
    QuadratureError with the largest last change.
    """
    if n0 > LOG_NODE_CAP:
        raise ValueError(f"node ladder {n0}..{LOG_NODE_CAP} is empty: n0 > LOG_NODE_CAP")
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    if np.any(hi <= lo):
        raise ValueError("empty integration interval")
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    m = half.shape[0]
    shift = np.empty(m)
    prev = None
    delta = np.inf
    n = n0
    while n <= LOG_NODE_CAP:
        x, w = gauss_legendre(n)
        step = max(1, BLOCK_ELEMENTS // n)
        buf = np.empty((min(step, m), n))
        rem = np.empty(m)
        for start in range(0, m, step):
            rows = slice(start, start + step)
            nodes = buf[:min(step, m - start)]
            np.multiply(half[rows, None], x, out=nodes)
            nodes += mid[rows, None]
            e = log_f(nodes, rows)
            if n == n0:
                shift[rows] = np.max(e, axis=1)
            with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
                e -= shift[rows, None]
                np.exp(e, out=e)
                rem[rows] = np.log(np.einsum("ij,j->i", e, w))
            # free the block's integrand before the next one is built, so
            # the allocator hands its memory back instead of new pages
            del e
        bad = ~np.isfinite(rem)
        if np.any(bad):
            i = int(np.argmax(bad))
            raise QuadratureError(
                f"log-integral row {i}: remainder log(sum w exp(log_f - shift)) is "
                f"{float(rem[i])!r} at {n} nodes (shift {float(shift[i])!r}): the "
                f"log-integrand is NaN or +inf, -inf at every node of the {n0}-node rule, "
                f"exceeds that rule's maximum by more than the float range, or lies that "
                f"far below it at every node")
        if prev is not None:
            delta = np.abs(rem - prev)
            if np.max(delta) <= tol:
                return shift + (np.log(half) + rem), n
        prev = rem
        n *= 2
    raise QuadratureError(
        f"log-integral did not stabilise to {tol:g} below {LOG_NODE_CAP} nodes; "
        f"last change {np.max(delta):.3e}"
    )


def _checked(log_f, r, search):
    """log_f(r), refusing NaN: a search cannot order NaN against its target."""
    vals = log_f(r)
    if np.any(np.isnan(vals)):
        raise QuadratureError(f"{search}: log-integrand is NaN at a search point")
    return vals


def find_peak(log_f, r0, *, hi_cap=None):
    """Vectorised unimodal peak search for per-row log-integrands.

    ``log_f`` maps an (m,) or (m, p) array of radii to values of the same
    shape.  Starting from the guesses ``r0``, the bracket is expanded
    multiplicatively until the maximum sits strictly inside.  Newton's
    method on dg/du, u = log r, then finds the peak: both derivatives are
    central differences on one (m, 3) stencil of half-width ``PEAK_STEP``
    per step, each step shrinks the bracket by the sign of dg/du, and a
    step that leaves the bracket or meets d2g/du2 >= 0 is replaced by
    bisection in u.  A row still rising at ``hi_cap`` (a boundary peak,
    as for compact support) returns ``hi_cap``; the lower edge stops at
    ``R_FLOOR``.  Returns the peak positions (m,); raises QuadratureError
    if a cap is hit.
    """
    r0 = np.asarray(r0, dtype=float)
    lo = np.maximum(r0 * 0.25, R_FLOOR)
    hi = r0 * 4.0
    if hi_cap is not None:
        hi = np.minimum(hi, hi_cap)
        lo = np.minimum(lo, hi * 0.25)
    # expand until the midpoint value beats both edges
    for _ in range(EXPAND_ITERS):
        trip = np.stack([lo, np.sqrt(lo * hi), hi], axis=1)
        vals = _checked(log_f, trip, "find_peak")
        move_left = vals[:, 0] >= vals[:, 1]
        move_right = vals[:, 2] >= vals[:, 1]
        if hi_cap is not None:
            move_right &= hi < hi_cap
        if not (np.any(move_left) or np.any(move_right)):
            break
        lo = np.where(move_left, np.maximum(lo * 0.25, R_FLOOR), lo)
        new_hi = np.where(move_right, hi * 4.0, hi)
        hi = np.minimum(new_hi, hi_cap) if hi_cap is not None else new_hi
    else:
        raise QuadratureError(
            f"find_peak: bracket still not around the peak after {EXPAND_ITERS} "
            f"expansions; worst edge excess {np.max(vals - vals[:, 1:2]):.3e}"
        )
    u_lo, u_hi = np.log(lo), np.log(hi)
    at_cap = np.zeros(r0.shape, dtype=bool)
    if hi_cap is not None:
        # keep the stencil inside the cap: a row that reaches it ends its
        # bracket one step short, unless it is still rising there
        edge = hi >= hi_cap
        cap = np.full(r0.shape, float(hi_cap))
        below, at = _checked(log_f, np.stack([cap * np.exp(-PEAK_STEP), cap], axis=1),
                             "find_peak").T
        at_cap = edge & (at >= below)
        u_hi = np.where(edge, np.log(cap) - PEAK_STEP, u_hi)
    done = at_cap.copy()
    u = np.clip(np.log(r0), u_lo, u_hi)
    stencil = np.array([-PEAK_STEP, 0.0, PEAK_STEP])
    for _ in range(PEAK_ITERS):
        if np.all(done):
            break
        g = _checked(log_f, np.exp(u[:, None] + stencil), "find_peak")
        with np.errstate(invalid="ignore", divide="ignore"):
            d1 = (g[:, 2] - g[:, 0]) / (2.0 * PEAK_STEP)
            d2 = (g[:, 2] - 2.0 * g[:, 1] + g[:, 0]) / PEAK_STEP**2
            newton = u - d1 / d2
        u_lo = np.where(d1 > 0, u, u_lo)
        u_hi = np.where(d1 < 0, u, u_hi)
        inside = (d2 < 0) & (newton > u_lo) & (newton < u_hi)
        step = np.where(inside, newton, 0.5 * (u_lo + u_hi)) - u
        step[done] = 0.0
        u = u + step
        done |= np.abs(step) <= PEAK_UTOL
    if not np.all(done):
        raise QuadratureError(
            f"find_peak: Newton search not converged after {PEAK_ITERS} steps; "
            f"largest step in log r {np.max(np.abs(step)):.3e}"
        )
    peak = np.exp(u)
    if hi_cap is not None:
        peak[at_cap] = hi_cap
    return peak


def bracket_drop(log_f, peak, g_peak, *, side, hard_limit=None):
    """Find per-row radii where the log-integrand has fallen by ``DROP_NATS``.

    side='left' searches in [R_FLOOR, peak], side='right' in [peak, inf) or
    up to ``hard_limit`` (e.g. a compact support edge).  The outer end is
    expanded until it lies below the target g_peak - DROP_NATS; then
    Illinois regula falsi in u = log r solves that equation to ``DROP_GTOL``
    nats, bisecting in u wherever the secant point is not finite.  If the
    integrand at the hard limit is still above the drop target the limit
    itself is returned, which is what a boundary-peaked integrand needs.
    Raises QuadratureError if a cap is hit.
    """
    peak = np.asarray(peak, dtype=float)
    target = g_peak - DROP_NATS
    at_limit = np.zeros(peak.shape, dtype=bool)
    if side == "left":
        outer = np.maximum(peak * 1e-12, R_FLOOR)
    else:
        outer = peak + np.maximum(peak, 1.0)
    for _ in range(EXPAND_ITERS):
        if hard_limit is not None and side != "left":
            outer = np.minimum(outer, hard_limit)
            at_limit = outer >= hard_limit
        vals = _checked(log_f, outer, "bracket_drop")
        high = (vals > target) & ~at_limit
        if not np.any(high):
            break
        if side == "left":
            outer = np.where(high, np.maximum(outer * 1e-3, R_FLOOR), outer)
        else:
            outer = np.where(high, peak + (outer - peak) * 2.0, outer)
    else:
        raise QuadratureError(
            f"bracket_drop: {side} bracket still above the target after "
            f"{EXPAND_ITERS} expansions; worst excess {np.max((vals - target)[high]):.3e}"
        )
    at_limit &= vals > target
    # regula falsi on f = log_f - target between the peak (f > 0) and the
    # outer end (f <= 0); ``last`` is +1/-1 when the previous step moved the
    # near/far end, so a second move of the same end halves the other's f
    u_near, f_near = np.log(peak), g_peak - target
    u_far, f_far = np.log(outer), vals - target
    out = u_far.copy()
    done = at_limit.copy()
    last = np.zeros(peak.shape)
    for _ in range(DROP_ITERS):
        if np.all(done):
            break
        with np.errstate(invalid="ignore"):
            u = u_far - f_far * (u_far - u_near) / (f_far - f_near)
        width = np.abs(u_far - u_near)
        secant = (u - u_near) * (u - u_far) < 0.0
        u = np.where(secant, u, 0.5 * (u_near + u_far))
        f = _checked(log_f, np.exp(u), "bracket_drop") - target
        settled = ~done & ((np.abs(f) <= DROP_GTOL)
                           | (width <= DROP_UTOL * np.maximum(1.0, np.abs(u))))
        out = np.where(settled, u, out)
        done |= settled
        near = f > 0
        f_far = np.where(near & (last == 1), 0.5 * f_far, f_far)
        f_near = np.where(~near & (last == -1), 0.5 * f_near, f_near)
        u_near, f_near = np.where(near, u, u_near), np.where(near, f, f_near)
        u_far, f_far = np.where(near, u_far, u), np.where(near, f_far, f)
        last = np.where(near, 1, -1)
    if not np.all(done):
        raise QuadratureError(
            f"bracket_drop: {side} regula falsi not converged after {DROP_ITERS} "
            f"steps; worst distance from the target {np.max(np.abs(f[~done])):.3e} nats"
        )
    out = np.exp(out)
    if hard_limit is not None:
        out[at_limit] = hard_limit
    return out
