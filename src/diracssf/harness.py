"""Config parsing, scenario execution, and deterministic CSV emission.

Configs are INI-style text (sections in square brackets, lowercase
snake-case keys, decimal or scientific numbers).  Validation collects
every violation instead of stopping at the first, and each guard names
the library invariant it protects; a key that a scenario does not read
must keep its ``ScenarioConfig`` default.  ``_SCENARIOS`` holds each
scenario's runner, which calls the library once per scenario (Levinson
once per eps, so a vanished inside count fails only its own row), the keys
it reads and its lambda window; ``_LAWS`` holds each decay law's profile,
declared brackets and keys.  The Toeplitz-asymptotics basis is sized from
the law's count and kept only under the exact-count certificate of
``ToeplitzModel``.  Rows are sorted on a stable key before emission, so
reruns produce byte-identical CSV files.
"""

import configparser
import csv
import io
import math
from dataclasses import dataclass, fields

import numpy as np

from ._quad import QuadratureError
from .asymptotics import compare_law, law_for_profile
from .counting import (LogSpectrum, arctan_trace_identity, check_flip, check_pbound,
                       check_pushnitski_bound, check_weyl, flag_near_threshold,
                       mu_average_counting)
from .dirac_algebra import anticommutation_residual, dirac_matrices
from .discrete_model import (build_h0, check_square_identity, fiber_eigenvalues,
                             roundoff_bounds, square_identity_within_roundoff)
from .kernels1d import (GRID_DEFAULT_HALF_WIDTH, GRID_DEFAULT_POINTS, Grid1D, RankTwoImS,
                        im_s_momentum, im_s_norm_rows)
from .landau import FieldSpec, build_lll_basis
from .ssf import (PotentialSpec, SsfEstimator, edge_threshold, gaussian_longitudinal,
                  levinson_energies)
from .toeplitz import (LOG_DOMAIN_EDGE, TruncationError, count_truncation, disc_profile,
                       gaussian_profile, power_profile, suggest_truncation,
                       toeplitz_radial_spectrum)

# Size caps, each sized from memory.  A radial basis with its compressions
# holds about 90 bytes per mode: 55 MiB peak RSS at MAX_BASIS_K, where the
# radial rule still stabilises (at 2**19 it does not).  The dirac-check box
# holds one dense float64 matrix of dimension 4 * ladder_l * grid_n and
# eigvalsh's copy of it: 294 MiB peak RSS at MAX_DENSE_DIM.
MAX_BASIS_K = 2**18
MAX_DENSE_DIM = 4096

# law -> (transverse profile of a config, declared count/law ratio bracket,
#         declared Levinson ratio bracket, the config keys the profile reads)
_LAWS = {
    "exponential": (lambda cfg: gaussian_profile(eta=cfg.eta, amplitude=cfg.amplitude),
                    (0.9, 1.1), (0.35, 0.65), ("amplitude", "eta")),
    "power": (lambda cfg: power_profile(exponent=cfg.nu - 1.0, amplitude=cfg.amplitude),
              (0.85, 1.15), (0.55, 0.9), ("amplitude", "nu")),
    "compact": (lambda cfg: disc_profile(radius=cfg.radius, height=cfg.amplitude),
                (0.6, 1.4), (0.35, 0.65), ("amplitude", "radius")),
}
LAWS = tuple(_LAWS)

class ConfigError(ValueError):
    """Carries the full list of config violations."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


@dataclass(frozen=True)
class ScenarioConfig:
    """One scenario run; the field defaults are the default truncations and windows."""

    scenario: str
    b0: float = 2.0
    phi_tilde: str = "none"          # none | tanh
    phi_amp: float = 0.0
    law: str = "exponential"
    amplitude: float = 1.0
    eta: float = 1.0
    radius: float = 1.0
    m11: float = 1.0
    m33: float = 1.0
    m13: float = 0.0
    nu: float = 5.0
    mass: float = 1.0
    long_width: float = 1.0          # gaussian width of the longitudinal profile
    k: int = 0                       # 0 = size the basis from the law and the sweep
    ladder_l: int = 8                # transverse levels in the discrete free operator
    grid_n: int = 32                 # longitudinal nodes (discrete model / factorisations)
    grid_x: float = 20.0             # longitudinal box half-width
    lambdas: tuple = ()
    s_values: tuple = ()
    eps_values: tuple = ()
    eps_bracket: float = 0.1         # slack of the counting/arctan brackets
    n_random: int = 60               # randomized instances in the identities scenario
    seed: int = 7


# section -> its keys.  Each key sets the ScenarioConfig field of its name,
# except [scenario] name, which sets ``scenario``; the field's type is the
# key's kind, and a tuple is a comma-separated list of floats.
_SECTIONS = {
    "scenario": ("name",),
    "field": ("b0", "phi_tilde", "phi_amp"),
    "potential": ("law", "amplitude", "eta", "radius", "m11", "m33", "m13", "nu", "mass",
                  "long_width"),
    "truncation": ("k", "ladder_l", "grid_n", "grid_x"),
    "sweep": ("lambdas", "s_values", "eps_values", "eps_bracket", "n_random", "seed"),
}
_KINDS = {f.name: f.type for f in fields(ScenarioConfig)}


def _attr(key: str) -> str:
    """The ScenarioConfig field a config key sets."""
    return "scenario" if key == "name" else key


def parse_config(text: str) -> ScenarioConfig:
    """Parse and validate a scenario config, reporting every violation."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError([f"malformed config: {exc}"]) from exc

    violations = []
    values = {}
    for section in parser.sections():
        if section not in _SECTIONS:
            violations.append(f"unknown section [{section}]")
            continue
        for key, raw in parser.items(section):
            if key not in _SECTIONS[section]:
                violations.append(f"unknown key '{key}' in section [{section}]")
                continue
            attr = _attr(key)
            kind = _KINDS[attr]
            try:
                if kind is tuple:
                    values[attr] = tuple(float(tok) for tok in raw.split(",") if tok.strip())
                elif kind is str:
                    values[attr] = raw.strip()
                else:
                    values[attr] = kind(raw)
                if kind in (float, tuple) and not np.all(np.isfinite(values[attr])):
                    raise ValueError
            except ValueError:
                violations.append(f"key '{key}' in [{section}]: cannot parse {raw!r} "
                                  "(numbers must be finite)")

    if "scenario" not in values:
        violations.append("missing [scenario] name")
        cfg = None
    else:
        cfg = ScenarioConfig(**values)
        violations.extend(_guard_violations(cfg))
    if violations:
        raise ConfigError(violations)
    return cfg


def _guard_violations(cfg: ScenarioConfig):
    """Re-run the downstream module guards at parse time."""
    out = []
    if cfg.scenario not in SCENARIOS:
        out.append(f"unknown scenario '{cfg.scenario}' (choose from {', '.join(SCENARIOS)})")
    if not cfg.b0 > 0:
        out.append("field guard: b0 must be positive (FieldSpec invariant)")
    if cfg.phi_tilde not in ("none", "tanh"):
        out.append("field guard: phi_tilde must be 'none' or 'tanh'")
    if cfg.law not in LAWS:
        out.append(f"potential guard: law must be one of {', '.join(LAWS)}")
    if not cfg.nu > 3:
        out.append("potential guard: decay exponent nu must exceed 3 "
                   "(PotentialSpec invariant)")
    if not cfg.amplitude > 0:
        out.append("potential guard: amplitude must be positive (log-domain profiles)")
    if cfg.m11 < 0 or cfg.m33 < 0:
        out.append("potential guard: m11 and m33 must be nonnegative (sign-definiteness)")
    if cfg.m11 * cfg.m33 < cfg.m13 * cfg.m13:
        out.append("potential guard: matrix part must stay positive semidefinite")
    if not cfg.mass > 0:
        out.append("potential guard: mass must be positive")
    if not cfg.long_width > 0:
        out.append("potential guard: long_width must be positive (longitudinal gaussian width)")
    if cfg.law == "exponential" and not cfg.eta > 0:
        out.append("potential guard: exponential law needs eta > 0")
    if cfg.law == "compact" and not cfg.radius > 0:
        out.append("potential guard: compact law needs a positive radius")
    if cfg.k < 0:
        out.append("truncation guard: k must be nonnegative (0 = auto)")
    if cfg.k > MAX_BASIS_K:
        out.append(f"truncation guard: k must be at most MAX_BASIS_K = {MAX_BASIS_K} "
                   "(basis memory and the radial rule's verified range)")
    dense_dim = 4 * cfg.ladder_l * cfg.grid_n
    if dense_dim > MAX_DENSE_DIM:
        out.append(f"truncation guard: the dense dimension 4*ladder_l*grid_n = {dense_dim} "
                   f"must be at most MAX_DENSE_DIM = {MAX_DENSE_DIM} (one dense float64 "
                   "matrix and its eigvalsh copy)")
    if cfg.ladder_l < 1:
        out.append("truncation guard: ladder_l must be at least 1 (LadderModel)")
    if cfg.grid_n < 4 or cfg.grid_n % 2:
        out.append("truncation guard: grid_n must be even and at least 4 (momentum grid)")
    if not cfg.grid_x > 0:
        out.append("truncation guard: grid_x must be positive (Grid1D)")
    if not 0.0 < cfg.eps_bracket < 1.0:
        out.append("sweep guard: eps_bracket must lie in (0, 1) (BracketEstimate)")
    if cfg.scenario in _SCENARIOS:
        _, reads, window = _SCENARIOS[cfg.scenario]
        reads += _LAWS[cfg.law][3] if "law" in reads and cfg.law in _LAWS else ()
        reads += ("phi_amp",) if "phi_tilde" in reads and cfg.phi_tilde == "tanh" else ()
        out += [f"unread key: {cfg.scenario} reads no {f.name} in this config, so it must "
                f"keep its default {f.default!r}, got {getattr(cfg, f.name)!r}"
                for f in fields(cfg)[1:] if f.name not in reads
                and getattr(cfg, f.name) != f.default]
        lams = cfg.lambdas or _DEFAULT_LAMBDAS.get(cfg.scenario, ())
        out += [f"sweep guard: {cfg.scenario} needs {window[0]} in units of mass, got lambda "
                f"{lam!r}{'' if cfg.lambdas else ' (the default lambdas)'}"
                for lam in lams if window and not window[1](lam, cfg.mass)]
    for s in cfg.s_values:
        if not s > 0:
            out.append("sweep guard: counting thresholds must be positive")
        elif (cfg.scenario == "toeplitz-asymptotics" and cfg.law != "power"
              and not s < LOG_DOMAIN_EDGE):
            out.append(f"sweep guard: threshold {s!r} must lie in (0, 1/e), the domain "
                       f"of the log-scale {cfg.law} counting law")
    for eps in cfg.eps_values:
        if not 0.0 < eps < 1.0:
            out.append("sweep guard: eps values must lie in (0, 1)")
    if cfg.n_random < 1:
        out.append("sweep guard: n_random must be positive")
    if cfg.seed < 0:
        out.append("sweep guard: seed must be nonnegative (numpy.random.default_rng)")
    return out


def serialize_config(cfg: ScenarioConfig) -> str:
    """Inverse of parse_config (round-trips to an equal config)."""
    parser = configparser.ConfigParser(interpolation=None)
    for section, keys in _SECTIONS.items():
        parser.add_section(section)
        for key in keys:
            attr = _attr(key)
            val, kind = getattr(cfg, attr), _KINDS[attr]
            if kind is tuple:
                parser.set(section, key, ",".join(repr(v) for v in val))
            else:
                parser.set(section, key, val if kind is str else repr(val))
    buf = io.StringIO()
    parser.write(buf)
    return buf.getvalue()


@dataclass(frozen=True)
class ResultRow:
    scenario: str
    params: str
    metric: str
    value: float
    error: float = math.nan
    passed: bool | None = None


def format_value(v: float) -> str:
    """17 significant digits; scientific notation outside [1e-3, 1e6]."""
    if v != v:
        return "nan"
    if v == 0.0:
        return "0.0"
    av = abs(v)
    if av < 1e-3 or av > 1e6:
        return f"{v:.16e}"
    return f"{v:.17g}"


def rows_to_csv_bytes(rows) -> bytes:
    """RFC-4180-style CSV with a header row and LF newlines."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["scenario", "params", "metric", "value", "error", "status"])
    for row in rows:
        status = "" if row.passed is None else ("pass" if row.passed else "fail")
        writer.writerow([row.scenario, row.params, row.metric,
                         format_value(row.value), format_value(row.error), status])
    return buf.getvalue().encode()


def emit_csv(rows, path):
    """Write ``rows_to_csv_bytes(rows)`` to ``path``."""
    with open(path, "wb") as fh:
        fh.write(rows_to_csv_bytes(rows))


# -- scenario building blocks ---------------------------------------------

def _field(cfg: ScenarioConfig):
    """The config's field; a zero tanh amplitude is the flat field."""
    if cfg.phi_tilde == "tanh" and cfg.phi_amp != 0.0:
        amp = cfg.phi_amp
        return FieldSpec(cfg.b0, lambda r: amp * np.tanh(r))
    return FieldSpec(cfg.b0)


def _transverse(cfg: ScenarioConfig):
    return _LAWS[cfg.law][0](cfg)


def _potential(cfg: ScenarioConfig):
    matrix = np.zeros((4, 4), dtype=complex)
    matrix[0, 0] = cfg.m11
    matrix[2, 2] = cfg.m33
    matrix[0, 2] = matrix[2, 0] = cfg.m13
    return PotentialSpec(matrix, _transverse(cfg),
                         gaussian_longitudinal(cfg.long_width), cfg.nu)


def _basis(cfg: ScenarioConfig, k: int):
    """The LLL basis of the config's field at size k, refusing a k above
    ``MAX_BASIS_K`` before anything is allocated.  Only a perturbed field
    runs a quadrature for its norms, so a ``QuadratureError`` here is
    re-raised with the key that set the perturbation and its value."""
    if k > MAX_BASIS_K:
        raise TruncationError(f"basis K={k} exceeds MAX_BASIS_K = {MAX_BASIS_K}; use a "
                              "larger smallest threshold, or lambda farther from the edge")
    try:
        return build_lll_basis(_field(cfg), k)
    except QuadratureError as exc:
        raise QuadratureError(f"{exc}; the basis norms of the field phi_tilde = tanh with "
                              f"phi_amp = {cfg.phi_amp!r} did not converge") from exc


def _estimator(cfg: ScenarioConfig, s_min: float):
    pot = _potential(cfg)
    k = cfg.k or max(suggest_truncation(pot.w_plus.law, s_min, cfg.b0),
                     suggest_truncation(pot.w_minus.law, s_min, cfg.b0))
    return SsfEstimator(pot, _basis(cfg, k), m=cfg.mass)


def _edge_floor(cfg: ScenarioConfig, lams) -> float:
    """Smallest level an H- bracket reads W+ at, over the energies ``lams``:
    (1 - eps) t(lambda) on both sides of the gap, the float the inside
    count and the outside arctan trace at s = 1 - eps compare with."""
    return min((1.0 - cfg.eps_bracket) * edge_threshold(lam, 1.0, cfg.mass) for lam in lams)


def _toeplitz_model(cfg: ScenarioConfig, profile, s_values):
    """Radial compression whose counts at ``s_values`` are exact.

    A user-set k is used as given.  Otherwise K comes from the law's count
    at the smallest threshold and is kept when the count certificate holds
    at every threshold, or when a threshold sits on an eigenvalue, which
    no basis size mends and ``compare_law`` refuses; if not, the basis is
    built once more at the depth-margin size of ``suggest_truncation``.
    """
    s_min = min(s_values)
    if cfg.k:
        return toeplitz_radial_spectrum(profile, _basis(cfg, cfg.k))
    model = toeplitz_radial_spectrum(
        profile, _basis(cfg, count_truncation(profile.law, s_min, cfg.b0)))
    if (all(model.count_certified(s) for s in s_values)
            or flag_near_threshold(model.spectrum, s_values).any()):
        return model
    return toeplitz_radial_spectrum(
        profile, _basis(cfg, suggest_truncation(profile.law, s_min, cfg.b0)))


def _scenario_toeplitz(cfg: ScenarioConfig):
    profile = _transverse(cfg)
    s_values = cfg.s_values or (1e-4, 3e-4, 1e-3)
    model = _toeplitz_model(cfg, profile, s_values)
    lo, hi = _LAWS[cfg.law][1]
    rows = []
    for s, n, lawv, ratio, halfwidth in compare_law(
            model, law_for_profile(profile, cfg.b0), s_values).rows:
        params = f"law={cfg.law};s={format_value(s)}"
        rows += [
            ResultRow(cfg.scenario, params, "n_plus", float(n)),
            ResultRow(cfg.scenario, params, "law_value", lawv),
            ResultRow(cfg.scenario, params, "count_to_law_ratio", ratio,
                      error=halfwidth, passed=lo <= ratio <= hi),
        ]
    return rows


def _scenario_ssf(cfg: ScenarioConfig, side: str):
    lams = [lam * cfg.mass for lam in cfg.lambdas or _DEFAULT_LAMBDAS[cfg.scenario]]
    est = _estimator(cfg, _edge_floor(cfg, lams))
    bracket = est.inside_bracket if side == "inside" else est.outside_bracket
    rows = []
    for lam in lams:
        br = bracket(lam, cfg.eps_bracket, "H-")
        try:
            pred = est.predict(lam, side, "H-")
        except ValueError:
            # lambda outside the validity window of the logarithmic laws
            pred = math.nan
        ratio = br.midpoint / pred if pred != 0.0 else math.nan
        params = f"lambda={format_value(lam)};eps={format_value(cfg.eps_bracket)}"
        rows += [
            ResultRow(cfg.scenario, params, "bracket_lower", br.lower),
            ResultRow(cfg.scenario, params, "bracket_upper", br.upper),
            ResultRow(cfg.scenario, params, "prediction", pred),
            ResultRow(cfg.scenario, params, "ratio_mid_to_prediction", ratio),
        ]
    return rows


def _scenario_levinson(cfg: ScenarioConfig):
    eps_values = tuple(sorted(cfg.eps_values or (1e-2, 3e-3, 1e-3, 3e-4, 1e-4),
                              reverse=True))
    est = _estimator(cfg, _edge_floor(cfg, [lam for eps in eps_values
                                            for lam in levinson_energies(eps, cfg.mass, 1.0)]))
    lo, hi = _LAWS[cfg.law][2]
    rows = []
    for eps in eps_values:
        params = f"eps={format_value(eps)}"
        try:
            [(_, _, _, mid_in, mid_out, ratio, target)] = est.levinson_rows(
                [eps], eps_bracket=cfg.eps_bracket)
        except ZeroDivisionError:
            # no eigenvalue clears the inside threshold: the ratio is undefined
            rows.append(ResultRow(cfg.scenario, params, "ratio", math.nan, passed=False))
            continue
        rows += [
            ResultRow(cfg.scenario, params, "mid_inside", mid_in),
            ResultRow(cfg.scenario, params, "mid_outside", mid_out),
            ResultRow(cfg.scenario, params, "ratio", ratio, passed=lo <= ratio <= hi),
            ResultRow(cfg.scenario, params, "target", target),
        ]
    return rows


def _scenario_kernels(cfg: ScenarioConfig):
    lams = [lam * cfg.mass for lam in cfg.lambdas or _DEFAULT_LAMBDAS[cfg.scenario]]
    grid = Grid1D(GRID_DEFAULT_HALF_WIDTH, GRID_DEFAULT_POINTS)
    rows = []
    for lam, p, closed, gridv in im_s_norm_rows(lams, 2.0, (1, 2, 4), cfg.mass, grid):
        params = f"lambda={format_value(lam)};p={p}"
        # a grid norm that underflows (sv^p at a tiny mass) leaves no relative difference
        rel = abs(closed - gridv) / gridv if gridv > 0 else math.nan
        rows += [
            ResultRow(cfg.scenario, params, "norm_closed_form", closed),
            ResultRow(cfg.scenario, params, "norm_grid", gridv),
            ResultRow(cfg.scenario, params, "relative_difference", rel, passed=rel <= 1e-6),
        ]
    for lam in lams:
        ortho = abs(RankTwoImS(lam, 2.0, cfg.mass, half_width=grid.half_width).inner_vu())
        rows.append(ResultRow(cfg.scenario, f"lambda={format_value(lam)}",
                              "orthogonality", ortho, passed=ortho <= 1e-10))
    return rows


def _scenario_dirac(cfg: ScenarioConfig):
    res = anticommutation_residual(dirac_matrices())
    h0 = build_h0(cfg.b0, cfg.mass, cfg.ladder_l, cfg.grid_n, cfg.grid_x)
    interior, full = check_square_identity(h0)
    smallest = float(np.min(np.abs(h0.eigenvalues)))
    dev = float(np.max(np.abs(fiber_eigenvalues(h0) - h0.eigenvalues)))
    _, eig_tol = roundoff_bounds(h0)
    return [
        ResultRow(cfg.scenario, "", "anticommutation_residual", res, passed=res <= 1e-12),
        ResultRow(cfg.scenario, "", "square_identity_interior", interior,
                  passed=square_identity_within_roundoff(h0)),
        ResultRow(cfg.scenario, "", "square_identity_full", full),
        ResultRow(cfg.scenario, "", "min_abs_eigenvalue", smallest,
                  passed=abs(smallest - cfg.mass) <= eig_tol),
        ResultRow(cfg.scenario, "", "fiber_formula_deviation", dev, passed=dev <= eig_tol),
    ]


def _symmetric(rng, dim):
    a = rng.standard_normal((dim, dim))
    return 0.5 * (a + a.T)


def _scenario_identities(cfg: ScenarioConfig):
    n, seed = cfg.n_random, cfg.seed

    rng = np.random.default_rng(seed)
    weyl = all(check_weyl(*(np.abs(rng.standard_normal(2)) + 0.05),
                          _symmetric(rng, 12), _symmetric(rng, 12)) for _ in range(n))

    rng = np.random.default_rng(seed + 1)
    pbound = True
    for _ in range(n):
        a = rng.standard_normal((10, 10))
        spec = LogSpectrum.from_eigenvalues(np.linalg.eigvalsh(a @ a.T))
        for p in (1, 2, 4):
            pbound &= check_pbound(float(np.abs(rng.standard_normal()) + 0.1), spec, p)

    rng = np.random.default_rng(seed + 2)
    flip = all(check_flip(rng.standard_normal((int(rng.integers(2, 9)),
                                               int(rng.integers(2, 9)))), s=0.3)
               for _ in range(n))

    rng = np.random.default_rng(seed + 3)
    n_arctan = max(n // 4, 8)
    worst = 0.0
    for _ in range(n_arctan):
        dim = int(rng.integers(3, 30))
        a = rng.standard_normal((dim, dim))
        psd = a @ a.T / dim
        spec = LogSpectrum.from_eigenvalues(np.linalg.eigvalsh(psd), zero_floor=1e-14)
        s = float(np.abs(rng.standard_normal()) + 0.1)
        lhs, rhs = arctan_trace_identity(s, spec)
        quad = mu_average_counting(s, np.zeros_like(psd), psd)
        worst = max(worst, abs(lhs - rhs), abs(quad - rhs))

    rng = np.random.default_rng(seed + 4)
    n_average = max(n // 2, 10)
    average = True
    for _ in range(n_average):
        t1 = _symmetric(rng, 8)
        a = rng.standard_normal((8, 8))
        average &= check_pushnitski_bound(0.6, 0.8, t1, a @ a.T / 8.0)

    return [
        ResultRow(cfg.scenario, f"n={n}", "weyl_inequality", float(weyl), passed=weyl),
        ResultRow(cfg.scenario, f"n={n}", "schatten_counting_bound", float(pbound),
                  passed=pbound),
        ResultRow(cfg.scenario, f"n={n}", "flip_identity", float(flip), passed=flip),
        ResultRow(cfg.scenario, f"n={n_arctan}", "arctan_trace_max_deviation", worst,
                  passed=worst <= 1e-10),
        ResultRow(cfg.scenario, f"n={n_average}", "counting_average_bound",
                  float(average), passed=average),
    ]


# The kernels' waves have momentum im_s_momentum(mass*lambda, mass), which
# their fixed grid resolves only below its Nyquist frequency pi/h.
_KERNEL_NYQUIST = math.pi / Grid1D(GRID_DEFAULT_HALF_WIDTH, GRID_DEFAULT_POINTS).h
# the sweep lambdas of a config that sets none
_DEFAULT_LAMBDAS = {"ssf-inside": (0.9, 0.99), "ssf-outside": (1.1, 1.01),
                    "kernels": (1.01, 1.5, 2.0, 5.0)}
# the keys every scenario on the gap-edge estimator reads
_EDGE_KEYS = ("b0", "phi_tilde", "law", "k", "m11", "mass", "long_width", "eps_bracket")

# scenario -> (runner, the ScenarioConfig keys it reads, window of its sweep
#              lambdas: (the rule and the invariant it protects, ok(lambda,
#              mass)), or None if it reads none).  A read law adds the law's
# keys, a read phi_tilde = tanh adds phi_amp.  Sweep lambdas are energies in
# units of mass: each runner multiplies them by it.
_SCENARIOS = {
    "toeplitz-asymptotics": (_scenario_toeplitz, ("b0", "phi_tilde", "law", "k", "s_values"),
                             None),
    "ssf-inside": (lambda cfg: _scenario_ssf(cfg, "inside"), _EDGE_KEYS + ("lambdas",),
                   ("|lambda| < 1 (SsfEstimator.inside_bracket: inside the gap)",
                    lambda lam, mass: abs(lam) < 1.0)),
    "ssf-outside": (lambda cfg: _scenario_ssf(cfg, "outside"),
                    _EDGE_KEYS + ("m33", "lambdas"),
                    ("lambda > 1 (SsfEstimator.outside_bracket: the pair H- "
                     "diverges above the +m edge)", lambda lam, mass: lam > 1.0)),
    "levinson": (_scenario_levinson, _EDGE_KEYS + ("m33", "eps_values"), None),
    "kernels": (_scenario_kernels, ("mass", "lambdas"),
                (f"|lambda| > 1 and 0 < sqrt((mass*lambda)^2 - mass^2) < pi/h = "
                 f"{_KERNEL_NYQUIST:.5g} (longitudinal kernels: outside the gap, at a "
                 "nonzero momentum their fixed grid resolves)", lambda lam, mass: abs(lam) > 1.0
                 and 0.0 < im_s_momentum(lam * mass, mass) < _KERNEL_NYQUIST)),
    "dirac-check": (_scenario_dirac, ("b0", "mass", "ladder_l", "grid_n", "grid_x"), None),
    "identities": (_scenario_identities, ("n_random", "seed"), None),
}
SCENARIOS = tuple(_SCENARIOS)


def run_scenario(cfg: ScenarioConfig):
    """Execute a scenario, returning rows sorted on a stable key.

    The sort makes the emitted CSV independent of the order in which the
    runner evaluates its points.
    """
    rows = _SCENARIOS[cfg.scenario][0](cfg)
    return sorted(rows, key=lambda r: (r.scenario, r.params, r.metric))


def all_rows_pass(rows) -> bool:
    return all(row.passed for row in rows if row.passed is not None)
