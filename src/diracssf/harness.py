"""Config parsing, scenario execution, and deterministic CSV emission.

Configs are INI-style text (sections in square brackets, lowercase
snake-case keys, decimal or scientific numbers).  Validation collects
every violation instead of stopping at the first, and each guard names
the library invariant it protects.  Scenario points run independently
and in order; rows are sorted on a stable key before emission, so reruns
produce byte-identical CSV files.
"""

import configparser
import csv
import io
import math
from dataclasses import dataclass

import numpy as np

SCENARIOS = (
    "toeplitz-asymptotics",
    "ssf-inside",
    "ssf-outside",
    "levinson",
    "kernels",
    "dirac-check",
    "identities",
)

LAWS = ("exponential", "power", "compact")

#: central table of default truncations and windows used by the scenarios
DEFAULTS = {
    "k": 0,              # 0 = size the basis from the law and the sweep
    "ladder_l": 8,       # transverse levels in the discrete free operator
    "grid_n": 32,        # longitudinal nodes (discrete model / factorisations)
    "grid_x": 20.0,      # longitudinal box half-width
    "long_width": 1.0,   # gaussian width of the longitudinal profile
    "eps_bracket": 0.1,  # slack of the counting/arctan brackets
    "n_random": 60,      # randomized instances in the identities scenario
    "seed": 7,
}


class ConfigError(ValueError):
    """Carries the full list of config violations."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


@dataclass(frozen=True)
class ScenarioConfig:
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
    long_width: float = DEFAULTS["long_width"]
    k: int = DEFAULTS["k"]
    ladder_l: int = DEFAULTS["ladder_l"]
    grid_n: int = DEFAULTS["grid_n"]
    grid_x: float = DEFAULTS["grid_x"]
    lambdas: tuple = ()
    s_values: tuple = ()
    eps_values: tuple = ()
    eps_bracket: float = DEFAULTS["eps_bracket"]
    n_random: int = DEFAULTS["n_random"]
    seed: int = DEFAULTS["seed"]


_SCHEMA = {
    "scenario": {"name": ("scenario", str)},
    "field": {"b0": ("b0", float), "phi_tilde": ("phi_tilde", str),
              "phi_amp": ("phi_amp", float)},
    "potential": {"law": ("law", str), "amplitude": ("amplitude", float),
                  "eta": ("eta", float), "radius": ("radius", float),
                  "m11": ("m11", float), "m33": ("m33", float),
                  "m13": ("m13", float), "nu": ("nu", float),
                  "mass": ("mass", float), "long_width": ("long_width", float)},
    "truncation": {"k": ("k", int), "ladder_l": ("ladder_l", int),
                   "grid_n": ("grid_n", int), "grid_x": ("grid_x", float)},
    "sweep": {"lambdas": ("lambdas", "floats"), "s_values": ("s_values", "floats"),
              "eps_values": ("eps_values", "floats"),
              "eps_bracket": ("eps_bracket", float),
              "n_random": ("n_random", int), "seed": ("seed", int)},
}


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
        if section not in _SCHEMA:
            violations.append(f"unknown section [{section}]")
            continue
        for key, raw in parser.items(section):
            if key not in _SCHEMA[section]:
                violations.append(f"unknown key '{key}' in section [{section}]")
                continue
            attr, kind = _SCHEMA[section][key]
            try:
                if kind == "floats":
                    values[attr] = tuple(float(tok) for tok in raw.split(",") if tok.strip())
                elif kind is float:
                    values[attr] = float(raw)
                elif kind is int:
                    values[attr] = int(raw)
                else:
                    values[attr] = raw.strip()
            except ValueError:
                violations.append(f"key '{key}' in [{section}]: cannot parse {raw!r}")

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
    if cfg.amplitude < 0 or cfg.m11 < 0 or cfg.m33 < 0:
        out.append("potential guard: amplitudes must be nonnegative (sign-definiteness)")
    if cfg.m11 * cfg.m33 < cfg.m13 * cfg.m13:
        out.append("potential guard: matrix part must stay positive semidefinite")
    if not cfg.mass > 0:
        out.append("potential guard: mass must be positive")
    if cfg.law == "exponential" and not cfg.eta > 0:
        out.append("potential guard: exponential law needs eta > 0")
    if cfg.law == "compact" and not cfg.radius > 0:
        out.append("potential guard: compact law needs a positive radius")
    if cfg.k < 0:
        out.append("truncation guard: k must be nonnegative (0 = auto)")
    if cfg.ladder_l < 1:
        out.append("truncation guard: ladder_l must be at least 1 (LadderModel)")
    if cfg.grid_n < 4 or cfg.grid_n % 2:
        out.append("truncation guard: grid_n must be even and at least 4 (momentum grid)")
    if not cfg.grid_x > 0:
        out.append("truncation guard: grid_x must be positive (Grid1D)")
    if not 0.0 < cfg.eps_bracket < 1.0:
        out.append("sweep guard: eps_bracket must lie in (0, 1) (BracketEstimate)")
    for lam in cfg.lambdas:
        if abs(lam) == cfg.mass:
            out.append(f"sweep guard: lambda {lam} sits exactly on a gap edge")
    for s in cfg.s_values:
        if not s > 0:
            out.append("sweep guard: counting thresholds must be positive")
    for eps in cfg.eps_values:
        if not 0.0 < eps < 1.0:
            out.append("sweep guard: eps values must lie in (0, 1)")
    if cfg.n_random < 1:
        out.append("sweep guard: n_random must be positive")
    return out


def serialize_config(cfg: ScenarioConfig) -> str:
    """Inverse of parse_config (round-trips to an equal config)."""
    parser = configparser.ConfigParser(interpolation=None)
    for section, keys in _SCHEMA.items():
        parser.add_section(section)
        for key, (attr, kind) in keys.items():
            val = getattr(cfg, attr)
            if kind == "floats":
                parser.set(section, key, ",".join(repr(v) for v in val))
            else:
                parser.set(section, key, repr(val) if not isinstance(val, str) else val)
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


def _write_rows(writer, rows):
    writer.writerow(["scenario", "params", "metric", "value", "error", "status"])
    for row in rows:
        status = "" if row.passed is None else ("pass" if row.passed else "fail")
        writer.writerow([row.scenario, row.params, row.metric,
                         format_value(row.value), format_value(row.error), status])


def emit_csv(rows, path):
    """RFC-4180-style CSV with a header row and LF newlines."""
    with open(path, "w", newline="") as fh:
        _write_rows(csv.writer(fh, lineterminator="\n"), rows)


def rows_to_csv_bytes(rows) -> bytes:
    buf = io.StringIO()
    _write_rows(csv.writer(buf, lineterminator="\n"), rows)
    return buf.getvalue().encode()


# -- scenario building blocks ---------------------------------------------

def _field(cfg: ScenarioConfig):
    from .landau import FieldSpec

    if cfg.phi_tilde == "tanh":
        amp = cfg.phi_amp
        return FieldSpec(cfg.b0, lambda r: amp * np.tanh(r))
    return FieldSpec(cfg.b0)


def _transverse(cfg: ScenarioConfig):
    from .toeplitz import disc_profile, gaussian_profile, power_profile

    if cfg.law == "exponential":
        return gaussian_profile(eta=cfg.eta, amplitude=cfg.amplitude)
    if cfg.law == "power":
        return power_profile(exponent=cfg.nu - 1.0, amplitude=cfg.amplitude)
    return disc_profile(radius=cfg.radius, height=cfg.amplitude)


def _potential(cfg: ScenarioConfig):
    from .ssf import PotentialSpec, gaussian_longitudinal

    matrix = np.zeros((4, 4), dtype=complex)
    matrix[0, 0] = cfg.m11
    matrix[2, 2] = cfg.m33
    matrix[0, 2] = matrix[2, 0] = cfg.m13
    return PotentialSpec(matrix, _transverse(cfg),
                         gaussian_longitudinal(cfg.long_width), cfg.nu)


def _estimator(cfg: ScenarioConfig, s_min: float):
    from .landau import build_lll_basis
    from .ssf import SsfEstimator
    from .toeplitz import suggest_truncation

    pot = _potential(cfg)
    fieldspec = _field(cfg)
    if cfg.k > 0:
        k = cfg.k
    else:
        k = max(suggest_truncation(pot.w_plus.law, s_min, cfg.b0),
                suggest_truncation(pot.w_minus.law, s_min, cfg.b0), 8)
    basis = build_lll_basis(fieldspec, k)
    return SsfEstimator(pot, basis, m=cfg.mass)


def _law_bracket(law: str):
    # declared brackets for count/law ratios per decay class
    return {"exponential": (0.9, 1.1), "power": (0.85, 1.15),
            "compact": (0.6, 1.4)}[law]


def _scenario_toeplitz(cfg: ScenarioConfig):
    from .asymptotics import compare_law, law_for_profile
    from .landau import build_lll_basis
    from .toeplitz import suggest_truncation, toeplitz_radial_spectrum

    profile = _transverse(cfg)
    s_values = cfg.s_values or (1e-4, 3e-4, 1e-3)
    fs = _field(cfg)
    k = cfg.k or suggest_truncation(profile.law, min(s_values), cfg.b0)
    basis = build_lll_basis(fs, k)
    model = toeplitz_radial_spectrum(profile, basis)
    law = law_for_profile(profile, cfg.b0)
    lo, hi = _law_bracket(cfg.law)

    def point(s):
        comparison = compare_law(model, law, [s])
        s_, n, lawv, ratio, halfwidth = comparison.rows[0]
        params = f"law={cfg.law};s={format_value(s_)}"
        return [
            ResultRow(cfg.scenario, params, "n_plus", float(n)),
            ResultRow(cfg.scenario, params, "law_value", lawv),
            ResultRow(cfg.scenario, params, "count_to_law_ratio", ratio,
                      error=halfwidth, passed=lo <= ratio <= hi),
        ]

    return [(s, point, (s,)) for s in s_values]


def _scenario_ssf(cfg: ScenarioConfig, side: str):
    from .ssf import sweep_rows

    pair = "H-"
    lams = cfg.lambdas or ((0.9, 0.99) if side == "inside" else (1.1, 1.01))
    lams = tuple(lam * cfg.mass for lam in lams)
    t_min = min(2.0 * math.sqrt(abs(abs(lam) - cfg.mass) / (abs(lam) + cfg.mass))
                for lam in lams)
    est = _estimator(cfg, t_min * (1.0 - cfg.eps_bracket))

    def point(lam):
        rows = []
        for lam_, eps, lower, upper, pred, ratio in sweep_rows(
                est, [lam], cfg.eps_bracket, pair, side):
            params = f"lambda={format_value(lam_)};eps={format_value(eps)}"
            rows.append(ResultRow(cfg.scenario, params, "bracket_lower", lower))
            rows.append(ResultRow(cfg.scenario, params, "bracket_upper", upper))
            rows.append(ResultRow(cfg.scenario, params, "prediction", pred))
            rows.append(ResultRow(cfg.scenario, params, "ratio_mid_to_prediction", ratio))
        return rows

    return [(lam, point, (lam,)) for lam in lams]


def _scenario_levinson(cfg: ScenarioConfig):
    eps_values = tuple(sorted(cfg.eps_values or (1e-2, 3e-3, 1e-3, 3e-4, 1e-4),
                              reverse=True))
    t_min = min(2.0 * math.sqrt(e / (2.0 - e)) for e in eps_values)
    est = _estimator(cfg, t_min * (1.0 - cfg.eps_bracket))
    bracket = {"exponential": (0.35, 0.65), "power": (0.55, 0.9),
               "compact": (0.35, 0.65)}[cfg.law]

    def point(eps):
        rows = []
        for eps_, lam_in, lam_out, mid_in, mid_out, ratio, target in est.levinson_rows(
                [eps], eps_bracket=cfg.eps_bracket):
            params = f"eps={format_value(eps_)}"
            rows.append(ResultRow(cfg.scenario, params, "mid_inside", mid_in))
            rows.append(ResultRow(cfg.scenario, params, "mid_outside", mid_out))
            rows.append(ResultRow(cfg.scenario, params, "ratio", ratio,
                                  passed=bracket[0] <= ratio <= bracket[1]))
            rows.append(ResultRow(cfg.scenario, params, "target", target))
        return rows

    return [(eps, point, (eps,)) for eps in eps_values]


def _scenario_kernels(cfg: ScenarioConfig):
    from .kernels1d import Grid1D, RankTwoImS, im_s_norm_rows

    lams = cfg.lambdas or (1.01, 1.5, 2.0, 5.0)
    lams = tuple(lam * cfg.mass for lam in lams)
    grid = Grid1D(200.0, 2**14)

    def point(lam):
        rows = []
        for lam_, p, closed, gridv in im_s_norm_rows([lam], 2.0, (1, 2, 4),
                                                     cfg.mass, grid):
            params = f"lambda={format_value(lam_)};p={p}"
            rel = abs(closed - gridv) / gridv
            rows.append(ResultRow(cfg.scenario, params, "norm_closed_form", closed))
            rows.append(ResultRow(cfg.scenario, params, "norm_grid", gridv))
            rows.append(ResultRow(cfg.scenario, params, "relative_difference", rel,
                                  passed=rel <= 1e-6))
        ops = RankTwoImS(lam, 2.0, cfg.mass, half_width=grid.half_width)
        ortho = abs(ops.inner_vu())
        rows.append(ResultRow(cfg.scenario, f"lambda={format_value(lam)}",
                              "orthogonality", ortho, passed=ortho <= 1e-10))
        return rows

    return [(lam, point, (lam,)) for lam in lams]


def _scenario_dirac(cfg: ScenarioConfig):
    from .dirac_algebra import anticommutation_residual, dirac_matrices
    from .discrete_model import (build_h0, check_gap, check_square_identity,
                                 fiber_eigenvalues)

    def algebra():
        res = anticommutation_residual(dirac_matrices())
        return [ResultRow(cfg.scenario, "", "anticommutation_residual", res,
                          passed=res <= 1e-12)]

    def discrete():
        h0 = build_h0(cfg.b0, cfg.mass, cfg.ladder_l, cfg.grid_n, cfg.grid_x)
        interior, full = check_square_identity(h0)
        smallest = check_gap(h0)
        fiber = fiber_eigenvalues(h0)
        dev = float(np.max(np.abs(fiber - h0.eigenvalues)))
        return [
            ResultRow(cfg.scenario, "", "square_identity_interior", interior,
                      passed=interior <= 1e-10),
            ResultRow(cfg.scenario, "", "square_identity_full", full),
            ResultRow(cfg.scenario, "", "min_abs_eigenvalue", smallest,
                      passed=abs(smallest - cfg.mass) <= 1e-9 * cfg.mass),
            ResultRow(cfg.scenario, "", "fiber_formula_deviation", dev,
                      passed=dev <= 1e-9),
        ]

    return [(0, algebra, ()), (1, discrete, ())]


def _scenario_identities(cfg: ScenarioConfig):
    from .counting import (LogSpectrum, arctan_trace_identity, check_flip,
                           check_pbound, check_pushnitski_bound, check_weyl,
                           mu_average_counting)

    n = cfg.n_random

    def herm(rng, dim, scale=1.0):
        a = rng.standard_normal((dim, dim)) * scale
        return 0.5 * (a + a.T)

    def weyl():
        rng = np.random.default_rng(cfg.seed)
        ok = all(check_weyl(*(np.abs(rng.standard_normal(2)) + 0.05),
                            herm(rng, 12), herm(rng, 12)) for _ in range(n))
        return [ResultRow(cfg.scenario, f"n={n}", "weyl_inequality",
                          float(ok), passed=ok)]

    def pbound():
        rng = np.random.default_rng(cfg.seed + 1)
        ok = True
        for _ in range(n):
            a = rng.standard_normal((10, 10))
            spec = LogSpectrum.from_eigenvalues(np.linalg.eigvalsh(a @ a.T))
            for p in (1, 2, 4):
                ok &= check_pbound(float(np.abs(rng.standard_normal()) + 0.1), spec, p)
        return [ResultRow(cfg.scenario, f"n={n}", "schatten_counting_bound",
                          float(ok), passed=ok)]

    def flip():
        rng = np.random.default_rng(cfg.seed + 2)
        ok = all(check_flip(rng.standard_normal((int(rng.integers(2, 9)),
                                                 int(rng.integers(2, 9)))), s=0.3)
                 for _ in range(n))
        return [ResultRow(cfg.scenario, f"n={n}", "flip_identity",
                          float(ok), passed=ok)]

    def arctan():
        rng = np.random.default_rng(cfg.seed + 3)
        m = max(n // 4, 8)
        worst = 0.0
        for _ in range(m):
            dim = int(rng.integers(3, 30))
            a = rng.standard_normal((dim, dim))
            psd = a @ a.T / dim
            spec = LogSpectrum.from_eigenvalues(np.linalg.eigvalsh(psd),
                                                zero_floor=1e-14)
            s = float(np.abs(rng.standard_normal()) + 0.1)
            lhs, rhs = arctan_trace_identity(s, spec)
            quad = mu_average_counting(s, np.zeros_like(psd), psd)
            worst = max(worst, abs(lhs - rhs), abs(quad - rhs))
        return [ResultRow(cfg.scenario, f"n={m}", "arctan_trace_max_deviation",
                          worst, passed=worst <= 1e-10)]

    def average_bound():
        rng = np.random.default_rng(cfg.seed + 4)
        m = max(n // 2, 10)
        ok = True
        for _ in range(m):
            t1 = herm(rng, 8)
            a = rng.standard_normal((8, 8))
            ok &= check_pushnitski_bound(0.6, 0.8, t1, a @ a.T / 8.0)
        return [ResultRow(cfg.scenario, f"n={m}", "counting_average_bound",
                          float(ok), passed=ok)]

    checks = [weyl, pbound, flip, arctan, average_bound]
    return [(i, fn, ()) for i, fn in enumerate(checks)]


_RUNNERS = {
    "toeplitz-asymptotics": _scenario_toeplitz,
    "ssf-inside": lambda cfg: _scenario_ssf(cfg, "inside"),
    "ssf-outside": lambda cfg: _scenario_ssf(cfg, "outside"),
    "levinson": _scenario_levinson,
    "kernels": _scenario_kernels,
    "dirac-check": _scenario_dirac,
    "identities": _scenario_identities,
}


def run_scenario(cfg: ScenarioConfig):
    """Execute a scenario, returning deterministically ordered rows.

    The runner yields independent point tasks; they are evaluated in
    order, then every row is sorted on a stable key so the emitted CSV
    does not depend on the task order.
    """
    tasks = _RUNNERS[cfg.scenario](cfg)
    rows = [row for _, fn, args in tasks for row in fn(*args)]
    return sorted(rows, key=lambda r: (r.scenario, r.params, r.metric))


def all_rows_pass(rows) -> bool:
    return all(row.passed for row in rows if row.passed is not None)
