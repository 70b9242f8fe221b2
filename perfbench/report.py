"""Order statistics and the metric tables the benchmark prints.

Everything here is plain Python so the orchestrator can use it without
importing numpy.  The end-to-end metrics come from untraced passes; the
per-layer metrics come from a tracer snapshot (see ``tracing``) taken as
set-up cost plus the mean cost of one traced pass.
"""

import math

from tracing import QUERY_SPANS

#: a tail percentile is reported only with at least this many samples beyond it
TAIL_SAMPLES = 10

END_TO_END = (
    ("setup_s", "s"),
    ("sweep_s", "s"),
    ("op_p50_s", "s"),
    ("peak_rss_mb", "MiB"),
)

CLI_CONFIGS = (
    "dirac_check", "identities", "kernels", "levinson_exponential",
    "levinson_power", "ssf_inside", "ssf_outside", "toeplitz_compact",
    "toeplitz_exponential", "toeplitz_power",
)


def quantile(values, q):
    """Quantile by linear interpolation between order statistics (numpy's rule)."""
    xs = sorted(values)
    if not xs:
        raise ValueError("quantile of an empty sample")
    pos = q * (len(xs) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(values):
    return quantile(values, 0.5)


def samples_beyond(n, percent):
    """How many of ``n`` samples lie above the ``percent``-th percentile."""
    return n * (100 - percent) // 100


def tail_percentile(values, percent):
    """The percentile, or None while fewer than TAIL_SAMPLES samples lie beyond it."""
    if samples_beyond(len(values), percent) < TAIL_SAMPLES:
        return None
    return quantile(values, percent / 100)


def failure_share(attempted, failed):
    """Failed operations over attempted ones."""
    if attempted < 1:
        raise ValueError("no operation was attempted")
    if not 0 <= failed <= attempted:
        raise ValueError("failed count outside [0, attempted]")
    return failed / attempted


def typical_pass(latencies):
    """One pass with every operation at its median; ``latencies`` holds one list per op."""
    return sum(median(op) for op in latencies)


def end_to_end(setup_samples, latencies, peak_rss_mb):
    """The bounded end-to-end metrics, by name.

    ``latencies`` holds one non-empty list per operation.  The timings
    use each operation's median run.  A minimum over a dozen runs swings
    between an operation's fast and slow latency modes from one run to
    the next; the median of the same runs does not.
    """
    return {
        "setup_s": median(setup_samples),
        "sweep_s": typical_pass(latencies),
        "op_p50_s": median([median(op) for op in latencies]),
        "peak_rss_mb": peak_rss_mb,
    }


# -- per-layer metrics ------------------------------------------------------

def _key(key):
    return lambda snap: snap.get(key, 0.0)


def _layer_self(layer):
    prefix = f"self_s:{layer}."
    return lambda snap: sum(v for k, v in snap.items() if k.startswith(prefix))


def _per_query(snap):
    queries = sum(snap.get("calls:" + name, 0.0) for name in QUERY_SPANS)
    return snap.get("count:ssf.query_compressions", 0.0) / queries if queries else 0.0


# (metric, unit, better, value from the per-pass snapshot); "quad" names the
# private _quad module because metric names must start with a letter
SPAN_METRICS = (
    ("harness.parse_config.s", "s", "lower", _key("self_s:harness.parse_config")),
    ("harness.run_scenario.s", "s", "lower", _key("self_s:harness.run_scenario")),
    ("harness.run_scenario.total_s", "s", "lower", _key("total_s:harness.run_scenario")),
    ("harness.emit_csv.s", "s", "lower", _key("self_s:harness.emit_csv")),
    ("landau.build_lll_basis.s", "s", "lower", _key("self_s:landau.build_lll_basis")),
    ("landau.build_lll_basis.total_s", "s", "lower", _key("total_s:landau.build_lll_basis")),
    ("landau.log_radial_moments.s", "s", "lower", _key("self_s:landau.log_radial_moments")),
    ("landau.basis_k_total", "count", "lower", _key("count:landau.basis_k_total")),
    ("landau.quad_nodes_max", "count", "lower", _key("max:landau.quad_nodes")),
    ("quad.find_peak.s", "s", "lower", _key("self_s:_quad.find_peak")),
    ("quad.bracket_drop.s", "s", "lower", _key("self_s:_quad.bracket_drop")),
    ("quad.log_integral_batch.s", "s", "lower", _key("self_s:_quad.log_integral_batch")),
    ("quad.panel_integral.calls", "count", "lower", _key("calls:_quad.panel_integral")),
    ("toeplitz.toeplitz_radial_spectrum.s", "s", "lower",
     _key("self_s:toeplitz.toeplitz_radial_spectrum")),
    ("toeplitz.toeplitz_radial_spectrum.total_s", "s", "lower",
     _key("total_s:toeplitz.toeplitz_radial_spectrum")),
    ("toeplitz.toeplitz_radial_spectrum.calls", "count", "lower",
     _key("calls:toeplitz.toeplitz_radial_spectrum")),
    ("counting.mu_average_counting.s", "s", "lower", _key("self_s:counting.mu_average_counting")),
    ("counting.mu_average_counting.total_s", "s", "lower",
     _key("total_s:counting.mu_average_counting")),
    ("counting.eig_calls", "count", "lower", _key("eig_calls:counting")),
    ("counting.eig_s", "s", "lower", _key("eig_s:counting")),
    ("asymptotics.compare_law.s", "s", "lower", _key("self_s:asymptotics.compare_law")),
    ("ssf.inside_bracket.s", "s", "lower", _key("self_s:ssf.SsfEstimator.inside_bracket")),
    ("ssf.outside_bracket.s", "s", "lower", _key("self_s:ssf.SsfEstimator.outside_bracket")),
    ("ssf.levinson_rows.total_s", "s", "lower", _key("total_s:ssf.SsfEstimator.levinson_rows")),
    ("ssf.compressions_per_query", "count", "lower", _per_query),
    ("kernels1d.im_s_norm_rows.s", "s", "lower", _key("self_s:kernels1d.im_s_norm_rows")),
    ("kernels1d.im_s_norm_rows.total_s", "s", "lower", _key("total_s:kernels1d.im_s_norm_rows")),
    ("discrete_model.eig_calls", "count", "lower", _key("eig_calls:discrete_model")),
) + tuple(
    (f"{metric}.s", "s", "lower", _layer_self(layer))
    for metric, layer in (("landau", "landau"), ("quad", "_quad"), ("toeplitz", "toeplitz"),
                          ("counting", "counting"), ("asymptotics", "asymptotics"),
                          ("ssf", "ssf"), ("kernels1d", "kernels1d"),
                          ("discrete_model", "discrete_model"), ("harness", "harness"))
)

# measured by the worker itself rather than read from spans
WORKER_METRICS = (
    ("import.s", "s", "lower"),
    ("import.modules", "count", "lower"),
    ("import.scipy_optimize_loaded", "count", "lower"),
    ("cli.csv_identical", "count", "higher"),
) + tuple((f"cli.{name}.wall_s", "s", "lower") for name in CLI_CONFIGS) + (
    ("trace.overhead_s", "s", "lower"),
)


def per_layer_units():
    """(name, unit, better) for every per-layer metric, in report order."""
    return [m[:3] for m in SPAN_METRICS] + list(WORKER_METRICS)


def per_layer(snapshot, worker_values):
    """Every per-layer metric from a per-pass snapshot plus the worker's own values.

    Workloads that never reach a layer report 0 for it.
    """
    out = {name: float(fn(snapshot)) for name, _unit, _better, fn in SPAN_METRICS}
    for name, _unit, _better in WORKER_METRICS:
        out[name] = float(worker_values.get(name, 0.0))
    return out
