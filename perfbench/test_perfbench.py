"""Tests of the benchmark's own arithmetic and tracing."""

import contextlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

import cli_configs
import report
import tracing
import worker
import workloads


def test_quantile_interpolates_like_numpy():
    values = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0]
    for q in (0.0, 0.1, 0.5, 0.9, 1.0):
        assert report.quantile(values, q) == pytest.approx(np.quantile(values, q))
    assert report.median([1.0, 2.0, 3.0, 4.0]) == 2.5
    with pytest.raises(ValueError):
        report.median([])


def test_tail_percentile_needs_ten_samples_beyond():
    assert report.samples_beyond(100, 90) == 10
    assert report.samples_beyond(99, 90) == 9
    assert report.tail_percentile(list(range(99)), 90) is None
    assert report.tail_percentile(list(range(100)), 90) == pytest.approx(89.1)
    assert report.tail_percentile(list(range(1000)), 99) is not None
    assert report.tail_percentile(list(range(999)), 99) is None


def test_end_to_end_times_use_each_operations_median_run():
    latencies = [[3.0, 1.0, 2.0], [5.0, 4.0], [0.5, 0.7, 0.9, 9.0]]
    metrics = report.end_to_end([0.9, 0.7, 0.8], latencies, 120.0)
    assert metrics == pytest.approx(
        {"setup_s": 0.8, "sweep_s": 7.3, "op_p50_s": 2.0, "peak_rss_mb": 120.0})
    assert report.typical_pass(latencies) == pytest.approx(7.3)


def test_run_phase_repeats_an_op_and_counts_it_once_per_pass():
    calls = []
    ops = [workloads.Op("once", lambda: calls.append("once"), lambda out: None),
           workloads.Op("thrice", lambda: calls.append("thrice"), lambda out: None, repeat=3)]
    tally = worker.Tally(len(ops), {})
    worker.run_phase(ops, 0.0, tally, contextlib.nullcontext)   # a single pass
    assert calls == ["once", "thrice", "thrice", "thrice"]
    assert tally.attempted == 4 and tally.failed == 0 and tally.passes == 1
    assert [len(op) for op in tally.latencies] == [1, 3]
    assert tally.sweeps == [pytest.approx(tally.latencies[0][0] + sum(tally.latencies[1]) / 3)]


def test_failure_share():
    assert report.failure_share(8, 0) == 0.0
    assert report.failure_share(8, 2) == 0.25
    with pytest.raises(ValueError):
        report.failure_share(0, 0)
    with pytest.raises(ValueError):
        report.failure_share(3, 4)


class FakeClock:
    """Each call returns the next scripted time."""

    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


def test_self_time_subtracts_nested_spans():
    # outer [0, 10] holds inner [1, 3] and inner [4, 8]; the eigensolver
    # call [5, 6] sits inside the second inner span
    tracer = tracing.Tracer(clock=FakeClock([0.0, 1.0, 3.0, 4.0, 5.0, 6.0, 8.0, 10.0]))
    eig = tracer.counter(lambda: None)

    def inner_body(solve):
        if solve:
            eig()

    inner = tracer.span("counting.inner", inner_body)
    outer = tracer.span("landau.outer", lambda: (inner(False), inner(True)))
    outer()
    snap = tracer.snapshot()
    assert snap["total_s:landau.outer"] == 10.0
    assert snap["self_s:landau.outer"] == 10.0 - 2.0 - 4.0
    assert snap["self_s:counting.inner"] == 6.0          # eig time is not subtracted
    assert snap["calls:counting.inner"] == 2
    assert snap["eig_calls:counting"] == 1
    assert snap["eig_s:counting"] == 1.0
    assert "eig_calls:landau" not in snap
    assert tracer.stack == []


def test_span_records_when_the_call_raises():
    tracer = tracing.Tracer(clock=FakeClock([0.0, 2.0]))

    def boom():
        raise KeyError("x")

    with pytest.raises(KeyError):
        tracer.span("ssf.boom", boom)()
    assert tracer.snapshot()["self_s:ssf.boom"] == 2.0
    assert tracer.stack == []


def test_merge_and_per_pass():
    a = {"self_s:x": 1.0, "max:n": 64.0}
    b = {"self_s:x": 2.0, "max:n": 128.0, "calls:y": 3.0}
    merged = tracing.merge([a, b])
    assert merged == {"self_s:x": 3.0, "max:n": 128.0, "calls:y": 3.0}
    setup = {"self_s:x": 0.5, "max:n": 256.0}
    assert tracing.per_pass(setup, merged, 3) == {
        "self_s:x": 1.5, "max:n": 256.0, "calls:y": 1.0}


def _bindings():
    """Every binding the tracer may patch, by identity."""
    import numpy.linalg

    owners = [mod for name, mod in sys.modules.items()
              if name == "diracssf" or name.startswith("diracssf.")]
    owners += [obj for mod in list(owners) for obj in vars(mod).values()
               if isinstance(obj, type) and obj.__module__.startswith("diracssf")]
    owners.append(numpy.linalg)
    return {(id(owner), attr): obj for owner in owners for attr, obj in vars(owner).items()}


def test_install_wraps_every_binding_and_uninstall_restores_them():
    import diracssf.cli
    from diracssf import counting, harness, landau, ssf, toeplitz

    before = _bindings()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert landau.log_radial_moments is toeplitz.log_radial_moments
        assert landau.log_radial_moments.__wrapped__ is before[(id(landau), "log_radial_moments")]
        assert diracssf.cli.run_scenario is harness.run_scenario
        assert hasattr(diracssf.cli.run_scenario, "__wrapped__")
        assert hasattr(vars(ssf.SsfEstimator)["inside_bracket"], "__wrapped__")
        assert hasattr(vars(counting.LogSpectrum)["from_log"].__func__, "__wrapped__")
        assert hasattr(np.linalg.eigvalsh, "__wrapped__")
        with pytest.raises(RuntimeError):
            tracer.install()
    finally:
        tracer.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    changed = [key for key in before if after[key] is not before[key]]
    assert changed == []

    # calls after uninstall leave the tracer untouched
    snap = tracer.snapshot()
    landau.build_lll_basis(landau.FieldSpec(2.0), 8)
    assert tracer.snapshot() == snap


def test_traced_basis_build_reports_its_layers():
    from diracssf import landau, toeplitz

    tracer = tracing.Tracer()
    tracer.install()
    try:
        basis = landau.build_lll_basis(landau.FieldSpec(2.0), 40)
        toeplitz.toeplitz_radial_spectrum(toeplitz.gaussian_profile(1.0), basis)
        with tracer.muted():
            landau.build_lll_basis(landau.FieldSpec(2.0), 40)
    finally:
        tracer.uninstall()
    metrics = report.per_layer(tracer.snapshot(), {})
    assert metrics["landau.basis_k_total"] == 40
    assert metrics["landau.quad_nodes_max"] == basis.quad_nodes
    assert metrics["toeplitz.toeplitz_radial_spectrum.calls"] == 1
    assert metrics["quad.log_integral_batch.s"] > 0
    assert metrics["landau.build_lll_basis.total_s"] >= metrics["landau.build_lll_basis.s"]
    assert metrics["ssf.compressions_per_query"] == 0


REFERENCE = ("scenario,params,metric,value,error,status\n"
             "t,law=compact;s=1e-40,count_to_law_ratio,1.6696343280233119,0.0491,fail\n"
             "t,law=compact;s=1e-40,n_plus,34,nan,\n"
             "t,,orthogonality,1.3877787807814457e-17,nan,pass\n")


@pytest.mark.parametrize("edit, ok", [
    (lambda t: t, True),
    (lambda t: t.replace("1.6696343280233119", "1.6696343280233121"), True),
    (lambda t: t.replace("1.3877787807814457e-17", "2.1e-16"), True),
    (lambda t: t.replace("1.6696343280233119", "1.6696343"), False),
    (lambda t: t.replace(",34,", ",35,"), False),
    (lambda t: t.replace(",34,", ",34.0000000001,"), False),
    (lambda t: t.replace(",fail", ",pass"), False),
    (lambda t: t.replace("n_plus", "n_minus"), False),
    (lambda t: t + "t,,extra,1,nan,\n", False),
])
def test_compare_csv(edit, ok):
    assert (cli_configs.compare_csv(edit(REFERENCE), REFERENCE) is None) == ok


def test_expected_exit_follows_reference_statuses():
    assert cli_configs.expected_exit(REFERENCE) == 2
    assert cli_configs.expected_exit(REFERENCE.replace(",fail", ",pass")) == 0


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(report.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        report.per_layer_units()
