import importlib
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diracssf import harness
from diracssf.cli import main
from diracssf.harness import (
    _SCHEMA,
    LAWS,
    SCENARIOS,
    ConfigError,
    ResultRow,
    ScenarioConfig,
    _estimator,
    _field,
    _potential,
    all_rows_pass,
    emit_csv,
    format_value,
    parse_config,
    rows_to_csv_bytes,
    run_scenario,
    serialize_config,
)
from diracssf.ssf import gaussian_longitudinal, omega1_log_factors
from diracssf.toeplitz import (RadialProfile, count_truncation, gaussian_profile,
                               suggest_truncation, toeplitz_radial_spectrum)

CONFIGS_DIR = Path(__file__).resolve().parent.parent / "configs"
CONFIGS = sorted(CONFIGS_DIR.glob("*.cfg"))

MINIMAL = """
[scenario]
name = identities

[sweep]
n_random = 12
seed = 3
"""


class TestConfigParsing:
    def test_minimal_round_trip(self):
        cfg = parse_config(MINIMAL)
        assert cfg.scenario == "identities"
        assert cfg.b0 == 2.0  # default filled
        again = parse_config(serialize_config(cfg))
        assert again == cfg

    def test_negative_field_names_invariant(self):
        with pytest.raises(ConfigError) as err:
            parse_config("[scenario]\nname = levinson\n[field]\nb0 = -1\n")
        assert any("FieldSpec" in v for v in err.value.violations)

    def test_shallow_decay_names_guard(self):
        with pytest.raises(ConfigError) as err:
            parse_config("[scenario]\nname = levinson\n[potential]\nnu = 2.5\n")
        assert any("nu must exceed 3" in v for v in err.value.violations)

    def test_unknown_key_is_error(self):
        with pytest.raises(ConfigError) as err:
            parse_config("[scenario]\nname = identities\n[field]\nbb0 = 1\n")
        assert any("unknown key" in v for v in err.value.violations)

    def test_all_violations_reported(self):
        text = ("[scenario]\nname = nope\n[field]\nb0 = -1\n"
                "[potential]\nnu = 1.0\nmass = -2\n")
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert len(err.value.violations) >= 4

    def test_zero_amplitude_names_guard(self):
        # every transverse profile takes log(amplitude)
        with pytest.raises(ConfigError) as err:
            parse_config("[scenario]\nname = levinson\n[potential]\namplitude = 0\n")
        assert any("amplitude must be positive" in v for v in err.value.violations)

    def test_zero_edge_entry_is_valid(self):
        cfg = parse_config("[scenario]\nname = levinson\n[potential]\nm33 = 0\n")
        assert cfg.m33 == 0.0

    def test_non_finite_number_is_error(self):
        with pytest.raises(ConfigError) as err:
            parse_config("[scenario]\nname = levinson\n[potential]\nm33 = inf\n"
                         "[sweep]\nlambdas = 0.5,nan\n")
        assert sum("cannot parse" in v for v in err.value.violations) == 2

    # sweep energies are in units of mass: these either crashed in run
    # (OverflowError on the edge, ValueError off the estimator's side) or
    # were refused for an energy that was not on an edge
    @pytest.mark.parametrize("scenario, mass, lam", [
        ("ssf-inside", 2.0, 1.0), ("ssf-inside", 1.0, 1.5),
        ("ssf-outside", 1.0, 0.5), ("ssf-outside", 1.0, -1.5),
        ("ssf-outside", 1.0, 1.0), ("kernels", 1.0, 0.5), ("kernels", 1.0, -1.0),
    ])
    def test_lambda_outside_the_estimator_window_is_refused(self, scenario, mass, lam):
        with pytest.raises(ConfigError) as err:
            parse_config(f"[scenario]\nname = {scenario}\n[potential]\nmass = {mass}\n"
                         f"[sweep]\nlambdas = {lam}\n")
        assert any(f"{scenario} needs" in v and "in units of mass" in v
                   for v in err.value.violations)

    @pytest.mark.parametrize("law", ["exponential", "compact"])
    def test_log_scale_law_threshold_must_be_below_one_over_e(self, law):
        with pytest.raises(ConfigError) as err:
            parse_config(f"[scenario]\nname = toeplitz-asymptotics\n[potential]\n"
                         f"law = {law}\n[sweep]\ns_values = 1e-4,0.5\n")
        assert err.value.violations == [
            "sweep guard: threshold 0.5 must lie in (0, 1/e), the domain of the "
            f"log-scale {law} counting law"]

    def test_power_law_threshold_above_one_runs(self, tmp_path):
        # the power law holds on every s > 0: the row fails honestly
        path = tmp_path / "cfg.ini"
        path.write_text("[scenario]\nname = toeplitz-asymptotics\n[potential]\n"
                        "law = power\n[sweep]\ns_values = 2\n")
        out = tmp_path / "rows.csv"
        assert main(["run", "--config", str(path), "--out", str(out)]) == 2
        assert "count_to_law_ratio,0.0," in out.read_text()

    def test_float_lists(self):
        cfg = parse_config("[scenario]\nname = kernels\n[sweep]\n"
                           "lambdas = 1.5,2.0\neps_values = 1e-2\n")
        assert cfg.lambdas == (1.5, 2.0)
        assert cfg.eps_values == (0.01,)

    def test_negative_seed_is_refused(self):
        # numpy.random.default_rng rejects a negative seed, which the
        # identities scenario used to hit only in run
        with pytest.raises(ConfigError) as err:
            parse_config("[scenario]\nname = identities\n[sweep]\nseed = -1\n")
        assert err.value.violations == [
            "sweep guard: seed must be nonnegative (numpy.random.default_rng)"]
        assert parse_config("[scenario]\nname = identities\n[sweep]\nseed = 0\n").seed == 0


@pytest.mark.parametrize("path", CONFIGS, ids=lambda p: p.stem)
def test_shipped_config_parses_into_the_registries(path):
    cfg = parse_config(path.read_text())
    assert cfg.scenario in SCENARIOS
    assert cfg.law in LAWS


def test_shipped_configs_cover_every_scenario_and_law():
    cfgs = [parse_config(path.read_text()) for path in CONFIGS]
    assert {cfg.scenario for cfg in cfgs} == set(SCENARIOS)
    assert {cfg.law for cfg in cfgs} == set(LAWS)


# numbers mostly positive with magnitudes 1e-6..1e6, plus negatives, zeros
# and the non-finite words; list entries also favour (0, 1), where eps
# values and thresholds live
_MAGNITUDES = st.floats(-6.0, 6.0).map(lambda e: 10.0 ** e)
_NUMBERS = st.one_of(
    *[_MAGNITUDES.map(repr)] * 6, _MAGNITUDES.map(lambda v: repr(-v)),
    st.sampled_from(["0", "-0.0", "nan", "inf", "-inf"]))
_ENTRIES = st.one_of(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True).map(repr),
                     _NUMBERS)
_WORDS = {"scenario": SCENARIOS + ("bogus",), "law": LAWS + ("bogus",),
          "phi_tilde": ("none", "tanh", "bogus")}


@st.composite
def config_texts(draw):
    """Config text setting the scenario and about a sixth of the other keys."""
    lines = []
    for section, keys in _SCHEMA.items():
        lines.append(f"[{section}]")
        for key, (attr, kind) in keys.items():
            if section != "scenario" and draw(st.integers(0, 5)):
                continue
            if kind == "floats":
                raw = ",".join(draw(st.lists(_ENTRIES, max_size=3)))
            elif kind is float:
                raw = draw(_NUMBERS)
            elif kind is int:
                raw = str(draw(st.integers(-2, 100)))
            else:
                raw = draw(st.sampled_from(_WORDS[attr]))
            lines.append(f"{key} = {raw}")
    return "\n".join(lines) + "\n"


@settings(deadline=None, max_examples=400)
@given(config_texts())
def test_every_accepted_config_builds_and_round_trips(text):
    # validate may only reject with a ConfigError; what it accepts must
    # build its field and potential, and survive serialize_config
    try:
        cfg = parse_config(text)
    except ConfigError:
        return
    _field(cfg)
    _potential(cfg)
    assert parse_config(serialize_config(cfg)) == cfg


@pytest.mark.parametrize("width", ["1e-3", "1e-6"])
def test_unresolvable_long_width_is_refused(width):
    with pytest.raises(ConfigError, match="long_width must be at least 0.02"):
        parse_config(f"[scenario]\nname = levinson\n[potential]\nlong_width = {width}\n")
    with pytest.raises(ValueError, match="below 0.02"):
        gaussian_longitudinal(float(width))


def test_unit_long_width_unchanged():
    cfg = parse_config("[scenario]\nname = levinson\n[potential]\nlong_width = 1.0\n")
    assert cfg.long_width == 1.0
    integral = _potential(cfg).longitudinal.integral()
    assert integral == pytest.approx(np.sqrt(np.pi), rel=1e-14)


class TestValueFormatting:
    def test_plain_range(self):
        assert format_value(1.5) == "1.5"
        assert "e" not in format_value(999999.0)

    def test_scientific_outside_range(self):
        assert "e" in format_value(1e-4)
        assert "e" in format_value(1e7)

    def test_zero_and_nan(self):
        assert format_value(0.0) == "0.0"
        assert format_value(float("nan")) == "nan"

    def test_seventeen_digits_survive_round_trip(self):
        for v in (1.0 / 3.0, 1e-7 * np.pi, 123456.789012345):
            assert float(format_value(v)) == v

    @settings(deadline=None, max_examples=500)
    @given(st.floats(allow_nan=False))
    def test_every_float_round_trips(self, v):
        assert float(format_value(v)) == v


class TestCsvEmission:
    def test_empty_rows_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        emit_csv([], path)
        assert path.read_text() == "scenario,params,metric,value,error,status\n"

    def test_single_row(self, tmp_path):
        path = tmp_path / "one.csv"
        emit_csv([ResultRow("s", "a=1", "m", 2.5, passed=True)], path)
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        assert lines[1] == "s,a=1,m,2.5,nan,pass"

    def test_rerun_byte_identical(self, tmp_path):
        cfg = parse_config(MINIMAL)
        a = rows_to_csv_bytes(run_scenario(cfg))
        b = rows_to_csv_bytes(run_scenario(cfg))
        assert a == b


class TestScenarios:
    def test_identities_all_pass(self):
        rows = run_scenario(parse_config(MINIMAL))
        assert rows and all_rows_pass(rows)

    def test_dirac_check(self):
        cfg = parse_config("[scenario]\nname = dirac-check\n"
                           "[truncation]\nladder_l = 4\ngrid_n = 8\ngrid_x = 10.0\n")
        rows = run_scenario(cfg)
        assert all_rows_pass(rows)
        metrics = {r.metric for r in rows}
        assert "min_abs_eigenvalue" in metrics
        assert "square_identity_interior" in metrics

    def test_vanished_inside_count_fails_only_its_eps(self, tmp_path, capsys):
        # at amplitude 0.05 no eigenvalue clears the inside threshold at
        # eps = 0.1, so that ratio is undefined; eps = 1e-4 still counts
        text = ("[scenario]\nname = levinson\n[field]\nb0 = 2.0\n"
                "[potential]\nlaw = exponential\namplitude = 0.05\n"
                "[sweep]\neps_values = {}\n")
        path = tmp_path / "cfg.ini"
        path.write_text(text.format("1e-1,1e-4"))
        out = tmp_path / "rows.csv"
        assert main(["run", "--config", str(path), "--out", str(out)]) == 2
        lines = out.read_text().splitlines()
        assert "levinson,eps=0.10000000000000001,ratio,nan,nan,fail" in lines
        assert sum("eps=0.1" in line for line in lines) == 1
        alone = run_scenario(parse_config(text.format("1e-4")))
        assert set(rows_to_csv_bytes(alone).decode().splitlines()) <= set(lines)

    def test_levinson_scenario_rows(self):
        cfg = parse_config(
            "[scenario]\nname = levinson\n[field]\nb0 = 2.0\n"
            "[potential]\nlaw = exponential\namplitude = 8.0\n"
            "[sweep]\neps_values = 1e-2,1e-3\n")
        rows = run_scenario(cfg)
        ratios = [r for r in rows if r.metric == "ratio"]
        assert len(ratios) == 2
        assert all(r.passed for r in ratios)


class TestCli:
    def _write(self, tmp_path, text):
        path = tmp_path / "cfg.ini"
        path.write_text(text)
        return str(path)

    def test_list_scenarios(self, capsys):
        assert main(["list-scenarios"]) == 0
        out = capsys.readouterr().out
        assert "levinson" in out and "identities" in out

    def test_validate_ok(self, tmp_path):
        assert main(["validate", "--config", self._write(tmp_path, MINIMAL)]) == 0

    def test_validate_bad(self, tmp_path, capsys):
        bad = "[scenario]\nname = identities\n[field]\nb0 = -3\n"
        assert main(["validate", "--config", self._write(tmp_path, bad)]) == 1
        assert "FieldSpec" in capsys.readouterr().err

    def test_run_writes_csv(self, tmp_path):
        cfg = self._write(tmp_path, MINIMAL)
        out = str(tmp_path / "rows.csv")
        assert main(["run", "--config", cfg, "--out", out, "--threads", "2"]) == 0
        text = open(out).read()
        assert text.startswith("scenario,params,metric")
        assert "weyl_inequality" in text

    def test_missing_config(self, capsys):
        assert main(["run", "--config", "/nonexistent.cfg"]) == 1

    def _refused(self, capsys, argv, message):
        # a refused run exits 1 with one stderr line and no traceback
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert message in err
        assert "Traceback" not in err and err.count("\n") == 1

    @pytest.mark.parametrize("scenario, reason", [
        ("ssf-inside", "inside the gap the counts read only the diagonal edge symbols"),
        ("levinson", "both Levinson counts read only the diagonal edge symbols"),
        ("toeplitz-asymptotics", "the Toeplitz symbol reads no matrix part"),
    ])
    def test_unread_m13_is_refused(self, tmp_path, capsys, scenario, reason):
        cfg = self._write(tmp_path, f"[scenario]\nname = {scenario}\n"
                                    "[potential]\nm13 = 0.9\n")
        for command in ("validate", "run"):
            self._refused(capsys, [command, "--config", cfg],
                          f"{scenario} needs m13 = 0, got 0.9 ({reason}")
        assert parse_config(f"[scenario]\nname = {scenario}\n"
                            "[potential]\nm13 = 0\n").m13 == 0.0

    def test_ssf_outside_still_accepts_m13(self):
        # no ssf-outside output reads m13 yet either, but the full outside
        # operator it will report does, so the key stays open there
        cfg = parse_config("[scenario]\nname = ssf-outside\n[potential]\nm13 = 0.9\n")
        assert cfg.m13 == 0.9

    def test_out_in_missing_directory(self, tmp_path, capsys):
        out = tmp_path / "missing" / "rows.csv"
        self._refused(capsys, ["run", "--config", self._write(tmp_path, MINIMAL),
                               "--out", str(out)], "No such file or directory")

    def test_too_small_k_for_the_counting_threshold(self, tmp_path, capsys):
        cfg = self._write(tmp_path, "[scenario]\nname = toeplitz-asymptotics\n"
                                    "[truncation]\nk = 10\n")
        self._refused(capsys, ["run", "--config", cfg, "--out", str(tmp_path / "r.csv")],
                      "basis K=10 inadequate for threshold")

    def test_too_small_k_for_the_arctan_tail(self, tmp_path, capsys):
        cfg = self._write(tmp_path, "[scenario]\nname = ssf-outside\n[field]\nb0 = 2.0\n"
                                    "[potential]\namplitude = 8.0\n"
                                    "[truncation]\nk = 10\n[sweep]\nlambdas = 1.01\n")
        self._refused(capsys, ["run", "--config", cfg, "--out", str(tmp_path / "r.csv")],
                      "arctan tail estimate")

    def test_threshold_on_an_eigenvalue(self, tmp_path, capsys):
        # lambda_k = 2^-(k+1) exactly at b0 = 2, eta = 1, so s = 2^-10 sits on
        # lambda_9: the count there is refused, not reported as 9 or 10
        cfg = self._write(tmp_path, "[scenario]\nname = toeplitz-asymptotics\n"
                                    "[field]\nb0 = 2.0\n[potential]\nlaw = exponential\n"
                                    "eta = 1.0\n[sweep]\ns_values = 0.0009765625,0.001\n")
        out = tmp_path / "r.csv"
        self._refused(capsys, ["run", "--config", cfg, "--out", str(out)],
                      "threshold 0.0009765625 collides with an eigenvalue")
        assert not out.exists()

    def test_threshold_on_an_eigenvalue_builds_once(self, tmp_path, capsys, monkeypatch):
        # no basis size moves lambda_9 off s = 2^-10, so the count-sized
        # basis is refused as it stands instead of being rebuilt larger
        sizes = []
        build = harness.build_lll_basis
        monkeypatch.setattr(harness, "build_lll_basis",
                            lambda field, k: sizes.append(k) or build(field, k))
        cfg = self._write(tmp_path, "[scenario]\nname = toeplitz-asymptotics\n"
                                    "[field]\nb0 = 2.0\n[potential]\nlaw = exponential\n"
                                    "eta = 1.0\n[sweep]\ns_values = 0.0009765625,0.001\n")
        self._refused(capsys, ["run", "--config", cfg, "--out", str(tmp_path / "r.csv")],
                      "threshold 0.0009765625 collides with an eigenvalue")
        assert len(sizes) == 1


def test_cli_failing_rows_exit_two(tmp_path, capsys):
    # the compact law converges log-log slowly, so its declared ratio
    # bracket fails honestly at practical thresholds
    cfg = ("[scenario]\nname = toeplitz-asymptotics\n"
           "[field]\nb0 = 2.0\n[potential]\nlaw = compact\nradius = 1.0\n"
           "[sweep]\ns_values = 1e-20\n")
    path = tmp_path / "cfg.ini"
    path.write_text(cfg)
    out = str(tmp_path / "rows.csv")
    assert main(["run", "--config", str(path), "--out", out]) == 2
    assert "fail" in open(out).read()


@pytest.mark.parametrize("scenario", ["ssf-outside", "kernels"])
def test_lambda_equal_to_mass_runs_above_the_edge(scenario):
    # lambda = 2 at mass 2 is the energy 4 > m, not a gap edge
    cfg = parse_config(f"[scenario]\nname = {scenario}\n[field]\nb0 = 2.0\n"
                       "[potential]\namplitude = 8.0\nmass = 2.0\n"
                       "[sweep]\nlambdas = 2.0\n")
    rows = run_scenario(cfg)
    assert rows and all(r.params.startswith("lambda=4") for r in rows)


def test_ssf_scenarios_run():
    for name in ("ssf-inside", "ssf-outside"):
        lams = "0.999,0.9999" if name == "ssf-inside" else "1.001,1.0001"
        cfg = parse_config(
            f"[scenario]\nname = {name}\n[field]\nb0 = 2.0\n"
            f"[potential]\nlaw = exponential\namplitude = 8.0\n"
            f"[sweep]\nlambdas = {lams}\n")
        rows = run_scenario(cfg)
        metrics = {r.metric for r in rows}
        assert {"bracket_lower", "bracket_upper", "prediction",
                "ratio_mid_to_prediction"} <= metrics


@pytest.mark.parametrize("m11, m33", [(1.0, 4.0), (4.0, 1.0)])
def test_estimator_sizes_one_basis_for_both_edges(m11, m33):
    # the basis that ships is sized for whichever column symbol needs more
    # modes, so both edge compressions count correctly down to s_min
    s_min = 1e-3
    cfg = ScenarioConfig("ssf-outside", b0=1.0, law="power", amplitude=8.0,
                         nu=5.0, m11=m11, m33=m33)
    est = _estimator(cfg, s_min)
    k_plus = suggest_truncation(est.pot.w_plus.law, s_min, 1.0)
    k_minus = suggest_truncation(est.pot.w_minus.law, s_min, 1.0)
    assert k_plus != k_minus
    assert est.basis.K == max(k_plus, k_minus)
    assert est.wplus_model.adequate_for(s_min)
    assert est.wminus_model.adequate_for(s_min)


# -- toeplitz-asymptotics basis sizing ------------------------------------

REFERENCES = Path(__file__).resolve().parent.parent / "perfbench" / "reference"


@pytest.fixture
def built_sizes(monkeypatch):
    """The K of every basis the harness builds, in order."""
    sizes = []
    build = harness.build_lll_basis

    def recording_build(field, K, *args, **kwargs):
        sizes.append(K)
        return build(field, K, *args, **kwargs)

    monkeypatch.setattr(harness, "build_lll_basis", recording_build)
    return sizes


@pytest.mark.parametrize("name, k", [("toeplitz_power", 380),
                                     ("toeplitz_exponential", 51),
                                     ("toeplitz_compact", 41)])
def test_toeplitz_configs_are_count_sized_and_byte_identical(built_sizes, name, k):
    # the certified count-sized basis (one build each) reproduces the
    # reference CSVs that the depth-margin sizing produced
    rows = run_scenario(parse_config((CONFIGS_DIR / f"{name}.cfg").read_text()))
    assert built_sizes == [k]
    assert rows_to_csv_bytes(rows) == (REFERENCES / f"{name}.csv").read_bytes()


@pytest.mark.parametrize("config", CONFIGS, ids=lambda path: path.stem)
def test_shipped_configs_pass_the_benchmark_output_check(monkeypatch, tmp_path, config):
    # every shipped config, run in process through the CLI, must pass the
    # cli-configs check: the exit code the reference implies and a CSV that
    # compare_csv accepts; both come from perfbench itself, imported as is
    monkeypatch.syspath_prepend(str(REFERENCES.parent))
    cli_configs = importlib.import_module("cli_configs")
    want = (REFERENCES / f"{config.stem}.csv").read_text()
    out = tmp_path / f"{config.stem}.csv"
    assert main(["run", "--config", str(config), "--out", str(out)]) == \
        cli_configs.expected_exit(want)
    assert cli_configs.compare_csv(out.read_text(), want) is None


def _run_cli(tmp_path, name, cfg):
    """Exit code and CSV bytes of ``diracssf run`` on ``cfg``."""
    path = tmp_path / f"{name}.cfg"
    path.write_text(serialize_config(cfg))
    out = tmp_path / f"{name}.csv"
    code = main(["run", "--config", str(path), "--out", str(out)])
    return code, out.read_bytes()


@pytest.mark.parametrize("name", ["levinson_exponential", "ssf_outside"])
def test_zero_tanh_amplitude_is_the_flat_field(monkeypatch, tmp_path, name):
    # phi_tilde = tanh with phi_amp = 0 is the flat field: its basis takes
    # the closed-form norms and the run emits the shipped config's bytes
    nodes = []
    build = harness.build_lll_basis

    def recording_build(field, K):
        basis = build(field, K)
        nodes.append(basis.quad_nodes)
        return basis

    monkeypatch.setattr(harness, "build_lll_basis", recording_build)
    text = (CONFIGS_DIR / f"{name}.cfg").read_text()
    zero = text.replace("[field]\n", "[field]\nphi_tilde = tanh\nphi_amp = 0.0\n")
    cfg = parse_config(zero)
    assert (cfg.phi_tilde, cfg.phi_amp) == ("tanh", 0.0)
    assert _run_cli(tmp_path, "zero", cfg) == _run_cli(tmp_path, "flat", parse_config(text))
    assert nodes == [0, 0]


@pytest.mark.parametrize("name, scaled", [
    ("toeplitz_exponential", lambda cfg: replace(cfg, b0=4.0 * cfg.b0, eta=4.0 * cfg.eta)),
    ("ssf_inside", lambda cfg: replace(cfg, b0=4.0 * cfg.b0, eta=4.0 * cfg.eta)),
    ("toeplitz_compact", lambda cfg: replace(cfg, b0=4.0 * cfg.b0, radius=0.5 * cfg.radius)),
])
def test_magnetic_scaling_leaves_the_run_unchanged(tmp_path, name, scaled):
    # r = 2 rho maps the problem (U, b0) onto (U(2 .), 4 b0) with the same
    # eigenvalues: the Gaussian's eta and the disc's 1/R^2 scale with b0,
    # and so does every law and truncation the run reads
    cfg = parse_config((CONFIGS_DIR / f"{name}.cfg").read_text())
    assert _run_cli(tmp_path, "scaled", scaled(cfg)) == _run_cli(tmp_path, "shipped", cfg)


def test_unflagged_profile_falls_back_to_the_depth_margin(monkeypatch, built_sizes):
    def unflagged(cfg):
        p = gaussian_profile(eta=cfg.eta, amplitude=cfg.amplitude)
        return RadialProfile(p.log_value, p.law)

    monkeypatch.setattr(harness, "_transverse", unflagged)
    rows = run_scenario(parse_config((CONFIGS_DIR / "toeplitz_exponential.cfg").read_text()))
    law = gaussian_profile().law
    assert built_sizes == [count_truncation(law, 1e-8, 2.0), suggest_truncation(law, 1e-8, 2.0)]
    assert rows_to_csv_bytes(rows) == (REFERENCES / "toeplitz_exponential.csv").read_bytes()


@st.composite
def toeplitz_configs(draw):
    """toeplitz-asymptotics configs whose depth-margin K stays below about 4000."""
    law = draw(st.sampled_from(LAWS))
    shape = {"exponential": ("eta", 0.2, 3.0, -30.0), "power": ("nu", 4.5, 9.0, -3.0),
             "compact": ("radius", 0.5, 2.0, -40.0)}[law]
    s = 10.0 ** draw(st.floats(shape[3], -2.0))
    return ScenarioConfig("toeplitz-asymptotics", b0=draw(st.floats(0.5, 1.5)),
                          phi_tilde="tanh", phi_amp=draw(st.floats(0.0, 1.0)), law=law,
                          amplitude=draw(st.floats(0.25, 1.0)),
                          **{shape[0]: draw(st.floats(shape[1], shape[2]))},
                          s_values=(s, 3.0 * s, 10.0 * s))


@settings(deadline=None, max_examples=60)
@given(toeplitz_configs())
def test_count_sized_basis_keeps_the_depth_margin_counts(cfg):
    # whatever the harness keeps, certified or the fallback, counts exactly
    # what the depth-margin basis counts, for any phi-tilde
    profile = harness._transverse(cfg)
    model = harness._toeplitz_model(cfg, profile, cfg.s_values)
    if model.K == count_truncation(profile.law, min(cfg.s_values), cfg.b0):
        assert all(model.count_certified(s) for s in cfg.s_values)
    deep = toeplitz_radial_spectrum(profile, harness.build_lll_basis(
        _field(cfg), suggest_truncation(profile.law, min(cfg.s_values), cfg.b0)))
    assert [model.spectrum.n_plus(s) for s in cfg.s_values] == \
        [deep.spectrum.n_plus(s) for s in cfg.s_values]


@settings(deadline=None)
@given(st.floats(1.0, 10.0, exclude_min=True), st.floats(0.01, 0.5), st.floats(0.5, 4.0))
def test_outside_floor_is_the_level_the_arctan_trace_reads(lam, eps, mass):
    # Omega1 compares log(f+ mu) with log(1 - eps): the floor must be that
    # level in the same floats, not (1 - eps) t(lambda) rounded another way
    cfg = ScenarioConfig("ssf-outside", mass=mass, eps_bracket=eps)
    level = math.exp(math.log(1.0 - eps) - omega1_log_factors(lam * mass, mass)[0])
    assert harness._edge_floor(cfg, [lam * mass]) == level
