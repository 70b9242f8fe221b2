import contextlib
import csv
import importlib
import io
import math
import os
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from diracssf import cli, harness
from diracssf._quad import QuadratureError
from diracssf.cli import main
from diracssf.counting import JumpLocalizationError
from diracssf.harness import (
    _KINDS,
    _SECTIONS,
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
from diracssf.discrete_model import build_h0, roundoff_bounds
from diracssf.errors import DiracSsfError
from diracssf.kernels1d import GridResolutionError
from diracssf.ssf import TruncatedTailError, edge_threshold, gaussian_longitudinal
from diracssf.toeplitz import (NonIntegrableError, RadialProfile, TruncationError,
                               count_truncation, gaussian_profile, suggest_truncation,
                               toeplitz_radial_spectrum)

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
        # beyond the grid's Nyquist momentum pi/h = 128.67: at 1e6 the run
        # asked numpy for a 15 GiB array; never run, only parsed
        ("kernels", 1.0, 1e6), ("kernels", 2.0, 65.0),
        # at mass 1e-162 the squares in the momentum underflow and it is 0;
        # beyond 1e154 they overflow, where a ** 2 raised OverflowError
        ("kernels", 1e-162, 1.1), ("kernels", 1e200, 2.0), ("kernels", 1.0, 1e160),
    ])
    def test_lambda_outside_the_estimator_window_is_refused(self, scenario, mass, lam):
        with pytest.raises(ConfigError) as err:
            parse_config(f"[scenario]\nname = {scenario}\n[potential]\nmass = {mass}\n"
                         f"[sweep]\nlambdas = {lam}\n")
        assert any(f"{scenario} needs" in v and "in units of mass" in v
                   for v in err.value.violations)

    def test_default_lambdas_go_through_the_window(self):
        # with no lambdas the run takes (1.01, 1.5, 2, 5); at mass 1e-170
        # their momenta are 0, where the run raised ZeroDivisionError
        with pytest.raises(ConfigError) as err:
            parse_config("[scenario]\nname = kernels\n[potential]\nmass = 1e-170\n")
        assert len(err.value.violations) == 4
        assert all(v.endswith("(the default lambdas)") for v in err.value.violations)

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
        # kernels reads lambdas, levinson reads eps_values; neither reads both
        cfg = parse_config("[scenario]\nname = kernels\n[sweep]\nlambdas = 1.5,2.0\n")
        assert cfg.lambdas == (1.5, 2.0)
        cfg = parse_config("[scenario]\nname = levinson\n[sweep]\neps_values = 1e-2\n")
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
    for section, keys in _SECTIONS.items():
        lines.append(f"[{section}]")
        for key in keys:
            if section != "scenario" and draw(st.integers(0, 5)):
                continue
            attr = "scenario" if key == "name" else key
            kind = _KINDS[attr]
            if kind is tuple:
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


# -- the read-set of each scenario -----------------------------------------

# The keys each runner reads, checked against the code; a read law adds its
# profile's keys, and a read phi_tilde = tanh adds phi_amp.
_EDGE_READS = {"b0", "phi_tilde", "law", "k", "m11", "mass", "long_width", "eps_bracket"}
_READS = {
    "toeplitz-asymptotics": {"b0", "phi_tilde", "law", "k", "s_values"},
    "ssf-inside": _EDGE_READS | {"lambdas"},
    "ssf-outside": _EDGE_READS | {"m33", "lambdas"},
    "levinson": _EDGE_READS | {"m33", "eps_values"},
    "kernels": {"mass", "lambdas"},
    "dirac-check": {"b0", "mass", "ladder_l", "grid_n", "grid_x"},
    "identities": {"n_random", "seed"},
}
_LAW_READS = {"exponential": {"amplitude", "eta"}, "power": {"amplitude", "nu"},
              "compact": {"amplitude", "radius"}}
# a valid value other than the ScenarioConfig default, per key
_NON_DEFAULT = {
    "b0": 3.0, "phi_tilde": "tanh", "phi_amp": 0.7, "law": "power", "amplitude": 8.0,
    "eta": 2.0, "radius": 2.0, "m11": 0.5, "m33": 0.5, "m13": 0.5, "nu": 6.0, "mass": 2.0,
    "long_width": 0.5, "k": 50, "ladder_l": 4, "grid_n": 16, "grid_x": 10.0,
    "lambdas": (1.5,), "s_values": (1e-4,), "eps_values": (1e-2,), "eps_bracket": 0.2,
    "n_random": 12, "seed": 3,
}
_SECTION = {key: section for section, keys in _SECTIONS.items() for key in keys}


def _config_text(scenario, **values):
    """Config text of ``scenario`` with the given typed key values."""
    sections = {}
    for key, value in values.items():
        raw = ",".join(map(repr, value)) if isinstance(value, tuple) else str(value)
        sections.setdefault(_SECTION[key], []).append(f"{key} = {raw}\n")
    return f"[scenario]\nname = {scenario}\n" + "".join(
        f"[{section}]\n" + "".join(lines) for section, lines in sections.items())


def _unread_cases():
    """(scenario, law, key) for every key outside the scenario's read-set
    under that law, at phi_tilde = none; non-default laws only for the
    law keys that they leave unread."""
    for scenario, reads in _READS.items():
        laws = LAWS if "law" in reads else ("exponential",)
        for law in laws:
            unread = set(_NON_DEFAULT) - reads - (_LAW_READS[law] if "law" in reads else set())
            if law != "exponential":
                unread &= {"eta", "nu", "radius"}
            for key in sorted(unread):
                yield pytest.param(scenario, law, key, id=f"{scenario}-{law}-{key}")


def _read_cases():
    """(scenario, law, key) for every key in the scenario's read-set."""
    for scenario, reads in _READS.items():
        for key in sorted(reads):
            yield pytest.param(scenario, "exponential", key, id=f"{scenario}-{key}")
        if "law" in reads:
            for law, keys in _LAW_READS.items():
                for key in sorted(keys):
                    yield pytest.param(scenario, law, key, id=f"{scenario}-{law}-{key}")
        if "phi_tilde" in reads:
            yield pytest.param(scenario, "exponential", "phi_amp", id=f"{scenario}-tanh-phi_amp")


@pytest.mark.parametrize("scenario, law, key", _unread_cases())
def test_unread_key_with_a_non_default_value_is_refused(scenario, law, key):
    # the value is valid, but no runner of the scenario reads it: it would
    # be dropped without a trace in the CSV
    values = {"law": law} if law != "exponential" else {}
    values[key] = _NON_DEFAULT[key]
    default = getattr(ScenarioConfig(scenario), key)
    with pytest.raises(ConfigError) as err:
        parse_config(_config_text(scenario, **values))
    assert err.value.violations == [
        f"unread key: {scenario} reads no {key} in this config, so it must keep its "
        f"default {default!r}, got {_NON_DEFAULT[key]!r}"]


@pytest.mark.parametrize("scenario, law, key", _read_cases())
def test_read_key_with_a_non_default_value_is_accepted(scenario, law, key):
    values = {"law": law} if law != "exponential" else {}
    values["phi_tilde"] = "tanh" if key == "phi_amp" else "none"
    values[key] = _NON_DEFAULT[key]
    if key == "lambdas" and scenario == "ssf-inside":
        values[key] = (0.5,)  # inside the gap
    cfg = parse_config(_config_text(scenario, **values))
    assert getattr(cfg, key) == values[key] != getattr(ScenarioConfig(scenario), key)


@pytest.mark.parametrize("width", ["0", "-1.0"])
def test_nonpositive_long_width_is_refused(width):
    with pytest.raises(ConfigError, match="long_width must be positive"):
        parse_config(f"[scenario]\nname = levinson\n[potential]\nlong_width = {width}\n")


@pytest.mark.parametrize("width", [0.0, -1.0, math.inf, math.nan])
def test_gaussian_longitudinal_refuses_a_width_that_is_not_positive_and_finite(width):
    with pytest.raises(ValueError, match="positive and finite"):
        gaussian_longitudinal(width)


@pytest.mark.parametrize("width", ["1e-3", "1e-6"])
@pytest.mark.parametrize("name", ["levinson_exponential", "ssf_inside", "ssf_outside"])
def test_narrow_long_width_runs(tmp_path, capsys, name, width):
    # the closed forms hold for every positive width: a narrow L only makes
    # the edge symbols small, so a row may fail (a Levinson ratio whose
    # inside count vanished) but the run emits a row for every sweep entry
    shipped = (CONFIGS_DIR / f"{name}.cfg").read_text()
    cfg = parse_config(shipped.replace("[potential]\n", f"[potential]\nlong_width = {width}\n"))
    assert cfg.long_width == float(width)
    code, data = _run_cli(tmp_path, name, cfg)
    assert code in (0, 2)
    assert "Traceback" not in capsys.readouterr().err

    def params(text):
        return {line.split(",")[1] for line in text.splitlines()[1:]}

    assert params(data.decode()) == params((REFERENCES / f"{name}.csv").read_text())


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
        assert main(["run", "--config", cfg, "--out", out]) == 0
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
        return err

    @pytest.mark.parametrize("name, extra, keys", [
        # no Landau basis is built, so the whole [field] perturbation is unread
        ("dirac_check", "[field]\nphi_tilde = tanh\nphi_amp = 0.7\n",
         [("phi_tilde", "'none'", "'tanh'"), ("phi_amp", "0.0", "0.7")]),
        # only phi_tilde = tanh reads the amplitude
        ("ssf_inside", "[field]\nphi_amp = 0.7\n", [("phi_amp", "0.0", "0.7")]),
        # no count reads the off-diagonal m13 yet, nor m33 inside the gap
        ("ssf_inside", "[potential]\nm13 = 0.9\n", [("m13", "0.0", "0.9")]),
        ("ssf_inside", "[potential]\nm33 = 0.5\n", [("m33", "1.0", "0.5")]),
        ("ssf_outside", "[potential]\nm13 = 0.9\n", [("m13", "0.0", "0.9")]),
        ("levinson_exponential", "[potential]\nm13 = 0.9\n", [("m13", "0.0", "0.9")]),
        ("toeplitz_power", "[potential]\nm13 = 0.9\n", [("m13", "0.0", "0.9")]),
    ], ids=["dirac-check-field", "ssf-inside-phi_amp", "ssf-inside-m13", "ssf-inside-m33",
            "ssf-outside-m13", "levinson-m13", "toeplitz-asymptotics-m13"])
    def test_unread_key_is_refused(self, tmp_path, capsys, name, extra, keys):
        # a key the scenario does not read would be dropped without a trace
        # in the CSV: validate and run both exit 1, one stderr line per key
        shipped = (CONFIGS_DIR / f"{name}.cfg").read_text()
        section = extra.split("\n", 1)[0]
        text = (shipped.replace(section, extra.rstrip("\n"), 1) if section in shipped
                else shipped + extra)
        scenario = parse_config(shipped).scenario
        cfg = self._write(tmp_path, text)
        for argv in (["validate"], ["run", "--out", str(tmp_path / "rows.csv")]):
            assert main(argv + ["--config", cfg]) == 1
            err = capsys.readouterr().err
            assert "Traceback" not in err
            assert err.splitlines() == [
                f"invalid config: unread key: {scenario} reads no {key} in this config, "
                f"so it must keep its default {default}, got {value}"
                for key, default, value in keys]

    def test_out_in_missing_directory(self, tmp_path, capsys):
        out = tmp_path / "missing" / "rows.csv"
        self._refused(capsys, ["run", "--config", self._write(tmp_path, MINIMAL),
                               "--out", str(out)], "No such file or directory")

    def test_too_small_k_for_the_counting_threshold(self, tmp_path, capsys):
        cfg = self._write(tmp_path, "[scenario]\nname = toeplitz-asymptotics\n"
                                    "[truncation]\nk = 10\n")
        self._refused(capsys, ["run", "--config", cfg, "--out", str(tmp_path / "r.csv")],
                      "basis K=10 inadequate for threshold")

    def test_small_k_is_certified_for_a_monotone_edge_symbol(self, tmp_path):
        # at k = 20 the count is exact only through the certificate, which
        # needs the column symbol W+ to keep T's nonincreasing flag
        text = (CONFIGS_DIR / "ssf_inside.cfg").read_text()
        outs = []
        for k in (20, 200):
            cfg = self._write(tmp_path, f"{text}\n[truncation]\nk = {k}\n")
            outs.append(tmp_path / f"k{k}.csv")
            assert main(["run", "--config", cfg, "--out", str(outs[-1])]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()

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

    @staticmethod
    def _allocate_nothing(monkeypatch):
        def refuse(*args):
            raise AssertionError("an oversized config reached its basis or box")
        monkeypatch.setattr(harness, "build_lll_basis", refuse)
        monkeypatch.setattr(harness, "build_h0", refuse)

    @pytest.mark.parametrize("command", ["validate", "run"])
    @pytest.mark.parametrize("text, message", [
        # 1e9 modes: 8 GB for the log-norms alone
        ("[scenario]\nname = toeplitz-asymptotics\n[truncation]\nk = 1000000000\n",
         "k must be at most MAX_BASIS_K = 262144"),
        # 4 * 64 * 100000 = 25600000: 52 GB for the fibers alone
        ("[scenario]\nname = dirac-check\n[truncation]\nladder_l = 64\ngrid_n = 100000\n",
         "4*ladder_l*grid_n = 25600000 must be at most MAX_DENSE_DIM = 4096"),
    ], ids=["k", "dense-box"])
    def test_an_oversized_user_size_is_refused_at_validation(self, tmp_path, capsys,
                                                             monkeypatch, command, text, message):
        self._allocate_nothing(monkeypatch)
        out = ["--out", str(tmp_path / "r.csv")] if command == "run" else []
        self._refused(capsys, [command, "--config", self._write(tmp_path, text), *out], message)

    def test_an_oversized_derived_basis_stops_the_run(self, tmp_path, capsys, monkeypatch):
        # nu = 4, b0 = 1: the power law's count at s = 1e-14 sizes
        # K = 1,723,547,761, which validation cannot see
        self._allocate_nothing(monkeypatch)
        cfg = self._write(tmp_path, "[scenario]\nname = toeplitz-asymptotics\n[field]\nb0 = 1\n"
                                    "[potential]\nlaw = power\nnu = 4\n[sweep]\ns_values = 1e-14\n")
        assert main(["validate", "--config", cfg]) == 0
        capsys.readouterr()
        self._refused(capsys, ["run", "--config", cfg, "--out", str(tmp_path / "r.csv")],
                      "basis K=1723547761 exceeds MAX_BASIS_K = 262144")

    @pytest.mark.parametrize("amp", ["3e4", "1e5", "1e12"])
    def test_a_failed_radial_quadrature_stops_the_run(self, tmp_path, capsys, amp):
        # validation accepts any finite amplitude, but from 3e4 on the tanh
        # perturbation keeps the basis-norm integrand from dropping; the
        # line names the key to change and its value
        cfg = self._write(tmp_path, "[scenario]\nname = toeplitz-asymptotics\n"
                                    f"[field]\nb0 = 2\nphi_tilde = tanh\nphi_amp = {amp}\n"
                                    "[potential]\nlaw = power\nnu = 4\n"
                                    "[sweep]\ns_values = 1e-4,3e-4,1e-3\n")
        assert main(["validate", "--config", cfg]) == 0
        capsys.readouterr()
        out = tmp_path / "r.csv"
        err = self._refused(capsys, ["run", "--config", cfg, "--out", str(out)],
                            "run stopped: bracket_drop: left bracket still above the target")
        assert not out.exists()
        assert f"phi_tilde = tanh with phi_amp = {float(amp)!r}" in err

    @pytest.mark.parametrize("error", [GridResolutionError, NonIntegrableError,
                                       JumpLocalizationError])
    def test_a_typed_error_from_any_runner_stops_the_run(self, tmp_path, capsys, monkeypatch,
                                                         error):
        # the three typed errors that no shipped run reaches are caught by
        # their common base, as the other three are
        def runner(cfg):
            raise error(f"{error.__name__} from the runner")

        monkeypatch.setattr(cli, "run_scenario", runner)
        out = tmp_path / "r.csv"
        self._refused(capsys, ["run", "--config", self._write(tmp_path, MINIMAL),
                               "--out", str(out)], f"run stopped: {error.__name__} from the runner")
        assert not out.exists()


@st.composite
def flat_power_run_texts(draw):
    """Accepted toeplitz-asymptotics and levinson configs with law = power on
    the flat field, the path whose compressions are the blocked recurrence.
    A derived K can reach MAX_BASIS_K, or pass it and be refused before
    anything is built; a user k stays at or below 4000."""
    scenario = draw(st.sampled_from(["toeplitz-asymptotics", "levinson"]))
    k = draw(st.one_of(st.just(0), st.integers(1, 4000)))
    if scenario == "levinson":
        sweep = "eps_values", draw(st.lists(st.floats(-4.0, math.log10(0.5)), min_size=1,
                                            max_size=3))
    else:
        sweep = "s_values", draw(st.lists(st.floats(-6.0, 1.0), min_size=1, max_size=3))
    return (f"[scenario]\nname = {scenario}\n"
            f"[field]\nb0 = {draw(st.floats(0.05, 20.0))!r}\n"
            f"[potential]\nlaw = power\nnu = {draw(st.floats(3.0, 60.0, exclude_min=True))!r}\n"
            f"amplitude = {10.0 ** draw(st.floats(-3.0, 3.0))!r}\n"
            f"[truncation]\nk = {k}\n"
            f"[sweep]\n{sweep[0]} = {','.join(repr(10.0 ** x) for x in sweep[1])}\n")


@settings(deadline=None, max_examples=60)
@given(flat_power_run_texts())
def test_an_accepted_flat_power_run_ends_without_a_traceback(text):
    parse_config(text)
    _run_without_a_traceback(text)


@st.composite
def kernels_run_texts(draw):
    """Accepted kernels configs: a mass near 1 or anywhere from 1e-200 (where
    the squares in the momentum underflow) to 1e300 (where they overflow),
    and none (the defaults) to four energies of either sign, each near the
    edge |lambda| = 1, anywhere in the window, or with a momentum near the
    grid's Nyquist frequency."""
    mass = 10.0 ** draw(st.one_of(st.floats(-3.0, 3.0), st.floats(-200.0, 9.0),
                                  st.floats(150.0, 300.0)))
    fraction = st.one_of(st.floats(1e-9, 0.99), st.floats(0.99, 1.0, exclude_max=True))
    energy = st.one_of(
        st.floats(-15.0, -1.0).map(lambda e: 1.0 + 10.0 ** e),
        fraction.map(lambda q: math.hypot(1.0, q * harness._KERNEL_NYQUIST / mass)))
    lams = draw(st.lists(st.tuples(energy, st.sampled_from([1.0, -1.0])), max_size=4))
    text = f"[scenario]\nname = kernels\n[potential]\nmass = {mass!r}\n"
    if lams:
        text += f"[sweep]\nlambdas = {','.join(repr(sign * lam) for lam, sign in lams)}\n"
    try:
        parse_config(text)
    except ConfigError:
        assume(False)
    return text


def _run_without_a_traceback(text):
    """Run ``text`` through cli.main: rows (exit 0 or 2) or one "run
    stopped" line (exit 1), never an exception that escapes it."""
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        cfg = os.path.join(tmp, "run.cfg")
        Path(cfg).write_text(text)
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(["run", "--config", cfg, "--out", os.path.join(tmp, "rows.csv")])
    assert code in (0, 1, 2), code
    assert "Traceback" not in err.getvalue()
    if code == 1:
        assert err.getvalue().startswith("run stopped: ") and err.getvalue().count("\n") == 1


@settings(deadline=None, max_examples=30)
@given(kernels_run_texts())
def test_an_accepted_kernels_run_ends_without_a_traceback(text):
    _run_without_a_traceback(text)


def test_typed_errors_share_one_base_and_keep_their_builtin_bases():
    runtime = [TruncationError, TruncatedTailError, QuadratureError, GridResolutionError,
               JumpLocalizationError]
    assert all(issubclass(err, DiracSsfError) and issubclass(err, RuntimeError) for err in runtime)
    assert issubclass(NonIntegrableError, DiracSsfError) and issubclass(NonIntegrableError, ValueError)
    assert not issubclass(ConfigError, DiracSsfError)  # its violations print one line each


def test_dirac_check_on_a_tiny_box_passes_its_rows(tmp_path, capsys):
    # at grid_x = 1e-5, ||H0|| is about 5e6 and the eigensolver errs by
    # tens of eps ||H0||, which the derived bounds allow: no row fails on
    # round-off and no AssertionError stops the run
    path = tmp_path / "cfg.ini"
    path.write_text("[scenario]\nname = dirac-check\n[truncation]\ngrid_x = 1e-5\n")
    out = tmp_path / "rows.csv"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 0
    assert "Traceback" not in capsys.readouterr().err
    assert "min_abs_eigenvalue" in out.read_text()


def test_dirac_check_square_row_fails_a_shifted_fiber_on_a_tiny_box(monkeypatch):
    # at grid_x = 1e-5 a norm bound (4 L + 4) eps ||H0||^2 = 0.2 would pass a
    # 1e-6 shift of the p = 0 fiber; the entrywise bound refuses it, while
    # the eigenvalues move by less than their own round-off bound
    cfg = parse_config("[scenario]\nname = dirac-check\n[truncation]\ngrid_x = 1e-5\n")
    build = harness.build_h0

    def perturbed(*args):
        h0 = build(*args)
        fibers = h0.fibers.copy()
        fibers[h0.N // 2] += 1e-6 * np.eye(fibers.shape[1])
        return replace(h0, fibers=fibers)

    monkeypatch.setattr(harness, "build_h0", perturbed)
    rows = {row.metric: row for row in run_scenario(cfg)}
    assert rows["square_identity_interior"].passed is False
    assert rows["min_abs_eigenvalue"].passed is True


def _shipped_h0():
    cfg = parse_config((CONFIGS_DIR / "dirac_check.cfg").read_text())
    return cfg, build_h0(cfg.b0, cfg.mass, cfg.ladder_l, cfg.grid_n, cfg.grid_x)


def test_dirac_check_bounds_are_tighter_than_the_old_constants_at_the_shipped_config():
    cfg, h0 = _shipped_h0()
    square_tol, eig_tol = roundoff_bounds(h0)
    assert np.max(square_tol) < 1e-10
    assert eig_tol < 1e-9 * cfg.mass


@pytest.mark.parametrize("metric", ["square_identity_interior", "min_abs_eigenvalue",
                                    "fiber_formula_deviation"])
def test_dirac_check_row_fails_when_its_identity_is_broken_past_its_bound(monkeypatch,
                                                                          metric):
    # shifting the p = 0 fiber by delta I moves its eigenvalues +-m by delta
    # and its interior squared entries by 2 delta F + delta^2, at least 2 m delta;
    # delta is twice what the row's bound allows
    cfg, h0 = _shipped_h0()
    square_tol, eig_tol = roundoff_bounds(h0)
    delta = (np.max(square_tol) / cfg.mass if metric == "square_identity_interior"
             else 2.0 * eig_tol)
    build = harness.build_h0

    def perturbed(*args):
        h0 = build(*args)
        fibers = h0.fibers.copy()
        fibers[h0.N // 2] += delta * np.eye(fibers.shape[1])
        return replace(h0, fibers=fibers)

    monkeypatch.setattr(harness, "build_h0", perturbed)
    rows = {row.metric: row for row in run_scenario(cfg)}
    assert rows[metric].passed is False


def test_kernels_just_below_the_nyquist_momentum_runs():
    # momentum sqrt(128^2 - 1) = 127.996 < pi/h = 128.67: the grid still
    # represents the waves, so the run is allowed, and its norms fail honestly
    cfg = parse_config("[scenario]\nname = kernels\n[sweep]\nlambdas = 128\n")
    failed = {r.metric for r in run_scenario(cfg) if r.passed is False}
    assert failed == {"relative_difference"}


def test_kernels_grid_norm_that_underflows_fails_its_row():
    # at mass 1e-82 the grid's p = 4 norm, sum(sv^4)^(1/4), underflows to 0:
    # that row has no relative difference and fails, where it raised
    # ZeroDivisionError
    cfg = parse_config("[scenario]\nname = kernels\n[potential]\nmass = 1e-82\n"
                       "[sweep]\nlambdas = 1.1\n")
    failed = [r for r in run_scenario(cfg) if r.passed is False]
    assert [(r.metric, r.params.split(";")[1]) for r in failed] == [("relative_difference", "p=4")]
    assert math.isnan(failed[0].value)


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
    # lambda = 2 at mass 2 is the energy 4 > m, not a gap edge; kernels
    # reads neither the field nor the potential's amplitude
    edge = "[field]\nb0 = 2.0\n[potential]\namplitude = 8.0\n"
    cfg = parse_config(f"[scenario]\nname = {scenario}\n"
                       + (edge if scenario == "ssf-outside" else "[potential]\n")
                       + "mass = 2.0\n[sweep]\nlambdas = 2.0\n")
    rows = run_scenario(cfg)
    assert rows and all(r.params.startswith("lambda=4") for r in rows)


@pytest.mark.parametrize("potential, sweep, prediction", [
    ("m11 = 0.0\n", "", 0.0),     # a zero edge symbol predicts 0
    ("", "lambdas = 0.5\n", math.nan),  # t(0.5) > 1/e: outside the law's window
])
def test_ssf_inside_rows_without_a_finite_ratio(tmp_path, potential, sweep, prediction):
    path = tmp_path / "cfg.ini"
    path.write_text("[scenario]\nname = ssf-inside\n[field]\nb0 = 2.0\n"
                    f"[potential]\n{potential}[sweep]\n{sweep}")
    out = tmp_path / "rows.csv"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 0
    rows = list(csv.DictReader(io.StringIO(out.read_text())))
    assert rows
    for row in rows:
        want = {"bracket_lower": 0.0, "bracket_upper": 0.0, "prediction": prediction,
                "ratio_mid_to_prediction": math.nan}[row["metric"]]
        assert float(row["value"]) == want or math.isnan(want) and row["value"] == "nan"
        assert row["status"] == ""


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


@pytest.mark.parametrize("name", ["ssf_inside", "ssf_outside", "levinson_exponential"])
def test_gap_edge_configs_keep_their_basis_size(built_sizes, name):
    # both sides of the gap size the basis at (1 - eps) t(lambda)
    run_scenario(parse_config((CONFIGS_DIR / f"{name}.cfg").read_text()))
    assert built_sizes == [35]


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


def test_dirac_check_csv_is_the_reference_bytes_at_one_thread(tmp_path):
    # compare_csv forgives round-off, so it cannot see fiber_formula_deviation
    # or min_abs_eigenvalue move; the reference holds their one-thread digits
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    src = str(CONFIGS_DIR.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = tmp_path / "dirac_check.csv"
    subprocess.run([sys.executable, "-m", "diracssf.cli", "run",
                    "--config", str(CONFIGS_DIR / "dirac_check.cfg"), "--out", str(out)],
                   env=env, check=True, capture_output=True, timeout=120)
    assert out.read_bytes() == (REFERENCES / "dirac_check.csv").read_bytes()


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


def _floats_apart(a: float, b: float) -> float:
    """Number of representable doubles between two same-signed values."""
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0
    if not (math.isfinite(a) and math.isfinite(b)) or math.copysign(1.0, a) != math.copysign(1.0, b):
        return math.inf
    bits = np.array([abs(a), abs(b)]).view(np.int64)
    return abs(int(bits[0]) - int(bits[1]))


# ssf_outside and levinson_exponential sum arctan(e^x_k), x_k = log(f mu_k / s),
# over the edge spectra, whose log-eigenvalues the scaled run reproduces
# only up to rounding: delta_k <= 3 ulp of log mu_k where |log mu_k| >= 1/2,
# 7.8e-16 at the one near 0.  To first order a trace moves by
# sum_k delta_k d arctan(e^x)/dx, which both runs' spectra put at 1.33e-16
# relative at most, 1.2 ulp of any value.  After its traces a value rounds
# at most three more times (the division by pi, the sum of the bracket
# ends, a ratio's division), half an ulp in each run: 4 ulp in all.
# Measured: 2 ulp, in 3 ssf_outside and 4 levinson_exponential values; the
# other 13 and 20 values are equal.
_SCALING_ULPS = 4

# A Levinson row depends on (lambda, m) only through lambda/m.  Scaling m by
# a power of two scales lambda_in = m (1 - eps), lambda_out = m / (1 - eps)
# and lambda -+ m exactly (Sterbenz), so every inside threshold and count,
# the basis floor and each target keep their bits.  Only Omega1's factor
# log f+ = log(1/2) + (log(lambda + m) - log(lambda - m))/2 is rounded anew:
# its logs hold the same difference, so it moves by at most one ulp of each
# log and of the sum, below 3.1e-15 for eps >= 1e-4 and m in [0.5, 2]
# (|log(lambda - m)| < 10).  Since d arctan(e^x)/dx <= arctan(e^x), each
# arctan trace, and the outside midpoint with it, moves by at most that
# much relative, 28 ulp; the division by pi, the bracket sum and the ratio
# round once more in each run: 32 ulp in all.  Measured: levinson_exponential
# within 1 ulp (2 values) and levinson_power within 4 ulp (4 values).
_MASS_ULPS = 32


def _scaled_case(name, scaled, ulps=0, case_id=None):
    """A scaling case; ``ulps`` = 0 asks for the same bytes."""
    return pytest.param(name, scaled, ulps, id=case_id or f"{name}-<lambda>")


@pytest.mark.parametrize("name, scaled, ulps", [
    _scaled_case("toeplitz_exponential",
                 lambda cfg: replace(cfg, b0=4.0 * cfg.b0, eta=4.0 * cfg.eta)),
    _scaled_case("ssf_inside", lambda cfg: replace(cfg, b0=4.0 * cfg.b0, eta=4.0 * cfg.eta)),
    _scaled_case("toeplitz_compact",
                 lambda cfg: replace(cfg, b0=4.0 * cfg.b0, radius=0.5 * cfg.radius)),
    _scaled_case("ssf_outside", lambda cfg: replace(cfg, b0=4.0 * cfg.b0, eta=4.0 * cfg.eta),
                 _SCALING_ULPS),
    _scaled_case("levinson_exponential",
                 lambda cfg: replace(cfg, b0=4.0 * cfg.b0, eta=4.0 * cfg.eta), _SCALING_ULPS),
    *[_scaled_case(name, lambda cfg, f=f: replace(cfg, mass=f * cfg.mass), _MASS_ULPS,
                   f"{name}-mass_x{f}")
      for name in ("levinson_exponential", "levinson_power") for f in (0.5, 2.0)],
])
def test_magnetic_scaling_leaves_the_run_unchanged(tmp_path, name, scaled, ulps):
    # r = 2 rho maps the problem (U, b0) onto (U(2 .), 4 b0) with the same
    # eigenvalues: the Gaussian's eta and the disc's 1/R^2 scale with b0,
    # and so does every law and truncation the run reads.  The mass cases
    # rescale the energy instead: Levinson rows are keyed by eps = 1 - lambda/m
    cfg = parse_config((CONFIGS_DIR / f"{name}.cfg").read_text())
    got, want = _run_cli(tmp_path, "scaled", scaled(cfg)), _run_cli(tmp_path, "shipped", cfg)
    if not ulps:
        assert got == want
        return
    assert got[0] == want[0]
    got_rows = list(csv.reader(io.StringIO(got[1].decode())))
    want_rows = list(csv.reader(io.StringIO(want[1].decode())))
    assert [(r[0], r[1], r[2], r[5]) for r in got_rows] == \
        [(r[0], r[1], r[2], r[5]) for r in want_rows]
    apart = [_floats_apart(float(g[col]), float(w[col]))
             for g, w in zip(got_rows[1:], want_rows[1:]) for col in (3, 4)]
    assert max(apart) <= ulps


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
    # the outside trace at s = 1 - eps reads W+ at s t(lambda, +1), the
    # float the inside bracket counts at: the floor must be that level
    cfg = ScenarioConfig("ssf-outside", mass=mass, eps_bracket=eps)
    level = (1.0 - eps) * edge_threshold(lam * mass, 1.0, mass)
    assert harness._edge_floor(cfg, [lam * mass]) == level
