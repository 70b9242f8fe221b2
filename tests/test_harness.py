import numpy as np
import pytest

from diracssf.cli import main
from diracssf.harness import (
    ConfigError,
    ResultRow,
    all_rows_pass,
    emit_csv,
    format_value,
    parse_config,
    rows_to_csv_bytes,
    run_scenario,
    serialize_config,
)

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

    def test_float_lists(self):
        cfg = parse_config("[scenario]\nname = kernels\n[sweep]\n"
                           "lambdas = 1.5,2.0\neps_values = 1e-2\n")
        assert cfg.lambdas == (1.5, 2.0)
        assert cfg.eps_values == (0.01,)


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
