import math
import os
import subprocess
import sys

import numpy as np
import pytest

from diracssf.asymptotics import (
    CompactSupportCount,
    ExponentialCount,
    PowerLawCount,
    compare_law,
    law_for_profile,
    levelset_count,
    phi_inf,
)
from diracssf.landau import build_lll_basis
from diracssf.toeplitz import (
    TruncationError,
    disc_profile,
    gaussian_profile,
    power_profile,
    suggest_truncation,
    toeplitz_radial_spectrum,
)


class TestPowerLaw:
    def test_reference_point(self):
        law = PowerLawCount(alpha=3.0, angular_integral=2.0 * np.pi, b0=1.0)
        assert law.value(1e-3) == pytest.approx(50.0, rel=1e-12)

    def test_no_scaling_at_one(self):
        law = PowerLawCount(alpha=3.0, angular_integral=2.0 * np.pi, b0=1.0)
        assert law.value(1.0) == pytest.approx(0.5, rel=1e-12)

    def test_linear_in_field(self):
        law1 = PowerLawCount(3.0, 2.0 * np.pi, 1.0)
        law2 = PowerLawCount(3.0, 2.0 * np.pi, 2.0)
        assert law2.value(0.01) == pytest.approx(2.0 * law1.value(0.01))


class TestExponential:
    def test_beta_one_branch(self):
        law = ExponentialCount(beta=1.0, eta=1.0, b0=2.0)
        assert law.value(math.exp(-10.0)) == pytest.approx(10.0 / math.log(2.0),
                                                          rel=1e-12)

    def test_small_beta_branch(self):
        law = ExponentialCount(beta=0.5, eta=1.0, b0=2.0)
        assert law.value(math.exp(-4.0)) == pytest.approx(16.0, rel=1e-12)

    def test_large_beta_branch(self):
        law = ExponentialCount(beta=2.0, eta=1.0, b0=2.0)
        assert law.value(math.exp(-100.0)) == pytest.approx(
            2.0 * 100.0 / math.log(100.0), rel=1e-12)

    def test_domain_guard(self):
        law = ExponentialCount(beta=1.0, eta=1.0, b0=2.0)
        with pytest.raises(ValueError):
            law.value(math.exp(-1.0))
        with pytest.raises(ValueError):
            law.value(0.5)


class TestCompactSupport:
    def test_double_exponential_point(self):
        assert phi_inf(math.exp(-math.exp(2.0))) == pytest.approx(
            math.exp(2.0) / 2.0, rel=1e-12)

    def test_reference_point(self):
        assert phi_inf(1e-100) == pytest.approx(100.0 * math.log(10.0)
                                                / math.log(100.0 * math.log(10.0)),
                                                rel=1e-12)

    def test_increasing_toward_zero(self):
        ss = np.exp(-np.geomspace(3.0, 200.0, 24))
        vals = [phi_inf(float(s)) for s in ss]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_domain_guard(self):
        with pytest.raises(ValueError):
            phi_inf(0.5)


class TestLawsIncrease:
    def test_all_laws_increase_toward_zero(self):
        laws = [PowerLawCount(3.0, 2.0 * np.pi, 1.0),
                ExponentialCount(1.0, 1.0, 2.0),
                CompactSupportCount()]
        ss = np.exp(-np.geomspace(3.0, 60.0, 12))
        for law in laws:
            vals = [law.value(float(s)) for s in ss]
            assert all(b > a for a, b in zip(vals, vals[1:]))


class TestLevelSets:
    def test_inverse_power_law(self):
        val, err = levelset_count(power_profile(3.0), 1e-3, 1.0)
        assert val == pytest.approx(0.5 * (1e-3 ** (-2.0 / 3.0) - 1.0), rel=1e-9)
        assert err < 1e-6

    def test_disc_is_its_own_level_set(self):
        val, _ = levelset_count(disc_profile(1.0), 0.5, 2.0)
        assert val == pytest.approx(1.0, rel=1e-5)

    def test_zero_function(self):
        val, _ = levelset_count(lambda r: np.zeros_like(np.asarray(r, dtype=float)),
                                0.5, 1.0)
        assert val == 0.0

    def test_unbounded_rejected(self):
        with pytest.raises(ValueError):
            levelset_count(lambda r: np.ones_like(np.asarray(r, dtype=float)),
                           0.5, 1.0)

    def test_levelset_approaches_power_law(self):
        law = law_for_profile(power_profile(3.0), 1.0)
        for s in (1e-4, 1e-5):
            val, _ = levelset_count(power_profile(3.0), s, 1.0)
            assert abs(val / law.value(s) - 1.0) < 0.02

    def test_two_dimensional_grid_path(self):
        def sym(r, th):
            return np.where(np.asarray(r) <= 1.0, 1.0, 0.0) * np.ones_like(th)

        val, err = levelset_count(sym, 0.5, 2.0)
        assert val == pytest.approx(1.0, abs=0.02)
        assert err > 0.0


class TestCompareLaw:
    def test_exponential_reference(self, basis_b2_220):
        model = toeplitz_radial_spectrum(gaussian_profile(1.0), basis_b2_220)
        law = law_for_profile(gaussian_profile(1.0), 2.0)
        out = compare_law(model, law, [1e-8, 1e-6])
        for s, n, lawv, ratio, halfwidth in out.rows:
            assert 0.9 <= ratio <= 1.1
            assert halfwidth == pytest.approx(1.0 / lawv)

    def test_truncation_guard(self, field_b2):
        basis = build_lll_basis(field_b2, 10)
        model = toeplitz_radial_spectrum(gaussian_profile(1.0), basis)
        law = law_for_profile(gaussian_profile(1.0), 2.0)
        with pytest.raises(TruncationError):
            compare_law(model, law, [1e-8])

    def test_power_law_bracket(self, field_b1):
        prof = power_profile(3.0)
        k = suggest_truncation(prof.law, 1e-3, 1.0)
        basis = build_lll_basis(field_b1, k)
        model = toeplitz_radial_spectrum(prof, basis)
        law = law_for_profile(prof, 1.0)
        out = compare_law(model, law, [1e-3, 3e-3])
        for _, _, _, ratio, _ in out.rows:
            assert 0.85 <= ratio <= 1.15


def test_law_for_profile_dispatch():
    assert isinstance(law_for_profile(gaussian_profile(1.0), 2.0), ExponentialCount)
    assert isinstance(law_for_profile(power_profile(3.0), 1.0), PowerLawCount)
    assert isinstance(law_for_profile(disc_profile(1.0), 2.0), CompactSupportCount)


def test_compact_law_natural_log_point():
    # s = e^-100 gives exactly 100 / log(100)
    assert phi_inf(math.exp(-100.0)) == pytest.approx(100.0 / math.log(100.0),
                                                      rel=1e-12)


def test_import_leaves_scipy_optimize_unloaded():
    # brentq is imported inside levelset_count, its only user
    import diracssf

    src = os.path.dirname(os.path.dirname(os.path.abspath(diracssf.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    probe = "import sys, diracssf; print('scipy.optimize' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"
