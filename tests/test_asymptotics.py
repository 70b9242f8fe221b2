import math
import os
import subprocess
import sys

import numpy as np
import pytest

from diracssf.asymptotics import compare_law, law_for_profile
from diracssf.landau import build_lll_basis
from diracssf.toeplitz import (
    CompactSupportTail,
    ExponentialTail,
    PowerLawTail,
    TruncationError,
    disc_profile,
    gaussian_profile,
    phi_inf,
    power_profile,
    suggest_truncation,
    toeplitz_radial_spectrum,
)


class TestPowerLaw:
    def test_reference_point(self):
        law = PowerLawTail(alpha=3.0)
        assert law.count(1e-3, 1.0) == pytest.approx(50.0, rel=1e-12)

    def test_no_scaling_at_one(self):
        law = PowerLawTail(alpha=3.0)
        assert law.count(1.0, 1.0) == pytest.approx(0.5, rel=1e-12)

    def test_linear_in_field(self):
        law = PowerLawTail(3.0)
        assert law.count(0.01, 2.0) == pytest.approx(2.0 * law.count(0.01, 1.0))

    @pytest.mark.parametrize("alpha, amp, b0", [(3.0, 1.0, 1.0), (4.0, 8.0, 2.0)])
    def test_count_matches_disc_level_set(self, alpha, amp, b0):
        # {A (1 + r^2)^(-alpha/2) > s} is the disc r^2 < (A/s)^(2/alpha) - 1,
        # so (b0/2 pi) |{U > s}| = (b0/2) ((A/s)^(2/alpha) - 1)
        law = law_for_profile(power_profile(alpha, amp), b0)
        for s in (1e-4, 1e-5):
            levelset = 0.5 * b0 * ((amp / s) ** (2.0 / alpha) - 1.0)
            assert abs(levelset / law(s) - 1.0) < 0.02


class TestExponential:
    def test_beta_one_branch(self):
        law = ExponentialTail(eta=1.0, beta=1.0)
        assert law.count(math.exp(-10.0), 2.0) == pytest.approx(10.0 / math.log(2.0),
                                                               rel=1e-12)

    def test_small_beta_branch(self):
        law = ExponentialTail(eta=1.0, beta=0.5)
        assert law.count(math.exp(-4.0), 2.0) == pytest.approx(16.0, rel=1e-12)

    def test_large_beta_branch(self):
        law = ExponentialTail(eta=1.0, beta=2.0)
        assert law.count(math.exp(-100.0), 2.0) == pytest.approx(
            2.0 * 100.0 / math.log(100.0), rel=1e-12)

    def test_domain_guard(self):
        law = ExponentialTail(eta=1.0, beta=1.0)
        with pytest.raises(ValueError):
            law.count(math.exp(-1.0), 2.0)
        with pytest.raises(ValueError):
            law.count(0.5, 2.0)


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
        laws = [(PowerLawTail(3.0), 1.0),
                (ExponentialTail(1.0, 1.0), 2.0),
                (CompactSupportTail(1.0), 2.0)]
        ss = np.exp(-np.geomspace(3.0, 60.0, 12))
        for law, b0 in laws:
            vals = [law.count(float(s), b0) for s in ss]
            assert all(b > a for a, b in zip(vals, vals[1:]))


_BRANCHES = [PowerLawTail(3.0, 1.0), PowerLawTail(3.5, 8.0),
             ExponentialTail(0.05, 0.5), ExponentialTail(1.0, 1.0),
             ExponentialTail(0.7, 2.0), CompactSupportTail(1.0)]


@pytest.mark.parametrize("law", _BRANCHES, ids=repr)
@pytest.mark.parametrize("b0", [1.0, 2.0])
def test_count_branches_keep_their_grouping(law, b0):
    # the law_value bytes of the shipped CSVs depend on the exact grouping,
    # so every branch must equal its closed form to the last bit
    for s in (0.3, 1e-4, 3.3e-7, 1e-40):
        al = abs(math.log(s))
        if isinstance(law, PowerLawTail):
            a = law.alpha
            want = s ** (-2.0 / a) * b0 / (4.0 * np.pi) \
                * (2.0 * np.pi * law.u_value ** (2.0 / a))
        elif isinstance(law, CompactSupportTail):
            want = al / math.log(al)
        elif law.beta < 1.0:
            want = 0.5 * b0 * law.eta ** (-1.0 / law.beta) * al ** (1.0 / law.beta)
        elif law.beta == 1.0:
            want = al / math.log1p(2.0 * law.eta / b0)
        else:
            want = law.beta / (law.beta - 1.0) * al / math.log(al)
        assert law.count(s, b0) == want


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
    # each profile gets its own tail's count law, bound to the field
    s = 1e-6
    assert law_for_profile(gaussian_profile(1.0), 2.0)(s) == ExponentialTail(1.0).count(s, 2.0)
    assert law_for_profile(power_profile(3.0), 1.0)(s) == PowerLawTail(3.0).count(s, 1.0)
    assert law_for_profile(disc_profile(1.0), 2.0)(s) == CompactSupportTail(1.0).count(s, 2.0)


def test_compact_law_natural_log_point():
    # s = e^-100 gives exactly 100 / log(100)
    assert phi_inf(math.exp(-100.0)) == pytest.approx(100.0 / math.log(100.0),
                                                      rel=1e-12)


# perfbench's tracer reads sys.modules["diracssf." + layer] for each of
# these right after `import diracssf`, so none of them may load lazily
_TRACED_LAYERS = ("landau", "_quad", "toeplitz", "counting", "asymptotics", "ssf",
                  "kernels1d", "discrete_model", "harness")


def test_import_leaves_scipy_optimize_unloaded():
    # no module of the package uses scipy.optimize, and the import loads
    # every traced layer eagerly
    import diracssf

    src = os.path.dirname(os.path.dirname(os.path.abspath(diracssf.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    probe = ("import sys, diracssf; print('scipy.optimize' in sys.modules); "
             f"print([m for m in {_TRACED_LAYERS!r} if 'diracssf.' + m not in sys.modules])")
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.split() == ["False", "[]"]


_SCIPY_PROBE = """
import sys
import diracssf
loaded = [m for m in sys.modules if m.split('.')[0] == 'scipy']
if len(sys.argv) > 1:
    from diracssf import cli
    code = cli.main(['run', '--config', sys.argv[1], '--out', sys.argv[2]])
    assert code == int(sys.argv[3]), code
    loaded += [m for m in sys.modules if m.split('.')[0] == 'scipy']
print(sorted(set(loaded)))
"""

_CONFIGS_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                            "configs")
# toeplitz_compact fails its count_to_law_ratio rows by design (strict xfail 3b)
_EXPECTED_EXIT = {"toeplitz_compact": 2}


@pytest.mark.parametrize("config", [None] + sorted(
    name[:-4] for name in os.listdir(_CONFIGS_DIR) if name.endswith(".cfg")))
def test_cold_path_loads_no_scipy(config, tmp_path):
    # no shipped run may pull scipy in: scipy's gammaln is the tests' oracle
    # for the flat-field norms, and production uses the numpy table
    # landau.log_factorials instead
    import diracssf

    src = os.path.dirname(os.path.dirname(os.path.abspath(diracssf.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    args = []
    if config is not None:
        cfg = os.path.join(_CONFIGS_DIR, f"{config}.cfg")
        args = [cfg, str(tmp_path / f"{config}.csv"), str(_EXPECTED_EXIT.get(config, 0))]
    out = subprocess.run([sys.executable, "-c", _SCIPY_PROBE, *args], env=env,
                         check=True, capture_output=True, text=True).stdout
    assert out.splitlines()[-1] == "[]"
