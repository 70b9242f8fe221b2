import math

import numpy as np
import pytest
from scipy.special import gammaln

from diracssf.landau import (
    FieldSpec,
    build_ladder,
    build_lll_basis,
    compute_zeta,
    log_norms_closed_form,
)


def test_zeta_constant_field():
    assert compute_zeta(FieldSpec(1.0)) == pytest.approx(2.0, abs=0)


def test_zeta_constant_perturbation_has_zero_oscillation():
    fs = FieldSpec(2.0, phi_tilde=lambda r: 0.7 * np.ones_like(r))
    assert fs.osc == pytest.approx(0.0, abs=1e-14)
    assert compute_zeta(fs) == pytest.approx(4.0, abs=1e-12)


def test_zeta_half_oscillation():
    # oscillation 0.5 gives 2 b0 / e
    fs = FieldSpec(1.0, phi_tilde=lambda r: 0.5 * np.clip(r, 0.0, 1.0))
    assert fs.osc == pytest.approx(0.5, abs=1e-9)
    assert compute_zeta(fs) == pytest.approx(2.0 * math.exp(-1.0), rel=1e-8)


def test_field_rejects_nonpositive_b0():
    with pytest.raises(ValueError):
        FieldSpec(0.0)
    with pytest.raises(ValueError):
        FieldSpec(-1.0)


def test_norms_match_gamma_integral(basis_b2_64):
    # weight e^(-r^2) at b0 = 2: squared norm of mode k is k!/2
    want = 0.5 * (np.log(0.5) + gammaln(np.arange(64) + 1.0))
    assert np.max(np.abs(basis_b2_64.log_norms - want)) < 1e-10


def test_norms_closed_form_general_b0():
    fs = FieldSpec(0.7)
    basis = build_lll_basis(fs, 40)
    want = log_norms_closed_form(0.7, np.arange(40))
    assert np.max(np.abs(basis.log_norms - want)) < 1e-10


def test_k0_norm_is_half(basis_b2_64):
    # integral of r e^(-r^2) over the half line is 1/2
    assert np.exp(2.0 * basis_b2_64.log_norms[0]) == pytest.approx(0.5, rel=1e-12)


def test_norms_with_perturbation_finite_and_growing():
    fs = FieldSpec(2.0, phi_tilde=lambda r: 0.3 * np.tanh(r))
    basis = build_lll_basis(fs, 50)
    assert np.all(np.isfinite(basis.log_norms))
    assert np.all(np.diff(basis.log_norms[5:]) > 0.0)


def test_norms_growth_eventually_monotone(basis_b2_220):
    assert np.all(np.diff(basis_b2_220.log_norms[3:]) > 0.0)


def test_basis_requires_positive_size(field_b2):
    with pytest.raises(ValueError):
        build_lll_basis(field_b2, 0)


def test_ladder_level_spectra():
    lad = build_ladder(1.0, 5)
    hm = np.sort(np.linalg.eigvalsh(lad.h_perp_minus))
    hp = np.sort(np.linalg.eigvalsh(lad.h_perp_plus))
    assert np.allclose(hm, [0.0, 2.0, 4.0, 6.0, 8.0], atol=1e-12)
    # raising-then-lowering side: interior values shifted up by one level,
    # plus one spurious zero from the cut top level
    assert np.allclose(hp, [0.0, 2.0, 4.0, 6.0, 8.0], atol=1e-12)
    interior_hp = np.sort(np.diag(lad.h_perp_plus)[lad.interior])
    assert np.allclose(interior_hp, [2.0, 4.0, 6.0, 8.0], atol=1e-12)
    assert interior_hp[0] == pytest.approx(2.0)


def test_ladder_commutator_defect():
    lad = build_ladder(3.0, 2)
    assert lad.commutator_defect[0, 0] == pytest.approx(6.0, rel=1e-14)
    lad5 = build_ladder(1.5, 6)
    interior = lad5.commutator_defect[:-1, :-1]
    assert np.max(np.abs(interior - 3.0 * np.eye(5))) < 1e-12


def test_ladder_spectral_gap():
    # no transverse level inside (0, 2 b0) for a constant field
    for b0 in (0.5, 1.0, 4.0):
        lad = build_ladder(b0, 9)
        eigs = np.linalg.eigvalsh(lad.h_perp_minus)
        inside = eigs[(eigs > 1e-12) & (eigs < 2.0 * b0 - 1e-10)]
        assert inside.size == 0


def test_ladder_requires_two_levels():
    with pytest.raises(ValueError):
        build_ladder(1.0, 1)


def test_basis_records_quadrature_descriptor(basis_b2_64):
    assert basis_b2_64.quad_nodes >= 64
    assert basis_b2_64.quad_r_max > np.sqrt((2.0 * 63 + 1.0) / 2.0)


def test_combined_transverse_gap():
    # neither component puts an eigenvalue inside (0, 2 b0)
    lad = build_ladder(2.0, 7)
    both = np.concatenate([np.linalg.eigvalsh(lad.h_perp_minus),
                           np.linalg.eigvalsh(lad.h_perp_plus)])
    inside = both[(both > 1e-12) & (both < 4.0 - 1e-10)]
    assert inside.size == 0


def test_log_integral_batch_failure_names_the_change_beside_a_zero_row():
    from diracssf._quad import QuadratureError, log_integral_batch

    def log_f(nodes):
        out = np.sin(1e4 * nodes)  # second row never settles
        out[0] = -np.inf           # first row is a zero integrand
        return out

    with pytest.raises(QuadratureError, match="last change"):
        log_integral_batch(log_f, [0.0, 0.0], [1.0, 1.0], n_max=512)
