"""Finite 4x4 Dirac matrix algebra.

Standard representation throughout: beta = diag(1, 1, -1, -1) and
alpha_i with the Pauli matrix sigma_i on the off-diagonal 2x2 blocks.
Also hosts the charge-conjugation map on hermitian potentials and the
structure validator for matrices commuting with alpha_1 and alpha_2.
"""

from dataclasses import dataclass

import numpy as np

COMMUTANT_TOL = 1e-12
HERMITICITY_TOL = 1e-12

_SIGMA = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


@dataclass(frozen=True)
class DiracMatrices:
    """The four anticommuting hermitian unitaries of the 3+1-D algebra."""

    alpha1: np.ndarray
    alpha2: np.ndarray
    alpha3: np.ndarray
    beta: np.ndarray

    @property
    def alphas(self):
        return (self.alpha1, self.alpha2, self.alpha3)


def _off_block(sigma):
    m = np.zeros((4, 4), dtype=complex)
    m[:2, 2:] = sigma
    m[2:, :2] = sigma
    return m


def dirac_matrices() -> DiracMatrices:
    """Return the standard-representation Dirac matrices."""
    beta = np.diag([1.0, 1.0, -1.0, -1.0]).astype(complex)
    a1, a2, a3 = (_off_block(s) for s in _SIGMA)
    return DiracMatrices(a1, a2, a3, beta)


def anticommutator(a, b):
    return a @ b + b @ a


def anticommutation_residual(dm: DiracMatrices) -> float:
    """Max-abs residual of all defining anticommutation relations."""
    eye = np.eye(4)
    mats = list(dm.alphas) + [dm.beta]
    res = 0.0
    for i, mi in enumerate(mats):
        for j, mj in enumerate(mats):
            want = 2.0 * eye if i == j else np.zeros((4, 4))
            res = max(res, float(np.max(np.abs(anticommutator(mi, mj) - want))))
    return res


def is_hermitian(v) -> bool:
    v = np.asarray(v)
    return v.shape == (4, 4) and float(np.max(np.abs(v - v.conj().T))) <= HERMITICITY_TOL


def charge_conjugation_matrix() -> np.ndarray:
    """The unitary factor i*beta*alpha_2 of the charge conjugation."""
    dm = dirac_matrices()
    return 1j * dm.beta @ dm.alpha2


def charge_conjugate_potential(v: np.ndarray) -> np.ndarray:
    """Conjugate a hermitian matrix potential by the charge conjugation.

    Returns U V-bar U* with U = i*beta*alpha_2; the overall minus sign
    that flips attractive and repulsive couplings is left to the caller.
    On the diagonal this permutes (V11, V22, V33, V44) -> (V44, V33,
    V22, V11).
    """
    v = np.asarray(v, dtype=complex)
    if not is_hermitian(v):
        raise ValueError("charge conjugation is only defined for hermitian 4x4 matrices")
    u = charge_conjugation_matrix()
    return u @ v.conj() @ u.conj().T


def commutant_form(v1: float, v2: float, v3: complex) -> np.ndarray:
    """The general hermitian matrix commuting with alpha_1 and alpha_2.

    Two real parameters sit on the paired diagonal entries (1,1)/(4,4)
    and (2,2)/(3,3); one complex parameter fills the (1,3)/(2,4)
    anti-diagonal pairs.
    """
    v3 = complex(v3)
    return np.array(
        [
            [v1, 0, v3, 0],
            [0, v2, 0, np.conj(v3)],
            [np.conj(v3), 0, v2, 0],
            [0, v3, 0, v1],
        ],
        dtype=complex,
    )


def validate_alpha12_commutant(v: np.ndarray):
    """Check whether ``v`` commutes with alpha_1 and alpha_2.

    Returns ``(ok, residual)`` where ``residual`` is the max-abs entry of
    the two commutators.  The commutator test and the direct pattern
    match against :func:`commutant_form` are both evaluated and must
    agree (at ``COMMUTANT_TOL`` and ten times it); a disagreement means the
    tolerance budget is broken and is raised as an error rather than
    returned.
    """
    v = np.asarray(v, dtype=complex)
    if not is_hermitian(v):
        raise ValueError("commutant check expects a hermitian 4x4 matrix")
    dm = dirac_matrices()
    res = 0.0
    for a in (dm.alpha1, dm.alpha2):
        res = max(res, float(np.max(np.abs(v @ a - a @ v))))
    ok_commutator = res <= COMMUTANT_TOL

    pattern = commutant_form(v[0, 0].real, v[1, 1].real, v[0, 2])
    pattern_res = float(np.max(np.abs(v - pattern)))
    ok_pattern = pattern_res <= 10 * COMMUTANT_TOL

    if ok_commutator != ok_pattern:
        raise AssertionError(
            f"commutator test ({res:.3e}) and pattern match ({pattern_res:.3e}) disagree"
        )
    return ok_commutator, res
