"""Spectral toolkit for 3-D magnetic Dirac operators.

Builds the lowest-Landau-level reduction of a Dirac operator with a
magnetic field of constant direction, computes eigenvalue counting
functions of the resulting Berezin-Toeplitz compressions, and evaluates
the divergence of the spectral shift function at the edges +-m of the
central spectral gap, inside and outside the gap, including the
Levinson-type ratio between the two sides.

Modules
-------
dirac_algebra   4x4 Dirac matrix algebra and potential structure checks
landau          magnetic field data, gap constant, LLL basis, ladder model
counting        log-domain spectra, counting functions, trace identities
toeplitz        Berezin-Toeplitz spectra of radial symbols, decay classes
                and their counting laws
kernels1d       longitudinal resolvent and scattering-type kernels
asymptotics     law-vs-spectrum ratio tables
ssf             spectral-shift bracket estimators and Levinson ratios
discrete_model  truncated matrix model of the free Dirac operator
errors          the one base class of the library's typed errors
harness         config parsing, scenario runners, CSV emission
"""

from . import (
    asymptotics,
    counting,
    dirac_algebra,
    discrete_model,
    errors,
    harness,
    kernels1d,
    landau,
    ssf,
    toeplitz,
)

__all__ = [
    "asymptotics",
    "counting",
    "dirac_algebra",
    "discrete_model",
    "errors",
    "harness",
    "kernels1d",
    "landau",
    "ssf",
    "toeplitz",
]

__version__ = "0.1.0"
