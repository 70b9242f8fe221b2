"""The one base class of the library's typed errors.

Each error that stops a computation derives from ``DiracSsfError`` and
keeps the builtin base it has always had (``RuntimeError``;
``ValueError`` for ``NonIntegrableError``, ``AssertionError`` for
``IdentityViolationError``), so ``diracssf.cli.main``
catches them all by one name while existing ``except`` clauses still hold.
"""


class DiracSsfError(Exception):
    """A computation the library refuses to finish: a basis too small, a
    quadrature or grid refinement that does not settle, a symbol that does
    not integrate, pencil roots that do not explain the counts, or an
    identity whose two sides disagree."""
