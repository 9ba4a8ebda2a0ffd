"""Definability toolkit for strategic classification.

Formulas over the reals with exponentiation, the strategic transform on
definable classifier families, exact linear solvers, lower-bound
constructions with machine-checked certificates, capacity estimation and
ERM experiments.  Every error class derives from UsageError (bad input; the
CLI exits 2) or VerificationFailure (a check failed or could not be decided;
the CLI exits 1).
"""

__version__ = "0.1.0"


class UsageError(Exception):
    """Bad input: an option, an input file, a formula or a spec."""


class VerificationFailure(Exception):
    """A check on valid input failed or could not be decided."""
