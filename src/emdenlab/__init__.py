"""emdenlab: a numerical laboratory for Emden-Fowler equations.

Exact vector-field algebra for the scheme spanned by drag and scaling fields,
time-dependent gauge transformations, time-dependent first integrals with
drift verification, canonical reductions, and the closed-form superposition
family of the n = 5 equation.
"""

__version__ = "0.1.0"


class VerificationFailure(Exception):
    """Base of the errors that mean a check ran and failed (CLI exit code 1)."""


class UnusableInput(Exception):
    """Base of the errors that mean the input cannot be used (CLI exit code 2)."""
