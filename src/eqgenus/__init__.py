"""Exact equivariant elliptic genus computations from circle-action
fixed-point data: theta functions, localization, rigidity and vanishing
verdicts, and Jacobi-form verification."""

__version__ = "0.1.0"
