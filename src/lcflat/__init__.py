"""Numerical engine for Levi-Civita Ricci-flat Hermitian metrics on Hopf surfaces."""

__version__ = "0.1.0"

from .wjet import (  # noqa: F401
    WJet,
    jet_var,
    jet_conj_var,
    jet_const,
    implicit_solve,
)
