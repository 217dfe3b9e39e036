"""Numerical engine for Levi-Civita Ricci-flat Hermitian metrics on Hopf surfaces."""

__version__ = "0.1.0"
