"""Pseudospectral simulator and verification harness for the k-abc family
of nonlinear wave equations (Camassa-Holm, Degasperis-Procesi, Novikov and
FORQ among its reductions)."""

__version__ = "0.1.0"
