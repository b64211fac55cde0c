"""Saddle-point search on point-cloud manifolds via learned local charts."""

__version__ = "0.1.0"
