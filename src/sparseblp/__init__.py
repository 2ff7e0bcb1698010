"""Sparse demand estimation for random-coefficients logit models."""

__version__ = "0.1.0"

from .model_core import Dataset, ModelConfig, Theta  # noqa: F401
from .quadrature import QuadratureRule, gauss_hermite_rule, monte_carlo_rule  # noqa: F401
