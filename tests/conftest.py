import dataclasses
import math

import numpy as np
import pytest

from saddlemap.driver import ProblemDefinition
from saddlemap.geometry import GeometryField


class QuadraticSaddleChart:
    """Exact identity chart of U = u1^2 - u2^2 on the flat plane.

    It has only the three methods the search loop may call on a chart.
    ``psi`` is the matrix of its linear parameterization; a singular one
    makes every ``evaluate`` raise DegenerateChartError.
    """

    def __init__(self, psi=np.eye(2)):
        self._field = GeometryField(LinearChartStub(psi), LinearChartStub(np.diag([-2.0, 2.0])))

    def to_chart(self, x):
        return np.array(x, dtype=float)

    def evaluate(self, u):
        return self._field.evaluate(u)

    def clearance(self, x):
        return math.inf


def quadratic_saddle_force(x):
    """Force -grad U of U = x1^2 - x2^2, at a point or at each row."""
    return np.stack([-2.0 * x[..., 0], 2.0 * x[..., 1]], axis=-1)


def flat_problem(dim: int = 2, force=None) -> ProblemDefinition:
    """Unconstrained plane: identity projection, optional force field; the
    plane (dim 2) carries the quadratic saddle's chart as its exact chart."""
    if force is None:
        force = lambda x: np.zeros(np.shape(x))
    return ProblemDefinition(
        ambient_dim=dim,
        energy=lambda x: 0.0,
        force=force,
        project=lambda x: np.asarray(x, dtype=float),
        exact_chart=QuadraticSaddleChart() if dim == 2 else None,
    )


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_spd(rng, d=2, scale=1.0):
    a = rng.standard_normal((d, d))
    g = a @ a.T + scale * np.eye(d)
    return g


class LinearChartStub:
    """Duck-typed regressor computing a fixed linear map x -> A x + b."""

    def __init__(self, a, b=None):
        self.a = np.asarray(a, dtype=float)
        self.b = np.zeros(self.a.shape[0]) if b is None else np.asarray(b, dtype=float)

    def predict(self, x):
        return self.a @ np.asarray(x, dtype=float) + self.b

    def predict_with_derivatives(self, x, order=2):
        x = np.asarray(x, dtype=float)
        second = np.zeros((self.a.shape[0], x.size, x.size)) if order >= 2 else None
        jac = self.a.copy() if order >= 1 else None
        return self.a @ x + self.b, jac, second
