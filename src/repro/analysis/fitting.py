"""Least-squares power-law fitting for scaling experiments.

The paper's bounds are of the form ``colors = O(Delta^e)``; the experiment
suite checks the *shape* by fitting ``y ~ c * x^e`` on a sweep and
comparing the fitted exponent to the claimed one (the T4 bench in
``benchmarks/`` asserts it).
"""

import math

from repro.common.exceptions import ParameterError


def fit_power_law(xs, ys) -> tuple[float, float]:
    """Fit ``y = c * x^e`` by least squares in log-log space.

    Returns ``(exponent, coefficient)``.  Requires at least two distinct
    positive x values and positive y values.
    """
    pts = [(x, y) for x, y in zip(xs, ys) if x > 0 and y > 0]
    if len(pts) < 2 or len({x for x, _ in pts}) < 2:
        raise ParameterError("need at least two distinct positive points")
    lx = [math.log(x) for x, _ in pts]
    ly = [math.log(y) for _, y in pts]
    n = len(pts)
    mean_x = sum(lx) / n
    mean_y = sum(ly) / n
    sxx = sum((a - mean_x) ** 2 for a in lx)
    sxy = sum((a - mean_x) * (b - mean_y) for a, b in zip(lx, ly))
    exponent = sxy / sxx
    coefficient = math.exp(mean_y - exponent * mean_x)
    return exponent, coefficient
