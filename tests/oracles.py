"""Test oracles: reference computations that the tests compare the package
against and that no engine, flow or CLI command runs.

- ``fgw_1d_bruteforce``: the minimum of the fused 1D objective over all n!
  permutation couplings, for n <= 8.
- ``vmf_mean_resultant_oracle`` (with ``QuadratureError``): E[location^T theta]
  under vMF by 1D quadrature. It is the only code here that needs scipy.
- ``exact_costs`` and ``exact_grads``: the fused cost of both monotone
  couplings, and their frozen-coupling gradients at r = 2, in exact rational
  arithmetic (``fractions.Fraction``). Every float64 input is a rational, so
  these are the exact values at the kernel's inputs, with no rounding at all.

None of them shares code with ``ssfgw._kernels``: each writes its couplings
and sums out from the definition of the cost.
"""

from __future__ import annotations

import itertools
import math
import warnings
from fractions import Fraction

import numpy as np

_BRUTEFORCE_LIMIT = 8


class QuadratureError(RuntimeError):
    """The oracle quadrature did not converge."""


def fgw_1d_bruteforce(xs, ys, cfg) -> float:
    """Exact minimum of the fused objective over all n! permutation couplings.

    Validation oracle for ``fgw_1d``; deliberately shares no kernel code with
    it. Limited to n <= 8.
    """
    if len(xs) != len(ys):
        raise ValueError("projected clouds must have equal sizes")
    n = len(xs)
    if n > _BRUTEFORCE_LIMIT:
        raise ValueError(f"bruteforce oracle is limited to n <= {_BRUTEFORCE_LIMIT}")
    x = xs.values
    y = ys.values
    beta = cfg.beta
    r = cfg.exponent
    dx = np.abs(x[:, None] - x[None, :]) ** r
    best = np.inf
    for perm in itertools.permutations(range(n)):
        yp = y[list(perm)]
        w = float(np.mean(np.abs(x - yp) ** r))
        dy = np.abs(yp[:, None] - yp[None, :]) ** r
        gw = float(np.mean((dx - dy) ** 2))
        cost = (1.0 - beta) * w + beta * gw
        if cost < best:
            best = cost
    return best


def vmf_mean_resultant_oracle(kappa: float, d: int) -> float:
    """E[location^T theta] under vMF(kappa) on S^{d-1} by 1D quadrature.

    The omega-density is proportional to e^{kappa omega} (1-omega^2)^{(d-3)/2}
    on [-1, 1]. Substituting omega = cos(phi) removes the endpoint
    singularities: both integrands become smooth on [0, pi], weighted by
    exp(kappa (cos phi - 1)) sin^{d-2}(phi) (the shift by -kappa cancels in
    the ratio and avoids overflow). Interior break points keep the adaptive
    rule from overlooking the concentration spike at large kappa. No Bessel
    functions involved.

    It needs scipy, which the ``dev`` extra installs, and imports it only
    when called.
    """
    from scipy.integrate import IntegrationWarning, quad

    kappa = float(kappa)
    d = int(d)
    if kappa < 0.0 or not math.isfinite(kappa):
        raise ValueError("kappa must be finite and >= 0")
    if d < 2:
        raise ValueError("d must be >= 2")

    power = d - 2

    def weight(phi):
        return math.exp(kappa * (math.cos(phi) - 1.0)) * math.sin(phi) ** power

    def weighted_cos(phi):
        return math.cos(phi) * weight(phi)

    # Beyond ~50/sqrt(kappa) the weight is exp(-1250) of its peak; truncating
    # there keeps the adaptive rule's subdivisions on the spike. The
    # denominator integrand is positive, so a pure relative tolerance works;
    # the numerator integrand changes sign (and is exactly 0 at kappa=0), so
    # it gets an absolute floor scaled by the denominator.
    scale = math.sqrt(max(kappa, 1.0))
    upper = min(math.pi, 50.0 / scale)
    points = [p for p in (5.0 / scale, 25.0 / scale) if p < upper] or None
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        den, den_err = quad(
            weight, 0.0, upper, points=points, limit=200, epsabs=0.0, epsrel=1e-10
        )
        if den <= 0.0:
            raise QuadratureError(
                f"mean-resultant quadrature collapsed (kappa={kappa}, d={d})"
            )
        num, num_err = quad(
            weighted_cos,
            0.0,
            upper,
            points=points,
            limit=200,
            epsabs=1e-12 * den,
            epsrel=1e-10,
        )
    if den_err > 1e-8 * den or num_err > 1e-8 * den:
        raise QuadratureError(
            f"mean-resultant quadrature did not converge (kappa={kappa}, d={d})"
        )
    return num / den


def _integer_rows(a, b):
    """The rows as integers at one power-of-two scale: ``(x, y, scale)`` with
    a_i = x_i / scale and b_i = y_i / scale exactly (every float64 is a
    dyadic rational). Sums of integers keep the oracle exact and fast."""
    if len(a) != len(b):
        raise ValueError("rows must have equal lengths")
    values = [Fraction(float(v)) for v in (*a, *b)]
    scale = max(v.denominator for v in values)
    ints = [int(v * scale) for v in values]
    return ints[: len(a)], ints[len(a):], scale


def exact_costs(a, b, beta, r):
    """The fused cost of the sorted rows ``a`` and ``b`` under the ascending
    and under the reversed monotone coupling, as two Fractions:

        (1-beta) (1/n) sum_i |a_i - c_i|^r
        + beta (1/n^2) sum_ij (|a_i - a_j|^r - |c_i - c_j|^r)^2

    with c = b (ascending) or b reversed. ``beta`` is taken as the exact
    value of its float and r is any integer >= 1.
    """
    x, y, scale = _integer_rows(a, b)
    n = len(x)
    beta = Fraction(float(beta))
    dx = [[abs(xi - xj) ** r for xj in x] for xi in x]
    costs = []
    for c in (y, y[::-1]):
        w = sum(abs(xi - ci) ** r for xi, ci in zip(x, c))
        gw = sum(
            (dx[i][j] - abs(c[i] - c[j]) ** r) ** 2 for i in range(n) for j in range(n)
        )
        costs.append(
            (1 - beta) * Fraction(w, n * scale**r) + beta * Fraction(gw, n * n * scale ** (2 * r))
        )
    return tuple(costs)


def exact_grads(a, b, beta):
    """Frozen-coupling gradients of the r = 2 cost, for the ascending and the
    reversed coupling: ``((ga, gb), (ga, gb))``, each a list of Fractions in
    the sorted order of ``a`` and of ``b``. With D_ij = (a_i - a_j)^2 -
    (c_i - c_j)^2 and c_i the partner of a_i,

        d/da_i = (1-beta) (2/n) (a_i - c_i) + beta (8/n^2) sum_j D_ij (a_i - a_j)
        d/dc_i = -(1-beta) (2/n) (a_i - c_i) - beta (8/n^2) sum_j D_ij (c_i - c_j).
    """
    x, y, scale = _integer_rows(a, b)
    n = len(x)
    beta = Fraction(float(beta))
    cw = (1 - beta) * Fraction(2, n * scale)
    cg = beta * Fraction(8, n * n * scale**3)
    grads = []
    for reverse, c in enumerate((y, y[::-1])):
        ga, gc = [], []
        for i in range(n):
            dd = [(x[i] - x[j]) ** 2 - (c[i] - c[j]) ** 2 for j in range(n)]
            w_term = cw * (x[i] - c[i])
            ga.append(w_term + cg * sum(d * (x[i] - x[j]) for j, d in enumerate(dd)))
            gc.append(-w_term - cg * sum(d * (c[i] - c[j]) for j, d in enumerate(dd)))
        grads.append((ga, gc[::-1] if reverse else gc))
    return tuple(grads)
