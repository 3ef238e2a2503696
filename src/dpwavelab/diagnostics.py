"""Monitoring functionals: the arctan weight, localized momenta, and a priori bound checks."""

from __future__ import annotations

import numpy as np

from .grid import Field, derivative, helmholtz_inverse
from .evolution import sup_bound

# Sample points of the weight-derivative check, and its largest B: psi'''' takes B^3, which must be a float64.
PSI_CHECK_SAMPLES = 20001
PSI_B_MAX = float(np.finfo(float).max) ** (1.0 / 3.0)


def _sech(t: np.ndarray) -> np.ndarray:
    # overflow-safe: sech(t) = 2 exp(-|t|) / (1 + exp(-2|t|))
    a = np.exp(-np.abs(t))
    return 2.0 * a / (1.0 + a * a)


def weight_psi(x: np.ndarray, B: float, order: int = 0) -> np.ndarray:
    """psi(x) = (2/pi) arctan(exp(x/B)) and its derivatives up to order 4, at the points of the array x.

    Evaluated branchlessly through sech/tanh so that |x|/B in the hundreds
    neither overflows nor loses the saturated limits 0 and 1.
    """
    if not B > 2.0:
        raise ValueError(f"weight scale B must exceed 2, got {B}")
    if order not in (0, 1, 2, 3, 4):
        raise ValueError(f"unsupported derivative order {order}")
    t = x / B
    if order == 0:
        # arctan(e^t) = pi/2 - arctan(e^-t) keeps the large-t branch exact
        out = np.where(t >= 0, 1.0 - (2.0 / np.pi) * np.arctan(np.exp(-np.abs(t))),
                       (2.0 / np.pi) * np.arctan(np.exp(-np.abs(t))))
    else:
        s = _sech(t)
        th = np.tanh(t)
        base = s / (np.pi * B)  # psi'
        if order == 1:
            out = base
        elif order == 2:
            out = -th * base / B
        elif order == 3:
            out = (th**2 - s**2) * base / B**2
        else:
            out = th * (5.0 * s**2 - th**2) * base / B**3
    return out


def psi_derivative_bounds_check(B: float) -> dict:
    """Verify the four weight-derivative inequalities on PSI_CHECK_SAMPLES points of [-40B, 40B]."""
    if not 2.0 < B <= PSI_B_MAX:
        raise ValueError(f"weight scale B must exceed 2 and be at most {PSI_B_MAX:.4e}, got {B}")
    x = np.linspace(-40.0 * B, 40.0 * B, PSI_CHECK_SAMPLES)
    p1 = weight_psi(x, B, 1)
    ratios = {
        "psi2_over_psi1": float(np.max(weight_psi(x, B, 2) / p1)),
        "abs_psi3_over_psi1": float(np.max(np.abs(weight_psi(x, B, 3)) / p1)),
        "abs_psi4_over_psi1": float(np.max(np.abs(weight_psi(x, B, 4)) / p1)),
        "decay_margin": float(max(np.max(np.abs(weight_psi(x, B, k)) * np.exp(np.abs(x) / B)) for k in (1, 2, 3, 4))),
    }
    ok = (
        ratios["psi2_over_psi1"] <= 1.0 / B + 1e-14
        and ratios["abs_psi3_over_psi1"] <= 1.0 / B**2 + 1e-14
        and ratios["abs_psi4_over_psi1"] <= 3.0 / B**3 + 1e-14
        and np.isfinite(ratios["decay_margin"])
    )
    return {"B": B, "ok": bool(ok), **ratios}


def momentum_density(u: Field) -> np.ndarray:
    """Pointwise S-density 4 uhat^2 + 5 uhat_x^2 + uhat_xx^2."""
    uh = helmholtz_inverse(u, 4.0)
    uhx = derivative(uh, 1)
    uhxx = derivative(uh, 2)
    return 4.0 * uh.samples**2 + 5.0 * uhx.samples**2 + uhxx.samples**2


def localized_momentum(u: Field, centers, B: float) -> list[float]:
    """I(m) = (1/2) int psi(x - m) (4 uhat^2 + 5 uhat_x^2 + uhat_xx^2) dx at each center m, from one S-density.

    x - m is wrapped to [-period/2, period/2), placing the weight's far-field
    seam at the antipode of m.
    """
    grid = u.grid
    density = momentum_density(u)
    return [0.5 * float(grid.h * np.sum(weight_psi(grid.wrap(grid.nodes - m), B) * density)) for m in centers]


def apriori_checks(u_t: Field, u0: Field, f: Field, kappa: float) -> dict:
    """The three runtime bounds for admissible data, with measured slack.

    (i)   sup bound on g = u_t - f in terms of ||g||_2 and the sup norms of f, f';
    (ii)  pointwise slope bound |u_x| <= |u + 2 kappa/3|;
    (iii) sup bound on u_t in terms of ||u0||_2.
    """
    g = u_t - f
    g2 = g.l2_norm() ** (2.0 / 3.0)
    fx = derivative(f, 1)
    rhs_i = g2 * (1.0 + 4.0 * kappa / 3.0 + np.sqrt(2.0) * g2 + 2.0 * f.max_norm() + 2.0 * fx.max_norm())
    lhs_i = g.max_norm()

    ux = derivative(u_t, 1)
    slope_tol = 1e-6 * (u_t.max_norm() + kappa)
    slack_ii = float(np.min(np.abs(u_t.samples + 2.0 * kappa / 3.0) - np.abs(ux.samples)))

    rhs_iii = sup_bound(u0.l2_norm(), kappa)
    lhs_iii = u_t.max_norm()

    return {
        "linfty_ok": bool(lhs_i <= rhs_i),
        "linfty_slack": float(rhs_i - lhs_i),
        "slope_ok": bool(slack_ii >= -slope_tol),
        "slope_slack": slack_ii,
        "sup_ok": bool(lhs_iii <= rhs_iii),
        "sup_slack": float(rhs_iii - lhs_iii),
    }
