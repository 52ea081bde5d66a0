"""Levenberg-Marquardt nonlinear least squares with box bounds.

Minimizes ``sum(r(x)**2)`` for a callable that returns the residual vector
``r`` together with its Jacobian ``J = dr/dx``, with Marquardt-scaled
damping: the damping factor is divided by 3 after an accepted step and
doubled after a rejected one.  Each trial evaluates the callable at one
point: the damped step projected onto the box or, when the box clips only
some coordinates, the step re-solved for the free ones with the clipped
ones held at their bounds.  The covariance estimate is ``inv(J^T J)`` at
the final point, scaled by the reduced chi-square.
:func:`jacobian_fd` (central differences) is the oracle that analytic
Jacobians are tested against.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

_LAMBDA_START = 1e-3  # the damping factor of the first trial
_CHI2_REL_TOL = 1e-10
_STEP_NORM_TOL = 1e-12
_FLAT_SV_RATIO = 1e-12


@dataclass
class FitResult:
    """Outcome of a least-squares minimization.

    ``params`` is the final parameter vector (named via ``names``),
    ``covariance`` the scaled inverse normal matrix, ``chi2`` the residual
    sum of squares.  ``flat_directions`` lists parameters that the data do
    not constrain (near-null directions of the Jacobian).
    """

    params: np.ndarray
    covariance: np.ndarray
    chi2: float
    n_iter: int
    converged: bool
    names: list = field(default_factory=list)
    message: str = ""
    flat_directions: list = field(default_factory=list)

    @property
    def uncertainties(self) -> np.ndarray:
        return np.sqrt(np.clip(np.diag(self.covariance), 0.0, None))

    def __getitem__(self, name: str) -> float:
        return float(self.params[self.names.index(name)])

    def error(self, name: str) -> float:
        return float(self.uncertainties[self.names.index(name)])

    def as_dict(self) -> dict:
        errs = self.uncertainties
        named = {n: {"value": float(v), "sigma": float(e)}
                 for n, v, e in zip(self.names, self.params, errs)}
        return {
            "params": named,
            "chi2": float(self.chi2),
            "n_iter": int(self.n_iter),
            "converged": bool(self.converged),
            "message": self.message,
            "flat_directions": list(self.flat_directions),
        }


def fd_step(x: np.ndarray) -> np.ndarray:
    """Central-difference step sizes, max(1e-6*|x|, 1e-8) per parameter."""
    return np.maximum(1e-6 * np.abs(x), 1e-8)


def jacobian_fd(fun: Callable, x: np.ndarray, f0: Optional[np.ndarray] = None) -> np.ndarray:
    """Central finite-difference Jacobian of a residual function."""
    x = np.asarray(x, dtype=float)
    steps = fd_step(x)
    if f0 is None:
        f0 = np.asarray(fun(x), dtype=float)
    jac = np.empty((f0.size, x.size))
    for j in range(x.size):
        xp = x.copy(); xp[j] += steps[j]
        xm = x.copy(); xm[j] -= steps[j]
        jac[:, j] = (np.asarray(fun(xp)) - np.asarray(fun(xm))) / (2.0 * steps[j])
    return jac


def _solve(normal: np.ndarray, rhs: np.ndarray, ridge: float) -> np.ndarray:
    """Solve ``normal @ step = rhs``; a singular system, or one without a
    finite solution, is solved again with ``ridge`` added to the diagonal."""
    try:
        step = np.linalg.solve(normal, rhs)
        if np.all(np.isfinite(step)):
            return step
    except np.linalg.LinAlgError:
        pass
    warnings.warn("singular normal equations; applying ridge regularization",
                  RuntimeWarning, stacklevel=3)
    return np.linalg.solve(normal + ridge * np.eye(rhs.size), rhs)


def _evaluate(fun: Callable, x: np.ndarray):
    r, jac = fun(x)
    return np.asarray(r, dtype=float), np.asarray(jac, dtype=float)


def lm_minimize(fun: Callable, init: Sequence[float], bounds=None,
                names: Optional[Sequence[str]] = None, max_iter: int = 500) -> FitResult:
    """Minimize a residual vector in the least-squares sense.

    Parameters
    ----------
    fun : callable
        Maps a parameter vector to ``(r, J)``: the residual array (already
        weighted) and its Jacobian, shape ``(r.size, x.size)``.  Called once
        per point the minimizer visits.
    init : sequence of float
        Starting point; must lie within ``bounds`` and give finite residuals.
    bounds : optional pair (lower, upper) of sequences
        Box constraints, enforced by projection; None entries mean unbounded.
    names : optional parameter names carried into the result.
    max_iter : iteration cap; exhaustion returns ``converged=False``.
    """
    x = np.asarray(init, dtype=float).copy()
    n = x.size
    lo, hi = ([None] * n, [None] * n) if bounds is None else bounds
    lower = np.array([-np.inf if b is None else float(b) for b in lo])
    upper = np.array([np.inf if b is None else float(b) for b in hi])
    if np.any(lower > upper):
        raise ValueError("lower bound exceeds upper bound")
    if np.any(x < lower) or np.any(x > upper):
        raise ValueError("initial point violates bounds")

    r, jac = _evaluate(fun, x)
    if not np.all(np.isfinite(r)):
        raise ValueError("residual is not finite at the initial point")
    if jac.shape != (r.size, n):
        raise ValueError(f"Jacobian has shape {jac.shape}, expected {(r.size, n)}")
    chi2 = float(r @ r)
    lam = _LAMBDA_START
    converged = False
    message = "max iterations exhausted"
    n_iter = 0

    for n_iter in range(1, max_iter + 1):
        jtj = jac.T @ jac
        grad = jac.T @ r
        diag = np.diag(jtj).copy()
        diag[diag <= 0] = 1.0
        ridge = 1e-10 * max(np.max(diag), 1.0)

        accepted = False
        for _ in range(40):
            normal = jtj + lam * np.diag(diag)
            full = x + _solve(normal, -grad, ridge)
            x_try = np.clip(full, lower, upper)
            clipped = x_try != full
            if np.any(clipped) and not np.all(clipped):
                # re-solve for the free coordinates with the clipped ones held
                # at their bounds, otherwise steps into an active bound stall
                free = ~clipped
                rhs = -grad[free] - normal[np.ix_(free, clipped)] @ (x_try[clipped] - x[clipped])
                x_try[free] = np.clip(x[free] + _solve(normal[np.ix_(free, free)], rhs, ridge),
                                      lower[free], upper[free])
            r_try, jac_try = _evaluate(fun, x_try)
            chi2_try = float(r_try @ r_try) if np.all(np.isfinite(r_try)) else np.inf
            if chi2_try < chi2:
                step_norm = float(np.linalg.norm(x_try - x))
                rel_drop = (chi2 - chi2_try) / max(chi2, 1e-300)
                x, r, jac, chi2 = x_try, r_try, jac_try, chi2_try
                lam = max(lam / 3.0, 1e-14)
                accepted = True
                if rel_drop < _CHI2_REL_TOL:
                    converged, message = True, "relative chi2 decrease below tolerance"
                elif step_norm < _STEP_NORM_TOL:
                    converged, message = True, "step norm below tolerance"
                break
            lam *= 2.0
            if lam > 1e14:
                break
        if converged:
            break
        if not accepted:
            converged, message = True, "no downhill step found (stationary point)"
            break

    covariance, flat = _covariance(jac, chi2, r.size, n)
    names = list(names) if names is not None else [f"p{i}" for i in range(n)]
    flat_names = [names[i] for i in flat]
    return FitResult(params=x, covariance=covariance, chi2=chi2, n_iter=n_iter,
                     converged=converged, names=names, message=message,
                     flat_directions=flat_names)


def _covariance(jac: np.ndarray, chi2: float, m: int, n: int):
    """Covariance via SVD pseudo-inverse of J^T J, scaled by reduced chi2.

    Also returns indices of parameters dominated by near-null singular
    directions (the flat-direction diagnostic).
    """
    u, s, vt = np.linalg.svd(jac, full_matrices=False)
    flat = []
    if s.size and s[0] > 0:
        null_mask = s < _FLAT_SV_RATIO * s[0]
        if np.any(null_mask):
            weights = np.abs(vt[null_mask]).max(axis=0)
            flat = [int(i) for i in np.nonzero(weights > 0.1)[0]]
        s_inv2 = np.where(null_mask, 0.0, 1.0 / np.where(null_mask, 1.0, s) ** 2)
        cov = (vt.T * s_inv2) @ vt
    else:
        cov = np.full((n, n), np.inf)
        flat = list(range(n))
    dof = max(m - n, 1)
    cov = cov * (chi2 / dof if m > n else 1.0)
    return 0.5 * (cov + cov.T), flat
