"""Logistic-regression baseline fitted by iteratively reweighted least squares.

Features are standardized internally (constant columns dropped), missing
values are mean-imputed, and a small ridge penalty on the slopes (not the
intercept) keeps separable instances finite. The 0.5 decision boundary is
shared with the boosted model: p >= 0.5 predicts purchase.
"""

from __future__ import annotations

import json
import logging
import math
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = ["LogitModel", "fit_logit", "predict_logit", "predict_logit_label"]

log = logging.getLogger(__name__)

L2_PENALTY = 1e-6
MAX_ITER = 100
TOL = 1e-10
# A Newton step is halved while it raises the penalized objective by more than
# RISE_TOL relative (rounding on a converged fit stays far below it), at most
# MAX_HALVINGS times.
RISE_TOL = 1e-9
MAX_HALVINGS = 50

# Largest argument for which math.exp is finite; above it, it raises.
_LOG_DBL_MAX = math.log(sys.float_info.max)


def _expit(x):
    """1 / (1 + exp(-x)) elementwise, in x's shape, bit-equal to
    scipy.special.expit: exp is libm's, via math.exp, because numpy's SIMD
    np.exp differs from it in the last bit on some inputs and would move the
    fitted coefficients. Where exp(-x) overflows it counts as inf, giving 0."""
    neg = -np.asarray(x, dtype=np.float64)
    over = neg > _LOG_DBL_MAX
    e = np.fromiter(map(math.exp, np.where(over, 0.0, neg).ravel().tolist()),
                    dtype=np.float64, count=neg.size).reshape(neg.shape)
    e[over] = np.inf
    return 1.0 / (1.0 + e)


# JSON numbers load as int or float; bool, a subclass of int, is not one.
_NUMBER = (int, float)
_SCALAR_TYPES = {
    "intercept": (_NUMBER, "a number"),
    "grad_norm": (_NUMBER, "a number"),
    "iterations": ((int,), "an integer"),
    "converged": ((bool,), "a boolean"),
}


@dataclass
class LogitModel:
    intercept: float
    coef: np.ndarray          # slopes on the standardized scale
    mean: np.ndarray          # imputation + centering constants (raw scale)
    scale: np.ndarray         # per-column sd; 0 marks a dropped constant column
    feature_names: list[str]
    iterations: int
    grad_norm: float
    converged: bool

    def to_json(self) -> str:
        return json.dumps(
            {
                "format": "farecast-logit",
                "version": 1,
                "intercept": self.intercept,
                "coef": self.coef.tolist(),
                "mean": self.mean.tolist(),
                "scale": self.scale.tolist(),
                "feature_names": self.feature_names,
                "iterations": self.iterations,
                "grad_norm": self.grad_norm,
                "converged": self.converged,
            },
            sort_keys=True,
            indent=1,
        )

    @classmethod
    def from_json(cls, text: str, check: Callable[[object], None] | None = None) -> "LogitModel":
        """Read a model to_json wrote; `check`, if given, is called with the
        decoded JSON before anything is read from it. A file of another
        format, whose intercept, grad_norm, coef, mean or scale holds a value
        that is not a number, whose iterations is not an integer or converged
        not a boolean, whose coef, mean or scale has not one value per feature
        name, or whose intercept, coef, mean or scale holds a value that is
        not finite, raises ValueError."""
        obj = json.loads(text)
        if check is not None:
            check(obj)
        if obj.get("format") != "farecast-logit":
            raise ValueError("not a logistic-baseline model file")
        for name, (types, kind) in _SCALAR_TYPES.items():
            if type(obj[name]) not in types:
                raise ValueError(f"{name} {obj[name]!r} is not {kind}")
        for name in ("coef", "mean", "scale"):
            if not all(type(v) in _NUMBER for v in obj[name]):
                raise ValueError(f"{name} holds a value that is not a number")
        model = cls(
            intercept=float(obj["intercept"]),
            coef=np.array(obj["coef"], dtype=float),
            mean=np.array(obj["mean"], dtype=float),
            scale=np.array(obj["scale"], dtype=float),
            feature_names=list(obj["feature_names"]),
            iterations=int(obj["iterations"]),
            grad_norm=float(obj["grad_norm"]),
            converged=bool(obj["converged"]),
        )
        if not math.isfinite(model.intercept):
            raise ValueError(f"intercept {model.intercept!r} is not finite")
        for name in ("coef", "mean", "scale"):
            values = getattr(model, name)
            if values.shape != (len(model.feature_names),):
                raise ValueError(f"{name} needs one value per feature name")
            if not np.isfinite(values).all():
                raise ValueError(f"{name} has a value that is not finite")
        return model


def _impute_and_scale(X, missing, mean=None, scale=None):
    """(Z, mean, scale) of X after imputing its missing cells: with the model's
    mean when predicting, with each column's observed mean (0 with none) when
    fitting, where mean and scale are then the filled columns' own. A scale
    of 0 marks a dropped constant column, whose Z stays 0."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    if mean is None:
        if missing is not None:
            X = X.copy()
            for j in np.flatnonzero(missing.any(axis=0)).tolist():
                observed = X[~missing[:, j], j]
                X[missing[:, j], j] = observed.mean() if observed.size else 0.0
        mean = X.mean(axis=0)
        sd = X.std(axis=0)
        scale = np.where(sd > 0, sd, 0.0)
    elif missing is not None:
        X = np.where(missing, mean, X)
    active = scale > 0
    Z = np.zeros_like(X)
    Z[:, active] = (X[:, active] - mean[active]) / scale[active]
    return Z, mean, scale


def _penalized_nll(eta, y, beta, penalty) -> float:
    """sum(log(1 + exp(eta)) - y * eta) + 0.5 * sum(penalty * beta**2)."""
    return float(np.sum(np.logaddexp(0.0, eta) - y * eta) + 0.5 * np.sum(penalty * beta * beta))


def fit_logit(
    X: np.ndarray,
    y: np.ndarray,
    feature_names: list[str] | None = None,
    missing: np.ndarray | None = None,
) -> LogitModel:
    """Penalized maximum-likelihood fit via IRLS (damped Newton steps).

    The ridge penalty on the standardized slopes is L2_PENALTY. Each Newton
    step is halved while it raises the penalized objective (step-halving IRLS),
    so a quasi-separable market cannot diverge. IRLS stops once the gradient
    norm is below TOL, after MAX_ITER steps, or when no halved step lowers the
    objective; short of TOL, that is reported, not raised, as converged=False
    and a warning.
    """
    y = np.asarray(y, dtype=np.float64)
    if not np.isin(y, (0, 1)).all():
        raise ValueError("labels must be 0 or 1")
    Z, mean, scale = _impute_and_scale(X, missing)
    n, m = Z.shape
    names = feature_names if feature_names is not None else [f"f{j}" for j in range(m)]

    A = np.hstack([np.ones((n, 1)), Z])
    beta = np.zeros(m + 1)
    penalty = np.full(m + 1, L2_PENALTY)
    penalty[0] = 0.0  # intercept unpenalized

    eta = np.zeros(n)
    objective = _penalized_nll(eta, y, beta, penalty)
    grad_norm = np.inf
    it = 0
    for it in range(1, MAX_ITER + 1):
        p = _expit(eta)
        grad = A.T @ (p - y) + penalty * beta
        grad_norm = float(np.linalg.norm(grad))
        if grad_norm < TOL:
            break
        w = np.clip(p * (1.0 - p), 1e-12, None)
        hess = (A * w[:, None]).T @ A + np.diag(penalty)
        step = np.linalg.solve(hess, grad)
        # Damped Newton: halve the step while it raises the objective by more
        # than rounding; a full step that does not is taken unchanged.
        for _ in range(MAX_HALVINGS):
            new_beta = beta - step
            new_eta = A @ new_beta
            new_objective = _penalized_nll(new_eta, y, new_beta, penalty)
            if new_objective <= objective + RISE_TOL * abs(objective):
                break
            step = 0.5 * step
        else:
            break  # no step along the Newton direction lowers the objective
        beta, eta, objective = new_beta, new_eta, new_objective

    converged = grad_norm < TOL
    if not converged:
        log.warning(
            "IRLS did not converge in %d iterations (grad norm %.3g)", it, grad_norm
        )
    return LogitModel(
        intercept=float(beta[0]),
        coef=beta[1:],
        mean=mean,
        scale=scale,
        feature_names=list(names),
        iterations=it,
        grad_norm=grad_norm,
        converged=converged,
    )


def predict_logit(model: LogitModel, X: np.ndarray, missing: np.ndarray | None = None) -> np.ndarray:
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    if X.shape[1] != model.coef.shape[0]:
        raise ValueError(f"expected {model.coef.shape[0]} features, got {X.shape[1]}")
    Z, _, _ = _impute_and_scale(X, missing, model.mean, model.scale)
    return _expit(model.intercept + Z @ model.coef)


def predict_logit_label(model: LogitModel, X: np.ndarray, missing: np.ndarray | None = None) -> np.ndarray:
    return predict_logit(model, X, missing) >= 0.5
