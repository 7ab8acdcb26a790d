"""Maximization of the independence probability over the simplex.

The ascent works on log f with multiplicative (exponentiated-gradient)
updates, which keep iterates strictly inside the simplex; log f is concave
there because the K-th root of f is concave and positive.  The step is
halved whenever a trial step would decrease the objective and reset to its
configured value on acceptance, so no smoothness constant is needed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import factorial

import numpy as np

from .genpoly import Distribution, IndepSetIndex, eval_f, gaps_from_uniform, gradient_f

MIN_STEP = 1e-18
DECREASE_TOL = 1e-12


@dataclass
class AscentConfig:
    step_size: float = 0.5
    max_iters: int = 10_000
    tol_grad: float = 1e-10
    start: Distribution | None = None  # None = uniform

    def __post_init__(self):
        if self.step_size <= 0:
            raise ValueError("step_size must be positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if self.tol_grad <= 0:
            raise ValueError("tol_grad must be positive")
        if self.start is not None and np.any(self.start.probs <= 0):
            raise ValueError("start must be an interior point (all coordinates > 0)")


@dataclass
class AscentResult:
    p: Distribution
    value: float
    iterations: int
    stop_reason: str  # "gradient", "plateau" or "max_iters"
    halvings: int  # step halvings summed over all iterations
    trajectory: np.ndarray = field(repr=False)

    @property
    def converged(self) -> bool:
        return self.stop_reason == "gradient"

    def to_json(self) -> dict:
        return {
            "p": self.p.probs.tolist(),
            "F": self.value,
            "iterations": self.iterations,
            "converged": self.converged,
            "stop_reason": self.stop_reason,
            "halvings": self.halvings,
            "trajectory": self.trajectory.tolist(),
        }


def maximize_F(idx: IndepSetIndex, config: AscentConfig | None = None) -> AscentResult:
    """Maximize F = K! f over the probability simplex by multiplicative
    ascent on log f.

    Each step multiplies the coordinates by exp(step * d log f) and
    renormalizes (a constant gradient shift cancels, so the largest entry
    is subtracted before exponentiating for stability).  Terminates when
    the simplex-projected gradient of log f has sup-norm at most tol_grad
    (stop_reason "gradient", the only case reported as converged), when
    backtracking bottoms out before the gradient test passes ("plateau"),
    or at max_iters ("max_iters").  An accepted iterate never lowers F by
    more than the relative DECREASE_TOL (1e-12) of its current value, so a
    step to F = 0 is never taken.
    """
    cfg = config or AscentConfig()
    m = idx.m
    x = (cfg.start.probs if cfg.start is not None else np.full(m, 1.0 / m)).copy()
    if cfg.start is not None and x.size != m:
        raise ValueError(f"start has length {x.size}, expected {m}")
    kfact = factorial(idx.k)
    f = eval_f(idx, x)
    if f == 0.0:
        raise ValueError("f vanishes at the start point; ascent on log f cannot begin")

    trajectory = [kfact * f]
    stop_reason = "max_iters"
    halvings = 0
    iterations = 0
    while iterations < cfg.max_iters:
        grad_log = gradient_f(idx, x) / f
        projected = grad_log - grad_log.mean()
        if np.max(np.abs(projected)) <= cfg.tol_grad:
            stop_reason = "gradient"
            break
        step = cfg.step_size
        accepted = False
        while step >= MIN_STEP:
            y = x * np.exp(step * (grad_log - grad_log.max()))
            total = y.sum()
            # a long step can underflow every coordinate, and a non-finite
            # gradient gives NaNs: reject such a trial point like a decrease
            if total > 0:
                y /= total
                fy = eval_f(idx, y)
                if fy >= f * (1.0 - DECREASE_TOL):
                    x, f = y, fy
                    trajectory.append(kfact * f)
                    accepted = True
                    break
            step /= 2.0
            halvings += 1
        if not accepted:
            # no step of any size improves: numerical plateau
            stop_reason = "plateau"
            break
        iterations += 1

    return AscentResult(
        p=Distribution(x, renormalize=True),
        value=kfact * f,
        iterations=iterations,
        stop_reason=stop_reason,
        halvings=halvings,
        trajectory=np.asarray(trajectory),
    )


def optimality_gap(idx: IndepSetIndex, p) -> float:
    """F(u) - F(p); nonnegative (to roundoff) for transitive matroids."""
    dist = p if isinstance(p, Distribution) else Distribution(p)
    gaps, _ = gaps_from_uniform(idx, dist.probs[None, :])
    return float(gaps[0])
