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
    converged: bool
    trajectory: np.ndarray = field(repr=False)

    def to_json(self) -> dict:
        return {
            "p": self.p.probs.tolist(),
            "F": self.value,
            "iterations": self.iterations,
            "converged": self.converged,
            "trajectory": self.trajectory.tolist(),
        }


def maximize_F(idx: IndepSetIndex, config: AscentConfig | None = None) -> AscentResult:
    """Maximize F = K! f over the probability simplex by multiplicative
    ascent on log f.

    Each step multiplies the coordinates by exp(step * d log f) and
    renormalizes (a constant gradient shift cancels, so the largest entry
    is subtracted before exponentiating for stability).  Terminates when
    the simplex-projected gradient of log f has sup-norm at most tol_grad,
    when backtracking bottoms out (objective plateau), or at max_iters.
    Accepted iterates never decrease F by more than 1e-12.
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
    converged = False
    iterations = 0
    while iterations < cfg.max_iters:
        grad_log = gradient_f(idx, x) / f
        projected = grad_log - grad_log.mean()
        if np.max(np.abs(projected)) <= cfg.tol_grad:
            converged = True
            break
        step = cfg.step_size
        accepted = False
        while step >= MIN_STEP:
            y = x * np.exp(step * (grad_log - grad_log.max()))
            y /= y.sum()
            fy = eval_f(idx, y)
            if kfact * fy >= kfact * f - DECREASE_TOL:
                x, f = y, fy
                trajectory.append(kfact * f)
                accepted = True
                break
            step /= 2.0
        if not accepted:
            # no step of any size improves: numerical plateau
            converged = True
            break
        iterations += 1

    return AscentResult(
        p=Distribution(x, renormalize=True),
        value=kfact * f,
        iterations=iterations,
        converged=converged,
        trajectory=np.asarray(trajectory),
    )


def optimality_gap(idx: IndepSetIndex, p) -> float:
    """F(u) - F(p); nonnegative (to roundoff) for transitive matroids."""
    dist = p if isinstance(p, Distribution) else Distribution(p)
    gaps, _ = gaps_from_uniform(idx, dist.probs[None, :])
    return float(gaps[0])
