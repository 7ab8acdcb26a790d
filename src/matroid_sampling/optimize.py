"""Maximization of the independence probability over the simplex.

The ascent works on log f with multiplicative (exponentiated-gradient)
updates, which keep iterates strictly inside the simplex; log f is concave
there because the K-th root of f is concave and positive.  Each trial step
is the spectral (Barzilai-Borwein) step, the last step scaled by the
curvature seen between the last two gradients, and is halved whenever the
trial point would decrease the objective or underflow a coordinate to 0,
so no smoothness constant is needed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import factorial

import numpy as np

from .genpoly import Distribution, IndepSetIndex, _chains, gaps_from_uniform

FIRST_STEP = 0.5  # the first trial step, and the one taken when the curvature is not positive
MIN_STEP = 1e-18
DECREASE_TOL = 1e-12


@dataclass
class AscentConfig:
    """The start and the stopping rules of :func:`maximize_F`."""
    max_iters: int = 10_000
    tol_grad: float = 1e-10
    start: Distribution | None = None  # None = uniform

    def __post_init__(self):
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
    evaluations: int  # f sweeps: the start and every trial point evaluated
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
            "evaluations": self.evaluations,
            "trajectory": self.trajectory.tolist(),
        }


def maximize_F(idx: IndepSetIndex, config: AscentConfig | None = None) -> AscentResult:
    """Maximize F = K! f over the probability simplex by multiplicative
    ascent on log f.

    Each step multiplies the coordinates by exp(step * d log f) and
    renormalizes (a constant gradient shift cancels, so the largest entry is
    subtracted before exponentiating for stability).  The first trial step
    is FIRST_STEP (0.5); after a step s is accepted with projected gradient
    g changing by dg, the next trial step is s |g|^2 / -<g, dg> (Barzilai
    and Borwein), or FIRST_STEP again when that curvature is not positive.
    A trial point that lowers F by more than the relative DECREASE_TOL
    (1e-12) of its current value, or underflows a coordinate to 0, is
    rejected and the step halved, so iterates stay strictly inside the
    simplex.  Terminates when the simplex-projected gradient of log f has
    sup-norm at most tol_grad (stop_reason "gradient", the only case
    reported as converged), when backtracking bottoms out before the
    gradient test passes ("plateau"), or at max_iters ("max_iters").

    f and its gradient come from the index's cached evaluator (see
    :mod:`~matroid_sampling.genpoly`).  Each iteration reduces with ufunc
    methods: at m near 30 numpy's wrappers cost more than the arithmetic.
    """
    cfg = config or AscentConfig()
    m = idx.m
    x = (cfg.start.probs if cfg.start is not None else np.full(m, 1.0 / m)).copy()
    if cfg.start is not None and x.size != m:
        raise ValueError(f"start has length {x.size}, expected {m}")
    kfact = factorial(idx.k)
    evaluator = _chains(idx)
    f, state = evaluator.evaluate(x)
    if f == 0.0:
        raise ValueError("f vanishes at the start point; ascent on log f cannot begin")

    trajectory = [kfact * f]
    stop_reason = "max_iters"
    halvings = 0
    evaluations = 1
    grad_log = evaluator.gradient(state) / f
    step = FIRST_STEP
    while len(trajectory) <= cfg.max_iters:
        projected = grad_log - np.add.reduce(grad_log) / m
        if np.maximum.reduce(np.absolute(projected)) <= cfg.tol_grad:
            stop_reason = "gradient"
            break
        while step >= MIN_STEP:
            y = x * np.exp(step * (grad_log - np.maximum.reduce(grad_log)))
            # a long step can underflow a coordinate, after which no
            # multiplicative step brings it back, and a non-finite gradient
            # gives NaNs: reject such a trial point like a decrease
            if np.minimum.reduce(y) > 0:
                y /= np.add.reduce(y)
                fy, state_y = evaluator.evaluate(y)
                evaluations += 1
                if fy >= f * (1.0 - DECREASE_TOL):
                    break
            step /= 2.0
            halvings += 1
        else:
            # no step of any size improves: numerical plateau
            stop_reason = "plateau"
            break
        x, f, state = y, fy, state_y
        trajectory.append(kfact * f)
        grad_next = evaluator.gradient(state) / f
        # <projected, d grad_log> equals <projected, d projected>: projected sums to 0
        curvature = -float(projected @ (grad_next - grad_log))
        step = step * float(projected @ projected) / curvature if curvature > 0 else 0.0
        if not MIN_STEP <= step < np.inf:
            step = FIRST_STEP
        grad_log = grad_next

    # every iterate is divided by its sum, so x is a distribution as it
    # stands, and eval_F reads the same evaluator: the reported F is what
    # eval computes at the returned point, to the last bit
    return AscentResult(
        p=Distribution(x),
        value=trajectory[-1],
        iterations=len(trajectory) - 1,
        stop_reason=stop_reason,
        halvings=halvings,
        evaluations=evaluations,
        trajectory=np.asarray(trajectory),
    )


def optimality_gap(idx: IndepSetIndex, p) -> float:
    """F(u) - F(p); nonnegative (to roundoff) for transitive matroids."""
    dist = p if isinstance(p, Distribution) else Distribution(p)
    gaps, _ = gaps_from_uniform(idx, dist.probs[None, :])
    return float(gaps[0])
