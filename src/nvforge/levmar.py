"""Damped least-squares (Levenberg-Marquardt) minimizer.

Trust-region flavored LM on the squared-residual objective with Marquardt
diagonal scaling and simple box projection; a step is accepted only if it
lowers the objective.  Written in-house so fit contracts (iteration cap,
convergence criteria, best-so-far on failure, stop reason) are under
direct control.

The whole solve runs under one ``np.errstate(all="ignore")``, so it never
warns: a trial step whose residual overflows has a non-finite SSE and is
rejected like any step that does not lower the objective.

The iteration is written once, in :func:`_iterate`: one problem's damping,
SSE, iteration count and stop rules, as a generator that asks its caller
for the numpy work of each step (residual, Jacobian, normal equations,
damped solve).  :func:`lm_least_squares` drives one problem with one numpy
call per piece of work; :func:`lm_least_squares_batch` drives problems of
one size together, each piece of work one call stacked across the problems
still running, with each problem's bits unchanged.

A fit's bits depend on the memory layout of its Jacobian: BLAS picks its
gemv and syrk paths for J^T r and J^T J from the layout of the transpose
J^T, and each path rounds differently.  The Jacobians of :mod:`fitkit`
are column-major (N, k), so J^T is row-major (k, N); a batch must keep each
problem's (k, N) rows contiguous, a (B, k, N) stack, not (B, N, k).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .constants import NumericalFailure

MAX_LAMBDA = 1e14
LAMBDA_INIT = 1e-3
LAMBDA_SHRINK = 0.3
LAMBDA_GROW = 4.0

# Stopping rules: iteration cap, relative step and gradient infinity norm.
MAX_ITER = 500
XTOL = 1e-8
GTOL = 1e-10


@dataclass
class LMResult:
    x: np.ndarray
    sse: float
    converged: bool
    n_iter: int
    jacobian: np.ndarray | None = None
    message: str = ""


def numeric_jacobian(residual: Callable[[np.ndarray], np.ndarray], x: np.ndarray, r0: np.ndarray):
    """Forward-difference Jacobian of a residual vector; ``r0`` is residual(x)."""
    jac = np.empty((r0.size, x.size))
    for j in range(x.size):
        h = 1e-7 * max(abs(x[j]), 1e-9)
        xp = x.copy()
        xp[j] += h
        jac[:, j] = (residual(xp) - r0) / h
    return jac


def forward_differences(residual: Callable[[np.ndarray], np.ndarray]):
    """An ``evaluate`` for :func:`lm_least_squares` from a residual alone, with its :func:`numeric_jacobian`."""
    def evaluate(x):
        r = residual(x)
        return r, lambda: numeric_jacobian(residual, x, r)
    return evaluate


#: Requests of :func:`_iterate` besides a damping lam, a float.  NORMAL: the Jacobian J at the
#: current point, J^T r and J^T J; the reply is max |J^T r|.  ACCEPT: move to the last trial point;
#: the reply is the largest relative change of a parameter.  For lam the caller solves
#: (J^T J + lam diag(J^T J)) step = -J^T r, evaluates the residual at x + step projected onto the
#: bounds, and replies with its SSE, inf when the system is singular.
NORMAL, ACCEPT = "normal", "accept"


def _iterate(sse: float):
    """One problem's LM iteration from a start of SSE ``sse``, as a generator of requests.

    Returns (SSE, converged, iterations, stop reason) once the problem stops.
    """
    lam = LAMBDA_INIT
    for n_iter in range(1, MAX_ITER + 1):
        if (yield NORMAL) < GTOL:
            return sse, True, n_iter, "gradient norm below gtol"
        while lam <= MAX_LAMBDA:
            sse_trial = yield lam
            if math.isfinite(sse_trial) and sse_trial < sse:
                sse, lam = sse_trial, max(lam * LAMBDA_SHRINK, 1e-14)
                if (yield ACCEPT) < XTOL:
                    return sse, True, n_iter, "relative step below xtol"
                break
            lam *= LAMBDA_GROW
        else:  # no descent direction at any damping: stationary point
            return sse, True, n_iter, "no further decrease possible"
    return sse, False, MAX_ITER, "max_iter reached"


def _bounds(x0, lower, upper):
    """The start as floats projected onto the bounds, and the bounds (infinite where None)."""
    x = np.asarray(x0, dtype=float)
    lo = np.full(x.shape, -np.inf) if lower is None else np.asarray(lower, dtype=float)
    hi = np.full(x.shape, np.inf) if upper is None else np.asarray(upper, dtype=float)
    return np.minimum(np.maximum(x, lo), hi), lo, hi


def _finite_jacobian(jac: np.ndarray) -> np.ndarray:
    if not np.isfinite(jac).all():
        raise NumericalFailure("Jacobian is not finite")
    return jac


@np.errstate(all="ignore")
def lm_least_squares(evaluate, x0, lower=None, upper=None) -> LMResult:
    """Minimize sum(r**2) subject to elementwise box bounds.

    ``evaluate(x)`` returns the residual vector r at x and a function of no
    arguments that returns the Jacobian of r there.  The Jacobian is asked
    for once per accepted point, the start included.

    Convergence is declared when an accepted step changes every parameter
    by less than :data:`XTOL` in relative terms, or when the infinity norm
    of the gradient J^T r drops below :data:`GTOL`.  After :data:`MAX_ITER`
    iterations the best point found so far is returned with ``converged =
    False``.  A non-finite residual at the start or a non-finite Jacobian
    anywhere raises :class:`NumericalFailure`.
    """
    x, lo, hi = _bounds(x0, lower, upper)
    r, jacobian = evaluate(x)
    if not np.isfinite(r).all():
        raise NumericalFailure("residual is not finite at the starting point")
    iteration, jac = _iterate(float(r @ r)), None
    request = next(iteration)
    while True:
        if request is NORMAL:
            jac = _finite_jacobian(jacobian())
            grad = jac.T @ r
            hess = jac.T @ jac
            scale, neg_grad = np.diag(np.maximum(hess.diagonal(), 1e-300)), -grad
            reply = float(np.abs(grad).max())
        elif request is ACCEPT:
            reply = float((np.abs(x_trial - x) / (np.abs(x) + 1e-300)).max())
            x, r, jacobian, jac = x_trial, r_trial, jacobian_trial, None
        else:
            try:
                step = np.linalg.solve(hess + request * scale, neg_grad)
            except np.linalg.LinAlgError:
                reply = math.inf
            else:
                x_trial = np.minimum(np.maximum(x + step, lo), hi)
                r_trial, jacobian_trial = evaluate(x_trial)
                reply = float(r_trial @ r_trial)
        try:
            request = iteration.send(reply)
        except StopIteration as stop:
            sse, converged, n_iter, message = stop.value
            break
    if jac is None:  # the last iteration moved x
        jac = _finite_jacobian(jacobian())
    return LMResult(x=x, sse=sse, converged=converged, n_iter=n_iter, jacobian=jac, message=message)


@np.errstate(all="ignore")
def lm_least_squares_batch(evaluate, x0, lower, upper) -> list:
    """:func:`lm_least_squares` of B problems of N residuals each, each piece of work stacked across them.

    ``x0``, ``lower`` and ``upper`` are (B, k).  ``evaluate(rows, xs)`` takes
    the indices of some problems and their points, (len(rows), k), and
    returns their residuals, (len(rows), N), and a function of no arguments
    that returns their transposed Jacobians as one C-contiguous
    (len(rows), k, N) array.  Returns each problem's outcome, bit for bit
    what :func:`lm_least_squares` returns or raises for it: an
    :class:`LMResult` or a :class:`NumericalFailure`.

    Every problem still running takes each piece of work, whether it asked
    for it or not, and a reply goes only to a problem that asked: J^T r and
    J^T J recomputed from the same J^T and r have the same bits, and a
    problem that stops rides along until its row is dropped at the next
    round.
    """
    x, lo, hi = _bounds(x0, lower, upper)
    outcomes = [None] * len(x)
    live = np.arange(len(x))  # the problem of each row of x, lo, hi, r, jt, iterations and requests
    r, jacobian = evaluate(live, x)
    iterations = [_iterate(sse) for sse in (r[:, None, :] @ r[:, :, None]).ravel().tolist()]
    requests = [next(iteration) for iteration in iterations]
    ends = {}  # row -> what its iteration returned, or the NumericalFailure that stopped it
    for m in np.flatnonzero(~np.isfinite(r).all(axis=1)).tolist():
        requests[m], ends[m] = None, NumericalFailure("residual is not finite at the starting point")
    fresh = np.ones(len(x), dtype=bool)  # rows whose J^T at their point is still to come from jacobian()
    jt = np.empty((*x.shape, r.shape[1]))

    def send(m, reply):
        try:
            requests[m] = iterations[m].send(reply)
        except StopIteration as stop:
            requests[m], ends[m] = None, stop.value

    while True:
        if fresh.any():
            got = jacobian()
            jt = np.where(fresh[:, None, None], got, jt)
            for m in np.flatnonzero(fresh & ~np.isfinite(got).all(axis=(1, 2))).tolist():
                if not isinstance(ends.get(m), NumericalFailure):
                    requests[m], ends[m] = None, NumericalFailure("Jacobian is not finite")
        for m, end in ends.items():
            if isinstance(end, NumericalFailure):
                outcomes[live[m]] = end
            else:
                sse, converged, n_iter, message = end
                outcomes[live[m]] = LMResult(x=x[m], sse=sse, converged=converged, n_iter=n_iter,
                                             jacobian=jt[m].T, message=message)
        if ends:
            keep = [m for m, request in enumerate(requests) if request is not None]
            if not keep:
                return outcomes
            live, x, lo, hi, r, jt = live[keep], x[keep], lo[keep], hi[keep], r[keep], jt[keep]
            iterations, requests, ends = [iterations[m] for m in keep], [requests[m] for m in keep], {}
        # J^T r and J^T J at every row's current point, then the replies to NORMAL.
        grad, hess = jt @ r[:, :, None], jt @ jt.swapaxes(1, 2)
        scale = np.zeros(hess.shape)
        diagonal = np.arange(hess.shape[1])
        scale[:, diagonal, diagonal] = np.maximum(np.diagonal(hess, 0, 1, 2), 1e-300)
        for m, gmax in enumerate(np.abs(grad).max(axis=(1, 2)).tolist()):
            if requests[m] is NORMAL:
                send(m, gmax)
        # A damped step for every row, then the replies to each damping lam: the trial SSE.
        lam = np.array([LAMBDA_INIT if request is None else request for request in requests])
        systems, singular = hess + lam[:, None, None] * scale, set()
        try:
            steps = np.linalg.solve(systems, -grad)
        except np.linalg.LinAlgError:  # some system is singular: each is solved on its own
            steps = np.zeros(grad.shape)
            for m in range(len(live)):
                try:
                    steps[m, :, 0] = np.linalg.solve(systems[m], -grad[m, :, 0])
                except np.linalg.LinAlgError:
                    singular.add(m)
        x_trial = np.minimum(np.maximum(x + steps[:, :, 0], lo), hi)
        r_trial, jacobian = evaluate(live, x_trial)
        for m, sse in enumerate((r_trial[:, None, :] @ r_trial[:, :, None]).ravel().tolist()):
            if requests[m] is not None:
                send(m, math.inf if m in singular else sse)
        # The rows that accept their trial point move there, then the replies to ACCEPT.
        fresh = np.array([request is ACCEPT for request in requests])
        if fresh.any():
            change = (np.abs(x_trial - x) / (np.abs(x) + 1e-300)).max(axis=1).tolist()
            x, r = np.where(fresh[:, None], x_trial, x), np.where(fresh[:, None], r_trial, r)
            for m in np.flatnonzero(fresh).tolist():
                send(m, change[m])


def covariance_from_jacobian(jac: np.ndarray, sse: float, n_points: int) -> np.ndarray:
    """Parameter covariance s^2 (J^T J)^+ with s^2 = SSE / (N - k)."""
    k = jac.shape[1]
    dof = max(n_points - k, 1)
    s2 = sse / dof
    return s2 * np.linalg.pinv(jac.T @ jac)
