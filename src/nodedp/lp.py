"""HiGHS, via scipy's linprog, behind one call for the truncation LPs.

Each caller builds its own objective, per-variable bounds and one sparse
inequality matrix A_ub x <= b_ub; solve_lp maps HiGHS's status to a string
and reports how far the solution is from feasible.

HiGHS (scipy.optimize) is imported on the first solve, not with the package:
it costs a process about 15 MB and 0.3 s, and only two callers reach it. One
is the LP extension. The other is degree truncation above D, for the rounds
that cut an edge and for a first round whose numpy solution it cannot
certify (see truncation.degree_truncate); SBM graphs seldom need either.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

FEAS_TOL = 1e-8


def linprog(*args, **kwargs):
    """scipy.optimize.linprog, imported on its first call; patch this name to intercept it."""
    from scipy.optimize import linprog as highs_linprog
    return highs_linprog(*args, **kwargs)


@dataclass(frozen=True)
class LpSolution:
    status: str  # "optimal" | "infeasible" | "unbounded" | "failed"
    x: np.ndarray | None
    objective: float | None
    residual: float = 0.0
    message: str = ""


def solve_lp(c, A_ub, b_ub, bounds, maximize=False) -> LpSolution:
    """Optimise c'x over A_ub x <= b_ub and bounds ((lo, hi) per variable,
    None = unbounded); on 'optimal' the solution satisfies A_ub x <= b_ub to
    within FEAS_TOL and the objective is the optimum for the stated sense. A
    solver answer further from feasible than that is 'failed', with its
    residual in the message."""
    c = np.asarray(c, dtype=np.float64)
    res = linprog(-c if maximize else c, A_ub=A_ub, b_ub=b_ub, A_eq=None, b_eq=None,
                  bounds=bounds, method="highs")
    status = {0: "optimal", 2: "infeasible", 3: "unbounded"}.get(res.status, "failed")
    if status != "optimal":
        return LpSolution(status, None, None, message=res.message)
    x = np.asarray(res.x)
    residual = 0.0 if A_ub is None else float(np.max(A_ub @ x - b_ub, initial=0.0))
    if residual > FEAS_TOL:
        return LpSolution("failed", None, None, residual=residual,
                          message=f"solution violates A_ub x <= b_ub by {residual:.3g}")
    return LpSolution("optimal", x, float(c @ x), residual=residual)
