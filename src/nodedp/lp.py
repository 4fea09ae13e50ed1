"""Dense/sparse linear programming surface used by the projection machinery.

Problems are stored in a solver-agnostic form (objective, typed constraint
rows, per-variable bounds) and solved with HiGHS via scipy. Constraint rows
are kept as COO triplets, added in batches of index arrays, so the truncation
LPs (n + |E| variables) stay sparse and assemble in one CSR build.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

FEAS_TOL = 1e-8

RELATIONS = ("<=", "=", ">=")


@dataclass
class LpProblem:
    objective: np.ndarray
    sense: str = "min"  # "min" or "max"
    bounds: list = field(default_factory=list)  # (lo, hi), None = unbounded
    # (row, col, coeff, relation, rhs) per add_rows call; row counts from 0 per batch.
    batches: list = field(default_factory=list, init=False, repr=False)

    def __post_init__(self):
        self.objective = np.asarray(self.objective, dtype=np.float64)
        if self.sense not in ("min", "max"):
            raise ValueError("sense must be 'min' or 'max'")
        if not self.bounds:
            self.bounds = [(0.0, None)] * self.objective.size

    @property
    def n_vars(self) -> int:
        return self.objective.size

    def add_rows(self, row, col, coeff, relation: str, rhs) -> None:
        """len(rhs) rows sharing one relation, as COO triplets: entry t puts
        coeff[t] on variable col[t] of the batch's row row[t]."""
        if relation not in RELATIONS:
            raise ValueError(f"relation must be one of {RELATIONS}")
        row, col = np.asarray(row, dtype=np.int64), np.asarray(col, dtype=np.int64)
        rhs = np.asarray(rhs, dtype=np.float64).reshape(-1)
        if row.size and (row.min() < 0 or row.max() >= rhs.size):
            raise ValueError("row indices must lie in [0, len(rhs))")
        self.batches.append((row, col, np.asarray(coeff, dtype=np.float64), relation, rhs))


@dataclass(frozen=True)
class LpSolution:
    status: str  # "optimal" | "infeasible" | "unbounded" | "failed"
    x: np.ndarray | None
    objective: float | None
    residual: float = 0.0
    message: str = ""


def _assemble(problem: LpProblem):
    """A_ub x <= b_ub (">=" rows negated) and A_eq x = b_eq, each one CSR
    build over its rows in the order they were added."""
    blocks, n_rows = {"ub": [], "eq": []}, {"ub": 0, "eq": 0}
    for row, col, coeff, rel, rhs in problem.batches:
        kind, sign = ("eq", 1.0) if rel == "=" else ("ub", -1.0 if rel == ">=" else 1.0)
        blocks[kind].append((row + n_rows[kind], col, sign * coeff, sign * rhs))
        n_rows[kind] += rhs.size

    def stacked(kind):
        if not blocks[kind]:
            return None, None
        row, col, coeff, rhs = (np.concatenate(p) for p in zip(*blocks[kind]))
        return sparse.csr_matrix((coeff, (row, col)), shape=(n_rows[kind], problem.n_vars)), rhs

    return (*stacked("ub"), *stacked("eq"))


def solve_lp(problem: LpProblem) -> LpSolution:
    """Solve an LP; on 'optimal' the solution satisfies all constraints to
    within FEAS_TOL and the objective is the optimum for the stated sense."""
    c = problem.objective if problem.sense == "min" else -problem.objective
    A_ub, b_ub, A_eq, b_eq = _assemble(problem)
    res = linprog(c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq, bounds=problem.bounds,
                  method="highs")
    if res.status == 2:
        return LpSolution("infeasible", None, None, message=res.message)
    if res.status == 3:
        return LpSolution("unbounded", None, None, message=res.message)
    if res.status != 0:
        return LpSolution("failed", None, None, message=res.message)
    x = np.asarray(res.x)
    residual = 0.0
    if A_ub is not None:
        residual = max(residual, float(np.max(A_ub @ x - b_ub, initial=0.0)))
    if A_eq is not None:
        residual = max(residual, float(np.max(np.abs(A_eq @ x - b_eq), initial=0.0)))
    obj = float(problem.objective @ x)
    return LpSolution("optimal", x, obj, residual=residual)
