"""One warm-started HiGHS model per family of linear programs.

Every exact linear program in the package is an LPModel: a fixed
objective and constraint matrix whose row and column bounds change from
one solve to the next. Each solve after the first starts the dual
simplex from the previous solve's optimal basis, so a sequence of LPs
that differ only in their bounds skips scipy's input checking and
conversion and most of the pivots of a cold solve. The solver choice and
its error handling live here; a failed solve raises LPError and is never
retried cold.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.optimize._highspy import _core as highs


class LPError(RuntimeError):
    """The solver failed to return a proven optimum."""


@dataclass(frozen=True)
class LPSolution:
    x: np.ndarray
    objective: float


class LPModel:
    """Minimize c @ x subject to row_lower <= a @ x <= row_upper and
    col_lower <= x <= col_upper, for bounds given at each solve.

    Use np.inf (or -np.inf) for a missing bound. The options (quiet,
    dual simplex, presolve left on) are the ones scipy's own HiGHS LP
    front end sets, so a first solve is the cold solve scipy would make.
    """

    def __init__(self, c, a):
        a = sp.csc_matrix(a)
        lp = highs.HighsLp()
        lp.num_row_, lp.num_col_ = a.shape
        lp.a_matrix_.num_row_, lp.a_matrix_.num_col_ = a.shape
        lp.a_matrix_.format_ = highs.MatrixFormat.kColwise
        lp.a_matrix_.start_ = a.indptr
        lp.a_matrix_.index_ = a.indices
        lp.a_matrix_.value_ = a.data
        lp.col_cost_ = np.asarray(c, dtype=float)
        self._lp = lp
        self._highs = highs._Highs()
        self._highs.setOptionValue("output_flag", False)
        dual = highs.simplex_constants.SimplexStrategy.kSimplexStrategyDual
        self._highs.setOptionValue("simplex_strategy", int(dual))
        self._basis = None

    def solve(self, row_lower, row_upper, col_lower, col_upper) -> LPSolution:
        """Optimum under these bounds; raises LPError unless HiGHS proves optimality."""
        lp, h = self._lp, self._highs
        lp.row_lower_ = row_lower
        lp.row_upper_ = row_upper
        lp.col_lower_ = col_lower
        lp.col_upper_ = col_upper
        if h.passModel(lp) == highs.HighsStatus.kError:
            raise LPError("HiGHS rejected the model")
        if self._basis is not None and h.setBasis(self._basis) == highs.HighsStatus.kError:
            raise LPError("HiGHS rejected the previous optimal basis")
        h.run()
        status = h.getModelStatus()
        if status != highs.HighsModelStatus.kOptimal:
            raise LPError(f"LP not solved to optimality: {h.modelStatusToString(status)}")
        self._basis = h.getBasis()
        return LPSolution(x=np.asarray(h.getSolution().col_value),
                          objective=h.getInfo().objective_function_value)
