"""One warm-started HiGHS model per family of linear programs.

Every exact linear program in the package is an LPModel: a fixed
objective and constraint matrix whose row and column bounds change from
one solve to the next. Each solve after the first starts the dual
simplex from the previous solve's optimal basis, so a sequence of LPs
that differ only in their bounds skips scipy's input checking and
conversion and most of the pivots of a cold solve. The solver choice and
its error handling live here; a failed solve raises LPError and is never
retried cold.

The solver is scipy's compiled HiGHS binding, loaded straight from its
extension file. Importing it as `scipy.optimize._highspy._core` would
first run the whole `scipy.optimize` package, which imports linprog,
linalg, fft and special and costs a process several hundred
milliseconds before any work. The module is registered under its real
name, so a later `import scipy.optimize` reuses it.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

_HIGHS_MODULE = "scipy.optimize._highspy._core"


def _load_highs():
    """scipy's HiGHS binding, without running the scipy.optimize package."""
    if _HIGHS_MODULE in sys.modules:
        return sys.modules[_HIGHS_MODULE]
    import scipy
    directory = Path(scipy.__file__).parent / "optimize" / "_highspy"
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = directory / f"_core{suffix}"
        if path.is_file():
            spec = importlib.util.spec_from_file_location(_HIGHS_MODULE, path)
            module = importlib.util.module_from_spec(spec)
            sys.modules[_HIGHS_MODULE] = module
            spec.loader.exec_module(module)
            return module
    raise ImportError(f"no compiled HiGHS binding _core in {directory} "
                      f"(scipy {scipy.__version__})")


highs = _load_highs()


class LPError(RuntimeError):
    """The solver failed to return a proven optimum."""


@dataclass(frozen=True)
class LPSolution:
    x: np.ndarray
    objective: float


class LPModel:
    """Minimize c @ x subject to row_lower <= a @ x <= row_upper and
    col_lower <= x <= col_upper, for bounds given at each solve.

    a is the constraint matrix in compressed sparse column form,
    (shape, (start, index, value)): column j's entries are value[k] in
    rows index[k] for k in start[j]:start[j + 1].

    Use np.inf (or -np.inf) for a missing bound. The options (quiet,
    dual simplex, presolve left on) are the ones scipy's own HiGHS LP
    front end sets, so a first solve is the cold solve scipy would make.
    """

    def __init__(self, c, a):
        shape, (start, index, value) = a
        lp = highs.HighsLp()
        lp.num_row_, lp.num_col_ = shape
        lp.a_matrix_.num_row_, lp.a_matrix_.num_col_ = shape
        lp.a_matrix_.format_ = highs.MatrixFormat.kColwise
        lp.a_matrix_.start_ = start
        lp.a_matrix_.index_ = index
        lp.a_matrix_.value_ = value
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
