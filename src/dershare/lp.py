"""One warm-started HiGHS model per family of linear programs.

Every exact linear program in the package is an LPModel: a fixed
objective and constraint matrix whose row and column bounds change from
one solve to the next. Each solve passes the model through the
binding's array overload of passModel, which reads the numpy arrays in
place instead of converting each bound vector element by element into a
HighsLp. Each solve after the first starts the dual simplex from the
previous solve's optimal basis, or from a basis the caller names, which
skips most of the pivots of a cold solve. The solver choice and its
error handling live here; a failed solve raises LPError (declared in
`model`, so a caller can catch it without loading this module) and is
never retried cold.

The solver is scipy's compiled HiGHS binding, loaded straight from its
extension file the first time an LPModel is built, so a process that
builds none (a `--version`, or a rerun whose fit and localness stages
are cache hits) never maps it. The file is found through scipy's import
spec, which runs no scipy package: importing it as
`scipy.optimize._highspy._core` would first run the whole
`scipy.optimize` package (linprog, linalg, fft and special, several
hundred milliseconds), and even `import scipy` alone pulls in its test
and version helpers. The module is registered under its real name, so a
later `import scipy.optimize` reuses it.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .model import LPError

_HIGHS_MODULE = "scipy.optimize._highspy._core"


def _load_highs():
    """scipy's HiGHS binding, without running any scipy package."""
    if _HIGHS_MODULE in sys.modules:
        return sys.modules[_HIGHS_MODULE]
    scipy = importlib.util.find_spec("scipy")
    if scipy is None:
        raise ModuleNotFoundError("No module named 'scipy'", name="scipy")
    directory = Path(scipy.submodule_search_locations[0]) / "optimize" / "_highspy"
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = directory / f"_core{suffix}"
        if path.is_file():
            spec = importlib.util.spec_from_file_location(_HIGHS_MODULE, path)
            module = importlib.util.module_from_spec(spec)
            sys.modules[_HIGHS_MODULE] = module
            spec.loader.exec_module(module)
            return module
    from importlib.metadata import version
    raise ImportError(f"no compiled HiGHS binding _core in {directory} "
                      f"(scipy {version('scipy')})")


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

    The model keeps c and the matrix arrays as given (no copy when they
    are contiguous and of the right type), so the caller must not change
    them afterwards. Use np.inf (or -np.inf) for a missing bound. The
    options (quiet, dual simplex, presolve left on) are the ones scipy's
    own HiGHS LP front end sets, so a first solve is the cold solve
    scipy would make.
    """

    def __init__(self, c, a):
        (n_row, n_col), (start, index, value) = a
        # the array overload hands HiGHS bare pointers, so every length is checked here
        start = np.ascontiguousarray(start, dtype=np.int32)
        index = np.ascontiguousarray(index, dtype=np.int32)
        value = np.ascontiguousarray(value, dtype=float)
        self._cost = np.ascontiguousarray(c, dtype=float)
        if (start.shape != (n_col + 1,) or self._cost.shape != (n_col,)
                or not index.shape == value.shape == (start[-1],)):
            raise ValueError(f"cost or matrix arrays do not fit a {n_row} x {n_col} model")
        self._shape = (n_col, n_row)
        highs = _load_highs()
        self._layout = (n_col, n_row, int(start[-1]), int(highs.MatrixFormat.kColwise),
                        int(highs.ObjSense.kMinimize), 0.0)
        self._matrix = (start[:-1], index, value)
        self._continuous = np.zeros(n_col, dtype=np.int32)
        self._error = highs.HighsStatus.kError
        self._optimal = highs.HighsModelStatus.kOptimal
        self._highs = highs._Highs()
        self._highs.setOptionValue("output_flag", False)
        dual = highs.simplex_constants.SimplexStrategy.kSimplexStrategyDual
        self._highs.setOptionValue("simplex_strategy", int(dual))
        self._basis = None
        self._iterations = 0

    @property
    def basis(self):
        """The optimal basis of the last solve (None before the first)."""
        return self._basis

    @property
    def simplex_iteration_count(self) -> int:
        """Simplex pivots the last solve took."""
        return self._iterations

    def solve(self, row_lower, row_upper, col_lower, col_upper, start=None) -> LPSolution:
        """Optimum under these bounds; raises LPError unless HiGHS proves optimality.

        The dual simplex starts from the basis `start` when given, else from
        the previous solve's optimal basis, else cold.
        """
        h = self._highs
        n_col, n_row = self._shape
        bounds = [np.ascontiguousarray(b, dtype=float)
                  for b in (col_lower, col_upper, row_lower, row_upper)]
        if [b.shape for b in bounds] != [(n_col,)] * 2 + [(n_row,)] * 2:
            raise ValueError(f"bounds do not fit a {n_row} x {n_col} model")
        if h.passModel(*self._layout, self._cost, *bounds, *self._matrix,
                       self._continuous) == self._error:
            raise LPError("HiGHS rejected the model")
        start = self._basis if start is None else start
        if start is not None and h.setBasis(start) == self._error:
            raise LPError("HiGHS rejected the starting basis")
        h.run()
        status = h.getModelStatus()
        if status != self._optimal:
            raise LPError(f"LP not solved to optimality: {h.modelStatusToString(status)}")
        # two scalar reads, not a copy of the whole HighsInfo (~1 us against ~11 us on a
        # 2-core x86 VM)
        self._iterations = h.getInfoValue("simplex_iteration_count")[1]
        self._basis = h.getBasis()
        # fromiter with the dtype and length given converts the list ~3x faster than asarray
        return LPSolution(x=np.fromiter(h.getSolution().col_value, float, n_col),
                          objective=h.getObjectiveValue())
