"""Loading scipy's HiGHS binding and distance kernel without their packages."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import potpda
from potpda import _scipy_ext

SRC = str(Path(potpda.__file__).resolve().parent.parent)

# a 2x2 transportation LP through scipy's public interface and the same
# partial-OT problem through potpda
SOLVE_BOTH = """
import scipy.optimize._highspy._core as core
res = scipy.optimize.linprog([1.0, 2.0, 2.0, 1.0], A_eq=[[1, 1, 0, 0], [0, 0, 1, 1],
                             [1, 0, 1, 0], [0, 1, 0, 1]], b_eq=[0.5, 0.5, 0.5, 0.5])
assert res.status == 0 and abs(res.fun - 1.0) < 1e-9, res
_, cost = potpda.exact_partial_ot([0.5, 0.5], [0.5, 0.5], [[1.0, 2.0], [2.0, 1.0]], 1.0)
assert abs(cost - 1.0) < 1e-9, cost
assert potpda.pot._highs is core
"""


def run_fresh(code: str) -> None:
    """Run ``code`` in a new interpreter that imports potpda from this checkout."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(code)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_missing_module_names_it_and_the_pin():
    with pytest.raises(ImportError, match=r"scipy\.optimize\._no_such_module.*"
                                          r"scipy>=1\.17,<1\.18"):
        _scipy_ext.load_extension("optimize._no_such_module")


def test_a_loaded_module_is_reused():
    assert _scipy_ext.load_extension("optimize._highspy._core") is _scipy_ext.highs


def test_import_runs_no_scipy_package_init():
    run_fresh("""
        import sys
        import potpda
        loaded = {"scipy.optimize", "scipy.spatial", "scipy.sparse", "scipy.linalg"} & set(sys.modules)
        assert not loaded, loaded
        assert sys.modules["scipy.optimize._highspy._core"] is potpda.pot._highs
        distance = sys.modules["scipy.spatial._distance_pybind"]
        assert distance.cdist_euclidean is potpda.measures.cdist_euclidean
    """)


def test_potpda_first_then_scipy():
    run_fresh("import potpda\nimport scipy.optimize, scipy.spatial.distance\n" + SOLVE_BOTH)


def test_scipy_first_then_potpda():
    run_fresh("import scipy.optimize, scipy.spatial.distance\nimport potpda\n" + SOLVE_BOTH)


# the binding calls potpda.pot makes on its one solver per thread: a scipy
# release inside the pin that changes either fails here by name
def test_binding_takes_an_options_object():
    highs = _scipy_ext.highs
    options = highs.HighsOptions()
    options.presolve = "on"
    options.primal_feasibility_tolerance = 1e-10
    solver = highs._Highs()
    assert solver.passOptions(options) == highs.HighsStatus.kOk
    assert solver.getOptionValue("presolve")[1] == "on"
    assert solver.getOptionValue("primal_feasibility_tolerance")[1] == 1e-10


def test_binding_takes_a_model_as_arrays():
    # the 2x2 transportation LP of SOLVE_BOTH, cells in row-major order:
    # cell k has ones in constraint rows k // 2 and 2 + k % 2
    highs = _scipy_ext.highs
    solver = highs._Highs()
    solver.setOptionValue("output_flag", False)
    marginals = np.full(4, 0.5)
    status = solver.passModel(4, 4, 8, highs.MatrixFormat.kColwise, highs.ObjSense.kMinimize,
                              0.0, np.array([1.0, 2.0, 2.0, 1.0]), np.zeros(4),
                              np.full(4, highs.kHighsInf), marginals, marginals,
                              np.arange(0, 8, 2, dtype=np.int32),
                              np.array([0, 2, 0, 3, 1, 2, 1, 3], dtype=np.int32), np.ones(8),
                              np.zeros(4, dtype=np.int32))
    assert status == highs.HighsStatus.kOk
    assert (solver.getNumCol(), solver.getNumRow(), solver.getNumNz()) == (4, 4, 8)
    solver.run()
    assert solver.getModelStatus() == highs.HighsModelStatus.kOptimal
    np.testing.assert_allclose(solver.getSolution().col_value, [0.5, 0.0, 0.0, 0.5], atol=1e-12)
