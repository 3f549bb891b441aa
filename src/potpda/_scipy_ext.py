"""The two compiled scipy kernels potpda uses, loaded without their packages.

``import scipy.optimize`` or ``import scipy.spatial`` runs the package's
``__init__``, which pulls in sparse, linalg, special and more: most of the
start-up time of a potpda process.  This module loads the HiGHS binding and
the Euclidean-distance kernel straight from their extension files and
registers each under its canonical name, so a later scipy import of the same
module reuses the same module object.  Both files are private to scipy,
hence the ``scipy>=1.17,<1.18`` pin.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import sys
from pathlib import Path

__all__ = ["load_extension", "highs", "cdist_euclidean"]


def load_extension(name: str):
    """The compiled module ``scipy.<name>``, loaded from its file alone."""
    full = f"scipy.{name}"
    if full in sys.modules:
        return sys.modules[full]
    scipy = importlib.util.find_spec("scipy")
    for root in scipy.submodule_search_locations if scipy else ():
        stem = Path(root, *name.split("."))
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = stem.with_name(stem.name + suffix)
            if path.is_file():
                spec = importlib.util.spec_from_file_location(full, path)
                module = importlib.util.module_from_spec(spec)
                spec.loader.exec_module(module)
                sys.modules[full] = module
                return module
    raise ImportError(f"no compiled module {full}: potpda needs scipy>=1.17,<1.18")


# the binding scipy's method="highs" LP interface solves with
highs = load_extension("optimize._highspy._core")
# the kernel scipy.spatial.distance.cdist(metric="euclidean") dispatches to
cdist_euclidean = load_extension("spatial._distance_pybind").cdist_euclidean
