"""scipy's compiled modules, loaded from their files without the packages
around them.

Importing ``scipy.optimize`` and ``scipy.spatial``, or ``scipy.special``,
costs about 21 MB or 24 MB of resident memory and about 0.2 s of CPU in a
fresh interpreter. The lab calls a handful of compiled functions from them:
the assignment solver (``scipy.optimize._lsap``), the squared-distance
kernel behind ``cdist(..., "sqeuclidean")`` (``scipy.spatial._distance_pybind``),
and the special functions ``ndtr``, ``betainc``, ``erfc`` and the boost
binomial quantile ``_binom_ppf`` behind ``scipy.stats.binom.ppf``, all
ufuncs of ``scipy.special._ufuncs``. Each module is loaded from its file on
first use and registered under its own name, so that a later import of the
package reuses it and every function is the package's own object. The
transport modules take about 1 ms and under 1 MB, the special-function
modules about 4 MB and 10 ms. Only this module imports ``scipy``, and only
when it loads one of them. The layout was verified on scipy 1.17.1; a scipy
whose files are laid out differently fails with an ``ImportError`` that
names the module and scipy's version, and nothing falls back to importing a
package.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys

# The compiled modules whose names scipy.special._ufuncs imports while it
# initialises. Were one of them missing from sys.modules, that relative
# import would import the scipy.special package, which itself imports
# _ufuncs, still half made, and fails.
SPECIAL_SIBLINGS = ("_special_ufuncs", "_ufuncs_cxx", "_gufuncs", "_ellip_harm_2")


def _extension_spec(package: str, name: str):
    """The import spec of the compiled module ``scipy.<package>.<name>``
    found among scipy's files, or None when there is no such file."""
    import scipy

    loader = (importlib.machinery.ExtensionFileLoader, importlib.machinery.EXTENSION_SUFFIXES)
    finder = importlib.machinery.FileFinder(os.path.join(scipy.__path__[0], package), loader)
    return finder.find_spec(f"scipy.{package}.{name}")


def _scipy_extension(package: str, name: str):
    """The compiled module ``scipy.<package>.<name>``, loaded from its file
    without importing ``scipy.<package>`` and registered under its own name,
    so that a later import of the package reuses it. A module that fails to
    load is unregistered again, as the import system does, so a later call
    raises too; an ``ImportError`` names the module and scipy's version."""
    full = f"scipy.{package}.{name}"
    module = sys.modules.get(full)
    if module is None:
        import scipy

        spec = _extension_spec(package, name)
        if spec is None:
            raise ImportError(f"no compiled module {full} in scipy {scipy.__version__}", name=full)
        module = importlib.util.module_from_spec(spec)
        sys.modules[full] = module
        try:
            spec.loader.exec_module(module)
        except ImportError as exc:
            sys.modules.pop(full, None)
            raise ImportError(
                f"cannot load {full} in scipy {scipy.__version__}: {exc}", name=full
            ) from exc
        except BaseException:
            sys.modules.pop(full, None)
            raise
    return module


def special():
    """``scipy.special._ufuncs``, the module whose ufuncs ``scipy.special``
    exports, loaded after those of ``SPECIAL_SIBLINGS`` whose files exist."""
    if "scipy.special._ufuncs" not in sys.modules:
        for name in SPECIAL_SIBLINGS:
            if _extension_spec("special", name) is not None:
                _scipy_extension("special", name)
    return _scipy_extension("special", "_ufuncs")


def _transport_solvers() -> tuple:
    """scipy's assignment solver (the one ``scipy.optimize`` exports) and the
    kernel that ``cdist(..., "sqeuclidean")`` runs on float input."""
    return (
        _scipy_extension("optimize", "_lsap").linear_sum_assignment,
        _scipy_extension("spatial", "_distance_pybind").cdist_sqeuclidean,
    )


def _tree_kernels() -> tuple:
    """The normal CDF and the boost binomial quantile behind
    ``scipy.stats.binom.ppf``."""
    ufuncs = special()
    return ufuncs.ndtr, ufuncs._binom_ppf
