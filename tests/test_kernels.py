"""scipy's compiled modules, loaded from their files without their packages."""

import re
import subprocess
import sys

import pytest

import empbridge.kernels as kernels


def _fresh(child_env, *lines) -> list:
    """The words printed by a fresh interpreter that runs ``lines``."""
    proc = subprocess.run(
        [sys.executable, "-c", "\n".join(lines)],
        capture_output=True, text=True, check=True, env=child_env,
    )
    return proc.stdout.split()


def test_a_missing_transport_kernel_is_an_import_error():
    # No fallback to importing the package: a scipy without the file fails
    # loudly, naming the module and the installed version.
    import scipy

    want = rf"scipy\.optimize\._no_such_kernel in scipy {re.escape(scipy.__version__)}$"
    with pytest.raises(ImportError, match=want):
        kernels._scipy_extension("optimize", "_no_such_kernel")
    assert "scipy.optimize._no_such_kernel" not in sys.modules


def test_a_kernel_that_fails_to_load_is_not_left_registered(monkeypatch):
    # A module whose file is found but whose initialisation raises must not
    # stay in sys.modules half made: a second call would return it silently.
    import importlib.machinery

    full = "scipy.spatial._ckdtree"
    monkeypatch.delitem(sys.modules, full, raising=False)

    def refuse(self, module):
        raise ImportError(f"refused {module.__name__}")

    monkeypatch.setattr(importlib.machinery.ExtensionFileLoader, "exec_module", refuse)
    for _ in range(2):
        with pytest.raises(ImportError, match=rf"refused {re.escape(full)}$"):
            kernels._scipy_extension("spatial", "_ckdtree")
        assert full not in sys.modules


def test_special_functions_load_without_the_package_and_a_later_import_reuses_them(child_env):
    # The package, imported afterwards, and scipy.stats on top of it find the
    # loaded module: the lab's ufuncs are the package's own objects.
    out = _fresh(
        child_env,
        "import sys",
        "from empbridge.kernels import special",
        "ufuncs = special()",
        "print('scipy.special' in sys.modules, sys.modules['scipy.special._ufuncs'] is ufuncs)",
        "import scipy.special, scipy.stats",
        "print(scipy.special._ufuncs is ufuncs,",
        "      *(getattr(scipy.special, f) is getattr(ufuncs, f) for f in ('ndtr', 'betainc', 'erfc')))",
        "print(scipy.stats.binom.ppf(0.3, 10, 0.4) == ufuncs._binom_ppf(0.3, 10.0, 0.4) == 3.0)",
    )
    assert out == ["False", "True", "True", "True", "True", "True", "True"]


def test_special_after_the_package_returns_the_packages_module(child_env):
    out = _fresh(
        child_env,
        "import scipy.special",
        "from empbridge.kernels import special",
        "print(special() is scipy.special._ufuncs)",
    )
    assert out == ["True"]


def test_special_functions_without_their_siblings_are_an_import_error(child_env):
    # With a sibling missing, _ufuncs's initialisation imports the package,
    # which imports _ufuncs half made and fails. The error names the module
    # and scipy's version, and neither _ufuncs nor the package stays
    # registered; with every sibling a later call loads it.
    out = _fresh(
        child_env,
        "import sys, scipy",
        "import empbridge.kernels as k",
        "siblings, k.SPECIAL_SIBLINGS = k.SPECIAL_SIBLINGS, k.SPECIAL_SIBLINGS[:1]",
        "try:",
        "    k.special()",
        "except ImportError as exc:",
        "    want = f'cannot load scipy.special._ufuncs in scipy {scipy.__version__}: '",
        "    print(str(exc).startswith(want), exc.name)",
        "print(*(m in sys.modules for m in ('scipy.special._ufuncs', 'scipy.special')))",
        "k.SPECIAL_SIBLINGS = siblings",
        "print(k.special().ndtr(0.0))",
    )
    assert out == ["True", "scipy.special._ufuncs", "False", "False", "0.5"]
