"""The public surface: every exported name resolves to a package attribute,
and importing the package loads no module that only the test oracles need."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import roadcorr

MODULES = ("model", "specfun", "analytic", "sim")


def test_package_exports_resolve():
    missing = [name for name in roadcorr.__all__ if not hasattr(roadcorr, name)]
    assert missing == []


@pytest.mark.parametrize("module", MODULES)
def test_module_exports_resolve_and_are_reexported(module):
    mod = importlib.import_module(f"roadcorr.{module}")
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []
    assert set(mod.__all__) <= set(roadcorr.__all__)


# Loading scipy.special costs about 0.25 s; numpy.ma is what np.union1d loads.
IMPORT_PATH_PROBE = """
import sys
import roadcorr
from roadcorr import NetworkGeometry, TrafficModel, covariance, estimate_curve

def loaded():
    return [m for m in ("scipy.special", "numpy.ma") if m in sys.modules]

print(loaded())
geom = NetworkGeometry(guard_radius=150.0, pathloss_exponent=3.0, speed=10.0)
covariance(5.0, TrafficModel(0.1, 4.0), geom, "exact-quadrature")
estimate_curve(TrafficModel(0.05, 4.0), geom, [0.0, 10.0], 1000, 1)
print(loaded())
"""


def test_import_and_routes_leave_scipy_special_and_numpy_ma_unloaded():
    """In a fresh interpreter, neither `import roadcorr` nor the exact route
    and a short simulated curve after it load scipy.special or numpy.ma."""
    src = str(Path(roadcorr.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    done = subprocess.run([sys.executable, "-c", IMPORT_PATH_PROBE], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split("\n")[:2] == ["[]", "[]"]
