"""The package namespace imports a module on the first read of one of its names.

Each check runs in a fresh interpreter, since the test session has long since
loaded every module.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")

# prints one JSON object of what the interpreter has loaded at each step
_PROBE = """
import json, sys, types

def loaded():
    return sorted(m for m in sys.modules
                  if m.startswith("projdunkl.") or m.split(".")[0] == "numpy")

import projdunkl
out = {"after_import": loaded(), "dir": dir(projdunkl)}

sub = projdunkl.build_subsystem_A(6, [1, 2, 3])
p = projdunkl.MPoly.from_text("x1^3*x2 - 2/3*x3*x4^2 + x5^2*x6^4 - 7", 6)
img, _ = projdunkl.chi_poly_scaled(sub, p)
xi = projdunkl.RationalVector.parse("(1, -1/2, 0, 2, 0, 3)")
out["t_text"] = projdunkl.apply_T_poly(sub, xi, img).to_text()
out["after_exact"] = loaded()

out["submodules"] = [isinstance(m, types.ModuleType) and m.__name__
                     for m in (projdunkl.kummer, projdunkl.transform)]
try:
    projdunkl.no_such_name
except AttributeError as exc:
    out["unknown"] = str(exc)

namespace = {}
exec("from projdunkl import *", namespace)
out["unbound"] = [n for n in projdunkl.__all__ if n not in namespace]
out["same_objects"] = (namespace["MPoly"] is projdunkl.polycore.MPoly
                       and namespace["run_suites"] is projdunkl.suites.run_suites)
out["all"] = projdunkl.__all__
print(json.dumps(out))
"""


@pytest.fixture(scope="module")
def probe():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", _PROBE], env=env, capture_output=True,
                         text=True, timeout=120, check=True)
    return json.loads(out.stdout)


def test_import_loads_no_module_and_no_numpy(probe):
    assert probe["after_import"] == []


def test_exact_path_never_loads_numpy(probe):
    assert probe["t_text"].count("x") > 10
    assert not any(m.split(".")[0] == "numpy" for m in probe["after_exact"])
    assert "projdunkl.suites" not in probe["after_exact"]


def test_submodules_resolve_on_first_read(probe):
    assert probe["submodules"] == ["projdunkl.kummer", "projdunkl.transform"]


def test_star_import_and_dir_cover_every_exported_name(probe):
    assert probe["unbound"] == []
    assert probe["same_objects"] is True
    assert set(probe["all"]) <= set(probe["dir"])


def test_unknown_name_raises_attribute_error_naming_it(probe):
    assert "no_such_name" in probe["unknown"]
