"""The package runs on the standard library alone, and the benchmark's
tracer finds every callable it wraps."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

PROBE = """
import sys
import quivar.cli
from quivar.fields import CyclotomicField
from quivar.mckay import table_by_name, verify_ade
assert verify_ade(table_by_name("bi"))["type"] == "E~8"
CyclotomicField(12)
print(sorted(m for m in ("sympy", "networkx") if m in sys.modules))
"""


def test_core_loads_no_third_party_module():
    # a fresh interpreter, so modules imported by other tests do not count
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    out = subprocess.run([sys.executable, "-c", PROBE], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_no_runtime_dependencies_declared():
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        project = tomllib.load(fh)["project"]
    assert project["dependencies"] == []


def test_traced_callables_resolve():
    # the tracer looks each (module, attribute) up when it installs, so a
    # renamed or deleted callable would only show as a crashed traced run
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    import quivar.cli  # noqa: F401  (loads every traced module)
    missing = []
    for entry in tracing.TIMED + tracing.COUNTED:
        _, mod, attr = entry
        owner = sys.modules[mod]
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if owner is None:
            missing.append((mod, attr))
    assert missing == []
