"""Every name the benchmark's tracer wraps resolves in the package.

`perfbench/tracing.py` names functions and methods by (module, attribute)
in `SPANS` and `COUNTED`; a name that no longer resolves fails every traced
benchmark run.  The tracer module is loaded from its file and only read.
"""
import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def traced_names():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return [(module, attr) for _, module, attr in tracing.SPANS + tracing.COUNTED]


NAMES = traced_names()


@pytest.mark.parametrize("module, attr", NAMES, ids=[f"{module}:{attr}" for module, attr in NAMES])
def test_traced_name_resolves(module, attr):
    owner = importlib.import_module(module)
    if "." not in attr:
        assert callable(getattr(owner, attr, None)), f"{module} has no function {attr}"
        return
    cls_name, method = attr.split(".")
    cls = getattr(owner, cls_name, None)
    assert isinstance(cls, type), f"{module} has no class {cls_name}"
    if method == "*":
        public = [m for m, v in vars(cls).items() if callable(v) and not m.startswith("_")]
        assert public, f"{module}.{cls_name} has no public method"
    else:
        assert method in vars(cls), f"{module}.{cls_name} defines no {method}"
