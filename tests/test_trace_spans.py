"""The benchmark's trace mode wraps public functions by name; they must exist.

perfbench/tracer.py maps each span to a (module, attribute path) pair. A
refactor that deletes or renames one of them should fail here rather than in
a later traced benchmark run. perfbench/ is only read.
"""

import importlib
import importlib.util
from pathlib import Path

import flownet

ROOT = Path(__file__).resolve().parents[1]


def load_perfbench(name: str):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_span_resolves():
    spans = load_perfbench("tracer").SPANS
    assert spans
    for span, (module, attr) in spans.items():
        owner = importlib.import_module(module)
        for part in attr.split("."):
            assert hasattr(owner, part), f"{span}: {module}.{attr} is gone"
            owner = getattr(owner, part)
        assert callable(owner), f"{span}: {module}.{attr} is not callable"


def test_every_exported_name_resolves():
    missing = [name for name in flownet.__all__ if not hasattr(flownet, name)]
    assert not missing
