"""The benchmark's trace mode wraps public functions by name; they must exist
and each workload must call the spans it lists.

perfbench/tracer.py maps each span to a (module, attribute path) pair, and a
traced benchmark run fails when a span in a workload's spans_called records
no call. A refactor that deletes, renames or stops calling one of them should
fail here rather than in a later traced benchmark run. perfbench/ is only read.
"""

import importlib
import json
from pathlib import Path

import pytest

import flownet
from flownet import cli
from helpers import load_perfbench


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


WORKLOADS = load_perfbench("workloads").WORKLOADS


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_workload_span_records_a_call(tmp_path, capsys, name):
    # the workload's commands on a small scenario: a 5-vertex ring or the
    # bundled one, with a small grid and horizon
    workload = WORKLOADS[name]
    scenario = workload.bundled or str(tmp_path / "ring.json")
    if not workload.bundled:
        Path(scenario).write_text(json.dumps(load_perfbench("gen").ring_scenario(1, 5)))
    small = {"--grid": "40", "--horizon": "4", "--out": str(tmp_path / "out.csv")}
    tracer = load_perfbench("tracer").Tracer()
    tracer.install()
    try:
        for argv in workload.argvs(scenario):
            assert cli.main([small.get(flag, arg) for flag, arg in zip([None] + argv, argv)]) == 0
    finally:
        tracer.uninstall()
    called = {span[0] for span in tracer.spans}
    assert [span for span in workload.spans_called if span not in called] == []
