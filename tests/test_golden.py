"""Byte-for-byte CLI outputs on the bundled scenarios, against recorded files.

Each case runs one command through ``flownet.cli.main`` inside a scratch
directory, with ``--out`` relative to it so that the JSON holds no machine
path. The stdout JSON and, for ``simulate`` and ``converge``, the CSV must
equal the files under ``tests/golden/`` byte for byte.

Record the files again only when an output is meant to change, all of them
or only the named cases (such as example1-converge):

    PYTHONPATH=src python tests/test_golden.py [CASE ...]
"""

from __future__ import annotations

import contextlib
import io
import os
import sys
import tempfile
from pathlib import Path

import pytest

from flownet.cli import main

GOLDEN = Path(__file__).parent / "golden"
SCENARIOS = ("example1", "example2", "junction")
GRID = "40"


def _cases():
    for name in SCENARIOS:
        yield f"{name}-validate", ["validate", "--scenario", name]
        yield f"{name}-period", ["period", "--scenario", name]
        yield f"{name}-simulate", ["simulate", "--scenario", name, "--grid", GRID,
                                   "--t-end", "7.5", "--out", f"{name}-simulate.csv"]
        yield f"{name}-converge", ["converge", "--scenario", name, "--grid", GRID,
                                   "--horizon", "40", "--out", f"{name}-converge.csv"]


CASES = dict(_cases())


def _run(case: str, workdir: Path) -> dict[str, bytes]:
    """Output files of one case, keyed by their golden file name."""
    argv = CASES[case]
    stdout = io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(stdout):
            code = main(argv)
    finally:
        os.chdir(cwd)
    assert code == 0, f"{argv} exited {code}"
    outputs = {f"{case}.json": stdout.getvalue().encode()}
    if "--out" in argv:
        csv_name = argv[argv.index("--out") + 1]
        outputs[csv_name] = (workdir / csv_name).read_bytes()
    return outputs


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_output_matches_golden(case, tmp_path):
    for name, data in _run(case, tmp_path).items():
        assert data == (GOLDEN / name).read_bytes(), f"{name} differs from its golden file"


def record(cases=CASES) -> None:
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for case in cases:
            for name, data in _run(case, Path(tmp)).items():
                (GOLDEN / name).write_bytes(data)


if __name__ == "__main__":
    unknown = [case for case in sys.argv[1:] if case not in CASES]
    if unknown:
        sys.exit(f"unknown case {', '.join(unknown)}; the cases are: {', '.join(sorted(CASES))}")
    record(sys.argv[1:] or CASES)
