import csv
import os
import signal

import numpy as np
import pytest

import helpers
from flownet import (EdgeDensityField, EvolutionError, cli, convergence_diagnostic,
                     evolution, load_scenario, propagate)
from flownet.spectral import ConvergenceTrace


def csv_writer_field(field: EdgeDensityField, path) -> None:
    """The row-by-row csv.writer output that EdgeDensityField.write_csv must reproduce."""
    xs = field.grid()
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["edge", "x", "value", "t", "s"])
        for j in range(len(field.values)):
            for r in range(field.resolution):
                writer.writerow(
                    [j + 1, repr(float(xs[r])), repr(float(field.values[j, r])),
                     repr(field.time), repr(field.origin)]
                )


def csv_writer_trace(trace: ConvergenceTrace, path) -> None:
    """The row-by-row csv.writer output that ConvergenceTrace.write_csv must reproduce."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "delta"])
        for t, d in zip(trace.elapsed, trace.deviation):
            writer.writerow([repr(t), repr(d)])


def assert_same_bytes(obj, oracle, tmp_path):
    obj.write_csv(tmp_path / "bulk.csv")
    oracle(obj, tmp_path / "oracle.csv")
    assert (tmp_path / "bulk.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()


BLOCK_VALUES = evolution._BLOCK_VALUES


@pytest.fixture(autouse=True)
def small_blocks(monkeypatch):
    """Let every field here fork, whatever its size; a test that needs the
    real floor on block size sets it back."""
    monkeypatch.setattr(evolution, "_BLOCK_VALUES", 1)


EXTREMES = [1e-05, 1e16, -0.0, 5e-324, -2.5, -1e-300, 0.1, 1.0 / 3.0, float("inf"), float("nan")]


@pytest.mark.parametrize("values,time,origin", [
    (np.asarray([EXTREMES, EXTREMES[::-1]]), 1e-07, -3.5),
    (np.asarray([[-7.25]]), 0.0, 0.0),  # N = 1 and m = 1
    (np.asarray([[0.5], [-0.0], [1e16]]), 1000.5, 0.25),  # N = 1
    (np.asarray([EXTREMES]), 2.0, 1.0),  # m = 1
])
def test_field_csv_matches_csv_writer(values, time, origin, tmp_path):
    field = EdgeDensityField(values=values, resolution=values.shape[1], time=time, origin=origin)
    assert_same_bytes(field, csv_writer_field, tmp_path)


def test_example2_field_csv_matches_csv_writer(tmp_path):
    sc = load_scenario("example2")
    field = propagate(sc.matrix, sc.initial, sc.start_time, 7.5, sc.resolution)
    assert_same_bytes(field, csv_writer_field, tmp_path)


@pytest.mark.parametrize("name,tau", [("example1", 1), ("example2", 2)])
def test_convergence_csv_matches_csv_writer(name, tau, tmp_path):
    sc = load_scenario(name)
    trace = convergence_diagnostic(sc.matrix, sc.initial, sc.start_time, tau, horizon=12.0,
                                   N=200, stride=0.5)
    assert_same_bytes(trace, csv_writer_trace, tmp_path)


def affinity(monkeypatch, cpus: int) -> None:
    """Make the process's affinity mask hold cpus CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)


def count_forks(monkeypatch) -> list[int]:
    pids = []
    fork = os.fork

    def counted():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)
    return pids


def assert_no_child_left(pid: int) -> None:
    assert os.getpid() == pid  # no child returned into the caller
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_far_field_csv_bytes_do_not_depend_on_the_blocks(tmp_path, monkeypatch):
    # the 24-edge ring of perfbench's field-far workload, at its N and t
    monkeypatch.setattr(evolution, "_BLOCK_VALUES", BLOCK_VALUES)
    doc = helpers.load_perfbench("gen").ring_scenario(1, 8)
    sc = load_scenario(helpers.write_scenario(tmp_path, doc))
    field = propagate(sc.matrix, sc.initial, sc.start_time, 1000.5, 20000)
    assert field.values.shape == (24, 20000)
    with monkeypatch.context() as patch:
        forks = count_forks(patch)
        field.write_csv(tmp_path / "native.csv")
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    assert len(forks) == min(cpus, 24 * 20000 // BLOCK_VALUES) - 1
    with monkeypatch.context() as patch:
        affinity(patch, 1)
        forks = count_forks(patch)
        field.write_csv(tmp_path / "one-block.csv")
    assert forks == []
    assert (tmp_path / "native.csv").read_bytes() == (tmp_path / "one-block.csv").read_bytes()


@pytest.mark.parametrize("cpus", [1, 3, 4])
@pytest.mark.parametrize("m", [1, 3, 5])
def test_field_csv_in_blocks_matches_csv_writer(m, cpus, tmp_path, monkeypatch):
    # more CPUs than edges, and uneven cuts: 5 edges in 3 blocks are 1 + 2 + 2
    values = np.asarray([np.roll(EXTREMES, j) for j in range(m)])
    field = EdgeDensityField(values=values, resolution=len(EXTREMES), time=2.5, origin=0.5)
    affinity(monkeypatch, cpus)
    forks = count_forks(monkeypatch)
    pid = os.getpid()
    assert_same_bytes(field, csv_writer_field, tmp_path)
    assert len(forks) == min(cpus, m) - 1
    assert_no_child_left(pid)


@pytest.mark.parametrize("n,blocks", [(2 * BLOCK_VALUES // 6, 1), (2 * BLOCK_VALUES // 6 + 1, 2),
                                      (4 * BLOCK_VALUES // 6 + 1, 4)])
def test_a_block_holds_at_least_the_floor_of_values(n, blocks, tmp_path, monkeypatch):
    monkeypatch.setattr(evolution, "_BLOCK_VALUES", BLOCK_VALUES)
    affinity(monkeypatch, 8)
    forks = count_forks(monkeypatch)
    field = EdgeDensityField(values=np.asarray([np.arange(n) / n] * 6), resolution=n, time=1.0,
                             origin=0.0)
    assert_same_bytes(field, csv_writer_field, tmp_path)
    assert len(forks) == blocks - 1


def test_simulate_of_a_bundled_scenario_forks_nothing(tmp_path, monkeypatch, capsys):
    # example1: 6 edges of 400 points, far below two blocks' worth of values
    monkeypatch.setattr(evolution, "_BLOCK_VALUES", BLOCK_VALUES)
    affinity(monkeypatch, 8)
    forks = count_forks(monkeypatch)
    assert cli.main(["simulate", "--scenario", "example1", "--t-end", "2.5",
                     "--out", str(tmp_path / "field.csv")]) == 0
    assert forks == []


def test_without_fork_or_affinity_mask_the_field_is_one_block(tmp_path, monkeypatch):
    field = EdgeDensityField(values=np.asarray([EXTREMES] * 3), resolution=len(EXTREMES),
                             time=1.0, origin=0.0)
    monkeypatch.delattr(os, "fork")
    assert_same_bytes(field, csv_writer_field, tmp_path)
    monkeypatch.undo()
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    forks = count_forks(monkeypatch)
    assert_same_bytes(field, csv_writer_field, tmp_path)
    assert forks == []


def failing_rows(where: str):
    """_field_rows that raises in the block a child formats, or in the parent's,
    after a row longer than the file's buffer has reached the file."""
    rows = evolution._field_rows

    def broken(first_edge):
        yield "x" * (1 << 16)
        raise ZeroDivisionError(f"formatting edge {first_edge}")

    def patched(template, values, first_edge):
        if (first_edge > 1) == (where == "child"):
            return broken(first_edge)
        return rows(template, values, first_edge)

    return patched


FIELD_ROWS = evolution._field_rows


def killed_child(template, values, first_edge):
    """_field_rows whose child dies by a signal before it can give a reason."""
    if first_edge > 1:
        os.kill(os.getpid(), signal.SIGKILL)
    return FIELD_ROWS(template, values, first_edge)


def test_a_failing_child_raises_and_leaves_no_child(tmp_path, monkeypatch):
    field = EdgeDensityField(values=np.asarray([EXTREMES] * 4), resolution=len(EXTREMES),
                             time=1.0, origin=0.0)
    affinity(monkeypatch, 2)
    pid = os.getpid()
    monkeypatch.setattr(evolution, "_field_rows", failing_rows("child"))
    with pytest.raises(EvolutionError, match=r"edges 3\.\.4 failed in a child process: "
                                             r"ZeroDivisionError: formatting edge 3$"):
        field.write_csv(tmp_path / "field.csv")
    assert_no_child_left(pid)
    monkeypatch.setattr(evolution, "_field_rows", killed_child)
    with pytest.raises(EvolutionError, match=r"edges 3\.\.4 failed in a child process: "
                                             rf"status -{int(signal.SIGKILL)}$"):
        field.write_csv(tmp_path / "field.csv")
    assert_no_child_left(pid)
    monkeypatch.setattr(evolution, "_field_rows", failing_rows("parent"))
    with pytest.raises(ZeroDivisionError, match="formatting edge 1"):
        field.write_csv(tmp_path / "field.csv")
    assert_no_child_left(pid)


def test_a_failing_child_is_one_error_line_of_the_cli(tmp_path, monkeypatch, capsys):
    affinity(monkeypatch, 2)
    monkeypatch.setattr(evolution, "_field_rows", failing_rows("child"))
    pid = os.getpid()
    code = cli.main(["simulate", "--scenario", "example1", "--t-end", "2.5",
                     "--out", str(tmp_path / "field.csv")])
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert err == ("error: formatting the CSV rows of edges 4..6 failed in a child process: "
                   "ZeroDivisionError: formatting edge 4\n")
    assert_no_child_left(pid)
