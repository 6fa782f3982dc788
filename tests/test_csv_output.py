import csv

import numpy as np
import pytest

from flownet import EdgeDensityField, convergence_diagnostic, load_scenario, propagate
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
