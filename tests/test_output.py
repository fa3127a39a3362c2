import xml.etree.ElementTree as ET

import numpy as np

from coagkin.integrator import SolverConfig, StepStats, Trajectory, integrate
from coagkin.kernels import constant
from coagkin.output import fmt, write_diagnostics_csv, write_line_svg, write_trajectory_csv
from coagkin.system import monomer


def test_float_format_round_trips_exactly(rng):
    vals = np.concatenate([
        rng.random(200) * 10.0 ** rng.integers(-300, 300, 200),
        np.array([0.0, 1.0, 1e-45, np.pi]),
    ])
    for v in vals:
        assert float(fmt(v)) == v


def test_trajectory_csv_round_trips_values(tmp_path):
    traj = integrate(monomer(6), constant(1.0),
                     SolverConfig(t_end=1.0, sample_times=np.linspace(0, 1, 5)))
    path = write_trajectory_csv(str(tmp_path / "t.csv"), traj)
    rows = open(path).read().splitlines()
    assert rows[0] == "t,xi_1,xi_2,xi_3,xi_4,xi_5,xi_6"
    parsed = np.array([r.split(",") for r in rows[1:]], dtype=float)
    assert np.array_equal(parsed[:, 0], traj.times)
    assert np.array_equal(parsed[:, 1:], traj.states_matrix())


def test_diagnostics_csv_layout(tmp_path):
    traj = integrate(monomer(6), constant(1.0), SolverConfig(t_end=1.0))
    path = write_diagnostics_csv(str(tmp_path / "d.csv"), traj)
    lines = open(path).read().splitlines()
    assert lines[0] == "t,M0,M1,M2,tail_fraction,rhs_sup,mass_leak_rate"
    assert lines[1:] == [",".join(fmt(v) for v in (t, d.moment_0, d.moment_1, d.moment_2,
                                                    d.tail_mass_fraction, d.rhs_sup,
                                                    d.mass_leak_rate))
                         for t, d in zip(traj.times, traj.diagnostics)]


def test_svg_is_wellformed_and_handles_log_zeros(tmp_path):
    x = np.linspace(0.0, 1.0, 11)
    y = np.linspace(0.0, 5.0, 11)  # contains zero: must be dropped on log axes
    path = write_line_svg(str(tmp_path / "p.svg"), x, [("y", y)],
                          title="t < 1 & ok", ylabel="y", logy=True)
    root = ET.parse(path).getroot()
    assert root.tag.endswith("svg")
    assert any(child.tag.endswith("polyline") for child in root.iter())


def _oracle_rows(traj):
    """Per-value join: the text write_trajectory_csv must reproduce byte for byte."""
    return [",".join([fmt(t)] + [fmt(v) for v in row])
            for t, row in zip(traj.times.tolist(), traj.states_matrix())]


def _trajectory(rows, times=None):
    states = np.array(rows, dtype=float)
    times = np.asarray(times if times is not None else np.arange(len(rows)), dtype=float)
    return Trajectory(times=times, states=states, truncation_k=states.shape[1], kernel=constant(1.0),
                      step_stats=StepStats(), config=SolverConfig(t_end=1.0))


def _assert_matches_oracle(tmp_path, traj):
    path = write_trajectory_csv(str(tmp_path / "t.csv"), traj)
    k = traj.truncation_k
    header = "t," + ",".join(f"xi_{i}" for i in range(1, k + 1))
    expected = "\n".join([header] + _oracle_rows(traj)) + "\n"
    assert open(path, "rb").read() == expected.encode()


def test_trajectory_csv_matches_per_value_oracle(tmp_path):
    tiny = np.nextafter(0.0, 1.0)
    k = 64
    lone = np.zeros(k)
    lone[-1] = 3.5e-300
    neg_zero_tail = np.zeros(k)
    neg_zero_tail[:3] = [1.0, 0.5, 0.25]
    neg_zero_tail[40] = -0.0
    subnormal = np.zeros(k)
    subnormal[:4] = [tiny, 2.2250738585072e-310, 1e-320, -tiny]
    traj = _trajectory([np.zeros(k), lone, neg_zero_tail, subnormal, -np.zeros(k)],
                       times=[0.0, 1e-300, 0.1, 1.0 / 3.0, 7.0])
    _assert_matches_oracle(tmp_path, traj)
    # k = 2, with the lone nonzero first, last and nowhere
    _assert_matches_oracle(tmp_path, _trajectory([[0.0, 0.0], [1.0, 0.0], [0.0, 1e-5], [-0.0, 0.0]]))


def test_trajectory_csv_matches_oracle_on_large_k_run(tmp_path):
    traj = integrate(monomer(512), constant(1.0), SolverConfig(t_end=2.0))
    assert (traj.final().values == 0.0).mean() > 0.5  # the case the shortcut serves
    _assert_matches_oracle(tmp_path, traj)
