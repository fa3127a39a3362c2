import io
import json
import xml.etree.ElementTree as ET
from types import SimpleNamespace

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from coagkin import csvtext, system
from coagkin.csvtext import format_block
from coagkin.diagnostics import DiagnosticsRecord
from coagkin.integrator import SolverConfig, StepStats, Trajectory, integrate
from coagkin.kernels import constant
from coagkin.output import fmt, write_diagnostics_csv, write_line_svg, write_trajectory_csv
from coagkin.reports import write_json_atomic
from coagkin.system import monomer


def test_float_format_round_trips_exactly(rng):
    vals = np.concatenate([
        rng.random(200) * 10.0 ** rng.integers(-300, 300, 200),
        np.array([0.0, 1.0, 1e-45, np.pi]),
    ])
    for v in vals:
        assert float(fmt(v)) == v


def test_json_report_bytes_equal_json_dump(tmp_path):
    payload = {"name": "run", "metrics": {"b": 0.1 + 0.2, "a": -1e-300, "n": 3}, "empty": [], "none": None,
               "samples": [[0.0, 1.5e-17, [2.0, float("inf")]], {"z": [1, 2.5], "y": {}}], "ok": True}
    expected = io.StringIO()
    json.dump(payload, expected, indent=2, sort_keys=True)
    path = write_json_atomic(str(tmp_path / "out" / "report.json"), payload)
    with open(path, "rb") as fh:
        assert fh.read() == (expected.getvalue() + "\n").encode()
    assert [p.name for p in (tmp_path / "out").iterdir()] == ["report.json"]  # no temporary file left


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
    with open(path, "rb") as fh:
        assert fh.read() == expected.encode()


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


def _per_value(block):
    """The reference text of a 2-D block: fmt of every value, joined by "," per row."""
    return "".join(",".join(fmt(v) for v in row) + "\n" for row in block.tolist()).encode()


def _assert_formats_like_fmt(values, cols=1):
    block = np.asarray(values, dtype=float).reshape(-1, cols)
    assert format_block(block) == _per_value(block)


@given(st.lists(st.integers(min_value=-(2**63), max_value=2**63 - 1), min_size=1, max_size=64))
def test_format_block_matches_fmt_on_any_bit_pattern(bits):
    # every double: NaNs of any payload, +-inf, +-0 and subnormals among them
    _assert_formats_like_fmt(np.array(bits, dtype=np.int64).view(np.float64))


def test_format_block_matches_fmt_on_random_bit_patterns():
    bits = np.random.default_rng(7).integers(-(2**63), 2**63 - 1, size=200_000, dtype=np.int64, endpoint=True)
    values = bits.view(np.float64).reshape(-1, 40)
    for rows in system.row_blocks(len(values), 40):
        assert format_block(values[rows]) == _per_value(values[rows])


def _record_fmt(monkeypatch) -> list:
    """The values format_block sends through fmt from now on."""
    taken = []

    def recording(x):
        taken.append(x)
        return fmt(x)

    monkeypatch.setattr(csvtext, "fmt", recording)
    return taken


def test_format_block_matches_fmt_at_its_boundaries(monkeypatch):
    taken = _record_fmt(monkeypatch)
    powers = np.array([float(f"1e{p}") for p in range(-323, 309)])
    edges = np.array([1e16, 1e17, 1e-5, 1e-4, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308])
    values = np.concatenate([powers, edges])
    with np.errstate(over="ignore"):  # the largest double's upper neighbour is inf
        values = np.concatenate([values, np.nextafter(values, 0.0), np.nextafter(values, np.inf)])
    values = np.concatenate([values, -values, [0.0, -0.0, np.inf, -np.inf, np.nan]])
    _assert_formats_like_fmt(values)
    _assert_formats_like_fmt(values[: values.size // 7 * 7], cols=7)
    # where log10 rounds across a power of ten, the digits come from a second
    # scaling, not from fmt; fmt serves the non-finite values and a few near-ties
    assert len(taken) < 20


def test_exact_ties_take_fmt(monkeypatch):
    taken = _record_fmt(monkeypatch)
    text = format_block(np.array([[2.0**-25, 0.1, 3 * 2.0**-25]]))
    assert text == b"2.9802322387695312e-08,0.10000000000000001,8.9406967163085938e-08\n"
    assert taken == [2.0**-25, 3 * 2.0**-25]


def test_diagnostics_csv_writes_non_finite_values_as_fmt_does(tmp_path):
    records = [DiagnosticsRecord(1.0, np.nan, -np.inf, 0.0, -0.0, 1e-300),
               DiagnosticsRecord(np.inf, 2.5, 1e20, 3e-5, 0.25, 0.0)]
    traj = SimpleNamespace(times=np.array([0.0, 1.5]), diagnostics=records)
    write_diagnostics_csv(str(tmp_path / "d.csv"), traj)
    lines = (tmp_path / "d.csv").read_text().splitlines()
    assert lines[1:] == ["0,1,nan,-inf,0,-0,1e-300",
                         "1.5,inf,2.5,1e+20,3.0000000000000001e-05,0.25,0"]


def test_trajectory_csv_matches_oracle_across_small_blocks(tmp_path, monkeypatch):
    monkeypatch.setattr(system, "BLOCK_CELLS", 2 * 200)  # blocks of one or two rows
    traj = integrate(monomer(256), constant(1.0),
                     SolverConfig(t_end=1.0, sample_times=np.linspace(0, 1, 7)))
    assert 100 < traj.states.shape[1] < 256  # rows end in the zero tail
    _assert_matches_oracle(tmp_path, traj)
