import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from branesim import cli, solver
from branesim.cli import cmd_verify, main, parse_run_config
from branesim.solver import ConfigError

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def flat_config(tmp_path, **overrides):
    cfg = {
        "schema": 1,
        "m": 1,
        "n": 1,
        "grid": {"sizes": [32], "lengths": [6.283185307179586]},
        "scheme": {"stencil_order": 2, "cfl": 0.4, "filter_strength": 0.0},
        "t_end": 0.2,
        "output_cadence": 0.1,
        "initial_data": {"X_modes": [], "V_modes": []},
        "toggles": {"oracle_compare": False, "mcf_compare": False},
        "seed": 0,
        "output_dir": str(tmp_path / "out"),
    }
    cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


# ---------------------------------------------------------------------------
# verify


def test_verify_small_run_passes():
    report = cmd_verify(shapes=[(1, 1), (2, 2)], samples=10, seed=3)
    assert report.all_passed()
    assert report.passes["xi"]["pass"] == 20
    assert report.passes["cauchy_binet"]["fail"] == 0


def test_verify_zero_samples_is_empty_success(capsys):
    assert main(["verify", "--samples", "0"]) == 0
    out = capsys.readouterr().out
    doc = json.loads(out)
    assert doc["all_passed"] is True
    assert all(v == {"pass": 0, "fail": 0} for v in doc["identities"].values())


def test_verify_report_deterministic(capsys):
    assert main(["--seed", "11", "verify", "--samples", "5", "--shapes", "2x2,1x2"]) == 0
    first = capsys.readouterr().out
    assert main(["--seed", "11", "verify", "--samples", "5", "--shapes", "2x2,1x2"]) == 0
    second = capsys.readouterr().out
    assert first == second


def test_verify_failure_exits_nonzero(monkeypatch, capsys):
    real = cmd_verify

    def rigged(shapes, samples, seed):
        report = real(shapes, samples, seed)
        report.failures.append({"identity": "xi", "shape": [1, 1], "input": [["1"]]})
        return report

    monkeypatch.setattr(cli, "cmd_verify", rigged)
    assert main(["verify", "--samples", "1", "--shapes", "1x1"]) == 1


def test_verify_rejects_bad_shape_token():
    assert main(["verify", "--shapes", "2xx"]) == 2


# ---------------------------------------------------------------------------
# simulate


def test_simulate_flat_constant(tmp_path, capsys):
    path = flat_config(tmp_path)
    assert main(["simulate", str(path)]) == 0
    csv = (tmp_path / "out" / "diagnostics.csv").read_text().strip().split("\n")
    assert csv[0] == solver.CSV_HEADER
    for line in csv[1:]:
        cells = line.split(",")
        assert float(cells[1]) == pytest.approx(6.283185307179586, rel=1e-14)
        assert float(cells[3]) == 0.0


def test_simulate_missing_file_exits_2(tmp_path):
    assert main(["simulate", str(tmp_path / "nope.json")]) == 2


def test_simulate_unknown_key_exits_2(tmp_path):
    path = flat_config(tmp_path)
    doc = json.loads(path.read_text())
    doc["surprise"] = 1
    path.write_text(json.dumps(doc))
    assert main(["simulate", str(path)]) == 2


def exit_code(argv) -> int:
    try:
        return main(argv)
    except SystemExit as exc:  # argparse rejects unknown flags this way
        return exc.code


def assert_rejected(argv, key, capsys):
    """Exit 2 with ``key`` named on stderr; any traceback would fail the test."""
    capsys.readouterr()
    assert exit_code(argv) == 2, argv
    err = capsys.readouterr().err
    assert key in err, (key, err)


def test_simulate_validation_messages(tmp_path, capsys):
    mode = {"component": 1, "wave": [1], "amplitude": 0.1}
    cases = [
        ({"m": 9}, "config.m"),
        ({"n": 5}, "config.n"),
        ({"t_end": -1.0}, "config.t_end"),
        ({"scheme": {"cfl": 1.5}}, "config.scheme.cfl"),
        ({"m": "x"}, "config.m"),
        ({"m": 1.5}, "config.m"),
        ({"scheme": {"stencil_order": "a"}}, "config.scheme.stencil_order"),
        ({"scheme": {"stencil_order": 3}}, "config.scheme.stencil_order"),
        ({"scheme": {"stencil_order": 4}}, "config.scheme.stencil_order: must be 2"),
        ({"grid": {"sizes": [64.7], "lengths": [6.0]}}, "config.grid.sizes"),
        ({"initial_data": {"X_modes": [dict(mode, component="x")]}}, "config.initial_data.X_modes[0].component"),
        ({"initial_data": {"X_modes": [dict(mode, component=1.5)]}}, "config.initial_data.X_modes[0].component"),
        ({"initial_data": {"X_modes": [dict(mode, component=2)]}}, "config.initial_data.X_modes[0].component"),
        ({"snapshot_cadence": 0}, "config.snapshot_cadence"),
        ({"snapshot_cadence": -0.1}, "config.snapshot_cadence"),
        ({"output_cadence": -1.0}, "config.output_cadence"),
        ({"seed": "x"}, "config.seed"),
        ({"seed": 1.5}, "config.seed"),
        ({"toggles": {"oracle_compare": "yes"}}, "config.toggles.oracle_compare"),
        ({"scheme": {"filter_strength": 1.0}}, "config.scheme.filter_strength: must be 0; the evolution has no filter"),
        ({"scheme": {"filter_strength": -1.0}}, "config.scheme.filter_strength"),
        (
            {"toggles": {"mcf_compare": True}},
            "config.toggles.mcf_compare: simulate does not run the MCF comparison; use the mcf-compare command",
        ),
        # the step bound underflows to 0, or the run needs more than MAX_STEPS steps
        ({"scheme": {"cfl": 5e-324}}, "config.scheme.cfl, config.t_end: end time 0.2 and step bound 0.0 must be positive"),
        ({"scheme": {"cfl": 1e-300}}, "config.scheme.cfl, config.t_end: reaching 0.2 in steps"),
        ({"t_end": 1e300}, "config.scheme.cfl, config.t_end: reaching 1e+300 in steps"),
    ]
    for bad, key in cases:
        path = flat_config(tmp_path, **bad)
        assert_rejected(["simulate", str(path)], key, capsys)
    # the same on a moving string, the input whose runs never ended
    string = json.loads((CONFIG_DIR / "string_n1.json").read_text())
    for bad in ({"scheme": {"cfl": 5e-324}}, {"scheme": {"cfl": 1e-300}}, {"t_end": 1e300}):
        path = tmp_path / "string.json"
        path.write_text(json.dumps(dict(string, output_dir=str(tmp_path / "out"), **bad)))
        assert_rejected(["simulate", str(path)], "config.scheme.cfl, config.t_end", capsys)
    # the keys stay accepted at the values existing configs send
    for scheme in ({"filter_strength": 0}, {"filter_strength": 0.0}, {"stencil_order": 2}, {"stencil_order": 2.0}, {}):
        parse_run_config(json.loads(flat_config(tmp_path, scheme=scheme).read_text()))


def test_simulate_blowup_is_reported_once_at_the_failing_step(tmp_path, capsys, monkeypatch):
    # a large fast wave: the run leaves the scheme's range and blows up near t = 0.196
    cfg = json.loads((CONFIG_DIR / "string_n1.json").read_text())
    cfg["initial_data"]["X_modes"][0].update(amplitude=3.0, wave=[3])
    cfg["initial_data"]["V_modes"][0].update(amplitude=0.9, wave=[3])
    cfg.update(t_end=5.0, output_dir=str(tmp_path / "out"))
    path = tmp_path / "blowup.json"
    path.write_text(json.dumps(cfg))
    real = solver.run
    raised = []

    def spy(fld, **kwargs):
        try:
            return real(fld, **kwargs)
        except solver.BlowUpError as exc:
            raised.append((exc.t, solver.cfl_dt(fld, kwargs["cfl"])))
            raise

    monkeypatch.setattr(solver, "run", spy)
    capsys.readouterr()
    assert main(["simulate", str(path)]) == 3
    # numpy's floating-point warnings stay quiet; the blow-up line is all of stderr
    assert capsys.readouterr().err == f"blow-up at t=0.196078; partial diagnostics written to {tmp_path / 'out'}\n"
    # the time is k * dt of the failing step, one step past the last row written
    (t, dt_max), = raised
    dt = 5.0 / math.ceil(5.0 / dt_max)
    k = round(t / dt)
    assert t == k * dt
    rows = (tmp_path / "out" / "diagnostics.csv").read_text().strip().split("\n")[1:]
    assert float(rows[-1].split(",")[0]) < t


def test_non_utf8_input_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_bytes(b'\xff\xfe{"m": 1}')
    for command in ("simulate", "characteristics", "mcf-compare"):
        assert_rejected([command, str(path)], "not UTF-8", capsys)


def test_simulate_cadence_zero_or_beyond_t_end_is_end_only(tmp_path):
    for cadence in (0, 1e308):
        path = flat_config(tmp_path, output_cadence=cadence, snapshot_cadence=1e308)
        assert main(["simulate", str(path)]) == 0
        rows = (tmp_path / "out" / "diagnostics.csv").read_text().strip().split("\n")[1:]
        assert [float(r.split(",")[0]) for r in rows] == [0.0, 0.2]
        snaps = sorted(p.name for p in (tmp_path / "out").glob("snapshot_*.json"))
        assert snaps == ["snapshot_t0.000000.json", "snapshot_t0.200000.json"]


def test_simulate_blowup_exits_3_with_partial_output(tmp_path, monkeypatch):
    path = flat_config(tmp_path)

    def explode(*args, **kwargs):
        raise solver.BlowUpError(0.125, rows=[solver.DiagnosticsRow(0, 1, 0, 0, 0, 0, 0, 0)])

    monkeypatch.setattr(solver, "run", explode)
    assert main(["simulate", str(path)]) == 3
    assert (tmp_path / "out" / "diagnostics.csv").exists()


def test_simulate_deterministic_bytes(tmp_path):
    path = flat_config(
        tmp_path,
        initial_data={
            "X_modes": [{"component": 1, "wave": [1], "amplitude": 0.1, "phase": 0.0}],
            "V_modes": [{"component": 1, "wave": [1], "amplitude": 0.05, "phase": 0.7}],
        },
    )
    assert main(["--output-dir", str(tmp_path / "a"), "simulate", str(path)]) == 0
    assert main(["--output-dir", str(tmp_path / "b"), "simulate", str(path)]) == 0
    assert (tmp_path / "a" / "diagnostics.csv").read_bytes() == (tmp_path / "b" / "diagnostics.csv").read_bytes()


def test_simulate_snapshots_round_trip(tmp_path):
    path = flat_config(tmp_path, snapshot_cadence=0.1)
    assert main(["simulate", str(path)]) == 0
    snaps = sorted((tmp_path / "out").glob("snapshot_*.json"))
    assert snaps
    doc = json.loads(snaps[0].read_text())
    assert doc["layout"] == [[[1], [1]]]
    values = np.array(doc["values"])
    assert values.shape == (4, 32)


def test_parse_config_rejects_wrong_mode_sizes(tmp_path):
    path = flat_config(
        tmp_path,
        initial_data={"X_modes": [{"component": 1, "wave": [1, 2], "amplitude": 0.1}], "V_modes": []},
    )
    with pytest.raises(ConfigError):
        parse_run_config(json.loads(path.read_text()))


# ---------------------------------------------------------------------------
# characteristics


def test_characteristics_flat_and_moving(tmp_path, capsys):
    doc = {"m": 1, "n": 1, "state": {"tau": 1.0, "d": [0.0], "v": [0.0], "minors": [0.0]}}
    path = tmp_path / "state.json"
    path.write_text(json.dumps(doc))
    assert main(["characteristics", str(path)]) == 0
    out = capsys.readouterr().out
    assert "1 2" in out and "-1 2" in out

    doc["state"]["tau"], doc["state"]["v"] = 0.5, [0.2]
    path.write_text(json.dumps(doc))
    assert main(["characteristics", str(path)]) == 0
    out = capsys.readouterr().out
    assert "0.69999999999999996 2" in out
    assert "-0.29999999999999999 2" in out


def test_characteristics_n2_numeric(tmp_path, capsys):
    doc = {
        "m": 1,
        "n": 2,
        "state": {"tau": 1.0, "d": [0.1], "v": [0.05, -0.02], "minors": [0.1, 0.2]},
        "nu": [0.6, 0.8],
    }
    path = tmp_path / "state.json"
    path.write_text(json.dumps(doc))
    assert main(["characteristics", str(path)]) == 0
    out = capsys.readouterr().out
    spec = [float(x) for x in out.strip().split("\n")[-1].split()[1:]]
    assert len(spec) == 6  # n + m + C(m+n, n) = 2 + 1 + 3
    assert spec == sorted(spec)


def test_characteristics_extreme_nu_scales(tmp_path, capsys):
    # the norm of [1e200, 1e200] overflows and that of [1e-200, 1e-200] underflows unless nu is scaled first
    doc = {"m": 1, "n": 2, "state": {"tau": 0.8, "d": [0.1], "v": [0.2, -0.1], "minors": [0.3, 0.1]}}
    path = tmp_path / "state.json"
    spectra = []
    for nu in ([1.0, 1.0], [1e200, 1e200], [1e-200, 1e-200]):
        path.write_text(json.dumps({**doc, "nu": nu}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["characteristics", str(path)]) == 0
        spectra.append(capsys.readouterr().out)
    assert spectra[1] == spectra[0] and spectra[2] == spectra[0]


def test_characteristics_bad_state_exits_2(tmp_path):
    path = tmp_path / "state.json"
    path.write_text(json.dumps({"m": 1, "n": 1, "state": {"tau": 1.0, "d": [], "v": [0.0], "minors": [0.0]}}))
    assert main(["characteristics", str(path)]) == 2


def test_characteristics_validation_messages(tmp_path, capsys):
    state = {"tau": 1.0, "d": [0.0], "v": [0.0], "minors": [0.0]}
    cases = [
        ({"state": dict(state, d=5)}, "state.d"),
        ({"state": dict(state, v="x")}, "state.v"),
        ({"state": dict(state, minors={"a": 1})}, "state.minors"),
        ({"state": dict(state, d=[0.0, 1.0])}, "state.d"),
        ({"nu": 3}, "nu"),
        ({"nu": [0.0]}, "nu: must be a nonzero direction"),
        ({"nu": [1.0, 0.0]}, "nu"),
        ({"state": dict(state, tau=0.0)}, "state.tau"),
        ({"state": dict(state, tau=-1.0)}, "state.tau"),
        ({"state": dict(state, tau=1e-13)}, "state.tau"),
        ({"schema": 7}, "state file.schema"),
        ({"m": 9}, "state file.m"),
        ({"n": 3}, "state file.n"),
    ]
    for bad, key in cases:
        doc = {"m": 1, "n": 1, "state": state, **bad}
        path = tmp_path / "state.json"
        path.write_text(json.dumps(doc))
        assert_rejected(["characteristics", str(path)], key, capsys)
    path.write_text(json.dumps({"schema": 1, "m": 1, "n": 1, "state": state, "nu": [-2.0]}))
    assert main(["characteristics", str(path)]) == 0


# ---------------------------------------------------------------------------
# mcf-compare


def mcf_config(tmp_path, **overrides):
    cfg = {
        "schema": 1,
        "m": 1,
        "n": 1,
        "grid": {"sizes": [64], "lengths": [6.283185307179586]},
        "initial_data": {"X_modes": [{"component": 1, "wave": [1], "amplitude": 0.1, "phase": 0.0}]},
        "dt_values": [0.004, 0.002],
        "output_dir": str(tmp_path / "out"),
    }
    cfg.update(overrides)
    path = tmp_path / "mcf.json"
    path.write_text(json.dumps(cfg))
    return path


def test_mcf_compare_runs_and_reports_order(tmp_path, capsys):
    path = mcf_config(tmp_path)
    assert main(["mcf-compare", str(path)]) == 0
    out = capsys.readouterr().out
    order = float(out.split("acceleration order in dt:")[1].split("\n")[0])
    assert order > 1.8
    lines = (tmp_path / "out" / "mcf_compare.csv").read_text().strip().split("\n")
    assert lines[0] == "t,err_acceleration_Linf,tangency_residual,radius_or_amplitude"
    assert len(lines) == 3


def test_mcf_compare_single_dt_leaves_order_empty(tmp_path, capsys):
    path = mcf_config(tmp_path, dt_values=[0.004])
    assert main(["mcf-compare", str(path)]) == 0
    out = capsys.readouterr().out
    assert out.split("acceleration order in dt:")[1].split("\n")[0].strip() == ""


def test_mcf_compare_rejects_nonzero_velocity(tmp_path):
    path = mcf_config(
        tmp_path,
        initial_data={
            "X_modes": [{"component": 1, "wave": [1], "amplitude": 0.1}],
            "V_modes": [{"component": 1, "wave": [1], "amplitude": 0.1}],
        },
    )
    assert main(["mcf-compare", str(path)]) == 2


def test_mcf_compare_validation_messages(tmp_path, capsys):
    mode = {"component": 1, "wave": [1], "amplitude": 0.1}
    circle = {"radius": 1.0, "points": 64, "theta_end": 0.01}
    cases = [
        ({"m": 7}, "config.m"),
        ({"m": "x"}, "config.m"),
        ({"n": 3}, "config.n"),
        ({"grid": {"sizes": [64.7], "lengths": [6.0]}}, "config.grid.sizes"),
        ({"scheme": {"stencil_order": 3}}, "config.scheme.stencil_order"),
        ({"scheme": {"stencil_order": "a"}}, "config.scheme.stencil_order"),
        ({"scheme": {"stencil_order": 4}}, "config.scheme.stencil_order: must be 2"),
        ({"scheme": {"cfl": 5.0}}, "config.scheme.cfl"),
        ({"initial_data": {"X_modes": [dict(mode, component=1.5)]}}, "config.initial_data.X_modes[0].component"),
        ({"dt_values": [0.0]}, "config.dt_values"),
        ({"dt_values": [0.004, 0.004]}, "config.dt_values: entries must be distinct"),
        ({"dt_values": [0.004, 0.002, 0.004]}, "config.dt_values"),
        ({"circle": dict(circle, points=64.7)}, "config.circle.points"),
        ({"circle": dict(circle, points="x")}, "config.circle.points"),
        ({"circle": dict(circle, step_factor=0)}, "config.circle.step_factor"),
        ({"graph_flow": {"theta_end": 0.01, "step_factor": -1}}, "config.graph_flow.step_factor"),
        # the circle of radius r collapses at theta = r^2 / 2
        ({"circle": dict(circle, theta_end=0.7)}, "config.circle.theta_end: must be below the collapse time"),
        ({"circle": dict(circle, theta_end=0.5)}, "config.circle.theta_end"),
        ({"circle": dict(circle, radius=0.2, theta_end=0.03)}, "config.circle.theta_end"),
        # the arclength step (radius * du)^2 and the mean radius overflow with radius^2
        ({"circle": dict(circle, radius=1e200)}, "config.circle.radius: too large"),
        # the acceleration divides by dt^2, which must not underflow
        ({"dt_values": [1e-300, 1e-3]}, "config.dt_values: too small"),
        ({"dt_values": [5e-324]}, "config.dt_values: too small"),
        # step bounds that underflow to 0, and step counts above MAX_STEPS
        ({"dt_values": [1e300, 1e-3]}, "config.dt_values, config.scheme.cfl: reaching 1e+300 in steps"),
        ({"scheme": {"cfl": 1e-300}}, "config.dt_values, config.scheme.cfl: reaching 0.004 in steps"),
        ({"circle": dict(circle, step_factor=5e-324)}, "config.circle.step_factor, config.circle.theta_end: end time"),
        ({"circle": dict(circle, step_factor=1e-12)}, "config.circle.step_factor, config.circle.theta_end: reaching"),
        ({"graph_flow": {"theta_end": 0.01, "step_factor": 5e-324}}, "config.graph_flow.step_factor"),
        ({"graph_flow": {"theta_end": 0.01, "step_factor": 1e-12}}, "config.graph_flow.step_factor"),
    ]
    for bad, key in cases:
        path = mcf_config(tmp_path, **bad)
        assert_rejected(["mcf-compare", str(path)], key, capsys)
    # the same on the bundled config, whose graph flow would take about 4e13 steps at step_factor 1e-12
    bundled = json.loads((CONFIG_DIR / "mcf_sine.json").read_text())
    cases = [
        ({"dt_values": [1e-300, 1e-3]}, "config.dt_values"),
        ({"dt_values": [1e300, 1e-3]}, "config.dt_values"),
        ({"graph_flow": dict(bundled["graph_flow"], step_factor=5e-324)}, "config.graph_flow.step_factor"),
        ({"graph_flow": dict(bundled["graph_flow"], step_factor=1e-12)}, "config.graph_flow.step_factor"),
        ({"circle": dict(bundled["circle"], step_factor=5e-324)}, "config.circle.step_factor"),
    ]
    for bad, key in cases:
        path = tmp_path / "bundled.json"
        path.write_text(json.dumps(dict(bundled, output_dir=str(tmp_path / "out"), **bad)))
        assert_rejected(["mcf-compare", str(path)], key, capsys)


def test_uncreatable_output_dir_exits_2_before_the_run(tmp_path, capsys, monkeypatch):
    blocker = tmp_path / "a_file"
    blocker.write_text("")
    bad = str(blocker / "out")

    def not_reached(*args, **kwargs):
        raise AssertionError("the run started")

    monkeypatch.setattr(cli.solver, "run", not_reached)
    monkeypatch.setattr(cli.mcf, "acceleration_limit_test", not_reached)
    for command, config in (("simulate", flat_config), ("mcf-compare", mcf_config)):
        assert_rejected([command, str(config(tmp_path, output_dir=bad))], "config.output_dir", capsys)
        # the flag overrides a usable config.output_dir and is the one named
        assert_rejected(["--output-dir", bad, command, str(config(tmp_path))], "--output-dir", capsys)


def test_mcf_compare_uses_config_m(tmp_path, monkeypatch):
    seen = []
    real = cli.mcf.acceleration_limit_test

    def spy(grid, m, *args, **kwargs):
        seen.append(m)
        return real(grid, m, *args, **kwargs)

    monkeypatch.setattr(cli.mcf, "acceleration_limit_test", spy)
    assert main(["mcf-compare", str(mcf_config(tmp_path, m=2, dt_values=[0.004]))]) == 0
    assert seen == [2]


def test_mcf_compare_flat_graph_without_modes(tmp_path, capsys):
    path = mcf_config(
        tmp_path,
        initial_data={"X_modes": []},
        circle={"radius": 1.0, "points": 64, "theta_end": 0.01},
        graph_flow={"theta_end": 0.01},
    )
    assert main(["mcf-compare", str(path)]) == 0
    lines = (tmp_path / "out" / "mcf_compare.csv").read_text().strip().split("\n")[1:]
    assert [float(x) for x in lines[0].split(",")[1:]] == [0.0, 0.0, 0.0]


def _csv_blocks(path):
    """The acceleration rows, then one list of (theta, value) per reference flow."""
    rows = [line.split(",") for line in path.read_text().strip().split("\n")[1:]]
    blocks = []
    for theta, accel, _, value in rows:
        if accel == "":
            if float(theta) == 0.0:
                blocks.append([])
            blocks[-1].append((float(theta), float(value)))
    return blocks


def test_sampled_rows_keep_the_stride_and_the_last_row():
    assert cli._sampled_rows(5) == [0, 1, 2, 3, 4]
    assert cli._sampled_rows(69) == list(range(0, 69, 2))
    assert cli._sampled_rows(70) == list(range(0, 70, 2)) + [69]
    assert cli._sampled_rows(409) == list(range(0, 409, 12))


def test_mcf_compare_writes_each_flow_final_row(tmp_path):
    # 64 points: 69 equal steps (70 rows) in both flows, so the stride of 2
    # misses the last row and it is appended
    path = mcf_config(
        tmp_path,
        dt_values=[0.004],
        circle={"radius": 1.0, "points": 64, "theta_end": 0.335, "step_factor": 0.05},
        graph_flow={"theta_end": 0.67},
    )
    assert main(["mcf-compare", str(path)]) == 0
    circle, graph = _csv_blocks(tmp_path / "out" / "mcf_compare.csv")
    for block, theta_end in ((circle, 0.335), (graph, 0.67)):
        assert len(block) == 36
        assert block[-1][0] == theta_end
        assert block[-2][0] == pytest.approx(68 * theta_end / 69, rel=1e-12)


def test_mcf_compare_huge_circle_ends_on_theta_end(tmp_path):
    # one step of at most step_factor * radius^2 * du covers theta_end, so the
    # only row after theta = 0 is theta_end itself (it was 6.0e295); with
    # step_factor 1e308 the step bound overflows to inf and is still one step
    for step_factor in (0.1, 1e308):
        circle = {"radius": 1e150, "points": 64, "theta_end": 0.25, "step_factor": step_factor}
        path = mcf_config(tmp_path, dt_values=[0.004], circle=circle)
        assert main(["mcf-compare", str(path)]) == 0
        (rows,) = _csv_blocks(tmp_path / "out" / "mcf_compare.csv")
        assert [theta for theta, _ in rows] == [0.0, 0.25]
        assert rows[-1][1] == pytest.approx(1e150, rel=1e-12)


def test_bundled_configs_parse():
    for name in ("string_n1.json", "membrane_n2.json", "flat_n1.json"):
        parse_run_config(json.loads((CONFIG_DIR / name).read_text()))
    cli.parse_mcf_config(json.loads((CONFIG_DIR / "mcf_sine.json").read_text()))


def test_threads_flag_validation(tmp_path, capsys):
    # --threads had no effect and was removed; argparse now rejects it
    path = flat_config(tmp_path)
    assert_rejected(["--threads=2", "simulate", str(path)], "--threads", capsys)
    assert_rejected(["simulate", str(path), "--threads", "2"], "--threads", capsys)
    # as a leading flag its value is read as the command, which argparse names instead
    assert_rejected(["--threads", "2", "simulate", str(path)], "invalid choice: '2'", capsys)


def test_python_m_branesim_runs_without_warning():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-W", "default", "-m", "branesim", "verify", "--samples", "1"],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "RuntimeWarning" not in proc.stderr
    assert json.loads(proc.stdout)
