import ast
import errno
import hashlib
import importlib
import importlib.util
import json
import math
import os
import pkgutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import branesim
from branesim import cli, mcf, minors, solver, state
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


def test_verify_rejects_bad_shape_token(monkeypatch, capsys):
    def not_reached(*args, **kwargs):
        raise AssertionError("verify ran")

    # a 20x20 layout alone would enumerate C(40, 20) pairs, so cmd_verify must never see these
    monkeypatch.setattr(cli, "cmd_verify", not_reached)
    for token in ("2xx", "1x\u00b2", "0x2", "2x0", "7x1", "1x7", "20x20", "1x1,6x7"):
        assert_rejected(["verify", "--shapes", token], "--shapes", capsys)
    # a repeated shape would run and count twice
    assert_rejected(["verify", "--shapes", "1x1,2x1, 1x1"], "--shapes: 1x1 is repeated", capsys)
    monkeypatch.undo()
    assert main(["verify", "--samples", "0", "--shapes", "6x6,1x6"]) == 0


def test_verify_draws_ints_and_takes_all_31_values(monkeypatch):
    draws = []
    real_draw = cli._rand_matrix

    def spy(rng, m, n):
        draws.append(real_draw(rng, m, n))
        return draws[-1]

    monkeypatch.setattr(cli, "_rand_matrix", spy)
    cmd_verify(cli.DEFAULT_VERIFY_SHAPES, samples=200, seed=0)
    values = [x for F in draws for row in F for x in row]
    assert all(type(x) is int for x in values)
    assert set(values) == set(range(-15, 16))


def test_verify_rejects_a_negative_seed(monkeypatch, capsys):
    def not_reached(*args, **kwargs):
        raise AssertionError("verify ran")

    # random.Random(-7) draws the samples of Random(7), which the report would label -7
    monkeypatch.setattr(cli, "cmd_verify", not_reached)
    for seed in ("-1", "-7"):
        assert main(["--seed", seed, "verify", "--samples", "1"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: --seed must be >= 0") and err.count("\n") == 1


def test_verify_rejects_a_negative_sample_count(monkeypatch, capsys):
    monkeypatch.setattr(cli, "cmd_verify", lambda *args: _raise(AssertionError("verify ran")))
    capsys.readouterr()
    assert main(["verify", "--samples", "-1"]) == 2
    assert capsys.readouterr() == ("", "error: --samples must be >= 0\n")


@pytest.mark.parametrize(
    "argv, line",
    [
        (["--seed", "5", "simulate"], "--seed: simulate draws no random samples; only verify takes a seed"),
        (["--seed", "0", "characteristics"], "--seed: characteristics draws no random samples; only verify takes a seed"),
        (["--seed", "1", "mcf-compare"], "--seed: mcf-compare draws no random samples; only verify takes a seed"),
        (["--output-dir", "out", "verify"], "--output-dir: verify writes no files; it prints to stdout"),
        (["--output-dir", "", "characteristics"], "--output-dir: characteristics writes no files; it prints to stdout"),
    ],
    ids=["seed-simulate", "seed-characteristics", "seed-mcf-compare", "output-dir-verify", "output-dir-characteristics"],
)
def test_a_global_flag_the_command_does_not_read_exits_2(monkeypatch, capsys, argv, line):
    # refused before the command runs, with one line naming the flag
    for name in ("cmd_verify", "cmd_simulate", "cmd_characteristics", "cmd_mcf_compare"):
        monkeypatch.setattr(cli, name, lambda *args: _raise(AssertionError("the command ran")))
    capsys.readouterr()
    assert main(argv + ([] if argv[-1] == "verify" else ["input.json"])) == 2
    assert capsys.readouterr() == ("", f"error: {line}\n")


def test_the_benchmark_check_accepts_the_report(tmp_path, capsys):
    # a report change that the benchmark would count as a failed run (ok_frac) must fail here too
    wl = _benchmark_workloads()
    for seed in (0, 3):
        assert main(["--seed", str(seed), "verify", "--samples", "3"]) == 0
        wl.Verify(seed, {"samples": 3}).check(tmp_path, capsys.readouterr().out)


def test_verify_report_bytes_are_pinned():
    doc = cmd_verify(cli.DEFAULT_VERIFY_SHAPES, samples=20, seed=7).to_json()
    assert hashlib.sha256(doc.encode()).hexdigest() == "13efdac10f966740feeca9a89e0b0651bbeff3c10aaf725e1770d36ab626f319"


def test_verify_report_bytes_past_3x3_are_pinned(capsys):
    # the 4x4, 3x5 and 1x6 samples take the adjugate and determinant of 4x4 to 6x6 Gram
    # matrices, so this pins the cofactor loop that runs past the written-out 2x2 and 3x3 forms
    assert main(["--seed", "3", "verify", "--shapes", "4x4,5x3,3x5,1x6", "--samples", "4"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == "225fdae8b1aa49f040f1321a4a0641512c126a7aebe80d48f87b3c4a3db3ab9d"


# per planted fault, the minors function it is planted in and the identity it breaks; xi, Z and
# xi' are the three parts of one xi_prime call, so their faults go into that call's output
PLANTED = {
    "laplace_mixed": ("laplace_mixed", "laplace_mixed"),
    "cauchy_binet_check": ("cauchy_binet_check", "cauchy_binet"),
    "xi": ("xi_prime", "xi"),
    "xi_minor_sum": ("xi_minor_sum", "xi"),
    "xi_prime": ("xi_prime", "xi_prime"),
    "xi_prime_minor_sum": ("xi_prime_minor_sum", "xi_prime"),
    "z_matrix": ("xi_prime", "z_matrix"),
    "z_minor_sum": ("z_minor_sum", "z_matrix"),
}


@pytest.mark.parametrize("fault", sorted(PLANTED))
def test_verify_failures_carry_the_drawn_matrices(monkeypatch, fault):
    draws = []
    real_draw = cli._rand_matrix

    def spy(rng, m, n):
        draws.append(real_draw(rng, m, n))
        return draws[-1]

    target, name = PLANTED[fault]
    real = getattr(minors, target)

    def planted(*args):
        out = real(*args)
        if fault == "cauchy_binet_check":
            (lhs, rhs), *rest = out  # the first pair of the call
            return [(lhs, rhs + 1), *rest]
        if fault == "xi":
            return out[0] + 1, out[1], out[2]
        if fault == "xi_minor_sum":
            return out + 1
        # a matrix: Z or xi' (the F·Z product) of xi_prime, a minor sum, or the first pair's Laplace matrix
        if target == "xi_prime":
            mat = out[1] if fault == "z_matrix" else out[2]
        else:
            mat = out[0] if fault == "laplace_mixed" else out
        mat[0][0] = mat[0][0] + 1
        return out

    monkeypatch.setattr(cli, "_rand_matrix", spy)
    monkeypatch.setattr(minors, target, planted)
    report = cmd_verify(shapes=[(2, 2), (1, 3)], samples=4, seed=5)

    def strs(F):
        return [[str(x) for x in row] for row in F]

    # each sample draws F, then M and N
    if fault == "cauchy_binet_check":
        want = [{"M": strs(M), "N": strs(N)} for M, N in zip(draws[1::3], draws[2::3])]
    else:
        want = [strs(F) for F in draws[0::3]]
    assert report.passes[name] == {"pass": 0, "fail": 8}
    assert all(v == {"pass": 8, "fail": 0} for k, v in report.passes.items() if k != name)
    assert [f["input"] for f in report.failures] == want


@pytest.mark.parametrize("table, identity", [("_xi_prime_table", "xi_prime"), ("_z_table", "z_matrix")])
def test_a_flipped_sign_in_a_minor_sum_table_fails_its_identity(monkeypatch, table, identity):
    real = getattr(minors, table)

    def flipped(layout):
        # the last term of the layout, a product of two minors on every shape but 1x1
        *head, (cell, slot, other, minus) = real(layout)
        return (*head, (cell, slot, other, not minus))

    monkeypatch.setattr(minors, table, flipped)
    report = cmd_verify(shapes=[(2, 2), (3, 2)], samples=4, seed=5)
    assert report.passes[identity]["fail"] > 0
    assert all(v["fail"] == 0 for k, v in report.passes.items() if k != identity)


def test_verify_calls_each_minors_function_once_per_sample(monkeypatch):
    # all minors, the Gram side (xi, Z, xi'), every Laplace pair and every Cauchy-Binet pair:
    # one call each per sample and shape, never one per index pair or per k
    calls = {name: [] for name in ("all_minors", "xi_prime", "laplace_mixed", "cauchy_binet_check")}

    def spy(name, real):
        def wrapped(first, *rest):
            # the shape (m, n) of the sample: F, or M (m x l) with N (l x n)
            calls[name].append((len(first), len(rest[0][0]) if name == "cauchy_binet_check" else len(first[0])))
            return real(first, *rest)

        return wrapped

    for name in calls:
        monkeypatch.setattr(minors, name, spy(name, getattr(minors, name)))
    samples = 3
    report = cmd_verify(cli.DEFAULT_VERIFY_SHAPES, samples=samples, seed=0)
    assert report.all_passed()
    want = [shape for shape in cli.DEFAULT_VERIFY_SHAPES for _ in range(samples)]
    for name, got in calls.items():
        assert got == want, name


def test_verify_formats_the_drawn_matrices_only_for_a_failure(monkeypatch):
    formatted = []
    real = cli._strs

    def spy(F):
        formatted.append(F)
        return real(F)

    monkeypatch.setattr(cli, "_strs", spy)
    assert cmd_verify(cli.DEFAULT_VERIFY_SHAPES, samples=3, seed=0).all_passed()
    assert formatted == []


def test_verify_hands_the_minors_layer_only_ints(monkeypatch):
    # every suite runs on the drawn integer matrices themselves, as the solver's calls do
    matrices = ("xi_prime", "all_minors", "laplace_mixed", "cauchy_binet_check")
    spied = (*matrices, "xi_minor_sum", "xi_prime_minor_sum", "z_minor_sum")
    seen = {name: [] for name in spied}

    def spy(name, real):
        def wrapped(first, *rest):
            seen[name].append(first)
            if name == "cauchy_binet_check":
                seen[name].append(rest[0])  # N as well as M
            return real(first, *rest)

        return wrapped

    for name in spied:
        monkeypatch.setattr(minors, name, spy(name, getattr(minors, name)))
    report = cmd_verify(shapes=[(1, 1), (2, 2), (3, 2)], samples=3, seed=5)
    assert report.all_passed()
    for name in matrices:
        assert seen[name] and all(type(x) is int for F in seen[name] for row in F for x in row), name
    for name in ("xi_minor_sum", "xi_prime_minor_sum", "z_minor_sum"):
        assert seen[name] and all(type(x) is int for mv in seen[name] for x in mv), name


def test_verify_passes_on_shapes_past_the_defaults():
    # 4x4 minors take the cofactor expansion past 3x3, and both shapes need tables of their own
    report = cmd_verify(shapes=[(4, 4), (5, 3)], samples=2, seed=0)
    assert report.all_passed()
    assert all(v == {"pass": 4, "fail": 0} for v in report.passes.values())


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
        ({"schema": True}, "config.schema"),
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
        (
            {"initial_data": {"X_modes": [], "V_modes": [dict(mode, amplitude=1.2)]}},
            "config.initial_data: initial data is not time-like enough",
        ),
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
    string["initial_data"]["V_modes"][0]["amplitude"] = 1.2
    path.write_text(json.dumps(dict(string, output_dir=str(tmp_path / "out"))))
    assert_rejected(["simulate", str(path)], "config.initial_data: initial data is not time-like enough", capsys)
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
    # numpy's floating-point warnings stay quiet; the blow-up line is all of stderr, and it
    # names the RK stage, the component and the grid point that first went non-finite
    assert capsys.readouterr().err == (
        f"blow-up at t=0.196078; partial diagnostics written to {tmp_path / 'out'}; "
        "non-finite state in RK stage 2: tau at grid index [17]\n"
    )
    # the time is k * dt of the failing step, one step past the last row written
    (t, dt_max), = raised
    dt = 5.0 / math.ceil(5.0 / dt_max)
    k = round(t / dt)
    assert t == k * dt
    rows = (tmp_path / "out" / "diagnostics.csv").read_text().strip().split("\n")[1:]
    assert float(rows[-1].split(",")[0]) < t


def test_simulate_guard_in_a_diagnostics_row_exits_3_with_the_rows_before_it(tmp_path, capsys):
    # tau grows to about 8e18 by the t = 0.294 row, whose entropy flux trips the |h| guard,
    # which names the grid index of the smallest |h|
    cfg = json.loads((CONFIG_DIR / "string_n1.json").read_text())
    cfg["initial_data"]["X_modes"][0].update(amplitude=2.0, wave=[3])
    cfg["initial_data"]["V_modes"][0].update(amplitude=0.9, wave=[3])
    cfg.update(t_end=5.0, output_dir=str(tmp_path / "out"))
    path = tmp_path / "guard.json"
    path.write_text(json.dumps(cfg))
    capsys.readouterr()
    assert main(["simulate", str(path)]) == 3
    assert capsys.readouterr().err == (
        f"blow-up at t=0.294118; partial diagnostics written to {tmp_path / 'out'}; min |h| = 1.20687e-19 at grid index [148]\n"
    )
    rows = (tmp_path / "out" / "diagnostics.csv").read_text().strip().split("\n")[1:]
    assert [float(r.split(",")[0]) for r in rows] == pytest.approx([0.0, 5.0 / 51, 10.0 / 51], rel=1e-15)
    assert sorted(p.name for p in (tmp_path / "out").glob("snapshot_*.json")) == ["snapshot_t0.000000.json"]


def test_simulate_rejects_snapshots_that_share_a_file_name(tmp_path, capsys, monkeypatch):
    # one step of 4e-7: the snapshots at t = 0 and t = 4e-7 both format to snapshot_t0.000000.json.
    # The planned times are checked before the first step, so nothing is written
    cfg = json.loads((CONFIG_DIR / "string_n1.json").read_text())
    cfg.update(t_end=4e-7, snapshot_cadence=1e-7, output_cadence=0, output_dir=str(tmp_path / "out"))
    path = tmp_path / "snap.json"
    path.write_text(json.dumps(cfg))
    monkeypatch.setattr(solver, "rk4_step", lambda *args: pytest.fail("the run took a step"))
    assert_rejected(["simulate", str(path)], "config.snapshot_cadence: two snapshot times format to one file name", capsys)
    assert not list((tmp_path / "out").iterdir())


def test_simulate_writes_a_snapshot_every_cadence_and_at_the_end(tmp_path):
    # the flat string takes 13 steps to t_end = 1: one snapshot every third step, and the last
    path = flat_config(tmp_path, t_end=1.0, snapshot_cadence=0.25)
    assert main(["simulate", str(path)]) == 0
    assert len(list((tmp_path / "out").glob("snapshot_*.json"))) == 6


def test_an_interrupted_simulate_keeps_the_snapshots_it_took(tmp_path, monkeypatch):
    # each snapshot is on disk as soon as the run takes it: a run stopped in its third
    # step leaves those at t = 0 and after steps 1 and 2, byte for byte as a whole run does.
    # The rows taken by then, one a step, are written too, as the first lines of the whole run's file
    moving = {
        "X_modes": [{"component": 1, "wave": [1], "amplitude": 0.1, "phase": 0.0}],
        "V_modes": [{"component": 1, "wave": [1], "amplitude": 0.05, "phase": 0.7}],
    }
    path = flat_config(tmp_path, t_end=1.0, output_cadence=1e-3, snapshot_cadence=1e-3, initial_data=moving)
    assert main(["--output-dir", str(tmp_path / "whole"), "simulate", str(path)]) == 0
    real, calls = solver.rk4_step, []

    def interrupt_third(*args):
        calls.append(None)
        if len(calls) == 3:
            raise KeyboardInterrupt
        return real(*args)

    monkeypatch.setattr(solver, "rk4_step", interrupt_third)
    with pytest.raises(KeyboardInterrupt):
        main(["--output-dir", str(tmp_path / "cut"), "simulate", str(path)])
    cut = sorted((tmp_path / "cut").glob("snapshot_*.json"))
    whole = sorted((tmp_path / "whole").glob("snapshot_*.json"))
    assert [p.name for p in cut] == [p.name for p in whole[:3]]
    assert [p.read_bytes() for p in cut] == [p.read_bytes() for p in whole[:3]]
    cut_csv, whole_csv = ((tmp_path / d / "diagnostics.csv").read_bytes() for d in ("cut", "whole"))
    assert cut_csv.splitlines(keepends=True) == whole_csv.splitlines(keepends=True)[:4]


@pytest.mark.parametrize(
    "command, blocked",
    [
        ("simulate", "diagnostics.csv"),
        ("simulate", "snapshot_t0.000000.json"),
        ("simulate", "snapshot_t0.153846.json"),
        ("mcf-compare", "mcf_compare.csv"),
    ],
)
@pytest.mark.parametrize("flag", [False, True], ids=["config", "flag"])
def test_an_output_that_cannot_be_written_exits_2(tmp_path, capsys, command, blocked, flag):
    # an output file name taken by a directory: one line naming the file and the output
    # directory's key, with no traceback.  Snapshots are written during the run, yet their
    # line does not name the keys that size it
    config = flat_config(tmp_path, t_end=1.0, snapshot_cadence=0.15) if command == "simulate" else mcf_config(tmp_path)
    (tmp_path / "out" / blocked).mkdir(parents=True)
    capsys.readouterr()
    assert main((["--output-dir", str(tmp_path / "out")] if flag else []) + [command, str(config)]) == 2
    out, err = capsys.readouterr()
    key = "--output-dir" if flag else "config.output_dir"
    reason = f"[Errno {errno.EISDIR}] {os.strerror(errno.EISDIR)}"
    assert out == "" and err == f"error: {key}: {reason}: '{tmp_path / 'out' / blocked}'\n"
    if blocked.startswith("snapshot_t"):
        # a row every one of the 13 steps: those up to the snapshot that failed are kept
        rows = (tmp_path / "out" / "diagnostics.csv").read_text().splitlines()[1:]
        last = round(float(blocked[len("snapshot_t") : -len(".json")]) * 13)
        assert [float(r.split(",")[0]) for r in rows] == pytest.approx([k / 13 for k in range(last + 1)], rel=1e-15)


def test_invalid_json_exits_2_naming_the_file(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"m": 1,')
    for command in ("simulate", "characteristics", "mcf-compare"):
        capsys.readouterr()
        assert main([command, str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(f"error: {path}: invalid JSON (") and err.count("\n") == 1


def test_non_utf8_input_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_bytes(b'\xff\xfe{"m": 1}')
    for command in ("simulate", "characteristics", "mcf-compare"):
        assert_rejected([command, str(path)], "not UTF-8", capsys)


@pytest.mark.parametrize(
    "command, old, new, key",
    [
        ("simulate", '"t_end": 0.2', '"t_end": 0.5, "t_end": 0.25', "t_end"),
        ("simulate", '"sizes": [32]', '"sizes": [32], "sizes": [64]', "sizes"),
        ("characteristics", '"v": [0.0]', '"v": [0.0], "v": [0.5]', "v"),
    ],
    ids=["config", "nested-config", "state-file"],
)
def test_a_repeated_key_exits_2_naming_the_file_and_the_key(tmp_path, capsys, command, old, new, key):
    # json.loads alone would keep the last value and run on it
    if command == "simulate":
        path = flat_config(tmp_path)
    else:
        path = tmp_path / "state.json"
        path.write_text(json.dumps({"m": 1, "n": 1, "state": {"tau": 1.0, "d": [0.0], "v": [0.0], "minors": [0.0]}}))
    text = path.read_text()
    assert old in text
    path.write_text(text.replace(old, new))
    capsys.readouterr()
    assert main([command, str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: {path}: key {key!r} is given more than once\n"
    assert not (tmp_path / "out").exists()


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

    def explode(*args, on_row, **kwargs):
        on_row(solver.DiagnosticsRow(0, 1, 0, 0, 0, 0, 0, 0))
        raise solver.BlowUpError(0.125)

    monkeypatch.setattr(solver, "run", explode)
    assert main(["simulate", str(path)]) == 3
    assert (tmp_path / "out" / "diagnostics.csv").read_text() == solver.CSV_HEADER + "\n0,1,0,0,0,0,0,0,,\n"


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


def _table_matches_spectrum(out):
    """The speed table, expanded by its multiplicities and sorted, against the eigvalsh spectrum line."""
    lines = out.strip().split("\n")
    assert lines[0] == "speed multiplicity"
    rows = [line.split() for line in lines[1:-1] if not line.startswith("linear_degeneracy_residual")]
    table = sorted(float(speed) for speed, k in rows for _ in range(int(k)))
    spectrum = [float(x) for x in lines[-1].split()[1:]]
    assert len(table) == len(spectrum)
    return max(abs(a - b) for a, b in zip(table, spectrum)) <= 1e-12 * max(map(abs, spectrum))


def test_characteristics_table_follows_nu(tmp_path, capsys):
    # the table once ignored nu for n = 1 and printed 0.7 and -0.3 under a spectrum of -0.7 and 0.3
    path = tmp_path / "state.json"
    path.write_text(json.dumps({"m": 1, "n": 1, "state": {"tau": 0.5, "d": [0.0], "v": [0.2], "minors": [0.0]}, "nu": [-1]}))
    assert main(["characteristics", str(path)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("speed multiplicity\n0.29999999999999999 2\n-0.69999999999999996 2\n")
    assert _table_matches_spectrum(out)
    rng = np.random.default_rng(18)
    for m in (1, 2, 3):
        count = minors.enumerate_layout(m, 2).minor_count
        st = {"tau": 0.8, "d": rng.uniform(-1, 1, m).tolist(), "v": rng.uniform(-1, 1, 2).tolist(), "minors": rng.uniform(-1, 1, count).tolist()}
        for nu in ([3, 4], [0, 1], [-1, 2]):
            path.write_text(json.dumps({"m": m, "n": 2, "state": st, "nu": nu}))
            assert main(["characteristics", str(path)]) == 0
            out = capsys.readouterr().out
            assert len(out.splitlines()) == 5, out  # c + sigma, c - sigma and c, then the spectrum
            assert _table_matches_spectrum(out), (m, nu, out)


def test_characteristics_huge_tau_still_prints(tmp_path, capsys):
    # a naive sigma^2 overflows once tau passes about 1e154; W is scaled by a power of two first
    path = tmp_path / "state.json"
    want = {
        1e200: "9.9999999999999997e+199 2\n-9.9999999999999997e+199 2\n"
        "linear_degeneracy_residual 0\n"
        "spectrum -9.9999999999999997e+199 -9.9999999999999997e+199 9.9999999999999997e+199 9.9999999999999997e+199\n",
        1e300: "1.0000000000000001e+300 2\n-1.0000000000000001e+300 2\n"
        "linear_degeneracy_residual 0\n"
        "spectrum -9.999999999999999e+299 -9.999999999999999e+299 9.999999999999999e+299 9.999999999999999e+299\n",
    }
    n2 = {
        "m": 2,
        "n": 2,
        "state": {"tau": 1e200, "d": [1e199, 2e199], "v": [2e199, -1e199], "minors": [3e199, 1e199, -2e199, 4e199, 5e198]},
        "nu": [3, 4],
    }
    docs = [{"m": 1, "n": 1, "state": {"tau": tau, "d": [0.0], "v": [0.2], "minors": [0.0]}} for tau in want] + [n2]
    for doc, expected in zip(docs, [*want.values(), None]):
        path.write_text(json.dumps(doc))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["characteristics", str(path)]) == 0
        out = capsys.readouterr().out
        if expected is None:
            assert _table_matches_spectrum(out), out
        else:
            assert out == "speed multiplicity\n" + expected


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
        ({"schema": True}, "state file.schema"),
        ({"m": 9}, "state file.m"),
        ({"n": 3}, "state file.n"),
        # U = W / tau overflows, so no graph data (F, D) lies behind the state
        ({"state": {"tau": 1e-11, "d": [1e308], "v": [1e308], "minors": [1e308]}}, "state: too large"),
        # every W / tau is finite, but the spectrum held inf
        (
            {"m": 2, "n": 2, "state": {"tau": 1.0, "d": [1e308] * 2, "v": [1e308] * 2, "minors": [1e308] * 5}},
            "state: too large",
        ),
    ]
    for bad, key in cases:
        doc = {"m": 1, "n": 1, "state": state, **bad}
        path = tmp_path / "state.json"
        path.write_text(json.dumps(doc))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
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


def test_mcf_compare_failing_flow_writes_nothing(tmp_path, capsys):
    # the acceleration comparison passes; the graph flow then trips MAX_STEPS
    path = mcf_config(tmp_path, graph_flow={"theta_end": 0.01, "step_factor": 1e-12})
    assert main(["mcf-compare", str(path)]) == 2
    assert capsys.readouterr().out == ""
    assert not (tmp_path / "out" / "mcf_compare.csv").exists()


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
        ({"schema": True}, "config.schema"),
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


def _bundled_with(tmp_path, name, path, value):
    """The bundled config ``name`` with the value at the key path ``path`` replaced, written to tmp_path."""
    cfg = json.loads((CONFIG_DIR / name).read_text())
    cfg["output_dir"] = str(tmp_path / "out")
    parent = cfg
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    out = tmp_path / name
    out.write_text(json.dumps(cfg))
    return out


SIM, MCF = ("simulate", "string_n1.json"), ("mcf-compare", "mcf_sine.json")
X0 = ("initial_data", "X_modes", 0)
GRADIENTS = "config.initial_data: initial height gradients too large"
WAVE = "config.initial_data: wave vector of component 1 too large"


@pytest.mark.parametrize(
    "command, name, path, value, key",
    [
        # heights whose gradients square past the float range: NaN used to pass the time-like check
        pytest.param(*SIM, X0 + ("amplitude",), 1e300, GRADIENTS, id="x-amplitude-1e300"),
        pytest.param(*SIM, X0 + ("amplitude",), 1e160, GRADIENTS, id="x-amplitude-1e160"),
        pytest.param(*SIM, ("grid", "lengths"), [1e-300], GRADIENTS, id="length-1e-300"),
        # a spacing whose stencil scale 1 / (2 dx) overflows
        pytest.param(*SIM, ("grid", "lengths"), [1e-310], "config.grid.sizes: grid spacing", id="length-1e-310"),
        # finite, but tau = 1/h = 1e-100 used to exit 3 at the t = 0 row
        pytest.param(*SIM, X0 + ("amplitude",), 1e100, "config.initial_data: initial data too large", id="x-amp-1e100"),
        # it used to blame config.dt_values, config.scheme.cfl
        pytest.param(*MCF, X0 + ("amplitude",), 1e300, GRADIENTS, id="mcf-amplitude-1e300"),
        # a wave number past the float range used to raise OverflowError
        pytest.param(*SIM, X0 + ("wave",), [10**400], WAVE, id="x-wave-1e400"),
        pytest.param(*SIM, ("initial_data", "V_modes", 0, "wave"), [10**400], WAVE, id="v-wave-1e400"),
        pytest.param(*MCF, X0 + ("wave",), [10**400], WAVE, id="mcf-wave-1e400"),
        # grids past solver.MAX_POINTS are rejected before anything is allocated
        pytest.param(*SIM, ("grid", "sizes"), [1e15], "config.grid.sizes: a grid of 10" + "0" * 14, id="sizes-1e15"),
        pytest.param(*MCF, ("grid", "sizes"), [1e15], "config.grid.sizes: a grid of", id="mcf-sizes-1e15"),
        pytest.param(
            "simulate", "membrane_n2.json", ("grid", "sizes"), [1025, 1024], "config.grid.sizes: a grid of 1049600",
            id="sizes-past-budget",
        ),
        pytest.param(*MCF, ("circle", "points"), 10**15, "config.circle.points: must lie in [8, 1048576]", id="points"),
    ],
)
def test_overflowing_or_oversized_input_exits_2_naming_its_key(tmp_path, capsys, command, name, path, value, key):
    # one line on stderr: no traceback and no RuntimeWarning (pytest would raise the warning)
    capsys.readouterr()
    assert main([command, str(_bundled_with(tmp_path, name, path, value))]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: " + key) and err.count("\n") == 1, err
    assert not (tmp_path / "out").exists()


def test_the_point_budget_holds_a_1024_square_and_nothing_more():
    assert solver.Grid((1024, 1024), (1.0, 1.0)).sizes == (1024, 1024)
    with pytest.raises(ConfigError, match="a grid of 1048577 points exceeds the budget of 1048576"):
        solver.Grid((2**20 + 1,), (1.0,))


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


def test_empty_output_dir_flag_is_the_current_directory(tmp_path, monkeypatch):
    # a given flag wins over config.output_dir, and "" means ".", as "output_dir": "" does
    cwd = tmp_path / "cwd"
    cwd.mkdir()
    monkeypatch.chdir(cwd)
    for command, config, written in (
        ("simulate", flat_config, "diagnostics.csv"),
        ("mcf-compare", mcf_config, "mcf_compare.csv"),
    ):
        assert main(["--output-dir", "", command, str(config(tmp_path))]) == 0
        assert (cwd / written).is_file()
    assert not (tmp_path / "out").exists()


def test_mcf_compare_builds_its_initial_data_once(tmp_path, monkeypatch):
    # one build serves the acceleration comparison at every dt and the graph flow;
    # each binding of a counted function in the package is replaced, matched by identity
    counted = (solver.initial_fields, state.lift, mcf.graph_gauge_velocity)
    calls = dict.fromkeys((f.__name__ for f in counted), 0)

    def counting(fn):
        def spy(*args, **kwargs):
            calls[fn.__name__] += 1
            return fn(*args, **kwargs)

        return spy

    for module in (cli, mcf, solver, state):
        for attr, value in list(vars(module).items()):
            if any(value is f for f in counted):
                monkeypatch.setattr(module, attr, counting(value))
    assert main(["--output-dir", str(tmp_path), "mcf-compare", str(CONFIG_DIR / "mcf_sine.json")]) == 0
    assert calls == {"initial_fields": 1, "lift": 1, "graph_gauge_velocity": 1}


def test_mcf_compare_uses_config_m(tmp_path, monkeypatch):
    seen = []
    real = cli.mcf.acceleration_limit_test

    def spy(data, *args):
        seen.append(data[0].layout.m)
        return real(data, *args)

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


def test_mcf_compare_rejects_a_circle_step_past_the_collapse(tmp_path, capsys):
    # one step of 0.4999999 from radius 1 wrote a final radius of 0.42, where the exact
    # sqrt(1 - 2 theta) is 4.5e-4: the collapse at theta = 0.5 lies 1e-7 after theta_end
    bundled = json.loads((CONFIG_DIR / "mcf_sine.json").read_text())
    circle = {"radius": 1.0, "points": 16, "theta_end": 0.4999999, "step_factor": 100}
    path = tmp_path / "collapse.json"
    path.write_text(json.dumps(dict(bundled, circle=circle, output_dir=str(tmp_path / "out"))))
    key = "config.circle.step_factor, config.circle.theta_end: steps of 0.5 are longer than the 1e-07"
    assert_rejected(["mcf-compare", str(path)], key, capsys)
    assert not (tmp_path / "out" / "mcf_compare.csv").exists()


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


def _benchmark_workloads():
    """perfbench/workloads.py, loaded from its file and only read."""
    spec = importlib.util.spec_from_file_location("workloads", CONFIG_DIR.parent / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bundled_configs_parse():
    for name in ("string_n1.json", "membrane_n2.json", "flat_n1.json"):
        cli.initial_data(parse_run_config(json.loads((CONFIG_DIR / name).read_text())))
    cli.initial_data(cli.parse_mcf_config(json.loads((CONFIG_DIR / "mcf_sine.json").read_text())))
    # the benchmark generates its inputs from its own copies of the configs, so a
    # parser change that retires a key they send must change the generators too
    wl = _benchmark_workloads()
    for parse, template in (
        (parse_run_config, wl.STRESS_M3N2),
        (parse_run_config, wl.MEMBRANE_N2),
        (cli.parse_mcf_config, wl.MCF_SINE_RUN),
    ):
        for seed in (0, 3):
            cli.initial_data(parse(wl.shifted(template, seed)))


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
    for module in ("branesim", "branesim.cli"):
        proc = subprocess.run(
            [sys.executable, "-W", "default", "-m", module, "verify", "--samples", "1"],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        assert proc.returncode == 0, (module, proc.stderr)
        assert "RuntimeWarning" not in proc.stderr, module
        assert json.loads(proc.stdout)


RIGGED_VERIFY = """
import sys
from branesim import cli
real = cli.cmd_verify
def rigged(shapes, samples, seed):
    report = real(shapes, samples, seed)
    report.failures.append({"identity": "xi", "shape": [1, 1], "input": [["1"]]})
    return report
cli.cmd_verify = rigged
sys.exit(cli.main(sys.argv[1:]))
"""


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize(
    "argv, code",
    [
        (["-m", "branesim", "characteristics", "STATE"], 0),
        (["-m", "branesim", "verify", "--samples", "1"], 0),
        (["-c", RIGGED_VERIFY, "verify", "--samples", "1", "--shapes", "1x1"], 1),
    ],
    ids=["characteristics", "verify", "failed-verify"],
)
def test_a_closed_stdout_is_not_a_crash(tmp_path, argv, code, unbuffered):
    # stdout is a pipe whose reader has already gone: no traceback, and the code the command has with stdout open
    state_file = tmp_path / "state.json"
    state_file.write_text(json.dumps({"m": 1, "n": 1, "state": {"tau": 1.0, "d": [0.0], "v": [0.0], "minors": [0.0]}}))
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    r, w = os.pipe()
    os.close(r)
    try:
        proc = subprocess.run(
            [sys.executable, *(str(state_file) if a == "STATE" else a for a in argv)],
            stdout=w,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
            timeout=120,
        )
    finally:
        os.close(w)
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr and "BrokenPipeError" not in proc.stderr, proc.stderr


def test_the_only_exception_classes_are_config_and_blowup_errors():
    defined = {}
    for info in pkgutil.iter_modules(branesim.__path__):
        module = importlib.import_module(f"branesim.{info.name}")
        for name, obj in vars(module).items():
            if isinstance(obj, type) and issubclass(obj, BaseException) and obj.__module__ == module.__name__:
                defined[name] = obj
    assert defined == {"ConfigError": minors.ConfigError, "BlowUpError": state.BlowUpError}
    # the solver and the CLI re-export the same two classes
    assert solver.ConfigError is cli.ConfigError is minors.ConfigError
    assert solver.BlowUpError is cli.BlowUpError is state.BlowUpError


def test_every_function_the_benchmark_traces_exists():
    # perfbench/spans.py lists the functions whose calls and self time the benchmark
    # reports; one deleted or renamed here would drop out of those metrics unnoticed
    tree = ast.parse((Path(__file__).resolve().parents[1] / "perfbench" / "spans.py").read_text())
    (layers,) = (
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["LAYERS"]
    )
    missing = [
        f"{mod}.{fn}"
        for mod, fns in layers.items()
        for fn in fns
        if not callable(getattr(importlib.import_module(f"branesim.{mod}"), fn, None))
    ]
    assert "minors" in layers and missing == []
    # the term counter calls flux._direct_terms itself, outside LAYERS: one row a term, per point
    spec = importlib.util.spec_from_file_location("spans", CONFIG_DIR.parent / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    grid = solver.Grid((8, 9), (1.0, 1.0))
    for m, n, terms in ((1, 2, 28), (3, 2, 94)):
        fld, _, _ = solver.initial_fields(grid, m, [], [])
        assert spans._point_terms(fld) == terms * 72
    # the tracer counts len(result.encode()) of each COUNTS_BYTES function, so each must
    # return its whole text as one str: here on the rows and a snapshot of a tiny run
    rows, snaps = [], []
    solver.run(
        fld,
        t_end=0.1,
        cfl=0.4,
        snapshot_cadence=0.1,
        on_snapshot=lambda t, snap: snaps.append({**snap, "values": snap["values"].copy()}),
        on_row=rows.append,
    )
    args = {"solver.rows_to_csv": rows, "solver.snapshot_to_json": snaps[-1]}
    assert set(args) == set(spans.COUNTS_BYTES)
    for name, arg in args.items():
        assert isinstance(getattr(solver, name.split(".")[1])(arg), str), name


def _raise(exc):
    raise exc


def _zero_tau():
    lay = minors.enumerate_layout(1, 1)
    state.to_conservative(state.PrimitiveState(0.0, [0.0], [0.0], [0.0], lay))


def _flat_metric():
    grid = solver.Grid((16,), (2 * math.pi,))
    mcf.induced_metric(mcf.EmbeddingField.from_closed_curve(grid, np.zeros((2, 16))).gradients())


@pytest.mark.parametrize(
    "raise_it, code, line",
    [
        (lambda: _raise(minors.ConfigError("config.m: bad")), 2, "error: config.m: bad"),
        (lambda: _raise(state.BlowUpError(0.5)), 3, "error: non-finite state at t=0.5"),
        (_zero_tau, 3, "error: min |tau| = 0 at t=nan"),
        (_flat_metric, 3, "error: min det g = 0 at grid index [0] at t=nan"),
    ],
    ids=["config", "blowup", "tau-guard", "metric-guard"],
)
def test_main_maps_each_error_to_its_exit_code(monkeypatch, capsys, raise_it, code, line):
    # ConfigError exits 2 and BlowUpError 3, with one line and no traceback; a guard
    # that trips outside a march does not know the time, so it reports t=nan
    monkeypatch.setattr(cli, "cmd_characteristics", lambda path: raise_it())
    capsys.readouterr()
    assert main(["characteristics", "state.json"]) == code
    assert capsys.readouterr().err == line + "\n"
