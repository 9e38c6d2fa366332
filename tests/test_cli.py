import contextlib
import csv
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import classify_phase
import dicketherm.cli as cli
from dicketherm.cli import (
    ConfigError,
    GridSpec,
    _write_rows,
    main,
    parse_config,
)
from dicketherm.exact_diag import CurvePoint, photon_density_curve
from dicketherm.matsubara import a0_c0_sum
from dicketherm.operators import HamiltonianKind, ModelParams
from dicketherm.spectrum import collective_modes
from dicketherm.thermo import (
    convergence_bound,
    critical_beta,
    log_partition_ratio,
    order_parameter,
    phase_scan,
    quantum_critical_gap,
)

BETA_C_RWA = "3.4259571827498814"


def test_flags_override_config_file():
    text = "g1 = 0.5\ng2 = 0.2\n"
    cfg = parse_config(
        ["order-parameter", "--beta", "2.0", "--g1", "0.9"], file_text=text
    )
    assert cfg.params.g1 == 0.9
    assert cfg.params.g2 == 0.2
    assert cfg.beta == 2.0


def test_config_file_comments_and_unknown_key():
    cfg = parse_config(
        ["order-parameter", "--beta", "1.0"],
        file_text="# comment\n\nomega0 = 2.0\n",
    )
    assert cfg.params.omega0 == 2.0
    with pytest.raises(ConfigError, match="unknown config key 'zeta'"):
        parse_config(["order-parameter", "--beta", "1.0"], file_text="zeta = 1\n")
    with pytest.raises(ConfigError, match="not key=value"):
        parse_config(["order-parameter", "--beta", "1.0"], file_text="omega0 2\n")


def test_config_file_from_disk(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("beta = 1.5\ng1 = 0.3\n")
    cfg = parse_config(["order-parameter", "--config", str(path)])
    assert cfg.beta == 1.5
    assert cfg.params.g1 == 0.3
    with pytest.raises(ConfigError, match="cannot read config file"):
        parse_config(["order-parameter", "--config", str(tmp_path / "missing")])


def test_beta_and_grid_are_mutually_exclusive():
    with pytest.raises(ConfigError, match="mutually exclusive"):
        parse_config(
            ["order-parameter", "--beta", "1.0", "--beta-grid", "0.5:2:4"]
        )


@pytest.mark.parametrize("bad", ["-1.0", "0.0", "inf", "nan"])
def test_beta_must_be_positive_and_finite(bad):
    with pytest.raises(ConfigError, match="beta must be positive"):
        parse_config(["order-parameter", "--beta", bad])


def test_critical_temp_takes_no_beta():
    with pytest.raises(ConfigError, match="critical-temp takes no"):
        parse_config(["critical-temp", "--beta", "1.0"])
    with pytest.raises(ConfigError, match="critical-temp takes no"):
        parse_config(["critical-temp", "--g1", "1.2"], "beta-grid = 1:2:3")
    cfg = parse_config(["critical-temp", "--g1", "1.2"])
    assert cfg.beta is None


@pytest.mark.parametrize(
    "argv",
    [
        ["critical-temp", "--g1", "1.2"],
        ["phase-diagram", "--g1", "0.9"],
        ["phase-diagram", "--beta", "1.0"],
        ["spectrum", "--g1", "0.6", "--beta-grid", "1:2:3"],
    ],
)
def test_beta_is_no_sweep_variable(argv, capsys):
    # beta grids are --beta-grid alone
    assert main([*argv, "--sweep", "beta:1:4:7"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: unknown sweep variable 'beta'\n"


@pytest.mark.parametrize("fmt", ["xml", "CSV"])
@pytest.mark.parametrize("command", ["critical-temp", "phase-diagram", "ed-curve"])
def test_config_file_format_is_validated(command, fmt, tmp_path, capsys):
    settings = {
        "critical-temp": "g1 = 0.5\n",
        "phase-diagram": "g1 = 0.5\nbeta = 1\n",
        "ed-curve": "g1 = 0.5\nbeta = 1\nn-list = 1,2\n",
    }[command]
    config = tmp_path / "run.cfg"
    config.write_text(f"{settings}format = {fmt}\n")
    argv = [command, "--config", str(config)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: format must be one of csv, json, got {fmt!r}\n"
    assert parse_config([command], f"{settings}format = json").fmt == "json"


def test_commands_requiring_beta():
    with pytest.raises(ConfigError, match="requires --beta"):
        parse_config(["spectrum", "--g1", "1.2"])
    # a beta grid satisfies the requirement
    cfg = parse_config(["spectrum", "--g1", "1.2", "--beta-grid", "1:4:7"])
    assert (cfg.beta, cfg.beta_grid.variable) == (None, "beta")


@pytest.mark.parametrize(
    "spec, message",
    [
        ("g1:1:2:0", "steps must be >= 1"),
        ("g1:3:2:4", "exceeds stop"),
        ("zz:1:2:4", "unknown sweep variable"),
        ("g1:1:2:4:cubic", "unknown grid scale"),
        ("g1:0:2:4:log", "positive start"),
        ("g1:1:2", "needs START:STOP:STEPS"),
        ("g1:a:2:4", "bad grid spec"),
    ],
)
def test_sweep_spec_validation(spec, message):
    with pytest.raises(ConfigError, match=message):
        parse_config(["phase-diagram", "--beta", "1.0", "--sweep", spec])


@pytest.mark.parametrize(
    "grid",
    [
        ["--beta-grid=-0.0:1:3"],
        ["--beta-grid=-1:1:3"],
        ["--beta-grid", "0:1:3"],
        ["--beta-grid", "nan:1:2"],
    ],
)
def test_beta_grids_must_start_positive(grid, capsys):
    assert main(["phase-diagram", "--g1", "1.2", *grid]) == 2
    assert "beta must be positive" in capsys.readouterr().err


@pytest.mark.parametrize(
    "grid",
    [
        ["--beta", "1", "--sweep", "g1:0:inf:3"],
        ["--beta", "1", "--sweep", "g2:nan:1:3"],
        ["--beta-grid", "1:inf:3"],
    ],
)
def test_grid_bounds_must_be_finite(grid, capsys):
    assert main(["phase-diagram", *grid]) == 2
    assert "must be finite" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flag, value",
    [("--g1", "nan"), ("--g2", "inf"), ("--omega0", "inf"), ("--Omega", "-inf")],
)
def test_non_finite_model_params_exit_two(flag, value, capsys):
    assert main(["phase-diagram", "--beta", "1", f"{flag}={value}"]) == 2
    assert "finite" in capsys.readouterr().err
    with pytest.raises(ConfigError, match="finite"):
        parse_config(["phase-diagram", "--beta", "1"], f"{flag[2:]} = {value}")


def test_grid_values():
    assert GridSpec("beta", 2.0, 9.0, 1).values() == [2.0]
    lin = GridSpec("g1", 0.0, 1.0, 5).values()
    assert lin == pytest.approx([0.0, 0.25, 0.5, 0.75, 1.0])
    log = GridSpec("g1", 1.0, 100.0, 3, "log").values()
    assert log == pytest.approx([1.0, 10.0, 100.0])


@pytest.mark.parametrize(
    "spec",
    [
        GridSpec("g1", 0.0, 1.0, 5),
        GridSpec("g2", 0.0, 3.0, 10_000),
        GridSpec("beta", 0.5, 10.0, 400),
        GridSpec("omega0", 1e-3, 1e200, 7),
        GridSpec("beta", 0.05, 10.0, 40, "log"),
        GridSpec("g1", 1e-3, 1e3, 10_000, "log"),
        GridSpec("beta", 2.0, 9.0, 1, "log"),
    ],
    ids=lambda spec: f"{spec.scale}-{spec.steps}",
)
def test_grid_values_are_the_numpy_grid_as_python_floats(spec):
    space = np.geomspace if spec.scale == "log" else np.linspace
    expected = [float(v) for v in space(spec.start, spec.stop, spec.steps)]
    values = spec.values()
    assert all(type(v) is float for v in values)
    assert [v.hex() for v in values] == [v.hex() for v in expected]


_GRID_ENDS = st.floats(min_value=-1e300, max_value=1e300) | st.sampled_from([0.0, -0.0, 5e-324])


@settings(max_examples=300, deadline=None)
@given(
    ends=st.tuples(_GRID_ENDS, _GRID_ENDS).map(sorted),
    steps=st.integers(min_value=2, max_value=40) | st.just(10_001),
    scale=st.sampled_from(["linear", "log"]),
)
def test_any_grid_is_the_numpy_grid_to_the_bit(ends, steps, scale):
    # a grid of one step is its start, as the spec wrote it
    start, stop = ends
    if scale == "log":
        start, stop = sorted(max(abs(v), 5e-324) for v in ends)
    spec = GridSpec("g1", start, stop, steps, scale)
    space = np.geomspace if scale == "log" else np.linspace
    expected = [float(v).hex() for v in space(start, stop, steps)]
    assert [v.hex() for v in spec.values()] == expected


_SWEEP_VALUES = st.lists(
    st.floats(min_value=-1.0, max_value=1e300)
    | st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0]),
    min_size=1,
    max_size=6,
)


@settings(max_examples=300, deadline=None)
@given(
    node=st.tuples(*[st.floats(min_value=1e-3, max_value=10.0)] * 4),
    variable=st.sampled_from(cli.SWEEP_VARIABLES),
    values=_SWEEP_VALUES,
)
def test_sweep_nodes_are_the_replaced_params_refusal_included(node, variable, values):
    # each swept node is ``dataclasses.replace`` of the base node, and a
    # value outside the model's domain gets replace's refusal text
    params = ModelParams(*node)

    def outcome(build):
        try:
            return build()
        except ValueError as exc:
            return f"ValueError: {exc}"

    swept = outcome(lambda: cli._swept(params, variable, values))
    replaced = outcome(
        lambda: [dataclasses.replace(params, **{variable: v}) for v in values]
    )
    assert swept == replaced


def test_n_list_kind_workers_parsing():
    cfg = parse_config(
        [
            "ed-curve",
            "--beta",
            "1.0",
            "--n-list",
            "2,4",
            "--kind",
            "dicke-rwa",
            "--workers",
            "2",
        ]
    )
    assert cfg.n_list == (2, 4)
    assert cfg.kind is HamiltonianKind.DICKE_RWA
    with pytest.raises(ConfigError, match="bad n-list"):
        parse_config(["ed-curve", "--beta", "1.0", "--n-list", "2,x"])


def test_workers_is_validated_and_has_no_effect(monkeypatch, capsys):
    argv = ["phase-diagram", "--beta", "1.0"]
    parse_config(argv, "workers = 3\n")
    with pytest.raises(ConfigError, match="workers is not an integer"):
        parse_config(argv, "workers = many\n")
    # the environment is not read
    monkeypatch.setenv("DICKETHERM_WORKERS", "many")
    assert main(argv) == 0
    serial = capsys.readouterr().out
    assert main(argv + ["--workers", "4"]) == 0
    assert capsys.readouterr().out == serial


@pytest.mark.parametrize("sweep", ["omega0:-1:1:3", "Omega:0:1:3", "g2:-1:1:3"])
def test_sweep_values_outside_the_model_exit_two(sweep, capsys):
    variable, start = sweep.split(":")[:2]
    assert main(["phase-diagram", "--beta", "1", f"--{variable}", start]) == 2
    flag_err = capsys.readouterr().err
    assert main(["phase-diagram", "--beta", "1", "--sweep", sweep]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == flag_err
    with pytest.raises(ConfigError, match=variable):
        parse_config(["critical-temp"], f"sweep = {sweep}\n")


# a good and a malformed text of every setting; output takes any text
_SAMPLES = {
    "omega0": ("2.5", "big"),
    "Omega": ("0.5", "-1"),
    "g1": ("0.3", "0,3"),
    "g2": ("0.2", ""),
    "beta": ("2", "0"),
    "beta-grid": ("1:2:3:log", "1:2"),
    "sweep": ("g1:0:1:3", "g1:1:0:3"),
    "output": (os.devnull, None),
    "format": ("json", "xml"),
    "workers": ("3", "many"),
    "n-list": ("2,3", "2,x"),
    "ed-tol": ("1e-8", "0"),
    "kind": ("dicke-rwa", "Dicke"),
}


@pytest.mark.parametrize("name", list(cli._SETTINGS))
def test_flag_and_config_line_are_one_path(name, tmp_path, capsys):
    good, bad = _SAMPLES[name]
    command = "phase-diagram" if "phase-diagram" in cli._SETTINGS[name].commands else "ed-curve"
    argv = [command] if name in ("beta", "beta-grid") else [command, "--beta", "1"]
    assert parse_config([*argv, f"--{name}={good}"]) == parse_config(argv, f"{name} = {good}")
    if bad is None:
        return
    assert main([*argv, f"--{name}={bad}"]) == 2
    from_flag = capsys.readouterr()
    config = tmp_path / "run.cfg"
    config.write_text(f"{name} = {bad}\n")
    assert main([*argv, "--config", str(config)]) == 2
    assert capsys.readouterr() == from_flag
    assert from_flag.out == ""
    assert from_flag.err.startswith("error: ") and from_flag.err.count("\n") == 1


_ED_ONLY = ["n-list", "ed-tol", "kind"]


@pytest.mark.parametrize(
    "command, unread",
    [
        ("critical-temp", ["beta", "beta-grid", *_ED_ONLY]),
        ("phase-diagram", _ED_ONLY),
        ("spectrum", _ED_ONLY),
        ("partition-ratio", _ED_ONLY),
        ("order-parameter", _ED_ONLY),
        ("ed-curve", ["beta-grid"]),
        ("validate", [name for name in _SAMPLES if name not in ("output", "workers")]),
    ],
)
def test_each_command_refuses_the_settings_it_does_not_read(command, unread, tmp_path, capsys):
    # one line names them all, in table order whatever the order given
    message = f"error: {command} takes no {'/'.join('--' + name for name in unread)}\n"
    assert main([command, *(f"--{name}={_SAMPLES[name][0]}" for name in reversed(unread))]) == 2
    assert capsys.readouterr() == ("", message)
    config = tmp_path / "run.cfg"
    config.write_text("".join(f"{name} = {_SAMPLES[name][0]}\n" for name in reversed(unread)))
    assert main([command, "--config", str(config)]) == 2
    assert capsys.readouterr() == ("", message)
    # every command reads the rest, output and workers included; the sample
    # kind, dicke-rwa, has one coupling and refuses the sample's nonzero g2
    read = [name for name in _SAMPLES if name not in unread and name != "beta-grid"]
    if "kind" in read:
        read.remove("g2")
    parse_config([command, *(f"--{name}={_SAMPLES[name][0]}" for name in read)])


def _refusal(argv, capsys) -> str:
    """The one stderr line of an argv that exits 2 and writes no stdout."""
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")
    return err


def test_unknown_flag_exits_two(capsys):
    err = _refusal(["spectrum", "--beta", "1.0", "--frobnicate"], capsys)
    assert "unrecognized arguments: --frobnicate" in err


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["critical-temp", "--g1", "1.2", "--form", "json"], "--form"),
        (["phase-diagram", "--g1", "1.2", "--beta-g", "1:2:3"], "--beta-g"),
    ],
)
def test_flags_are_written_in_full(argv, flag, capsys):
    # a prefix of a setting's name is no flag, as it is no config key
    assert f"unrecognized arguments: {flag}" in _refusal(argv, capsys)


# a second good text of every setting the grammar test draws: all but
# beta-grid, which beta excludes, and g2, which the sample kind refuses
_SHADOWS = {
    "omega0": "1.5", "Omega": "2", "g1": "0.1", "beta": "0.5", "sweep": "Omega:1:2:2",
    "output": "shadow.csv", "format": "csv", "workers": "1", "n-list": "2",
    "ed-tol": "1e-6", "kind": "intensity-dicke",
}


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_every_form_and_order_of_an_argv_gives_one_config(data):
    command = data.draw(st.sampled_from(cli.COMMANDS))
    readable = [name for name in _SHADOWS if command in cli._SETTINGS[name].commands]
    # a subset in any order; a command that reads beta needs it
    names = data.draw(st.lists(st.sampled_from(readable), unique=True))
    if "beta" in readable and "beta" not in names:
        names.insert(data.draw(st.integers(0, len(names))), "beta")
    groups, shadows, lines = [], [], []
    for name in names:
        text = _SAMPLES[name][0]
        form = data.draw(st.sampled_from(["--NAME VALUE", "--NAME=VALUE", "config line"]))
        if form == "config line":
            lines.append(f"{name} = {text}\n")
            continue
        groups.append([f"--{name}", text] if form == "--NAME VALUE" else [f"--{name}={text}"])
        # an earlier flag or a config line of another value, which this flag overrides
        shadow = data.draw(st.sampled_from([None, "flag", "config line"]))
        if shadow == "flag":
            shadows.append(f"--{name}={_SHADOWS[name]}")
        elif shadow == "config line":
            lines.append(f"{name} = {_SHADOWS[name]}\n")
    groups.insert(data.draw(st.integers(0, len(groups))), [command])
    argv = [*shadows, *(token for group in groups for token in group)]
    file_text = "".join(data.draw(st.permutations(lines)))
    expected = parse_config([command, *(f"--{name}={_SAMPLES[name][0]}" for name in names)])
    assert parse_config(argv, file_text) == expected


_TOKENS = [
    *cli.COMMANDS, "bogus", "--g1", "--g1=0.5", "0.5", "-0.5", "-1e-3", "--beta", "1",
    "--beta=-1", "--beta-grid", "1:2:3", "--sweep=g2:0:1:2", "--kind", "dicke-rwa",
    "--g2", "--format=json", "--form", "--frobnicate", "--", "-", "-x", "--=x", "", "=",
    "--workers", "--output", "out.csv", "--n-list", "2,3",
]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(_TOKENS), max_size=8))
def test_any_argv_gives_a_config_or_one_line_of_diagnostic(argv):
    try:
        parse_config(argv)
    except ConfigError as exc:
        assert str(exc) and "\n" not in str(exc)


@pytest.mark.parametrize(
    "argv, message",
    [
        (["spectrum", "--beta", "1", "--frobnicate"], "unrecognized arguments: --frobnicate"),
        (["critical-temp", "--form", "json"], "unrecognized arguments: --form json"),
        (["critical-temp", "-x", "--g1", "1.2", "--cutoff=3", "more"],
         "unrecognized arguments: -x --cutoff=3 more"),
        (["critical-temp", "extra"], "unrecognized arguments: extra"),
        (["critical-temp", "spectrum"], "unrecognized arguments: spectrum"),
        (["critical-temp", "--g1"], "argument --g1: expected one argument"),
        (["critical-temp", "--g1", "--g2", "0.5"], "argument --g1: expected one argument"),
        ([], "a command is required: one of critical-temp, "),
        (["--g1", "1.2"], "a command is required: one of critical-temp, "),
        (["bogus"], "unknown command 'bogus'; choose from critical-temp, "),
    ],
)
def test_a_malformed_argv_exits_two_with_one_line(argv, message, capsys):
    assert message in _refusal(argv, capsys)


@pytest.mark.parametrize("flag", [["--g1", "{}"], ["--g1={}"]], ids=["space", "equals"])
@pytest.mark.parametrize("value", ["-1e-3", "-0.5"])
def test_a_negative_value_reaches_its_converter(flag, value, capsys):
    argv = ["critical-temp", *(token.format(value) for token in flag)]
    message = f"error: g1 must be non-negative and finite, got {float(value)}\n"
    assert _refusal(argv, capsys) == message


@pytest.mark.parametrize("argv", [["-h"], ["--help"], ["spectrum", "--beta", "1", "-h"]])
def test_help_names_every_command_setting_and_choice(argv, capsys):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 0
    out, err = capsys.readouterr()
    assert err == ""
    names = [*cli.COMMANDS, "--config", *(f"--{name}" for name in cli._SETTINGS),
             *cli.FORMATS, *(kind.value for kind in HamiltonianKind)]
    assert [name for name in names if name not in out] == []


def test_spectrum_json_anchor(tmp_path):
    out = tmp_path / "spec.json"
    code = main(
        [
            "spectrum",
            "--g1",
            "1.2",
            "--beta",
            BETA_C_RWA,
            "--format",
            "json",
            "--output",
            str(out),
        ]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 1
    record = json.loads(lines[0])
    assert record["at_critical"] is True
    assert record["roots"] == pytest.approx([0.0, 2.0], abs=1e-9)
    assert record["labels"] == ["goldstone", "mode"]


def test_phase_diagram_sweep_flips_at_quantum_critical_point(tmp_path):
    out = tmp_path / "phase.csv"
    code = main(
        [
            "phase-diagram",
            "--beta",
            "1e6",
            "--sweep",
            "g1:0.5:2.0:16",
            "--output",
            str(out),
        ]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "omega0,Omega,g1,g2,beta,bound,phase,beta_c,rho,error"
    assert len(lines) == 17
    phases = [line.split(",")[6] for line in lines[1:]]
    first_not_normal = next(i for i, p in enumerate(phases) if p != "normal")
    g1_at_flip = float(lines[1 + first_not_normal].split(",")[2])
    assert math.isclose(g1_at_flip, 1.0, abs_tol=1e-12)


def test_output_is_byte_identical_across_reruns(tmp_path):
    argv = [
        "order-parameter",
        "--g1",
        "0.9",
        "--g2",
        "0.6",
        "--beta-grid",
        "0.5:8:7",
    ]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(argv + ["--output", str(a)]) == 0
    assert main(argv + ["--output", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_ndjson_rows_round_trip(tmp_path):
    out = tmp_path / "ratio.ndjson"
    code = main(
        [
            "partition-ratio",
            "--g1",
            "0.6",
            "--g2",
            "0.3",
            "--beta-grid",
            "0.5:1.5:3",
            "--format",
            "json",
            "--output",
            str(out),
        ]
    )
    assert code == 0
    rows = [json.loads(line) for line in out.read_text().splitlines()]
    assert len(rows) == 3
    assert [r["beta"] for r in rows] == pytest.approx([0.5, 1.0, 1.5])
    assert all(r["log_partition_ratio"] > 0.0 for r in rows)


def _reject_constant(token):
    raise ValueError(f"non-JSON constant {token}")


def test_json_rows_always_parse(capsys):
    argv = ["phase-diagram", "--beta", "1", "--sweep", "g1:1:1e200:3", "--format", "json"]
    assert main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    rows = [json.loads(line, parse_constant=_reject_constant) for line in lines]
    assert [r["phase"] for r in rows] == ["normal", "error", "error"]
    assert rows[1]["bound"] is None and rows[1]["rho"] is None
    assert rows[1]["error"].startswith("OverflowError")


def test_order_parameter_row_at_critical_point(capsys):
    beta = 1.0000000001 * 4.0 * math.atanh(1.0 / 2.25)
    argv = ["order-parameter", "--g1", "1.2", "--g2", "0.3", "--beta", repr(beta)]
    assert main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "omega0,Omega,g1,g2,beta,bound,phase,rho"
    cells = lines[1].split(",")
    assert cells[6] == "critical"
    assert float(cells[7]) == 0.0


def test_cutoff_is_refused(tmp_path, capsys):
    argv = ["partition-ratio", "--g1", "0.6", "--beta", "1.0"]
    assert "unrecognized arguments: --cutoff 512" in _refusal(argv + ["--cutoff", "512"], capsys)
    config = tmp_path / "old.cfg"
    config.write_text("cutoff = 256\n")
    assert main(argv + ["--config", str(config)]) == 2
    assert "unknown config key 'cutoff'" in capsys.readouterr().err


def test_critical_temp_stdout(capsys):
    assert main(["critical-temp", "--g1", "1.2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "omega0,Omega,g1,g2,quantum_critical_gap,beta_c"
    cells = lines[1].split(",")
    assert float(cells[4]) == pytest.approx(0.2)
    assert float(cells[5]) == pytest.approx(3.4259571827498814)


def test_ed_curve_small_run(capsys):
    code = main(
        ["ed-curve", "--beta", "1.0", "--n-list", "2", "--ed-tol", "1e-6"]
    )
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].endswith("photons_per_atom,truncation_error_estimate")
    assert len(lines) == 2


# the kinds with the one coupling g1
ONE_COUPLING_KINDS = ("dicke-rwa", "jaynes-cummings", "two-photon-jc", "intensity-jc",
                      "intensity-dicke")


@pytest.mark.parametrize("kind", ONE_COUPLING_KINDS)
def test_ed_curve_refuses_a_g2_the_kind_would_ignore(kind, tmp_path, capsys):
    argv = ["ed-curve", "--kind", kind, "--g1", "0.1", "--beta", "1", "--n-list", "1"]
    message = f"error: {kind} has one coupling, g1, and takes no nonzero g2\n"
    config = tmp_path / "run.cfg"
    config.write_text("g2 = 0.7\n")
    for extra in (["--g2", "0.7"], ["--config", str(config)], ["--sweep", "g2:0:0.7:2"],
                  ["--sweep", "g2:0.7:0.7:1"]):
        assert main([*argv, *extra]) == 2
        assert capsys.readouterr() == ("", message)
    # the library refuses it with the same text
    with pytest.raises(ValueError, match=f"^{message[len('error: '):-1]}$"):
        photon_density_curve(ModelParams(1.0, 1.0, g1=0.1, g2=0.7), 1.0, (1,),
                             kind=HamiltonianKind(kind))
    # a g2 of 0 is what the kind computes, and is accepted
    for extra in (["--g2", "0"], ["--sweep", "g2:0:0:2"]):
        assert parse_config([*argv, *extra]).kind is HamiltonianKind(kind)
    # generalized Dicke reads g2
    p = parse_config(["ed-curve", "--g2", "0.7", "--beta", "1"]).params
    assert p.g2 == 0.7


def test_ed_curve_refuses_intensity_dicke_without_thermal_state(capsys):
    argv = ["ed-curve", "--kind", "intensity-dicke", "--g1", "0.5",
            "--beta", "1", "--n-list", "8"]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: intensity-dicke has no thermal state at N=8")
    assert "g1*sqrt(N) = 1.41421 >= omega0 = 1" in err


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize(
    "args, reason",
    [
        (["--kind", "jaynes-cummings", "--g1", "0.5", "--n-list", "1,2"],
         "jaynes-cummings is a single-atom model, got N=2"),
        (["--kind", "intensity-dicke", "--g1", "0.5", "--n-list", "1,8"],
         "intensity-dicke has no thermal state at N=8"),
        # the refused node is the last of the sweep
        (["--kind", "intensity-jc", "--n-list", "1", "--sweep", "g1:0.5:1.0:2"],
         "intensity-jc has no thermal state at N=1"),
        # N = 2 would be solved first if the list were not checked whole
        (["--g1", "0.5", "--n-list", "2,0"], "n_atoms must be at least 1, got 0"),
        (["--g1", "0.5", "--n-list", "0"], "n_atoms must be at least 1, got 0"),
        # the first rung, n_max = 8, of N = 700 has 701 * 9 rows
        (["--g1", "0.5", "--n-list", "2,700"],
         "matrix of 6309 rows exceeds limit 6000 (N=700, n_max=8)"),
        (["--g1", "0.5", "--n-list", "700"],
         "matrix of 6309 rows exceeds limit 6000 (N=700, n_max=8)"),
        # the first rung of N = 400 fits; its doubling has 401 * 17 rows
        (["--g1", "0.5", "--n-list", "400"],
         "matrix of 6817 rows exceeds limit 6000 (N=400, n_max=16)"),
    ],
    ids=["single-atom-n", "no-thermal-state", "no-thermal-state-in-sweep",
         "no-atoms-after-a-rung", "no-atoms", "first-rung-past-the-ceiling-after-a-rung",
         "first-rung-past-the-ceiling", "first-doubling-past-the-ceiling"],
)
def test_ed_curve_refusal_writes_nothing(args, reason, fmt, capsys):
    assert main(["ed-curve", "--beta", "1", *args, "--format", fmt]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {reason}")


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize(
    "args",
    [["--g1", "0", "--beta", "1"], ["--sweep", "g1:0:1:3", "--beta", "1"],
     ["--sweep", "omega0:1:2:3", "--beta-grid", "0.5:2:4"]],
    ids=["one-node", "first-of-a-sweep", "every-node"],
)
def test_spectrum_refuses_an_uncoupled_node_before_any_row(args, fmt, capsys):
    # every node is checked first, so not even the CSV header is written
    assert main(["spectrum", *args, "--format", fmt]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: collective_modes requires g1 + g2 > 0\n"


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize(
    "argv",
    [
        ["spectrum", "--Omega", "1e-300", "--g1", "1", "--beta", "1"],
        ["partition-ratio", "--Omega", "1e-300", "--g1", "1e-160", "--beta", "1"],
        # the first node shares one unit, the second does not
        ["spectrum", "--Omega", "1e-160", "--g1", "1e-160", "--sweep", "omega0:1e-140:1:2",
         "--beta-grid", "1:2:2"],
        ["partition-ratio", "--Omega", "1e-160", "--g1", "1e-160", "--sweep",
         "omega0:1e-140:1:2", "--beta", "1"],
    ],
    ids=["spectrum", "partition-ratio", "spectrum-last-of-a-sweep",
         "partition-ratio-last-of-a-sweep"],
)
def test_a_node_too_wide_for_one_unit_is_refused_before_any_row(argv, fmt, capsys):
    # the span is the parameters' alone, so every node is checked first
    # and not even the CSV header is written
    assert main([*argv, "--format", fmt]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: the energies of this node span ")
    assert captured.err.endswith("too wide to share one energy unit\n")
    assert captured.err.count("\n") == 1


def test_a_partition_ratio_row_takes_one_tanh(monkeypatch, capsys):
    # its bound cell and ratio come from one evaluation of the node
    calls = []
    tanh = np.tanh

    def counted(x):
        calls.append(x)
        return tanh(x)

    monkeypatch.setattr(np, "tanh", counted)
    argv = ["partition-ratio", "--g1", "0.4", "--g2", "0.3", "--beta-grid", "0.5:2:4",
            "--sweep", "Omega:1:1.3:2"]
    assert main(argv) == 0
    assert len(capsys.readouterr().out.splitlines()) == 1 + 8
    assert len(calls) == 8


@pytest.mark.parametrize("tol", ["nan", "inf", "0", "-0.5"])
def test_ed_tol_must_be_positive_and_finite(tol, capsys):
    code = main(["ed-curve", "--beta", "1.0", "--n-list", "2", "--ed-tol", tol])
    assert code == 2
    assert "ed-tol" in capsys.readouterr().err
    with pytest.raises(ConfigError, match="ed-tol"):
        parse_config(["ed-curve", "--beta", "1.0"], f"ed-tol = {tol}")
    with pytest.raises(ConfigError, match="ed-tol"):
        parse_config(["ed-curve", "--beta", "1.0"], "ed-tol = tight")


def test_config_error_exit_code(capsys):
    assert main(["order-parameter"]) == 2
    assert "error:" in capsys.readouterr().err


def test_runtime_error_exit_code(capsys):
    # free model has no collective modes; the handler error surfaces as 1
    assert main(["spectrum", "--beta", "2.0"]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, label",
    [
        # just below beta_c, within the critical tolerance of the transition
        (["--g1", "1.0000001", "--beta", "32.2329"], "critical"),
        (["--g1", "2", "--beta", "3"], "superradiant"),
    ],
)
def test_partition_ratio_refusal_names_the_phase_and_the_bound(argv, label, capsys):
    p = ModelParams(1.0, 1.0, g1=float(argv[1]))
    bound = convergence_bound(p, float(argv[3]))
    assert phase_scan([p], [float(argv[3])]).phase.tolist() == [label]
    assert main(["partition-ratio", *argv]) == 1
    assert capsys.readouterr().err == (
        "error: log_partition_ratio requires the normal phase; "
        f"the node is {label}, with convergence bound {bound!r}\n"
    )
    if label == "critical":
        assert repr(bound) == "0.999999999670589"


def test_partition_ratio_refuses_a_normal_node_whose_soft_mode_rounds_away(capsys):
    # bound 1 - 1.5e-9: normal, but the rounded quadratic leaves one mode
    argv = ["--omega0", "1.3", "--Omega", "0.8", "--g1", "1.1", "--beta", "6.457217620833081"]
    p = ModelParams(1.3, 0.8, g1=1.1)
    assert phase_scan([p], [6.457217620833081]).phase.tolist() == ["normal"]
    assert main(["partition-ratio", *argv]) == 1
    out, err = capsys.readouterr()
    assert out == "omega0,Omega,g1,g2,beta,bound,log_partition_ratio\n"
    assert err.startswith("error: log_partition_ratio needs two positive mode energies")


@pytest.mark.parametrize("command", ["spectrum", "partition-ratio"])
def test_energies_too_far_apart_exit_one_naming_their_span(command, capsys):
    argv = ["--omega0", "1e300", "--Omega", "1e-300", "--g1", "1e-10", "--beta", "1e300"]
    assert main([command, *argv]) == 1
    err = capsys.readouterr().err
    assert "span 1e-300 to 1e+300, too wide to share one energy unit" in err


def test_validate_passes(capsys):
    assert main(["validate"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 5
    assert all(line.endswith("PASS") for line in lines)
    names = [line.split(":")[0] for line in lines]
    assert "trace-identity" in names
    assert "critical-beta-cross-check" in names


@pytest.mark.parametrize(
    "flag, value",
    [
        ("omega0", "2"),
        ("Omega", "2"),
        ("g1", "3"),
        ("g2", "1"),
        ("beta", "2"),
        ("beta-grid", "1:2:3"),
        ("sweep", "g1:0:1:3"),
        ("format", "json"),
        ("format", "csv"),
        ("n-list", "2,4"),
        ("ed-tol", "1e-6"),
        ("kind", "dicke-rwa"),
    ],
)
def test_validate_refuses_inputs_it_would_ignore(flag, value, tmp_path, capsys):
    message = f"error: validate takes no --{flag}\n"
    assert main(["validate", f"--{flag}", value]) == 2
    assert capsys.readouterr() == ("", message)
    config = tmp_path / "run.cfg"
    config.write_text(f"{flag} = {value}\n")
    assert main(["validate", "--config", str(config)]) == 2
    assert capsys.readouterr() == ("", message)


def test_validate_keeps_output_and_config(tmp_path, capsys):
    out = tmp_path / "report.txt"
    config = tmp_path / "run.cfg"
    config.write_text(f"output = {out}\nworkers = 2\n")
    assert main(["validate", "--config", str(config)]) == 0
    assert capsys.readouterr().out == ""
    report = out.read_text().splitlines()
    assert [line.split(":")[0] for line in report] == [
        "fermionic-sum-identity",
        "kernel-sum-vs-closed-form",
        "trace-identity",
        "goldstone-residual",
        "critical-beta-cross-check",
    ]
    # both inputs named together in one line
    assert main(["validate", "--g1", "3", "--beta", "2"]) == 2
    err = capsys.readouterr().err
    assert err == "error: validate takes no --g1/--beta\n"


def _cross_check_line(capsys) -> str:
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1].startswith("critical-beta-cross-check:")
    return lines[-1]


def test_cross_check_fails_a_beta_c_off_the_finite_sum_root(monkeypatch, capsys):
    import dicketherm.cli as cli

    assert main(["validate"]) == 0
    line = _cross_check_line(capsys)
    assert line.endswith("tol=1.0e-08 PASS")
    assert float(line.split("residual=")[1].split()[0]) <= 1e-14
    monkeypatch.setattr(cli, "critical_beta", lambda p: critical_beta(p) * (1.0 + 1e-6))
    assert main(["validate"]) == 1
    assert _cross_check_line(capsys) == (
        "critical-beta-cross-check: residual=inf tol=1.0e-08 FAIL"
    )


def test_kernel_check_fails_a_closed_form_off_the_finite_sums(monkeypatch, capsys):
    # the check compares the finite sums with the production closed form
    import dicketherm.cli as cli

    def report():
        lines = capsys.readouterr().out.splitlines()
        (line,) = [l for l in lines if l.startswith("kernel-sum-vs-closed-form:")]
        return line, sum(l.endswith(" FAIL") for l in lines)

    assert main(["validate"]) == 0
    line, failed = report()
    assert line.endswith("tol=1.0e-08 PASS") and failed == 0
    assert float(line.split("residual=")[1].split()[0]) <= 1e-14
    monkeypatch.setattr(
        cli, "convergence_bound", lambda p, beta: convergence_bound(p, beta) * (1.0 + 1e-6)
    )
    assert main(["validate"]) == 1
    line, failed = report()
    assert line.endswith("tol=1.0e-08 FAIL") and failed == 1


def test_cross_check_evaluates_the_finite_sum_twice_per_point(monkeypatch, capsys):
    import dicketherm.cli as cli

    calls = []

    def counting(omega_index, params, beta):
        calls.append((omega_index, params, beta))
        return a0_c0_sum(omega_index, params, beta)

    monkeypatch.setattr(cli, "a0_c0_sum", counting)
    assert main(["validate"]) == 0
    capsys.readouterr()
    # one evaluation holds every finite-sum node
    ((omega_index, grid, beta_array),) = calls
    assert omega_index == 0
    columns = [
        np.broadcast_to(getattr(grid, name), beta_array.shape).tolist()
        for name in ("omega0", "Omega", "g1", "g2")
    ]
    nodes = [
        (ModelParams(*node), beta) for *node, beta in zip(*columns, beta_array.tolist())
    ]
    points = (
        ModelParams(1.0, 1.0, g1=1.2),
        ModelParams(2.0, 1.0, g2=2.0),
        ModelParams(0.8, 1.3, g1=0.9, g2=0.6),
    )
    for p in points:
        betas = sorted(beta for params, beta in nodes if params == p)
        assert len(betas) == 2
        assert betas[0] < critical_beta(p) < betas[1]
    # the kernel-sum check's three betas at its own point, and no others
    kernel = ModelParams(1.3, 0.8, g1=0.7, g2=0.4)
    assert sorted(beta for params, beta in nodes if params == kernel) == [0.5, 2.0, 5.0]
    assert len(nodes) == 3 + 2 * len(points)


def _cells(p):
    return {"omega0": p.omega0, "Omega": p.Omega, "g1": p.g1, "g2": p.g2}


_P = ModelParams(1.0, 1.0, g1=0.9, g2=0.6)  # beta_c = 1.909...
_NORMAL_BETAS = (0.5, 1.0, 1.5)  # --beta-grid 0.5:1.5:3
_MIXED_BETAS = (0.5, 2.0, 3.5)  # --beta-grid 0.5:3.5:3


def _critical_temp_case():
    nodes = [ModelParams(1.0, 1.0, g1=1.2, g2=g2) for g2 in (0.0, 0.2, 0.4)]
    rows = [
        {**_cells(p), "quantum_critical_gap": quantum_critical_gap(p), "beta_c": critical_beta(p)}
        for p in nodes
    ]
    return ["--g1", "1.2", "--sweep", "g2:0:0.4:3"], rows, rows


def _phase_diagram_case():
    scan = phase_scan([_P], list(_MIXED_BETAS))
    rows = [
        {
            **_cells(_P),
            "beta": scan.beta[i],
            "bound": scan.bound[i],
            "phase": scan.phase[i],
            "beta_c": scan.beta_c[i],
            "rho": scan.rho[i],
            "error": None,
        }
        for i in range(len(scan))
    ]
    return ["--g1", "0.9", "--g2", "0.6", "--beta-grid", "0.5:3.5:3"], rows, rows


def _spectrum_case():
    csv_rows, json_rows = [], []
    for b in _NORMAL_BETAS:
        r = collective_modes(_P, b)
        node = {**_cells(_P), "beta": b, "at_critical": r.at_critical}
        for i, root in enumerate(r.roots):
            csv_rows.append(
                {
                    **node,
                    "root_index": i,
                    "root": root,
                    "residual": r.residuals[i],
                    "label": r.labels[i],
                    "multiplicity": r.multiplicities[i],
                }
            )
        json_rows.append(
            {
                **node,
                "roots": list(r.roots),
                "residuals": list(r.residuals),
                "labels": list(r.labels),
                "multiplicities": list(r.multiplicities),
            }
        )
    return ["--g1", "0.9", "--g2", "0.6", "--beta-grid", "0.5:1.5:3"], csv_rows, json_rows


def _partition_ratio_case():
    rows = [
        {
            **_cells(_P),
            "beta": b,
            "bound": convergence_bound(_P, b),
            "log_partition_ratio": log_partition_ratio(_P, b),
        }
        for b in _NORMAL_BETAS
    ]
    return ["--g1", "0.9", "--g2", "0.6", "--beta-grid", "0.5:1.5:3"], rows, rows


def _order_parameter_case():
    rows = [
        {
            **_cells(_P),
            "beta": b,
            "bound": convergence_bound(_P, b),
            "phase": classify_phase(_P, b),
            "rho": order_parameter(_P, b),
        }
        for b in _MIXED_BETAS
    ]
    return ["--g1", "0.9", "--g2", "0.6", "--beta-grid", "0.5:3.5:3"], rows, rows


def _ed_curve_case():
    p = ModelParams(1.0, 1.0, g1=0.5)
    rows = [
        {
            **_cells(p),
            "beta": 1.0,
            "n_atoms": pt.n_atoms,
            "n_max_used": pt.n_max_used,
            "photons_per_atom": pt.photons_per_atom,
            "truncation_error_estimate": pt.truncation_error_estimate,
        }
        for pt in photon_density_curve(p, 1.0, (1, 2), target_tol=1e-6)
    ]
    return ["--g1", "0.5", "--beta", "1.0", "--n-list", "1,2"], rows, rows


_ROW_CASES = {
    "critical-temp": _critical_temp_case,
    "phase-diagram": _phase_diagram_case,
    "spectrum": _spectrum_case,
    "partition-ratio": _partition_ratio_case,
    "order-parameter": _order_parameter_case,
    "ed-curve": _ed_curve_case,
}


def _csv_cell_matches(cell, value):
    if value is None:
        return cell == ""
    if isinstance(value, float):
        return float(cell) == value
    return cell == str(value)


@pytest.mark.parametrize("command", list(_ROW_CASES))
def test_row_cells_are_the_library_values(command, capsys):
    argv, csv_rows, json_rows = _ROW_CASES[command]()
    assert main([command, *argv]) == 0
    header, *records = csv.reader(io.StringIO(capsys.readouterr().out))
    assert header == list(csv_rows[0])
    assert len(records) == len(csv_rows)
    for record, expected in zip(records, csv_rows):
        assert all(map(_csv_cell_matches, record, expected.values())), (record, expected)

    assert main([command, *argv, "--format", "json"]) == 0
    lines = capsys.readouterr().out.splitlines()
    rows = [json.loads(line, parse_constant=_reject_constant) for line in lines]
    assert rows == json_rows
    for row, expected in zip(rows, json_rows):
        assert list(row) == list(expected)
        if command != "spectrum":
            assert list(row) == header


def test_error_row_cells_are_empty_in_csv(capsys):
    argv = ["phase-diagram", "--beta", "1", "--sweep", "g1:1:1e200:3"]
    assert main(argv) == 0
    header, *records = csv.reader(io.StringIO(capsys.readouterr().out))
    row = dict(zip(header, records[1]))
    assert row["phase"] == "error"
    assert row["bound"] == row["rho"] == row["beta_c"] == ""
    assert row["error"].startswith("OverflowError")


# grids of the column-built commands: linear and log beta grids, a sweep
# of each variable, a single node, error rows, nodes with no beta_c and a
# signed zero
_COLUMN_GRIDS = [
    ["--g1", "0.9", "--g2", "0.6", "--beta-grid", "0.5:10:40"],
    ["--g1", "0.9", "--g2", "0.6", "--beta-grid", "0.05:10:40:log"],
    ["--g1", "0.9", "--beta", "2", "--sweep", "omega0:0.5:2:7"],
    ["--g1", "0.9", "--beta", "2", "--sweep", "Omega:0.05:2:7:log"],
    ["--g2", "0.3", "--beta", "2", "--sweep", "g1:0:3:50"],
    ["--g1", "0.9", "--beta", "2", "--sweep", "g2:0:2:7"],
    ["--g1", "0.9", "--g2", "0.3", "--beta-grid", "0.1:10:9"],
    ["--beta-grid", "1:5:4", "--sweep", "g1:0:2:5"],
    ["--g1", "0.9", "--g2", "0.6", "--beta", "3"],
    ["--beta", "1", "--sweep", "g1:1:1e200:3"],
    ["--g1", "0.2", "--beta-grid", "1:5:5"],
    ["--g1", "0.9", "--g2", "-0.0", "--beta", "3"],
]


# the scans on every column grid, and the node-by-node commands whose CSV
# and JSON rows hold the same cells: sweeps, a node with no beta_c, values
# at the ends of the float range, ints, and a grid that fails part way
_CSV_JSON_CASES = [
    *(
        (command, argv)
        for command in ("phase-diagram", "order-parameter")
        for argv in _COLUMN_GRIDS
    ),
    ("critical-temp", ["--g1", "1.2", "--sweep", "g2:0:0.4:3"]),
    ("critical-temp", ["--g1", "0.2"]),
    ("critical-temp", ["--Omega", "5e-324", "--g1", "1"]),
    ("critical-temp", ["--omega0", "1e300", "--Omega", "1e300"]),
    ("partition-ratio", ["--g1", "0.6", "--g2", "0.3", "--beta-grid", "0.05:10:40:log"]),
    ("partition-ratio", ["--g1", "0.6", "--beta-grid", "0.5:2:3", "--sweep", "g2:0:0.5:6"]),
    ("partition-ratio", ["--g1", "0.9", "--g2", "0.6", "--beta-grid", "0.5:3.5:6"]),
    ("ed-curve", ["--g1", "0.5", "--beta", "1", "--n-list", "1,2"]),
    ("ed-curve", ["--kind", "dicke-rwa", "--g1", "0.5", "--beta", "1", "--n-list", "2,8"]),
]


@pytest.mark.parametrize(
    "command, argv", _CSV_JSON_CASES, ids=lambda v: v if isinstance(v, str) else " ".join(v)
)
def test_column_csv_is_csv_writer_of_the_json_values(command, argv, capsys):
    json_code = main([command, *argv, "--format", "json"])
    rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    csv_code = main([command, *argv])
    out = capsys.readouterr().out
    assert csv_code == json_code
    expected = io.StringIO()
    writer = csv.writer(expected, lineterminator="\n")
    writer.writerow(out.partition("\n")[0].split(","))
    writer.writerows(row.values() for row in rows)
    assert rows and list(rows[0]) == out.partition("\n")[0].split(",")
    assert out == expected.getvalue()


def test_column_csv_covers_the_edge_cases(capsys):
    assert main(["phase-diagram", "--g1", "0.9", "--g2", "-0.0", "--beta", "3"]) == 0
    assert capsys.readouterr().out.splitlines()[1].startswith("1.0,1.0,0.9,-0.0,3.0,")
    assert main(["phase-diagram", "--g1", "0.2", "--beta-grid", "1:5:5"]) == 0
    header, *records = csv.reader(io.StringIO(capsys.readouterr().out))
    assert [dict(zip(header, r))["beta_c"] for r in records] == [""] * 5


_SCAN_HEADERS = {
    "phase-diagram": ["omega0", "Omega", "g1", "g2", "beta", "bound", "phase", "beta_c",
                      "rho", "error"],
    "order-parameter": ["omega0", "Omega", "g1", "g2", "beta", "bound", "phase", "rho"],
}
# the column grids, a one-node and a 10 000-node scan, and cells of -0.0,
# 5e-324 and 1e+200; then grids of one parameter node or one beta whose
# rows share a phase, a beta_c, rho 0.0 or an error, each folded into the
# row template
_ENCODER_GRIDS = [
    *_COLUMN_GRIDS,
    ["--g1", "1.3", "--beta", "2"],
    ["--g1", "1.2", "--beta-grid", "5:9:6"],
    ["--g1", "1.0000001", "--beta", "32.2329"],
    ["--g1", "1e200", "--beta-grid", "1:2:3"],
    ["--g1", "0.9", "--g2", "0.6", "--beta-grid", "2:2:1"],
    ["--g1", "1.3", "--beta", "2", "--sweep", "g2:0.1:0.1:1"],
    ["--g2", "0.3", "--beta", "0.5", "--sweep", "g1:0:0.5:20"],
    ["--g1", "0.3", "--g2", "0.2", "--beta-grid", "0.1:50:30:log"],
    ["--g1", "0.9", "--g2", "0.6", "--beta-grid", "0.05:50:10000"],
    ["--g1", "1.3", "--g2", "5e-324", "--beta-grid", "1:1e200:3"],
    ["--omega0", "1e200", "--Omega", "1e-200", "--g1", "1.3", "--g2", "-0.0", "--beta", "2"],
]


def _scan_rows(command, argv):
    """The rows' values straight from ``phase_scan``, and the exit code.

    Python floats, None where a cell is missing.  order-parameter stops
    at its first error node, where it raises that node's error.
    """
    cfg = parse_config([command, *argv])
    betas = cfg.beta_grid.values() if cfg.beta_grid is not None else [cfg.beta]
    scan = phase_scan(cfg.param_nodes, betas)
    columns = {name: getattr(scan, name).tolist() for name in _SCAN_HEADERS[command]}
    rows = []
    for i in range(len(scan)):
        failed = scan.phase[i] == "error"
        if failed and command == "order-parameter":
            return rows, 1
        cell = {name: column[i] for name, column in columns.items()}
        if failed:
            cell["bound"] = cell["rho"] = None
        if command == "phase-diagram" and math.isnan(cell["beta_c"]):
            cell["beta_c"] = None
        rows.append([cell[name] for name in _SCAN_HEADERS[command]])
    return rows, 0


def _assert_same_text(out, expected):
    """On a mismatch, name the first differing line; pytest's own diff of
    10 000 lines would take minutes."""
    if out != expected:
        got, want = out.splitlines(), expected.splitlines()
        diff = (i for i, (a, b) in enumerate(zip(got, want)) if a != b)
        i = next(diff, min(len(got), len(want)))
        pytest.fail(f"line {i} of {len(got)} vs {len(want)}: {got[i:i + 1]} != {want[i:i + 1]}")


def _expected_output(command, rows, fmt):
    if fmt == "json":
        encoder = json.JSONEncoder(allow_nan=False)
        header = _SCAN_HEADERS[command]
        return "".join(encoder.encode(dict(zip(header, row))) + "\n" for row in rows)
    expected = io.StringIO()
    writer = csv.writer(expected, lineterminator="\n")
    writer.writerow(_SCAN_HEADERS[command])
    writer.writerows(rows)
    return expected.getvalue()


@pytest.mark.parametrize("argv", _ENCODER_GRIDS, ids=lambda a: " ".join(a)[:60])
@pytest.mark.parametrize("command", list(_SCAN_HEADERS))
def test_scan_rows_are_the_stdlib_writers_of_the_scan_values(command, argv, capsys):
    rows, code = _scan_rows(command, argv)
    for fmt in ("json", "csv"):
        assert main([command, *argv, "--format", fmt]) == code
        _assert_same_text(capsys.readouterr().out, _expected_output(command, rows, fmt))


_BLOCK = cli._BLOCK_ROWS


@settings(max_examples=60, deadline=None)
@given(
    command=st.sampled_from(list(_SCAN_HEADERS)),
    rows=st.sampled_from([1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 1]),
    argv=st.sampled_from([
        # no transition below g1 = 0.8: some beta_c cells are empty
        ["--g2", "0.2", "--beta", "2", "--sweep", "g1:0:2"],
        # a transition at every node: beta_c is a float column
        ["--g2", "0.2", "--beta", "2", "--sweep", "g1:0.9:3"],
        ["--g1", "0.9", "--g2", "0.6", "--beta-grid", "0.5:4"],
    ]),
    data=st.data(),
)
def test_scan_blocks_write_the_stdlib_bytes_around_the_block_size(command, rows, argv, data):
    # rows in and across the blocks of one fill, with error rows and a
    # non-finite bound inside a block: each line is the standard writer's
    # for the scan's values, and the rows stop where the refusal is
    argv = [*argv[:-1], f"{argv[-1]}:{rows}"]
    errors = data.draw(st.sets(st.integers(0, rows - 1), max_size=3), label="error rows")
    poisoned = data.draw(st.none() | st.integers(0, rows - 1), label="inf bound row")
    text = "OverflowError: marked node"

    def marked(*args):
        scan = phase_scan(*args)
        for k in errors - {poisoned}:
            scan.phase[k], scan.error[k] = "error", text
            scan.bound[k] = scan.beta_c[k] = scan.rho[k] = math.nan
        if poisoned is not None:
            scan.bound[poisoned] = math.inf
        return scan

    cfg = parse_config([command, *argv])
    betas = cfg.beta_grid.values() if cfg.beta_grid is not None else [cfg.beta]
    scan = marked(cfg.param_nodes, betas)
    header = _SCAN_HEADERS[command]
    expected, refusal = [], None
    for i in range(len(scan)):
        failed = scan.phase[i] == "error"
        if failed and command == "order-parameter":
            refusal = text
            break
        if scan.bound[i] == math.inf:
            refusal = "non-finite value inf in a {} row"
            break
        cell = {name: getattr(scan, name)[i] for name in header}
        cell = {name: v.item() if isinstance(v, np.generic) else v for name, v in cell.items()}
        if failed:
            cell["bound"] = cell["rho"] = None
        if command == "phase-diagram" and math.isnan(cell["beta_c"]):
            cell["beta_c"] = None
        expected.append([cell[name] for name in header])
    with mock.patch.object(cli, "phase_scan", marked):
        for fmt in ("csv", "json"):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main([command, *argv, "--format", fmt])
            assert code == (0 if refusal is None else 1)
            _assert_same_text(out.getvalue(), _expected_output(command, expected, fmt))
            message = "" if refusal is None else f"error: {refusal.format(fmt.upper())}\n"
            assert err.getvalue() == message


def test_every_cell_of_a_float_field_is_a_python_float(monkeypatch, capsys):
    # %r of a numpy float is "np.float64(...)", not the float's text
    write = cli._write_rows
    floats_seen = set()

    def checked(stream, fmt, header, table):
        blocks = list(table.blocks)
        columns = [name for name in header if name not in table.shared]
        width = len(columns)
        for rows, cells in blocks:
            assert len(cells) == rows * width
            for i, name in enumerate(columns):
                if name in table.floats:
                    assert {type(cell) for cell in cells[i::width]} <= {float}
                    floats_seen.add(name)
        write(stream, fmt, header, table._replace(blocks=blocks))

    monkeypatch.setattr(cli, "_write_rows", checked)
    for argv in _ENCODER_GRIDS:
        for command in _SCAN_HEADERS:
            for fmt in ("csv", "json"):
                main([command, *argv, "--format", fmt])
    capsys.readouterr()
    assert floats_seen >= {"g1", "beta", "bound", "beta_c", "rho"}


def test_beta_c_of_an_error_row_in_a_beta_grid_is_empty(monkeypatch, capsys):
    import dicketherm.cli as cli

    # beta_c is formatted once per parameter node; an error row among the
    # node's other rows still gets the empty cell
    k = 2
    text = "OverflowError: marked node"

    def marked(*args):
        scan = phase_scan(*args)
        scan.phase[k], scan.error[k] = "error", text
        scan.bound[k] = scan.beta_c[k] = scan.rho[k] = math.nan
        return scan

    argv = ["--g1", "0.9", "--g2", "0.6", "--beta-grid", "0.5:3.5:6"]
    rows, code = _scan_rows("phase-diagram", argv)
    beta_c = _SCAN_HEADERS["phase-diagram"].index("beta_c")
    assert code == 0 and rows[k][beta_c] == rows[0][beta_c] is not None
    rows[k][5:] = [None, "error", None, None, text]
    monkeypatch.setattr(cli, "phase_scan", marked)
    for fmt in ("json", "csv"):
        assert main(["phase-diagram", *argv, "--format", fmt]) == 0
        _assert_same_text(capsys.readouterr().out, _expected_output("phase-diagram", rows, fmt))


def _spectrum_node(p, beta):
    """A spectrum node's CSV rows and JSON row, straight from ``collective_modes``."""
    r = collective_modes(p, beta)
    node = [p.omega0, p.Omega, p.g1, p.g2, beta, r.at_critical]
    modes = zip(r.roots, r.residuals, r.labels, r.multiplicities)
    csv_rows = [[*node, i, *mode] for i, mode in enumerate(modes)]
    keys = ["omega0", "Omega", "g1", "g2", "beta", "at_critical"]
    json_row = {
        **dict(zip(keys, node)),
        "roots": list(r.roots),
        "residuals": list(r.residuals),
        "labels": list(r.labels),
        "multiplicities": list(r.multiplicities),
    }
    return r, csv_rows, json_row


_GOLDSTONE = ModelParams(1.0, 1.0, g2=1.000000001)
# a normal-phase grid, a sweep, the beta_c node of a doubly degenerate
# Goldstone mode, and a node with no root
_SPECTRUM_GRIDS = {
    "normal-grid": ["--g1", "0.6", "--g2", "0.3", "--beta-grid", "0.05:10:40:log"],
    "sweep": ["--g1", "0.6", "--beta", "1", "--sweep", "g2:0:0.5:6"],
    "goldstone-at-beta_c": ["--g2", "1.000000001", "--beta", repr(critical_beta(_GOLDSTONE))],
    "rootless": ["--g2", "2", "--beta", "5"],
}


@pytest.mark.parametrize("argv", _SPECTRUM_GRIDS.values(), ids=_SPECTRUM_GRIDS)
def test_spectrum_rows_are_the_stdlib_writers_of_the_mode_values(argv, capsys):
    cfg = parse_config(["spectrum", *argv])
    betas = cfg.beta_grid.values() if cfg.beta_grid is not None else [cfg.beta]
    nodes = [_spectrum_node(p, b) for p in cfg.param_nodes for b in betas]
    results = [r for r, _, _ in nodes]
    if argv is _SPECTRUM_GRIDS["goldstone-at-beta_c"]:
        (r,) = results
        assert (r.at_critical, r.labels, r.multiplicities) == (True, ("goldstone",), (2,))
    if argv is _SPECTRUM_GRIDS["rootless"]:
        assert [r.roots for r in results] == [()]

    assert main(["spectrum", *argv]) == 0
    expected = io.StringIO()
    writer = csv.writer(expected, lineterminator="\n")
    writer.writerow(["omega0", "Omega", "g1", "g2", "beta", "at_critical", "root_index", "root",
                     "residual", "label", "multiplicity"])
    writer.writerows(row for _, csv_rows, _ in nodes for row in csv_rows)
    _assert_same_text(capsys.readouterr().out, expected.getvalue())

    assert main(["spectrum", *argv, "--format", "json"]) == 0
    encoder = json.JSONEncoder(allow_nan=False)
    expected = "".join(encoder.encode(json_row) + "\n" for _, _, json_row in nodes)
    _assert_same_text(capsys.readouterr().out, expected)


def test_error_message_cells_are_escaped_by_json_and_quoted_by_csv(monkeypatch, capsys):
    import dicketherm.cli as cli

    # % signs in a cell must reach the output as they are: the row
    # template is filled once and never re-reads a cell
    message = 'bad "node" \\ here, then\na new line é, %s %% 100%'

    def failing(*args):
        # g1 = 5e199 and 1e200 overflow the bound: both are error rows
        scan = phase_scan(*args)
        scan.error[2] = f"ValueError: {message}"
        return scan

    argv = ["--beta", "1", "--sweep", "g1:1:1e200:3"]
    rows, code = _scan_rows("phase-diagram", argv)
    assert rows[1][-1].startswith("OverflowError")
    rows[2][-1] = f"ValueError: {message}"
    monkeypatch.setattr(cli, "phase_scan", failing)
    for fmt in ("json", "csv"):
        assert main(["phase-diagram", *argv, "--format", fmt]) == code == 0
        out = capsys.readouterr().out
        _assert_same_text(out, _expected_output("phase-diagram", rows, fmt))
        if fmt == "json":
            line = out.splitlines()[2]
            assert '\\"node\\" \\\\ here, then\\na new line \\u00e9, %s %% 100%"}' in line
            assert json.loads(line)["error"] == f"ValueError: {message}"
        else:
            cell = '"ValueError: bad ""node"" \\ here, then\na new line é, %s %% 100%"'
            assert out.endswith(f",,error,,,{cell}\n")
            assert list(csv.reader(io.StringIO(out)))[3][-1] == f"ValueError: {message}"


def test_csv_template_and_cell_texts_are_the_writers_own():
    import dicketherm.cli as cli

    def written(*rows):
        out = io.StringIO()
        csv.writer(out, lineterminator="\n").writerows(rows)
        return out.getvalue()

    for width in (2, 8, 10):
        assert cli._csv_line(width) == written(["%s"] * width)
    cells = ["normal", "superradiant", "error", None, 'OverflowError: a, "b"\nc %s %% 100%']
    texts = [cli._ENCODE["csv"](cell) for cell in cells]
    assert texts == ["normal", "superradiant", "error", "", '"OverflowError: a, ""b""\nc %s %% 100%"']
    # a text row, the message before the last cell, is the writer's line
    # of the values in CSV and the encoder's in JSON: no cell is re-read
    header = ("a", "b", "c", "d", "e", "f")
    values = [*cells, 0.1]
    for fmt in ("csv", "json"):
        row = (*map(cli._ENCODE[fmt], cells), repr(0.1))
        assert tuple(map(cli._cell_rule(fmt), values)) == row
        out = io.StringIO()
        cli._write_rows(out, fmt, header, cli._Table({}, frozenset(), [(1, row), (1, row)]))
        if fmt == "csv":
            assert out.getvalue() == written(header, values, values)
        else:
            line = json.dumps(dict(zip(header, values))) + "\n"
            assert out.getvalue() == line * 2


def _stdlib_bytes(fmt, header, rows):
    """What ``csv.writer`` writes for the header and the rows of values, or
    the encoder's line for each row's dict."""
    if fmt == "json":
        encoder = json.JSONEncoder(allow_nan=False)
        return "".join(encoder.encode(dict(zip(header, row))) + "\n" for row in rows)
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows([header, *rows])
    return out.getvalue()


_PERCENT = 'x %s %% 100%, "y"'
_ROW = (1.5, "normal", None, True, 7, -0.0)
# header, the columns every row shares, and the rows of values
_FOLDED_TABLES = {
    "every column shared": (tuple("abcdef"), "abcdef", [_ROW] * 3),
    "one row": (tuple("abcdef"), "ace", [_ROW]),
    "0.0 and -0.0 in one column": (tuple("abcdef"), "abcde", [_ROW, (*_ROW[:5], 0.0), _ROW]),
    "% in shared cells and keys": (
        ("a%s", "100%", "b%%", "c", "d", "e"),
        ("a%s", "b%%", "d"),
        [(_PERCENT, 0.5, "%s", 1.0, "%", None), (_PERCENT, -0.5, "%s", 2.0, "%", "%%")],
    ),
}


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("table", _FOLDED_TABLES.values(), ids=_FOLDED_TABLES)
def test_folded_template_writes_the_stdlib_bytes(table, fmt):
    # the shared cells go into the row template once; each block of rows
    # fills the other columns' fields, a column of floats by %r and any
    # other by its texts, and the lines are what the standard writer
    # writes for the rows' values
    header, shared_names, rows = table
    text = cli._cell_rule(fmt)
    shared = {name: text(rows[0][i]) for i, name in enumerate(header) if name in shared_names}
    floats = {
        name for i, name in enumerate(header)
        if name not in shared and all(type(row[i]) is float for row in rows)
    }
    cells = tuple(
        value if name in floats else text(value)
        for row in rows for name, value in zip(header, row) if name not in shared
    )
    out = io.StringIO()
    _write_rows(out, fmt, header, cli._Table(shared, floats, [(len(rows), cells)]))
    assert out.getvalue() == _stdlib_bytes(fmt, header, rows)


def test_a_column_of_zero_and_negative_zero_is_not_folded(monkeypatch, capsys):
    # 0.0 == -0.0, so only the grid's length may fold a column, never its
    # values' equality
    monkeypatch.setattr(GridSpec, "values", lambda self: [-0.0, 0.0, -0.0])
    for command in _SCAN_HEADERS:
        argv = ["--g1", "0.9", "--beta", "3", "--sweep", "g2:0:1:3"]
        rows, code = _scan_rows(command, argv)
        assert [row[3] for row in rows] == [-0.0, 0.0, -0.0] and code == 0
        for fmt in ("json", "csv"):
            assert main([command, *argv, "--format", fmt]) == 0
            out = capsys.readouterr().out
            _assert_same_text(out, _expected_output(command, rows, fmt))
            assert out.count("-0.0") == 2


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("command", list(_SCAN_HEADERS))
def test_a_refusal_in_mid_table_keeps_the_folded_rows_before_it(
    command, fmt, monkeypatch, capsys
):
    # one node, all normal: every column but beta and bound is folded
    argv = ["--g1", "0.3", "--g2", "0.2", "--beta-grid", "0.5:3.5:6"]
    rows, code = _scan_rows(command, argv)
    assert code == 0 and {row[6] for row in rows} == {"normal"}
    k = 3

    def poisoned(*args):
        scan = phase_scan(*args)
        scan.bound[k] = math.inf
        return scan

    monkeypatch.setattr(cli, "phase_scan", poisoned)
    assert main([command, *argv, "--format", fmt]) == 1
    captured = capsys.readouterr()
    assert captured.out == _expected_output(command, rows[:k], fmt)
    assert captured.err == f"error: non-finite value inf in a {fmt.upper()} row\n"


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_order_parameter_stops_at_an_error_row_of_the_scan(fmt, monkeypatch, capsys):
    import dicketherm.cli as cli

    k = 3
    text = "OverflowError: marked node"

    def marked(*args):
        scan = phase_scan(*args)
        scan.phase[k], scan.bound[k], scan.rho[k], scan.error[k] = "error", math.nan, math.nan, text
        return scan

    argv = ["order-parameter", "--g1", "0.9", "--g2", "0.6", "--beta-grid", "0.5:3.5:6",
            "--format", fmt]
    assert main(argv) == 0
    clean = capsys.readouterr().out.splitlines()
    monkeypatch.setattr(cli, "phase_scan", marked)
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out.splitlines() == clean[:k + (fmt == "csv")]
    assert captured.err == f"error: {text}\n"


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize(
    "command, column",
    [
        ("phase-diagram", "bound"),
        ("phase-diagram", "rho"),
        ("phase-diagram", "beta_c"),
        ("order-parameter", "bound"),
        ("order-parameter", "rho"),
    ],
)
def test_non_finite_scan_value_stops_the_column_rows(
    command, column, fmt, monkeypatch, capsys
):
    import dicketherm.cli as cli

    argv = [command, "--g1", "0.9", "--g2", "0.6", "--beta-grid", "0.5:3.5:6",
            "--format", fmt]
    assert main(argv) == 0
    clean = capsys.readouterr().out.splitlines()
    k = 3

    def poisoned(*args):
        scan = phase_scan(*args)
        getattr(scan, column)[k] = math.inf
        return scan

    monkeypatch.setattr(cli, "phase_scan", poisoned)
    assert main(argv) == 1
    captured = capsys.readouterr()
    written = k + (fmt == "csv")
    assert captured.out.splitlines() == clean[:written]
    assert captured.err == f"error: non-finite value inf in a {fmt.upper()} row\n"


def _text_table(fmt, rows):
    """A table of the rows as cell texts by the cell rule, made as they are
    written, a block of one row each."""
    import dicketherm.cli as cli

    text = cli._cell_rule(fmt)
    return cli._Table({}, frozenset(), ((1, tuple(map(text, row))) for row in rows))


def test_write_rows_cells_and_non_finite_json():
    header = ("a", "b")
    with pytest.raises(ValueError, match="non-finite value nan in a JSON row"):
        _write_rows(io.StringIO(), "json", header, _text_table("json", [(1.0, math.nan)]))
    stream = io.StringIO()
    _write_rows(stream, "csv", header, _text_table("csv", [(1.0, None), (True, "x")]))
    assert stream.getvalue() == "a,b\n1.0,\nTrue,x\n"


def test_non_finite_value_in_json_row_exits_one(monkeypatch, capsys):
    import dicketherm.cli as cli

    monkeypatch.setattr(cli, "critical_beta", lambda params: math.inf)
    argv = ["critical-temp", "--Omega", "5e-324", "--g1", "1", "--format", "json"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error:" in captured.err


def test_non_finite_value_in_csv_row_exits_one(monkeypatch, capsys):
    import dicketherm.cli as cli

    for value in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="non-finite"):
            _write_rows(io.StringIO(), "csv", ("a", "b"), _text_table("csv", [("x", value)]))
    monkeypatch.setattr(cli, "critical_beta", lambda params: math.inf)
    assert main(["critical-temp", "--Omega", "5e-324", "--g1", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "omega0,Omega,g1,g2,quantum_critical_gap,beta_c\n"
    assert "non-finite value inf" in captured.err


def _inf_spectrum(p, beta):
    result = collective_modes(p, beta)
    return dataclasses.replace(result, roots=(math.inf, *result.roots[1:]))


# command, argv, the library function the command calls, and a stand-in
# that puts an infinity into the node's values
_INF_NODES = [
    ("critical-temp", ["--g1", "1.2"], "critical_beta", lambda p: math.inf),
    ("partition-ratio", ["--g1", "0.6", "--beta", "1"], "_bounded_log_partition_ratio",
     lambda p, beta: (convergence_bound(p, beta), math.inf)),
    ("spectrum", ["--g1", "0.6", "--beta", "1"], "collective_modes", _inf_spectrum),
    ("ed-curve", ["--g1", "0.5", "--beta", "1", "--n-list", "2"], "photon_density_curve",
     lambda *args, **kwargs: [CurvePoint(2, 8, 0.25, math.inf)]),
]


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize(
    "command, argv, name, stand_in", _INF_NODES, ids=[case[0] for case in _INF_NODES]
)
def test_non_finite_value_in_a_node_row_exits_one_with_the_scans_message(
    command, argv, name, stand_in, fmt, monkeypatch, capsys
):
    import dicketherm.cli as cli

    monkeypatch.setattr(cli, name, stand_in)
    assert main([command, *argv, "--format", fmt]) == 1
    captured = capsys.readouterr()
    header = ",".join(cli._TABLES[command][0]) + "\n"
    assert captured.out == (header if fmt == "csv" else "")
    assert captured.err == f"error: non-finite value inf in a {fmt.upper()} row\n"


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_critical_temp_gap_survives_overflowing_product(fmt, capsys):
    argv = ["critical-temp", "--omega0", "1e300", "--Omega", "1e300", "--format", fmt]
    assert main(argv) == 0
    out = capsys.readouterr().out.splitlines()
    gap = (
        float(out[1].split(",")[4]) if fmt == "csv"
        else json.loads(out[0])["quantum_critical_gap"]
    )
    assert gap == pytest.approx(-1e300, rel=1e-15)


def test_underflowing_product_gives_rows_not_errors(capsys):
    # omega0 * Omega underflows to 0; the bound is taken in split form
    flags = ["--omega0", "1e-200", "--Omega", "1e-200", "--g1", "1e-199", "--beta", "1"]
    assert main(["phase-diagram", *flags, "--format", "json"]) == 0
    (row,) = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert (row["phase"], row["error"], row["rho"]) == ("normal", None, 0.0)
    assert row["beta_c"] == pytest.approx(4e200 * math.atanh(0.01), rel=1e-14)
    assert main(["order-parameter", *flags]) == 0
    header, record = capsys.readouterr().out.splitlines()
    assert record.endswith(",normal,0.0")


@pytest.mark.parametrize("command", ["phase-diagram", "order-parameter"])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_rho_survives_an_overflowing_coupling_square(command, fmt, capsys):
    # g1^2 = 1e400 is outside the float range; G / omega0 = 1e100 is not
    flags = ["--omega0", "1e300", "--Omega", "1", "--g1", "1e200", "--beta", "1"]
    assert main([command, *flags, "--format", fmt]) == 0
    out = capsys.readouterr().out
    (row,) = csv.DictReader(io.StringIO(out)) if fmt == "csv" else map(json.loads, out.splitlines())
    assert row["phase"] == "superradiant"
    assert float(row["rho"]) == pytest.approx(2.5e-201, rel=1e-14)


def test_order_parameter_stops_at_the_first_failing_node(capsys):
    # the g1 = 5e199 node overflows; the row before it is written first
    assert main(["order-parameter", "--beta", "1", "--sweep", "g1:1:1e200:3"]) == 1
    captured = capsys.readouterr()
    header, *records = captured.out.splitlines()
    assert records == ["1.0,1.0,1.0,0.0,1.0,0.24491866240370913,normal,0.0"]
    with pytest.raises(OverflowError) as overflow:
        convergence_bound(ModelParams(1.0, 1.0, g1=5e199), 1.0)
    (text,) = phase_scan([ModelParams(1.0, 1.0, g1=5e199)], [1.0]).error
    assert text == f"OverflowError: {overflow.value}"
    assert captured.err == f"error: {text}\n"


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_subnormal_Omega_gives_finite_rows(fmt, capsys):
    def only_row(argv):
        assert main([*argv, "--format", fmt]) == 0
        out = capsys.readouterr().out
        (row,) = csv.DictReader(io.StringIO(out)) if fmt == "csv" else map(json.loads, out.splitlines())
        return row

    row = only_row(["phase-diagram", "--Omega", "1e-310", "--g1", "1", "--beta", "1"])
    assert (float(row["beta_c"]), float(row["bound"]), row["phase"]) == (4.0, 0.25, "normal")
    row = only_row(["critical-temp", "--Omega", "5e-324", "--g1", "1"])
    assert float(row["beta_c"]) == 4.0


def test_parse_builds_no_sweep_nodes():
    # the sweep's two ends stand for every node of the model's interval domain
    cfg = parse_config(["phase-diagram", "--beta", "1", "--sweep", "g1:0:2:10000"])
    assert "param_nodes" not in vars(cfg)
    assert len(cfg.param_nodes) == 10000


def test_no_command_loads_scipy():
    # validate and the six row commands, all in one fresh process; the ED
    # ladder's eigensolves are numpy's, and validate brackets the
    # finite-sum beta_c by a sign change, with no root solver; nor does
    # one load argparse, as the CLI reads its arguments itself
    src = os.path.dirname(os.path.dirname(sys.modules["dicketherm"].__file__))
    code = (
        "import sys, dicketherm.cli\n"
        "runs = (\n"
        "    ['validate'],\n"
        "    ['critical-temp', '--g1', '0.9', '--g2', '0.6'],\n"
        "    ['phase-diagram', '--g1', '0.9', '--g2', '0.6',\n"
        "     '--beta-grid', '0.5:10:20'],\n"
        "    ['spectrum', '--g1', '0.5', '--g2', '0.2', '--beta', '1'],\n"
        "    ['partition-ratio', '--g1', '0.5', '--g2', '0.2', '--beta', '1'],\n"
        "    ['order-parameter', '--g1', '0.9', '--g2', '0.6',\n"
        "     '--beta-grid', '0.5:10:20'],\n"
        "    ['ed-curve', '--kind', 'generalized-dicke', '--g1', '0.5',\n"
        "     '--g2', '0.3', '--beta', '1', '--n-list', '1,2,3'],\n"
        "    ['ed-curve', '--kind', 'dicke-rwa', '--g1', '0.5', '--beta', '1',\n"
        "     '--n-list', '1,2,3'],\n"
        ")\n"
        "codes = [dicketherm.cli.main(a + ['--output', sys.argv[1]]) for a in runs]\n"
        "print(codes, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'),\n"
        "      'argparse' in sys.modules)"
    )
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", code, os.devnull], env=env, capture_output=True,
        text=True, check=True,
    )
    assert out.stdout.strip() == f"{[0] * 8} [] False"


def test_shared_parser_keeps_no_state_between_calls():
    first = parse_config(["spectrum", "--g1", "0.7", "--beta", "2", "--format", "json"])
    second = parse_config(["spectrum", "--beta", "3"])
    assert (first.params.g1, first.fmt) == (0.7, "json")
    assert (second.params.g1, second.beta, second.fmt) == (0.0, 3.0, "csv")
