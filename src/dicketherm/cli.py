"""Batch command-line front end.

Commands: critical-temp, phase-diagram, spectrum, partition-ratio,
order-parameter, ed-curve, validate.  Output is CSV or newline-delimited
JSON with fixed 17-significant-digit float formatting, so identical
configurations produce byte-identical files.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import math
import os
import sys
from dataclasses import dataclass
from typing import Iterable, Sequence, TextIO

import numpy as np

from dicketherm.exact_diag import photon_density_curve
from dicketherm.fermionization import verify_trace_identity
from dicketherm.matsubara import (
    a0_c0_sum,
    fermionic_lorentzian_sum,
    finite_sum_critical_beta,
    kernel_a,
    kernel_c,
)
from dicketherm.operators import HamiltonianKind, ModelParams
from dicketherm.spectrum import collective_modes, goldstone_residual
from dicketherm.thermo import (
    convergence_bound,
    classify_phase,
    critical_beta,
    log_partition_ratio,
    order_parameter,
    phase_scan,
    quantum_critical_gap,
)

__all__ = ["ConfigError", "GridSpec", "RunConfig", "main", "parse_config", "run"]

COMMANDS = (
    "critical-temp",
    "phase-diagram",
    "spectrum",
    "partition-ratio",
    "order-parameter",
    "ed-curve",
    "validate",
)
SWEEP_VARIABLES = ("g1", "g2", "beta", "omega0", "Omega")
WORKERS_ENV = "DICKETHERM_WORKERS"

_FILE_KEYS = {
    "omega0",
    "Omega",
    "g1",
    "g2",
    "beta",
    "beta-grid",
    "sweep",
    "output",
    "format",
    "workers",
    "n-list",
    "ed-tol",
    "cutoff",
    "kind",
}


class ConfigError(Exception):
    """Malformed input; the message is the one-line diagnostic."""


@dataclass(frozen=True)
class GridSpec:
    variable: str
    start: float
    stop: float
    steps: int
    scale: str = "linear"

    def __post_init__(self) -> None:
        if self.steps < 1:
            raise ConfigError(f"grid steps must be >= 1, got {self.steps}")
        if self.start > self.stop:
            raise ConfigError(
                f"grid start {self.start} exceeds stop {self.stop}"
            )
        if self.scale not in ("linear", "log"):
            raise ConfigError(f"unknown grid scale '{self.scale}'")
        if self.scale == "log" and self.start <= 0.0:
            raise ConfigError("log grids need a positive start")

    def values(self) -> list[float]:
        if self.steps == 1:
            return [self.start]
        if self.scale == "log":
            return [float(v) for v in np.geomspace(self.start, self.stop, self.steps)]
        return [float(v) for v in np.linspace(self.start, self.stop, self.steps)]


@dataclass(frozen=True)
class RunConfig:
    command: str
    params: ModelParams
    beta: float | None = None
    beta_grid: GridSpec | None = None
    sweep: GridSpec | None = None
    output: str | None = None
    fmt: str = "csv"
    workers: int | None = None
    n_list: tuple[int, ...] = (2, 4, 6, 8)
    ed_tol: float = 1e-6
    cutoff: int = 512
    kind: HamiltonianKind = HamiltonianKind.GENERALIZED_DICKE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dicketherm",
        description="Finite-temperature thermodynamics and collective "
        "spectrum of the two-coupling Dicke model.",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", help="key=value config file")
    parser.add_argument("--omega0", type=float, help="boson mode frequency")
    parser.add_argument("--Omega", type=float, help="atomic level splitting")
    parser.add_argument("--g1", type=float, help="rotating coupling")
    parser.add_argument("--g2", type=float, help="counter-rotating coupling")
    parser.add_argument("--beta", type=float, help="inverse temperature")
    parser.add_argument(
        "--beta-grid",
        metavar="START:STOP:STEPS[:SCALE]",
        help="inverse-temperature grid (mutually exclusive with --beta)",
    )
    parser.add_argument(
        "--sweep",
        metavar="VAR:START:STOP:STEPS[:SCALE]",
        help=f"parameter sweep; VAR in {{{', '.join(SWEEP_VARIABLES)}}}",
    )
    parser.add_argument("--output", help="output path (default stdout)")
    parser.add_argument("--format", choices=("csv", "json"), dest="fmt")
    parser.add_argument(
        "--workers",
        type=int,
        help=f"accepted for compatibility, no effect; overrides ${WORKERS_ENV}",
    )
    parser.add_argument(
        "--n-list", help="comma-separated atom numbers for ed-curve"
    )
    parser.add_argument(
        "--ed-tol", type=float, help="truncation tolerance for ed-curve"
    )
    parser.add_argument(
        "--cutoff",
        type=int,
        help="accepted and validated (integer >= 10), no effect",
    )
    parser.add_argument(
        "--kind",
        choices=[k.value for k in HamiltonianKind],
        help="Hamiltonian kind for ed-curve",
    )
    return parser


def _parse_config_text(text: str) -> dict[str, str]:
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(
                f"config line {lineno} is not key=value: {line!r}"
            )
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _FILE_KEYS:
            raise ConfigError(f"unknown config key '{key}'")
        values[key] = value
    return values


def _grid_from_text(text: str, *, variable: str | None = None) -> GridSpec:
    parts = text.split(":")
    if variable is None:
        variable = parts[0]
        parts = parts[1:]
    if len(parts) not in (3, 4):
        raise ConfigError(
            f"grid spec needs START:STOP:STEPS[:SCALE], got '{text}'"
        )
    try:
        start, stop, steps = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise ConfigError(f"bad grid spec '{text}': {exc}") from None
    scale = parts[3] if len(parts) == 4 else "linear"
    if variable not in SWEEP_VARIABLES:
        raise ConfigError(f"unknown sweep variable '{variable}'")
    return GridSpec(variable, start, stop, steps, scale)


def _float_key(raw: dict[str, str], key: str) -> float | None:
    if key not in raw:
        return None
    try:
        return float(raw[key])
    except ValueError:
        raise ConfigError(f"config key '{key}' is not a number: {raw[key]!r}")


def _int_setting(name: str, value) -> int:
    try:
        return int(value)
    except ValueError:
        raise ConfigError(f"{name} is not an integer: {value!r}") from None


def parse_config(
    args: Sequence[str], file_text: str | None = None
) -> RunConfig:
    """Build a RunConfig from CLI arguments plus optional config text.

    Flags override file values.  Malformed input raises ConfigError whose
    message is the one-line diagnostic; argparse errors exit 2 directly.
    """
    ns = build_parser().parse_args(list(args))
    if file_text is None and ns.config:
        try:
            with open(ns.config, encoding="utf-8") as fh:
                file_text = fh.read()
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}") from None
    raw = _parse_config_text(file_text) if file_text else {}

    def pick(flag_value, key, fallback):
        if flag_value is not None:
            return flag_value
        file_value = raw.get(key)
        return file_value if file_value is not None else fallback

    try:
        params = ModelParams(
            omega0=float(pick(ns.omega0, "omega0", 1.0)),
            Omega=float(pick(ns.Omega, "Omega", 1.0)),
            g1=float(pick(ns.g1, "g1", 0.0)),
            g2=float(pick(ns.g2, "g2", 0.0)),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None

    beta = ns.beta if ns.beta is not None else _float_key(raw, "beta")
    beta_grid_text = pick(ns.beta_grid, "beta-grid", None)
    beta_grid = (
        _grid_from_text(beta_grid_text, variable="beta")
        if beta_grid_text
        else None
    )
    sweep_text = pick(ns.sweep, "sweep", None)
    sweep = _grid_from_text(sweep_text) if sweep_text else None

    if beta is not None and beta_grid is not None:
        raise ConfigError("--beta and --beta-grid are mutually exclusive")
    if beta is not None and (not math.isfinite(beta) or beta <= 0.0):
        raise ConfigError(
            f"beta must be positive and finite, got {beta}; for the "
            "zero-temperature line query quantum_critical_gap via "
            "critical-temp"
        )
    if sweep is not None and sweep.variable == "beta" and (
        beta is not None or beta_grid is not None
    ):
        raise ConfigError("beta swept twice (--sweep beta plus --beta/--beta-grid)")

    workers = pick(ns.workers, "workers", None)
    if workers is None and os.environ.get(WORKERS_ENV):
        workers = os.environ[WORKERS_ENV]
    workers = _int_setting("workers", workers) if workers is not None else None

    n_list_text = pick(ns.n_list, "n-list", None)
    if n_list_text is None:
        n_list = (2, 4, 6, 8)
    else:
        try:
            n_list = tuple(int(s) for s in str(n_list_text).split(","))
        except ValueError:
            raise ConfigError(f"bad n-list: {n_list_text!r}")
    ed_tol = ns.ed_tol if ns.ed_tol is not None else _float_key(raw, "ed-tol")
    if ed_tol is None:
        ed_tol = 1e-6
    if not (math.isfinite(ed_tol) and ed_tol > 0.0):
        raise ConfigError(f"ed-tol must be positive and finite, got {ed_tol}")
    cutoff = _int_setting("cutoff", pick(ns.cutoff, "cutoff", 512))
    if cutoff < 10:
        raise ConfigError(f"cutoff must be at least 10, got {cutoff}")
    kind_text = pick(ns.kind, "kind", HamiltonianKind.GENERALIZED_DICKE.value)
    try:
        kind = HamiltonianKind(kind_text)
    except ValueError:
        raise ConfigError(f"unknown kind '{kind_text}'")

    command = ns.command
    needs_beta = command in (
        "phase-diagram",
        "spectrum",
        "partition-ratio",
        "order-parameter",
        "ed-curve",
    )
    if command == "critical-temp" and (beta is not None or beta_grid is not None):
        raise ConfigError("critical-temp takes no --beta/--beta-grid")
    if needs_beta and beta is None and beta_grid is None and not (
        sweep is not None and sweep.variable == "beta"
    ):
        raise ConfigError(f"{command} requires --beta or --beta-grid")
    if command == "ed-curve" and beta is None:
        raise ConfigError("ed-curve takes a single --beta")

    return RunConfig(
        command=command,
        params=params,
        beta=beta,
        beta_grid=beta_grid,
        sweep=sweep,
        output=pick(ns.output, "output", None),
        fmt=pick(ns.fmt, "format", "csv"),
        workers=workers,
        n_list=n_list,
        ed_tol=ed_tol,
        cutoff=cutoff,
        kind=kind,
    )


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return "%.17g" % value
    return str(value)


def _json_scalar(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        # JSON has no NaN or infinity; error rows carry null instead
        return "%.17g" % value if math.isfinite(value) else "null"
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_json_scalar(v) for v in value) + "]"
    if isinstance(value, str):
        return '"' + value.replace("\\", "\\\\").replace('"', '\\"') + '"'
    return str(value)


def _write_rows(
    stream: TextIO, fmt: str, header: Sequence[str], rows: Iterable[dict]
) -> None:
    if fmt == "csv":
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(row[k]) for k in header])
    else:
        for row in rows:
            body = ", ".join(
                f'"{k}": {_json_scalar(row[k])}' for k in header
            )
            stream.write("{" + body + "}\n")


def _param_nodes(config: RunConfig) -> list[ModelParams]:
    if config.sweep is not None and config.sweep.variable != "beta":
        return [
            dataclasses.replace(config.params, **{config.sweep.variable: v})
            for v in config.sweep.values()
        ]
    return [config.params]


def _beta_nodes(config: RunConfig) -> list[float]:
    if config.sweep is not None and config.sweep.variable == "beta":
        return config.sweep.values()
    if config.beta_grid is not None:
        return config.beta_grid.values()
    return [config.beta] if config.beta is not None else []


_PARAM_COLUMNS = ("omega0", "Omega", "g1", "g2")


def _param_cells(params: ModelParams) -> dict:
    return {
        "omega0": params.omega0,
        "Omega": params.Omega,
        "g1": params.g1,
        "g2": params.g2,
    }


def _run_critical_temp(config: RunConfig, stream: TextIO) -> int:
    header = (*_PARAM_COLUMNS, "quantum_critical_gap", "beta_c")
    rows = []
    for p in _param_nodes(config):
        rows.append(
            {
                **_param_cells(p),
                "quantum_critical_gap": quantum_critical_gap(p),
                "beta_c": critical_beta(p),
            }
        )
    _write_rows(stream, config.fmt, header, rows)
    return 0


def _run_phase_diagram(config: RunConfig, stream: TextIO) -> int:
    points = phase_scan(
        _param_nodes(config), _beta_nodes(config), workers=config.workers
    )
    header = (*_PARAM_COLUMNS, "beta", "bound", "phase", "beta_c", "rho", "error")
    rows = [
        {
            **_param_cells(pt.params),
            "beta": pt.beta,
            "bound": pt.bound,
            "phase": pt.phase,
            "beta_c": pt.beta_c,
            "rho": pt.rho,
            "error": pt.error,
        }
        for pt in points
    ]
    _write_rows(stream, config.fmt, header, rows)
    return 0


def _run_spectrum(config: RunConfig, stream: TextIO) -> int:
    results = [
        collective_modes(p, b)
        for p in _param_nodes(config)
        for b in _beta_nodes(config)
    ]
    if config.fmt == "json":
        header = (
            *_PARAM_COLUMNS,
            "beta",
            "at_critical",
            "roots",
            "residuals",
            "labels",
            "multiplicities",
        )
        rows = [
            {
                **_param_cells(r.params),
                "beta": r.beta,
                "at_critical": r.at_critical,
                "roots": list(r.roots),
                "residuals": list(r.residuals),
                "labels": list(r.labels),
                "multiplicities": list(r.multiplicities),
            }
            for r in results
        ]
    else:
        header = (
            *_PARAM_COLUMNS,
            "beta",
            "at_critical",
            "root_index",
            "root",
            "residual",
            "label",
            "multiplicity",
        )
        rows = []
        for r in results:
            for i, root in enumerate(r.roots):
                rows.append(
                    {
                        **_param_cells(r.params),
                        "beta": r.beta,
                        "at_critical": r.at_critical,
                        "root_index": i,
                        "root": root,
                        "residual": r.residuals[i],
                        "label": r.labels[i],
                        "multiplicity": r.multiplicities[i],
                    }
                )
    _write_rows(stream, config.fmt, header, rows)
    return 0


def _run_partition_ratio(config: RunConfig, stream: TextIO) -> int:
    header = (*_PARAM_COLUMNS, "beta", "bound", "log_partition_ratio")
    rows = []
    for p in _param_nodes(config):
        for b in _beta_nodes(config):
            rows.append(
                {
                    **_param_cells(p),
                    "beta": b,
                    "bound": convergence_bound(p, b),
                    "log_partition_ratio": log_partition_ratio(
                        p, b, cutoff=config.cutoff
                    ),
                }
            )
    _write_rows(stream, config.fmt, header, rows)
    return 0


def _run_order_parameter(config: RunConfig, stream: TextIO) -> int:
    header = (*_PARAM_COLUMNS, "beta", "bound", "phase", "rho")
    rows = []
    for p in _param_nodes(config):
        for b in _beta_nodes(config):
            rows.append(
                {
                    **_param_cells(p),
                    "beta": b,
                    "bound": convergence_bound(p, b),
                    "phase": classify_phase(p, b),
                    "rho": order_parameter(p, b),
                }
            )
    _write_rows(stream, config.fmt, header, rows)
    return 0


def _run_ed_curve(config: RunConfig, stream: TextIO) -> int:
    header = (
        *_PARAM_COLUMNS,
        "beta",
        "n_atoms",
        "n_max_used",
        "photons_per_atom",
        "truncation_error_estimate",
    )
    rows = []
    for p in _param_nodes(config):
        curve = photon_density_curve(
            p,
            config.beta,
            config.n_list,
            target_tol=config.ed_tol,
            kind=config.kind,
        )
        for point in curve:
            rows.append(
                {
                    **_param_cells(p),
                    "beta": config.beta,
                    "n_atoms": point.n_atoms,
                    "n_max_used": point.n_max_used,
                    "photons_per_atom": point.photons_per_atom,
                    "truncation_error_estimate": point.truncation_error_estimate,
                }
            )
    _write_rows(stream, config.fmt, header, rows)
    return 0


def _run_validate(config: RunConfig, stream: TextIO) -> int:
    del config
    checks: list[tuple[str, float, float]] = []

    worst = 0.0
    for beta in (0.5, 2.0, 5.0):
        for m in (0.25, 0.5, 2.0):
            exact = beta / (2.0 * m) * math.tanh(beta * m / 2.0)
            worst = max(worst, abs(fermionic_lorentzian_sum(m, beta) - exact))
    checks.append(("fermionic-sum-identity", worst, 1e-10))

    worst = 0.0
    for beta in (0.5, 2.0, 5.0):
        p = ModelParams(1.3, 0.8, g1=0.7, g2=0.4)
        kv = a0_c0_sum(0, p, beta)
        closed = kernel_a(0, p, beta).real + 2.0 * kernel_c(0, p, beta)
        worst = max(worst, abs(kv.a.real + 2.0 * kv.c - closed))
    checks.append(("kernel-sum-vs-closed-form", worst, 1e-8))

    worst = 0.0
    for n_atoms in (1, 2):
        for beta in (0.5, 2.0):
            worst = max(
                worst,
                verify_trace_identity(
                    ModelParams(1.0, 1.0, g1=0.4, g2=0.3), n_atoms, 6, beta
                ),
            )
    checks.append(("trace-identity", worst, 1e-8))

    worst = max(
        abs(goldstone_residual(ModelParams(1.0, 1.0, g1=1.2))),
        abs(goldstone_residual(ModelParams(2.0, 1.0, g2=2.0))),
    )
    checks.append(("goldstone-residual", worst, 1e-10))

    worst = 0.0
    for p in (
        ModelParams(1.0, 1.0, g1=1.2),
        ModelParams(2.0, 1.0, g2=2.0),
        ModelParams(0.8, 1.3, g1=0.9, g2=0.6),
    ):
        closed = critical_beta(p)
        numeric = finite_sum_critical_beta(p)
        worst = max(worst, abs(numeric - closed) / closed)
    checks.append(("critical-beta-cross-check", worst, 1e-8))

    failed = False
    for name, residual, tol in checks:
        ok = residual < tol
        failed = failed or not ok
        stream.write(
            f"{name}: residual={residual:.3e} tol={tol:.1e} "
            f"{'PASS' if ok else 'FAIL'}\n"
        )
    return 1 if failed else 0


_DISPATCH = {
    "critical-temp": _run_critical_temp,
    "phase-diagram": _run_phase_diagram,
    "spectrum": _run_spectrum,
    "partition-ratio": _run_partition_ratio,
    "order-parameter": _run_order_parameter,
    "ed-curve": _run_ed_curve,
    "validate": _run_validate,
}


def run(config: RunConfig) -> int:
    """Dispatch one parsed configuration; returns the process exit code."""
    handler = _DISPATCH[config.command]
    if config.output:
        with open(config.output, "w", encoding="utf-8", newline="") as fh:
            return handler(config, fh)
    return handler(config, sys.stdout)


def main(argv: Sequence[str] | None = None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    try:
        config = parse_config(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        return run(config)
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
