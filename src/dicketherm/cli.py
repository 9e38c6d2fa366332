"""Batch command-line front end.

Commands: critical-temp, phase-diagram, spectrum, partition-ratio,
order-parameter, ed-curve, validate.  Each row command gives a table,
and one writer writes it as ``csv`` or ``json`` (one object per line):
the writer's own ``%`` template for a row of that width, the JSON
encoder's line of keys and separators or ``csv.writer``'s line of
``%s`` cells, repeated over a block of rows and filled with the block's
cells by one ``%``, so a row is byte for byte what the writer would
write for the row's values.  A table may name the cells that every row
shares; their texts go into the template once, per job, and each row
fills only the other fields.  A float's text is its ``repr``, the
shortest form that round-trips, which ``json`` emits and ``csv.writer``
writes unquoted, so identical configurations produce byte-identical
files; a column of floats is handed to the template's ``%r`` fields as
Python floats, whose ``%r`` is that ``repr``.  Any other cell is the
format's own text for it (CSV booleans print as ``True``/``False``).
phase-diagram and order-parameter evaluate their whole grid in one
``phase_scan`` call and write their rows from columns, 256 rows to a
``%``: the grid's and the scan's floats, and text columns where a cell
is empty or a value repeats, each distinct string formatted once; they
share, from what the grid and the scan's labels already say, each input
of one value (a fixed parameter, a single beta), beta_c of a single
parameter node, a phase label or error cell that every node has, a
numeric column empty at every node, and rho 0.0 where no node is
superradiant or an error.  The other commands
compute node by node, and one cell rule gives each value's text as its
row is made; each row is a block of one row, written as it is made.  A
scan node whose convergence bound lies outside the float range is an
error row, and no other node is.  phase-diagram writes it with its
``OverflowError`` text and empty (CSV) or ``null`` (JSON) numeric
cells; order-parameter stops there and exits 1 with that text, after
the rows before it.  Any other NaN or infinity in a row is an error as
well: the command exits 1, after the rows before it.  A refusal that
the parameters alone decide (spectrum's g1 + g2 = 0, a node whose
energies span too far for one unit in spectrum and partition-ratio, an
ed-curve ladder's inputs) comes before any row.  validate runs fixed
checks and writes a text report.

An argv is one COMMAND, at any position, and flags ``--NAME VALUE`` or
``--NAME=VALUE``, NAME a setting or ``config``; a separate value may
start with one ``-`` (a negative number), not two, and the last of a
repeated flag wins.  ``-h`` or ``--help`` writes the command list and
each flag's help to stdout and exits 0.  Each setting is one entry of
``_SETTINGS``: converter, default, the commands that read it, help.  A
``--NAME`` flag and a ``NAME = value`` config line go through the same
converter, flags override lines, and a command refuses every setting it
does not read.  Every malformed input, an unknown, abbreviated or
valueless flag, a stray argument, a missing or unknown command, or a
bad value, exits 2 with one line on stderr.
"""

from __future__ import annotations

import csv
import json
import math
import sys
from dataclasses import dataclass
from functools import cached_property, lru_cache, partial
from itertools import chain, islice, repeat
from operator import attrgetter
from typing import (
    AbstractSet,
    Callable,
    Iterable,
    Iterator,
    Mapping,
    NamedTuple,
    Sequence,
    TextIO,
)

import numpy as np

from dicketherm.exact_diag import check_ladder_inputs, photon_density_curve
from dicketherm.fermionization import verify_trace_identity
from dicketherm.matsubara import a0_c0_sum, fermionic_lorentzian_sum
from dicketherm.operators import HamiltonianKind, ModelParams, check_couplings
from dicketherm.spectrum import check_coupled, collective_modes, goldstone_residual
from dicketherm.thermo import (
    ParamGrid,
    PhaseScan,
    _bounded_log_partition_ratio,
    check_one_unit,
    convergence_bound,
    critical_beta,
    phase_scan,
    quantum_critical_gap,
)

__all__ = ["ConfigError", "GridSpec", "RunConfig", "main", "parse_config", "run"]

SWEEP_VARIABLES = ("g1", "g2", "omega0", "Omega")
# the texts of each choice setting, and the value of each
FORMATS = {"csv": "csv", "json": "json"}
_KINDS = {kind.value: kind for kind in HamiltonianKind}

# the commands that read each group of settings
_GRIDDED = ("phase-diagram", "spectrum", "partition-ratio", "order-parameter")
_THERMAL = (*_GRIDDED, "ed-curve")
_MODEL = ("critical-temp", *_THERMAL)
COMMANDS = (*_MODEL, "validate")


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
        if self.variable == "beta" and not self.start > 0.0:
            raise ConfigError(f"beta must be positive, got grid start {self.start}")
        if not (math.isfinite(self.start) and math.isfinite(self.stop)):
            raise ConfigError(f"grid bounds must be finite, got {self.start}:{self.stop}")
        if self.start > self.stop:
            raise ConfigError(f"grid start {self.start} exceeds stop {self.stop}")
        if self.scale not in ("linear", "log"):
            raise ConfigError(f"unknown grid scale '{self.scale}'")
        if self.scale == "log" and self.start <= 0.0:
            raise ConfigError("log grids need a positive start")

    def values(self) -> list[float]:
        """The grid's points as floats, bit for bit ``np.linspace`` or
        ``np.geomspace`` of the spec, by their float operations without
        their wrappers (``_linspace``).

        A log grid is evaluated as ``np.geomspace`` evaluates one of a
        positive start: 10 to the power of the linear grid of the two
        decimal logarithms, with the ends replaced by start and stop.
        """
        if self.steps == 1:
            return [self.start]
        if self.scale == "log":
            exponents = _linspace(np.log10(self.start), np.log10(self.stop), self.steps)
            values = np.power(10.0, exponents).tolist()
            values[0], values[-1] = self.start, self.stop
            return values
        return _linspace(self.start, self.stop, self.steps).tolist()


def _linspace(start: float, stop: float, steps: int) -> np.ndarray:
    """``np.linspace(start, stop, steps)`` for steps >= 2, by its own float
    operations without its wrapper: point i at i * step + start, step =
    (stop - start) / (steps - 1), and the last at stop."""
    div = steps - 1
    delta = stop - start
    step = delta / div
    points = np.arange(steps, dtype=float)
    if step == 0.0:
        # np.linspace's order where the step underflows
        points /= div
        points *= delta
    else:
        points *= step
    points += start
    points[-1] = stop
    return points


@dataclass(frozen=True)
class RunConfig:
    command: str
    params: ModelParams
    beta: float | None
    beta_grid: GridSpec | None
    sweep: GridSpec | None
    output: str | None
    fmt: str
    n_list: tuple[int, ...]
    ed_tol: float
    kind: HamiltonianKind

    @cached_property
    def param_nodes(self) -> list[ModelParams]:
        """The swept model parameters, or ``params`` alone.

        Raises ValueError for a sweep value outside the model's domain.
        """
        if self.sweep is not None:
            return _swept(self.params, self.sweep.variable, self.sweep.values())
        return [self.params]


def _swept(params: ModelParams, variable: str, values: Iterable[float]) -> list[ModelParams]:
    """``params`` with ``variable`` set to each value in turn, each node
    checked by ``ModelParams``."""
    fields = {name: getattr(params, name) for name in _PARAM_COLUMNS}
    nodes = []
    for value in values:
        fields[variable] = value
        nodes.append(ModelParams(**fields))
    return nodes


# Converters: each takes a setting's name and its text, from a flag or a
# config line alike, and returns its value or raises ConfigError with the
# one-line diagnostic.
def _number(name: str, text: str, parse: Callable = float, what: str = "a number"):
    try:
        return parse(text)
    except ValueError:
        raise ConfigError(f"{name} is not {what}: {text!r}") from None


def _positive(name: str, text: str) -> float:
    value = _number(name, text)
    if not 0.0 < value < math.inf:
        raise ConfigError(f"{name} must be positive and finite, got {value}")
    return value


def _one_of(name: str, text: str, choices: dict[str, object]):
    try:
        return choices[text]
    except KeyError:
        raise ConfigError(f"{name} must be one of {', '.join(choices)}, got {text!r}") from None


def _n_list(name: str, text: str) -> tuple[int, ...]:
    try:
        return tuple(map(int, text.split(",")))
    except ValueError:
        raise ConfigError(f"bad {name}: {text!r}") from None


def _grid(name: str, text: str) -> GridSpec:
    """A ``sweep``, VAR:START:STOP:STEPS[:SCALE], or a ``beta-grid``, the
    same without VAR."""
    parts = text.split(":")
    variable = "beta" if name == "beta-grid" else parts.pop(0)
    if len(parts) not in (3, 4):
        raise ConfigError(f"grid spec needs START:STOP:STEPS[:SCALE], got '{text}'")
    try:
        start, stop, steps = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise ConfigError(f"bad grid spec '{text}': {exc}") from None
    scale = parts[3] if len(parts) == 4 else "linear"
    if name == "sweep" and variable not in SWEEP_VARIABLES:
        raise ConfigError(f"unknown sweep variable '{variable}'")
    return GridSpec(variable, start, stop, steps, scale)


class _Setting(NamedTuple):
    convert: Callable[[str, str], object]
    default: object
    commands: tuple[str, ...]
    help: str


# Every setting, as ``--NAME`` or a ``NAME = value`` config line: its
# converter, its default, the commands that read it and its help text.
# A command refuses every setting it does not read.
_SETTINGS = {
    "omega0": _Setting(_number, 1.0, _MODEL, "boson mode frequency"),
    "Omega": _Setting(_number, 1.0, _MODEL, "atomic level splitting"),
    "g1": _Setting(_number, 0.0, _MODEL, "rotating coupling"),
    "g2": _Setting(_number, 0.0, _MODEL, "counter-rotating coupling"),
    "beta": _Setting(_number, None, _THERMAL, "inverse temperature"),
    "beta-grid": _Setting(_grid, None, _GRIDDED, "beta grid START:STOP:STEPS[:SCALE]"),
    "sweep": _Setting(_grid, None, _MODEL, "VAR:START:STOP:STEPS[:SCALE], VAR a model parameter"),
    "output": _Setting(lambda name, text: text, None, COMMANDS, "output file (default stdout)"),
    "format": _Setting(partial(_one_of, choices=FORMATS), "csv", _MODEL, "csv (default) or json"),
    "workers": _Setting(partial(_number, parse=int, what="an integer"), None, COMMANDS, "unused"),
    "n-list": _Setting(_n_list, (2, 4, 6, 8), ("ed-curve",), "comma-separated atom numbers"),
    "ed-tol": _Setting(_positive, 1e-6, ("ed-curve",), "truncation tolerance"),
    "kind": _Setting(partial(_one_of, choices=_KINDS), HamiltonianKind.GENERALIZED_DICKE,
                     ("ed-curve",), "Hamiltonian kind: " + ", ".join(_KINDS)),
}


# the names of the flags: every setting, and the config file
_FLAGS = {"config", *_SETTINGS}


def _usage() -> str:
    """The ``--help`` text: the command list, then each flag and its help."""
    helps = {
        "config": "NAME = value config file; flags override its lines",
        **{name: setting.help for name, setting in _SETTINGS.items()},
    }
    width = max(map(len, helps)) + 4
    return "\n".join([
        "usage: dicketherm COMMAND [--NAME VALUE | --NAME=VALUE ...]",
        "",
        "Finite-temperature thermodynamics and collective spectrum of the",
        "two-coupling Dicke model.",
        "",
        "commands: " + ", ".join(COMMANDS),
        "",
        "options:",
        *(f"  {'--' + name:<{width}}{text}" for name, text in helps.items()),
        f"  {'-h, --help':<{width}}show this help and exit",
        "",
    ])


def _read_args(args: Sequence[str]) -> tuple[str, dict[str, str]]:
    """The command and the text of each flag given, the last one where a
    flag repeats.

    The one argument that is neither a flag nor a flag's value is the
    command, wherever it stands.  ``--NAME=VALUE`` and ``--NAME VALUE``
    set NAME, a setting or ``config``; a separate value may start with
    one ``-``, as a negative number does, but not with two.  ``-h`` or
    ``--help`` writes the usage to stdout and exits 0.  Anything else
    raises ConfigError: a missing or unknown command, a flag with no
    value, or, named together in argv order, each unknown or abbreviated
    flag and each further argument.
    """
    command, texts, unrecognized = None, {}, []
    tokens = iter(args)
    for token in tokens:
        name, eq, value = token[2:].partition("=")
        if token.startswith("--") and name in _FLAGS:
            if not eq:
                value = next(tokens, None)
                if value is None or value.startswith("--"):
                    raise ConfigError(f"argument --{name}: expected one argument")
            texts[name] = value
        elif token in ("-h", "--help"):
            sys.stdout.write(_usage())
            raise SystemExit(0)
        elif command is None and not token.startswith("-"):
            if token not in COMMANDS:
                raise ConfigError(f"unknown command {token!r}; choose from {', '.join(COMMANDS)}")
            command = token
        else:
            unrecognized.append(token)
    if command is None:
        raise ConfigError(f"a command is required: one of {', '.join(COMMANDS)}")
    if unrecognized:
        raise ConfigError(f"unrecognized arguments: {' '.join(unrecognized)}")
    return command, texts


def _parse_config_text(text: str) -> dict[str, str]:
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"config line {lineno} is not key=value: {line!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _SETTINGS:
            raise ConfigError(f"unknown config key '{key}'")
        values[key] = value
    return values


def parse_config(args: Sequence[str], file_text: str | None = None) -> RunConfig:
    """Build a RunConfig from CLI arguments plus optional config text.

    Flags override config lines.  A malformed argument (``_read_args``),
    a setting the command does not read, or a malformed value, raises
    ConfigError whose message is the one-line diagnostic.  ``-h`` or
    ``--help`` writes the usage to stdout and exits 0.
    """
    command, flags = _read_args(args)
    path = flags.pop("config", None)
    if file_text is None and path:
        try:
            with open(path, encoding="utf-8") as fh:
                file_text = fh.read()
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}") from None
    texts = _parse_config_text(file_text) if file_text else {}
    texts.update(flags)
    unread = [name for name, setting in _SETTINGS.items()
              if name in texts and command not in setting.commands]
    if unread:
        raise ConfigError(f"{command} takes no {'/'.join(f'--{name}' for name in unread)}")
    values = {
        name: setting.convert(name, texts[name]) if name in texts else setting.default
        for name, setting in _SETTINGS.items()
    }

    beta, beta_grid, sweep = values["beta"], values["beta-grid"], values["sweep"]
    kind = values["kind"]
    try:
        params = ModelParams(values["omega0"], values["Omega"], values["g1"], values["g2"])
        nodes = [params]
        if sweep is not None:
            # sweep values lie in [start, stop], and the model's domain and
            # the coupling rule are intervals, so the two ends decide, as
            # the same flag values would
            nodes += _swept(params, sweep.variable, (sweep.start, sweep.stop))
        for node in nodes:
            check_couplings(node, kind)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    if beta is not None and beta_grid is not None:
        raise ConfigError("--beta and --beta-grid are mutually exclusive")
    if beta is not None and not 0.0 < beta < math.inf:
        raise ConfigError(
            f"beta must be positive and finite, got {beta}; for the zero-temperature line "
            "query quantum_critical_gap via critical-temp"
        )
    if command == "ed-curve" and beta is None:
        raise ConfigError("ed-curve takes a single --beta")
    if command in _THERMAL and beta is None and beta_grid is None:
        raise ConfigError(f"{command} requires --beta or --beta-grid")
    return RunConfig(
        command, params, beta, beta_grid, sweep, values["output"], values["format"],
        values["n-list"], values["ed-tol"], kind,
    )


# One encoder for every JSON row and cell; json.dumps would build one per call.
_JSON_ROW = json.JSONEncoder(allow_nan=False)


class _Echo:
    """A stream whose ``write`` returns its text, so that ``writerow`` of a
    ``csv.writer`` on it returns the line the writer would write."""

    @staticmethod
    def write(text: str) -> str:
        return text


# One writer for every CSV template, text-row header and cell text
_CSV_ROW = csv.writer(_Echo(), lineterminator="\n")
_CSV_CELL_END = len(_CSV_ROW.dialect.delimiter + _CSV_ROW.dialect.lineterminator)


def _csv_cell(value: object) -> str:
    """The writer's own text for one cell: its line for the row
    ``(value, None)`` without the delimiter and the line end."""
    return _CSV_ROW.writerow((value, None))[:-_CSV_CELL_END]


# A non-float cell's text, as the format's own writer writes it
_ENCODE = {"csv": _csv_cell, "json": _JSON_ROW.encode}


# The rows of a scan table that one ``%`` fills: its row template
# repeated this many times takes one flat tuple of the block's cells
_BLOCK_ROWS = 256


class _Table(NamedTuple):
    """A table's cells, already checked.

    ``shared`` maps a column to the one text every row holds there, and
    ``floats`` names the columns whose cells are Python floats; every
    other cell is a text.  Each of ``blocks`` is a row count and the
    cells of that many rows in the other columns, flat: row after row,
    each in header order.  ``refusal``, if not None, is raised after the
    last block.
    """

    shared: Mapping[str, str]
    floats: AbstractSet[str]
    blocks: Iterable[tuple[int, tuple]]
    refusal: Exception | None = None


def _write_rows(stream: TextIO, fmt: str, header: Sequence[str], table: _Table) -> None:
    """Write a table's rows, a block of them per ``%``, then raise its refusal.

    The format's row template takes each shared text once, its ``%``
    escaped, a ``%r`` field for each float column and a ``%s`` field for
    each other column; a block of n rows is the template repeated n
    times, filled with the block's cells.  ``%r`` of a Python float is
    ``float.__repr__``, the text both writers write for it (``%r`` of a
    numpy float is not).  Filling a template turns each of its ``%%``
    into ``%``, so the literal ones (a JSON key's) are doubled first to
    stay escaped.
    """
    if fmt == "csv":
        stream.write(_CSV_ROW.writerow(header))
        line = _csv_line(len(header))
    else:
        line = _json_line(header)
    shared, floats = table.shared, table.floats
    if shared or floats:
        fields = tuple(
            shared[name].replace("%", "%%") if name in shared else "%r" if name in floats else "%s"
            for name in header
        )
        line = line.replace("%%", "%%%%") % fields
    # the template of the last block's row count, made again only when
    # that count changes
    fill, fill_rows = line, 1
    for rows, cells in table.blocks:
        if rows != fill_rows:
            fill, fill_rows = line * rows, rows
        stream.write(fill % cells)
    if table.refusal is not None:
        raise table.refusal


@lru_cache
def _json_line(header: Sequence[str]) -> str:
    """The ``%`` template of a JSON line of cell texts: ``{``, each encoded
    key, the key separator and the cell, joined by the item separator, then
    ``}``, all the encoder's own, as it would write the dict of the values."""
    keys = (_JSON_ROW.encode(key).replace("%", "%%") for key in header)
    items = _JSON_ROW.item_separator.join(k + _JSON_ROW.key_separator + "%s" for k in keys)
    return "{" + items + "}\n"


@lru_cache
def _csv_line(width: int) -> str:
    """The ``%`` template of a CSV line of ``width`` cell texts: the writer's
    own line for a row of ``%s`` cells.

    Under ``QUOTE_MINIMAL`` the writer quotes each field by that field's
    text alone, so its line for a row is the cells' texts joined by the
    delimiter.  The one exception is a row of a single empty field, which
    it writes as ``""``; every table has at least 6 columns."""
    return _CSV_ROW.writerow(("%s",) * width)


def _non_finite(value: float, fmt: str) -> ValueError:
    return ValueError(f"non-finite value {value!r} in a {fmt.upper()} row")


def _cell_rule(fmt: str) -> Callable[[object], str]:
    """The text of one value of a node-by-node row, in ``fmt``.

    A finite float is its ``repr``, which both writers write for it; a
    NaN or an infinity raises.  A tuple of floats, which only JSON rows
    hold, is their texts joined by the encoder's item separator, in
    brackets, as the encoder writes it.  Any other value (str, None,
    bool, int, or a tuple of them) is the format's own text for it,
    encoded once per distinct value and type.
    """
    encode = _ENCODE[fmt]
    texts: dict[tuple[type, object], str] = {}
    # bound once, as this runs per cell; float.__repr__ is what the encoder
    # writes for any float, a numpy float included
    isfinite, float_text = math.isfinite, float.__repr__

    def text(value) -> str:
        if isinstance(value, float):
            if isfinite(value):
                return float_text(value)
            raise _non_finite(value, fmt)
        if isinstance(value, tuple) and value and isinstance(value[0], float):
            return "[" + _JSON_ROW.item_separator.join(map(text, value)) + "]"
        key = (type(value), value)
        if key not in texts:
            texts[key] = encode(value)
        return texts[key]

    return text


def _beta_nodes(config: RunConfig) -> list[float]:
    if config.beta_grid is not None:
        return config.beta_grid.values()
    return [config.beta] if config.beta is not None else []


class _Floats(NamedTuple):
    """A column of Python floats, each written by the template's ``%r``."""

    values: list[float]


# A scan table's cells by column: one text, which every row holds, a
# float column or a text column
_Cells = dict[str, str | _Floats | Iterable[str]]

_PARAM_COLUMNS = ("omega0", "Omega", "g1", "g2")
_NODE_COLUMNS = (*_PARAM_COLUMNS, "beta")
_param_values = attrgetter(*_PARAM_COLUMNS)


def _nodes(
    config: RunConfig, text: Callable[[object], str]
) -> Iterator[tuple[ModelParams, float, tuple[str, ...]]]:
    """The params x beta grid, params outer, each node with the texts of
    its five input cells: each param node and each beta formatted once."""
    betas = _beta_nodes(config)
    beta_texts = list(map(text, betas))
    for p in config.param_nodes:
        params = tuple(map(text, _param_values(p)))
        for b, b_text in zip(betas, beta_texts):
            yield p, b, (*params, b_text)


def _critical_temp_rows(config: RunConfig) -> Iterator[tuple[str, ...]]:
    text = _cell_rule(config.fmt)
    for p in config.param_nodes:
        values = (*_param_values(p), quantum_critical_gap(p), critical_beta(p))
        yield tuple(map(text, values))


def _scan(config: RunConfig) -> tuple[PhaseScan, _Cells, int]:
    """The whole grid in one ``phase_scan`` call, its five input columns'
    cells, and the number of beta nodes per parameter node.

    The cells are the same in both formats.  An input of one value (a
    fixed parameter, a single beta) is its ``repr``, which every row
    shares.  An input that changes from row to row is the grid's own
    floats: the sweep at a single beta, the beta grid of one parameter
    node.  On a grid of both, each input value's ``repr`` is formatted
    once and expanded into a text column, params outer, beta inner.
    """
    params = {name: getattr(config.params, name) for name in _PARAM_COLUMNS}
    swept = config.sweep.variable if config.sweep is not None else None
    if swept is not None:
        params[swept] = config.sweep.values()
    betas = _beta_nodes(config)
    scan = phase_scan(ParamGrid(**params), betas)
    width, nodes = len(betas), len(scan) // len(betas)
    cells: _Cells = {name: repr(value) for name, value in params.items() if name != swept}
    if nodes == 1:
        if swept is not None:
            cells[swept] = repr(params[swept][0])
    elif width == 1:
        cells[swept] = _Floats(params[swept])
    else:
        cells[swept] = [text for text in map(repr, params[swept]) for _ in betas]
    if width == 1:
        cells["beta"] = repr(betas[0])
    elif nodes == 1:
        cells["beta"] = _Floats(betas)
    else:
        cells["beta"] = list(map(repr, betas)) * nodes
    return scan, cells, width


def _texts(fmt: str, values: Iterable[float], missing: Iterable[bool]) -> Iterator[str]:
    """Each value's ``repr``, or the format's empty cell where it is ``missing``.

    A float's ``repr`` is what ``json`` emits for a finite float and what
    ``csv.writer`` writes, with no character it quotes.
    """
    empty = _ENCODE[fmt](None)
    return (empty if m else repr(v) for v, m in zip(values, missing))


def _number_column(
    fmt: str, column: np.ndarray, missing: np.ndarray | None = None
) -> str | _Floats | Iterable[str]:
    """A float column's cells: its Python floats where no node is
    ``missing``, the format's empty cell, which every row shares, where
    every node is, else the format's texts, a missing node's the empty
    cell."""
    if missing is None or not missing.any():
        return _Floats(column.tolist())
    if missing.all():
        return _ENCODE[fmt](None)
    return _texts(fmt, column.tolist(), missing.tolist())


def _label_column(
    fmt: str, column: np.ndarray
) -> tuple[AbstractSet[str | None], str | Iterable[str]]:
    """The distinct values of a column of strings or None, and its cells
    as the format's text, each distinct value encoded once: the one
    text, which every row shares, where there is one value."""
    values = column.tolist()
    encode = _ENCODE[fmt]
    texts = {value: encode(value) for value in set(values)}
    if len(texts) == 1:
        return texts.keys(), next(iter(texts.values()))
    return texts.keys(), map(texts.__getitem__, values)


def _node_column(
    fmt: str, column: np.ndarray, missing: np.ndarray, width: int
) -> str | _Floats | Iterable[str]:
    """The cells of a value of the parameter node alone, such as beta_c.

    With one beta per node, a ``_number_column``.  Otherwise each node's
    first row is formatted once and expanded over the node's ``width``
    beta rows, as ``_scan`` expands the input columns, a ``missing``
    row's the format's empty cell; the one text every row shares when
    there is one node.  Where a node's rows differ in whether they are
    missing (an error row of a node that has a value), the column is a
    ``_number_column``.
    """
    firsts = missing[::width]
    if width == 1 or not np.array_equal(missing, firsts.repeat(width)):
        return _number_column(fmt, column, missing)
    texts = list(_texts(fmt, column[::width].tolist(), firsts.tolist()))
    if len(texts) == 1:
        return texts[0]
    return [text for text in texts for _ in range(width)]


def _refusal(
    checks: Sequence[tuple[np.ndarray, np.ndarray | bool]],
) -> tuple[int, float | None]:
    """The first row with a NaN or infinity outside its column's exempt rows.

    Each check is a (column, exempt) pair, exempt a row mask or False
    for none; one ``np.isfinite`` covers a column.  Returns the row's
    index and its first such value, or the row count and None when every
    row passes.
    """
    bad = [~(np.isfinite(column) | exempt) for column, exempt in checks]
    any_bad = np.logical_or.reduce(bad)
    if not any_bad.any():
        return any_bad.size, None
    row = int(any_bad.argmax())
    return row, float(next(c[row] for (c, _), b in zip(checks, bad) if b[row]))


# the phase labels at which ``order_parameter`` gives exactly 0.0: where a
# scan has no other, every row shares rho's text
_ZERO_RHO = {"normal", "critical"}


def _scan_table(
    header: Sequence[str], cells: _Cells, stop: int, refusal: Exception | None
) -> _Table:
    """The table of the first ``stop`` rows of ``cells``, in ``header``
    order, ``_BLOCK_ROWS`` rows to a block, and ``refusal``."""
    shared, floats, columns = {}, set(), []
    for name in header:
        cell = cells[name]
        if isinstance(cell, str):
            shared[name] = cell
            continue
        if isinstance(cell, _Floats):
            floats.add(name)
            cell = cell.values
        columns.append(cell)
    return _Table(shared, floats, _blocks(columns, stop), refusal)


def _blocks(columns: Sequence[Iterable], rows: int) -> Iterator[tuple[int, tuple]]:
    """The first ``rows`` rows of the columns, ``_BLOCK_ROWS`` at a time
    (the last block the rest), each block's cells flat, row after row.
    Only one block's cells are taken from the columns at a time."""
    width = len(columns)
    columns = [iter(column) for column in columns]
    for start in range(0, rows, _BLOCK_ROWS):
        n = min(_BLOCK_ROWS, rows - start)
        cells = [None] * (n * width)
        for i, column in enumerate(columns):
            cells[i::width] = islice(column, n)
        yield n, tuple(cells)


_PHASE_COLUMNS = (*_NODE_COLUMNS, "bound", "phase", "beta_c", "rho", "error")


def _phase_diagram_rows(config: RunConfig) -> _Table:
    scan, cells, width = _scan(config)
    # error rows are the one place a missing number is expected; a NaN
    # beta_c is also a node with no transition
    failed = scan.phase == "error"
    no_beta_c = np.isnan(scan.beta_c)
    stop, refused = _refusal(
        [(scan.bound, failed), (scan.beta_c, no_beta_c), (scan.rho, failed)]
    )
    fmt = config.fmt
    labels, cells["phase"] = _label_column(fmt, scan.phase)
    cells.update(
        bound=_number_column(fmt, scan.bound, failed),
        beta_c=_node_column(fmt, scan.beta_c, no_beta_c, width),
        rho=repr(0.0) if labels <= _ZERO_RHO else _number_column(fmt, scan.rho, failed),
        error=_label_column(fmt, scan.error)[1],
    )
    refusal = None if refused is None else _non_finite(refused, fmt)
    return _scan_table(_PHASE_COLUMNS, cells, stop, refusal)


def _spectrum_rows(config: RunConfig) -> Iterator[tuple[str, ...]]:
    """One CSV row per root; one JSON row per node, the modes as lists.

    Every node's couplings and energy span are checked before the first
    row, so a node with g1 + g2 = 0, or with energies too far apart for
    one unit, writes nothing, not even the CSV header.
    """
    for p in config.param_nodes:
        check_coupled(p)
        check_one_unit(p)
    return _spectrum_modes(config)


def _spectrum_modes(config: RunConfig) -> Iterator[tuple[str, ...]]:
    text = _cell_rule(config.fmt)
    for p, b, node in _nodes(config, text):
        r = collective_modes(p, b)
        node = (*node, text(r.at_critical))
        if config.fmt == "json":
            yield (*node, *map(text, (r.roots, r.residuals, r.labels, r.multiplicities)))
            continue
        for i, mode in enumerate(zip(r.roots, r.residuals, r.labels, r.multiplicities)):
            yield (*node, *map(text, (i, *mode)))


def _partition_ratio_rows(config: RunConfig) -> Iterator[tuple[str, ...]]:
    # every node's energy span is checked before the first row, so a node
    # too wide for one unit writes nothing, not even the CSV header
    for p in config.param_nodes:
        check_one_unit(p)
    return _partition_ratios(config)


def _partition_ratios(config: RunConfig) -> Iterator[tuple[str, ...]]:
    text = _cell_rule(config.fmt)
    for p, b, node in _nodes(config, text):
        yield (*node, *map(text, _bounded_log_partition_ratio(p, b)))


_ORDER_COLUMNS = (*_NODE_COLUMNS, "bound", "phase", "rho")


def _order_parameter_rows(config: RunConfig) -> _Table:
    scan, cells, _ = _scan(config)
    # no row is exempt: an error row's NaN bound stops the rows there
    stop, refused = _refusal([(scan.bound, False), (scan.rho, False)])
    fmt = config.fmt
    labels, cells["phase"] = _label_column(fmt, scan.phase)
    cells.update(
        bound=_number_column(fmt, scan.bound),
        rho=repr(0.0) if labels <= _ZERO_RHO else _number_column(fmt, scan.rho),
    )
    if refused is not None:
        if scan.phase[stop] == "error":
            refused = RuntimeError(scan.error[stop])
        else:
            refused = _non_finite(refused, fmt)
    return _scan_table(_ORDER_COLUMNS, cells, stop, refused)


def _ed_curve_rows(config: RunConfig) -> Iterator[tuple[str, ...]]:
    # every node's ladder inputs are checked before the first row, so a
    # refusal writes nothing, not even the CSV header
    for p in config.param_nodes:
        check_ladder_inputs(p, config.beta, config.ed_tol, config.kind, config.n_list)
    return _ed_curve_points(config)


def _ed_curve_points(config: RunConfig) -> Iterator[tuple[str, ...]]:
    text = _cell_rule(config.fmt)
    for p in config.param_nodes:
        curve = photon_density_curve(
            p, config.beta, config.n_list, target_tol=config.ed_tol, kind=config.kind
        )
        node = tuple(map(text, (*_param_values(p), config.beta)))
        for pt in curve:
            values = (pt.n_atoms, pt.n_max_used, pt.photons_per_atom, pt.truncation_error_estimate)
            yield (*node, *map(text, values))


_SPECTRUM_NODE_COLUMNS = (*_NODE_COLUMNS, "at_critical")


def _per_node(
    rows: Callable[[RunConfig], Iterator[tuple[str, ...]]],
) -> Callable[[RunConfig], _Table]:
    """A node-by-node table of cell texts, whose rows share no cell: a
    block of one row for each row, written as it is made."""
    return lambda config: _Table({}, frozenset(), zip(repeat(1), rows(config)))


# command -> (header, table)
_TABLES: dict[str, tuple[tuple[str, ...], Callable[[RunConfig], _Table]]] = {
    "critical-temp": (
        (*_PARAM_COLUMNS, "quantum_critical_gap", "beta_c"), _per_node(_critical_temp_rows)
    ),
    "phase-diagram": (_PHASE_COLUMNS, _phase_diagram_rows),
    "spectrum": (
        (*_SPECTRUM_NODE_COLUMNS, "root_index", "root", "residual", "label", "multiplicity"),
        _per_node(_spectrum_rows),
    ),
    "partition-ratio": (
        (*_NODE_COLUMNS, "bound", "log_partition_ratio"), _per_node(_partition_ratio_rows)
    ),
    "order-parameter": (_ORDER_COLUMNS, _order_parameter_rows),
    "ed-curve": (
        (*_NODE_COLUMNS, "n_atoms", "n_max_used", "photons_per_atom", "truncation_error_estimate"),
        _per_node(_ed_curve_rows),
    ),
}
# spectrum's JSON rows, one per node with its modes as lists, have keys of
# their own
_JSON_HEADERS = {
    "spectrum": (*_SPECTRUM_NODE_COLUMNS, "roots", "residuals", "labels", "multiplicities"),
}


def _run_table(config: RunConfig, stream: TextIO) -> int:
    header, table = _TABLES[config.command]
    if config.fmt == "json":
        header = _JSON_HEADERS.get(config.command, header)
    _write_rows(stream, config.fmt, header, table(config))
    return 0


def _run_validate(config: RunConfig, stream: TextIO) -> int:
    del config
    checks: list[tuple[str, float, float]] = []

    # the single-pole sums of the model run at m = Omega / 2; one call
    # evaluates the whole beta x Omega grid
    betas, ms = (0.5, 2.0, 5.0), (0.25, 0.5, 2.0)
    grid = fermionic_lorentzian_sum(np.array(ms), np.array(betas)[:, None])
    worst = max(
        abs(total - beta / (2.0 * m) * math.tanh(beta * m / 2.0))
        for beta, row in zip(betas, grid.tolist())
        for m, total in zip(ms, row)
    )
    checks.append(("fermionic-sum-identity", worst, 1e-10))

    # the finite sums a0(0) + 2 c0(0) of the kernel check's three betas,
    # then of beta_c (1 -+ tol) at each cross-check point: nine nodes in
    # one evaluation
    kernel_point, kernel_betas = ModelParams(1.3, 0.8, g1=0.7, g2=0.4), (0.5, 2.0, 5.0)
    cross_points = (
        ModelParams(1.0, 1.0, g1=1.2),
        ModelParams(2.0, 1.0, g2=2.0),
        ModelParams(0.8, 1.3, g1=0.9, g2=0.6),
    )
    tol = 1e-8
    closed = [critical_beta(p) for p in cross_points]
    brackets = [(c * (1.0 - tol), c * (1.0 + tol)) for c in closed]
    points = [kernel_point] * 3 + [p for p in cross_points for _ in range(2)]
    node_betas = [*kernel_betas, *chain.from_iterable(brackets)]
    kv = a0_c0_sum(0, ParamGrid(*zip(*map(_param_values, points))), np.array(node_betas))
    totals = (kv.a + 2.0 * kv.c).tolist()

    # the bound is the production closed form of a0(0) + 2 c0(0)
    worst = max(
        abs(total - convergence_bound(kernel_point, beta))
        for beta, total in zip(kernel_betas, totals)
    )
    checks.append(("kernel-sum-vs-closed-form", worst, 1e-8))

    # one eigensolve per register serves both temperatures
    p = ModelParams(1.0, 1.0, g1=0.4, g2=0.3)
    betas = np.array([0.5, 2.0])
    worst = max(
        float(np.max(verify_trace_identity(p, n_atoms, 6, betas)))
        for n_atoms in (1, 2)
    )
    checks.append(("trace-identity", worst, 1e-8))

    worst = max(
        abs(goldstone_residual(ModelParams(1.0, 1.0, g1=1.2))),
        abs(goldstone_residual(ModelParams(2.0, 1.0, g2=2.0))),
    )
    checks.append(("goldstone-residual", worst, 1e-10))

    # the finite-sum root of a0(0) + 2 c0(0) = 1 lies within a relative
    # tol of the closed-form beta_c when the bound minus one changes sign
    # across beta_c (1 -+ tol); the residual is the offset of the secant
    # root of the two values, inf without a sign change
    worst = 0.0
    for beta_c, (lo, hi), low_total, high_total in zip(
        closed, brackets, totals[3::2], totals[4::2]
    ):
        below, above = low_total - 1.0, high_total - 1.0
        if below < 0.0 < above:
            root = lo - below * (hi - lo) / (above - below)
            worst = max(worst, abs(root - beta_c) / beta_c)
        else:
            worst = math.inf
    checks.append(("critical-beta-cross-check", worst, tol))

    failed = False
    for name, residual, tol in checks:
        ok = residual < tol
        failed = failed or not ok
        stream.write(
            f"{name}: residual={residual:.3e} tol={tol:.1e} "
            f"{'PASS' if ok else 'FAIL'}\n"
        )
    return 1 if failed else 0


def run(config: RunConfig) -> int:
    """Run one parsed configuration; returns the process exit code."""
    handler = _run_validate if config.command == "validate" else _run_table
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
