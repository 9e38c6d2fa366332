"""Output parsing and per-job correctness checks.

Every check compares the program's output with a route computed here,
independently of the package:

- ``bound`` against (g1+g2)^2/(omega0 Omega) tanh(beta Omega/4), relative
  tolerance ``BOUND_RTOL``; ``phase`` is the label that bound implies;
  ``beta_c`` against (4/Omega) atanh(omega0 Omega/(g1+g2)^2);
- ``rho`` against the resummed gap equation (g1+g2)^2 tanh(beta D/4) =
  D omega0, rho = (D^2 - Omega^2)/(4 (g1+g2)^2), solved by bisection;
- ``spectrum`` roots against the roots of x^2 - B x + C in x = E^2 from
  the numerically stable quadratic formula, restricted to the program's
  documented scan window [0, 3(Omega + omega0)];
- ``partition-ratio`` against sum_i ln[sinh(beta w_i/2) / sinh(beta E_i/2)]
  with w = (omega0, Omega) and E_i^2 the two roots;
- ``critical-temp``: the reported beta_c puts the bound at one;
- ``ed-curve`` rows against the values in ``ed_reference.json``, within
  the larger of the row's and the reference's truncation error estimate
  (per atom) plus ``ED_FLOOR``;
- ``validate``: five named checks, each PASS with residual below tol.

Each tolerance sits well above the largest error measured at the commit
that defined the benchmark (stated next to it) and well below the
smallest perturbation the tests require it to catch.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re
from dataclasses import dataclass

import numpy as np

from jobs import Job

# largest seen: 0 (the same closed form, evaluated in another order)
BOUND_RTOL = 1e-12
# largest seen: 4.4e-13 relative, just above the transition
RHO_RTOL = 1e-9
RHO_ATOL = 1e-13
# largest seen: 3e-15
ROOT_TOL = 1e-10
# largest seen: 1.1e-7, at beta near 0.18 where quad warns
PARTITION_ATOL = 1e-6
# the beta_c column must put the closed-form bound at one
BETA_C_RTOL = 1e-12
# ED values are compared with the recorded ones; eigensolver rounding
# differs across BLAS builds by far less than this
ED_FLOOR = 1e-10
ECHO_RTOL = 1e-12
PHASE_EDGE = 1e-9

VALIDATE_NAMES = (
    "fermionic-sum-identity",
    "kernel-sum-vs-closed-form",
    "trace-identity",
    "goldstone-residual",
    "critical-beta-cross-check",
)
_VALIDATE_LINE = re.compile(r"^([a-z-]+): residual=(\S+) tol=(\S+) (PASS|FAIL)$")


class CheckError(Exception):
    """A job's output failed to parse or disagreed with its reference."""


@dataclass
class JobStats:
    """Traffic facts about one checked output."""

    rows: int = 0
    phase_rows: int = 0
    superradiant_rows: int = 0
    max_ed_dim: int = 0


# ---------------------------------------------------------------- parsing


def _reject_constant(name: str):
    raise CheckError(f"non-finite JSON constant {name}")


def parse_rows(text: str, fmt: str) -> list[dict]:
    """Rows of a csv or JSON-lines output; raises CheckError if malformed."""
    if fmt == "json":
        rows = []
        for lineno, line in enumerate(text.splitlines(), start=1):
            try:
                row = json.loads(line, parse_constant=_reject_constant)
            except json.JSONDecodeError as exc:
                raise CheckError(f"line {lineno} is not JSON: {exc}") from None
            if not isinstance(row, dict):
                raise CheckError(f"line {lineno} is not a JSON object")
            rows.append(row)
        return rows
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        raise CheckError("empty csv output") from None
    rows = []
    for record in reader:
        if len(record) != len(header):
            raise CheckError(f"csv row has {len(record)} fields, header {len(header)}")
        rows.append(dict(zip(header, record)))
    return rows


def number(row: dict, key: str) -> float | None:
    """A finite float cell, or None for an empty/null one."""
    if key not in row:
        raise CheckError(f"missing column {key}")
    value = row[key]
    if value is None or value == "":
        return None
    if isinstance(value, bool):
        raise CheckError(f"{key} is a boolean")
    try:
        out = float(value)
    except (TypeError, ValueError):
        raise CheckError(f"{key} is not a number: {value!r}") from None
    if not math.isfinite(out):
        raise CheckError(f"{key} is not finite: {value!r}")
    return out


def required(row: dict, key: str) -> float:
    value = number(row, key)
    if value is None:
        raise CheckError(f"{key} is empty")
    return value


def _close(a: float, b: float, rtol: float, atol: float = 0.0) -> bool:
    return abs(a - b) <= atol + rtol * max(abs(a), abs(b))


# ------------------------------------------------------ independent routes


def bound(omega0: float, Omega: float, g1: float, g2: float, beta: float) -> float:
    return (g1 + g2) ** 2 / (omega0 * Omega) * math.tanh(beta * Omega / 4.0)


def phase_labels(b: float) -> set[str]:
    """Labels consistent with a bound of b, allowing rounding at the edges."""
    labels = set()
    for v in (b * (1.0 - BOUND_RTOL), b, b * (1.0 + BOUND_RTOL)):
        if abs(v - 1.0) < PHASE_EDGE:
            labels.add("critical")
        else:
            labels.add("normal" if v < 1.0 else "superradiant")
    return labels


def critical_beta(omega0: float, Omega: float, gsum: float) -> float | None:
    if gsum**2 <= omega0 * Omega:
        return None
    return 4.0 / Omega * math.atanh(omega0 * Omega / gsum**2)


def gap_rho(omega0, Omega, gsum, beta) -> np.ndarray:
    """Photons per atom from the resummed gap equation, vectorized.

    The gap D solves gsum^2 tanh(beta D/4) = D omega0 on (Omega,
    gsum^2/omega0]; only called where the bound exceeds one, so the
    balance is positive at Omega and the root is unique.
    """
    omega0, Omega, gsum, beta = (np.asarray(v, dtype=float) for v in (omega0, Omega, gsum, beta))
    g2 = gsum**2
    lo, hi = Omega.copy(), g2 / omega0
    for _ in range(120):
        mid = 0.5 * (lo + hi)
        above = g2 * np.tanh(beta * mid / 4.0) - mid * omega0 > 0.0
        lo = np.where(above, mid, lo)
        hi = np.where(above, hi, mid)
    delta = 0.5 * (lo + hi)
    return (delta**2 - Omega**2) / (4.0 * g2)


def quadratic_coefficients(omega0, Omega, g1, g2, beta) -> tuple[float, float]:
    t = math.tanh(beta * Omega / 4.0)
    diff = g1 * g1 - g2 * g2
    B = omega0**2 + Omega**2 + 2.0 * t * diff
    C = (omega0 * Omega) ** 2 - 2.0 * t * omega0 * Omega * (g1 * g1 + g2 * g2) + (t * diff) ** 2
    return B, C


def mode_energies(omega0, Omega, g1, g2, beta) -> list[float]:
    """Non-negative real E with E^2 a root of x^2 - B x + C, ascending."""
    B, C = quadratic_coefficients(omega0, Omega, g1, g2, beta)
    disc = B * B - 4.0 * C
    if disc < 0.0:
        return []
    q = 0.5 * (B + math.copysign(math.sqrt(disc), B))
    xs = [q, C / q] if q != 0.0 else [0.0, 0.0]
    return sorted(math.sqrt(x) for x in xs if x >= 0.0)


def _log_sinh(x: float) -> float:
    return x + math.log1p(-math.exp(-2.0 * x)) - math.log(2.0)


def log_partition_ratio(omega0, Omega, g1, g2, beta) -> float:
    energies = mode_energies(omega0, Omega, g1, g2, beta)
    if len(energies) != 2 or energies[0] <= 0.0:
        raise CheckError("partition ratio requested outside the normal phase")
    free = _log_sinh(beta * omega0 / 2.0) + _log_sinh(beta * Omega / 2.0)
    return free - sum(_log_sinh(beta * e / 2.0) for e in energies)


# ------------------------------------------------------------- per command

_PARAM_KEYS = ("omega0", "Omega", "g1", "g2", "beta")


def _node(row: dict, with_beta: bool = True) -> tuple[float, ...]:
    keys = _PARAM_KEYS if with_beta else _PARAM_KEYS[:4]
    return tuple(required(row, k) for k in keys)


def _check_echo(got: tuple[float, ...], want: tuple, where: str) -> None:
    for key, a, b in zip(_PARAM_KEYS, got, want):
        if b is not None and not _close(a, b, ECHO_RTOL):
            raise CheckError(f"{where}: {key} is {a!r}, job asked for {b!r}")


def _check_node_rows(job: Job, rows: list[dict]) -> None:
    if len(rows) != len(job.nodes):
        raise CheckError(f"{len(rows)} rows for {len(job.nodes)} nodes")
    for i, (row, want) in enumerate(zip(rows, job.nodes)):
        _check_echo(_node(row, want[4] is not None), want, f"row {i}")


def _check_phase_rows(rows: list[dict], stats: JobStats, *, has_beta_c: bool) -> None:
    sr_nodes, sr_rho = [], []
    for i, row in enumerate(rows):
        if has_beta_c and row.get("error") not in (None, ""):
            raise CheckError(f"row {i} reports error {row['error']!r}")
        p = _node(row)
        want = bound(*p)
        got = required(row, "bound")
        if not _close(got, want, BOUND_RTOL):
            raise CheckError(f"row {i}: bound {got!r}, closed form {want!r}")
        labels = phase_labels(want)
        if row["phase"] not in labels:
            raise CheckError(f"row {i}: phase {row['phase']!r}, bound {want!r} implies {sorted(labels)}")
        if has_beta_c:
            bc = critical_beta(p[0], p[1], p[2] + p[3])
            got_bc = number(row, "beta_c")
            if (bc is None) != (got_bc is None) or (bc is not None and not _close(got_bc, bc, BETA_C_RTOL)):
                raise CheckError(f"row {i}: beta_c {got_bc!r}, closed form {bc!r}")
        rho = required(row, "rho")
        stats.phase_rows += 1
        if row["phase"] == "superradiant":
            stats.superradiant_rows += 1
            sr_nodes.append(p)
            sr_rho.append(rho)
        elif rho != 0.0:
            raise CheckError(f"row {i}: rho {rho!r} outside the superradiant phase")
    if sr_nodes:
        arr = np.array(sr_nodes)
        want = gap_rho(arr[:, 0], arr[:, 1], arr[:, 2] + arr[:, 3], arr[:, 4])
        got = np.array(sr_rho)
        bad = np.abs(got - want) > RHO_ATOL + RHO_RTOL * np.abs(want)
        if bad.any():
            k = int(np.argmax(bad))
            raise CheckError(f"rho {got[k]!r} at {sr_nodes[k]}, gap equation {want[k]!r}")


def _check_spectrum(job: Job, rows: list[dict]) -> None:
    """json has one row per node with a roots list; csv one row per root."""
    rows_left = iter(rows)
    for want in job.nodes:
        ref = [e for e in mode_energies(*want) if e <= 3.0 * (want[0] + want[1])]
        if job.fmt == "json":
            node_rows = [next(rows_left, None)]
            if node_rows[0] is None:
                raise CheckError(f"{len(rows)} rows for {len(job.nodes)} nodes")
            roots = node_rows[0].get("roots")
            if not isinstance(roots, list):
                raise CheckError(f"roots is not a list: {roots!r}")
        else:
            node_rows = [next(rows_left, None) for _ in ref]
            if None in node_rows:
                raise CheckError("fewer csv root rows than reference roots")
            if [int(required(r, "root_index")) for r in node_rows] != list(range(len(ref))):
                raise CheckError(f"root_index column does not count 0..{len(ref) - 1}")
            roots = [r.get("root") for r in node_rows]
        for row in node_rows:
            _check_echo(_node(row), want, "spectrum row")
        got = [required({"root": r}, "root") for r in roots]
        if len(got) != len(ref):
            raise CheckError(f"{len(got)} roots at {want}, quadratic has {len(ref)}: {got} vs {ref}")
        for g, e in zip(got, ref):
            if abs(g - e) > ROOT_TOL * max(1.0, e):
                raise CheckError(f"root {g!r} at {want}, quadratic gives {e!r}")
    if next(rows_left, None) is not None:
        raise CheckError("more spectrum rows than the nodes have roots")


def _check_partition(rows: list[dict]) -> None:
    for i, row in enumerate(rows):
        p = _node(row)
        got_bound = required(row, "bound")
        if not _close(got_bound, bound(*p), BOUND_RTOL):
            raise CheckError(f"row {i}: bound {got_bound!r}, closed form {bound(*p)!r}")
        got = required(row, "log_partition_ratio")
        want = log_partition_ratio(*p)
        if abs(got - want) > PARTITION_ATOL:
            raise CheckError(f"row {i}: log_partition_ratio {got!r}, log-sinh sum {want!r}")


def _check_critical_temp(rows: list[dict]) -> None:
    for i, row in enumerate(rows):
        omega0, Omega, g1, g2 = _node(row, with_beta=False)
        gap = required(row, "quantum_critical_gap")
        want_gap = g1 + g2 - math.sqrt(omega0 * Omega)
        if not _close(gap, want_gap, 1e-12, 1e-14):
            raise CheckError(f"row {i}: quantum_critical_gap {gap!r}, expected {want_gap!r}")
        bc = number(row, "beta_c")
        if (bc is None) != (want_gap <= 0.0):
            raise CheckError(f"row {i}: beta_c {bc!r} with gap {want_gap!r}")
        if bc is not None and not _close(bound(omega0, Omega, g1, g2, bc), 1.0, BETA_C_RTOL * max(1.0, bc)):
            raise CheckError(f"row {i}: bound at beta_c {bc!r} is {bound(omega0, Omega, g1, g2, bc)!r}")


def _argv_value(argv: tuple[str, ...], flag: str) -> float:
    return float(argv[argv.index(flag) + 1])


def _check_ed_curve(job: Job, rows: list[dict], stats: JobStats) -> None:
    if len(rows) != len(job.reference):
        raise CheckError(f"{len(rows)} rows, reference has {len(job.reference)}")
    asked = {k: _argv_value(job.argv, "--" + k) for k in ("omega0", "g1", "beta")}
    for i, (row, ref) in enumerate(zip(rows, job.reference)):
        for key, want in asked.items():
            if not _close(required(row, key), want, ECHO_RTOL):
                raise CheckError(f"row {i}: {key} {row[key]!r}, job asked for {want!r}")
        n_atoms = int(required(row, "n_atoms"))
        if n_atoms != ref["n_atoms"]:
            raise CheckError(f"row {i}: n_atoms {n_atoms}, reference {ref['n_atoms']}")
        n_max = int(required(row, "n_max_used"))
        stats.max_ed_dim = max(stats.max_ed_dim, 2**n_atoms * (n_max + 1))
        got = required(row, "photons_per_atom")
        error = max(required(row, "truncation_error_estimate"), ref["truncation_error_estimate"])
        allowed = error / n_atoms + ED_FLOOR
        if abs(got - ref["photons_per_atom"]) > allowed:
            raise CheckError(
                f"row {i} (N={n_atoms}): photons_per_atom {got!r}, reference "
                f"{ref['photons_per_atom']!r}, allowed {allowed:.3e}"
            )


def _check_validate(text: str) -> int:
    lines = text.splitlines()
    names = []
    for line in lines:
        match = _VALIDATE_LINE.match(line)
        if match is None:
            raise CheckError(f"unparsable validate line {line!r}")
        name, residual, tol, verdict = match.groups()
        if verdict != "PASS" or not float(residual) < float(tol):
            raise CheckError(f"validate check {name} failed: {line!r}")
        names.append(name)
    if tuple(names) != VALIDATE_NAMES:
        raise CheckError(f"validate ran {names}, expected {list(VALIDATE_NAMES)}")
    return len(lines)


def check_job(job: Job, exit_code: int, text: str) -> JobStats:
    """Parse and check one job's output; raises CheckError on any failure."""
    if exit_code != 0:
        raise CheckError(f"exit code {exit_code}")
    stats = JobStats()
    if job.command == "validate":
        stats.rows = _check_validate(text)
        return stats
    rows = parse_rows(text, job.fmt)
    stats.rows = len(rows)
    if job.command == "ed-curve":
        _check_ed_curve(job, rows, stats)
    elif job.command == "spectrum":
        _check_spectrum(job, rows)
    else:
        _check_node_rows(job, rows)
        if job.command == "phase-diagram":
            _check_phase_rows(rows, stats, has_beta_c=True)
        elif job.command == "order-parameter":
            _check_phase_rows(rows, stats, has_beta_c=False)
        elif job.command == "partition-ratio":
            _check_partition(rows)
        elif job.command == "critical-temp":
            _check_critical_temp(rows)
        else:
            raise CheckError(f"no check for command {job.command!r}")
    return stats
