"""Seeded job lists for the three benchmark workloads.

A job is one argv for ``dicketherm.cli.main`` plus what the correctness
checks need to know about it: the expected (params, beta) nodes for the
analytic commands, or the recorded reference rows for ``ed-curve``.
Nothing here imports the package under test, so generating the inputs
costs the same whatever the program does.

Every workload is a fixed list of cycles.  Each cycle holds the same
number of jobs of each slot, so any whole number of cycles has the same
mix; the runner only ever stops between cycles.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ED_REFERENCE = HERE / "ed_reference.json"

WORKLOADS = ("analytic-mix", "scan-bulk", "ed-ladder")
# Cycles per measurement window.  End-to-end figures are medians over a
# run's windows; an analytic-mix window (200 jobs, about 1.5 s) holds 20
# jobs beyond its 90th percentile.
WINDOW_CYCLES = {"analytic-mix": 10, "scan-bulk": 1, "ed-ladder": 1}

# analytic-mix: cycles per list; 12 x 20 = 240 jobs in one pass.
ANALYTIC_CYCLES = 12
# scan-bulk node counts; the superradiant sweeps are smaller because each
# of their nodes runs a root solve (about 1 ms) instead of a closed form.
BULK_NORMAL_NODES = 10_000
BULK_SUPERRADIANT_NODES = 5_000
BULK_CYCLES = 8


@dataclass(frozen=True)
class Job:
    """One CLI invocation and the facts its checks compare against.

    ``nodes`` lists the (omega0, Omega, g1, g2, beta) points the command
    should report, in output order; ``reference`` holds the recorded
    ``ed-curve`` rows.  ``fmt`` is ``csv``, ``json`` or ``text``.
    """

    argv: tuple[str, ...]
    command: str
    fmt: str
    slot: str
    nodes: tuple[tuple[float, float, float, float, float], ...] = ()
    reference: tuple[dict, ...] = field(default=(), compare=False)


def grid_values(start: float, stop: float, steps: int, scale: str) -> list[float]:
    """The points a START:STOP:STEPS[:SCALE] grid spec denotes."""
    if steps == 1:
        return [start]
    if scale == "log":
        ratio = math.log(stop / start)
        values = [start * math.exp(ratio * i / (steps - 1)) for i in range(steps)]
    else:
        width = stop - start
        values = [start + width * i / (steps - 1) for i in range(steps)]
    values[-1] = stop
    return values


def critical_beta(omega0: float, Omega: float, gsum: float) -> float | None:
    product = omega0 * Omega
    if gsum**2 <= product:
        return None
    return 4.0 / Omega * math.atanh(product / gsum**2)


class _Draw:
    """Parameter draws on either side of the transition."""

    def __init__(self, rng: random.Random) -> None:
        self.rng = rng

    def params(self, ratio_lo: float, ratio_hi: float) -> tuple[float, float, float, float]:
        """(omega0, Omega, g1, g2) with (g1+g2)/sqrt(omega0 Omega) drawn in [lo, hi]."""
        rng = self.rng
        omega0 = rng.uniform(0.5, 2.0)
        Omega = rng.uniform(0.5, 2.0)
        gsum = rng.uniform(ratio_lo, ratio_hi) * math.sqrt(omega0 * Omega)
        share = rng.uniform(0.05, 0.95)
        return omega0, Omega, gsum * share, gsum * (1.0 - share)

    def transition(self) -> tuple[float, float, float, float]:
        return self.params(1.2, 2.5)

    def normal_only(self) -> tuple[float, float, float, float]:
        return self.params(0.3, 0.9)


def _model_flags(p: tuple[float, float, float, float]) -> list[str]:
    omega0, Omega, g1, g2 = p
    return ["--omega0", repr(omega0), "--Omega", repr(Omega), "--g1", repr(g1), "--g2", repr(g2)]


def _beta_grid_job(
    command: str,
    slot: str,
    p: tuple[float, float, float, float],
    start: float,
    stop: float,
    steps: int,
    scale: str,
    fmt: str,
    extra: tuple[str, ...] = (),
) -> Job:
    spec = f"{start!r}:{stop!r}:{steps}" + (":log" if scale == "log" else "")
    argv = (command, *_model_flags(p), "--beta-grid", spec, "--format", fmt, *extra)
    nodes = tuple((*p, b) for b in grid_values(start, stop, steps, scale))
    return Job(argv, command, fmt, slot, nodes)


def _sweep_job(
    command: str,
    slot: str,
    p: tuple[float, float, float, float],
    variable: str,
    start: float,
    stop: float,
    steps: int,
    fmt: str,
    beta: float | None,
    extra: tuple[str, ...] = (),
) -> Job:
    index = ("omega0", "Omega", "g1", "g2").index(variable)
    base = list(p)
    nodes = []
    for v in grid_values(start, stop, steps, "linear"):
        base[index] = v
        nodes.append((*base, beta))
    flags = _model_flags(p)
    # drop the swept flag; the sweep supplies it
    flags = [f for i, f in enumerate(flags) if i // 2 != index]
    argv = [command, *flags, "--sweep", f"{variable}:{start!r}:{stop!r}:{steps}"]
    if beta is not None:
        argv += ["--beta", repr(beta)]
    argv += ["--format", fmt, *extra]
    return Job(tuple(argv), command, fmt, slot, tuple(nodes))


def _analytic_cycle(draw: _Draw, flip: bool) -> list[Job]:
    """Twenty small jobs; the slowest kind, validate, is 3 of 20.

    That share puts the 90th-percentile latency inside the validate jobs
    and the median inside the per-node solver jobs.  Formats alternate
    along the slots and ``flip`` swaps them, so each slot writes both.
    """
    rng = draw.rng
    jobs: list[Job] = []
    fmts = iter(["json", "csv"] * 10 if flip else ["csv", "json"] * 10)

    def bc(p):
        return critical_beta(p[0], p[1], p[2] + p[3])

    for _ in range(2):
        p = draw.transition()
        jobs.append(_beta_grid_job("spectrum", "spectrum-crossing", p, 0.5 * bc(p), 2.0 * bc(p), 8, "linear", next(fmts)))
        p = draw.normal_only()
        jobs.append(_beta_grid_job("spectrum", "spectrum-normal", p, 0.1, 10.0, 6, "log", next(fmts)))
        p = draw.normal_only()
        jobs.append(_beta_grid_job("partition-ratio", "partition-normal", p, 0.1, 10.0, 6, "log", next(fmts)))
        p = draw.transition()
        jobs.append(_beta_grid_job("partition-ratio", "partition-below-bc", p, 0.1, 0.9 * bc(p), 6, "linear", next(fmts)))
    for _ in range(3):
        p = draw.transition()
        jobs.append(_beta_grid_job("order-parameter", "order-crossing", p, 0.5 * bc(p), 3.0 * bc(p), 10, "linear", next(fmts)))
    for _ in range(2):
        p = draw.transition()
        g_star = math.sqrt(p[0] * p[1])
        jobs.append(_sweep_job("critical-temp", "critical-temp", p, "g1", 0.5 * g_star, 2.0 * g_star, 16, next(fmts), None))
    for _ in range(2):
        p = draw.normal_only()
        jobs.append(_beta_grid_job("phase-diagram", "phase-normal", p, 0.1, 50.0, 100, "linear", next(fmts)))
    p = draw.normal_only()
    g_star = math.sqrt(p[0] * p[1]) - p[3]
    jobs.append(_sweep_job("phase-diagram", "phase-zero-t", p, "g1", 0.0, 0.95 * g_star, 100, next(fmts), 1e6))
    p = draw.transition()
    jobs.append(_beta_grid_job("phase-diagram", "phase-crossing", p, 0.5 * bc(p), 2.0 * bc(p), 16, "linear", next(fmts)))
    for _ in range(3):
        next(fmts)
        jobs.append(Job(("validate",), "validate", "text", "validate"))
    rng.shuffle(jobs)
    return jobs


def _bulk_cycle(draw: _Draw) -> list[Job]:
    """Two cheap-node sweeps and two root-solve sweeps, csv and json alternating."""
    p = draw.normal_only()
    normal = _beta_grid_job("phase-diagram", "bulk-normal", p, 0.05, 50.0, BULK_NORMAL_NODES, "linear", "csv")
    p = draw.transition()
    bc = critical_beta(p[0], p[1], p[2] + p[3])
    superradiant = _beta_grid_job(
        "phase-diagram", "bulk-superradiant", p, 1.1 * bc, 8.0 * bc, BULK_SUPERRADIANT_NODES, "linear", "json"
    )
    # a g1 sweep wholly above the transition at this beta: g1 + g2 runs
    # from 1.1 to 3 times the coupling sum at which the bound reaches one
    omega0, Omega, g1, g2 = draw.transition()
    beta = draw.rng.uniform(1.5, 4.0) * critical_beta(omega0, Omega, g1 + g2)
    threshold = math.sqrt(omega0 * Omega / math.tanh(beta * Omega / 4.0))
    g2 = min(g2, 0.5 * threshold)
    threaded = _sweep_job(
        "phase-diagram", "bulk-superradiant-workers", (omega0, Omega, g1, g2), "g1",
        1.1 * threshold - g2, 3.0 * threshold - g2, BULK_SUPERRADIANT_NODES, "csv", beta,
        ("--workers", "2"),
    )
    p = draw.normal_only()
    g_star = math.sqrt(p[0] * p[1]) - p[3]
    zero_t = _sweep_job(
        "phase-diagram", "bulk-zero-t", p, "g1", 0.0, 0.95 * g_star, BULK_NORMAL_NODES, "json", 1e6
    )
    return [normal, superradiant, threaded, zero_t]


ED_SLOTS = ("ed-generalized-weak", "ed-generalized-strong", "ed-rwa", "ed-intensity", "ed-jc", "ed-jc")


def load_ed_reference(path: Path = ED_REFERENCE) -> dict[str, list[dict]]:
    """Recorded ed-curve pool, grouped by slot."""
    with open(path, encoding="utf-8") as fh:
        entries = json.load(fh)["entries"]
    pool: dict[str, list[dict]] = {}
    for entry in entries:
        pool.setdefault(entry["slot"], []).append(entry)
    return pool


def _ed_cycles(rng: random.Random) -> list[list[Job]]:
    """Every job is a distinct recorded (kind, params, beta) point.

    The seed fixes the order in which the pool is walked, so no job in a
    pass reuses the parameters, and hence the in-process ED results, of
    an earlier one.
    """
    pool = load_ed_reference()
    for entries in pool.values():
        rng.shuffle(entries)
    taken = {slot: 0 for slot in pool}
    per_cycle = {slot: ED_SLOTS.count(slot) for slot in pool}
    n_cycles = min(len(pool[slot]) // per_cycle[slot] for slot in pool)
    cycles = []
    for _ in range(n_cycles):
        cycle = []
        for slot in ED_SLOTS:
            entry = pool[slot][taken[slot]]
            taken[slot] += 1
            cycle.append(
                Job(tuple(entry["argv"]), "ed-curve", "json" if "json" in entry["argv"] else "csv",
                    slot, reference=tuple(entry["rows"]))
            )
        cycles.append(cycle)
    return cycles


def make_cycles(workload: str, seed: int) -> list[list[Job]]:
    """The workload's fixed job list for ``seed``, as a list of cycles."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}/{seed}")
    if workload == "ed-ladder":
        return _ed_cycles(rng)
    draw = _Draw(rng)
    if workload == "analytic-mix":
        return [_analytic_cycle(draw, i % 2 == 1) for i in range(ANALYTIC_CYCLES)]
    return [_bulk_cycle(draw) for _ in range(BULK_CYCLES)]
