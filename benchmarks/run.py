"""dicketherm benchmark: closed-loop CLI workloads with per-job checks.

    python3 benchmarks/run.py --workload analytic-mix --seed 1 --seconds 20 --trace 0

One client in one process calls ``dicketherm.cli.main(argv)`` on the
workload's seeded job list, one job after another, and checks every
job's output against an independent route (``checks.py``).  It runs
whole cycles of the list until ``--seconds`` have passed, so every run
has the same job mix.  The last stdout line is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
the run alternates traced and untraced cycles, reports the per-layer
metrics of ``spans.PER_LAYER`` from the traced ones and the tracing
overhead from both, and writes its spans to ``.bench_out/``.  Every
time reported is in reference time, scaled for the host's speed while
it was measured (``calibrate.py``).  The program under test is imported from ``src/`` of the checkout this file
sits in.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
sys.path.insert(0, str(HERE))

from calibrate import Sampler, dense_kernel, interpreter_kernel, solver_kernel  # noqa: E402
from jobs import WINDOW_CYCLES, WORKLOADS, make_cycles  # noqa: E402

SETUP_PROBES = 5
# Each workload's host-speed kernel (calibrate.py) and the seconds between
# its samples: the sampling takes about 3% of the CPU, 6% on ed-ladder.
WORKLOAD_KERNEL = {
    "analytic-mix": (solver_kernel, 0.02),
    "scan-bulk": (interpreter_kernel, 0.01),
    "ed-ladder": (dense_kernel, 0.1),
}
SETUP_SAMPLE_INTERVAL = 0.01  # about 3% of a set-up probe


def _pin_to_one_cpu() -> None:
    """One core, one BLAS thread.

    On a shared two-core host the cores run at different and changing
    speeds, and a run that migrates between them spreads by 30% or more.
    Must happen before numpy is imported; the set-up probes, being child
    processes, inherit both settings.
    """
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


def _import_program():
    if not (SRC / "dicketherm" / "cli.py").is_file():
        raise SystemExit(f"error: no dicketherm sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import dicketherm.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"error: imported dicketherm from {cli.__file__}, not {SRC}")
    return cli


def setup_probe(workload: str, seed: int) -> tuple[float, float]:
    """Import the CLI and build the job list in this fresh process.

    Returns the set-up time and the factor that turns it into reference
    time, from host-speed samples taken while it ran.
    """
    with Sampler(interpreter_kernel(), SETUP_SAMPLE_INTERVAL) as sampler:
        start = time.perf_counter()
        _import_program()
        make_cycles(workload, seed)
        end = time.perf_counter()
    return end - start, sampler.scale(start, end)


def measure_setup(workload: str, seed: int) -> list[tuple[float, float]]:
    """(set-up time, scale) of each of SETUP_PROBES fresh processes."""
    samples = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe", "--workload", workload,
             "--seed", str(seed)],
            capture_output=True, text=True, timeout=120, cwd=ROOT,
        )
        if proc.returncode != 0:
            raise SystemExit(f"error: setup probe failed: {proc.stderr.strip()}")
        elapsed, scale = proc.stdout.strip().splitlines()[-1].split()
        samples.append((float(elapsed), float(scale)))
    return samples


def run_job(cli, argv) -> tuple[int, str, str, float]:
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
    except SystemExit as exc:  # argparse rejects bad flags by exiting
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # main() is meant to catch these itself
        code = -1
        err.write(f"raised {type(exc).__name__}: {exc}\n")
    return code, out.getvalue(), err.getvalue(), time.perf_counter() - start


class Loop:
    """Closed loop over whole cycles; records each cycle's latencies, rows,
    start and end.  ``sampler`` must be sampling the host speed meanwhile.

    Without a tracer the loop stops at a window boundary once ``seconds``
    have passed.  With one, even-numbered cycles run traced and odd ones
    untraced, and the loop stops only after an untraced cycle, so both
    halves see the same job mix and the same host speed.
    """

    def __init__(self, cli, cycles, seconds: float, sampler: Sampler, window: int = 1, tracer=None) -> None:
        self.cli, self.cycles, self.seconds, self.tracer = cli, cycles, seconds, tracer
        self.sampler = sampler
        self.step = 2 if tracer is not None else window
        self.latencies: list[float] = []
        # (traced, job latencies, rows, start, end) per cycle
        self.per_cycle: list[tuple[bool, list[float], int, float, float]] = []
        self.failures: list[str] = []
        self.bytes = {"csv": 0, "json": 0, "text": 0}
        self.phase_rows = self.superradiant_rows = self.max_ed_dim = 0

    def run(self) -> None:
        from checks import check_job

        start = time.perf_counter()
        try:
            while True:
                index = len(self.per_cycle)
                traced = self.tracer is not None and index % 2 == 0
                if self.tracer is not None:
                    self.tracer.install() if traced else self.tracer.uninstall()
                latencies, rows, cycle_start = [], 0, time.perf_counter()
                for job in self.cycles[index % len(self.cycles)]:
                    if traced:
                        result = self.tracer.job(len(self.latencies) + 1, run_job, self.cli, job.argv)
                    else:
                        result = run_job(self.cli, job.argv)
                    code, out, err, elapsed = result
                    self.latencies.append(elapsed)
                    latencies.append(elapsed)
                    self.bytes[job.fmt] += len(out.encode())
                    if traced:
                        self.tracer.counts["cli.output_bytes"] += len(out.encode())
                    try:
                        stats = check_job(job, code, out)
                    except Exception as exc:  # any check failure, including a crash in parsing
                        last_err = err.strip().splitlines()[-1:] or [""]
                        self.failures.append(
                            f"{job.slot}: {type(exc).__name__}: {exc} | stderr: {last_err[0]} | argv: {' '.join(job.argv)}"
                        )
                        continue
                    rows += stats.rows
                    self.phase_rows += stats.phase_rows
                    self.superradiant_rows += stats.superradiant_rows
                    self.max_ed_dim = max(self.max_ed_dim, stats.max_ed_dim)
                self.per_cycle.append((traced, latencies, rows, cycle_start, time.perf_counter()))
                if time.perf_counter() - start >= self.seconds and len(self.per_cycle) % self.step == 0:
                    break
        finally:
            if self.tracer is not None:
                self.tracer.uninstall()

    @property
    def rows(self) -> int:
        return sum(rows for _t, _l, rows, _s, _e in self.per_cycle)

    def job_seconds(self, traced: bool, reference: bool = True) -> float:
        """Job time of the traced or untraced cycles, in reference time or as measured."""
        return sum(
            (self.sampler.scale(start, end) if reference else 1.0) * sum(lat)
            for t, lat, _r, start, end in self.per_cycle if t == traced
        )

    def rows_per_s(self, traced: bool) -> float:
        """Rows per second of reference time over the traced or untraced cycles."""
        rows = sum(rows for t, _l, rows, _s, _e in self.per_cycle if t == traced)
        return rows / self.job_seconds(traced)

    def windows(self) -> list[tuple[list[float], int, float]]:
        """(latencies, rows, scale) of each group of ``step`` consecutive cycles.

        ``scale`` turns the group's measured times into reference time.
        """
        out = []
        for i in range(0, len(self.per_cycle), self.step):
            group = self.per_cycle[i:i + self.step]
            out.append((
                [t for _tr, lat, _r, _s, _e in group for t in lat],
                sum(r for _tr, _l, r, _s, _e in group),
                self.sampler.scale(group[0][3], group[-1][4]),
            ))
        return out


def percentile(values: list[float], q: int) -> float:
    """q-th percentile, interpolated between order statistics."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def timings(windows: list[tuple[list[float], int, float]]) -> dict[str, float]:
    """Medians over the windows, each window's times multiplied by its scale."""
    return {
        "rows_per_s": statistics.median(rows / (scale * sum(lat)) for lat, rows, scale in windows),
        "job_p50_ms": statistics.median(1e3 * scale * statistics.median(lat) for lat, _r, scale in windows),
        "job_p90_ms": statistics.median(1e3 * scale * percentile(lat, 90) for lat, _r, scale in windows),
    }


def setup_seconds(setup: list[tuple[float, float]]) -> float:
    """Median set-up time of the probes, each in reference time."""
    return statistics.median(elapsed * scale for elapsed, scale in setup)


def end_to_end(loop: Loop, setup: list[tuple[float, float]]) -> dict:
    """Times in reference seconds (calibrate.py), as medians over the run's
    windows, so a few seconds of host slowdown inside a run move the
    result less than they move a whole-run mean."""
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    times = timings(loop.windows())
    return {
        "setup_s": {"value": setup_seconds(setup), "unit": "s"},
        "rows_per_s": {"value": times["rows_per_s"], "unit": "1/s"},
        "job_p50_ms": {"value": times["job_p50_ms"], "unit": "ms"},
        "job_p90_ms": {"value": times["job_p90_ms"], "unit": "ms"},
        "peak_rss_mb": {"value": rss_kb / 1024.0, "unit": "MB"},
    }


def describe(loop: Loop, workload: str, seed: int) -> dict:
    n = len(loop.latencies)
    windows = loop.windows()
    raw = timings([(lat, rows, 1.0) for lat, rows, _s in windows])
    return {
        "workload": workload,
        "seed": seed,
        "jobs": n,
        "cycles": len(loop.per_cycle),
        "jobs_per_cycle": len(loop.cycles[0]),
        "windows": len(loop.windows()),
        "jobs_beyond_p90_per_window": min(
            sum(1 for t in lat if t > percentile(lat, 90)) for lat, _r, _s in windows
        ),
        "kernel_mean_ms": 1e3 * loop.sampler.mean_s(),
        "kernel_samples": len(loop.sampler.samples),
        "raw": raw,
        "failed_frac": len(loop.failures) / n,
        "rows": loop.rows,
        "output_bytes": loop.bytes,
        "superradiant_share": loop.superradiant_rows / loop.phase_rows if loop.phase_rows else 0.0,
        "max_ed_dim": loop.max_ed_dim,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    _pin_to_one_cpu()

    if args.setup_probe:
        print("%r %r" % setup_probe(args.workload, args.seed))
        return 0

    cli = _import_program()
    cycles = make_cycles(args.workload, args.seed)
    make_kernel, interval = WORKLOAD_KERNEL[args.workload]

    if args.trace:
        from spans import PER_LAYER, Tracer, layer_metrics

        tracer = Tracer()
        for name in tracer.missing():
            print(f"note: {name} not found; its metrics read 0", file=sys.stderr)
        with Sampler(make_kernel(), interval) as sampler:
            loop = Loop(cli, cycles, args.seconds, sampler, tracer=tracer)
            loop.run()
        values = layer_metrics(tracer, len(loop.per_cycle) // 2)
        # per-layer times in reference time too, by the traced cycles' overall factor
        factor = loop.job_seconds(traced=True) / loop.job_seconds(traced=True, reference=False)
        for name, unit, _m in PER_LAYER:
            if unit == "s/cycle":
                values[name] *= factor
        values["trace.overhead"] = loop.rows_per_s(traced=False) / loop.rows_per_s(traced=True)
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl.gz")
        units = {name: unit for name, unit, _ in PER_LAYER}
        metrics = {name: {"value": values[name], "unit": units[name]} for name, _u, _m in PER_LAYER}
    else:
        setup = measure_setup(args.workload, args.seed)
        with Sampler(make_kernel(), interval) as sampler:
            loop = Loop(cli, cycles, args.seconds, sampler, window=WINDOW_CYCLES[args.workload])
            loop.run()
        metrics = end_to_end(loop, setup)

    for failure in loop.failures:
        print(f"FAILED {failure}", file=sys.stderr)
    info = describe(loop, args.workload, args.seed)
    print("info " + json.dumps(info))
    print(json.dumps({
        "correct": not loop.failures,
        "attempted": len(loop.latencies),
        "failed": len(loop.failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
