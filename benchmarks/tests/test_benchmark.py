"""Tests of the benchmark itself: job generation, checks, span arithmetic.

    python3 -m pytest benchmarks/tests -q
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import threading
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
from checks import CheckError, check_job  # noqa: E402
from jobs import WORKLOADS, Job, make_cycles  # noqa: E402
from spans import PER_LAYER, Tracer, layer_metrics, self_times  # noqa: E402


def _run(argv) -> tuple[int, str]:
    from dicketherm.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(list(argv))
    return code, out.getvalue()


def _first(workload: str, slot: str, fmt: str | None = None) -> Job:
    for cycle in make_cycles(workload, 7):
        for job in cycle:
            if job.slot == slot and (fmt is None or job.fmt == fmt):
                return job
    raise LookupError(slot)


# ------------------------------------------------------------ generation


@pytest.mark.parametrize("workload", WORKLOADS)
def test_job_lists_are_deterministic_per_seed_and_differ_across_seeds(workload):
    a, b, c = (make_cycles(workload, s) for s in (3, 3, 4))
    assert a == b
    assert a != c
    assert all(len(cycle) == len(a[0]) for cycle in a)
    assert sorted(j.slot for j in a[0]) == sorted(j.slot for j in a[-1])


def test_ed_ladder_never_repeats_parameters_within_a_pass():
    argvs = [job.argv for cycle in make_cycles("ed-ladder", 11) for job in cycle]
    assert len(argvs) == len(set(argvs))


def test_analytic_mix_mixes_formats_and_sides_of_the_transition():
    jobs = [job for cycle in make_cycles("analytic-mix", 5) for job in cycle]
    fmts = {job.fmt for job in jobs}
    assert fmts == {"csv", "json", "text"}
    assert min(b for job in jobs if job.command == "partition-ratio" for *_, b in job.nodes) == pytest.approx(0.1)
    assert max(len(job.nodes) for job in jobs if job.command == "phase-diagram") <= 100


# ------------------------------------------------------- checks on output


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_spectrum_check_flags_a_root_moved_by_1e_6(fmt):
    job = _first("analytic-mix", "spectrum-crossing", fmt)
    code, out = _run(job.argv)
    check_job(job, code, out)
    if fmt == "json":
        rows = [json.loads(line) for line in out.splitlines()]
        rows[0]["roots"][0] += 1e-6
        bad = "\n".join(json.dumps(r) for r in rows) + "\n"
    else:
        lines = out.splitlines()
        cells = lines[1].split(",")
        cells[7] = repr(float(cells[7]) + 1e-6)
        lines[1] = ",".join(cells)
        bad = "\n".join(lines) + "\n"
    with pytest.raises(CheckError, match="root"):
        check_job(job, code, bad)


def test_phase_check_flags_a_flipped_label():
    job = _first("analytic-mix", "phase-crossing", "csv")
    code, out = _run(job.argv)
    check_job(job, code, out)
    flipped = out.replace(",normal,", ",superradiant,", 1)
    assert flipped != out
    with pytest.raises(CheckError, match="phase"):
        check_job(job, code, flipped)


def test_phase_check_flags_a_bare_nan_in_a_json_line():
    job = _first("analytic-mix", "phase-crossing", "json")
    code, out = _run(job.argv)
    check_job(job, code, out)
    lines = out.splitlines()
    row = json.loads(lines[0])
    lines[0] = lines[0].replace(f'"rho": {json.dumps(row["rho"])}', '"rho": nan')
    assert "nan" in lines[0]
    with pytest.raises(CheckError, match="not JSON"):
        check_job(job, code, "\n".join(lines) + "\n")


def test_order_parameter_check_flags_a_perturbed_rho():
    job = _first("analytic-mix", "order-crossing", "json")
    code, out = _run(job.argv)
    check_job(job, code, out)
    rows = [json.loads(line) for line in out.splitlines()]
    k = next(i for i, r in enumerate(rows) if r["phase"] == "superradiant")
    rows[k]["rho"] *= 1.0 + 1e-7
    with pytest.raises(CheckError, match="gap equation"):
        check_job(job, code, "\n".join(json.dumps(r) for r in rows) + "\n")


def test_partition_check_flags_a_shifted_value_and_passes_small_beta():
    job = _first("analytic-mix", "partition-normal", "csv")
    code, out = _run(job.argv)
    check_job(job, code, out)
    lines = out.splitlines()
    cells = lines[1].split(",")
    cells[-1] = repr(float(cells[-1]) + 1e-5)
    lines[1] = ",".join(cells)
    with pytest.raises(CheckError, match="log-sinh"):
        check_job(job, code, "\n".join(lines) + "\n")


def test_critical_temp_check_flags_a_wrong_beta_c():
    job = _first("analytic-mix", "critical-temp", "csv")
    code, out = _run(job.argv)
    check_job(job, code, out)
    lines = out.splitlines()
    cells = lines[-1].split(",")
    cells[-1] = repr(float(cells[-1]) * (1.0 + 1e-9))
    lines[-1] = ",".join(cells)
    with pytest.raises(CheckError, match="beta_c"):
        check_job(job, code, "\n".join(lines) + "\n")


def test_validate_check_flags_a_failed_line():
    job = Job(("validate",), "validate", "text", "validate")
    code, out = _run(job.argv)
    check_job(job, code, out)
    with pytest.raises(CheckError, match="failed"):
        check_job(job, code, out.replace("PASS", "FAIL", 1))


def _ed_output(job: Job, values=None) -> str:
    argv = job.argv
    get = lambda flag: argv[argv.index(flag) + 1]  # noqa: E731
    g2 = get("--g2") if "--g2" in argv else "0"
    lines = ["omega0,Omega,g1,g2,beta,n_atoms,n_max_used,photons_per_atom,truncation_error_estimate"]
    for i, ref in enumerate(job.reference):
        value = ref["photons_per_atom"] if values is None else values[i]
        lines.append(",".join([get("--omega0"), "1", get("--g1"), g2, get("--beta"), str(ref["n_atoms"]),
                               str(ref["n_max_used"]), repr(value), repr(ref["truncation_error_estimate"])]))
    return "\n".join(lines) + "\n"


def test_ed_check_accepts_the_reference_and_flags_a_moved_value():
    job = next(j for cycle in make_cycles("ed-ladder", 1) for j in cycle
               if j.slot == "ed-generalized-weak")
    job = Job(job.argv, job.command, "csv", job.slot, reference=job.reference)
    check_job(job, 0, _ed_output(job))
    values = [ref["photons_per_atom"] for ref in job.reference]
    values[-1] += 1e-8
    with pytest.raises(CheckError, match="photons_per_atom"):
        check_job(job, 0, _ed_output(job, values))


def test_nonzero_exit_and_missing_rows_fail():
    job = _first("analytic-mix", "phase-normal", "csv")
    code, out = _run(job.argv)
    with pytest.raises(CheckError, match="exit code"):
        check_job(job, 1, out)
    with pytest.raises(CheckError, match="rows for"):
        check_job(job, code, "\n".join(out.splitlines()[:-1]) + "\n")


def test_independent_routes_agree_with_known_values():
    # beta_c for omega0 = Omega = 1, g1 = 1.2 is the README's 3.4259571827498814
    assert checks.critical_beta(1.0, 1.0, 1.2) == pytest.approx(3.4259571827498814, rel=1e-15)
    # at beta_c the lower mode energy vanishes
    assert checks.mode_energies(1.0, 1.0, 1.2, 0.0, 3.4259571827498814)[0] == pytest.approx(0.0, abs=1e-7)


# -------------------------------------------------------------- span math


def _span(span_id, parent, start, end, name="x", thread=1):
    return (span_id, parent, 1, name, start, end, thread)


def test_self_time_on_a_hand_built_tree():
    spans = [
        _span(1, None, 0.0, 10.0),
        _span(2, 1, 1.0, 4.0),
        _span(3, 2, 2.0, 3.0),
        _span(4, 1, 5.0, 6.0),
        # two worker-thread children of span 4 that overlap each other
        # and run past its end: only [5.5, 6.0] is covered
        _span(5, 4, 5.5, 6.5, thread=2),
        _span(6, 4, 5.7, 6.2, thread=3),
    ]
    selfs = self_times(spans)
    assert selfs[1] == pytest.approx(10.0 - 3.0 - 1.0)
    assert selfs[2] == pytest.approx(2.0)
    assert selfs[3] == pytest.approx(1.0)
    assert selfs[4] == pytest.approx(0.5)
    assert selfs[5] == pytest.approx(1.0)
    assert selfs[6] == pytest.approx(0.5)


def test_times_are_scaled_to_the_reference_kernel_speed():
    import calibrate
    from run import timings

    kernel = calibrate.solver_kernel()
    ref = kernel.reference_s
    with calibrate.Sampler(kernel, 0.001) as sampler:
        while len(sampler.samples) < 3:
            threading.Event().wait(0.01)
    assert not sampler._thread.is_alive()
    # the host ran the kernel at half the reference speed from t = 10 on
    sampler.samples = [(1.0, ref), (2.0, ref), (11.0, 2 * ref), (12.0, 2 * ref)]
    assert sampler.scale(0.0, 3.0) == pytest.approx(1.0)
    assert sampler.scale(10.0, 13.0) == pytest.approx(0.5)
    assert sampler.scale(0.0, 13.0) == pytest.approx(1 / 1.5)
    assert sampler.scale(5.0, 6.0) == pytest.approx(1.0)  # no sample inside: the nearest
    lat = [0.001, 0.002, 0.003, 0.004]
    raw = timings([(lat, 10, 1.0)])
    scaled = timings([(lat, 10, 0.5)])
    assert raw["rows_per_s"] == pytest.approx(1000.0)
    assert scaled["rows_per_s"] == pytest.approx(2 * raw["rows_per_s"])
    assert scaled["job_p50_ms"] == pytest.approx(0.5 * raw["job_p50_ms"])
    assert scaled["job_p90_ms"] == pytest.approx(0.5 * raw["job_p90_ms"])


def test_tracer_counts_survive_concurrent_workers():
    tracer = Tracer()
    threads, calls = 6, 2000
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [
            threading.Thread(target=lambda: [tracer.call("x.y", len, ((),), {}) for _ in range(calls)])
            for _ in range(threads)
        ]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=60)
        assert not any(w.is_alive() for w in workers)
    finally:
        sys.setswitchinterval(old)
    assert tracer.counts["x.y.calls"] == threads * calls
    assert len(tracer.spans) == threads * calls


def test_tracer_wraps_every_binding_and_restores_them():
    import dicketherm.cli as cli
    import dicketherm.thermo as thermo
    import dicketherm.exact_diag as exact_diag
    import dicketherm.operators as operators

    original = thermo.phase_scan
    tracer = Tracer()
    assert tracer.missing() == []
    tracer.install()
    try:
        assert cli.phase_scan is thermo.phase_scan is not original
        assert exact_diag.build_hamiltonian is operators.build_hamiltonian
        job = _first("analytic-mix", "phase-crossing", "csv")
        code, out = tracer.job(1, _run, job.argv)
        assert code == 0
    finally:
        tracer.uninstall()
    assert thermo.phase_scan is original and cli.phase_scan is original
    values = layer_metrics(tracer, 1)
    assert values["thermo.phase_scan.nodes"] == len(job.nodes)
    assert values["thermo.order_parameter.calls"] > 0
    assert values["operators.build_hamiltonian.calls"] == 0
    assert values["cli.run.self_s"] > 0.0
    assert values["trace.job_s"] >= values["cli.run.self_s"]


def test_benchmark_json_names_every_metric_the_runner_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [m["name"] for m in spec["per_layer"]] == [name for name, _u, _m in PER_LAYER]
    assert {m["name"] for m in spec["end_to_end"]} == {
        "setup_s", "rows_per_s", "job_p50_ms", "job_p90_ms", "peak_rss_mb"
    }
