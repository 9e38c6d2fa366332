"""Host-speed reference: a fixed kernel timed on a background thread.

The shared host this benchmark was built on changes speed by up to 1.9
times, flipping between a fast and a slow state every fraction of a
second to every few minutes.  Raw job times then say
more about when a run happened than about the program.  So while the
jobs run, a background thread times one call of a fixed kernel, which
is not program code, every ``interval`` seconds, and the runner reports
every time scaled to the host speed at which that kernel takes its
``reference_s``:

    reported = measured * reference_s / (mean kernel time over the same span)

The kernel's time is the calling thread's CPU time, so a call the
interpreter lock holds up in favour of the job is not counted as slow.
Samples are evenly spaced in time, so their mean weighs each host state
by how long it lasted, as the job's own time does.  A change to the
program moves the reported times just as it moves the raw ones; a change
in host speed moves kernel and jobs together and cancels.  Not all work
slows by the same factor, so each workload has a kernel of its own kind
of work (``run.WORKLOAD_KERNEL``).  The raw
figures and the kernel's own mean are printed on the runner's ``info``
line.
"""

from __future__ import annotations

import math
import statistics
import threading
import time
from dataclasses import dataclass
from typing import Callable


def interpreter_work() -> int:
    """Float maths, calls, list and string work, as in the per-node solvers and the writers."""
    acc = 0.0
    parts = []
    for i in range(400):
        x = 0.01 * i
        acc += math.tanh(x) * math.exp(-x) / (1.0 + x * x)
        parts.append(f"{acc:.12g}")
    return len(",".join(parts))


@dataclass(frozen=True)
class Kernel:
    call: Callable[[], object]
    # About one call's time in the fast stretches of the two-vCPU host the
    # benchmark was built on (see README.md).
    reference_s: float


def interpreter_kernel() -> Kernel:
    """For scan-bulk, whose per-node solves and row writing are interpreter
    work and small numpy vectors, and for the set-up probes, which must not
    import numpy before they start timing."""
    return Kernel(interpreter_work, 0.25e-3)


def _hermitian(n: int):
    import numpy as np

    rng = np.random.default_rng(0)
    matrix = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return matrix + matrix.conj().T


def solver_kernel() -> Kernel:
    """Interpreter work plus a small Hermitian eigensolve.

    For analytic-mix: its per-node solvers are interpreter-bound, its
    ``validate`` jobs, which set its 90th percentile, LAPACK-bound, and the
    two slow down by different amounts when the host does.
    """
    import numpy as np

    matrix = _hermitian(64)

    def call() -> float:
        interpreter_work()
        return float(np.linalg.eigvalsh(matrix)[0])

    return Kernel(call, 0.5e-3)


def dense_kernel() -> Kernel:
    """Kronecker products into a 16 MB complex array plus a small Hermitian eigensolve.

    For ed-ladder, whose dense Hamiltonian builds stream arrays of tens of
    megabytes through memory and slow down less than interpreter work when
    the host does.
    """
    import numpy as np

    small, eye = _hermitian(16), np.eye(16, dtype=complex)

    def call() -> float:
        big = np.kron(np.kron(eye, small), eye[:4, :4])
        return float(big[0, 0].real) + float(np.linalg.eigvalsh(small)[0])

    return Kernel(call, 3.5e-3)


class Sampler:
    """Background thread that times one kernel call every ``interval`` seconds.

    Use as a context manager; the thread is stopped and joined on exit.
    """

    def __init__(self, kernel: Kernel, interval: float) -> None:
        self.kernel, self.interval = kernel, interval
        self.samples: list[tuple[float, float]] = []  # (perf_counter at the end, CPU seconds)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, name="host-speed", daemon=True)

    def _loop(self) -> None:
        while not self._stop.wait(self.interval):
            start = time.thread_time()
            self.kernel.call()
            self.samples.append((time.perf_counter(), time.thread_time() - start))

    def __enter__(self) -> Sampler:
        for _ in range(3):  # warm up before the first timed call
            self.kernel.call()
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def mean_s(self, start: float = -math.inf, end: float = math.inf) -> float:
        """Mean kernel time of the samples taken in [start, end]; if none
        were, of the sample taken nearest to that span."""
        window = [d for t, d in self.samples if start <= t <= end]
        if not window:
            window = [min(self.samples, key=lambda s: min(abs(s[0] - start), abs(s[0] - end)))[1]]
        return statistics.fmean(window)

    def scale(self, start: float = -math.inf, end: float = math.inf) -> float:
        """Factor that turns a time measured in [start, end] into reference time."""
        return self.kernel.reference_s / self.mean_s(start, end)
