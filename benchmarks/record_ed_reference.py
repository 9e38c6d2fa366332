"""Record the ed-ladder job pool and its reference rows.

    python3 benchmarks/record_ed_reference.py

Draws the pool from a fixed seed, runs every job through
``dicketherm.cli.main`` once and writes ``benchmarks/ed_reference.json``.
The ed-ladder workload checks its ``ed-curve`` rows against these
values, so rerun this only on a commit whose ED results are trusted and
say so in the change that commits the new file.  It takes about five
seconds per collective job and peaks near 0.5 GB.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from jobs import ED_REFERENCE, critical_beta  # noqa: E402

POOL_SEED = 20071774
ED_N_LIST = (2, 3, 4, 5, 6, 7)
# entries per slot; a seed walks them in its own order, one per cycle
COLLECTIVE_PER_SLOT = 12
JC_ENTRIES = 24
JITTER = 0.05

WEAK = {"omega0": 6.0, "g": 0.98, "beta": 3.3}
STRONG_G = 0.8 * math.sqrt(12.0)
STRONG = {"omega0": 12.0, "g": STRONG_G, "beta": 2.0 * critical_beta(12.0, 1.0, 2.0 * STRONG_G)}


def _jittered(rng: random.Random, regime: dict) -> dict:
    return {k: v * (1.0 + rng.uniform(-JITTER, JITTER)) for k, v in regime.items()}


def _argv(kind: str, regime: dict, both_couplings: bool, n_list, fmt: str) -> list[str]:
    argv = ["ed-curve", "--kind", kind, "--omega0", repr(regime["omega0"]), "--Omega", "1.0",
            "--g1", repr(regime["g"])]
    if both_couplings:
        argv += ["--g2", repr(regime["g"])]
    argv += ["--beta", repr(regime["beta"]), "--n-list", ",".join(map(str, n_list)), "--format", fmt]
    return argv


def pool_argvs() -> list[tuple[str, list[str]]]:
    rng = random.Random(POOL_SEED)
    fmts = ("csv", "json")
    pool = []
    for i in range(COLLECTIVE_PER_SLOT):
        fmt = fmts[i % 2]
        regime = (WEAK, STRONG)[i % 2]
        pool.append(("ed-generalized-weak", _argv("generalized-dicke", _jittered(rng, WEAK), True, ED_N_LIST, fmt)))
        pool.append(("ed-generalized-strong", _argv("generalized-dicke", _jittered(rng, STRONG), True, ED_N_LIST, fmts[1 - i % 2])))
        pool.append(("ed-rwa", _argv("dicke-rwa", _jittered(rng, regime), False, ED_N_LIST, fmt)))
        pool.append(("ed-intensity", _argv("intensity-dicke", _jittered(rng, regime), False, ED_N_LIST, fmts[1 - i % 2])))
    for i in range(JC_ENTRIES):
        regime = (WEAK, STRONG)[i % 2]
        pool.append(("ed-jc", _argv("jaynes-cummings", _jittered(rng, regime), False, (1,), fmts[(i // 2) % 2])))
    return pool


def _rows(text: str, fmt: str) -> list[dict]:
    if fmt == "json":
        return [json.loads(line) for line in text.splitlines()]
    return list(csv.DictReader(io.StringIO(text)))


def main() -> int:
    from dicketherm.cli import main as cli_main

    entries = []
    for slot, argv in pool_argvs():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli_main(argv)
        if code != 0:
            print(f"{slot} {' '.join(argv)} exited {code}", file=sys.stderr)
            return 1
        fmt = argv[argv.index("--format") + 1]
        rows = [
            {
                "n_atoms": int(r["n_atoms"]),
                "n_max_used": int(r["n_max_used"]),
                "photons_per_atom": float(r["photons_per_atom"]),
                "truncation_error_estimate": float(r["truncation_error_estimate"]),
            }
            for r in _rows(out.getvalue(), fmt)
        ]
        entries.append({"slot": slot, "argv": argv, "rows": rows})
        print(f"{slot}: {len(rows)} rows, n_max_used {sorted({r['n_max_used'] for r in rows})}", file=sys.stderr)
    with open(ED_REFERENCE, "w", encoding="utf-8") as fh:
        json.dump({"pool_seed": POOL_SEED, "entries": entries}, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
