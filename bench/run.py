"""Benchmark of lcrrot: training, held-out evaluation, checkpoints and
gradient checks, driven through the package's public Python API.

    python3 bench/run.py                                  # every workload in turn
    python3 bench/run.py --workload train_paper --seed 3 --seconds 20 --trace 0

Run it from the root of a checkout. Each workload runs in its own process,
started with one BLAS thread, a fixed PYTHONHASHSEED and the checkout's
``src`` as its only import path. The inputs are generated from ``--seed``
and written to ``.bench_out/``, and removed at the end. The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics`` (end-to-end metrics, or per-layer metrics with
``--trace 1``). See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("train_paper", "train_small_ragged")
TIMEOUT_S = 170
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


def run_workload(name, seed, seconds, trace) -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **PINNED_ENV)
    cmd = [sys.executable, str(BENCH / "workload.py"), "--workload", name,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--work-dir", str(ROOT / ".bench_out")]
    proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=TIMEOUT_S)
    lines = proc.stdout.splitlines()
    print("\n".join(lines[:-1]))
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"workload {name} exited with code {proc.returncode}")
    result = json.loads(lines[-1])
    for key, m in result["metrics"].items():
        print(f"  {key:<32} {m['value']:>14.6g} {m['unit']}")
    print(f"  held-out agreement: attempted {result['attempted']}, failed {result['failed']}; "
          f"checks {'passed' if result['correct'] else 'FAILED'}")
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "lcrrot" / "__init__.py").is_file():
        sys.exit(f"error: no lcrrot package under {ROOT / 'src'}; run from a checkout")
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {name: run_workload(name, args.seed, args.seconds, args.trace) for name in names}
    print(json.dumps(results[names[0]] if len(names) == 1 else results))


if __name__ == "__main__":
    main()
