"""bootperc benchmark: one workload, one seed, one line of JSON at the end.

    python3 bench/run.py --workload gnp-threshold --seed 0 --seconds 20 --trace 0

Run from anywhere; it benchmarks the checkout it sits in (`src/bootperc`).
With --trace 0 it starts PROBES fresh processes that only set up, then one
that sets up and runs whole rounds of the workload's commands for about
--seconds, one command at a time, single-threaded BLAS.  It prints wall_s
(median seconds per round), setup_s (median set-up over all those
processes) and peak_rss_mb (the process's ru_maxrss).  With --trace 1 it
runs round 0 untraced and then traced, and prints the per-layer metrics.

Every output is checked afterwards (checks.py).  `attempted` counts the
commands run, `failed` those that exited non-zero or whose output failed
its check; `correct` is false when a side check fails.  Exit code 0 when
the JSON line is printed, 1 when no result could be measured.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

import checks
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
PROBES = 4
PROBE_TIMEOUT_S = 30
WORKER_TIMEOUT_S = 120
# One process, one core: BLAS thread pools would only add noise.
SERIAL_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}


class BenchError(Exception):
    pass


def _worker(args: list, timeout: float) -> dict:
    cmd = [sys.executable, str(BENCH / "worker.py"), *args]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=timeout, env={**os.environ, **SERIAL_ENV})
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped it
        raise BenchError(f"{' '.join(args)}: no result within {exc.timeout} s") from None
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(args)}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _outputs(records: list) -> dict:
    return {rec["op"]: Path(rec["file"]).read_text()
            for rec in records if rec["rc"] == 0}


def _check(workload: str, report: dict) -> tuple[int, int, list, list]:
    """attempted, failed, per-operation problems, side-check problems."""
    check = checks.CHECKS[workload]
    attempted = failed = 0
    problems = []
    for tag, records in report["ops"]:
        found = check(_outputs(records))
        for rec in records:
            attempted += 1
            why = found.get(rec["op"], [])
            if rec["rc"] != 0:
                why = [f"exit {rec['rc']} {rec['error']}".strip()]
            if why:
                failed += 1
                problems += [f"{tag} {rec['op']}: {w}" for w in why]
    side = []
    if "side_ops" in report:
        records = report["side_ops"]
        side += [f"side {rec['op']}: exit {rec['rc']} {rec['error']}"
                 for rec in records if rec["rc"] != 0]
        for op, why in checks.SIDE_CHECKS[workload](_outputs(records)).items():
            side += [f"side {op}: {w}" for w in why]
    return attempted, failed, problems, side


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    base = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        setups = []
        if not args.trace:
            setups = [_worker(base + ["--probe"], PROBE_TIMEOUT_S)["setup_s"]
                      for _ in range(PROBES)]
        report = _worker(base + ["--seconds", str(args.seconds),
                                 "--trace", str(args.trace)], WORKER_TIMEOUT_S)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    attempted, failed, problems, side = _check(args.workload, report)
    for line in problems + side:
        print(f"bench: {line}", file=sys.stderr)
    if args.trace:
        metrics = report["metrics"]
    else:
        setups.append(report["setup_s"])
        metrics = {
            "wall_s": {"value": report["wall_s"], "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": report["peak_rss_mb"], "unit": "MB"},
        }
        rounds = ", ".join(f"{w:.3f}" for w in report["walls"])
        print(f"{args.workload} seed {args.seed}: rounds [{rounds}] s")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"attempted {attempted}, failed {failed}, side checks "
          f"{'failed' if side else 'passed'}")
    print(json.dumps({"correct": not side, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
