"""One fresh benchmark process: set up, run whole rounds, report as JSON.

    python3 bench/worker.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/worker.py --workload NAME --seed N --probe

Set-up is everything from the first line of this file until the first
command can start: importing bootperc and its dependencies from the
checkout's `src/` and building the command lines.  With --probe the
process stops there.  Otherwise it runs rounds of the workload's commands,
each through `bootperc.cli.main` with `--out` to a file under
`.bench_out/<workload>/`, one after the other, until another round would
pass S seconds (at least one round).  Only the commands are timed; the
outputs are checked afterwards by run.py, from the files.  Peak RSS is read
before the side commands, which run once after the rounds.

With --trace 1 it runs round 0 untraced, then round 0 again under the
tracer, and reports the per-layer metrics instead.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_ROOT = ROOT / ".bench_out"


def _parse_args():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe", action="store_true")
    return ap.parse_args()


def _import_cli():
    """bootperc.cli from this checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    from bootperc import cli

    if not Path(cli.__file__).resolve().is_relative_to(src):
        raise ImportError(f"bootperc imported from {cli.__file__}, not {src}")
    return cli


def _run(cli, argv) -> tuple[int, float, str]:
    """Exit code, seconds, and error text of one command."""
    t = time.perf_counter()
    try:
        rc = cli.main(argv)
        err = ""
    except SystemExit as exc:  # argparse rejects the command line
        rc = exc.code if isinstance(exc.code, int) else 2
        err = f"exit {exc.code}"
    except Exception:  # the operation fails; the benchmark goes on
        rc = 1
        err = traceback.format_exc(limit=3)
    return rc, time.perf_counter() - t, err


def _round(cli, ops, out_dir: Path, tag: str) -> list[dict]:
    records = []
    for name, argv in ops:
        out = out_dir / f"{tag}-{name}.out"
        rc, seconds, err = _run(cli, argv + ["--out", str(out)])
        records.append({"op": name, "file": str(out), "rc": rc,
                        "seconds": seconds, "error": err})
    return records


def main() -> int:
    args = _parse_args()
    cli = _import_cli()
    ops_of = workloads.WORKLOADS[args.workload]
    first = ops_of(args.seed, 0)
    out_dir = OUT_ROOT / args.workload
    out_dir.mkdir(parents=True, exist_ok=True)
    setup_s = time.perf_counter() - T0
    if args.probe:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    for stale in out_dir.glob("*.out"):
        stale.unlink()
    report = {"setup_s": setup_s, "ops": []}
    if args.trace:
        import spans

        untraced = _round(cli, first, out_dir, "untraced")
        tracer = spans.Tracer()
        tracer.install()
        try:
            traced = _round(cli, first, out_dir, "traced")
        finally:
            tracer.uninstall()
        report["ops"] = [("untraced", untraced), ("traced", traced)]
        metrics = spans.layer_metrics(tracer.totals())
        overhead = (sum(r["seconds"] for r in traced)
                    - sum(r["seconds"] for r in untraced))
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
        report["metrics"] = metrics
        tracer.write(OUT_ROOT / f"trace-{args.workload}-seed{args.seed}.jsonl")
    else:
        walls = []
        start = time.perf_counter()
        rnd = 0
        while True:
            ops = first if rnd == 0 else ops_of(args.seed, rnd)
            records = _round(cli, ops, out_dir, f"r{rnd}")
            report["ops"].append((f"r{rnd}", records))
            walls.append(sum(r["seconds"] for r in records))
            rnd += 1
            elapsed = time.perf_counter() - start
            if elapsed + elapsed / rnd > args.seconds:
                break
        report["walls"] = walls
        report["wall_s"] = statistics.median(walls)
        # ru_maxrss is in KiB on Linux
        report["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    side = workloads.SIDE_OPS.get(args.workload)
    if side is not None:
        report["side_ops"] = _round(cli, side(args.seed), out_dir, "side")
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
