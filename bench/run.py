#!/usr/bin/env python3
"""The repo benchmark's one command.

    python3 bench/run.py                      # every workload, end to end
    python3 bench/run.py --trace              # ... plus the per-layer tables
    python3 bench/run.py --workload W --seed S --seconds T --trace 0|1
    python3 bench/run.py --smoke              # every workload, tiny, < 5 s each
    python3 bench/run.py --runs 10 --out A.json    # a set for compare.py

With ``--workload`` it runs that workload in this process and prints, as
the last line of standard output, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` (the driver contract: a run that
printed its result exits 0, and says ``"correct": false`` when an oracle
check failed). Without ``--workload`` each workload runs in a child
process of its own, one after another, and the exit status is non-zero
when any run was incorrect or printed no result.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

from pbench import env  # noqa: E402  (no NumPy import yet)

PINNED = env.pin_environment()
sys.path.insert(0, str(ROOT / "src"))


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", help="run only this workload, in this process")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=None,
                    help="seconds spent inside measured windows per run")
    ap.add_argument("--trace", nargs="?", type=int, const=1, default=0, choices=(0, 1),
                    help="1: traced run, per-layer metrics; 0: end-to-end metrics")
    ap.add_argument("--smoke", action="store_true",
                    help="shrink every workload to a few seconds")
    ap.add_argument("--runs", type=int, default=1,
                    help="without --workload: runs per workload, seeds seed..seed+runs-1")
    ap.add_argument("--out", type=Path, help="without --workload: write the set of runs here")
    return ap.parse_args(argv)


def _run_all(args, seconds: float) -> int:
    from pbench import spec

    runs, status = [], 0
    for name in spec.WORKLOADS:
        for r in range(args.runs):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed + r), "--seconds", str(seconds),
                   "--trace", str(args.trace)]
            if args.smoke:
                cmd.append("--smoke")
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            sys.stdout.write(proc.stdout)
            sys.stdout.flush()
            lines = proc.stdout.strip().splitlines()
            try:
                result = json.loads(lines[-1])
            except (IndexError, ValueError):
                print(f"{name}: no result line (exit {proc.returncode})", file=sys.stderr)
                status = 1
                continue
            if proc.returncode != 0 or not result["correct"]:
                status = 1
            runs.append({"workload": name, "seed": args.seed + r, **result})
    if args.out is not None:
        args.out.write_text(json.dumps({"runs": runs}, indent=1))
        print(f"\n{len(runs)} runs written to {args.out}")
    return status


def main(argv=None) -> int:
    args = _parse(sys.argv[1:] if argv is None else argv)
    try:
        import repro  # noqa: F401
        from pbench import harness, spec
    except ImportError as exc:
        print(f"cannot import the program under test from {ROOT / 'src'}: {exc}",
              file=sys.stderr)
        return 2
    seconds = args.seconds
    if seconds is None:
        seconds = 2.0 if args.smoke else float(spec.RUN_SECONDS)
    if args.workload is None:
        return _run_all(args, seconds)
    result = harness.run_workload(
        args.workload, args.seed, seconds, traced=bool(args.trace), smoke=args.smoke,
        pinned=PINNED, root=ROOT,
    )
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
