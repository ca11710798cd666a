"""Run a set of benchmark runs and report how steady each metric is.

    python3 perfbench/sets.py --seeds 1-10 [--workloads a,b] [--trace 0|1]
                              [--save perfbench/out/set-a.json] [--against perfbench/out/set-a.json]

Runs run.py once per seed and workload, going round-robin over the
workloads within each seed so that a drift in host speed hits every
workload alike.  For each workload and metric it prints the median of the
runs and the spread, the distance between the first and third quartile as
a share of the median, and marks a spread above the metric's bound (FAIL)
or above a third of it (wide).  With --against it also compares each
median with the saved set's (FAIL when worse by more than the bound) and,
for traced sets, requires every count to repeat exactly seed by seed.
Exits 1 when anything failed.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=200)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr.strip()[-500:]} {lines[-2:]}")
    return json.loads(lines[-1])


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--save")
    ap.add_argument("--against")
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    seeds = parse_seeds(args.seeds)
    runs: dict[str, dict[str, dict]] = {w: {} for w in workloads}
    for seed in seeds:
        for w in workloads:
            res = run_once(w, seed, spec["run_seconds"], args.trace)
            runs[w][str(seed)] = {k: v["value"] for k, v in res["metrics"].items()}
            print(f"seed {seed} {w}: {'ok' if res['correct'] else 'INCORRECT'}", file=sys.stderr, flush=True)

    failed = False
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    before = json.loads(Path(args.against).read_text()) if args.against else None
    summary: dict = {"seeds": seeds, "trace": args.trace, "runs": runs, "medians": {}}
    for w in workloads:
        summary["medians"][w] = {}
        for name in next(iter(runs[w].values())):
            values = [r[name] for r in runs[w].values()]
            q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
            summary["medians"][w][name] = med
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s" and spread > bound:
                flag, failed = "FAIL", True
            elif bound is not None and spread > bound / 3:
                flag = "wide"
            line = f"{w:16} {name:48} median {med:12.6g}  spread {spread:7.4f}"
            if bound is not None:
                line += f"  bound {bound:5.3f} {flag}"
            if before is not None and bound is not None:
                change = med / before["medians"][w][name] - 1
                line += f"  vs saved {change:+.4f}"
                if change > bound:
                    line += " FAIL"
                    failed = True
            print(line)
        if before is not None and args.trace:
            counts = [m["name"] for m in spec["per_layer"] if m["unit"] == "count"]
            for seed, r in runs[w].items():
                old = before["runs"][w].get(seed)
                moved = [n for n in counts if old is not None and old[n] != r[n]]
                if moved:
                    print(f"{w} seed {seed}: counts moved {moved} FAIL")
                    failed = True
    if args.save:
        Path(args.save).write_text(json.dumps(summary, indent=2) + "\n", encoding="utf-8")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
