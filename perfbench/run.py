"""The benchmark: chi, homology and verify timed end to end on one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs samples of the workload for about S seconds.  Each sample is a fresh
interpreter (perfbench/child.py), so chi_lie's free-algebra cache starts
cold as it does for every chi-lie command; at most one sample runs per
core, each pinned to its own core, and never more than two at once.
Every output is checked against the expected table and the recorded
digests.  Times are scaled to a reference host speed by probes run
between the stages (child.py, REF_PROBE_S).

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  attempted and failed count workload
members over all samples.  With --trace 0 the metrics are the end-to-end
metrics of BENCHMARK.json, each the median over the samples.  With
--trace 1 untraced and traced samples alternate, and the metrics are the
per-layer ones, read from the traced samples' spans.  The line before it
holds quartiles, sample counts, the host record and the problems found;
the same goes to perfbench/out/.  Exits 0 only when every output was
correct.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
MAX_WORKERS = 2
START_LIMIT_S = 150  # no sample starts that would end past this ...
KILL_LIMIT_S = 170  # ... and none outlives this, so a run ends within 180 s
COVERAGE_MARGIN = 0.01  # top-level stage spans cover the timed pass to 1%
SETUP_SAMPLES = 6  # extra set-up-only interpreters per untraced run, for setup_s


@dataclass
class Sample:
    kind: str  # "setup" (set-up only), "plain" (untraced pass) or "traced"
    seconds: float
    doc: dict | None
    error: str | None


def run_child(args: argparse.Namespace, kind: str, timeout: float, spans: Path | None) -> Sample:
    env = dict(os.environ, PYTHONHASHSEED="0")
    t0 = time.monotonic()
    cmd = [
        sys.executable, str(HERE / "child.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--trace", str(int(kind == "traced")), "--spawned", repr(t0),
    ]
    if kind == "setup":
        cmd.append("--setup-only")
    if spans is not None:
        cmd += ["--spans", str(spans)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout, cwd=ROOT, env=env)
    except subprocess.TimeoutExpired:
        return Sample(kind, time.monotonic() - t0, None, f"{kind} sample killed after {timeout:.0f} s")
    took = time.monotonic() - t0
    if proc.returncode != 0:
        tail = " | ".join(proc.stderr.strip().splitlines()[-3:])
        return Sample(kind, took, None, f"{kind} sample exited {proc.returncode}: {tail}")
    return Sample(kind, took, json.loads(proc.stdout.strip().splitlines()[-1]), None)


class Sampler:
    """Hands out samples while the time budget allows.

    The first job is a pass; the set-up-only samples come next, while that
    pass runs on the other core; then the pass kinds go round-robin.
    """

    def __init__(self, args: argparse.Namespace):
        self.args = args
        self.kinds = ["plain", "traced"] if args.trace else ["plain"]
        self.setups_left = 0 if args.trace else SETUP_SAMPLES
        self.lock = threading.Lock()
        self.samples: list[Sample] = []
        self.started = 0
        self.t0 = time.monotonic()
        self.deadline = self.t0 + args.seconds

    def next_job(self) -> tuple[str, bool] | None:
        """The next sample's kind, and whether it writes the run's spans."""
        with self.lock:
            if any(s.doc is None for s in self.samples):
                return None  # a sample failed; the run is already incorrect
            if self.started and self.setups_left:
                self.setups_left -= 1
                return "setup", False
            kind = self.kinds[self.started % len(self.kinds)]
            if self.started >= len(self.kinds):  # every kind has run at least once
                took = [s.seconds for s in self.samples if s.kind == kind]
                est = statistics.median(took) if took else 0.0
                now = time.monotonic()
                # a pass may end past the deadline by half its length, so a
                # run lasts about --seconds on average
                if now + est / 2 > self.deadline or now + est > self.t0 + START_LIMIT_S:
                    return None
            self.started += 1
            return kind, kind == "traced" and self.started == 2

    def work(self, cpu: int) -> None:
        # pins this thread, and so every sample it starts, from before exec
        os.sched_setaffinity(0, {cpu})
        while (job := self.next_job()) is not None:
            kind, write_spans = job
            path = OUT / f"spans-{self.args.workload}-seed{self.args.seed}.json" if write_spans else None
            timeout = max(1.0, self.t0 + KILL_LIMIT_S - time.monotonic())
            sample = run_child(self.args, kind, timeout, path)
            with self.lock:
                self.samples.append(sample)


def quartiles(values: list[float]) -> list[float]:
    if len(values) == 1:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def host_record() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    rev = "unknown (not a git checkout)"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        rev = ref
        if ref.startswith("ref: ") and (ROOT / ".git" / ref[5:]).is_file():
            rev = (ROOT / ".git" / ref[5:]).read_text().strip()
    src = hashlib.sha256()
    for p in sorted((ROOT / "src").rglob("*.py")):
        src.update(p.relative_to(ROOT).as_posix().encode() + b"\0" + p.read_bytes())
    return {
        "python": platform.python_version(),
        "git_rev": rev,
        "src_sha256": src.hexdigest(),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
    }


def self_checks(plain: list[dict], traced: list[dict], count_names: list[str]) -> list[str]:
    """Consistency of the samples with each other, and of the traced run."""
    problems = []
    ref = plain[0]
    for i, d in enumerate(plain + traced):
        tag = f"sample {i} ({'traced' if d['layers'] else 'untraced'})"
        if not 1 - COVERAGE_MARGIN <= d["coverage"] <= 1 + 1e-9:
            problems.append(f"{tag}: top-level spans cover {d['coverage']:.4f} of the pass")
        if d["structure"] != ref["structure"]:
            problems.append(f"{tag}: stage structure differs from the untraced pass")
        if d["digests"] != ref["digests"]:
            problems.append(f"{tag}: output digests differ from the untraced pass")
    for d in traced[1:]:
        moved = [n for n in count_names if d["layers"][n] != traced[0]["layers"][n]]
        if moved:
            problems.append(f"traced counts did not repeat: {moved}")
    return problems


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    bench_file = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "chi_lie" / "__init__.py").is_file() or not bench_file.is_file():
        print(f"error: {ROOT} holds no chi_lie sources under src/ or no BENCHMARK.json", file=sys.stderr)
        return 2
    spec = json.loads(bench_file.read_text(encoding="utf-8"))
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)

    load_before = os.getloadavg()
    sampler = Sampler(args)
    workers = [
        threading.Thread(target=sampler.work, args=(cpu,))
        for cpu in sorted(os.sched_getaffinity(0))[:MAX_WORKERS]
    ]
    for t in workers:
        t.start()
    for t in workers:
        t.join()
    load_after = os.getloadavg()

    samples = sampler.samples
    plain = [s.doc for s in samples if s.doc and s.kind == "plain"]
    traced = [s.doc for s in samples if s.doc and s.kind == "traced"]
    setups = [s.doc["setup_s"] for s in samples if s.doc]
    problems = [s.error for s in samples if s.error]
    passes = [s for s in samples if s.kind != "setup"]
    per_sample = max((len(d["members"]) for d in plain + traced), default=1)
    attempted = per_sample * len(passes)
    failed = per_sample * len([s for s in passes if s.doc is None])
    for d in plain + traced:
        for m in d["members"]:
            if m["problems"]:
                failed += 1
                problems.append(f"{m['key']}: {'; '.join(m['problems'])}")

    metric_specs = spec["per_layer"] if args.trace else spec["end_to_end"]
    count_names = [m["name"] for m in spec["per_layer"] if m["unit"] == "count"]
    if plain and (traced or not args.trace):
        problems += self_checks(plain, traced, count_names)

    metrics, spread = {}, {}
    if plain and (traced or not args.trace):
        for m in metric_specs:
            name = m["name"]
            if name == "trace.overhead_frac":
                values = [
                    statistics.median(d["wall_s"] for d in traced)
                    / statistics.median(d["wall_s"] for d in plain) - 1
                ]
            elif args.trace:
                values = [d["layers"][name] for d in traced]
            elif name == "setup_s":
                values = setups
            else:
                values = [d[name] for d in plain]
            q1, med, q3 = quartiles(values)
            metrics[name] = {"value": med, "unit": m["unit"]}
            spread[name] = {"q1": q1, "median": med, "q3": q3, "n": len(values)}
    else:
        problems.append("no sample of every kind completed")

    correct = not problems
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "samples": {
            "untraced": len(plain),
            "traced": len(traced),
            "setup_only": len(setups) - len(plain) - len(traced),
            "failed": len([s for s in samples if s.doc is None]),
        },
        "failed_frac": {"value": failed / attempted, "failed": failed, "attempted": attempted},
        "quartiles": spread,
        "probe_s": sorted(d["probe_s"] for d in plain + traced),
        "member_stage_medians": {} if problems else {
            m["key"]: {
                stage: statistics.median(d["members"][i]["stages"][stage] for d in plain)
                for stage in m["stages"]
            }
            for i, m in enumerate(plain[0]["members"])
        },
        "per_sample": [
            {k: d[k] for k in ("setup_s", "wall_s", "chi_s", "homology_s", "checks_s", "probe_s", "raw")}
            for d in plain + traced
        ],
        "host": dict(host_record(), loadavg_before=load_before, loadavg_after=load_after),
        "problems": problems,
    }
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"detail": detail, "result": result}, indent=2) + "\n", encoding="utf-8"
    )
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
