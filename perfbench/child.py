"""One sample of a workload, run in a fresh interpreter.

    python3 perfbench/child.py --workload NAME --seed N --trace 0|1 --spawned T [--spans PATH]

``--spawned`` is the starting process's ``time.monotonic()`` taken just
before it started this interpreter, so set-up time includes interpreter
start.  run.py starts each sample pinned to one CPU, so that the
host-speed probes read the CPU the work runs on.  The sample builds its inputs, runs
one pass of the workload's pipeline over every member, checks each output
against the expected table and the recorded digests, and prints one JSON
object on stdout.  Its times are scaled to a reference host speed (see
REF_PROBE_S); the raw seconds are under "raw".  With ``--trace 1`` every
layer function is wrapped and the per-layer metrics are included;
``--spans`` also writes the raw spans to that file.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import resource
import signal
import statistics
import sys
import time
import traceback
from pathlib import Path

from expected import expected_for, load_digests
from spans import (
    END, NAME, PARENT, REQUEST, START, Recorder, instrument, layer_metrics, scaled_stage_seconds,
    speed_probe, stage_seconds,
)
from workloads import WORKLOADS, Member, rebase_json

SRC = Path(__file__).resolve().parent.parent / "src"
# Seconds that spans.speed_probe takes on the reference host.  The shared VM
# this benchmark was tuned on changes CPU speed by up to 2x within minutes;
# the probe took about 2 to 4 ms there.  Every reported time is the measured
# time times REF_PROBE_S over the probe times measured around it, that is,
# seconds on a host whose probe takes REF_PROBE_S.
REF_PROBE_S = 0.0025
TICK_S = 0.1  # a timer runs a probe this often inside the stages of a pass


def import_program():
    sys.path.insert(0, str(SRC))
    import chi_lie

    if Path(chi_lie.__file__).resolve().parent != SRC / "chi_lie":
        raise SystemExit(f"chi_lie was imported from {chi_lie.__file__}, not from {SRC}")
    return chi_lie


def cli_json(doc: dict) -> str:
    """A document serialized byte for byte as the command line writes it."""
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def build_inputs(lib, members: tuple[Member, ...], seed: int) -> list:
    inputs = []
    for m in members:
        g = lib.catalog.build(m.builder, list(m.params))
        if m.rebased:
            g = lib.LieAlgebra.from_json_dict(rebase_json(g.to_json_dict(), seed))
        inputs.append(g)
    return inputs


def run_pass(lib, members: tuple[Member, ...], inputs: list, rec: Recorder) -> tuple[list[dict], float]:
    """The timed pass: each member through its command's pipeline."""
    outputs = []
    rec.active = True
    t0 = time.perf_counter()
    rec.probe()
    signal.signal(signal.SIGALRM, rec.tick)
    signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
    for m, g in zip(members, inputs):
        rec.request = m.key
        out: dict = {}
        try:
            if m.pipeline == "verify":
                with rec.stage("dispatch"):
                    out["nilpotent"] = lib.liealg.is_nilpotent(g)
                with rec.stage("chi"):
                    if out["nilpotent"]:
                        out["chi"] = lib.chi.compute_chi(g)
                    else:
                        out["chi"] = lib.chi.compute_chi_superperfect(g)
                with rec.stage("homology"):
                    out["homology"] = lib.homology.compute_homology(g)
                with rec.stage("checks"):
                    out["report"] = lib.verify.run_checks(out["chi"], out["homology"])
                with rec.stage("emit"):
                    out["doc"] = cli_json(out["report"].to_json_dict())
            else:
                with rec.stage("homology"):
                    out["homology"] = lib.homology.compute_homology(g)
                with rec.stage("emit"):
                    out["doc"] = cli_json(out["homology"].to_json_dict())
        except Exception:  # a failing member is counted, and the pass goes on
            out["error"] = traceback.format_exc(limit=4)
        outputs.append(out)
    signal.setitimer(signal.ITIMER_REAL, 0)
    wall = time.perf_counter() - t0
    rec.active = False
    rec.request = None
    return outputs, wall


def check(lib, m: Member, g, out: dict) -> tuple[list[str], dict[str, str]]:
    """Problems with one member's outputs, and the digests of its documents."""
    if "error" in out:
        return [out["error"].strip().splitlines()[-1]], {}
    problems = []
    h = out["homology"]
    got = {"h2": h.h2_ce_dim}
    routes = {h.h2_ce_dim, h.h2_exterior_dim} | ({h.h2_hopf_dim} - {None})
    if not h.agree or len(routes) != 1:
        problems.append(f"H2 routes disagree: {h.to_json_dict()}")
    docs = {"homology": cli_json(h.to_json_dict())}
    if m.pipeline == "verify":
        c = out["chi"]
        got.update(chi=c.chi.dim, W=c.W.dim, R=c.R.dim)
        if not out["report"].all_passed:
            problems.append("run_checks reports all_passed = false")
        chi_doc = c.to_json_dict()
        chi_doc["max_class"] = 2 * lib.nilpotency_class(g) + 2 if out["nilpotent"] else None
        docs["chi"] = cli_json(chi_doc)
        docs["verify"] = out["doc"]
    for key, want in expected_for(m).items():
        if got[key] != want:
            problems.append(f"{key} = {got[key]}, expected {want}")
    return problems, {name: hashlib.sha256(text.encode()).hexdigest() for name, text in docs.items()}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--spawned", type=float, required=True)
    ap.add_argument("--spans")
    ap.add_argument("--setup-only", action="store_true", help="stop once the inputs are built")
    args = ap.parse_args()

    lib = import_program()
    members = WORKLOADS[args.workload]
    inputs = build_inputs(lib, members, args.seed)
    setup_raw = time.monotonic() - args.spawned
    setup_probe = statistics.median(speed_probe() for _ in range(3))
    setup_s = setup_raw * REF_PROBE_S / setup_probe
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "raw": {"setup_s": setup_raw}, "probe_s": setup_probe}))
        return 0

    rec = Recorder()
    if args.trace:
        instrument(rec)
    outputs, wall = run_pass(lib, members, inputs, rec)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    top = [s for s in rec.spans if s[PARENT] is None]
    recorded = load_digests()
    results, digests = [], {}
    for m, g, out in zip(members, inputs, outputs):
        problems, digests[m.key] = check(lib, m, g, out)
        if not m.rebased and recorded.get(m.key) != digests[m.key]:
            problems.append(f"JSON digests {digests[m.key]} differ from the recorded {recorded.get(m.key)}")
        stages = {s[NAME][len("stage."):]: s[END] - s[START] for s in top if s[REQUEST] == m.key}
        results.append({"key": m.key, "problems": problems, "stages": stages})

    scaled = scaled_stage_seconds(rec.spans, rec.probes, REF_PROBE_S)
    probes = [end - start for start, end in rec.probes]
    doc = {
        "setup_s": setup_s,
        "wall_s": sum(scaled.values()),
        "chi_s": scaled.get("chi", 0.0),
        "homology_s": scaled.get("homology", 0.0),
        "checks_s": scaled.get("checks", 0.0),
        "peak_rss_mb": peak_rss_mb,
        "raw": {
            "setup_s": setup_raw,
            "wall_s": sum(s[END] - s[START] for s in top if s[NAME] != "probe"),
            "chi_s": stage_seconds(rec.spans, "chi"),
            "homology_s": stage_seconds(rec.spans, "homology"),
            "checks_s": stage_seconds(rec.spans, "checks"),
        },
        "probe_s": statistics.median(probes),
        "members": results,
        "digests": digests,
        "structure": [[s[REQUEST], s[NAME]] for s in top],
        "coverage": sum(s[END] - s[START] for s in top) / wall,
        "layers": layer_metrics(rec.spans) if args.trace else None,
    }
    if args.spans:
        with open(args.spans, "w", encoding="utf-8") as fh:
            json.dump(
                {"fields": ["id", "name", "site", "parent", "request", "start", "end", "sizes"], "spans": rec.spans},
                fh,
            )
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
