"""In-memory span recorder and the wrappers of the traced run.

A span is one list, in this field order (the schema README.md documents):

    id       index of the span in recording order
    name     "<module>.<function>" of the defining module, for example
             "nilquot.class_quotient"; methods are "<module>.<Class>.<method>"
             with ``__init__`` written "init"; pipeline stages are
             "stage.<stage>"; the host-speed probes between stages are
             "probe" (the probes a timer runs inside stages are not spans;
             they are in Recorder.probes)
    site     short name of the module through whose global the call was
             looked up ("verify" for run_checks' own subalgebra_closure
             calls); the defining module for methods; "bench" for stages
    parent   id of the innermost span open when this one opened, or None
    request  key of the workload member being run, for example
             "rebased heisenberg(5)"
    start    time.perf_counter() when the call began, in seconds
    end      time.perf_counter() when it returned or raised
    sizes    dict of counts measured at the boundary, or None

Layer functions are wrapped from outside the package: each module-level
binding that holds the function is replaced, so a call is recorded
wherever it is looked up.  Nothing under src/ changes.
"""
from __future__ import annotations

import gc
import sys
from bisect import bisect_left, bisect_right
from contextlib import contextmanager
from fractions import Fraction
from time import perf_counter
from typing import Iterator

ID, NAME, SITE, PARENT, REQUEST, START, END, SIZES = range(8)


class Recorder:
    """Holds the spans of one pass; stages are recorded even when untraced."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[list] = []
        self.request: str | None = None
        self.active = False
        # (start, end) of every probe of the pass, at stage boundaries and on ticks
        self.probes: list[tuple[float, float]] = []
        self._probing = False

    def open(self, name: str, site: str) -> list:
        parent = self._stack[-1][ID] if self._stack else None
        span = [len(self.spans), name, site, parent, self.request, perf_counter(), 0.0, None]
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: list, sizes: dict | None = None) -> None:
        span[END] = perf_counter()
        span[SIZES] = sizes
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span[NAME]} closed out of order")

    @contextmanager
    def stage(self, name: str) -> Iterator[None]:
        """A pipeline stage, followed by a host-speed probe."""
        span = self.open(f"stage.{name}", "bench")
        try:
            yield
        finally:
            self.close(span)
            self.probe()

    def probe(self) -> None:
        """A probe at a stage boundary, recorded as a top-level span too."""
        span = self.open("probe", "bench")
        self._probing = True
        start = perf_counter()
        speed_probe()
        self.probes.append((start, perf_counter()))
        self._probing = False
        self.close(span)

    def tick(self, _signum, _frame) -> None:
        """Signal handler: a probe inside whatever stage is running."""
        if self.active and not self._probing:
            start = perf_counter()
            speed_probe()
            self.probes.append((start, perf_counter()))


PROBE_ROUNDS = 500


def speed_probe() -> float:
    """Seconds taken by fixed pure-Python Fraction work with no chi_lie in it.

    The work is the same in every process and every commit, so its time
    reads the speed of the CPU the process runs on at that moment.  The
    garbage collector is off while it runs, so that the size of the
    program's heap does not show in the probe.
    """
    gc_was_on = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        acc = Fraction(0)
        for i in range(1, PROBE_ROUNDS + 1):
            acc = acc * Fraction(i % 7 + 1, i % 11 + 2) + Fraction(i % 13, i % 17 + 1)
            if acc.denominator > 10**12:
                acc = Fraction(acc.numerator % 10007, 13)
        return perf_counter() - t0
    finally:
        if gc_was_on:
            gc.enable()


def _dim(_args, result) -> dict:
    return {"dim": result.dim}


def _chi_dim(_args, result) -> dict:
    return {"dim": result.chi.dim}


# (module, attribute, sizes(args, result) or None, count only the outermost call)
LAYERS = (
    ("freelie", "build_free_nilpotent", _dim, False),
    ("freelie", "eval_in_algebra", None, True),
    ("nilquot", "stable_quotient", None, False),
    ("nilquot", "class_quotient", None, False),
    ("nilquot", "eliminate_redundant_generators", lambda a, r: {"gens_kept": r[0].generators}, False),
    ("nilquot", "ideal_closure_echelon", lambda a, r: {"rank": r.rank}, False),
    ("liealg", "LieAlgebra.bracket", None, False),
    ("liealg", "hom_from_generator_images", None, False),
    ("liealg", "LieHom.__init__", None, False),
    ("liealg", "subalgebra_closure", None, False),
    ("liealg", "ideal_closure", None, False),
    ("liealg", "nilpotency_class", None, False),
    ("liealg", "validate", None, False),
    ("linalg", "rref", lambda a, r: {"cells": a[0].nrows * a[0].ncols}, False),
    ("linalg", "SparseEchelon.insert", None, False),
    ("chi", "chi_presentation", None, False),
    ("chi", "compute_chi", _chi_dim, False),
    ("chi", "compute_chi_superperfect", _chi_dim, False),
    ("homology", "h2_ce", None, False),
    ("homology", "ce_boundary3", lambda a, r: {"cols": r.ncols}, False),
    ("homology", "h2_hopf", None, False),
    ("homology", "schur_via_exterior", None, False),
    ("homology", "exterior_square", None, False),
    ("verify", "run_checks", None, False),
)


def _wrapper(rec: Recorder, fn, name: str, site: str, sizes, busy: list[bool] | None):
    def wrapped(*args, **kwargs):
        if not rec.active or (busy is not None and busy[0]):
            return fn(*args, **kwargs)
        if busy is not None:
            busy[0] = True
        span = rec.open(name, site)
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            rec.close(span, None if sizes is None or result is None else sizes(args, result))
            if busy is not None:
                busy[0] = False

    return wrapped


def instrument(rec: Recorder) -> None:
    """Wrap every layer function of the imported chi_lie modules."""
    modules = {
        name.split(".")[-1]: mod
        for name, mod in list(sys.modules.items())
        if name == "chi_lie" or name.startswith("chi_lie.")
    }
    for modname, attr, sizes, outermost in LAYERS:
        busy = [False] if outermost else None
        home = modules[modname]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(home, cls_name)
            span_name = f"{modname}.{cls_name}.{'init' if meth == '__init__' else meth}"
            setattr(cls, meth, _wrapper(rec, getattr(cls, meth), span_name, modname, sizes, busy))
            continue
        fn = getattr(home, attr)
        for site, mod in modules.items():
            if getattr(mod, attr, None) is fn:
                setattr(mod, attr, _wrapper(rec, fn, f"{modname}.{attr}", site, sizes, busy))


def stage_seconds(spans: list[list], stage: str) -> float:
    return sum(s[END] - s[START] for s in spans if s[NAME] == f"stage.{stage}")


def scaled_stage_seconds(
    spans: list[list], probes: list[tuple[float, float]], ref_probe_s: float
) -> dict[str, float]:
    """Seconds per stage, scaled to a host on which a probe takes ref_probe_s.

    The probes cut each top-level stage span into pieces, and there is a
    probe just before and just after every stage.  Each piece is scaled by
    ref_probe_s over the mean duration of the two probes around it; the
    probes' own time inside a stage is left out.
    """
    probes = sorted(probes)
    starts = [p[0] for p in probes]
    out: dict[str, float] = {}
    for s in spans:
        if s[PARENT] is not None or not s[NAME].startswith("stage."):
            continue
        i = bisect_right(starts, s[START]) - 1
        last = bisect_left(starts, s[END])
        if i < 0 or probes[i][1] > s[START] or last == len(probes):
            raise ValueError(f"stage span {s[ID]} is not between two probes")
        edge, total = s[START], 0.0
        for before, after in zip(probes[i:last], probes[i + 1:last + 1]):
            piece = min(after[0], s[END]) - edge
            total += piece * ref_probe_s * 2 / (before[1] - before[0] + after[1] - after[0])
            edge = after[1]
        stage = s[NAME][len("stage."):]
        out[stage] = out.get(stage, 0.0) + total
    return out


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer counts and seconds, named <module>.<function>.<quantity>."""
    calls: dict[str, int] = {}
    secs: dict[str, float] = {}
    child_secs: dict[int, float] = {}
    size_sums: dict[str, int] = {}
    for s in spans:
        dur = s[END] - s[START]
        calls[s[NAME]] = calls.get(s[NAME], 0) + 1
        secs[s[NAME]] = secs.get(s[NAME], 0.0) + dur
        if s[PARENT] is not None:
            child_secs[s[PARENT]] = child_secs.get(s[PARENT], 0.0) + dur
        for k, v in (s[SIZES] or {}).items():
            key = f"{s[NAME]}.{k}"
            size_sums[key] = size_sums.get(key, 0) + v

    def self_s(*names: str) -> float:
        return sum(
            s[END] - s[START] - child_secs.get(s[ID], 0.0) for s in spans if s[NAME] in names
        )

    by_id = {s[ID]: s for s in spans}
    free_dims = [
        s[SIZES]["dim"]
        for s in spans
        if s[NAME] == "freelie.build_free_nilpotent"
        and s[SIZES] is not None
        and s[PARENT] is not None
        and by_id[s[PARENT]][NAME] == "nilquot.class_quotient"
    ]
    out: dict[str, float] = {}
    for modname, attr, _, _ in LAYERS:
        name = f"{modname}.{attr.replace('__init__', 'init')}"
        out[f"{name}.calls"] = calls.get(name, 0)
        out[f"{name}.s"] = secs.get(name, 0.0)
    out["freelie.build_free_nilpotent.dim_sum"] = size_sums.get("freelie.build_free_nilpotent.dim", 0)
    out["nilquot.class_quotient.free_dim_max"] = max(free_dims, default=0)
    out["nilquot.eliminate_redundant_generators.gens_kept"] = size_sums.get(
        "nilquot.eliminate_redundant_generators.gens_kept", 0
    )
    out["nilquot.ideal_closure_echelon.rank_sum"] = size_sums.get("nilquot.ideal_closure_echelon.rank", 0)
    out["linalg.rref.cells"] = size_sums.get("linalg.rref.cells", 0)
    out["homology.ce_boundary3.cols"] = size_sums.get("homology.ce_boundary3.cols", 0)
    out["chi.dim_sum"] = size_sums.get("chi.compute_chi.dim", 0) + size_sums.get(
        "chi.compute_chi_superperfect.dim", 0
    )
    out["chi.self_s"] = self_s("chi.compute_chi", "chi.compute_chi_superperfect")
    out["verify.run_checks.self_s"] = self_s("verify.run_checks")
    out["verify.subalgebra_closure.calls"] = sum(
        1 for s in spans if s[NAME] == "liealg.subalgebra_closure" and s[SITE] == "verify"
    )
    return out
