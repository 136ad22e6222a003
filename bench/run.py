#!/usr/bin/env python3
"""The mafkit benchmark: seeded workloads, output checks, end-to-end and
per-layer metrics.

    python3 bench/run.py --workload cut-heavy --seed 1 --seconds 25 --trace 0

Run from the repository root; mafkit is imported from ``src/``. The last
line of stdout is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics`` (the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``). README.md in this directory explains the
metrics and workloads.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time
import traceback
import tracemalloc
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

MIN_PASSES = 5  # timed passes per run, at least
MIN_TRACED_PASSES = 3
SETUP_REPS = 9  # setup children per run, at least
SETUP_PASS_S = 0.25  # wall time of setup children ahead of a pass, at least
SETUP_BUDGET_S = 5  # wall time after which no pass gets setup children
PERCENTILES = (50, 75, 90, 95, 99, 99.9)
TAIL_BEYOND = 10  # samples the tail percentile must leave above it


def _import_program():
    """Put the checkout's ``src/`` first on the path and import mafkit from
    there; exit non-zero when the sources are missing."""
    package = SRC / "mafkit"
    if not (package / "__init__.py").is_file():
        sys.exit(f"bench: no mafkit sources at {package}")
    sys.path.insert(0, str(SRC))
    import mafkit

    if Path(mafkit.__file__).resolve().parent != package:
        sys.exit(f"bench: imported mafkit from {mafkit.__file__}, not {package}")


# ── one pass ─────────────────────────────────────────────────────────────


class Pass:
    """Per-unit latencies, digests and outputs of one pass over the units."""

    def __init__(self, wl, units, rec=None, unit_ids=None):
        import workloads

        self.times, self.digests, self.outputs = [], [], []
        gc.collect()
        started = time.perf_counter()
        for i, unit in enumerate(units):
            if rec is not None:
                rec.unit = unit_ids[i]
            t0 = time.perf_counter()
            # one failed unit must not stop the run
            raw = _guarded(workloads.run_unit, wl, unit)
            self.times.append(time.perf_counter() - t0)
            # outputs become text outside the timing and outside any span
            active = rec is not None and rec.active
            if active:
                rec.active = False
            # run_unit returns a tuple; a dict is _guarded's error record
            output = raw if isinstance(raw, dict) else _guarded(workloads.unit_output, wl,
                                                                 unit, raw)
            if active:
                rec.active = True
            self.outputs.append(output)
            self.digests.append(workloads.unit_digest(output))
        self.wall = time.perf_counter() - started


def _guarded(fn, *args):
    """``fn(*args)``, or ``{"error": ...}`` when it raises."""
    try:
        return fn(*args)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        return {"error": traceback.format_exc(limit=1)}


def _failures(wl, units, reference: Pass, passes) -> int:
    """Failed units over ``passes``: a unit fails when the reference pass's
    output fails a check or another pass's output differs from it."""
    import workloads

    bad = []
    for u, out in zip(units, reference.outputs):
        problems = [out["error"]] if "error" in out else workloads.check_output(wl, u, out)
        if problems:
            print(f"FAILED unit {u.inp.index} {' '.join(u.command)}: {'; '.join(problems)}",
                  file=sys.stderr)
        bad.append(bool(problems))
    return sum(is_bad or d != ref
               for p in passes
               for is_bad, d, ref in zip(bad, p.digests, reference.digests))


def tail_percentile(samples_min: int) -> float:
    """Highest percentile in PERCENTILES that leaves at least TAIL_BEYOND of
    ``samples_min`` samples above its nearest-rank position."""
    best = PERCENTILES[0]
    for p in PERCENTILES:
        if samples_min - math.ceil(p / 100 * samples_min) >= TAIL_BEYOND:
            best = p
    return best


def nearest_rank(samples: list, p: float) -> float:
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


def best_latencies(passes: list) -> list:
    """Each unit's fastest latency over ``passes``. The host's speed swings
    by up to half for seconds at a time, so best-of is what repeats from
    run to run; a median over passes follows the swings."""
    return [min(ts) for ts in zip(*(p.times for p in passes))]


@contextlib.contextmanager
def rotating_cpus():
    """Yield ``pin(i)``, which moves the process to the i-th allowed CPU in
    turn; restore the CPU set on exit. On a shared host each CPU has slow
    phases of its own, seconds long, so passes spread over the CPUs give
    every unit a fast sample far more often than passes left on one."""
    if not hasattr(os, "sched_setaffinity"):
        yield lambda i: None
        return
    cpus = sorted(os.sched_getaffinity(0))
    try:
        yield lambda i: os.sched_setaffinity(0, {cpus[i % len(cpus)]})
    finally:
        os.sched_setaffinity(0, cpus)


def timed_passes(wl, units, seconds: float, before=None, min_passes=MIN_PASSES) -> list:
    """At least ``min_passes`` passes, and more until they have taken
    ``seconds`` together. ``before(i)``, when given, runs ahead of pass i,
    outside its timing."""
    passes = []
    with rotating_cpus() as pin:
        while len(passes) < min_passes or sum(p.wall for p in passes) < seconds:
            pin(len(passes))
            if before is not None:
                before(len(passes))
            passes.append(Pass(wl, units))
    return passes


# ── child processes ──────────────────────────────────────────────────────


def _child(role: str, wl, variant: int, passes: int = 0) -> dict:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--role", role,
           "--spec", wl.to_json(), "--variant", str(variant), "--passes", str(passes)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise RuntimeError(f"{role} child exited {done.returncode}")
    return json.loads(done.stdout.splitlines()[-1])


def _inputs_digest(inputs) -> str:
    return hashlib.sha256("".join(i.text for i in inputs).encode()).hexdigest()


def role_setup(spec: str, variant: int) -> dict:
    """Import mafkit and build the workload's inputs, timed together."""
    started = time.perf_counter()
    _import_program()
    import workloads

    wl = workloads.Workload.from_json(spec)
    inputs = workloads.build_inputs(wl, variant, _workdir())
    return {"setup_s": time.perf_counter() - started, "inputs": _inputs_digest(inputs)}


def role_timed(spec: str, variant: int, n_passes: int) -> dict:
    """A warm-up pass, then ``n_passes`` timed passes with no span wrappers
    in the process."""
    _import_program()
    import workloads

    wl = workloads.Workload.from_json(spec)
    units = workloads.units(wl, workloads.build_inputs(wl, variant, _workdir()))
    Pass(wl, units)
    passes = timed_passes(wl, units, 0, min_passes=n_passes)
    return {"wall_s": sum(best_latencies(passes)), "passes": len(passes)}


def _workdir() -> str:
    path = OUT / "work"
    path.mkdir(parents=True, exist_ok=True)
    return str(path)


# ── the two kinds of run ─────────────────────────────────────────────────


def run_untraced(wl, seed: int, variant: int, seconds: float, pinned) -> dict:
    import workloads

    inputs = workloads.build_inputs(wl, variant, _workdir())
    units = workloads.units(wl, inputs)
    # the warm-up pass doubles as the memory pass: tracemalloc slows a pass
    # about fivefold, so it never shares a pass with timing
    tracemalloc.start()
    warm = Pass(wl, units)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    # setup children ahead of the passes: back to back, all of them would
    # land in the same slow or fast phase of the host
    setups, spent = [], []

    def setup(i):
        if sum(spent) >= SETUP_BUDGET_S and len(setups) >= SETUP_REPS:
            return
        started = time.perf_counter()
        setups.append(_child("setup", wl, variant))
        while time.perf_counter() - started < SETUP_PASS_S:
            setups.append(_child("setup", wl, variant))
        spent.append(time.perf_counter() - started)

    passes = timed_passes(wl, units, seconds, before=setup)
    if len(setups) < SETUP_REPS:
        setups += [_child("setup", wl, variant) for _ in range(SETUP_REPS - len(setups))]

    every = [warm, *passes]
    attempted = len(units) * len(every)
    failed = _failures(wl, units, warm, every)
    digest = workloads.pass_digest(warm.digests)
    notes = []
    if any(s["inputs"] != _inputs_digest(inputs) for s in setups):
        notes.append("setup children built different inputs")
        failed = attempted
    if pinned is not None and digest != pinned:
        notes.append(f"output digest {digest} differs from pinned {pinned}")
        failed = attempted

    best = best_latencies(passes)
    samples = [t for p in passes for t in p.times]  # every unit in every pass
    pct = tail_percentile(len(units) * MIN_PASSES)
    metrics = {
        "wall_s": (sum(best), "s"),
        "instance_p50_s": (statistics.median(best), "s"),
        "instance_tail_s": (nearest_rank(samples, pct), "s"),
        "peak_mem_mb": (peak / 2**20, "MiB"),
        "setup_s": (min(s["setup_s"] for s in setups), "s"),
    }
    lines = [
        f"workload {wl.name}: seed {seed} (relabelling {variant}), "
        f"{len(units)} units per pass, {len(passes)} timed passes",
        *(f"  {k:<16} {v:.6g} {u}" for k, (v, u) in metrics.items()),
        f"  each unit is taken at its best of {len(passes)} timed passes; wall_s sums "
        f"those and instance_p50_s is their median. instance_tail_s is p{pct} of the "
        f"{len(samples)} latencies of all passes "
        f"({len(samples) - math.ceil(pct / 100 * len(samples))} beyond)",
        "  pass walls: " + " ".join(f"{p.wall:.4f}" for p in passes),
        f"  setup_s is the fastest of {len(setups)} fresh processes: "
        + " ".join(f"{s['setup_s']:.4f}" for s in setups),
        f"  error_rate {failed}/{attempted} = {failed / attempted:.4g}",
        f"  output digest {digest} "
        + ("(not pinned)" if pinned is None else "(matches pin)" if digest == pinned
           else "(MISMATCH)"),
        *notes,
    ]
    return {"lines": lines, "attempted": attempted, "failed": failed, "metrics": metrics}


def per_layer_names() -> list:
    """(metric, unit) for every per-layer metric, in report order."""
    import spans

    names = []
    for layer in spans.NAMES:
        names += [(f"{layer}.self_s", "s"), (f"{layer}.calls", "count")]
    names += [
        ("triples.find_incompatible.hit_ratio", "ratio"),
        ("maf.cut_entries", "count"),
        ("maaf.cycle_entries", "count"),
        ("oracle.candidates", "count"),
        ("oracle.accept_ratio", "ratio"),
        ("trace.wall_s", "s"),
        ("trace.uncovered_s", "s"),
        ("trace.overhead_s", "s"),
    ]
    return names


def run_traced(wl, seed: int, variant: int, seconds: float, pinned) -> dict:
    import spans
    import workloads

    units = workloads.units(wl, workloads.build_inputs(wl, variant, _workdir()))
    warm = Pass(wl, units)
    rec = spans.Recorder()
    unit_info = []  # span unit id -> [traced pass, unit index or "setup"]
    per_pass, traced = [], []
    started = time.perf_counter()
    with spans.traced(rec) as found, rotating_cpus() as pin:
        while (len(traced) < MIN_TRACED_PASSES
               or time.perf_counter() - started < seconds):
            pin(len(traced))
            gc.collect()
            first, rec.counts = len(rec), {}
            rec.unit = len(unit_info)
            unit_info.append([len(traced), "setup"])
            rec.active = True
            t0 = time.perf_counter()
            units = workloads.units(wl, workloads.build_inputs(wl, variant, _workdir()))
            setup_wall = time.perf_counter() - t0
            ids = list(range(len(unit_info), len(unit_info) + len(units)))
            unit_info += [[len(traced), i] for i in range(len(units))]
            p = Pass(wl, units, rec, ids)
            rec.active = False
            traced.append(p)
            per_pass.append(_layer_metrics(spans.layer_totals(rec, first), rec.counts,
                                           setup_wall, p.wall))
            if first:  # passes repeat the same calls: keep the first pass's spans
                rec.truncate(first)
    # as many untraced passes as traced ones: best-of-n falls as n grows
    untraced = _child("timed", wl, variant, len(traced))

    traced_wall = sum(best_latencies(traced))
    metrics = {}
    for name, unit in per_layer_names():
        if name == "trace.wall_s":
            value = traced_wall
        elif name == "trace.overhead_s":
            value = traced_wall - untraced["wall_s"]
        else:
            value = statistics.median_low(m[name] for m in per_pass)
        metrics[name] = (value, unit)

    attempted = len(units) * (1 + len(traced))
    failed = _failures(wl, units, warm, [warm, *traced])
    digest = workloads.pass_digest(warm.digests)
    notes = [f"layers not found in mafkit: {', '.join(sorted(set(spans.NAMES) - set(found)))}"
             ] if set(found) != set(spans.NAMES) else []
    if pinned is not None and digest != pinned:
        notes.append(f"output digest {digest} differs from pinned {pinned}")
        failed = attempted

    stem = OUT / f"{wl.name}-seed{seed}"
    with open(f"{stem}.spans.jsonl", "w", encoding="utf-8") as fh:
        fh.write(json.dumps(["span", "parent", "name", "start_ns", "end_ns", "unit"]) + "\n")
        for row in rec.rows():
            fh.write(json.dumps([*row[:5], unit_info[row[5]]]) + "\n")
    with open(f"{stem}.layers.json", "w", encoding="utf-8") as fh:
        json.dump({k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, fh, indent=1)

    total = statistics.median_low(m["trace.total_s"] for m in per_pass)
    lines = [
        f"workload {wl.name}: seed {seed} (relabelling {variant}), traced, "
        f"medians of {len(traced)} passes, each setup + {len(units)} units",
        f"  traced setup + units {total:.4f} s (median pass); units at their best "
        f"{traced_wall:.4f} s traced, {untraced['wall_s']:.4f} s untraced (best of "
        f"{untraced['passes']} passes in a process without wrappers)",
        f"  {'metric':<40} {'value':>12}  unit   share of traced time",
    ]
    for name, (value, unit) in sorted(metrics.items(),
                                      key=lambda kv: (kv[1][1] != "s", -kv[1][0])):
        share = f"{100 * value / total:6.2f}%" if unit == "s" else ""
        lines.append(f"  {name:<40} {value:>12.6g}  {unit:<6} {share}")
    lines += [
        f"  error_rate {failed}/{attempted} = {failed / attempted:.4g}",
        f"  {len(rec)} spans of the first traced pass in {stem.relative_to(ROOT)}.spans.jsonl, "
        f"metrics in {stem.relative_to(ROOT)}.layers.json",
        *notes,
    ]
    return {"lines": lines, "attempted": attempted, "failed": failed, "metrics": metrics}


def _layer_metrics(totals: dict, counts: dict, setup_wall: float, units_wall: float):
    """One traced pass's per-layer metrics, plus its total traced time."""
    import spans

    calls, self_s = totals["calls"], totals["self_s"]
    m = {}
    for layer in spans.NAMES:
        m[f"{layer}.self_s"] = self_s[layer]
        m[f"{layer}.calls"] = calls[layer]
    hits = counts.get("triples.find_incompatible.hits", 0)
    finds = calls["triples.find_incompatible"]
    candidates = totals["oracle_candidates"]
    m["triples.find_incompatible.hit_ratio"] = hits / finds if finds else 0.0
    m["maf.cut_entries"] = counts.get("maf.cut_entries", 0)
    m["maaf.cycle_entries"] = counts.get("maaf.cycle_entries", 0)
    m["oracle.candidates"] = candidates
    m["oracle.accept_ratio"] = counts.get("oracle.solved", 0) / candidates if candidates else 0.0
    m["trace.total_s"] = setup_wall + units_wall
    m["trace.uncovered_s"] = setup_wall + units_wall - totals["covered_s"]
    return m


# ── entry point ──────────────────────────────────────────────────────────


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=False)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--role", choices=("main", "setup", "timed"), default="main",
                        help=argparse.SUPPRESS)
    parser.add_argument("--spec", help=argparse.SUPPRESS)
    parser.add_argument("--variant", type=int, help=argparse.SUPPRESS)
    parser.add_argument("--passes", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.role == "setup":
        print(json.dumps(role_setup(args.spec, args.variant)))
        return 0
    if args.role == "timed":
        print(json.dumps(role_timed(args.spec, args.variant, args.passes)))
        return 0

    _import_program()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[args.workload]
    variant = args.seed % workloads.VARIANTS
    with open(HERE / "digests.json", encoding="utf-8") as fh:
        pinned = json.load(fh).get(wl.name, {}).get(str(variant))
    run = run_traced if args.trace else run_untraced
    result = run(wl, args.seed, variant, args.seconds, pinned)
    print("\n".join(result["lines"]))
    print(json.dumps({
        "correct": result["failed"] == 0 and pinned is not None,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
