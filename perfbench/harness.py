"""Benchmark harness: sizes the fixed work, times it, judges it, reports metrics.

``run.py`` is the entry point; it pins the BLAS threads and puts this
checkout's ``src/`` first on the path before importing this module.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import asdict
from pathlib import Path

import numpy as np

from topospec.fields import GridSpec
from topospec.invariants import QUAD_TOL

from perfbench import tracing
from perfbench import workloads as wl

ROOT = Path(__file__).resolve().parent.parent
RUNS = ROOT / ".perfbench_runs"
RUN_SCRIPT = Path(__file__).with_name("run.py")
POOL_WORKERS = 2
SETUP_REPEATS = 7
TRACED_SHARE = 1 / 3        # a traced run does a third of the fixed work, three times

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "maps_per_s": "1/s",
    "samples_per_s": "1/s",
    "ok_frac": "ratio",
    "oracle_gap_max": "1",
    "phi_ref_gap_max": "1",
    "fidelity_p50": "1",
    "peak_rss_mb": "MB",
}


def nproc() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def parse_args(argv=None):
    p = argparse.ArgumentParser(description="Run one topospec benchmark workload.")
    p.add_argument("--workload", required=True, choices=[*wl.WORKLOADS, "all"],
                   help="one workload, or 'all' to run each in turn")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="sizes the fixed work: about this long on a 2-core box")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="do the set-up, print 'ready' and exit (set-up timing)")
    args = p.parse_args(argv)
    if nproc() < POOL_WORKERS:
        p.error(f"the benchmark uses {POOL_WORKERS} workers; this host has "
                f"nproc = {nproc()}")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def git_commit() -> dict | None:
    """HEAD and whether the tree differs from it; None outside a git checkout."""
    if not (ROOT / ".git").exists():
        return None

    def git(*cmd):
        return subprocess.run(["git", *cmd], cwd=ROOT, capture_output=True,
                              text=True, check=True).stdout
    try:
        return {"head": git("rev-parse", "HEAD").strip(),
                "dirty": bool(git("status", "--porcelain").strip())}
    except (OSError, subprocess.CalledProcessError):
        return None


def environment() -> dict:
    return {
        "threads": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")},
        "TOPOSPEC_THREADS": os.environ.get("TOPOSPEC_THREADS"),
        "workers": POOL_WORKERS,
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": git_commit(),
        "grid": {"default": asdict(GridSpec()),
                 "compute_spectrum": "n_r 512 (canonical18) or 256 (full), "
                                     "n_phi 64 per unit of charge spread, "
                                     "4x n_phi on singular maps",
                 "phi_ref": asdict(wl.REF_GRID)},
        "quad_tol": QUAD_TOL,
    }


def peak_rss_mb() -> float:
    """Peak resident set of this process plus the largest reaped child's.

    Read right after the timed units, so the children are the pool workers
    of the warm-up and of the units.
    """
    scale = 1 / 1024 ** 2 if sys.platform == "darwin" else 1 / 1024
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) * scale


def unit_count(w, seconds: float) -> int:
    return max(1, round(seconds / w.unit_s))


def run_pass(w, items, workers: int, workdir: Path, prepared=None):
    """Run every unit; prepare inside the timed region unless given prepared.

    Returns the outputs, the pass's wall time and each unit's wall time.
    """
    workdir.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    if prepared is None:
        prepared = w.prepare(items, workdir)
    outputs, unit_walls = [], []
    for p in prepared:
        t = time.perf_counter()
        outputs.append(w.run(p, workers, workdir))
        unit_walls.append(time.perf_counter() - t)
    return outputs, time.perf_counter() - t0, unit_walls


def measure_setup(args) -> list[float]:
    """Process start to ready, in several fresh set-up processes."""
    cmd = [sys.executable, str(RUN_SCRIPT), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds)]
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True) as proc:
            line = proc.stdout.readline()
            times.append(time.perf_counter() - t0)
            proc.stdout.read()
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up process failed with code {proc.returncode}")
    return times


def setup_only(args, w) -> int:
    workdir = Path(tempfile.mkdtemp(prefix="setup-", dir=RUNS))
    try:
        w.prepare(w.draw(args.seed, unit_count(w, args.seconds)), workdir)
        print("ready", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


def end_to_end(args, w, workdir: Path):
    """Time the fixed work with tracing off, then probe accuracy and set-up."""
    items = w.draw(args.seed, unit_count(w, args.seconds))
    prepared = w.prepare(items, workdir)
    if w.uses_pool:
        wl.warm_up(POOL_WORKERS)
    outputs, wall, unit_walls = run_pass(w, items, POOL_WORKERS, workdir / "units",
                                         prepared)
    rss = peak_rss_mb()          # before probes and set-up processes add children
    out = w.judge(outputs)

    probes = []
    if isinstance(outputs[0], wl.TomoOutput):
        first_trip = outputs[0]
    else:
        first_trip, judged = wl.probe("tomo-run", wl.TOMO_ANCHOR_SEED,
                                      POOL_WORKERS, workdir / "probe")
        probes.append(judged)
    if not out.gaps:
        probes.append(wl.probe("canonical-sweep", wl.SWEEP_ANCHOR,
                               POOL_WORKERS, workdir / "probe")[1])
    gaps = out.gaps + [g for p in probes for g in p.gaps]
    fidelities = out.fidelities + [f for p in probes for f in p.fidelities]
    phi_gap = wl.phi_ref_gap(first_trip, POOL_WORKERS)
    setup = measure_setup(args)

    values = {
        "setup_s": statistics.median(setup),
        "wall_s": wall,
        "maps_per_s": out.maps / wall,
        "samples_per_s": out.samples / wall,
        "ok_frac": 1.0 - out.failed_operations / max(1, out.operations),
        "oracle_gap_max": max(gaps, default=None),
        "phi_ref_gap_max": phi_gap,
        "fidelity_p50": statistics.median(fidelities) if fidelities else None,
        "peak_rss_mb": rss,
    }
    record = {"items": items, "unit_walls": unit_walls, "setup_s_samples": setup,
              "operations": out.operations,
              "failed_operations": out.failed_operations,
              "maps": out.maps, "samples": out.samples,
              "fidelities": fidelities, "known_misses": out.known_misses}
    metrics = {k: (values[k], unit) for k, unit in END_TO_END.items()}
    return metrics, out, out.problems + [q for p in probes for q in p.problems], record


def traced_layers(args, w, workdir: Path):
    """Pool, single-worker and traced single-worker passes over the same work."""
    items = w.draw(args.seed, unit_count(w, args.seconds * TRACED_SHARE))
    if w.uses_pool:
        wl.warm_up(POOL_WORKERS)
    pool_out, pool_wall, _ = run_pass(w, items, POOL_WORKERS, workdir / "pool")
    single_out, single_wall, _ = run_pass(w, items, 1, workdir / "single")
    rec = tracing.Recorder()
    with tracing.traced(rec):
        traced_out, traced_wall, _ = run_pass(w, items, 1, workdir / "traced")
    judged = {label: w.judge(outputs) for label, outputs in
              (("pool", pool_out), ("single", single_out), ("traced", traced_out))}
    problems = [f"{label} pass: {p}" for label, out in judged.items()
                for p in out.problems]
    metrics = tracing.layer_metrics(rec, {
        "traced_wall": traced_wall, "untraced_wall_1": single_wall,
        "untraced_wall_pool": pool_wall, "workers": POOL_WORKERS})
    spans = RUNS / f"spans-{w.name}-seed{args.seed}.json"
    rec.write(spans)
    record = {"items": items, "spans_file": spans.name,
              "known_misses": judged["traced"].known_misses,
              "walls": {"pool": pool_wall, "single": single_wall,
                        "traced": traced_wall}}
    return metrics, judged["traced"], problems, record


def run_all(args) -> int:
    """Run every workload in its own process; print all results on one line."""
    results, code = {}, 0
    for name in wl.WORKLOADS:
        cmd = [sys.executable, str(RUN_SCRIPT), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        try:
            results[name] = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            results[name] = None
        if proc.returncode != 0 or results[name] is None:
            code = 1
    print(json.dumps(results), flush=True)
    return code


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    w = wl.WORKLOADS[args.workload]
    RUNS.mkdir(exist_ok=True)
    if args.setup_only:
        return setup_only(args, w)

    workdir = Path(tempfile.mkdtemp(prefix=f"{w.name}-", dir=RUNS))
    try:
        measure = traced_layers if args.trace else end_to_end
        metrics, out, problems, record = measure(args, w, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    missing = [k for k, (v, _) in metrics.items()
               if v is None or not math.isfinite(v)]
    problems += [f"metric {k} has no finite value" for k in missing]
    result = {
        "correct": not problems,
        "attempted": out.units,
        "failed": out.failed_units,
        "metrics": {k: {"value": None if k in missing else float(v), "unit": unit}
                    for k, (v, unit) in metrics.items()},
    }
    record.update(workload=w.name, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, environment=environment(),
                  problems=problems, result=result)
    path = RUNS / f"{w.name}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, default=str) + "\n")

    print(f"{w.name} seed {args.seed} trace {args.trace}", file=sys.stderr)
    for p in problems:
        print(f"CHECK FAILED: {p}", file=sys.stderr)
    for m in out.known_misses:
        print(f"known classifier defect: {m}", file=sys.stderr)
    for k, m in result["metrics"].items():
        print(f"{k:40s} {m['value']!s:>24} {m['unit']}", file=sys.stderr)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1
