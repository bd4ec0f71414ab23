"""The apavoid benchmark: four workloads through the public API and CLI, every verdict checked.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload check --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25

Workloads (each a closed loop from one process and one thread, one task at a
time, the next task starting when the previous verdict returns):
  check   odd-difference scans of the four constructions and max_exponent calls;
          kernels and scanners only, the engines do nothing
  search  exact and capped word searches, plain and canonical, and bounded
          confirmations; the kernel runs incrementally (clean_after_append)
  grid    verify_grid on product grids and grid_search at frozen outcomes;
          thousands of short kernel calls, so per-call overhead dominates
  cli     one ``python -m apavoid`` process per task; start-up, import and
          argparse, which the in-process workloads never see

With ``--trace 0`` the run reports setup_s, tasks_per_s, task_p50_s,
task_p90_s and peak_rss_mb, with every time scaled to a reference speed (see
``speed``); the error rate is ``failed / attempted`` in the last line. With
``--trace 1`` it alternates untraced and traced passes over a fixed task list
and reports per-layer counts, ratios and shares of time (see ``tracing``),
plus the tracing overhead. Either way every verdict goes through the
correctness gate after the timed region, and a mismatch makes the exit code 1.
The last line of stdout is one JSON object; the full report, with the run
labels and raw wall times, goes to ``.bench_out/``.

The benchmark uses whatever backend the checkout imports, and records it.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("check", "search", "grid", "cli")
MIN_TASKS = 100          # so that p90 has at least ten samples beyond it
SETUP_PROBES = 7         # fresh-interpreter set-ups per run; setup_s is their median
TASK_TIMEOUT_S = 60.0    # an in-process task slower than this counts as failed
MAX_RUN_S = 120.0        # stop adding tasks here even below MIN_TASKS, to exit in time

clock = time.perf_counter


class Raised:
    def __init__(self, exc: BaseException):
        self.message = f"raised {type(exc).__name__}: {exc}"


def percentile(samples, q: float) -> tuple[float, int]:
    """Nearest-rank q-quantile and the number of samples above its rank."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(len(ordered) * q))
    return ordered[rank - 1], len(ordered) - rank


def git_sha(root: Path) -> str:
    try:
        out = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def load_package(root: Path):
    """Import apavoid from this checkout's src/, never from anywhere else."""
    src = root / "src"
    tests = root / "tests"
    if not (src / "apavoid" / "__init__.py").is_file() or not (tests / "oracles.py").is_file():
        raise SystemExit(f"error: {root} holds no src/apavoid package and tests/oracles.py")
    for path in (str(tests), str(src)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import apavoid

    if src.resolve() not in Path(apavoid.__file__).resolve().parents:
        raise SystemExit(f"error: imported apavoid from {apavoid.__file__}, not from {src}")
    return apavoid


def setup_samples(root: Path, workload: str, seed: int, tiny: bool, count: int) -> list[dict]:
    import workloads

    argv = [sys.executable, str(HERE / "setup_probe.py"), str(root), workload, str(seed)]
    if tiny:
        argv.append("tiny")
    samples = []
    for _ in range(count):
        out = subprocess.run(argv, capture_output=True, text=True, env=workloads.child_env(root),
                             timeout=120, check=True)
        samples.append(json.loads(out.stdout.splitlines()[-1]))
    return samples


def execute(ctx, task):
    import workloads

    try:
        return workloads.execute(ctx, task)
    except Exception as exc:  # a task that raises is a failed verdict, not a failed run
        return Raised(exc)


def timed_loop(ctx, pool, seconds: float, min_tasks: int):
    """Closed loop over the pool until both the seconds and the task count are reached.

    Returns (executed, refs): (pool index, result, seconds) per task, and the
    reference times taken before each task and after the last.
    """
    executed = []
    refs = [speed.reference_time()]
    start = clock()
    i = 0
    while True:
        task_index = i % len(pool)
        t0 = clock()
        result = execute(ctx, pool[task_index])
        t1 = clock()
        refs.append(speed.reference_time())
        executed.append((task_index, result, t1 - t0))
        i += 1
        elapsed = t1 - start
        if (elapsed >= seconds and i >= min_tasks) or elapsed >= MAX_RUN_S:
            return executed, refs


def traced_passes(ctx, tasks, seconds: float):
    """Alternate untraced and traced passes over the same tasks until the seconds are used.

    Returns (untraced walls, traced walls, per-pass layer totals, spans of the
    last traced pass, executed results, names that could not be wrapped).
    """
    import tracing

    walls_u, walls_t, totals, executed = [], [], [], []
    absent: set[str] = set()
    spans = []
    start = clock()
    while True:
        t0 = clock()
        for task_index, task in enumerate(tasks):
            executed.append((task_index, execute(ctx, task), 0.0))
        walls_u.append(clock() - t0)

        tracer = tracing.Tracer()
        undo, missing = tracing.install(tracer)
        absent.update(missing)
        ctx.tracer = tracer
        try:
            t0 = clock()
            for task_index, task in enumerate(tasks):
                tracer.task = task_index
                span = tracer.open(tracing.TASK)
                try:
                    result = execute(ctx, task)
                finally:
                    tracer.close(span)
                executed.append((task_index, result, 0.0))
            walls_t.append(clock() - t0)
        finally:
            ctx.tracer = None
            tracing.uninstall(undo)
        totals.append(tracing.layer_totals(tracer.spans))
        spans = tracer.spans
        if clock() - start >= seconds:
            break
    absent.update(ctx.cache.get("absent", ()))
    return walls_u, walls_t, totals, spans, executed, absent


def verdict_error(ctx, task, result, seconds: float) -> str | None:
    import workloads

    if isinstance(result, Raised):
        return result.message
    if seconds > TASK_TIMEOUT_S:
        return f"timed out after {seconds:.1f} s"
    try:
        return workloads.check(ctx, task, result)
    except Exception as exc:  # a verdict the check cannot even read is wrong
        return f"check raised {type(exc).__name__}: {exc}"


def run_gate(ctx, pool, executed, extra) -> tuple[int, int, list[str]]:
    """(attempted, failed, first messages): timed verdicts plus the untimed extra ones."""
    errors = []
    for task_index, result, seconds in executed:
        err = verdict_error(ctx, pool[task_index], result, seconds)
        if err is not None:
            errors.append(f"task {task_index} ({pool[task_index].kind}): {err}")
    for task in extra:
        err = verdict_error(ctx, task, execute(ctx, task), 0.0)
        if err is not None:
            errors.append(f"extra {task.kind}: {err}")
    return len(executed) + len(extra), len(errors), errors[:20]


def end_to_end(report, ctx, workload, pool, samples, seconds, min_tasks):
    """The untraced run: end-to-end metrics, scaled to the reference speed."""
    executed, refs = timed_loop(ctx, pool, seconds, min_tasks)
    if workload == "cli":
        peak_kb = max((r.maxrss_kb for _, r, _ in executed if hasattr(r, "maxrss_kb")), default=0)
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    raw = [s for _, _, s in executed]
    times = speed.scaled(raw, refs)
    done = [t for t, (_, r, _) in zip(times, executed) if not isinstance(r, Raised)]
    p50, beyond50 = percentile(times, 0.5)
    p90, beyond90 = percentile(times, 0.9)
    setup = [(s["import_s"] + s["build_s"]) * speed.REF_S / s["ref_s"] for s in samples]
    report["labels"].update({"tasks": len(executed), "percentile_samples": len(times),
                             "samples_beyond_p50": beyond50, "samples_beyond_p90": beyond90,
                             "setup_samples": len(setup)})
    report["raw"] = {"task_s": raw, "reference_s": refs, "setup": samples,
                     "tasks_per_s": len(done) / sum(raw), "task_p50_s": percentile(raw, 0.5)[0],
                     "task_p90_s": percentile(raw, 0.9)[0]}
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "tasks_per_s": (len(done) / sum(times), "1/s"),
        "task_p50_s": (p50, "s"),
        "task_p90_s": (p90, "s"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
    }
    return metrics, executed


def per_layer(report, ctx, workload, pool, build_s, seconds):
    """The traced run: per-layer metrics, medians over the traced passes."""
    import tracing
    import workloads

    tasks = pool[:min(workloads.TRACE_TASKS[workload], len(pool))]
    walls_u, walls_t, totals, spans, executed, absent = traced_passes(ctx, tasks, seconds)
    rows_per_pass = [tracing.per_layer_metrics(t, w) for t, w in zip(totals, walls_t)]
    metrics = {}
    counts_repeat = True
    for i, (name, unit, _, needs) in enumerate(rows_per_pass[0]):
        if absent.intersection(needs):
            continue
        values = [rows[i][2] for rows in rows_per_pass]
        if unit == "count":
            counts_repeat &= len(set(values)) == 1
        metrics[name] = (statistics.median_low(values), unit)
    traced_wall = statistics.median(walls_t)
    untraced_wall = statistics.median(walls_u)
    metrics.update({
        "words.build_s": (build_s, "s"),
        "words.symbols": (workloads.input_symbols(pool), "count"),
        "trace.wall_s": (traced_wall, "s"),
        "trace.untraced_wall_s": (untraced_wall, "s"),
        "trace.overhead_s": (traced_wall - untraced_wall, "s"),
    })
    last = totals[-1]
    report["labels"].update({"tasks": len(tasks), "passes": len(walls_t)})
    report.update({"counts_repeat": counts_repeat, "absent": sorted(absent), "layers": last,
                   "self_s_sum": sum(entry["self_s"] for entry in last.values()),
                   "last_traced_wall_s": walls_t[-1]})
    spans_path = ctx.out_dir / f"{report['workload']}-seed{report['seed']}-spans.json"
    with open(spans_path, "w", encoding="ascii") as fh:
        json.dump([span.to_list() for span in spans], fh)
    return metrics, executed


def measure(workload: str, seed: int, seconds: float, trace: bool, root: Path = ROOT, *,
            tiny: bool = False, min_tasks: int = MIN_TASKS, probes: int = SETUP_PROBES) -> dict:
    """One run of one workload; returns the full report (see ``main`` for the printed part)."""
    ap = load_package(root)
    samples = [] if trace else setup_samples(root, workload, seed, tiny, probes)
    import workloads

    ctx = workloads.Context.create(ap, root)
    t0 = clock()
    pool, extra = workloads.build(ctx, workload, seed, tiny)
    build_s = clock() - t0
    report = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "labels": {"git_sha": git_sha(root), "backend": getattr(ap, "BACKEND", "unknown"),
                   "python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
                   "seed": seed, "pool_tasks": len(pool)},
    }
    if trace:
        metrics, executed = per_layer(report, ctx, workload, pool, build_s, seconds)
    else:
        metrics, executed = end_to_end(report, ctx, workload, pool, samples, seconds, min_tasks)
    attempted, failed, errors = run_gate(ctx, pool, executed, extra)
    report.update({"attempted": attempted, "failed": failed, "errors": errors,
                   "error_rate": failed / attempted,
                   "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}})
    with open(ctx.out_dir / f"{workload}-seed{seed}-trace{int(trace)}.json", "w",
              encoding="ascii") as fh:
        json.dump(report, fh, indent=1, default=str)
    return report


def print_report(report: dict) -> None:
    labels = report["labels"]
    print(" ".join(f"{k}={v}" for k, v in labels.items()))
    for name, m in report["metrics"].items():
        print(f"  {name:48s} {m['value']:.6g} {m['unit']}")
    print(f"  {'error_rate':48s} {report['error_rate']:.6g} ({report['failed']}/{report['attempted']})")
    if report.get("absent"):
        print(f"  absent layers (their metrics are left out): {', '.join(report['absent'])}")
    if "layers" in report:
        print("  layer self time in the last traced pass:")
        for name, entry in sorted(report["layers"].items(), key=lambda kv: -kv[1]["self_s"]):
            print(f"    {name:40s} calls={entry['calls']:<9d} self_s={entry['self_s']:.4f}")
        overhead = report["metrics"]["trace.overhead_s"]["value"]
        untraced = report["metrics"]["trace.untraced_wall_s"]["value"]
        print(f"  self times sum to {report['self_s_sum']:.4f} s of a {report['last_traced_wall_s']:.4f} s"
              f" traced pass; untraced pass {untraced:.4f} s, tracing overhead {overhead:.4f} s")
    for err in report["errors"]:
        print(f"  MISMATCH {err}", file=sys.stderr)


def result_line(report: dict) -> str:
    return json.dumps({"correct": report["failed"] == 0, "attempted": report["attempted"],
                       "failed": report["failed"], "metrics": report["metrics"]})


def run_all(args) -> int:
    """Each workload in a fresh process; prints every line and one combined result."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        out = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                              "--seed", str(args.seed), "--seconds", str(args.seconds),
                              "--trace", str(args.trace)], capture_output=True, text=True)
        lines = out.stdout.splitlines()
        print(f"[{workload}]")
        print("\n".join(lines[:-1]))
        sys.stderr.write(out.stderr)
        if out.returncode not in (0, 1) or not lines:
            print(f"error: workload {workload} exited {out.returncode}", file=sys.stderr)
            return 2
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = m
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "apavoid" / "__init__.py").is_file():
        print(f"error: no apavoid sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    report = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print_report(report)
    print(result_line(report))
    return 0 if report["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
