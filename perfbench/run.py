"""The kronmot benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Runs one workload (hn-sweep, framed-recursion, funceq or cli-session; see
workloads.py) in a fresh worker process, checks every result (oracle.py),
and prints one line per metric followed by a JSON object on the last line of
stdout: ``{"correct", "attempted", "failed", "metrics"}``.

With ``--trace 0`` the metrics are the end-to-end ones, timed with nothing
patched.  Task times are in nominal-speed seconds (speed.py) and medians and
the tail are Harrell-Davis estimates; the raw median is printed beside them.
With ``--trace 1`` the metrics are the per-layer ones from a traced run
(tracer.py), and the span records per (function, parent layer) are also
written to ``.bench_out/trace-<workload>-seed<N>.json``.

Run it from the repository root.  It exits with code 2, printing no result,
if the program cannot be set up or run.  Its own tests:
``python3 -m pytest perfbench/tests``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import threading
from math import exp, log
from pathlib import Path
from statistics import median
from time import perf_counter

from speed import scaled
from tracer import merge_counts
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
SETUP_SAMPLES = 13
WORKER_LIMIT_S = 170

# (name, unit, better, bound): bound is the share of the parent's median by
# which a metric may worsen before a change counts as a regression.
END_TO_END = [
    ("tasks_per_s", "1/s", "higher", 0.2),
    ("task_p50_ms", "ms", "lower", 0.2),
    ("task_tail_ms", "ms", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("first_p50_ms", "ms", "lower", 0.2),
    ("repeat_p50_ms", "ms", "lower", 0.25),
]

LAYERS = ("exactalg", "qseries", "wallcross", "central", "cache", "cli",
          "eulerchar", "tamari", "bench")

PER_LAYER = [(f"{layer}.self_s", "s") for layer in LAYERS] + [
    ("exactalg.poly_new.calls", "count"),
    ("exactalg.poly_new.coeffs", "count"),
    ("exactalg.poly_new.self_s", "s"),
    ("exactalg.poly_mul.calls", "count"),
    ("exactalg.poly_mul.coeff_pairs", "count"),
    ("exactalg.poly_mul.max_bits", "bit"),
    ("exactalg.poly_mul.self_s", "s"),
    ("exactalg.poly_addsub.calls", "count"),
    ("exactalg.poly_addsub.self_s", "s"),
    ("exactalg.poly_divexact.calls", "count"),
    ("exactalg.poly_divexact.self_s", "s"),
    ("exactalg.ratfunc_new.calls", "count"),
    ("exactalg.ratfunc_new.self_s", "s"),
    ("exactalg.ratfunc_new.laurent_ratio", "ratio"),
    ("exactalg.ratfunc_arith.calls", "count"),
    ("exactalg.ratfunc_arith.self_s", "s"),
    ("exactalg.mul_dense_n64_ms", "ms"),
    ("exactalg.mul_dense_n512_ms", "ms"),
    ("exactalg.mul_dense_n4096_ms", "ms"),
    ("exactalg.ratfunc_norm_ms", "ms"),
    ("qseries.series_mul.calls", "count"),
    ("qseries.series_mul.self_s", "s"),
    ("qseries.series_inverse.calls", "count"),
    ("qseries.series_inverse.self_s", "s"),
    ("qseries.scale_arg.calls", "count"),
    ("qseries.delta_invert.calls", "count"),
    ("qseries.inverse_ms", "ms"),
    ("wallcross.table_build.calls", "count"),
    ("wallcross.table_build.self_s", "s"),
    ("wallcross.motive.calls", "count"),
    ("wallcross.motive.self_s", "s"),
    ("wallcross.rays", "count"),
    ("wallcross.max_degree", "count"),
    ("wallcross.max_coeff_bits", "bit"),
    ("central.framed_recursion.self_s", "s"),
    ("central.compositions", "count"),
    ("central.solve_functional_eq.self_s", "s"),
    ("central.inverses_per_task", "count"),
    ("cache.get.calls", "count"),
    ("cache.get.self_s", "s"),
    ("cache.put.calls", "count"),
    ("cache.put.self_s", "s"),
    ("cache.hits", "count"),
    ("cache.misses", "count"),
    ("cache.discarded", "count"),
    ("cache.hit_ratio", "ratio"),
    ("cache.bytes_read", "B"),
    ("cache.bytes_written", "B"),
    ("cli.import_s", "s"),
    ("cli.dispatch.self_s", "s"),
    ("cli.stdout_bytes", "B"),
    ("tamari.paths", "count"),
    ("trace.task_s", "s"),
    ("trace.bookkeeping_s", "s"),
    ("trace.self_sum_ratio", "ratio"),
    ("trace.overhead_ratio", "ratio"),
]


class BenchError(Exception):
    pass


def spawn(workload: str, seed: int, seconds: float, mode: str):
    """Run one worker; return (seconds until it was ready, its report)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--mode", mode]
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    watchdog = threading.Timer(WORKER_LIMIT_S, proc.kill)
    watchdog.start()
    ready, last = None, None
    try:
        for line in proc.stdout:
            if ready is None and line.strip() == "ready":
                ready = perf_counter() - t0
            else:
                last = line
        proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if proc.returncode != 0 or ready is None:
        raise BenchError(f"{mode} worker for {workload} exited {proc.returncode}")
    return ready, (json.loads(last) if mode != "setup" else None)


def quantile(samples: list[float], q: float) -> float:
    """Harrell-Davis estimate of the q-quantile.

    A weighted mean of all order statistics, with Beta((n+1)q, (n+1)(1-q))
    weights; its run-to-run spread is much smaller than that of the single
    order statistic a plain median picks, which matters when the tasks of a
    run have different sizes.
    """
    xs = sorted(samples)
    n = len(xs)
    a, b = (n + 1) * q, (n + 1) * (1 - q)
    steps = 64  # midpoint rule inside each of the n weight intervals
    logs = [(a - 1) * log(t) + (b - 1) * log(1 - t)
            for t in ((j + 0.5) / (n * steps) for j in range(n * steps))]
    top = max(logs)
    dens = [exp(x - top) for x in logs]
    weights = [sum(dens[i * steps:(i + 1) * steps]) for i in range(n)]
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def tail_quantile(n: int) -> float:
    """The highest quantile that still has at least 10 of n samples above it."""
    return max(1, n - 10) / n


def end_to_end(report: dict, setups: list[float]):
    """The end-to-end metrics; task times in nominal-speed time (speed.py).

    Set-up time stays raw: it is mostly process start-up and imports, which
    the CPU-bound reference does not track (scaling made it noisier).
    """
    speed = report["speed_samples"], report["speed_nominal_s"]
    times = scaled(*speed, report["times"])
    firsts = scaled(*speed, report["first_times"])
    repeats = scaled(*speed, report["repeat_times"])
    if not times or not firsts or not repeats:
        raise BenchError("no task completed")
    ok = report["attempted"] - len(report["failures"])
    tail_q = tail_quantile(len(times))
    metrics = {
        "tasks_per_s": ok / sum(times),
        "task_p50_ms": quantile(times, 0.5) * 1e3,
        "task_tail_ms": quantile(times, tail_q) * 1e3,
        "setup_s": quantile(setups, 0.5),
        "peak_rss_mb": report["rss_mb"],
        "first_p50_ms": quantile(firsts, 0.5) * 1e3,
        "repeat_p50_ms": quantile(repeats, 0.5) * 1e3,
    }
    raw = [seconds for _, seconds in report["times"]]
    notes = {
        "failed_ratio": len(report["failures"]) / report["attempted"],
        "tail_percentile": 100 * tail_q,
        "samples": len(times),
        "first_samples": len(firsts),
        "repeat_samples": len(repeats),
        "speed_scale": sum(times) / sum(raw),
        "raw_task_p50_ms": median(raw) * 1e3,
        "setup_samples_s": setups,
    }
    return metrics, notes


def _fold(spans: dict, name: str, parent: str, calls: int, total: float, self_s: float):
    rec = spans.setdefault((name, parent), [0, 0.0, 0.0])
    rec[0] += calls
    rec[1] += total
    rec[2] += self_s


def per_layer(traced: dict, untraced: dict) -> tuple[dict, dict]:
    """Aggregate span records into the per-layer metrics."""
    spans: dict = {}
    counts: dict = {}
    bookkeeping = import_s = stdout_bytes = 0.0
    if "cli_traces" in traced:
        for req in traced["cli_traces"]:
            stdout_bytes += req["stdout_bytes"]
            tr = req["trace"] or {"spans": [], "counts": {}, "bookkeeping_s": 0.0,
                                  "import_s": 0.0}
            covered = tr["import_s"]
            for name, parent, calls, total, self_s in tr["spans"]:
                _fold(spans, name, parent, calls, total, self_s)
                if parent == "-":
                    covered += total
            _fold(spans, "cli.import", "-", 1, tr["import_s"], tr["import_s"])
            merge_counts(counts, tr["counts"])
            bookkeeping += tr["bookkeeping_s"]
            import_s += tr["import_s"]
            # process start-up and exit, outside every span in the child
            _fold(spans, "bench.task", "-", 1, req["wall_s"], req["wall_s"] - covered)
    else:
        for name, parent, calls, total, self_s in traced["trace"]["spans"]:
            _fold(spans, name, parent, calls, total, self_s)
        counts = dict(traced["trace"]["counts"])
        bookkeeping = traced["trace"]["bookkeeping_s"]

    def calls(name):
        return sum(rec[0] for (n, _), rec in spans.items() if n == name)

    def self_time(prefix):
        return sum(rec[2] for (n, _), rec in spans.items()
                   if n == prefix or n.startswith(prefix + "."))

    m = {f"{layer}.self_s": self_time(layer) for layer in LAYERS}
    for name, unit in PER_LAYER:
        if name in m:
            continue
        if name.endswith(".calls"):
            m[name] = calls(name[:-len(".calls")])
        elif name.endswith(".self_s"):
            m[name] = self_time(name[:-len(".self_s")])
        elif name in counts:
            m[name] = counts[name]
    tasks = len(traced["times"])
    task_s = sum(seconds for _, seconds in traced["times"])
    # raw times: the two runs time the speed reference in different ways
    overhead = task_s / sum(seconds for _, seconds in untraced["times"])
    lookups = sum(counts.get(f"cache.{k}", 0) for k in ("hits", "misses", "discarded"))
    m.update({
        "exactalg.ratfunc_new.laurent_ratio":
            counts.get("exactalg.ratfunc_new.laurent", 0)
            / max(1, calls("exactalg.ratfunc_new")),
        "central.inverses_per_task": calls("qseries.series_inverse") / max(1, tasks),
        "cache.hit_ratio": counts.get("cache.hits", 0) / max(1, lookups),
        "cli.import_s": import_s,
        "cli.stdout_bytes": stdout_bytes,
        "trace.task_s": task_s,
        "trace.bookkeeping_s": bookkeeping,
        "trace.self_sum_ratio": (sum(r[2] for r in spans.values()) + bookkeeping) / task_s,
        "trace.overhead_ratio": overhead,
        **traced["micro"],
    })
    for name, _ in PER_LAYER:
        m.setdefault(name, 0)
    detail = [[n, p, *rec] for (n, p), rec in sorted(spans.items())]
    return m, {"spans": detail, "counts": counts}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    w, seed, secs = args.workload, args.seed, args.seconds
    try:
        if args.trace:
            _, untraced = spawn(w, seed, secs, "run")
            _, traced = spawn(w, seed, secs, "trace")
            metrics, detail = per_layer(traced, untraced)
            units = dict(PER_LAYER)
            failures = traced["failures"] + untraced["failures"]
            attempted = traced["attempted"] + untraced["attempted"]
            OUT.mkdir(exist_ok=True)
            (OUT / f"trace-{w}-seed{seed}.json").write_text(json.dumps(detail, indent=1))
        else:
            # set-up samples before and after the tasks, to see more of the
            # machine's changing load
            setups = [spawn(w, seed, secs, "setup")[0] for _ in range(SETUP_SAMPLES // 2)]
            _, report = spawn(w, seed, secs, "run")
            setups += [spawn(w, seed, secs, "setup")[0]
                       for _ in range(SETUP_SAMPLES - SETUP_SAMPLES // 2)]
            metrics, notes = end_to_end(report, setups)
            units = {name: unit for name, unit, _, _ in END_TO_END}
            failures, attempted = report["failures"], report["attempted"]
            for key, value in notes.items():
                print(f"{w} {key} = {value}")
    except (BenchError, KeyError, ValueError, ZeroDivisionError) as exc:
        print(f"benchmark could not run: {exc!r}", file=sys.stderr)
        return 2
    for line in failures[:20]:
        print(f"FAILED {line}", file=sys.stderr)
    for name, value in metrics.items():
        print(f"{w} {name} = {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
