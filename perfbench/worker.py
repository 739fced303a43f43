"""One benchmark process: set up, run one workload's task list, report.

    python3 perfbench/worker.py --workload W --seed N --seconds S --mode M

Modes: ``setup`` stops once the first task is ready; ``run`` times the
tasks with nothing patched; ``trace`` runs them under ``tracer.Tracer`` and
then times the layer micro-cases.  The worker prints ``ready`` when set-up
is done and one JSON object as its last line.  It imports kronmot from the
checkout's ``src`` and exits with a non-zero code if that is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import shutil
import signal
import subprocess
import sys
from pathlib import Path
from statistics import median
from time import perf_counter

import oracle
import workloads
from speed import SpeedProbe
from tracer import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TMP = ROOT / ".bench_tmp"
TASK_TIMEOUT_S = 60


class TaskTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise TaskTimeout()


def import_kronmot():
    if not (SRC / "kronmot" / "__init__.py").is_file():
        raise SystemExit(f"no kronmot package under {SRC}")
    sys.path.insert(0, str(SRC))
    import kronmot

    if not Path(kronmot.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"kronmot imported from {kronmot.__file__}, not {SRC}")
    return kronmot


# -- library workloads ---------------------------------------------------------

def _call(kronmot, workload: str, params):
    if workload == "hn-sweep":
        return kronmot.wallcross.moduli_motive(*params)
    if workload == "framed-recursion":
        return kronmot.central.framed_recursion(*params)
    return kronmot.central.solve_functional_eq(*params)


def _check(kronmot, workload: str, params, result) -> list[str]:
    if workload == "hn-sweep":
        return oracle.check_hn_task(kronmot, *params, result)
    return oracle.check_framed_series(kronmot, *params, result)


def _issue(kronmot, workload: str, params, tracer):
    """Time one task and, untraced, its identical repeat; then check it.

    Returns (timing, repeat timing, problems); a timing is (start, seconds).
    """
    signal.setitimer(signal.ITIMER_REAL, TASK_TIMEOUT_S)
    try:
        t0 = perf_counter()
        if tracer is None:
            result = _call(kronmot, workload, params)
        else:
            with tracer.task():
                result = _call(kronmot, workload, params)
        timing = (t0, perf_counter() - t0)
        again, repeat = result, None
        if tracer is None:
            t0 = perf_counter()
            again = _call(kronmot, workload, params)
            repeat = (t0, perf_counter() - t0)
    except TaskTimeout:
        return None, None, [f"timed out after {TASK_TIMEOUT_S} s"]
    except Exception as exc:  # a failing task is counted, the run goes on
        return None, None, [f"raised {exc!r}"]
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    try:
        bad = _check(kronmot, workload, params, result)
        if again != result:
            bad.append("repeated call returned a different result")
    except Exception as exc:
        bad = [f"check raised {exc!r}"]
    return timing, repeat, bad


def run_library(kronmot, workload, tasks, deadline, tracer, probe):
    """Issue the tasks one at a time, in list order."""
    times, repeats, failures = [], [], []
    signal.signal(signal.SIGALRM, _alarm)
    # The reference is timed from a profiling timer all through an untraced
    # run.  Traced runs time it between tasks instead, since chunks inside a
    # task would land in its spans; the two kinds are never mixed in one run,
    # because a chunk timed between tasks runs with warmer caches.
    if tracer is None:
        probe.start_ticks()
    try:
        for params in tasks:
            if tracer is not None:
                probe.maybe_sample()
            if perf_counter() > deadline:
                failures.append(f"{params}: not issued before the run deadline")
                continue
            timing, repeat, bad = _issue(kronmot, workload, params, tracer)
            times += [timing] if timing else []
            repeats += [repeat] if repeat else []
            failures += [f"{params}: {b}" for b in bad[:1]]
    finally:
        probe.stop_ticks()
    if tracer is not None:
        probe.sample()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return times, repeats, failures, rss_mb


# -- cli-session -----------------------------------------------------------------

def run_cli(session, deadline, traced: bool, workdir: Path, probe):
    cache_dir = workdir / "cache"
    env = _child_env()
    prefix = [sys.executable] + (
        [str(HERE / "tracecli.py")] if traced else ["-m", "kronmot.cli"])
    prefix += ["--format", "json", "--cache-dir", str(cache_dir)]
    times, firsts, repeats, failures, traces = [], [], [], [], []
    first_stdout: dict = {}
    for i, (req, is_repeat) in enumerate(session):
        probe.maybe_sample()
        if perf_counter() > deadline:
            failures.append(f"{' '.join(req.argv)}: not issued before the run deadline")
            continue
        trace_out = workdir / f"trace-{i}.json"
        env["PERFBENCH_TRACE_OUT"] = str(trace_out)
        t0 = perf_counter()
        proc = subprocess.Popen(prefix + list(req.argv), stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, env=env, cwd=ROOT, text=True)
        try:
            out, _ = proc.communicate(timeout=TASK_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            failures.append(f"{' '.join(req.argv)}: timed out")
            continue
        elapsed = perf_counter() - t0
        times.append((t0, elapsed))
        (repeats if is_repeat else firsts).append((t0, elapsed))
        bad = oracle.check_cli(req, proc.returncode, out)
        if is_repeat and out != first_stdout.get(req):
            bad.append(f"{' '.join(req.argv)}: repeat printed different stdout")
        first_stdout.setdefault(req, out)
        failures += bad[:1]
        if traced:
            trace = json.loads(trace_out.read_text()) if trace_out.exists() else None
            traces.append({"wall_s": elapsed, "stdout_bytes": len(out.encode()),
                           "trace": trace})
    probe.sample()
    # the largest child: ru_maxrss of RUSAGE_CHILDREN is the maximum over them
    rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    return times, firsts, repeats, failures, rss_mb, traces


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def cli_warmup(workdir: Path):
    subprocess.run([sys.executable, "-m", "kronmot.cli", "--help"], env=_child_env(),
                   cwd=ROOT, stdout=subprocess.DEVNULL, check=True, timeout=60)
    workdir.mkdir(parents=True, exist_ok=True)


# -- micro-cases -------------------------------------------------------------------

def _median_ms(fn, reps: int) -> float:
    samples = []
    for _ in range(reps):
        t0 = perf_counter()
        fn()
        samples.append(perf_counter() - t0)
    return median(samples) * 1e3


def micro_cases(kronmot, seed: int) -> dict:
    """Single-layer timings through public calls, with seeded inputs."""
    rng = random.Random(f"micro/{seed}")
    LP, RF = kronmot.LaurentPoly, kronmot.RatFunc

    def dense(n):
        return LP([rng.getrandbits(64) | 1 for _ in range(n)])

    def small(n):
        return [rng.randint(-9, 9) for _ in range(n - 1)] + [rng.randint(1, 9)]

    out = {}
    for n, reps in ((64, 300), (512, 30), (4096, 3)):
        a, b = dense(n), dense(n)
        out[f"exactalg.mul_dense_n{n}_ms"] = _median_ms(lambda: a * b, reps)
    # a common factor of degree 8 that normalisation must find and cancel
    common = LP([1, 1]) ** 8
    num, den = common * LP(small(13)), common * LP([1] + small(12))
    out["exactalg.ratfunc_norm_ms"] = _median_ms(lambda: RF(num, den), 30)
    # an integer Laurent series with unit constant term, as F and G are
    series = kronmot.TruncSeries([1] + [LP(small(2 * d + 1), -d) for d in range(1, 9)])
    out["qseries.inverse_ms"] = _median_ms(series.inverse, 5)
    return out


# -- main ---------------------------------------------------------------------------

def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    args = ap.parse_args()
    deadline = perf_counter() + 3.5 * args.seconds + 10
    workload = args.workload
    workdir = TMP / f"{workload}-{os.getpid()}"

    kronmot = import_kronmot()
    if workload == "cli-session":
        tasks = workloads.cli_requests(args.seed, args.seconds)
        cli_warmup(workdir)
    else:
        tasks = workloads.library_tasks(workload, args.seed, args.seconds)
        _call(kronmot, workload, workloads.WARMUP[workload])
    print("ready", flush=True)
    if args.mode == "setup":
        shutil.rmtree(workdir, ignore_errors=True)
        return 0

    traced = args.mode == "trace"
    report = {"attempted": len(tasks)}
    probe = SpeedProbe()
    try:
        if workload == "cli-session":
            times, firsts, repeats, failures, rss, traces = run_cli(
                tasks, deadline, traced, workdir, probe)
            report["cli_traces"] = traces
        else:
            tracer = Tracer() if traced else None
            if tracer is not None:
                tracer.install()
            try:
                times, repeats, failures, rss = run_library(
                    kronmot, workload, tasks, deadline, tracer, probe)
                firsts = times  # no library task is issued twice
            finally:
                if tracer is not None:
                    tracer.uninstall()
            if tracer is not None:
                report["trace"] = tracer.snapshot()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    report.update(times=times, first_times=firsts, repeat_times=repeats,
                  failures=failures, rss_mb=rss, speed_samples=probe.samples,
                  speed_nominal_s=probe.nominal_s)
    if traced:
        report["micro"] = micro_cases(kronmot, args.seed)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
