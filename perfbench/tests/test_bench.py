"""Tests of the benchmark itself: inputs, oracle, tracer and record.

    python3 -m pytest perfbench/tests -q
"""

import json
from collections import Counter
from pathlib import Path

import pytest

import kronmot
import kronmot.cli  # every module the tracer patches, imported up front
import oracle
import run
import worker
import workloads
from speed import SpeedProbe
from tracer import SPANS, Tracer

ROOT = Path(__file__).resolve().parents[2]


# -- task lists -----------------------------------------------------------------

@pytest.mark.parametrize("workload", workloads.LIBRARY)
def test_library_tasks_follow_the_seed(workload):
    a = workloads.library_tasks(workload, 1, 20)
    assert a == workloads.library_tasks(workload, 1, 20)
    assert a != workloads.library_tasks(workload, 2, 20)
    assert len(set(a)) == len(a)


def test_hn_sweep_sizes_do_not_depend_on_the_seed():
    def sizes(seed):
        return Counter((m, d + e) for m, d, e in workloads.library_tasks("hn-sweep", seed, 20))

    assert sizes(1) == sizes(2)
    assert max(sizes(1).values()) == 1  # every task builds its own table


def test_cli_session_follows_the_seed():
    a = workloads.cli_requests(1, 20)
    assert a == workloads.cli_requests(1, 20)
    assert a != workloads.cli_requests(2, 20)


def test_cli_session_classifies_first_and_repeat_requests():
    session = workloads.cli_requests(5, 20)
    seen = set()
    for req, is_repeat in session:
        assert is_repeat == (req in seen)
        seen.add(req)
    issues = Counter(req for req, _ in session)
    assert set(issues.values()) == {2}
    assert sum(rep for _, rep in session) == len(issues)


def test_tail_quantile_has_ten_samples_above():
    assert run.tail_quantile(30) == pytest.approx(20 / 30)
    assert run.tail_quantile(5) == pytest.approx(1 / 5)


def test_quantile_estimates():
    xs = [float(x) for x in range(1, 102)]
    assert run.quantile(xs, 0.5) == pytest.approx(51.0)
    assert run.quantile([3.0] * 7, 0.9) == pytest.approx(3.0)
    assert 70 < run.quantile(xs, 0.75) < 80


def test_scaled_times_use_the_reference_during_or_near_a_task():
    import speed

    n = speed.TICK_NOMINAL_S
    # nominal speed until t=10, half speed after
    samples = [(i * 0.1, n) for i in range(100)] + \
        [(10 + i * 0.1, 2 * n) for i in range(100)]
    long_task, short_task = speed.scaled(samples, n, [(11.0, 5.0), (1.01, 0.05)])
    inside = sum(1 for t, _ in samples if 11.0 <= t <= 16.0)
    assert long_task == pytest.approx((5.0 - inside * 2 * n) / 2)
    assert short_task == pytest.approx(0.05)


# -- oracle -----------------------------------------------------------------------

def _hn_tasks():
    return workloads.library_tasks("hn-sweep", 3, 1.0)


def test_a_wrong_result_is_counted_not_fatal(monkeypatch):
    tasks = _hn_tasks()
    real = worker._call

    def faulty(km, workload, params):
        if params == tasks[0]:
            return real(km, workload, params) + 1
        if params == tasks[1]:
            raise ValueError("boom")
        return real(km, workload, params)

    monkeypatch.setattr(worker, "_call", faulty)
    times, _, failures, _ = worker.run_library(
        kronmot, "hn-sweep", tasks, float("inf"), None, SpeedProbe())
    assert len(failures) == 2
    assert len(times) == len(tasks) - 1
    assert "boom" in " ".join(failures)


def test_correct_results_pass():
    times, repeats, failures, _ = worker.run_library(
        kronmot, "hn-sweep", _hn_tasks(), float("inf"), None, SpeedProbe())
    assert failures == [] and len(repeats) == len(times)


def test_framed_series_checked_against_the_same_digests():
    F = kronmot.framed_recursion(4, 5)
    assert oracle.check_framed_series(kronmot, 4, 5, F) == []
    assert oracle.check_framed_series(kronmot, 4, 5, kronmot.solve_functional_eq(4, 5)) == []
    wrong = kronmot.TruncSeries(list(F.coeffs[:5]) + [F.coeffs[5] * 2], 5)
    assert oracle.check_framed_series(kronmot, 4, 5, wrong)


def test_cli_oracle_reports_wrong_exit_and_output():
    req = workloads._moduli(3, 2, 3)
    motive = kronmot.moduli_motive(3, 2, 3).to_json()
    good = json.dumps({"result": {"motive": motive}})
    assert oracle.check_cli(req, 0, good) == []
    assert oracle.check_cli(req, 3, good)
    assert oracle.check_cli(req, 0, "Traceback ...")
    motive["coeffs"][0] = "2"
    assert oracle.check_cli(req, 0, json.dumps({"result": {"motive": motive}}))


# -- tracer -----------------------------------------------------------------------

def _bindings():
    import importlib

    out = {}
    for mod in ("kronmot",) + tuple(f"kronmot.{m}" for m in
                                     ("exactalg", "qseries", "wallcross", "central",
                                      "cache", "eulerchar", "tamari", "cli")):
        module = importlib.import_module(mod)
        for key, value in vars(module).items():
            out[(mod, key)] = value
            if isinstance(value, type) and value.__module__.startswith("kronmot"):
                for attr, member in vars(value).items():
                    out[(mod, key, attr)] = member
    return out


def test_uninstall_restores_every_binding():
    before = _bindings()
    tracer = Tracer()
    tracer.install()
    try:
        assert kronmot.LaurentPoly.__init__ is not before[("kronmot", "LaurentPoly", "__init__")]
        assert kronmot.LaurentPoly.__rmul__ is kronmot.LaurentPoly.__mul__
        assert kronmot.central.delta_invert is kronmot.qseries.delta_invert
    finally:
        tracer.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_self_times_add_up_to_the_task():
    tracer = Tracer()
    tracer.install()
    try:
        kronmot.central.framed_recursion(3, 2)  # outside a task: not recorded
        assert tracer.records == {}
        with tracer.task():
            kronmot.central.solve_functional_eq(3, 3)
    finally:
        tracer.uninstall()
    snap = tracer.snapshot()
    total = sum(s[3] for s in snap["spans"] if s[1] == "-")
    self_sum = sum(s[4] for s in snap["spans"]) + snap["bookkeeping_s"]
    assert self_sum == pytest.approx(total, rel=1e-9)
    names = {s[0] for s in snap["spans"]}
    assert {"central.solve_functional_eq", "qseries.series_inverse",
            "exactalg.ratfunc_new"} <= names


def test_traced_counts_repeat_exactly():
    def counts():
        tracer = Tracer()
        tracer.install()
        try:
            with tracer.task():
                kronmot.wallcross.MotiveTable(3, 7).motive((3, 4))
        finally:
            tracer.uninstall()
        return tracer.counts, {(s[0], s[1]): s[2] for s in tracer.snapshot()["spans"]}

    assert counts() == counts()


def test_spans_name_known_layers():
    assert {layer for layer, *_ in SPANS} <= set(run.LAYERS)


# -- the record --------------------------------------------------------------------

def test_benchmark_json_matches_the_code():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in bench["end_to_end"]] \
        == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == run.PER_LAYER
