import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import kronmot
from kronmot import central, eulerchar, tamari, wallcross
from kronmot.cache import SCHEMA, Cache
from kronmot.errors import ExactDivisionError, ResourceLimitError
from kronmot.exactalg import LaurentPoly, RatFunc
from kronmot.qseries import TruncSeries

from cli_runner import invoke as run


class TestFramed:
    def test_plain(self):
        res = run("--no-cache", "framed", "--m", "3", "--d", "1")
        assert res.exit_code == 0
        assert res.output.splitlines()[-1] == "1,1,1"

    def test_json(self):
        res = run("--no-cache", "--format", "json",
                  "framed", "--m", "3", "--d", "2")
        assert res.exit_code == 0
        payload = json.loads(res.output)
        assert payload["schema"] == "kronmot/1"
        assert payload["command"] == "framed"
        assert payload["result"]["m"] == 3
        assert payload["result"]["motive"]["coeffs"][::2] == [
            "1", "2", "3", "3", "3", "2", "1",
        ]

    def test_all_methods_agree(self):
        res = run("--no-cache", "framed", "--m", "4", "--d", "2",
                  "--method", "all")
        assert res.exit_code == 0

    def test_all_exits_3_when_a_solver_disagrees(self, monkeypatch):
        real = central.solve_functional_eq

        def off_by_one(m, order):
            return real(m, order) + TruncSeries([0] * order + [1], order)

        monkeypatch.setattr(central, "solve_functional_eq", off_by_one)
        res = run("--no-cache", "framed", "--m", "3", "--d", "2",
                  "--method", "all")
        assert res.exit_code == 3
        assert res.stdout == ""
        assert "methods disagree" in res.stderr
        assert res.stderr == "methods disagree with recursion: funceq\n"

    def test_all_exits_3_when_a_cached_motive_disagrees(self, tmp_path):
        args = ("--cache-dir", str(tmp_path), "framed", "--m", "3", "--d", "2",
                "--method", "all")
        assert run(*args).exit_code == 0
        # the true motive with its middle coefficient 3 raised to 5: it
        # passes every certificate, so the entry is served, but it is wrong
        Cache(tmp_path).put(
            Cache.make_key("framed", m=3, d=2, method="wallcross"),
            {"min_exp": -6, "coeffs": ["1", "0", "2", "0", "3", "0", "5", "0", "3",
                                       "0", "2", "0", "1"]})
        res = run(*args)
        assert res.exit_code == 3
        assert res.stdout == ""
        assert "methods disagree" in res.stderr
        assert "wallcross" in res.stderr and "funceq" not in res.stderr

    def test_bad_m(self):
        res = run("--no-cache", "framed", "--m", "2", "--d", "1")
        assert res.exit_code == 2


class TestModuli:
    def test_plain(self):
        res = run("--no-cache", "moduli", "--m", "3", "--d", "3",
                  "--e", "2")
        assert res.exit_code == 0
        assert res.output.splitlines()[-1] == "1,1,3,3,3,1,1"

    def test_non_coprime_exits_2(self):
        res = run("--no-cache", "moduli", "--m", "3", "--d", "2",
                  "--e", "2")
        assert res.exit_code == 2
        assert "not coprime" in res.output

    def test_zero_vector_exits_2(self):
        res = run("--no-cache", "moduli", "--m", "3", "--d", "0",
                  "--e", "0")
        assert res.exit_code == 2


class TestHn:
    def test_plain_lists_rays(self):
        res = run("--no-cache", "hn", "--m", "3", "--bound", "2")
        assert res.exit_code == 0
        assert "(1,1) motive: 1,1,1" in res.output

    def test_json(self):
        res = run("--no-cache", "--format", "json",
                  "hn", "--m", "3", "--bound", "2")
        payload = json.loads(res.output)
        vectors = {(r["d"], r["e"]) for r in payload["result"]}
        assert (1, 1) in vectors and (2, 0) in vectors

    def test_inconsistent_fresh_record_exits_3(self, monkeypatch):
        # a fresh table that breaks the record's rule is an internal fault,
        # not invalid input; a cached one is discarded (TestCache)
        monkeypatch.setattr(wallcross.MotiveTable, "motive",
                            lambda self, vector: None)
        res = run("--no-cache", "hn", "--m", "3", "--bound", "2")
        assert res.exit_code == 3
        assert res.stdout == ""
        assert res.stderr == ("wallcross: (0,1): the motive is null iff "
                              "gcd(d, e) > 1\n")

    def test_uncertified_fresh_motive_exits_3(self, tmp_path, monkeypatch):
        # K_{1,2}^(3) is the projective plane, of motive v^-2 + 1 + v^2
        class Wrong(wallcross.MotiveTable):
            def motive(self, D):
                return LaurentPoly([7]) if tuple(D) == (1, 2) else super().motive(D)

        monkeypatch.setattr(wallcross, "hn_extract", Wrong)
        res = run("--cache-dir", str(tmp_path), "hn", "--m", "3", "--bound", "3")
        assert (res.exit_code, res.stdout, res.stderr) == (
            3, "", "wallcross: the moduli motive of (m, d, e) = (3, 1, 2) spans "
            "v^0..v^0, not v^-2..v^2\n")
        # and nothing was stored
        assert not list(tmp_path.iterdir())


class TestSeries:
    def test_f_plain(self):
        res = run("--no-cache", "series", "--which", "F", "--m", "3",
                  "--order", "1")
        assert "t^0: 1" in res.output
        assert "t^1: 1,1,1" in res.output

    def test_g_json_round(self):
        res = run("--no-cache", "--format", "json", "series",
                  "--which", "G", "--m", "3", "--order", "2")
        payload = json.loads(res.output)
        assert payload["result"]["order"] == 2

    @pytest.mark.parametrize("which", ["F", "G"])
    @pytest.mark.parametrize("k", ["1", "9"])
    def test_k_refused_for_f_and_g(self, monkeypatch, which, k):
        def no_compute(*args):
            raise AssertionError("computed")

        monkeypatch.setattr(central, "framed_recursion", no_compute)
        res = run("--no-cache", "series", "--which", which, "--m", "3",
                  "--k", k, "--order", "2")
        assert res.exit_code == 2
        assert res.stdout == ""
        assert "--k applies only to --which A" in res.stderr

    def test_a_slope_out_of_range(self):
        res = run("--no-cache", "series", "--which", "A", "--m", "3",
                  "--k", "5", "--order", "2")
        assert res.exit_code == 2

    @staticmethod
    def with_coeff(series, d, c):
        """``series`` with its t^d coefficient replaced by c."""
        coeffs = list(series.coeffs)
        coeffs[d] = c
        return TruncSeries(coeffs, series.order)

    # a solver of each series patched to break its rule: F_2 of m = 3 spans
    # v^-6..v^6, G_2 is the motive of K_{2,1}^(3) = P^2, and no coefficient
    # of A has a denominator whose lowest coefficient is not 1
    @pytest.mark.parametrize("which,module,name,wrong,message", [
        ("F", central, "framed_recursion",
         lambda real, m, order: TestSeries.with_coeff(
             real(m, order), 2, RatFunc(LaurentPoly([7]))),
         "recursion: the framed motive of (m, d, e) = (3, 2, 2) spans "
         "v^0..v^0, not v^-6..v^6"),
        ("G", central, "extract_G",
         lambda real, m, F: TestSeries.with_coeff(real(m, F), 2, LaurentPoly([7])),
         "recursion: the moduli motive of (m, d, e) = (3, 2, 1) spans "
         "v^0..v^0, not v^-2..v^2"),
        ("A", wallcross.MotiveTable, "ray_series",
         lambda real, table, D0, order: TestSeries.with_coeff(
             real(table, D0, order), 1, RatFunc(LaurentPoly.one(), LaurentPoly([2]))),
         "wallcross: a coefficient of A has the wrong form"),
    ], ids=["F", "G", "A"])
    def test_unchecked_fresh_series_exits_3(self, tmp_path, monkeypatch, which,
                                            module, name, wrong, message):
        real = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args: wrong(real, *args))
        res = run("--cache-dir", str(tmp_path), "series", "--which", which,
                  "--m", "3", "--order", "2")
        assert (res.exit_code, res.stdout, res.stderr) == (3, "", message + "\n")
        # and nothing was stored
        assert not list(tmp_path.iterdir())


class TestEuler:
    def test_framed_value(self):
        res = run("--no-cache", "euler", "--m", "3", "--d", "3",
                  "--kind", "framed")
        assert res.output.strip() == "91"

    def test_moduli_checked(self):
        res = run("--no-cache", "euler", "--m", "3", "--d", "4",
                  "--kind", "moduli", "--check")
        assert res.exit_code == 0
        assert res.output.strip() == "68"

    def test_csv(self):
        res = run("--no-cache", "--format", "csv", "euler",
                  "--m", "3", "--d", "2", "--kind", "moduli")
        assert res.output.strip() == "3,2,moduli,3"


class TestTamari:
    def test_formula(self):
        res = run("--no-cache", "tamari", "--m-prime", "1", "--n", "3")
        assert res.output.strip() == "13"

    def test_brute_checked(self):
        res = run("--no-cache", "tamari", "--m-prime", "2", "--n", "3",
                  "--method", "brute", "--check")
        assert res.exit_code == 0
        assert res.output.strip() == "58"

    def test_resource_cap_exits_4(self):
        # the two requests that enumerate ballot paths read the cap
        for enumerating in (("--method", "brute"), ("--check",)):
            res = run("--no-cache", "--max-paths", "3", "tamari",
                      "--m-prime", "1", "--n", "4", *enumerating)
            assert res.exit_code == 4

    def test_enumeration_beyond_the_recursion_limit_exits_4(self):
        # the cap admits all C(1200, 600) / 601 paths, and enumerating them
        # recurses 1200 deep, past the interpreter's recursion limit
        assert sys.getrecursionlimit() < 1200
        res = run("--no-cache", "--max-paths", "1" + "0" * 400, "tamari",
                  "--m-prime", "1", "--n", "600", "--method", "brute")
        assert res.exit_code == 4
        assert res.stdout == ""
        assert "Traceback" not in res.stderr
        assert "m'=1, n=600" in res.stderr

    @pytest.mark.parametrize("args", [
        ("framed", "--m", "3", "--d", "2"),
        ("moduli", "--m", "3", "--d", "2", "--e", "1"),
        ("euler", "--kind", "framed", "--m", "3", "--d", "2", "--check"),
        ("tamari", "--m-prime", "1", "--n", "4"),
        ("tamari", "--m-prime", "1", "--n", "4", "--method", "formula"),
        ("selftest",),
    ])
    def test_max_paths_refused_where_nothing_enumerates(self, tmp_path,
                                                        monkeypatch, args):
        def no_compute(*args):
            raise AssertionError("computed")

        monkeypatch.setattr(central, "framed_recursion", no_compute)
        monkeypatch.setattr(wallcross, "moduli_motive", no_compute)
        monkeypatch.setattr(tamari, "interval_count_formula", no_compute)
        monkeypatch.setattr("kronmot.selftest.run", no_compute)
        # refused before the cache is read: a planted entry is not served
        Cache(tmp_path).put(Cache.make_key("framed", m=3, d=2, method="recursion"),
                            {"min_exp": 0, "coeffs": ["1"]})
        res = run("--cache-dir", str(tmp_path), "--max-paths", "5", *args)
        assert res.exit_code == 2
        assert res.stdout == ""
        assert "--max-paths" in res.stderr

    def test_negative_max_paths_rejected(self):
        res = run("--no-cache", "--max-paths", "-5", "tamari",
                  "--m-prime", "1", "--n", "3", "--check")
        assert res.exit_code == 2
        assert res.stdout == ""
        assert "--max-paths" in res.stderr


def _full_str(text_of):
    """``text_of()`` with the interpreter's cap on int digits lifted."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is None:
        return text_of()
    sys.set_int_max_str_digits(0)
    try:
        return text_of()
    finally:
        sys.set_int_max_str_digits(limit)


class TestLongExactResults:
    @pytest.mark.parametrize("fmt", ["plain", "json"])
    @pytest.mark.parametrize("args,result,value", [
        pytest.param(("tamari", "--m-prime", "1", "--n", "5000"),
                     {"m_prime": 1, "n": 5000},
                     lambda: tamari.interval_count_formula(1, 5000), id="tamari"),
        pytest.param(("euler", "--kind", "framed", "--m", "3", "--d", "5000"),
                     {"m": 3, "d": 5000, "kind": "framed"},
                     lambda: eulerchar.chi_framed_closed(3, 5000), id="euler"),
    ])
    def test_print_in_full(self, fmt, args, result, value):
        limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
        res = run("--no-cache", "--format", fmt, *args)
        assert res.exit_code == 0, res.stderr
        # main restores the cap for in-process callers
        assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit
        value = value()
        assert value.bit_length() > 4300 * 3.33
        want = _full_str(lambda: str(value) if fmt == "plain" else json.dumps(
            {"schema": SCHEMA, "command": args[0],
             "result": {**result, "value": value}}, sort_keys=True))
        assert res.stdout == want + "\n"


class TestVerify:
    def test_maintheorem(self):
        res = run("--no-cache", "verify", "--identity", "maintheorem",
                  "--m", "3", "--order", "3")
        assert res.exit_code == 0
        assert "PASS" in res.output and "FAIL" not in res.output

    def test_corident_all_k(self):
        res = run("--no-cache", "--format", "json", "verify",
                  "--identity", "corident", "--m", "3", "--order", "2")
        payload = json.loads(res.output)
        assert {r["k"] for r in payload["result"]} == {1, 2}
        assert all(r["status"] == "pass" for r in payload["result"])

    def test_dualities(self):
        res = run("--no-cache", "verify", "--identity", "dualities",
                  "--m", "3", "--order", "4")
        assert res.exit_code == 0

    @pytest.mark.parametrize("identity", ["maintheorem", "vdifference", "funceq",
                                          "eqnew", "dualities"])
    def test_k_refused_where_unused(self, monkeypatch, identity):
        def no_compute(*args):
            raise AssertionError("computed")

        for name in ("framed_recursion", "g_series"):
            monkeypatch.setattr(central, name, no_compute)
        monkeypatch.setattr(wallcross, "verify_dualities", no_compute)
        res = run("--no-cache", "verify", "--identity", identity,
                  "--m", "3", "--k", "7", "--order", "2")
        assert res.exit_code == 2
        assert res.stdout == ""
        assert "--k applies only to" in res.stderr

    @pytest.mark.parametrize("fmt", ["plain", "json"])
    @pytest.mark.parametrize("identity", ["corident", "newduality"])
    @pytest.mark.parametrize("m", [1, 0, -3])
    def test_no_k_to_check_rejected(self, fmt, identity, m):
        # 1 <= k <= m-1 is empty, so looping over k would check nothing
        res = run("--no-cache", "--format", fmt, "verify",
                  "--identity", identity, "--m", str(m), "--order", "2")
        assert res.exit_code == 2
        assert res.stdout == ""
        assert f"--identity {identity} needs m >= 2" in res.stderr

    def test_every_k_sweeps_once(self, monkeypatch):
        calls = []
        sweep = wallcross._sweep

        def counting(m, vectors):
            calls.append(m)
            return sweep(m, vectors)

        monkeypatch.setattr(wallcross, "_sweep", counting)
        res = run("--no-cache", "verify", "--identity", "corident",
                  "--m", "4", "--order", "3")
        assert res.exit_code == 0
        assert len(calls) == 1

    def test_order_below_one_rejected(self):
        res = run("--no-cache", "verify", "--identity", "dualities",
                  "--m", "3", "--order", "0")
        assert res.exit_code == 2
        assert "order must be >= 1" in res.output
        assert "max()" not in res.output


class TestParse:
    """What the parser refuses before any command runs, and what it passes on."""

    @pytest.mark.parametrize("args", [
        ("--form", "json", "framed", "--m", "3", "--d", "1"),
        ("framed", "--m", "3", "--d", "1", "--meth", "recursion"),
    ])
    def test_abbreviations_refused(self, args):
        res = run("--no-cache", *args)
        assert res.exit_code == 2
        assert res.stdout == ""

    @pytest.mark.parametrize("args", [
        ("framed", "--m", "3", "--d", "1"),
        ("tamari", "--m-prime", "1", "--n", "3"),
    ])
    def test_negative_max_paths_refused_before_the_command(self, monkeypatch, args):
        def no_compute(*args):
            raise AssertionError("computed")

        monkeypatch.setattr(central, "framed_recursion", no_compute)
        monkeypatch.setattr(tamari, "interval_count_formula", no_compute)
        res = run("--no-cache", "--max-paths", "-5", *args)
        assert res.exit_code == 2
        assert res.stdout == ""
        assert "--max-paths" in res.stderr

    @pytest.mark.parametrize("command", [None, "framed", "moduli", "hn", "series",
                                         "euler", "tamari", "verify", "selftest"])
    def test_help_exits_0(self, command):
        res = run(*[command] if command else [], "--help")
        assert res.exit_code == 0
        assert res.stdout.startswith("usage: kronmot")

    @pytest.mark.parametrize("args", [
        ("framed", "--m", "3"),
        ("framed", "--m", "3", "--d", "1", "--method", "none"),
        ("--format", "xml", "framed", "--m", "3", "--d", "1"),
        ("framed", "--m", "three", "--d", "1"),
        ("frame", "--m", "3", "--d", "1"),
        (),
    ], ids=["missing-option", "bad-choice", "bad-format", "non-integer",
            "unknown-command", "no-command"])
    def test_usage_error_exits_2(self, args):
        res = run("--no-cache", *args)
        assert res.exit_code == 2
        assert res.stdout == ""
        assert res.stderr.startswith("usage: kronmot")

    def test_negative_value_reaches_the_command(self):
        res = run("--no-cache", "framed", "--m", "3", "--d", "-1")
        assert (res.exit_code, res.stdout, res.stderr) == (
            2, "", "need m >= 3 and d >= 0\n")


# runs `python -m kronmot.cli <args>` with a framed_recursion that raises
_FAILING_RECURSION = """
import runpy
import kronmot.central
from kronmot.errors import ExactDivisionError

def failing(*args):
    raise ExactDivisionError("planted failure")

kronmot.central.framed_recursion = failing
runpy.run_module("kronmot.cli", run_name="__main__", alter_sys=True)
"""


class TestExitCodes:
    """A command's error ends in its documented exit code, in process too."""

    @pytest.mark.parametrize("error,code", [
        (ValueError, 2), (ExactDivisionError, 3), (ResourceLimitError, 4)])
    def test_solver_error(self, monkeypatch, error, code):
        def failing(*args):
            raise error("planted failure")

        monkeypatch.setattr(central, "framed_recursion", failing)
        res = run("--no-cache", "framed", "--m", "3", "--d", "2")
        assert res.exit_code == code
        assert res.stdout == ""
        assert res.stderr == "planted failure\n"

    @pytest.mark.parametrize("module,name,args", [
        (central, "framed_recursion", ("framed", "--m", "3", "--d", "2")),
        (wallcross, "moduli_motive", ("moduli", "--m", "3", "--d", "2", "--e", "1")),
        (wallcross, "hn_extract", ("hn", "--m", "3", "--bound", "2")),
        (central, "framed_recursion", ("series", "--which", "F", "--m", "3",
                                       "--order", "2")),
        (central, "extract_G", ("series", "--which", "G", "--m", "3",
                                "--order", "2")),
        (wallcross.MotiveTable, "ray_series", ("series", "--which", "A",
                                               "--m", "3", "--order", "2")),
    ], ids=["framed", "moduli", "hn", "F", "G", "A"])
    def test_solver_error_keeps_its_message(self, tmp_path, monkeypatch,
                                            module, name, args):
        # only a broken rule of the result is prefixed with the method
        def failing(*args):
            raise ExactDivisionError("x")

        monkeypatch.setattr(module, name, failing)
        res = run("--cache-dir", str(tmp_path), *args)
        assert (res.exit_code, res.stdout, res.stderr) == (3, "", "x\n")
        assert not list(tmp_path.iterdir())

    def test_interrupt_exits_130_without_traceback(self, monkeypatch):
        def interrupted(*args):
            raise KeyboardInterrupt

        monkeypatch.setattr(central, "framed_recursion", interrupted)
        res = run("--no-cache", "framed", "--m", "3", "--d", "2")
        assert res.exit_code == 130
        assert res.stdout == ""
        assert res.stderr == "interrupted\n"
        assert "Traceback" not in res.stderr

    def test_console_module_exits_alike(self):
        src = str(Path(kronmot.__file__).resolve().parent.parent)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        proc = subprocess.run(
            [sys.executable, "-c", _FAILING_RECURSION, "--no-cache", "framed",
             "--m", "3", "--d", "2"],
            env=env, capture_output=True, text=True, timeout=120)
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            3, "", "planted failure\n")

    @pytest.mark.parametrize("kind,closed", [
        ("framed", "chi_framed_closed"), ("moduli", "chi_moduli_closed")])
    def test_euler_check_failure_exits_1(self, monkeypatch, kind, closed):
        real = getattr(eulerchar, closed)
        monkeypatch.setattr(eulerchar, closed, lambda m, d: real(m, d) + 1)
        res = run("--no-cache", "euler", "--kind", kind, "--m", "3", "--d", "3",
                  "--check")
        assert res.exit_code == 1
        assert res.stdout == ""
        assert res.stderr == "closed form and motive sum disagree\n"

    def test_tamari_check_failure_exits_1(self, monkeypatch):
        real = tamari.interval_count_formula
        monkeypatch.setattr(tamari, "interval_count_formula",
                            lambda mprime, n: real(mprime, n) + 1)
        res = run("--no-cache", "tamari", "--m-prime", "1", "--n", "4",
                  "--check")
        assert res.exit_code == 1
        assert res.stdout == ""
        assert res.stderr == "brute force and formula disagree\n"

    def test_verify_failure_exits_1(self, monkeypatch):
        def failing(m, order):
            return [{"identity": "funceq", "m": m, "k": None, "order": order,
                     "status": "fail", "first_failure_degree": 1}]

        monkeypatch.setattr(central, "verify_funceq", failing)
        res = run("--no-cache", "verify", "--identity", "funceq", "--m", "3",
                  "--order", "2")
        assert res.exit_code == 1
        assert res.stdout == "FAIL funceq m=3 order=2\n"
        assert res.stderr == "1 of 1 checks failed\n"

    def test_selftest_failure_exits_1(self, monkeypatch):
        from kronmot import selftest

        def raising():
            raise ArithmeticError("planted failure")

        monkeypatch.setattr(selftest, "CRITERIA", [
            ("passing", lambda: True), ("failing", lambda: False),
            ("raising", raising)])
        res = run("selftest")
        assert res.exit_code == 1
        assert res.stdout == ("PASS passing\nFAIL failing\n"
                              "ERROR raising: planted failure\nFAIL raising\n")
        assert res.stderr.endswith("2 of 3 checks failed\n")


@pytest.mark.parametrize("args", [
    ("series", "--which", "F", "--m", "3", "--order", "2"),
    ("hn", "--m", "3", "--bound", "2"),
    ("verify", "--identity", "maintheorem", "--m", "3", "--order", "2"),
])
def test_csv_rejected_where_unsupported(args):
    res = run("--no-cache", "--format", "csv", *args)
    assert res.exit_code == 2
    assert f"not supported by `{args[0]}`" in res.output
    assert "framed, moduli, euler, tamari" in res.output


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_selftest_refuses_other_formats(monkeypatch, fmt):
    from kronmot import selftest

    def no_run():
        raise AssertionError("ran")

    monkeypatch.setattr(selftest, "run", no_run)
    res = run("--format", fmt, "selftest")
    assert res.exit_code == 2
    assert res.stdout == ""
    assert f"--format {fmt} is not supported by `selftest`" in res.stderr


def test_selftest_run_returns_results_and_prints_nothing(monkeypatch, capsys):
    from kronmot import selftest

    error = ArithmeticError("planted failure")

    def raising():
        raise error

    monkeypatch.setattr(selftest, "CRITERIA", [
        ("passing", lambda: True), ("raising", raising)])
    results = list(selftest.run())
    assert [r[:3] for r in results] == [("passing", True, None),
                                        ("raising", False, error)]
    assert all(seconds >= 0 for *_, seconds in results)
    assert capsys.readouterr() == ("", "")


class TestCache:
    def test_cache_transparent(self, tmp_path):
        args = ["--cache-dir", str(tmp_path), "--format", "json",
                "moduli", "--m", "3", "--d", "4", "--e", "3"]
        cold = run(*args)
        warm = run(*args)
        nocache = run("--no-cache", "--format", "json",
                      "moduli", "--m", "3", "--d", "4", "--e", "3")
        assert cold.exit_code == warm.exit_code == 0
        assert cold.output == warm.output == nocache.output
        assert list(tmp_path.iterdir())  # something was actually stored

    @pytest.mark.parametrize("command,params,args", [
        ("moduli", {"m": 3, "d": 3, "e": 2},
         ("moduli", "--m", "3", "--d", "3", "--e", "2")),
        ("hn", {"m": 3, "bound": 3}, ("hn", "--m", "3", "--bound", "3")),
        ("series", {"which": "F", "m": 3, "k": 1, "order": 2},
         ("series", "--which", "F", "--m", "3", "--order", "2")),
    ])
    @pytest.mark.parametrize("payload", [
        {"wrong": 1},
        [{"wrong": 1}],
        [],
        {"min_exp": 0, "coeffs": ["x"]},
        {"min_exp": 1.0, "coeffs": ["1"]},
    ])
    def test_wrong_shape_entry_discarded(self, tmp_path, command,
                                         params, args, payload):
        # a valid JSON entry under the right key, with a payload of the wrong shape
        key = Cache.make_key(command, **params)
        tmp_path.joinpath(Cache(tmp_path)._path(key).name).write_text(
            json.dumps({"key": key, "payload": payload}))
        for fmt in ("plain", "json"):
            planted = run("--cache-dir", str(tmp_path), "--format", fmt, *args)
            fresh = run("--no-cache", "--format", fmt, *args)
            assert planted.exit_code == fresh.exit_code == 0
            assert planted.output == fresh.output
        # the bad entry was replaced by a good one
        assert Cache(tmp_path).get(key) != payload

    @pytest.mark.parametrize("command,params,args,other", [
        ("hn", {"m": 3, "bound": 3}, ("hn", "--m", "3", "--bound", "3"),
         ("hn", "--m", "3", "--bound", "2")),
        ("series", {"which": "F", "m": 3, "k": 1, "order": 2},
         ("series", "--which", "F", "--m", "3", "--order", "2"),
         ("series", "--which", "F", "--m", "3", "--order", "1")),
    ])
    def test_well_formed_payload_of_other_size_discarded(
            self, tmp_path, command, params, args, other):
        # a payload that decodes cleanly but belongs to a smaller instance
        res = run("--no-cache", "--format", "json", *other)
        key = Cache.make_key(command, **params)
        Cache(tmp_path).put(key, json.loads(res.output)["result"])
        planted = run("--cache-dir", str(tmp_path), "--format", "json", *args)
        fresh = run("--no-cache", "--format", "json", *args)
        assert planted.exit_code == fresh.exit_code == 0
        assert planted.output == fresh.output

    HN = ("hn", {"m": 3, "bound": 3}, ("hn", "--m", "3", "--bound", "3"))

    @pytest.mark.parametrize("command,params,args,edits", [
        ("moduli", {"m": 3, "d": 3, "e": 2},
         ("moduli", "--m", "3", "--d", "3", "--e", "2"),
         {("coeffs", 0): "1/2", ("coeffs", -1): "1/2"}),
        ("framed", {"m": 3, "d": 2, "method": "recursion"},
         ("framed", "--m", "3", "--d", "2"), {("coeffs", 0): "1/2"}),
        ("series", {"which": "G", "m": 3, "k": 1, "order": 3},
         ("series", "--which", "G", "--m", "3", "--order", "3"),
         {("coeffs", 2, "num", "coeffs", 0): "1/2"}),
        ("series", {"which": "A", "m": 3, "k": 1, "order": 2},
         ("series", "--which", "A", "--m", "3", "--order", "2"),
         {("coeffs", 1, "num", "coeffs", 0): "1/2"}),
        # 1 / (1 + v) is a canonical RatFunc, but no coefficient of F
        ("series", {"which": "F", "m": 3, "k": 1, "order": 2},
         ("series", "--which", "F", "--m", "3", "--order", "2"),
         {("coeffs", 1): {"num": {"min_exp": 0, "coeffs": ["1"]},
                          "den": {"min_exp": 0, "coeffs": ["1", "1"]}}}),
        # record 4 is the coprime (1,1), record 3 the non-coprime (0,2)
        (*HN, {(4, "motive", "coeffs", 0): "1/2"}),
        (*HN, {(4, "a", "num", "coeffs", 0): "1/2"}),
        (*HN, {(4, "motive"): None}),
        (*HN, {(3, "motive"): {"min_exp": 0, "coeffs": ["1"]}}),
        # num / 2 is canonical over Z, but no a_D or A-series coefficient
        # has a denominator whose lowest coefficient is not 1
        (*HN, {(4, "a", "den", "coeffs"): ["2"]}),
        ("series", {"which": "A", "m": 3, "k": 1, "order": 2},
         ("series", "--which", "A", "--m", "3", "--order", "2"),
         {("coeffs", 1, "den", "coeffs"): ["2"]}),
        # well formed, but no motive: F_2 of m = 3 spans v^-6..v^6, G_2 is
        # the motive of K_{2,1}^(3) = P^2, G_0 is 1, and record 7 is the
        # motive of K_{1,2}^(3) = P^2
        ("series", {"which": "F", "m": 3, "k": 1, "order": 2},
         ("series", "--which", "F", "--m", "3", "--order", "2"),
         {("coeffs", 2, "num"): {"min_exp": 0, "coeffs": ["7"]}}),
        ("series", {"which": "G", "m": 3, "k": 1, "order": 3},
         ("series", "--which", "G", "--m", "3", "--order", "3"),
         {("coeffs", 2, "num"): {"min_exp": 0, "coeffs": ["7"]}}),
        ("series", {"which": "G", "m": 3, "k": 1, "order": 3},
         ("series", "--which", "G", "--m", "3", "--order", "3"),
         {("coeffs", 0, "num", "coeffs"): ["7"]}),
        (*HN, {(7, "motive"): {"min_exp": 0, "coeffs": ["7"]}}),
        # record 0 is (0,0), whose a_D and motive are both 1
        ("hn", {"m": 3, "bound": 2}, ("hn", "--m", "3", "--bound", "2"),
         {(0, "motive"): {"min_exp": 0, "coeffs": ["7"]}}),
        ("hn", {"m": 3, "bound": 2}, ("hn", "--m", "3", "--bound", "2"),
         {(0, "a", "num", "coeffs"): ["7"]}),
    ])
    def test_non_integer_entry_discarded(self, tmp_path, command,
                                         params, args, edits):
        key = Cache.make_key(command, **params)
        assert run("--cache-dir", str(tmp_path), *args).exit_code == 0
        good = Cache(tmp_path).get(key)
        bad = json.loads(json.dumps(good))
        for path, value in edits.items():
            target = bad
            for step in path[:-1]:
                target = target[step]
            target[path[-1]] = value
        assert bad != good
        for fmt in ("plain", "json"):
            Cache(tmp_path).put(key, bad)
            planted = run("--cache-dir", str(tmp_path), "--format", fmt, *args)
            fresh = run("--no-cache", "--format", fmt, *args)
            assert planted.exit_code == fresh.exit_code == 0
            assert planted.output == fresh.output
            # the bad entry was discarded and the recomputed one stored
            assert Cache(tmp_path).get(key) == good

    @pytest.mark.parametrize("text", ["[1, 2]", "[" * 100000])
    def test_non_object_entry_ignored(self, tmp_path, text):
        args = ["--cache-dir", str(tmp_path), "moduli", "--m", "3", "--d", "2",
                "--e", "1"]
        first = run(*args)
        for f in tmp_path.iterdir():
            f.write_text(text)
        second = run(*args)
        assert second.exit_code == 0
        assert second.output == first.output

    def test_empty_cache_dir_refused(self, tmp_path, monkeypatch):
        monkeypatch.setenv("HOME", str(tmp_path))
        monkeypatch.delenv("KRONMOT_CACHE_DIR", raising=False)
        res = run("--cache-dir", "", "moduli", "--m", "3", "--d", "2", "--e", "3")
        assert res.exit_code == 2
        assert res.stdout == ""
        assert "--cache-dir" in res.stderr
        assert not list(tmp_path.rglob("*"))

    def test_empty_cache_dir_variable_counts_as_unset(self, tmp_path, monkeypatch):
        monkeypatch.setenv("HOME", str(tmp_path))
        monkeypatch.setenv("KRONMOT_CACHE_DIR", "")
        res = run("moduli", "--m", "3", "--d", "2", "--e", "3")
        assert res.exit_code == 0
        assert list((tmp_path / ".cache" / "kronmot").glob("*.json"))

    # each kind of euler --check, and the request that prints its motive
    EULER_MOTIVES = [
        ("framed", ("framed", "--m", "4", "--d", "3"),
         ("framed", {"m": 4, "d": 3, "method": "recursion"})),
        ("moduli", ("moduli", "--m", "4", "--d", "3", "--e", "2"),
         ("moduli", {"m": 4, "d": 3, "e": 2})),
    ]

    @pytest.mark.parametrize("kind,shown,key", EULER_MOTIVES)
    def test_euler_check_reads_the_motive_entry(self, tmp_path, monkeypatch,
                                                kind, shown, key):
        check = ("euler", "--kind", kind, "--m", "4", "--d", "3", "--check")
        fresh = {fmt: run("--no-cache", "--format", fmt, *check)
                 for fmt in ("plain", "json", "csv")}
        assert run("--cache-dir", str(tmp_path), *shown).exit_code == 0

        def no_compute(*args):
            raise AssertionError("computed")

        for name in ("framed_recursion", "solve_functional_eq"):
            monkeypatch.setattr(central, name, no_compute)
        for name in ("framed_via_quotient", "moduli_motive"):
            monkeypatch.setattr(wallcross, name, no_compute)
        for fmt, expected in fresh.items():
            res = run("--cache-dir", str(tmp_path), "--format", fmt, *check)
            assert expected.exit_code == 0
            assert (res.exit_code, res.stdout) == (0, expected.stdout)

    @pytest.mark.parametrize("kind,shown,key", EULER_MOTIVES)
    def test_euler_check_stores_the_motive_entry(self, tmp_path, kind, shown, key):
        res = run("--cache-dir", str(tmp_path), "euler", "--kind", kind,
                  "--m", "4", "--d", "3", "--check")
        assert res.exit_code == 0
        command, params = key
        printed = run("--no-cache", "--format", "json", *shown)
        assert (Cache(tmp_path).get(Cache.make_key(command, **params))
                == json.loads(printed.stdout)["result"]["motive"])

    # well formed, but no motive of K_{2,2}^(3),fr: it does not span v^-6..v^6
    UNCERTIFIED = {"min_exp": 0, "coeffs": ["7"]}

    @pytest.mark.parametrize("method", ["wallcross", "all"])
    def test_uncertified_framed_entry_replaced(self, tmp_path, method):
        args = ("framed", "--m", "3", "--d", "2", "--method", method)
        key = Cache.make_key("framed", m=3, d=2, method="wallcross")
        assert run("--cache-dir", str(tmp_path), *args).exit_code == 0
        good = Cache(tmp_path).get(key)
        for fmt in ("plain", "json"):
            Cache(tmp_path).put(key, self.UNCERTIFIED)
            planted = run("--cache-dir", str(tmp_path), "--format", fmt, *args)
            fresh = run("--no-cache", "--format", fmt, *args)
            assert planted.exit_code == fresh.exit_code == 0
            assert planted.stdout == fresh.stdout
            # the entry was discarded and the recomputed one stored
            assert Cache(tmp_path).get(key) == good

    def test_moduli_entry_of_wrong_span_replaced(self, tmp_path):
        args = ("moduli", "--m", "3", "--d", "3", "--e", "2")
        key = Cache.make_key("moduli", m=3, d=3, e=2)
        assert run("--cache-dir", str(tmp_path), *args).exit_code == 0
        good = Cache(tmp_path).get(key)
        # the true motive times v^2: palindromic no longer, and off its span
        Cache(tmp_path).put(key, LaurentPoly.from_json(good).v_shift(2).to_json())
        planted = run("--cache-dir", str(tmp_path), *args)
        fresh = run("--no-cache", *args)
        assert (planted.exit_code, planted.stdout) == (0, fresh.stdout)
        assert Cache(tmp_path).get(key) == good

    @pytest.mark.parametrize("args,module,name,wrong,message", [
        (("framed", "--m", "3", "--d", "2", "--method", "wallcross"),
         wallcross, "framed_via_quotient",
         lambda m, D0, order: TruncSeries([1, 1, LaurentPoly([7])], order),
         "wallcross: the framed motive of (m, d, e) = (3, 2, 2) spans v^0..v^0, "
         "not v^-6..v^6"),
        # K_{2,1}^(3) is the projective plane, of motive v^-2 + 1 + v^2
        (("moduli", "--m", "3", "--d", "2", "--e", "1"),
         wallcross, "moduli_motive",
         lambda m, d, e: LaurentPoly([1, 0, -1, 0, 1], -2),
         "wallcross: the moduli motive of (m, d, e) = (3, 2, 1) has a negative "
         "coefficient"),
        # twice that motive: every other property holds of a multiple
        (("moduli", "--m", "3", "--d", "2", "--e", "1"),
         wallcross, "moduli_motive",
         lambda m, d, e: LaurentPoly([2, 0, 2, 0, 2], -2),
         "wallcross: the moduli motive of (m, d, e) = (3, 2, 1) has b_0 = 2, "
         "not 1"),
    ], ids=["framed", "moduli", "moduli-doubled"])
    def test_uncertified_fresh_motive_exits_3(self, tmp_path, monkeypatch, args,
                                              module, name, wrong, message):
        monkeypatch.setattr(module, name, wrong)
        res = run("--cache-dir", str(tmp_path), *args)
        assert (res.exit_code, res.stdout, res.stderr) == (3, "", message + "\n")
        # and nothing was stored
        assert not list(tmp_path.iterdir())

    def test_doubled_moduli_entry_replaced(self, tmp_path):
        args = ("moduli", "--m", "3", "--d", "2", "--e", "1")
        key = Cache.make_key("moduli", m=3, d=2, e=1)
        assert run("--cache-dir", str(tmp_path), *args).exit_code == 0
        good = Cache(tmp_path).get(key)
        # 2 (v^-2 + 1 + v^2): palindromic, even and nonnegative on its span,
        # but b_0 = 2
        Cache(tmp_path).put(key, (LaurentPoly.from_json(good) * 2).to_json())
        planted = run("--cache-dir", str(tmp_path), *args)
        fresh = run("--no-cache", *args)
        assert (planted.exit_code, planted.stdout) == (0, fresh.stdout)
        assert Cache(tmp_path).get(key) == good

    # one request of each cached command, and of each series
    CACHED = [
        ("framed", "--m", "3", "--d", "3", "--method", "all"),
        ("moduli", "--m", "3", "--d", "3", "--e", "2"),
        ("hn", "--m", "3", "--bound", "3"),
        ("series", "--which", "F", "--m", "3", "--order", "3"),
        ("series", "--which", "G", "--m", "3", "--order", "3"),
        ("series", "--which", "A", "--m", "4", "--k", "3", "--order", "3"),
    ]

    @pytest.mark.parametrize("args", CACHED, ids=lambda args: " ".join(args[:3]))
    def test_fresh_results_are_not_decoded(self, monkeypatch, args):
        unpatched = {fmt: run("--no-cache", "--format", fmt, *args)
                     for fmt in ("plain", "json")}

        def no_decode(obj):
            raise AssertionError("decoded")

        for cls in (LaurentPoly, RatFunc, TruncSeries):
            monkeypatch.setattr(cls, "from_json", no_decode)
        for fmt, expected in unpatched.items():
            res = run("--no-cache", "--format", fmt, *args)
            assert expected.exit_code == 0
            assert (res.exit_code, res.stdout) == (0, expected.stdout)

    @pytest.mark.parametrize("args", CACHED, ids=lambda args: " ".join(args[:3]))
    def test_a_hit_decodes_each_polynomial_once(self, tmp_path, monkeypatch, args):
        assert run("--cache-dir", str(tmp_path), *args).exit_code == 0
        # the polynomials the entries hold: each a dict with a min_exp
        def polys(x):
            if isinstance(x, dict):
                return ("min_exp" in x) + sum(map(polys, x.values()))
            return sum(map(polys, x)) if isinstance(x, list) else 0

        stored = sum(polys(json.loads(f.read_text())) for f in tmp_path.iterdir())
        decoded = []
        real = LaurentPoly.from_json.__func__
        monkeypatch.setattr(LaurentPoly, "from_json", classmethod(
            lambda cls, obj: decoded.append(obj) or real(cls, obj)))
        assert run("--cache-dir", str(tmp_path), *args).exit_code == 0
        assert len(decoded) == stored

    def test_corrupt_cache_entry_ignored(self, tmp_path):
        args = ["--cache-dir", str(tmp_path),
                "framed", "--m", "3", "--d", "2"]
        first = run(*args)
        for f in tmp_path.iterdir():
            f.write_text("{not json")
        second = run(*args)
        assert second.exit_code == 0
        assert second.output == first.output

    @pytest.mark.parametrize("failing", ["os.replace", "json.dump"])
    def test_failed_put_leaves_no_temp_file(self, tmp_path, monkeypatch, failing):
        def refuse(*args, **kwargs):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(f"kronmot.cache.{failing}", refuse)
        cache = Cache(tmp_path)
        key = Cache.make_key("moduli", m=3, d=3, e=2)
        cache.put(key, {"min_exp": 0, "coeffs": ["1"]})
        monkeypatch.undo()
        assert list(tmp_path.iterdir()) == []
        assert cache.get(key) is None

    @pytest.mark.parametrize("failing", ["os.replace", "json.dump"])
    def test_interrupted_put_leaves_no_temp_file(self, tmp_path, monkeypatch,
                                                 failing):
        # Ctrl-C mid-write propagates, so the CLI still exits 130
        def interrupt(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(f"kronmot.cache.{failing}", interrupt)
        cache = Cache(tmp_path)
        with pytest.raises(KeyboardInterrupt):
            cache.put(Cache.make_key("moduli", m=3, d=3, e=2),
                      {"min_exp": 0, "coeffs": ["1"]})
        monkeypatch.undo()
        assert list(tmp_path.glob("*.tmp")) == []

    def test_entry_of_other_version_not_served(self, tmp_path,
                                               monkeypatch):
        # a well-formed but wrong motive left by another release of the package
        with monkeypatch.context() as mp:
            mp.setattr("kronmot.cache.__version__", "0.0.0-other")
            stale_key = Cache.make_key("moduli", m=3, d=3, e=2)
        assert stale_key != Cache.make_key("moduli", m=3, d=3, e=2)
        Cache(tmp_path).put(stale_key, {"min_exp": 0, "coeffs": ["7"]})
        res = run("--cache-dir", str(tmp_path), "moduli", "--m", "3",
                  "--d", "3", "--e", "2")
        assert res.exit_code == 0
        assert res.output.splitlines()[-1] == "1,1,3,3,3,1,1"
        assert "0: 7" not in res.output
        assert Cache(tmp_path).get(stale_key) == {"min_exp": 0, "coeffs": ["7"]}

    def test_entry_of_colliding_key_is_a_miss(self, tmp_path):
        # another key's entry in this key's file, as a collision of the CRC
        # file names leaves it
        key = Cache.make_key("moduli", m=3, d=3, e=2)
        other = Cache.make_key("moduli", m=3, d=5, e=2)
        path = Cache(tmp_path)._path(key)
        path.write_text(json.dumps({"key": other,
                                    "payload": {"min_exp": 0, "coeffs": ["7"]}}))
        assert Cache(tmp_path).get(key) is None
        args = ("moduli", "--m", "3", "--d", "3", "--e", "2")
        res = run("--cache-dir", str(tmp_path), "--format", "json", *args)
        fresh = run("--no-cache", "--format", "json", *args)
        assert res.exit_code == fresh.exit_code == 0
        assert res.output == fresh.output
        # recomputed and written over the other key's entry
        assert json.loads(path.read_text()) == {
            "key": key, "payload": json.loads(fresh.output)["result"]["motive"]}

    # a well-formed entry planted under the key of a request that exits 2
    ONE_SERIES = {"order": 1, "coeffs": [
        {"num": {"min_exp": 0, "coeffs": ["1"]},
         "den": {"min_exp": 0, "coeffs": ["1"]}}] * 2}

    @pytest.mark.parametrize("command,params,args,payload", [
        ("moduli", {"m": 3, "d": 2, "e": 2},
         ("moduli", "--m", "3", "--d", "2", "--e", "2"),
         {"min_exp": 0, "coeffs": ["7"]}),
        ("series", {"which": "F", "m": 2, "k": 1, "order": 1},
         ("series", "--which", "F", "--m", "2", "--order", "1"), ONE_SERIES),
        ("series", {"which": "G", "m": 2, "k": 1, "order": 1},
         ("series", "--which", "G", "--m", "2", "--order", "1"), ONE_SERIES),
        ("series", {"which": "A", "m": 1, "k": 1, "order": 1},
         ("series", "--which", "A", "--m", "1", "--k", "1", "--order", "1"),
         ONE_SERIES),
    ])
    def test_invalid_request_not_served_from_cache(self, tmp_path,
                                                   command, params, args, payload):
        Cache(tmp_path).put(Cache.make_key(command, **params), payload)
        for fmt in ("plain", "json"):
            planted = run("--cache-dir", str(tmp_path), "--format", fmt, *args)
            fresh = run("--no-cache", "--format", fmt, *args)
            assert planted.exit_code == fresh.exit_code == 2
            assert planted.stdout == fresh.stdout == ""
            assert planted.stderr == fresh.stderr != ""
