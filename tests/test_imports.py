"""What a kronmot process imports: the lazy package and per-command imports.

Each footprint is read in a fresh interpreter, since this test process has
imported every module already.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import kronmot

SRC = str(Path(kronmot.__file__).resolve().parent.parent)
SOLVERS = {"kronmot.wallcross", "kronmot.central", "kronmot.qseries",
           "kronmot.selftest"}
# standard-library modules no request loads beyond the interpreter's
# start-up: kronmot needs none of them, and together they cost about 25 ms
HEAVY = {"dataclasses", "fractions", "hashlib", "inspect", "typing"}

# runs `python -m kronmot.cli <args>` and writes the modules left in
# sys.modules at exit to the file named by the first argument
_PROBE = """
import atexit, json, runpy, sys
out = sys.argv.pop(1)
def dump():
    with open(out, "w") as f:
        json.dump(sorted(sys.modules), f)
atexit.register(dump)
runpy.run_module("kronmot.cli", run_name="__main__", alter_sys=True)
"""


def _python(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([SRC] + ([env["PYTHONPATH"]]
                                                 if env.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, timeout=120)


def _cli_modules(tmp_path, *args):
    """(exit code, stdout, modules loaded) of one CLI request."""
    out = tmp_path / "modules.json"
    proc = _python("-c", _PROBE, str(out), *args)
    return proc.returncode, proc.stdout, set(json.loads(out.read_text()))


@pytest.fixture(scope="module")
def startup():
    """The modules the interpreter loads at start-up, before any request."""
    return set(json.loads(_python(
        "-c", "import json, sys; print(json.dumps(sorted(sys.modules)))").stdout))


class TestCliFootprint:
    def test_tamari_loads_no_solver(self, tmp_path):
        code, stdout, modules = _cli_modules(
            tmp_path, "--no-cache", "tamari", "--m-prime", "1", "--n", "4", "--check")
        assert (code, stdout) == (0, "68\n")
        assert "kronmot.tamari" in modules
        assert modules.isdisjoint(SOLVERS)

    def test_request_loads_only_the_standard_library(self, tmp_path, startup):
        # kronmot has no runtime dependency: beyond what the interpreter
        # loads at start-up, a request loads the standard library and kronmot
        code, stdout, modules = _cli_modules(
            tmp_path, "--no-cache", "tamari", "--m-prime", "1", "--n", "4")
        assert (code, stdout) == (0, "68\n")
        packages = {m.split(".")[0] for m in modules - startup}
        assert packages <= set(sys.stdlib_module_names) | {"kronmot"}

    def test_moduli_cache_hit_loads_no_solver(self, tmp_path):
        args = ["--cache-dir", str(tmp_path / "cache"), "moduli",
                "--m", "3", "--d", "2", "--e", "3"]
        code, miss_out, miss = _cli_modules(tmp_path, *args)
        assert code == 0 and "kronmot.wallcross" in miss
        code, hit_out, hit = _cli_modules(tmp_path, *args)
        assert (code, hit_out) == (0, miss_out)
        assert "kronmot.cache" in hit
        assert hit.isdisjoint({"kronmot.wallcross", "kronmot.central"})
        # one coefficient ring: decoding a cached motive needs no rationals
        assert "fractions" not in hit

    def test_hn_cache_hit_loads_no_solver(self, tmp_path):
        # the records are checked and rebuilt by the CLI alone
        args = ["--cache-dir", str(tmp_path / "cache"), "hn", "--m", "3", "--bound", "4"]
        code, miss_out, miss = _cli_modules(tmp_path, *args)
        assert code == 0 and "kronmot.wallcross" in miss
        code, hit_out, hit = _cli_modules(tmp_path, *args)
        assert (code, hit_out) == (0, miss_out)
        assert "kronmot.cache" in hit
        assert hit.isdisjoint(SOLVERS)
        assert "fractions" not in hit

    @pytest.mark.parametrize("first,check", [
        (("framed", "--m", "3", "--d", "3"),
         ("euler", "--kind", "framed", "--m", "3", "--d", "3", "--check")),
        (("moduli", "--m", "3", "--d", "3", "--e", "2"),
         ("euler", "--kind", "moduli", "--m", "3", "--d", "3", "--check")),
        (("framed", "--m", "3", "--d", "3", "--method", "all"),
         ("framed", "--m", "3", "--d", "3", "--method", "all")),
    ], ids=["euler-framed", "euler-moduli", "framed-all"])
    def test_motive_cache_hit_loads_no_solver(self, tmp_path, first, check):
        # euler --check and framed --method all read the motives that
        # framed and moduli store
        cache = ["--cache-dir", str(tmp_path / "cache")]
        code, fresh_out, _ = _cli_modules(tmp_path, "--no-cache", *check)
        assert code == 0
        code, _, miss = _cli_modules(tmp_path, *cache, *first)
        assert code == 0 and not miss.isdisjoint(SOLVERS)
        code, hit_out, hit = _cli_modules(tmp_path, *cache, *check)
        assert (code, hit_out) == (0, fresh_out)
        assert "kronmot.cache" in hit
        assert hit.isdisjoint(SOLVERS)

    @pytest.mark.parametrize("args", [
        ("framed", "--m", "3", "--d", "3"),
        ("framed", "--m", "3", "--d", "3", "--method", "funceq"),
        ("framed", "--m", "3", "--d", "3", "--method", "wallcross"),
        ("moduli", "--m", "3", "--d", "2", "--e", "3"),
        ("hn", "--m", "3", "--bound", "4"),
        ("series", "--which", "F", "--m", "3", "--order", "3"),
        ("euler", "--kind", "framed", "--m", "3", "--d", "3", "--check"),
        ("tamari", "--m-prime", "1", "--n", "4", "--check"),
        ("verify", "--identity", "funceq", "--m", "3", "--order", "3"),
        ("verify", "--identity", "dualities", "--m", "3", "--order", "3"),
    ], ids=["framed-recursion", "framed-funceq", "framed-wallcross", "moduli",
            "hn", "series-F", "euler-check", "tamari-check", "verify-funceq",
            "verify-dualities"])
    def test_request_loads_no_heavy_module(self, tmp_path, startup, args):
        code, _, modules = _cli_modules(tmp_path, "--no-cache", *args)
        assert code == 0
        assert not HEAVY & (modules - startup)
        # of the commands, only tamari and selftest run the Tamari code
        assert ("kronmot.tamari" in modules) == (args[0] == "tamari")

    def test_framed_recursion_loads_no_wallcross(self, tmp_path):
        code, stdout, modules = _cli_modules(
            tmp_path, "--no-cache", "framed", "--m", "3", "--d", "2")
        assert code == 0 and stdout.splitlines()[-1] == "1,2,3,3,3,2,1"
        assert "kronmot.central" in modules
        assert "kronmot.wallcross" not in modules

    def test_importtime_names_the_solvers_a_request_loads(self):
        # CI greps this report of a tamari request for solver modules, so
        # the report must name the solvers a request does load
        proc = _python("-X", "importtime", "-m", "kronmot.cli", "--no-cache",
                       "verify", "--identity", "dualities", "--m", "3", "--order", "2")
        assert proc.returncode == 0
        names = {line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()
                 if line.startswith("import time:")}
        assert {"kronmot.wallcross", "kronmot.qseries"} <= names


_LAZY_PACKAGE = """
import sys
import kronmot
loaded = sorted(m for m in sys.modules if m.startswith("kronmot"))
assert loaded == ["kronmot", "kronmot.errors", "kronmot.exactalg"], loaded
assert set(kronmot.__all__) <= set(dir(kronmot))
assert kronmot.wallcross.MotiveTable.__module__ == "kronmot.wallcross"
# the first read bound every public name and removed the hook
assert "__getattr__" not in vars(kronmot)
for name in kronmot.__all__:
    value = vars(kronmot)[name]
    assert value is getattr(sys.modules[value.__module__], name), name
star = {}
exec("from kronmot import *", star)
assert set(kronmot.__all__) <= set(star)
try:
    kronmot.no_such_name
except AttributeError as exc:
    assert "no_such_name" in str(exc)
else:
    raise AssertionError("unknown attribute resolved")
print("ok")
"""

# a submodule imported by its own path first: the package then stores no
# name, and a name rebound in its submodule is seen through the package
_REBOUND_NAME = """
import kronmot
import kronmot.central as central
original = central.framed_recursion
central.framed_recursion = replacement = object()
assert kronmot.framed_recursion is replacement
assert kronmot.wallcross.MotiveTable is kronmot.MotiveTable
central.framed_recursion = original
assert kronmot.framed_recursion is original
assert "framed_recursion" not in vars(kronmot) and "__getattr__" in vars(kronmot)
try:
    kronmot.no_such_name
except AttributeError:
    print("ok")
"""


@pytest.mark.parametrize("script", [_LAZY_PACKAGE, _REBOUND_NAME],
                         ids=["first-read-binds-all", "rebound-in-submodule"])
def test_lazy_package(script):
    proc = _python("-c", script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "ok\n"
