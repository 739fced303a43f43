"""No library path does arithmetic on ``RatFunc`` values.

``RatFunc`` is the ring the package serialises its series in and the
reference ring the tests compare against; every computation runs over
integer Laurent polynomials.  With the arithmetic operators of ``RatFunc``
made to raise, the selftest criteria, the G side and the CLI commands must
still run, and print what they print unpatched.
"""

import pytest

from kronmot import central, selftest
from kronmot.exactalg import RatFunc

from cli_runner import invoke

ARITHMETIC = ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__",
              "__mul__", "__rmul__", "__truediv__", "__rtruediv__")


def forbid_ratfunc_arithmetic(mp):
    """Make every arithmetic operator of RatFunc raise, through ``mp``."""
    def forbidden(name):
        def op(*args):
            raise AssertionError(f"RatFunc.{name} was called")
        return op

    for name in ARITHMETIC:
        mp.setattr(RatFunc, name, forbidden(name))


@pytest.fixture
def no_ratfunc_arithmetic(monkeypatch):
    forbid_ratfunc_arithmetic(monkeypatch)


def test_the_patch_raises(no_ratfunc_arithmetic):
    x = RatFunc.one()
    for op in (lambda: x + x, lambda: 1 + x, lambda: x - x, lambda: 1 - x,
               lambda: -x, lambda: x * x, lambda: 2 * x, lambda: x / x,
               lambda: 1 / x):
        with pytest.raises(AssertionError, match="RatFunc"):
            op()


@pytest.mark.parametrize("name,criterion", selftest.CRITERIA)
def test_selftest_criteria(no_ratfunc_arithmetic, name, criterion):
    assert criterion(), name


@pytest.mark.parametrize("m", [3, 4, 5])
def test_g_side(no_ratfunc_arithmetic, m):
    F = central.framed_recursion(m, 6)
    G = central.extract_G(m, F)
    assert G.is_integral()
    for d in range(7):
        assert F.coeffs[d] == G.nabla(m - 1).coeffs[d]


COMMANDS = [
    ("series", "--which", "F", "--m", "4", "--order", "4"),
    ("series", "--which", "G", "--m", "4", "--order", "4"),
    ("series", "--which", "A", "--m", "3", "--k", "2", "--order", "3"),
    ("framed", "--m", "4", "--d", "3", "--method", "all"),
    ("hn", "--m", "3", "--bound", "4"),
] + [
    ("verify", "--identity", identity, "--m", "3", "--order", "3")
    for identity in ("maintheorem", "vdifference", "funceq", "eqnew",
                     "corident", "newduality", "dualities")
]


@pytest.mark.parametrize("args", COMMANDS, ids=" ".join)
@pytest.mark.parametrize("fmt", ["plain", "json"])
def test_cli_commands(monkeypatch, args, fmt):
    want = invoke("--no-cache", "--format", fmt, *args)
    with monkeypatch.context() as mp:
        forbid_ratfunc_arithmetic(mp)
        got = invoke("--no-cache", "--format", fmt, *args)
    assert want.exit_code == 0, want.output
    assert got.exit_code == 0, got.output
    assert got.output == want.output
