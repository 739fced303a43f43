"""Acceptance gate.

One test per criterion; each prints a single PASS/FAIL line (visible with
``pytest -s`` or in captured output on failure).  Every comparison is exact.
All expected coefficient lists are frozen here rather than imported, so a
regression in the library cannot silently rewrite the oracle.
"""

import time
from math import gcd

from kronmot import central, eulerchar, selftest, tamari, wallcross
from kronmot.exactalg import quantum_integer
from kronmot.qseries import TruncSeries

from cli_runner import invoke

FRAMED_M3 = [
    [1, 1, 1],
    [1, 2, 3, 3, 3, 2, 1],
    [1, 2, 5, 8, 11, 12, 13, 12, 11, 8, 5, 2, 1],
    [1, 2, 5, 10, 18, 28, 40, 50, 58, 62, 64, 62, 58, 50, 40, 28, 18, 10, 5,
     2, 1],
]
MODULI_M3 = [
    [1],
    [1, 1, 1],
    [1, 1, 3, 3, 3, 1, 1],
    [1, 1, 3, 5, 8, 10, 12, 10, 8, 5, 3, 1, 1],
    [1, 1, 3, 5, 10, 14, 23, 30, 41, 46, 51, 46, 41, 30, 23, 14, 10, 5, 3, 1,
     1],
]

# ``kronmot selftest`` stdout: one line per criterion, the same on every run
SELFTEST_STDOUT = """\
PASS paper-table reproduction
PASS three-way method agreement
PASS identity suite
PASS euler/tamari chain
PASS framed euler sequence
PASS structural invariants
"""


def _step2(p):
    return list(p.coeffs[::2])


def _report(num, name, ok):
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {name}")
    assert ok, f"criterion {num} ({name}) failed"


def test_criterion_1_table_reproduction():
    start = time.monotonic()
    F = central.framed_recursion(3, 5)
    G = central.extract_G(3, F)
    ok = all(
        _step2(F.coeffs[d].to_laurent()) == FRAMED_M3[d - 1]
        for d in range(1, 5)
    ) and all(
        _step2(G.coeffs[d]) == MODULI_M3[d - 1]
        for d in range(1, 6)
    )
    ok = ok and time.monotonic() - start < 10
    _report(1, "paper-table reproduction (< 10s)", ok)


def test_criterion_1_fails_on_one_wrong_framed_motive(monkeypatch):
    # F_4 + [5]_v keeps G's division by [5]_v exact, so the criterion
    # must fail by comparing against the tables, not by raising
    real = central.framed_recursion

    def wrong(m, order):
        F = real(m, order)
        coeffs = list(F.coeffs)
        coeffs[4] = coeffs[4].to_laurent() + quantum_integer(5)
        return TruncSeries(coeffs, order)

    monkeypatch.setattr(central, "framed_recursion", wrong)
    assert selftest.criterion_1() is False


def test_criterion_2_three_way_agreement():
    start = time.monotonic()
    ok = True
    for m in (3, 4, 5):
        a = central.framed_recursion(m, 6)
        b = central.solve_functional_eq(m, 6)
        c = wallcross.framed_via_quotient(m, (1, 1), 6)
        ok = ok and a == b == c
    ok = ok and time.monotonic() - start < 120
    _report(2, "three-way method agreement (< 2min)", ok)


def test_criterion_3_identity_suite():
    reports = []
    for m in (3, 4):
        reports += central.verify_main_theorem(m, 6)
        reports += central.verify_vdifference(m, 6)
        reports += central.verify_funceq(m, 6)
        reports += central.verify_eqnew(m, 6)
        for k in range(1, m):
            reports += central.verify_corident(m, k, 4)
            reports += central.verify_newduality(m, k, 4)
    reports += wallcross.verify_dualities(3, 7)
    reports += wallcross.verify_dualities(4, 8)
    ok = bool(reports) and all(r["status"] == "pass" for r in reports)
    _report(3, "identity suite", ok)


def test_criterion_4_euler_tamari_chain():
    start = time.monotonic()
    ok = True
    for m, dmax, expected in ((3, 6, [1, 3, 13, 68, 399, 2530]),
                              (4, 4, [1, 6, 58, 703])):
        G = central.extract_G(m, central.framed_recursion(m, dmax))
        for d in range(1, dmax + 1):
            chi = eulerchar.chi_from_motive(G.coeffs[d])
            closed = eulerchar.chi_moduli_closed(m, d)
            brute = tamari.interval_count_bruteforce(m - 2, d)
            ok = ok and chi == closed == brute == expected[d - 1]
    ok = ok and time.monotonic() - start < 60
    _report(4, "euler/tamari chain (< 1min)", ok)


def test_criterion_5_framed_euler_sequence():
    F = central.framed_recursion(3, 6)
    expected_low = [1, 3, 15, 91, 612]
    ok = True
    for d in range(7):
        chi = eulerchar.chi_from_motive(F.coeffs[d].to_laurent())
        ok = ok and chi == eulerchar.chi_framed_closed(3, d)
        if d <= 4:
            ok = ok and chi == expected_low[d]
    _report(5, "framed euler sequence", ok)


def test_criterion_6_structural_invariants():
    def shape_ok(p, dim):
        if p.is_zero():
            return True
        return (
            p.is_palindromic()
            and (p.min_exp, p.max_exp) == (-dim, dim)
            and all(isinstance(c, int) and c >= 0 for c in p.coeffs[::2])
            and all(c == 0 for c in p.coeffs[1::2])
        )

    ok = True
    try:
        table = wallcross.hn_extract(3, 9)
        for d in range(10):
            for e in range(10 - d):
                if (d, e) == (0, 0) or gcd(d, e) != 1:
                    continue
                dim = 1 - wallcross.euler_form(3, (d, e), (d, e))
                ok = ok and shape_ok(table.motive((d, e)), dim)
        for m in (3, 4, 5):
            F = central.framed_recursion(m, 6)
            G = central.extract_G(m, F)  # every delta_invert must be exact
            for d in range(7):
                ok = ok and shape_ok(F.coeffs[d].to_laurent(),
                                     (m - 2) * d * d + d)
                ok = ok and G.coeffs[d] is not None
    except Exception:
        ok = False
    _report(6, "structural invariants", ok)


def test_criterion_7_selftest_under_five_minutes():
    start = time.monotonic()
    result = invoke("selftest")
    elapsed = time.monotonic() - start
    ok = (result.exit_code == 0 and result.stdout == SELFTEST_STDOUT
          and elapsed < 300)
    _report(7, f"selftest exit 0 in {elapsed:.1f}s (< 5min)", ok)
