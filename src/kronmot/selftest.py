"""The acceptance suite, runnable from the CLI.

Each criterion returns whether it passed.  ``run`` returns the results and
prints nothing; ``kronmot selftest`` prints one line per criterion on
stdout, the same on every run, and its wall time on stderr.  The pytest
suite runs the same checks with frozen oracle values; this module exists
so `kronmot selftest` works without pytest.
"""

from __future__ import annotations

import time
from math import gcd

from . import central, eulerchar, tamari, wallcross

PAPER_TABLES_M3 = {
    # framed K_{d,d}, d = 1..4
    "fr": [
        [1, 1, 1],
        [1, 2, 3, 3, 3, 2, 1],
        [1, 2, 5, 8, 11, 12, 13, 12, 11, 8, 5, 2, 1],
        [1, 2, 5, 10, 18, 28, 40, 50, 58, 62, 64, 62, 58, 50, 40, 28, 18, 10,
         5, 2, 1],
    ],
    # unframed K_{d,d-1}, d = 1..5
    "mod": [
        [1],
        [1, 1, 1],
        [1, 1, 3, 3, 3, 1, 1],
        [1, 1, 3, 5, 8, 10, 12, 10, 8, 5, 3, 1, 1],
        [1, 1, 3, 5, 10, 14, 23, 30, 41, 46, 51, 46, 41, 30, 23, 14, 10, 5,
         3, 1, 1],
    ],
}


def _step2_coeffs(p) -> list:
    if p.is_zero():
        return []
    return list(p.coeffs[::2])


def criterion_1() -> bool:
    """Reproduce the nine m=3 coefficient tables."""
    F = central.framed_recursion(3, 5)
    G = central.extract_G(3, F)
    ok = True
    for d in range(1, 5):
        got = _step2_coeffs(F.coeffs[d].to_laurent())
        ok = ok and got == PAPER_TABLES_M3["fr"][d - 1]
    for d in range(1, 6):
        got = _step2_coeffs(G.coeffs[d])
        ok = ok and got == PAPER_TABLES_M3["mod"][d - 1]
    return ok


def criterion_2() -> bool:
    """Three-way agreement of the framed-motive methods, m in {3,4,5}."""
    ok = True
    for m in (3, 4, 5):
        a = central.framed_recursion(m, 6)
        b = central.solve_functional_eq(m, 6)
        c = wallcross.framed_via_quotient(m, (1, 1), 6)
        ok = ok and a == b == c
    return ok


def criterion_3() -> bool:
    """Full identity suite at the spec'd orders."""
    reports = []
    for m in (3, 4):
        reports += central.verify_main_theorem(m, 6)
        reports += central.verify_vdifference(m, 6)
        reports += central.verify_funceq(m, 6)
        reports += central.verify_eqnew(m, 6)
        reports += central.verify_corident(m, None, 4)
        reports += central.verify_newduality(m, None, 4)
    reports += wallcross.verify_dualities(3, 7)
    reports += wallcross.verify_dualities(4, 8)
    return all(r["status"] == "pass" for r in reports)


def criterion_4() -> bool:
    """Euler characteristic = closed form = Tamari interval count."""
    ok = True
    for m, dmax, expected in ((3, 6, [1, 3, 13, 68, 399, 2530]),
                              (4, 4, [1, 6, 58, 703])):
        G = central.extract_G(m, central.framed_recursion(m, dmax))
        for d in range(1, dmax + 1):
            chi = eulerchar.chi_from_motive(G.coeffs[d])
            closed = eulerchar.chi_moduli_closed(m, d)
            brute = tamari.interval_count_bruteforce(m - 2, d)
            ok = ok and chi == closed == brute == expected[d - 1]
    return ok


def criterion_5() -> bool:
    """Framed Euler characteristics match the closed form."""
    F = central.framed_recursion(3, 6)
    ok = True
    for d in range(7):
        chi = eulerchar.chi_from_motive(F.coeffs[d].to_laurent())
        ok = ok and chi == eulerchar.chi_framed_closed(3, d)
        if d <= 4:
            ok = ok and chi == [1, 3, 15, 91, 612][d]
    return ok


def criterion_6() -> bool:
    """Structural invariants of every computed motive: each passes
    ``eulerchar.certify``, which raises on the first that fails."""
    table = wallcross.hn_extract(3, 9)
    for d in range(10):
        for e in range(10 - d):
            if (d, e) != (0, 0) and gcd(d, e) == 1:
                eulerchar.certify("moduli", 3, d, e, table.motive((d, e)))
    for m in (3, 4, 5):
        F = central.framed_recursion(m, 6)
        for d in range(7):
            eulerchar.certify("framed", m, d, d, F.coeffs[d].to_laurent())
    return True


CRITERIA = [
    ("paper-table reproduction", criterion_1),
    ("three-way method agreement", criterion_2),
    ("identity suite", criterion_3),
    ("euler/tamari chain", criterion_4),
    ("framed euler sequence", criterion_5),
    ("structural invariants", criterion_6),
]


def run():
    """Run every criterion in turn, and yield ``(name, passed, error,
    seconds)`` as each finishes: ``error`` is the exception it raised, a
    failed criterion, or None, and ``seconds`` its wall time."""
    for name, fn in CRITERIA:
        start = time.monotonic()
        try:
            passed, error = fn(), None
        except Exception as exc:
            passed, error = False, exc
        yield name, passed, error, time.monotonic() - start
