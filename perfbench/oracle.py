"""Output checks, run outside the timed region.

Each check returns a list of problems; an empty list means the output is
correct.  The references are the digests recorded at the seed commit
(``seed_record.json``), never values recomputed by the code under test, and
framed-recursion and funceq results are checked against the same framed
digests, so the two algorithms cross-check each other in every run.
"""

from __future__ import annotations

import hashlib
import json

from workloads import RECORD


def digest(min_exp: int, coeffs) -> str:
    text = f"{min_exp}|" + ",".join(str(c) for c in coeffs)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _shape(what: str, min_exp: int, coeffs, dim: int) -> list[str]:
    """Palindromic, exponents -dim..dim, non-negative Betti numbers at step 2."""
    bad = []
    if list(coeffs) != list(reversed(coeffs)) or min_exp != -(min_exp + len(coeffs) - 1):
        bad.append(f"{what}: not palindromic")
    if (min_exp, min_exp + len(coeffs) - 1) != (-dim, dim):
        bad.append(f"{what}: exponent span {min_exp}..{min_exp + len(coeffs) - 1}"
                   f" is not -{dim}..{dim}")
    if any(c < 0 for c in coeffs[::2]) or any(c != 0 for c in coeffs[1::2]):
        bad.append(f"{what}: coefficients are not non-negative at step 2")
    return bad


def _against(what: str, table: str, key: str, min_exp: int, coeffs) -> list[str]:
    ref = RECORD[table].get(key)
    if ref is None:
        return [f"{what}: no recorded digest"]
    if digest(min_exp, coeffs) != ref["sha"]:
        return [f"{what}: differs from the seed-commit digest"]
    return []


def moduli_dim(m: int, d: int, e: int) -> int:
    return m * d * e - d * d - e * e + 1


def framed_dim(m: int, d: int) -> int:
    return (m - 2) * d * d + d


def check_moduli(m: int, d: int, e: int, min_exp: int, coeffs, chi=None) -> list[str]:
    what = f"K_{d},{e}^({m})"
    bad = _against(what, "moduli", f"{m},{d},{e}", min_exp, coeffs)
    if coeffs:  # zero is the motive of an empty moduli space
        bad += _shape(what, min_exp, coeffs, moduli_dim(m, d, e))
    if chi is not None and sum(coeffs) != chi:
        bad.append(f"{what}: value at v=1 is {sum(coeffs)}, closed form {chi}")
    return bad


def check_framed(m: int, d: int, min_exp: int, coeffs, chi=None) -> list[str]:
    what = f"K_{d},{d}^({m}),fr"
    bad = _against(what, "framed", f"{m},{d}", min_exp, coeffs)
    if coeffs:  # zero is the motive of an empty moduli space
        bad += _shape(what, min_exp, coeffs, framed_dim(m, d))
    if chi is not None and sum(coeffs) != chi:
        bad.append(f"{what}: value at v=1 is {sum(coeffs)}, closed form {chi}")
    return bad


# -- library results -----------------------------------------------------------

def check_hn_task(kronmot, m: int, d: int, e: int, motive) -> list[str]:
    """A moduli motive, its swap dual from the same table, and chi."""
    chi = None
    if abs(d - e) == 1:
        chi = kronmot.chi_moduli_closed(m, max(d, e))
    bad = check_moduli(m, d, e, motive.min_exp, motive.coeffs, chi)
    if kronmot.moduli_motive(m, e, d) != motive:
        bad.append(f"K_{d},{e}^({m}): swap dual K_{e},{d} differs")
    return bad


def check_framed_series(kronmot, m: int, order: int, series) -> list[str]:
    """Every coefficient of F up to t^order is the recorded framed motive."""
    if series.order != order or len(series.coeffs) != order + 1:
        return [f"F^({m}) has order {series.order}, expected {order}"]
    bad = []
    for d, c in enumerate(series.coeffs):
        if not c.is_laurent():
            bad.append(f"K_{d},{d}^({m}),fr: not a Laurent polynomial")
            continue
        chi = kronmot.chi_framed_closed(m, d)
        bad += check_framed(m, d, c.num.min_exp, c.num.coeffs, chi)
    return bad


# -- cli results -----------------------------------------------------------------

def _poly(obj) -> tuple[int, list[int]]:
    return obj["min_exp"], [int(c) for c in obj["coeffs"]]


def check_cli(req, code: int, stdout: str) -> list[str]:
    """Exit code, then the parsed `--format json` result against the record."""
    if code != req.exit_code:
        return [f"{' '.join(req.argv)}: exit {code}, expected {req.exit_code}"]
    if not req.check:
        return [] if stdout == "" else [f"{' '.join(req.argv)}: unexpected stdout"]
    try:
        result = json.loads(stdout)["result"]
        return _CLI_CHECKS[req.check](req.params, result)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"{' '.join(req.argv)}: unparsable output ({exc!r})"]


def _cli_framed(p, r):
    m, d = p
    return check_framed(m, d, *_poly(r["motive"]))


def _cli_moduli(p, r):
    m, d, e = p
    return check_moduli(m, d, e, *_poly(r["motive"]))


def _cli_hn(p, r):
    m, bound = p
    bad, seen = [], set()
    for rec in r:
        d, e = rec["d"], rec["e"]
        seen.add((d, e))
        if rec["motive"] is not None and (d, e) != (0, 0):
            bad += check_moduli(m, d, e, *_poly(rec["motive"]))
    if len(seen) != (bound + 1) * (bound + 2) // 2:
        bad.append(f"hn m={m} bound={bound}: {len(seen)} records")
    return bad


def _series_polys(p, r):
    m, order = p
    if r["order"] != order or len(r["coeffs"]) != order + 1:
        raise ValueError("wrong series order")
    for c in r["coeffs"]:
        if _poly(c["den"]) != (0, [1]):
            raise ValueError("coefficient is not a Laurent polynomial")
    return [_poly(c["num"]) for c in r["coeffs"]]


def _cli_series_f(p, r):
    m, _ = p
    bad = []
    for d, poly in enumerate(_series_polys(p, r)):
        bad += check_framed(m, d, *poly)
    return bad


def _cli_series_g(p, r):
    m, _ = p
    polys = _series_polys(p, r)
    bad = [] if polys[0] == (0, [1]) else ["G(0) != 1"]
    for d, poly in enumerate(polys[1:], start=1):
        bad += check_moduli(m, d, d - 1, *poly)
    return bad


def _value(expected: int, r) -> list[str]:
    return [] if r["value"] == expected else [f"value {r['value']} != {expected}"]


_CLI_CHECKS = {
    "framed": _cli_framed,
    "moduli": _cli_moduli,
    "hn": _cli_hn,
    "seriesF": _cli_series_f,
    "seriesG": _cli_series_g,
    "euler-framed": lambda p, r: _value(RECORD["framed"][f"{p[0]},{p[1]}"]["chi"], r),
    "euler-moduli": lambda p, r: _value(
        RECORD["moduli"][f"{p[0]},{p[1]},{p[1] - 1}"]["chi"], r),
    # interval counts equal chi(K_{n,n-1}^(m'+2)), the paper's main corollary
    "tamari": lambda p, r: _value(
        RECORD["moduli"][f"{p[0] + 2},{p[1]},{p[1] - 1}"]["chi"], r),
    "verify": lambda p, r: [f"{x['identity']} failed" for x in r
                            if x["status"] != "pass"] or ([] if r else ["no reports"]),
}
