"""Write ``seed_record.json``: oracle digests and per-task costs.

Run once, at the commit the benchmark was defined on, from the repository
root::

    PYTHONPATH=src python3 perfbench/record.py

The digests are the frozen reference every later benchmark run checks
against, so this script refuses to overwrite an existing record; a later
commit must never regenerate them.  The costs size each workload's task list
(cheapest first until ``--seconds`` is filled), so that the same
``--seconds`` gives the same work on every commit.
"""

from __future__ import annotations

import hashlib
import json
import platform
import subprocess
import sys
import time
from math import gcd
from pathlib import Path

from kronmot import central, wallcross

OUT = Path(__file__).resolve().parent / "seed_record.json"

MODULI_M = range(3, 7)
MODULI_BOUND = 18
HN_SUMS = range(10, 19)
# largest framed order recorded per m: about 3 s per task at the seed
FRAMED_MAX_ORDER = {3: 22, 4: 18, 5: 14, 6: 11, 7: 9, 8: 8, 9: 7, 10: 7}
FUNCEQ_M = range(3, 7)
FUNCEQ_ORDERS = range(1, 10)
FUNCEQ_COST_CAP_S = 3.5


def digest(p) -> str:
    """Short hash of a Laurent polynomial's canonical coefficient list."""
    text = f"{p.min_exp}|" + ",".join(str(c) for c in p.coeffs)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def entry(p) -> dict:
    return {"sha": digest(p), "chi": int(p.eval_at_one()),
            "min_exp": p.min_exp, "max_exp": p.max_exp}


def timed(fn, *args):
    t0 = time.perf_counter()
    out = fn(*args)
    return out, round(time.perf_counter() - t0, 4)


def main() -> int:
    if OUT.exists():
        print(f"{OUT.name} exists; the seed record is never regenerated",
              file=sys.stderr)
        return 1
    commit = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                            text=True, check=True).stdout.strip()
    moduli, framed = {}, {}
    costs = {"hn-sweep": {}, "framed-recursion": {}, "funceq": {}}

    for m in MODULI_M:
        table = wallcross.MotiveTable(m, MODULI_BOUND)
        for s in range(1, MODULI_BOUND + 1):
            for d in range(s + 1):
                if gcd(d, s - d) == 1:
                    moduli[f"{m},{d},{s - d}"] = entry(table.motive((d, s - d)))
        for s in HN_SUMS:
            costs["hn-sweep"][f"{m},{s}"] = timed(wallcross.MotiveTable, m, s)[1]
        print("moduli", m, flush=True)

    for m, top in FRAMED_MAX_ORDER.items():
        for order in range(2, top + 1):
            F, costs["framed-recursion"][f"{m},{order}"] = timed(
                central.framed_recursion, m, order)
        for d, c in enumerate(F.coeffs):
            framed[f"{m},{d}"] = entry(c.to_laurent())
        print("framed", m, flush=True)

    for m in FUNCEQ_M:
        for order in FUNCEQ_ORDERS:
            F, cost = timed(central.solve_functional_eq, m, order)
            if cost > FUNCEQ_COST_CAP_S:
                break
            for d, c in enumerate(F.coeffs):
                if framed[f"{m},{d}"]["sha"] != digest(c.to_laurent()):
                    raise SystemExit(f"funceq disagrees with recursion at {m},{d}")
            costs["funceq"][f"{m},{order}"] = cost
        print("funceq", m, flush=True)

    record = {
        "commit": commit,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "moduli": moduli,
        "framed": framed,
        "cost_s": costs,
    }
    OUT.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
