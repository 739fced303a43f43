"""Seeded task lists for the four workloads.

Every workload is a closed loop with one client: one task at a time, the
next issued only after the previous one finished.  A task list depends on
the workload, ``--seed`` and ``--seconds`` only, never on the program under
test:

* the *set* of task sizes is fixed by ``--seconds``: pool tasks are taken
  cheapest first, by their cost at the seed commit (``seed_record.json``),
  until the budget is filled, so every seed and every commit runs the same
  amount of work;
* the seed chooses among tasks of equal cost (the orientation of (d, e),
  which small CLI instance) and the order of the tasks.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from math import gcd
from pathlib import Path

RECORD = json.loads((Path(__file__).resolve().parent / "seed_record.json").read_text())

LIBRARY = ("hn-sweep", "framed-recursion", "funceq")
WORKLOADS = LIBRARY + ("cli-session",)

# The benchmark re-issues every library task once to time the repeat path.
# funceq has no in-process cache, so its repeat costs as much as the task.
REPEAT_COST = {"hn-sweep": 0.0, "framed-recursion": 0.0, "funceq": 1.0}

# Warm-up calls: same code paths as the tasks, parameters outside every pool.
WARMUP = {"hn-sweep": (3, 2, 3), "framed-recursion": (3, 1), "funceq": (7, 1)}


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}/{seed}")


def _key(*xs) -> str:
    return ",".join(str(x) for x in xs)


def _by_cost(workload: str, seconds: float) -> list[tuple[int, ...]]:
    costs = RECORD["cost_s"][workload]
    factor = 1.0 + REPEAT_COST[workload]
    chosen, total = [], 0.0
    for key, cost in sorted(costs.items(), key=lambda kv: (kv[1], kv[0])):
        if total + cost * factor > seconds:
            break
        total += cost * factor
        chosen.append(tuple(int(x) for x in key.split(",")))
    return chosen


def nonempty(m: int, d: int, e: int) -> bool:
    """K_{d,e}^(m) is non-empty (recorded Euler characteristic > 0)."""
    entry = RECORD["moduli"].get(_key(m, d, e))
    return entry is not None and entry["chi"] > 0


def library_tasks(workload: str, seed: int, seconds: float) -> list[tuple[int, ...]]:
    """Task parameters: (m, d, e) for hn-sweep, (m, order) otherwise."""
    rng = _rng(workload, seed)
    sizes = _by_cost(workload, seconds)
    if workload == "hn-sweep":
        # the most balanced coprime (d, e) with d < e, in seeded orientation:
        # both orientations cost the same, unlike pairs of different balance
        tasks = []
        for m, s in sizes:
            d = max(d for d in range(1, (s + 1) // 2) if gcd(d, s - d) == 1)
            tasks.append((m, *rng.choice([(d, s - d), (s - d, d)])))
    else:
        tasks = list(sizes)
    rng.shuffle(tasks)
    return tasks


# -- cli-session ---------------------------------------------------------------

@dataclass(frozen=True)
class Request:
    """One `kronmot` invocation and what its output must be."""

    argv: tuple[str, ...]
    exit_code: int
    check: str             # which oracle parses stdout; "" for error paths
    params: tuple[int, ...]


def _framed(method):
    def make(m, d):
        return Request(("framed", "--m", str(m), "--d", str(d), "--method", method),
                       0, "framed", (m, d))
    return make


def _moduli(m, d, e):
    return Request(("moduli", "--m", str(m), "--d", str(d), "--e", str(e)),
                   0, "moduli", (m, d, e))


def _hn(m, bound):
    return Request(("hn", "--m", str(m), "--bound", str(bound)), 0, "hn", (m, bound))


def _series(which):
    def make(m, order):
        return Request(("series", "--which", which, "--m", str(m),
                        "--order", str(order)), 0, "series" + which, (m, order))
    return make


def _euler(kind):
    def make(m, d):
        return Request(("euler", "--kind", kind, "--m", str(m), "--d", str(d),
                        "--check"), 0, "euler-" + kind, (m, d))
    return make


def _tamari(mprime, n):
    return Request(("tamari", "--m-prime", str(mprime), "--n", str(n), "--check"),
                   0, "tamari", (mprime, n))


def _verify(identity):
    def make(m, order):
        return Request(("verify", "--identity", identity, "--m", str(m),
                        "--order", str(order)), 0, "verify", (m, order))
    return make


def _noncoprime(m, d, e):
    return Request(("moduli", "--m", str(m), "--d", str(d), "--e", str(e)),
                   2, "", (m, d, e))


def _framed_m2(m, d):
    return Request(("framed", "--m", str(m), "--d", str(d)), 2, "", (m, d))


def _over_cap(mprime, n):
    # 10 ballot paths is below every Fuss-Catalan count drawn here
    return Request(("--max-paths", "10", "tamari", "--m-prime", str(mprime),
                    "--n", str(n), "--check"), 4, "", (mprime, n))


_SMALL_COPRIME = [(m, d, s - d) for m in range(3, 7) for s in range(5, 8)
                  for d in range(1, s) if gcd(d, s - d) == 1 and nonempty(m, d, s - d)]

# (requests drawn per 12 s of budget, request maker, parameter choices).
# All instances are small: interpreter start-up, import, dispatch, the disk
# cache and output dominate, which is what this workload is for.  The
# choices of one kind cost about the same, so that the seed moves the slow
# tail of the session as little as possible.
CLI_KINDS = [
    (4, _framed("recursion"), [(m, d) for m in (3, 4, 5) for d in range(2, 7)]),
    (3, _framed("funceq"), [(3, 4), (4, 3), (5, 2)]),
    (3, _framed("wallcross"), [(3, 4), (4, 2), (4, 3)]),
    (2, _framed("all"), [(3, 3), (4, 2)]),
    (6, _moduli, _SMALL_COPRIME),
    (3, _hn, [(m, b) for m in (3, 4) for b in (5, 6, 7)]),
    (3, _series("F"), [(m, o) for m in (3, 4, 5) for o in (3, 4, 5)]),
    (2, _series("G"), [(m, o) for m in (3, 4) for o in (3, 4)]),
    (3, _euler("framed"), [(m, d) for m in range(3, 7) for d in range(2, 5)]),
    (2, _euler("moduli"), [(m, d) for m in range(3, 7) for d in range(2, 5)]),
    (3, _tamari, [(1, 3), (1, 4), (1, 5), (2, 2), (2, 3), (2, 4), (3, 3)]),
    (1, _verify("maintheorem"), [(3, 3), (3, 4), (4, 3)]),
    (1, _verify("vdifference"), [(3, 3), (3, 4), (4, 3)]),
    (1, _verify("funceq"), [(3, 3), (3, 4)]),
    (1, _verify("eqnew"), [(3, 3), (4, 3)]),
    (1, _verify("dualities"), [(3, 4)]),
    (1, _verify("corident"), [(3, 2), (3, 3)]),
    (1, _verify("newduality"), [(3, 2), (3, 3)]),
    (2, _noncoprime, [(m, d, e) for m in (3, 4, 5) for d, e in ((2, 4), (3, 3), (2, 2))]),
    (1, _framed_m2, [(2, d) for d in (1, 2, 3)]),
    (2, _over_cap, [(2, 4), (2, 5), (3, 4)]),
]

CLI_BASE_SECONDS = 12.0


def cli_requests(seed: int, seconds: float) -> list[tuple[Request, bool]]:
    """The session: (request, is_repeat), each distinct request issued twice."""
    rng = _rng("cli-session", seed)
    scale = seconds / CLI_BASE_SECONDS
    distinct = []
    for count, make, choices in CLI_KINDS:
        n = min(len(choices), max(1, round(count * scale)))
        distinct += [make(*p) for p in rng.sample(choices, n)]
    slots = distinct * 2
    rng.shuffle(slots)
    seen, session = set(), []
    for req in slots:
        session.append((req, req in seen))
        seen.add(req)
    return session
