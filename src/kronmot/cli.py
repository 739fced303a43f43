"""Command-line surface, on the standard library's ``argparse``.

Exit codes: 0 success, 1 verification failure, 2 invalid input,
3 internal inconsistency (methods disagree), 4 resource limit,
130 interrupted (Ctrl-C).  Commands print their results through ``_emit``
and return nothing; ``main`` refuses a ``--format`` the command does not
declare, maps every error a command raises to 1, 2, 3 or 4, and an
interrupt to 130, and returns the code, so ``main`` run in process exits
as the console script does.  argparse's own usage errors exit 2, and
``--help`` exits 0, by raising ``SystemExit``.
"""

from __future__ import annotations

import argparse
import json
import sys
from math import gcd

from .cache import SCHEMA, Cache
from .errors import (DEFAULT_MAX_PATHS, KronmotError, ResourceLimitError,
                     VerificationError)
from .exactalg import LaurentPoly, RatFunc

# Each solver is imported where a command runs it: inside the compute step
# of a cached command, so a cache hit loads none of them, and ``tamari``
# inside its own command.  Submodules are imported by their own path:
# ``from . import X`` would consult the package's ``__getattr__``.

# the exit code of an error a command raises: that of the first class in
# this list that it is an instance of
_EXIT_CODES = ((VerificationError, 1), (ValueError, 2),
               (ResourceLimitError, 4), (KronmotError, 3))


def _coeff_list(p: LaurentPoly) -> list[str]:
    """Coefficients in ascending exponent order, table style (step 2 when
    the exponents all share parity)."""
    if p.is_zero():
        return ["0"]
    step = 2 if all(c == 0 for c in p.coeffs[1::2]) else 1
    return [str(c) for c in p.coeffs[::step]]


def _poly_lines(p: LaurentPoly) -> list[str]:
    """Plain form of a motive: one line per nonzero term, then the table row."""
    lines = [f"{p.min_exp + i}: {c}" for i, c in enumerate(p.coeffs) if c != 0]
    return lines + [",".join(_coeff_list(p))]


def _emit(args, result, lines, csv_row=()):
    """Print a result in the --format asked for: ``result`` in the JSON
    envelope, the fields of ``csv_row`` as one csv line, or plain ``lines``."""
    if args.fmt == "json":
        print(json.dumps({"schema": SCHEMA, "command": args.command,
                          "result": result}, sort_keys=True))
    elif args.fmt == "csv":
        print(",".join(str(x) for x in csv_row))
    else:
        for line in lines:
            print(line)


def _cached(args, command: str, params: dict, compute, canonical):
    """The JSON payload of a result, from the cache when its entry is valid.

    The entry is stored under ``command`` and ``params``.  ``compute()``
    returns the payload.  ``canonical(payload)`` rebuilds a payload through
    the library's decoders and raises on a wrong shape or a broken rule.
    A cached payload that does not come back from it unchanged is discarded
    and recomputed.
    """
    cache = Cache(args.cache_dir, enabled=not args.no_cache)
    key = Cache.make_key(command, **params)
    payload = cache.get(key)
    if payload is not None:
        try:
            if (json.dumps(canonical(payload), sort_keys=True)
                    == json.dumps(payload, sort_keys=True)):
                return payload
        except (LookupError, TypeError, ValueError, ArithmeticError, KronmotError):
            pass
    payload = compute()
    cache.put(key, payload)
    return payload


def _certified(args, command: str, params: dict, method: str,
               compute) -> LaurentPoly:
    """A motive through its ``command`` cache entry, certified.

    ``params`` holds m, d and, for ``moduli``, e; a ``framed`` motive is
    central, e = d.  Every motive passes ``eulerchar.certify``: a cached
    one that fails is discarded and recomputed, and a fresh one that fails
    raises ``KronmotError`` (exit 3) naming ``method`` and the property.
    """
    from .eulerchar import certify

    def checked(motive, blame=""):
        try:
            certify(command, params["m"], params["d"], params.get("e", params["d"]),
                    motive)
        except KronmotError as exc:
            raise KronmotError(blame + str(exc)) from None
        return motive.to_json()

    return LaurentPoly.from_json(_cached(
        args, command, params, lambda: checked(compute(), f"{method}: "),
        lambda payload: checked(LaurentPoly.from_json(payload))))


def _framed_motive(args, m: int, d: int, method: str) -> LaurentPoly:
    """[K_{d,d}^(m),fr] by one method, through its ``framed`` cache entry."""

    def compute():
        if method == "wallcross":
            from .wallcross import framed_via_quotient

            return framed_via_quotient(m, (1, 1), d).coeffs[d]
        from .central import framed_recursion, solve_functional_eq

        solve = framed_recursion if method == "recursion" else solve_functional_eq
        return solve(m, d).coeffs[d].to_laurent()

    return _certified(args, "framed", {"m": m, "d": d, "method": method}, method,
                      compute)


def _moduli_motive(args, m: int, d: int, e: int) -> LaurentPoly:
    """[K_{d,e}^(m)], through its ``moduli`` cache entry."""

    def compute():
        from .wallcross import moduli_motive

        return moduli_motive(m, d, e)

    return _certified(args, "moduli", {"m": m, "d": d, "e": e}, "wallcross",
                      compute)


def _hn_vectors(bound: int) -> list[tuple[int, int]]:
    """Every (d, e) with d+e <= bound, in the order of the ``hn`` records:
    by d+e, then by d."""
    return [(d, s - d) for s in range(bound + 1) for d in range(s + 1)]


def _hn_record(m: int, d: int, e: int, a: RatFunc, motive) -> dict:
    """The ``hn`` record of (d, e): a_D, whose denominator divides
    (q;q)_d (q;q)_e and so has lowest coefficient 1, and the motive, or None
    exactly where gcd(d, e) > 1, which passes ``eulerchar.certify`` unless
    (d, e) = (0, 0).  A record that breaks a rule raises ``KronmotError``:
    a cached one is discarded, a fresh one exits 3."""
    from .eulerchar import certify

    if a.den.coeffs[0] != 1:
        raise KronmotError(f"the denominator of a_({d},{e}) has lowest "
                           "coefficient other than 1")
    if (motive is None) != (gcd(d, e) > 1):
        raise KronmotError(f"({d},{e}): the motive is null iff gcd(d, e) > 1")
    if motive is not None and (d or e):
        certify("moduli", m, d, e, motive)
    return {"d": d, "e": e, "a": a.to_json(),
            "motive": None if motive is None else motive.to_json()}


def _canonical_records(records, m: int, bound: int) -> list[dict]:
    """Re-encode cached ``hn`` records for d+e <= bound (``_hn_record``)."""
    vectors = _hn_vectors(bound)
    if len(records) != len(vectors):
        raise ValueError("wrong number of records")
    return [_hn_record(m, d, e, RatFunc.from_json(rec["a"]),
                       None if rec["motive"] is None
                       else LaurentPoly.from_json(rec["motive"]))
            for (d, e), rec in zip(vectors, records)]


def _canonical_series(payload, which: str, m: int, order: int) -> dict:
    """Re-encode a ``TruncSeries.to_json`` payload of the given order.

    Each coefficient of A^(k) is a quotient whose denominator has lowest
    coefficient 1, and each of F and G a Laurent polynomial that passes
    ``eulerchar.certify``: F_d is the framed motive of (d, d), G_d for
    d >= 1 the moduli motive of (d, d-1), and G_0 is 1."""
    if payload["order"] != order:
        raise ValueError("series of the wrong order")
    from .eulerchar import certify
    from .qseries import TruncSeries

    ts = TruncSeries.from_json(payload)
    if not all(c.den.coeffs[0] == 1 and (which == "A" or c.is_laurent())
               for c in ts.coeffs):
        raise ValueError(f"a coefficient of {which} has the wrong form")
    if which == "G" and ts.coeffs[0] != 1:
        raise ValueError("G_0 is not 1")
    for d, c in enumerate(ts.coeffs):
        if which == "F":
            certify("framed", m, d, d, c.num)
        elif which == "G" and d:
            certify("moduli", m, d, d - 1, c.num)
    return ts.to_json()


def framed(args):
    """Virtual motive of the framed moduli space K_{d,d}^(m),fr."""
    m, d, method = args.m, args.d, args.method
    if m < 3 or d < 0:
        raise ValueError("need m >= 3 and d >= 0")
    methods = ("recursion", "funceq", "wallcross") if method == "all" else (method,)
    motives = {name: _framed_motive(args, m, d, name) for name in methods}
    poly = motives[methods[0]]
    if differ := [name for name, p in motives.items() if p != poly]:
        raise KronmotError(f"methods disagree with {methods[0]}: "
                           + ", ".join(differ))
    _emit(args, {"m": m, "d": d, "motive": poly.to_json()},
          _poly_lines(poly), [m, d, poly.min_exp, *_coeff_list(poly)])


def moduli(args):
    """Virtual motive of K_{d,e}^(m) for coprime (d,e)."""
    m, d, e = args.m, args.d, args.e
    if m < 1 or d < 0 or e < 0 or (d, e) == (0, 0):
        raise ValueError("invalid parameters")
    if gcd(d, e) != 1:
        raise ValueError(
            f"({d},{e}) is not coprime; the motive is not determined by a_D. "
            "Use the `hn` subcommand for the raw wall-crossing table.")
    poly = _moduli_motive(args, m, d, e)
    _emit(args, {"m": m, "d": d, "e": e, "motive": poly.to_json()},
          _poly_lines(poly), [m, d, e, poly.min_exp, *_coeff_list(poly)])


def hn(args):
    """Raw wall-crossing coefficient table a_D for d+e <= bound."""
    m, bound = args.m, args.bound
    if m < 1 or bound < 0:
        raise ValueError("invalid parameters")

    def compute():
        from .wallcross import hn_extract

        table = hn_extract(m, bound)
        return [_hn_record(m, d, e, table.a((d, e)),
                           LaurentPoly.one() if d == e == 0
                           else table.motive((d, e)) if gcd(d, e) == 1 else None)
                for d, e in _hn_vectors(bound)]

    records = _cached(args, "hn", {"m": m, "bound": bound}, compute,
                      lambda p: _canonical_records(p, m, bound))

    def line(rec):
        motive = rec["motive"]
        desc = (",".join(_coeff_list(LaurentPoly.from_json(motive)))
                if motive is not None else "-")
        return f"({rec['d']},{rec['e']}) motive: {desc}"

    _emit(args, records, map(line, records))


def series(args):
    """Truncated generating series F, G, or A^(k)."""
    which, m, order = args.which, args.m, args.order
    if order < 0:
        raise ValueError("order must be >= 0")
    if which != "A" and args.k is not None:
        raise ValueError("--k applies only to --which A")
    # k=1 stays in the cache key of F and G
    k = 1 if args.k is None else args.k
    # every check that exits 2 runs before the cache is read
    if which != "A" and m < 3:
        raise ValueError("central-slope series need m >= 3")
    if which == "A" and not 1 <= k <= m - 1:
        raise ValueError("need 1 <= k <= m-1")

    def compute():
        if which != "A":
            from .central import extract_G, framed_recursion

            ts = framed_recursion(m, order)
            if which == "G":
                ts = extract_G(m, ts)
        else:
            from .wallcross import MotiveTable

            table = MotiveTable.covering(m, [(order, order * k)])
            ts = table.ray_series((1, k), order)
        return ts.to_json()

    payload = _cached(args, "series",
                      {"which": which, "m": m, "k": k, "order": order},
                      compute, lambda p: _canonical_series(p, which, m, order))

    def line(dd, coeff):
        num = ",".join(_coeff_list(LaurentPoly.from_json(coeff["num"])))
        den = LaurentPoly.from_json(coeff["den"])
        if den == LaurentPoly.one():
            return f"t^{dd}: {num}"
        return f"t^{dd}: ({num}) / ({','.join(_coeff_list(den))})"

    _emit(args, payload,
          (line(dd, coeff) for dd, coeff in enumerate(payload["coeffs"])))


def euler(args):
    """Euler characteristic of K_{d,d}^(m),fr or K_{d,d-1}^(m)."""
    from .eulerchar import chi_framed_closed, chi_from_motive, chi_moduli_closed

    m, d, kind = args.m, args.d, args.kind
    value = (chi_framed_closed if kind == "framed" else chi_moduli_closed)(m, d)
    if args.check:
        motive = (_framed_motive(args, m, d, "recursion") if kind == "framed"
                  else _moduli_motive(args, m, d, d - 1))
        if chi_from_motive(motive) != value:
            raise VerificationError("closed form and motive sum disagree")
    _emit(args, {"m": m, "d": d, "kind": kind, "value": value},
          [str(value)], [m, d, kind, value])


def tamari(args):
    """Interval count of the m'-Tamari lattice of index n."""
    from .tamari import interval_count_bruteforce, interval_count_formula

    mprime, n = args.m_prime, args.n
    cap = DEFAULT_MAX_PATHS if args.max_paths is None else args.max_paths
    if args.check:
        brute = interval_count_bruteforce(mprime, n, cap)
        formula = interval_count_formula(mprime, n)
        if brute != formula:
            raise VerificationError("brute force and formula disagree")
        value = formula
    elif args.method == "brute":
        value = interval_count_bruteforce(mprime, n, cap)
    else:
        value = interval_count_formula(mprime, n)
    _emit(args, {"m_prime": mprime, "n": n, "value": value},
          [str(value)], [mprime, n, value])


# identity -> the module and function that check it, imported when run
_VERIFIERS = {
    "maintheorem": ("central", "verify_main_theorem"),
    "vdifference": ("central", "verify_vdifference"),
    "funceq": ("central", "verify_funceq"),
    "eqnew": ("central", "verify_eqnew"),
    "corident": ("central", "verify_corident"),
    "newduality": ("central", "verify_newduality"),
    "dualities": ("wallcross", "verify_dualities"),
}


def verify(args):
    """Check a series identity exactly; exit 0 iff every check passes."""
    identity, m, k, order = args.identity, args.m, args.k, args.order
    if order < 1:
        raise ValueError("order must be >= 1")
    needs_k = identity in ("corident", "newduality")
    if k is not None and not needs_k:
        raise ValueError("--k applies only to --identity corident and newduality")
    if needs_k and k is None and m < 2:
        # no 1 <= k <= m-1 to check
        raise ValueError(f"--identity {identity} needs m >= 2")
    module, name = _VERIFIERS[identity]
    verifier = getattr(__import__(f"kronmot.{module}", fromlist=[name]), name)
    reports = verifier(m, k, order) if needs_k else verifier(m, order)

    def line(r):
        tail = "".join(f" {key}={r[key]}" for key in ("k", "order", "pair")
                       if r.get(key) is not None)
        return f"{r['status'].upper()} {r['identity']} m={r['m']}{tail}"

    _emit(args, reports, map(line, reports))
    failed = sum(r["status"] != "pass" for r in reports)
    if failed:
        raise VerificationError(f"{failed} of {len(reports)} checks failed")


def selftest(args):
    """Run the full acceptance suite (criteria 1-6)."""
    from .selftest import CRITERIA, run

    failed = 0
    # one criterion's lines as it finishes: the result on stdout, the time
    # on stderr
    for name, passed, error, seconds in run():
        _emit(args, None, ([] if error is None else [f"ERROR {name}: {error}"])
              + [f"{'PASS' if passed else 'FAIL'} {name}"])
        print(f"{name}: {seconds:.1f}s", file=sys.stderr)
        failed += not passed
    if failed:
        raise VerificationError(f"{failed} of {len(CRITERIA)} checks failed")


def _non_empty(text: str) -> str:
    if not text:
        raise argparse.ArgumentTypeError("must not be empty")
    return text


def _non_negative(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"{value} is not >= 0")
    return value


# a required integer option, and an on/off flag
_INT = {"type": int, "required": True}
_FLAG = {"action": "store_true"}

# the --format values of a command with a one-line csv form, of one
# without, and of a plain report
_CSV = ("plain", "json", "csv")
_NO_CSV = ("plain", "json")
_PLAIN = ("plain",)

# each command, its options, as (flag, keyword arguments of add_argument),
# and the --format values it accepts
_COMMANDS = {
    framed: ([("--m", _INT), ("--d", _INT),
              ("--method", {"choices": ["recursion", "funceq", "wallcross", "all"],
                            "default": "recursion"})], _CSV),
    moduli: ([("--m", _INT), ("--d", _INT), ("--e", _INT)], _CSV),
    hn: ([("--m", _INT), ("--bound", _INT)], _NO_CSV),
    series: ([("--which", {"choices": ["F", "G", "A"], "required": True}),
              ("--m", _INT),
              ("--k", {"type": int, "help": "Slope parameter for the A series "
                                            "(ray (1,k)); default 1."}),
              ("--order", _INT)], _NO_CSV),
    euler: ([("--m", _INT), ("--d", _INT),
             ("--kind", {"choices": ["framed", "moduli"], "required": True}),
             ("--check", {**_FLAG, "help": "Compare the closed form against "
                                           "the motive sum."})], _CSV),
    tamari: ([("--m-prime", _INT), ("--n", _INT),
              ("--method", {"choices": ["brute", "formula"], "default": "formula"}),
              ("--check", {**_FLAG, "help": "Run both methods and compare."})],
             _CSV),
    verify: ([("--identity", {"choices": sorted(_VERIFIERS), "required": True}),
              ("--m", _INT), ("--k", {"type": int}), ("--order", _INT)], _NO_CSV),
    selftest: ([], _PLAIN),
}


def _format_refusal(args) -> str:
    """Why the command does not print in the --format asked for."""
    offer = ("it prints a plain report only" if _COMMANDS[args.run][1] == _PLAIN
             else "it is supported by: " + ", ".join(
                 run.__name__ for run, (_, forms) in _COMMANDS.items()
                 if args.fmt in forms))
    return f"--format {args.fmt} is not supported by `{args.command}`; {offer}"


def _parser() -> argparse.ArgumentParser:
    # abbreviated options are refused, before and after the command name
    parser = argparse.ArgumentParser(
        prog="kronmot", allow_abbrev=False,
        description="Exact virtual motives of Kronecker quiver moduli.")
    parser.add_argument("--format", dest="fmt", choices=["plain", "json", "csv"],
                        default="plain")
    parser.add_argument("--cache-dir", type=_non_empty,
                        help="Cache directory (or set KRONMOT_CACHE_DIR).")
    parser.add_argument("--no-cache", **_FLAG)
    parser.add_argument("--max-paths", type=_non_negative,
                        help=f"Ballot-path enumeration cap of `tamari --method "
                             f"brute` and `tamari --check` (default "
                             f"{DEFAULT_MAX_PATHS}).")
    commands = parser.add_subparsers(dest="command", metavar="COMMAND",
                                     required=True)
    for run, (options, _) in _COMMANDS.items():
        doc = run.__doc__.splitlines()[0]
        sub = commands.add_parser(run.__name__, allow_abbrev=False, help=doc,
                                  description=doc)
        for flag, kwargs in options:
            sub.add_argument(flag, **kwargs)
        sub.set_defaults(run=run)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one ``kronmot`` request and return its exit code.

    Every error a command raises ends in its exit code (``_EXIT_CODES``),
    with the message on stderr: ``VerificationError`` 1, ``ValueError`` 2,
    ``ResourceLimitError`` 4, any other ``KronmotError`` 3.  An interrupt
    (``KeyboardInterrupt``) ends in 130 with one line on stderr.  A command
    prints only through ``_emit``, in a ``--format`` its entry in
    ``_COMMANDS`` accepts; any other is refused here, with exit 2, before
    the command runs.  Exact results print in full: the interpreter's cap
    on the digits of an int's decimal string is lifted while the command
    runs, and restored on return.
    """
    args = _parser().parse_args(argv)
    # sys.set_int_max_str_digits is new in 3.11 (and in 3.10.7 and later)
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        # the cap is read by the one command that enumerates ballot paths
        if args.max_paths is not None and not (
                args.command == "tamari" and (args.check or args.method == "brute")):
            raise ValueError("--max-paths applies only to `tamari --method brute` "
                             "and `tamari --check`")
        if args.fmt not in _COMMANDS[args.run][1]:
            raise ValueError(_format_refusal(args))
        args.run(args)
        return 0
    except (ValueError, KronmotError) as exc:
        print(exc, file=sys.stderr)
        return next(code for error, code in _EXIT_CODES if isinstance(exc, error))
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


def _entry():
    """The console script."""
    sys.exit(main())


if __name__ == "__main__":
    _entry()
