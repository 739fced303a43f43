"""Command-line surface, on the standard library's ``argparse``.

Exit codes: 0 success, 1 verification failure, 2 invalid input,
3 internal inconsistency (methods disagree), 4 resource limit,
130 interrupted (Ctrl-C).  Commands print their results through ``_emit``
and return nothing; ``main`` refuses a ``--format`` the command does not
declare, maps every error a command raises to 1, 2, 3 or 4, and an
interrupt to 130, and returns the code, so ``main`` run in process exits
as the console script does.  argparse's own usage errors exit 2, and
``--help`` exits 0, by raising ``SystemExit``.

The four cached commands, ``framed``, ``moduli``, ``hn`` and ``series``,
get every result through ``_cached``, which runs the command's one check
on fresh and cached results alike; a fresh result that fails it exits 3
naming its method.
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


def _cached(args, command: str, params: dict, method: str, compute, decode,
            check):
    """One cache entry's life cycle: a result and its JSON payload, from the
    cache when the entry is valid, else computed and stored.

    The entry is stored under ``command`` and ``params``.  ``compute()``
    returns a fresh result, and ``decode(payload)`` rebuilds one through the
    library's decoders.  ``check(result)`` is the command's one rule set,
    run on fresh and cached results alike: it returns the result's payload
    or raises ``KronmotError``.  A cached payload that fails ``decode`` or
    ``check``, or does not re-encode to itself, is discarded and recomputed.
    A fresh result that fails ``check`` raises ``KronmotError`` (exit 3)
    naming ``method``, and is not stored; an error ``compute()`` raises
    passes unchanged.  The result is decoded at most once: on a hit.
    """
    cache = Cache(args.cache_dir, enabled=not args.no_cache)
    key = Cache.make_key(command, **params)
    payload = cache.get(key)
    if payload is not None:
        try:
            result = decode(payload)
            if (json.dumps(check(result), sort_keys=True)
                    == json.dumps(payload, sort_keys=True)):
                return result, payload
        except (LookupError, TypeError, ValueError, ArithmeticError, KronmotError):
            pass
    result = compute()
    try:
        payload = check(result)
    except KronmotError as exc:
        raise KronmotError(f"{method}: {exc}") from None
    cache.put(key, payload)
    return result, payload


def _motive(kind: str, m: int, d: int, e: int, motive: LaurentPoly) -> dict:
    """The check of a ``framed`` (e = d) or ``moduli`` motive:
    ``eulerchar.certify``."""
    from .eulerchar import certify

    certify(kind, m, d, e, motive)
    return motive.to_json()


def _framed_motive(args, m: int, d: int, method: str) -> LaurentPoly:
    """[K_{d,d}^(m),fr] by one method, through its ``framed`` cache entry."""

    def compute():
        if method == "wallcross":
            from .wallcross import framed_via_quotient

            return framed_via_quotient(m, (1, 1), d).coeffs[d]
        from .central import framed_recursion, solve_functional_eq

        solve = framed_recursion if method == "recursion" else solve_functional_eq
        return solve(m, d).coeffs[d].to_laurent()

    return _cached(args, "framed", {"m": m, "d": d, "method": method}, method,
                   compute, LaurentPoly.from_json,
                   lambda motive: _motive("framed", m, d, d, motive))[0]


def _moduli_motive(args, m: int, d: int, e: int) -> LaurentPoly:
    """[K_{d,e}^(m)], through its ``moduli`` cache entry."""

    def compute():
        from .wallcross import moduli_motive

        return moduli_motive(m, d, e)

    return _cached(args, "moduli", {"m": m, "d": d, "e": e}, "wallcross",
                   compute, LaurentPoly.from_json,
                   lambda motive: _motive("moduli", m, d, e, motive))[0]


def _hn_vectors(bound: int) -> list[tuple[int, int]]:
    """Every (d, e) with d+e <= bound, in the order of the ``hn`` records:
    by d+e, then by d."""
    return [(d, s - d) for s in range(bound + 1) for d in range(s + 1)]


def _hn_records(records, m: int, bound: int) -> list[dict]:
    """The check of the ``hn`` records: one (a_D, motive) pair for each
    (d, e) of ``_hn_vectors(bound)``.  a_D's denominator divides
    (q;q)_d (q;q)_e and so has lowest coefficient 1, and the motive is None
    exactly where gcd(d, e) > 1, and passes ``eulerchar.certify`` unless
    (d, e) = (0, 0), where a_D and the motive are both 1."""
    from .eulerchar import certify

    vectors = _hn_vectors(bound)
    if len(records) != len(vectors):
        raise KronmotError(f"{len(records)} records, not {len(vectors)}")
    payload = []
    for (d, e), (a, motive) in zip(vectors, records):
        if a.den.coeffs[0] != 1:
            raise KronmotError(f"the denominator of a_({d},{e}) has lowest "
                               "coefficient other than 1")
        if (motive is None) != (gcd(d, e) > 1):
            raise KronmotError(f"({d},{e}): the motive is null iff gcd(d, e) > 1")
        if not (d or e):
            if (a, motive) != (1, 1):
                raise KronmotError("(0,0): a_D and the motive are not both 1")
        elif motive is not None:
            certify("moduli", m, d, e, motive)
        payload.append({"d": d, "e": e, "a": a.to_json(),
                        "motive": None if motive is None else motive.to_json()})
    return payload


def _series_payload(ts, which: str, m: int, order: int) -> dict:
    """The check of a series of the given order.

    Each coefficient of A^(k) is a quotient whose denominator has lowest
    coefficient 1, and each of F and G a Laurent polynomial that passes
    ``eulerchar.certify``: F_d is the framed motive of (d, d), G_d for
    d >= 1 the moduli motive of (d, d-1), and G_0 is 1."""
    from .eulerchar import certify

    if ts.order != order:
        raise KronmotError(f"a series of order {ts.order}, not {order}")
    coeffs = [RatFunc.of(c) for c in ts.coeffs]
    if not all(c.den.coeffs[0] == 1 and (which == "A" or c.is_laurent())
               for c in coeffs):
        raise KronmotError(f"a coefficient of {which} has the wrong form")
    if which == "G" and coeffs[0] != 1:
        raise KronmotError("G_0 is not 1")
    for d, c in enumerate(coeffs):
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
        return [(table.a((d, e)), LaurentPoly.one() if d == e == 0
                 else table.motive((d, e)) if gcd(d, e) == 1 else None)
                for d, e in _hn_vectors(bound)]

    def decode(payload):
        return [(RatFunc.from_json(rec["a"]), None if rec["motive"] is None
                 else LaurentPoly.from_json(rec["motive"])) for rec in payload]

    records, payload = _cached(args, "hn", {"m": m, "bound": bound}, "wallcross",
                               compute, decode,
                               lambda rs: _hn_records(rs, m, bound))
    _emit(args, payload, (
        f"({d},{e}) motive: "
        + ("-" if motive is None else ",".join(_coeff_list(motive)))
        for (d, e), (_, motive) in zip(_hn_vectors(bound), records)))


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
            return extract_G(m, ts) if which == "G" else ts
        from .wallcross import MotiveTable

        return MotiveTable.covering(m, [(order, order * k)]).ray_series((1, k), order)

    from .qseries import TruncSeries

    ts, payload = _cached(args, "series",
                          {"which": which, "m": m, "k": k, "order": order},
                          "wallcross" if which == "A" else "recursion",
                          compute, TruncSeries.from_json,
                          lambda got: _series_payload(got, which, m, order))

    def line(dd, coeff):
        num = ",".join(_coeff_list(coeff.num))
        if coeff.is_laurent():
            return f"t^{dd}: {num}"
        return f"t^{dd}: ({num}) / ({','.join(_coeff_list(coeff.den))})"

    _emit(args, payload, (line(dd, RatFunc.of(c)) for dd, c in enumerate(ts.coeffs)))


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
