"""Command-line surface.

Exit codes: 0 success, 1 verification failure, 2 invalid input,
3 internal inconsistency (methods disagree), 4 resource limit.
"""

from __future__ import annotations

import json
import sys

import click
from click.core import ParameterSource

from .cache import SCHEMA, Cache
from .errors import (
    InsufficientBoundError,
    KronmotError,
    NonCoprimeError,
    ResourceLimitError,
)
from .exactalg import LaurentPoly, RatFunc
# Each solver is imported where a command runs it, inside the compute step
# of a cached command, so a cache hit loads none of them.  Submodules are
# imported by their own path: ``from . import X`` would consult the
# package's ``__getattr__``.
from .tamari import (DEFAULT_MAX_PATHS, interval_count_bruteforce,
                     interval_count_formula)

EXIT_VERIFY_FAIL = 1
EXIT_BAD_INPUT = 2
EXIT_INCONSISTENT = 3
EXIT_RESOURCE = 4

# the commands whose results have a one-line csv form
CSV_COMMANDS = ("framed", "moduli", "euler", "tamari")


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


def _emit(ctx, command: str, result, lines, csv_row=()):
    """Print a result in the --format asked for: ``result`` in the JSON
    envelope, the fields of ``csv_row`` as one csv line, or plain ``lines``."""
    fmt = ctx.obj["fmt"]
    if fmt == "json":
        click.echo(json.dumps({"schema": SCHEMA, "command": command,
                               "result": result}, sort_keys=True))
    elif fmt == "csv":
        click.echo(",".join(str(x) for x in csv_row))
    else:
        for line in lines:
            click.echo(line)


@click.group()
@click.option("--format", "fmt", type=click.Choice(["plain", "json", "csv"]),
              default="plain", show_default=True)
@click.option("--cache-dir", type=click.Path(), default=None,
              help="Cache directory (or set KRONMOT_CACHE_DIR).")
@click.option("--no-cache", is_flag=True, default=False)
@click.option("--max-paths", type=click.IntRange(min=0),
              default=DEFAULT_MAX_PATHS, show_default=True,
              help="Ballot-path enumeration cap.")
@click.pass_context
def main(ctx, fmt, cache_dir, no_cache, max_paths):
    """Exact virtual motives of Kronecker quiver moduli."""
    ctx.ensure_object(dict)
    ctx.obj["fmt"] = fmt
    ctx.obj["cache"] = Cache(cache_dir, enabled=not no_cache)
    ctx.obj["max_paths"] = max_paths


def _cached(ctx, command: str, params: dict, compute, canonical):
    """The JSON payload of a result, from the cache when its entry is valid.

    ``compute()`` returns the payload.  ``canonical(payload)`` rebuilds a
    payload through the library's decoders and raises on a wrong shape.  A
    cached payload that does not come back from it unchanged is discarded
    and recomputed.
    """
    cache: Cache = ctx.obj["cache"]
    key = Cache.make_key(command, **params)
    payload = cache.get(key)
    if payload is not None:
        try:
            if (json.dumps(canonical(payload), sort_keys=True)
                    == json.dumps(payload, sort_keys=True)):
                return payload
        except (LookupError, TypeError, ValueError, ArithmeticError):
            pass
    payload = compute()
    cache.put(key, payload)
    return payload


def _cached_poly(ctx, command: str, params: dict, compute) -> LaurentPoly:
    payload = _cached(ctx, command, params, lambda: compute().to_json(),
                      lambda p: LaurentPoly.from_json(p).to_json())
    return LaurentPoly.from_json(payload)


def _canonical_records(records, bound: int) -> list[dict]:
    """Re-encode the records of ``MotiveTable.export`` for d+e <= bound."""
    # export lists every (d,e) with d+e <= bound, ordered by (d+e, d)
    vectors = [(d, s - d) for s in range(bound + 1) for d in range(s + 1)]
    if len(records) != len(vectors):
        raise ValueError("wrong number of records")
    return [
        {
            "d": d,
            "e": e,
            "a": RatFunc.from_json(rec["a"]).to_json(),
            "motive": (None if rec["motive"] is None
                       else LaurentPoly.from_json(rec["motive"]).to_json()),
        }
        for (d, e), rec in zip(vectors, records)
    ]


def _canonical_series(payload, order: int) -> dict:
    """Re-encode a ``TruncSeries.to_json`` payload of the given order."""
    if payload["order"] != order:  # checked first: from_json pads to order
        raise ValueError("series of the wrong order")
    from .qseries import TruncSeries

    return TruncSeries.from_json(payload).to_json()


def _reject_csv(ctx):
    """Exit 2 when --format csv was asked of a command that has no csv form."""
    if ctx.obj["fmt"] == "csv":
        raise click.exceptions.Exit(_bad_input(
            f"--format csv is not supported by `{ctx.info_name}`; "
            f"it is supported by: {', '.join(CSV_COMMANDS)}"))


@main.command()
@click.option("--m", type=int, required=True)
@click.option("--d", type=int, required=True)
@click.option("--method", type=click.Choice(["recursion", "funceq", "wallcross",
                                             "all"]), default="recursion",
              show_default=True)
@click.pass_context
def framed(ctx, m, d, method):
    """Virtual motive of the framed moduli space K_{d,d}^(m),fr."""
    if m < 3 or d < 0:
        raise click.exceptions.Exit(_bad_input("need m >= 3 and d >= 0"))

    def by(name):
        if name == "recursion":
            from .central import framed_recursion

            ts = framed_recursion(m, d)
        elif name == "funceq":
            from .central import solve_functional_eq

            ts = solve_functional_eq(m, d)
        else:
            from .wallcross import framed_via_quotient

            ts = framed_via_quotient(m, (1, 1), d)
        return ts.coeffs[d].to_laurent()

    if method == "all":
        values = {name: by(name) for name in ("recursion", "funceq", "wallcross")}
        first = values["recursion"]
        if any(v != first for v in values.values()):
            click.echo("methods disagree", err=True)
            raise click.exceptions.Exit(EXIT_INCONSISTENT)
        poly = first
    else:
        poly = _cached_poly(ctx, "framed", {"m": m, "d": d, "method": method},
                            lambda: by(method))
    _emit(ctx, "framed", {"m": m, "d": d, "motive": poly.to_json()},
          _poly_lines(poly), [m, d, poly.min_exp, *_coeff_list(poly)])


@main.command()
@click.option("--m", type=int, required=True)
@click.option("--d", type=int, required=True)
@click.option("--e", type=int, required=True)
@click.pass_context
def moduli(ctx, m, d, e):
    """Virtual motive of K_{d,e}^(m) for coprime (d,e)."""
    if m < 1 or d < 0 or e < 0 or (d, e) == (0, 0):
        raise click.exceptions.Exit(_bad_input("invalid parameters"))

    def compute():
        from .wallcross import moduli_motive

        return moduli_motive(m, d, e)

    try:
        poly = _cached_poly(ctx, "moduli", {"m": m, "d": d, "e": e}, compute)
    except NonCoprimeError:
        click.echo(
            f"({d},{e}) is not coprime; the motive is not determined by a_D. "
            "Use the `hn` subcommand for the raw wall-crossing table.",
            err=True,
        )
        raise click.exceptions.Exit(EXIT_BAD_INPUT)
    _emit(ctx, "moduli", {"m": m, "d": d, "e": e, "motive": poly.to_json()},
          _poly_lines(poly), [m, d, e, poly.min_exp, *_coeff_list(poly)])


@main.command()
@click.option("--m", type=int, required=True)
@click.option("--bound", type=int, required=True)
@click.pass_context
def hn(ctx, m, bound):
    """Raw wall-crossing coefficient table a_D for d+e <= bound."""
    _reject_csv(ctx)
    if m < 1 or bound < 0:
        raise click.exceptions.Exit(_bad_input("invalid parameters"))

    def compute():
        from .wallcross import hn_extract

        return hn_extract(m, bound).export()

    records = _cached(ctx, "hn", {"m": m, "bound": bound}, compute,
                      lambda p: _canonical_records(p, bound))

    def line(rec):
        motive = rec["motive"]
        desc = (",".join(_coeff_list(LaurentPoly.from_json(motive)))
                if motive is not None else "-")
        return f"({rec['d']},{rec['e']}) motive: {desc}"

    _emit(ctx, "hn", records, map(line, records))


@main.command()
@click.option("--which", type=click.Choice(["F", "G", "A"]), required=True)
@click.option("--m", type=int, required=True)
@click.option("--k", type=int, default=1, show_default=True,
              help="Slope parameter for the A series (ray (1,k)).")
@click.option("--order", type=int, required=True)
@click.pass_context
def series(ctx, which, m, k, order):
    """Truncated generating series F, G, or A^(k)."""
    _reject_csv(ctx)
    if order < 0:
        raise click.exceptions.Exit(_bad_input("order must be >= 0"))
    # the default k=1 stays in the cache key of F and G; an explicit --k is refused
    if which != "A" and ctx.get_parameter_source("k") is not ParameterSource.DEFAULT:
        raise click.exceptions.Exit(_bad_input("--k applies only to --which A"))

    def compute():
        try:
            if which != "A":
                from .central import extract_G, framed_recursion

                ts = framed_recursion(m, order)
                if which == "G":
                    ts = extract_G(m, ts)
            else:
                if not 1 <= k <= m - 1:
                    raise click.exceptions.Exit(_bad_input("need 1 <= k <= m-1"))
                from .wallcross import MotiveTable

                table = MotiveTable.covering(m, [(order, order * k)])
                ts = table.ray_series((1, k), order)
        except ValueError as exc:
            raise click.exceptions.Exit(_bad_input(str(exc)))
        return ts.to_json()

    payload = _cached(ctx, "series", {"which": which, "m": m, "k": k, "order": order},
                      compute, lambda p: _canonical_series(p, order))

    def line(dd, coeff):
        num = ",".join(_coeff_list(LaurentPoly.from_json(coeff["num"])))
        den = LaurentPoly.from_json(coeff["den"])
        if den == LaurentPoly.one():
            return f"t^{dd}: {num}"
        return f"t^{dd}: ({num}) / ({','.join(_coeff_list(den))})"

    _emit(ctx, "series", payload,
          (line(dd, coeff) for dd, coeff in enumerate(payload["coeffs"])))


@main.command()
@click.option("--m", type=int, required=True)
@click.option("--d", type=int, required=True)
@click.option("--kind", type=click.Choice(["framed", "moduli"]), required=True)
@click.option("--check", is_flag=True, default=False,
              help="Compare the closed form against the motive sum.")
@click.pass_context
def euler(ctx, m, d, kind, check):
    """Euler characteristic of K_{d,d}^(m),fr or K_{d,d-1}^(m)."""
    from .eulerchar import chi_framed_closed, chi_from_motive, chi_moduli_closed

    try:
        if kind == "framed":
            value = chi_framed_closed(m, d)
        else:
            value = chi_moduli_closed(m, d)
    except ValueError as exc:
        raise click.exceptions.Exit(_bad_input(str(exc)))
    if check:
        if kind == "framed":
            from .central import framed_recursion

            motive = framed_recursion(m, d).coeffs[d].to_laurent()
        else:
            from .wallcross import moduli_motive

            motive = moduli_motive(m, d, d - 1)
        if chi_from_motive(motive) != value:
            click.echo("closed form and motive sum disagree", err=True)
            raise click.exceptions.Exit(EXIT_VERIFY_FAIL)
    _emit(ctx, "euler", {"m": m, "d": d, "kind": kind, "value": value},
          [str(value)], [m, d, kind, value])


@main.command()
@click.option("--m-prime", "mprime", type=int, required=True)
@click.option("--n", type=int, required=True)
@click.option("--method", type=click.Choice(["brute", "formula"]),
              default="formula", show_default=True)
@click.option("--check", is_flag=True, default=False,
              help="Run both methods and compare.")
@click.pass_context
def tamari_cmd(ctx, mprime, n, method, check):
    """Interval count of the m'-Tamari lattice of index n."""
    try:
        if check:
            brute = interval_count_bruteforce(mprime, n,
                                                     ctx.obj["max_paths"])
            formula = interval_count_formula(mprime, n)
            if brute != formula:
                click.echo("brute force and formula disagree", err=True)
                raise click.exceptions.Exit(EXIT_VERIFY_FAIL)
            value = formula
        elif method == "brute":
            value = interval_count_bruteforce(mprime, n,
                                                     ctx.obj["max_paths"])
        else:
            value = interval_count_formula(mprime, n)
    except ResourceLimitError as exc:
        click.echo(str(exc), err=True)
        raise click.exceptions.Exit(EXIT_RESOURCE)
    except ValueError as exc:
        raise click.exceptions.Exit(_bad_input(str(exc)))
    _emit(ctx, "tamari", {"m_prime": mprime, "n": n, "value": value},
          [str(value)], [mprime, n, value])


main.add_command(tamari_cmd, name="tamari")


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


@main.command()
@click.option("--identity", type=click.Choice(sorted(_VERIFIERS)), required=True)
@click.option("--m", type=int, required=True)
@click.option("--k", type=int, default=None)
@click.option("--order", type=int, required=True)
@click.pass_context
def verify(ctx, identity, m, k, order):
    """Check a series identity exactly; exit 0 iff everything passes."""
    _reject_csv(ctx)
    if order < 1:
        raise click.exceptions.Exit(_bad_input("order must be >= 1"))
    needs_k = identity in ("corident", "newduality")
    if k is not None and not needs_k:
        raise click.exceptions.Exit(_bad_input(
            "--k applies only to --identity corident and newduality"))
    module, name = _VERIFIERS[identity]
    verifier = getattr(__import__(f"kronmot.{module}", fromlist=[name]), name)
    try:
        if not needs_k:
            reports = verifier(m, order)
        elif k is None:
            reports = []
            for kk in range(1, m):
                reports += verifier(m, kk, order)
        else:
            reports = verifier(m, k, order)
    except ValueError as exc:
        raise click.exceptions.Exit(_bad_input(str(exc)))

    def line(r):
        tail = "".join(f" {key}={r[key]}" for key in ("k", "order", "pair")
                       if r.get(key) is not None)
        return f"{r['status'].upper()} {r['identity']} m={r['m']}{tail}"

    _emit(ctx, "verify", reports, map(line, reports))
    if any(r["status"] != "pass" for r in reports):
        raise click.exceptions.Exit(EXIT_VERIFY_FAIL)


@main.command()
@click.pass_context
def selftest_cmd(ctx):
    """Run the full acceptance suite (criteria 1-6)."""
    if ctx.obj["fmt"] != "plain":
        raise click.exceptions.Exit(_bad_input(
            f"--format {ctx.obj['fmt']} is not supported by `selftest`; "
            "it prints a plain report only"))
    from .selftest import run

    if not run(echo=click.echo):
        raise click.exceptions.Exit(EXIT_VERIFY_FAIL)


main.add_command(selftest_cmd, name="selftest")


def _bad_input(message: str) -> int:
    click.echo(message, err=True)
    return EXIT_BAD_INPUT


def _entry():
    try:
        rv = main(standalone_mode=False)
        sys.exit(rv if isinstance(rv, int) else 0)
    except click.exceptions.Exit as exc:
        sys.exit(exc.exit_code)
    except click.ClickException as exc:
        exc.show()
        sys.exit(EXIT_BAD_INPUT)
    except click.Abort:
        sys.exit(EXIT_BAD_INPUT)
    except InsufficientBoundError as exc:
        click.echo(str(exc), err=True)
        sys.exit(EXIT_BAD_INPUT)
    except ResourceLimitError as exc:
        click.echo(str(exc), err=True)
        sys.exit(EXIT_RESOURCE)
    except KronmotError as exc:
        click.echo(str(exc), err=True)
        sys.exit(EXIT_INCONSISTENT)


if __name__ == "__main__":
    _entry()
