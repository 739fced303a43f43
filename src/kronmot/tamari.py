"""Generalized Tamari lattices on ballot paths.

An m'-ballot path of index n is a word with n letters N and m'*n letters E
such that every prefix has #E <= m' * #N.  The covering relation rotates an
E letter past the shortest balanced factor following a valley E*N.  Interval
counts over this order give the independent combinatorial oracle for the
Euler characteristics of slope-(1 - 1/d) Kronecker moduli.
"""

from __future__ import annotations

from math import comb

from .errors import DEFAULT_MAX_PATHS, NonIntegerError, ResourceLimitError


def fuss_catalan(mprime: int, n: int) -> int:
    """Number of m'-ballot paths of index n: C((m'+1)n, n) / (m'n + 1)."""
    num = comb((mprime + 1) * n, n)
    den = mprime * n + 1
    if num % den:
        raise NonIntegerError("Fuss-Catalan quotient is not integral")
    return num // den


def generate_paths(mprime: int, n: int,
                   max_paths: int = DEFAULT_MAX_PATHS) -> list[str]:
    """All m'-ballot paths of index n, lexicographically with N < E."""
    if mprime < 1 or n < 1:
        raise ValueError("need mprime >= 1 and n >= 1")
    count = fuss_catalan(mprime, n)
    if count > max_paths:
        raise ResourceLimitError(
            f"{count} paths exceed the cap of {max_paths}"
        )
    total_n, total_e = n, mprime * n
    paths = []
    word = []

    def rec(used_n: int, used_e: int):
        if used_n == total_n and used_e == total_e:
            paths.append("".join(word))
            return
        if used_n < total_n:
            word.append("N")
            rec(used_n + 1, used_e)
            word.pop()
        if used_e < total_e and used_e + 1 <= mprime * used_n:
            word.append("E")
            rec(used_n, used_e + 1)
            word.pop()

    try:
        rec(0, 0)
    except RecursionError:
        # rec recurses (m'+1)*n deep; a count the cap admits at that depth
        # could never be enumerated anyway
        raise ResourceLimitError(
            f"enumerating the ballot paths of m'={mprime}, n={n} recurses "
            f"{total_n + total_e} deep, beyond the interpreter's recursion limit"
        ) from None
    assert len(paths) == count
    return paths


def covers(word: str, mprime: int) -> list[str]:
    """Covers of a ballot path: one rotation per valley E,N.

    For each position i with word[i] == 'E' and word[i+1] == 'N', the E is
    moved past the shortest balanced factor starting at the N (a factor with
    m' * #N == #E), which always exists.
    """
    out = []
    for i in range(len(word) - 1):
        if word[i] == "E" and word[i + 1] == "N":
            balance = 0
            q = i + 1
            while True:
                balance += mprime if word[q] == "N" else -1
                if balance == 0:
                    break
                q += 1
            out.append(word[:i] + word[i + 1 : q + 1] + "E" + word[q + 1 :])
    return out


class TamariPoset:
    """Covering digraph of the m'-Tamari lattice of index n."""

    def __init__(self, mprime: int, n: int,
                 max_paths: int = DEFAULT_MAX_PATHS):
        self.mprime = mprime
        self.n = n
        self.elements = generate_paths(mprime, n, max_paths)
        index = {p: i for i, p in enumerate(self.elements)}
        self.covers = [
            sorted(index[q] for q in covers(p, mprime)) for p in self.elements
        ]

    def interval_count(self) -> int:
        """Number of ordered pairs p <= q, each element comparable to itself.

        Reachability as bitmasks, filled in list order: a rotation puts an
        N where an E was, so every cover of a path comes before it in
        ``generate_paths``' lexicographic order.  A cover that does not
        raises ``AssertionError``.
        """
        reach = []
        total = 0
        for u, ups in enumerate(self.covers):
            mask = 1 << u
            for w in ups:
                if w >= u:
                    raise AssertionError("a cover does not precede its path")
                mask |= reach[w]
            reach.append(mask)
            total += mask.bit_count()
        return total


def interval_count_bruteforce(mprime: int, n: int,
                              max_paths: int = DEFAULT_MAX_PATHS) -> int:
    return TamariPoset(mprime, n, max_paths).interval_count()


def interval_count_formula(mprime: int, n: int) -> int:
    """Closed-form interval count, via the slope-(1-1/d) moduli formula."""
    if mprime < 1 or n < 1:
        raise ValueError("need mprime >= 1 and n >= 1")
    from .eulerchar import chi_moduli_closed

    return chi_moduli_closed(mprime + 2, n)
