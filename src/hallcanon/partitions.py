"""Partitions, Kostka numbers and symmetric-group characters.

Partitions are plain tuples of weakly decreasing positive ints; the empty
tuple is the zero partition.  ``kostka(lam, mu)`` counts semistandard
tableaux of shape ``lam`` and content ``mu``; characters use the
Murnaghan-Nakayama rule through beta-sets.
"""

from __future__ import annotations

from functools import lru_cache
from math import factorial


def is_partition(lam) -> bool:
    return all(isinstance(p, int) and p > 0 for p in lam) and all(
        lam[i] >= lam[i + 1] for i in range(len(lam) - 1)
    )


def check_partition(lam) -> tuple[int, ...]:
    lam = tuple(lam)
    if not is_partition(lam):
        raise ValueError(f"not a partition: {lam}")
    return lam


@lru_cache(maxsize=None)
def partitions(n: int) -> tuple[tuple[int, ...], ...]:
    """All partitions of n in descending lexicographic order."""
    if n < 0:
        raise ValueError("negative partition size")

    def gen(rest, cap):
        if rest == 0:
            yield ()
            return
        for first in range(min(rest, cap), 0, -1):
            for tail in gen(rest - first, first):
                yield (first,) + tail

    return tuple(gen(n, n))


def dominates(lam, mu) -> bool:
    """Dominance order: lam >= mu when partial sums of lam dominate those of mu."""
    if sum(lam) != sum(mu):
        return False
    a = b = 0
    for i in range(max(len(lam), len(mu))):
        a += lam[i] if i < len(lam) else 0
        b += mu[i] if i < len(mu) else 0
        if a < b:
            return False
    return True


def _horizontal_strip_removals(lam, size):
    """Shapes lam' with lam/lam' a horizontal strip of the given size."""
    lam = tuple(lam)
    rows = len(lam)

    def rec(i, remaining):
        if i == rows:
            if remaining == 0:
                yield ()
            return
        # Horizontal strip: at most one cell per column, so row i may only
        # shrink down to the original length of row i+1.
        lo = lam[i + 1] if i + 1 < rows else 0
        hi = lam[i]
        for new in range(hi, lo - 1, -1):
            take = hi - new
            if take > remaining:
                continue
            for tail in rec(i + 1, remaining - take):
                yield (new,) + tail

    for shape in rec(0, size):
        yield tuple(p for p in shape if p > 0)


@lru_cache(maxsize=None)
def kostka(lam, mu) -> int:
    """Number of semistandard Young tableaux of shape lam and content mu."""
    lam = check_partition(lam)
    mu = check_partition(mu)
    if sum(lam) != sum(mu):
        raise ValueError("shape and content have different sizes")
    return _kostka(lam, mu)


@lru_cache(maxsize=None)
def _kostka(lam, mu) -> int:
    if not mu:
        return 1 if not lam else 0
    if not dominates(lam, mu):
        return 0
    total = 0
    for lam2 in _horizontal_strip_removals(lam, mu[-1]):
        total += _kostka(lam2, mu[:-1])
    return total


def kostka_solve(m: int, x) -> dict:
    """psi with x(mu) = sum_lam K_{lam mu} psi_lam for all mu of m, solved in
    descending lex order, where K is unitriangular; the values of x need
    only subtraction and multiplication by an int."""
    psi: dict = {}
    for mu in partitions(m):  # descending lex
        val = x(mu)
        for lam, c in psi.items():
            val = val - kostka(lam, mu) * c
        psi[mu] = val
    return psi


def _beta_set(lam, n):
    lam = tuple(lam) + (0,) * (n - len(lam))
    return [lam[i] + (n - 1 - i) for i in range(n)]


@lru_cache(maxsize=None)
def character(lam, mu) -> int:
    """Irreducible character of S_m indexed by lam at cycle type mu."""
    lam = check_partition(lam)
    mu = check_partition(mu)
    if sum(lam) != sum(mu):
        raise ValueError("character arguments must have equal size")
    return _mn(lam, mu)


@lru_cache(maxsize=None)
def _mn(lam, mu) -> int:
    if not mu:
        return 1 if not lam else 0
    k = mu[0]
    rest = mu[1:]
    n = max(len(lam), 1)
    beta = _beta_set(lam, n)
    bset = set(beta)
    total = 0
    for b in beta:
        if b - k < 0 or (b - k) in bset:
            continue
        height = sum(1 for b2 in beta if b - k < b2 < b)
        new = sorted((bset - {b}) | {b - k}, reverse=True)
        # Convert the beta-set back to a partition.
        m = len(new)
        lam2 = tuple(new[i] - (m - 1 - i) for i in range(m))
        lam2 = tuple(p for p in lam2 if p > 0)
        total += (-1) ** height * _mn(lam2, rest)
    return total


def centralizer_order(mu) -> int:
    """Order of the centralizer of a permutation of cycle type mu."""
    mu = check_partition(mu)
    out = 1
    for part in set(mu):
        k = mu.count(part)
        out *= part**k * factorial(k)
    return out
