import itertools
import random
from math import factorial

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hallcanon.partitions import (
    centralizer_order,
    character,
    dominates,
    kostka,
    kostka_solve,
    partitions,
)


def brute_kostka(lam, mu):
    """Count SSYT of shape lam, content mu by direct enumeration."""
    cells = [(i, j) for i, row in enumerate(lam) for j in range(row)]
    entries = []
    for v, m in enumerate(mu, start=1):
        entries.extend([v] * m)
    count = 0
    for perm in set(itertools.permutations(entries)):
        tab = {}
        ok = True
        for cell, val in zip(cells, perm):
            tab[cell] = val
        for (i, j), val in tab.items():
            if (i, j + 1) in tab and tab[(i, j + 1)] < val:
                ok = False
                break
            if (i + 1, j) in tab and tab[(i + 1, j)] <= val:
                ok = False
                break
        if ok:
            count += 1
    return count


def brute_perm_character(lam, mu):
    """Count g-stable lam-tabloids for g of cycle type mu."""
    m = sum(lam)
    g = []
    start = 1
    for part in mu:
        cycle = list(range(start, start + part))
        g.append(cycle)
        start += part
    perm = {}
    for cycle in g:
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            perm[a] = b
    count = 0
    items = list(range(1, m + 1))

    def tabloids(remaining, shape):
        if not shape:
            yield ()
            return
        for first in itertools.combinations(remaining, shape[0]):
            rest = tuple(x for x in remaining if x not in first)
            for tail in tabloids(rest, shape[1:]):
                yield (frozenset(first),) + tail

    for tab in tabloids(tuple(items), tuple(lam)):
        if all(frozenset(perm[x] for x in block) == block for block in tab):
            count += 1
    return count


def test_partitions_order():
    assert partitions(4) == ((4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1))
    assert partitions(0) == ((),)


def test_kostka_examples():
    assert kostka((2, 1), (1, 1, 1)) == 2
    assert kostka((1, 1), (2)) if False else kostka((1, 1), (2,)) == 0
    for lam in partitions(5):
        assert kostka(lam, lam) == 1
    with pytest.raises(ValueError):
        kostka((2,), (1, 1, 1))


@given(st.integers(min_value=1, max_value=5))
def test_kostka_matches_brute_force(n):
    for lam in partitions(n):
        for mu in partitions(n):
            assert kostka(lam, mu) == brute_kostka(lam, mu)


def test_kostka_unitriangular_dominance():
    for m in range(1, 9):
        for lam in partitions(m):
            for mu in partitions(m):
                k = kostka(lam, mu)
                if lam == mu:
                    assert k == 1
                elif not dominates(lam, mu):
                    assert k == 0


def test_character_examples():
    assert character((1, 1), (2,)) == -1
    assert character((1, 1), (1, 1)) == 1
    for m in range(1, 7):
        for mu in partitions(m):
            assert character((m,), mu) == 1


def test_character_degree_is_standard_tableaux():
    # chi_lam(1^m) equals the number of SYT, i.e. kostka(lam, 1^m).
    for m in range(1, 7):
        ones = tuple([1] * m)
        for lam in partitions(m):
            assert character(lam, ones) == kostka(lam, ones)


def young_rule(lam, mu) -> int:
    """The permutation character of shape lam at cycle type mu, from Young's
    rule: the permutation module has multiplicity kostka(nu, lam) of nu."""
    return sum(kostka(nu, lam) * character(nu, mu) for nu in partitions(sum(lam)))


def test_perm_character_examples():
    assert young_rule((2,), (2,)) == 1
    assert young_rule((2, 1), (3,)) == 0
    for m in range(1, 6):
        ones = tuple([1] * m)
        assert young_rule(ones, ones) == factorial(m)


def test_perm_character_matches_tabloid_count():
    for m in range(1, 6):
        for lam in partitions(m):
            for mu in partitions(m):
                assert young_rule(lam, mu) == brute_perm_character(lam, mu)


class CharTable:
    """Irreducible character table of S_m, rows and columns in descending lex order."""

    def __init__(self, m: int):
        self.m = m
        self.partitions = partitions(m)
        self.values = [
            [character(lam, mu) for mu in self.partitions] for lam in self.partitions
        ]

    def column_orthogonality_holds(self) -> bool:
        ps = self.partitions
        for j, mu in enumerate(ps):
            for j2, mu2 in enumerate(ps):
                s = sum(self.values[i][j] * self.values[i][j2] for i in range(len(ps)))
                expected = centralizer_order(mu) if j == j2 else 0
                if s != expected:
                    return False
        return True


def test_char_table_orthogonality():
    for m in range(1, 7):
        table = CharTable(m)
        assert table.column_orthogonality_holds()
        assert all(v == 1 for v in table.values[0])


def test_centralizer_order():
    assert centralizer_order((1, 1, 1)) == 6
    assert centralizer_order((2, 1)) == 2
    assert centralizer_order((3,)) == 3


@pytest.mark.parametrize("m", range(7))
def test_kostka_solve_inverts_the_transposed_kostka_matrix(m):
    rng = random.Random(m)
    psi = {lam: rng.randint(-9, 9) for lam in partitions(m)}
    x = {mu: sum(kostka(lam, mu) * c for lam, c in psi.items()) for mu in partitions(m)}
    assert kostka_solve(m, x.get) == psi
