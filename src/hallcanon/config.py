"""Run configuration with its sample-field check, shared error types and the
per-instance memo rule."""

from __future__ import annotations

import functools
import os
from typing import NamedTuple

# Prime powers used for counting samples, smallest first.  Counting cost
# grows quickly with q, so fits always consume this list left to right.
DEFAULT_SAMPLE_POOL = (2, 3, 4, 5, 7, 8, 9, 11, 13)

# The largest field ``gf`` builds tables for, so the largest sample field.
_MAX_TABLE_Q = 64


def _factor_prime_power(q: int):
    if q < 2:
        raise ValueError("q must be a prime power >= 2")
    for p in range(2, q + 1):
        if q % p == 0:
            e = 0
            m = q
            while m % p == 0:
                m //= p
                e += 1
            if m != 1:
                raise ValueError(f"{q} is not a prime power")
            return p, e
    raise ValueError(f"{q} is not a prime power")


class HallcanonError(Exception):
    """Base class for all package errors."""


class BudgetExceededError(HallcanonError):
    """An enumeration would exceed a configured hard budget."""


class InterpolationError(HallcanonError):
    """No polynomial of admissible degree fits the counted samples."""


class ClassificationError(HallcanonError):
    """A module could not be matched to exactly one iso-class descriptor."""


class UnsupportedQuiverError(HallcanonError):
    """The requested quiver is outside the supported classes."""


class BarSolveError(HallcanonError):
    """The bar-invariant triangular system has no admissible solution."""


class InsufficientPointsError(HallcanonError):
    """The field is too small to host the required homogeneous points."""


class BundleFormatError(HallcanonError):
    """A certificate bundle lacks a field or holds a malformed matrix."""


class _JobFields(NamedTuple):
    primes: tuple[int, ...] = DEFAULT_SAMPLE_POOL
    budget_subspaces: int = 2_000_000
    cache_dir: str | None = None


class JobConfig(_JobFields):
    """Knobs shared by every computation.

    ``primes`` is the ordered pool of sample prime powers in 2..64,
    ``budget_subspaces`` is a hard enumeration limit (a clear error beats
    silent degradation) that bounds enumerations only: a closed form, such
    as |Aut M| or the Hall row of a semisimple L, enumerates nothing and is
    never refused by it, and ``cache_dir`` names the on-disk store
    (``None`` for none).  Every computation runs in one thread.  A config is
    an immutable record, checked when it is made.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not self.primes:
            raise ValueError("the sample pool primes is empty")
        for q in self.primes:
            if not (type(q) is int and 2 <= q <= _MAX_TABLE_Q):
                raise ValueError(f"sample field {q!r} is not a prime power in 2..{_MAX_TABLE_Q}")
            _factor_prime_power(q)
        # A repeated sample field would count as its own held-out check.
        if len(set(self.primes)) != len(self.primes):
            raise ValueError(f"sample fields repeat in primes {list(self.primes)}")
        if self.budget_subspaces < 0:
            raise ValueError(f"budget_subspaces must be >= 0, got {self.budget_subspaces}")
        return self

    @classmethod
    def _make(cls, iterable):
        # The tuple's own _make, which _replace calls, would skip the checks.
        return cls(*iterable)

    @staticmethod
    def default() -> "JobConfig":
        return JobConfig(cache_dir=os.environ.get("HALLCANON_CACHE"))


def memoized(method):
    """Cache ``method(self, *args)`` on the instance, keyed by ``args``.

    The wrapper is the class attribute, so a wrapper around that attribute
    sees every call, hits included.  The dict lives in the instance and dies
    with it (``functools.lru_cache`` on a method keeps every instance alive).
    A hit allocates nothing beyond ``args``; a call that raises stores nothing.
    """
    slot = "_memo_" + method.__name__

    @functools.wraps(method)
    def wrapper(self, *args):
        memo = self.__dict__.get(slot)
        if memo is None:
            memo = self.__dict__[slot] = {}
        try:
            return memo[args]
        except KeyError:
            pass
        value = memo[args] = method(self, *args)
        return value

    return wrapper
