"""Finite value domains.

Every carrier in this package (values, states, exceptions, channels) is a
named finite domain; a value is just an index into one.  Keeping domains
first-class lets program trees store total continuation tables and lets the
checkers enumerate everything they quantify over.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, Optional, Tuple


@dataclass(frozen=True)
class FiniteDomain:
    name: str
    size: int
    labels: Optional[Tuple[str, ...]] = None
    # Domains key every memo table, and a generated hash would rehash the
    # label tuple on each lookup; it is taken once here instead.
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.size < 1:
            raise ValueError(f"domain {self.name!r} must be inhabited, got size {self.size}")
        if self.labels is not None and len(self.labels) != self.size:
            raise ValueError(f"domain {self.name!r}: {len(self.labels)} labels for size {self.size}")
        object.__setattr__(self, "_hash", hash((self.name, self.size, self.labels)))

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        # string hashes differ between processes: rebuild through the
        # constructor rather than carry the stored hash
        return FiniteDomain, (self.name, self.size, self.labels)

    def value(self, index: int) -> "Value":
        if not 0 <= index < self.size:
            raise ValueError(f"index {index} out of range for domain {self.name!r} (size {self.size})")
        return Value(self, index)

    def values(self) -> Iterator["Value"]:
        for i in range(self.size):
            yield Value(self, i)

    def label_of(self, index: int) -> str:
        if self.labels is not None:
            return self.labels[index]
        return str(index)

    def __repr__(self):
        return f"FiniteDomain({self.name!r}, {self.size})"


@dataclass(frozen=True)
class Value:
    domain: FiniteDomain
    index: int

    # Values key memo tables inside long tuples (interactive histories), so
    # the hash reuses the domain's stored one rather than hash a new pair.
    def __hash__(self):
        return self.domain._hash ^ self.index

    def __repr__(self):
        return f"<{self.domain.name}:{self.domain.label_of(self.index)}>"


UNIT = FiniteDomain("unit", 1, ("()",))
BOOL = FiniteDomain("bool", 2, ("false", "true"))

UNIT_VAL = Value(UNIT, 0)
FALSE = Value(BOOL, 0)
TRUE = Value(BOOL, 1)


def boolv(b: bool) -> Value:
    return TRUE if b else FALSE


def domain(name: str, size: int, labels: Optional[Tuple[str, ...]] = None) -> FiniteDomain:
    return FiniteDomain(name, size, labels)


# Built domains by operands, so labels are formatted once per pair; plain
# dicts, not a caching decorator, keep both builders ordinary functions.
_PRODUCTS: Dict[Tuple[FiniteDomain, FiniteDomain], FiniteDomain] = {}
_SUMS: Dict[Tuple[FiniteDomain, FiniteDomain], FiniteDomain] = {}


def product_domain(d1: FiniteDomain, d2: FiniteDomain) -> FiniteDomain:
    """Domain of pairs, indexed row-major: (i, j) |-> i * |d2| + j."""
    out = _PRODUCTS.get((d1, d2))
    if out is None:
        labels = tuple(
            f"({d1.label_of(i)},{d2.label_of(j)})" for i in range(d1.size) for j in range(d2.size)
        )
        out = FiniteDomain(f"({d1.name}*{d2.name})", d1.size * d2.size, labels)
        _PRODUCTS[(d1, d2)] = out
    return out


def sum_domain(d1: FiniteDomain, d2: FiniteDomain) -> FiniteDomain:
    """Domain of tagged alternatives; left injections first."""
    out = _SUMS.get((d1, d2))
    if out is None:
        labels = tuple(f"inl {d1.label_of(i)}" for i in range(d1.size)) + tuple(
            f"inr {d2.label_of(j)}" for j in range(d2.size)
        )
        out = FiniteDomain(f"({d1.name}+{d2.name})", d1.size + d2.size, labels)
        _SUMS[(d1, d2)] = out
    return out


def inl_index(d1: FiniteDomain, d2: FiniteDomain, i: int) -> int:
    return i


def inr_index(d1: FiniteDomain, d2: FiniteDomain, j: int) -> int:
    return d1.size + j


def case_index(d1: FiniteDomain, d2: FiniteDomain, k: int) -> Tuple[bool, int]:
    """Returns (is_left, index within the summand)."""
    if k < d1.size:
        return True, k
    return False, k - d1.size
