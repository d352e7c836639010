"""Finite value domains.

Every carrier in this package (values, states, exceptions, channels) is a
named finite domain; a value is just an index into one.  Keeping domains
first-class lets program trees store total continuation tables and lets the
checkers enumerate everything they quantify over.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, fields
from functools import cached_property
from typing import Dict, Iterator, Optional, Tuple


class _Pooled(type):
    """Calling a canonical class looks its instance up (see `Canonical`)."""

    def __call__(cls, *args, **kwargs):
        if kwargs or len(args) != cls._arity:
            args = cls._full_args(args, kwargs)
        obj = cls._pool.get(args)
        if obj is None:
            obj = cls._pool.setdefault(args, super().__call__(*args))  # racers keep the first
        return obj


class Canonical(metaclass=_Pooled):
    """Base of the frozen dataclasses that key a check's memo tables:
    domains, values, signatures and outcome spaces.  Canonical means one
    live object per field tuple: building one, positionally, by keyword,
    by pickle, copy or `dataclasses.replace`, returns the object already
    made with those fields, validated once when first made; a failed
    validation pools nothing.  Equality and hashing are identity, so every
    memo key made of these objects hashes and compares in C.  Subclasses
    are `@dataclass(frozen=True, eq=False)`; as with `_PRODUCTS`, the pools
    live for the whole process.  Store signatures (`whilelang`) are
    canonical too; While syntax takes these construction rules but a
    metaclass of its own, which pools it weakly in `programs._POOL`."""

    _arity = -1   # field count, set by the first call that names the fields

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._pool = {}
        cls._defaults = None   # (name, default) per field, taken by the first such call

    @classmethod
    def _full_args(cls, args: tuple, kwargs: dict) -> tuple:
        """Every field in order, keywords placed and defaults filled in."""
        fs = cls._defaults
        if fs is None:
            fs = cls._defaults = tuple((f.name, f.default) for f in fields(cls))
            cls._arity = len(fs)
        rest = tuple(kwargs.pop(name, default) for name, default in fs[len(args):])
        if kwargs or len(args) > len(fs) or any(v is MISSING for v in rest):
            raise TypeError(f"{cls.__name__} takes the fields {[name for name, _ in fs]}, "
                            f"got {len(args)} positional and the keywords {sorted(kwargs)}")
        return args + rest

    def __reduce__(self):
        # copy and deepcopy rebuild through this too
        return type(self), tuple(getattr(self, f.name) for f in fields(self))


@dataclass(frozen=True, eq=False)
class FiniteDomain(Canonical):
    name: str
    size: int
    labels: Optional[Tuple[str, ...]] = None

    def __post_init__(self):
        if self.size < 1:
            raise ValueError(f"domain {self.name!r} must be inhabited, got size {self.size}")
        if self.labels is not None and len(self.labels) != self.size:
            raise ValueError(f"domain {self.name!r}: {len(self.labels)} labels for size {self.size}")

    def value(self, index: int) -> "Value":
        # out of range, Value's own check raises
        return self._values[index] if 0 <= index < self.size else Value(self, index)

    def values(self) -> Iterator["Value"]:
        return iter(self._values)

    @cached_property
    def _values(self) -> Tuple["Value", ...]:
        return tuple(Value(self, i) for i in range(self.size))

    def label_of(self, index: int) -> str:
        if self.labels is not None:
            return self.labels[index]
        return str(index)

    def __repr__(self):
        return f"FiniteDomain({self.name!r}, {self.size})"


@dataclass(frozen=True, eq=False)
class Value(Canonical):
    domain: FiniteDomain
    index: int

    def __post_init__(self):
        if not 0 <= self.index < self.domain.size:
            raise ValueError(f"index {self.index} out of range for domain "
                             f"{self.domain.name!r} (size {self.domain.size})")

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
