"""Relational specification monads over finite outcome spaces.

A relational specification ("spec") maps postconditions on pairs of
outcomes to predicates on precondition points.  Specs are ordered by
pointwise implication, read so that the everywhere-unsatisfiable claim
sits at the top: w <= w' iff w'(phi)(pt) implies w(phi)(pt) for every
phi and pt.  Judgments about program pairs are later interpreted as
"observation <= spec", so everything above an observation is a valid
claim about it.  The quantitative carrier orders numerically instead:
w <= w' iff w(phi) <= w'(phi) for every phi into [0,1].

Seven carriers share the RelSpec container:

  WrelPure   ((A1 x A2) -> Prop) -> Prop
  WrelSt     (((A1 x S1) x (A2 x S2)) -> Prop) -> S1 x S2 -> Prop
  WrelErr    (((A1 x A2) + 1) -> Prop) -> Prop
  WrelIO     ((A1 x A2) x histories -> Prop) -> histories -> Prop
  WrelProb   ((A1 x A2) -> [0,1]) -> [0,1]
  PPrelPure  Prop x ((A1 x A2) -> Prop)
  PPrelSt    (S1 x S2 -> Prop) x ((S1 x A1 x S1) x (S2 x A2 x S2) -> Prop)

Propositional transformer bodies come in two interchangeable shapes: a
demonic table mapping each precondition point to either VIOLATED or the
set of outcomes that must all satisfy the postcondition, and a bare
closure.  Operations preserve the demonic shape whenever their inputs
carry it, comparisons against a demonic spec are exact (set inclusion,
or one probe of the monotone left side per point), and closure pairs fall
back to postcondition enumeration with an honest Unknown verdict past the
cap.  The quantitative carrier stores a minimum of affine pieces with
rational coefficients where it can and compares exactly by linear
programming.

Outcome spaces are interned: each constructor below returns one shared
`OutcomeSpace` per field tuple, so the shape checks in bind and comparison
try identity first and fall back to field equality, which a space built
directly or unpickled (equal but not identical) still passes.

Pre/post pairs become demonic tables in two ways.  `from_prepost` embeds
a PPrelSt pair whose post may read the initial states, at the price of a
post table over |S1|^2 |S2|^2 |A1| |A2| triples.  `from_final_post` takes
a post over the carrier's own outcomes, which is all that noninterference,
relational Hoare triples and loop invariants need: one satisfying set,
shared by every point where the precondition holds.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import product
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from . import lp
from .domains import UNIT, FiniteDomain, Value, product_domain, sum_domain
from .programs import IN, OUT, History

TAGS = ("WrelPure", "WrelSt", "PPrelPure", "PPrelSt", "WrelErr", "WrelIO", "WrelProb")
PROPOSITIONAL_TAGS = frozenset({"WrelPure", "WrelSt", "WrelErr", "WrelIO"})
PP_TAGS = frozenset({"PPrelPure", "PPrelSt"})

DEFAULT_CAP = 2 ** 14
_IO_ENUM_LIMIT = 4096
_PIECE_SELECTION_LIMIT = 4096
_PIECE_LP_PRUNE_LIMIT = 160
_PIECE_DOMINANCE_LIMIT = 48
_PROB_GRID = (Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(1))

ZERO = Fraction(0)
ONE = Fraction(1)


class _Violated:
    """Marker for precondition points where a spec is unsatisfiable."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "VIOLATED"


VIOLATED = _Violated()


# ---------------------------------------------------------------------------
# Outcome spaces


@dataclass(frozen=True)
class OutcomeSpace:
    """Carrier shape of a spec: which outcomes postconditions range over.

    The value domains a1/a2 are always present.  State carriers add
    s1/s2, interactive carriers add per-side input and output alphabets.
    For the fixed carriers `size` counts outcomes exactly; interactive
    outcome sets depend on a history point and an event horizon and are
    enumerated per point instead.
    """

    tag: str
    a1: FiniteDomain
    a2: FiniteDomain
    s1: Optional[FiniteDomain] = None
    s2: Optional[FiniteDomain] = None
    i1: Optional[FiniteDomain] = None
    o1: Optional[FiniteDomain] = None
    i2: Optional[FiniteDomain] = None
    o2: Optional[FiniteDomain] = None

    def __post_init__(self):
        if self.tag not in TAGS:
            raise ValueError(f"unknown spec carrier {self.tag!r}")
        needs_state = self.tag in ("WrelSt", "PPrelSt")
        if needs_state and (self.s1 is None or self.s2 is None):
            raise ValueError(f"{self.tag} needs state domains on both sides")
        if self.tag == "WrelIO" and None in (self.i1, self.o1, self.i2, self.o2):
            raise ValueError("WrelIO needs input and output alphabets on both sides")

    @cached_property
    def pair_values(self) -> FiniteDomain:
        return product_domain(self.a1, self.a2)

    @cached_property
    def outcome_dom(self) -> FiniteDomain:
        if self.tag in ("WrelPure", "WrelProb", "PPrelPure"):
            return self.pair_values
        if self.tag == "WrelSt":
            return product_domain(product_domain(self.a1, self.s1), product_domain(self.a2, self.s2))
        if self.tag == "WrelErr":
            # The single extra outcome stands for "some side raised".
            return sum_domain(self.pair_values, UNIT)
        if self.tag == "PPrelSt":
            return product_domain(self._pp_triple(self.s1, self.a1), self._pp_triple(self.s2, self.a2))
        raise ValueError("interactive outcomes are enumerated per point")

    @staticmethod
    def _pp_triple(s: FiniteDomain, a: FiniteDomain) -> FiniteDomain:
        return product_domain(s, product_domain(a, s))

    @cached_property
    def point_dom(self) -> FiniteDomain:
        if self.tag in ("WrelSt", "PPrelSt"):
            return product_domain(self.s1, self.s2)
        return UNIT

    @cached_property
    def size(self) -> int:
        return self.outcome_dom.size

    @cached_property
    def point_count(self) -> int:
        return self.point_dom.size

    @cached_property
    def cont_points(self) -> Tuple[Tuple[Tuple[int, int], int], ...]:
        """Per outcome of a pure or state space: the value pair and the
        continuation point it carries into a bind (see `_cont_point`)."""
        return tuple(_cont_point(self, self, o) for o in self.outcomes())

    def outcomes(self) -> range:
        return range(self.size)

    def points(self) -> range:
        return range(self.point_count)

    # -- state carrier indexing

    def point(self, s1i: int, s2i: int) -> int:
        return s1i * self.s2.size + s2i

    def point_split(self, pt: int) -> Tuple[int, int]:
        return divmod(pt, self.s2.size)

    def st_outcome(self, a1i: int, s1i: int, a2i: int, s2i: int) -> int:
        left = a1i * self.s1.size + s1i
        right = a2i * self.s2.size + s2i
        return left * (self.a2.size * self.s2.size) + right

    def st_split(self, o: int) -> Tuple[int, int, int, int]:
        left, right = divmod(o, self.a2.size * self.s2.size)
        a1i, s1i = divmod(left, self.s1.size)
        a2i, s2i = divmod(right, self.s2.size)
        return a1i, s1i, a2i, s2i

    # -- errorful carrier indexing

    def err_ok(self, a1i: int, a2i: int) -> int:
        return a1i * self.a2.size + a2i

    def err_bad(self) -> int:
        return self.pair_values.size

    def err_split(self, o: int) -> Optional[Tuple[int, int]]:
        if o == self.err_bad():
            return None
        return divmod(o, self.a2.size)

    # -- pre/post triple indexing, shared by PPrelSt and the embedding

    def pp_post_index(self, si1: int, a1i: int, sf1: int, si2: int, a2i: int, sf2: int) -> int:
        t1 = si1 * (self.a1.size * self.s1.size) + a1i * self.s1.size + sf1
        t2 = si2 * (self.a2.size * self.s2.size) + a2i * self.s2.size + sf2
        return t1 * (self.s2.size * self.a2.size * self.s2.size) + t2

    def pp_post_split(self, o: int) -> Tuple[int, int, int, int, int, int]:
        t1, t2 = divmod(o, self.s2.size * self.a2.size * self.s2.size)
        si1, r1 = divmod(t1, self.a1.size * self.s1.size)
        a1i, sf1 = divmod(r1, self.s1.size)
        si2, r2 = divmod(t2, self.a2.size * self.s2.size)
        a2i, sf2 = divmod(r2, self.s2.size)
        return si1, a1i, sf1, si2, a2i, sf2

    # -- interactive carrier enumeration

    @cached_property
    def io_events1(self) -> Tuple[Tuple[str, Value], ...]:
        return self._events(self.i1, self.o1)

    @cached_property
    def io_events2(self) -> Tuple[Tuple[str, Value], ...]:
        return self._events(self.i2, self.o2)

    @staticmethod
    def _events(i: FiniteDomain, o: FiniteDomain) -> Tuple[Tuple[str, Value], ...]:
        ins = tuple((IN, Value(i, k)) for k in range(i.size))
        outs = tuple((OUT, Value(o, k)) for k in range(o.size))
        return ins + outs

    def io_outcomes_at(self, pt: Tuple[History, History], horizon: int) -> List[Tuple[int, History, History]]:
        """Outcomes reachable from pt: value pairs with histories that
        extend pt by at most `horizon` events per side (newest first)."""
        h1, h2 = pt
        exts1 = _extensions(self.io_events1, horizon)
        exts2 = _extensions(self.io_events2, horizon)
        out = []
        for v in range(self.pair_values.size):
            for e1 in exts1:
                for e2 in exts2:
                    out.append((v, e1 + h1, e2 + h2))
        return out


def _extensions(events, horizon: int) -> List[History]:
    layers: List[History] = [()]
    frontier: List[History] = [()]
    for _ in range(horizon):
        frontier = [(e,) + h for h in frontier for e in events]
        layers.extend(frontier)
    return layers


# Built spaces by field tuple, the way `domains.product_domain` memoises
# its domains: a space's cached outcome and point domains are then computed
# once, and equal spaces are usually the same object.
_SPACES: Dict[tuple, OutcomeSpace] = {}


def _interned(key: tuple) -> OutcomeSpace:
    sp = _SPACES.get(key)
    if sp is None:
        sp = _SPACES[key] = OutcomeSpace(*key)
    return sp


def outcome_space(tag: str, a1: FiniteDomain, a2: FiniteDomain,
                  s1: Optional[FiniteDomain] = None, s2: Optional[FiniteDomain] = None,
                  i1: Optional[FiniteDomain] = None, o1: Optional[FiniteDomain] = None,
                  i2: Optional[FiniteDomain] = None, o2: Optional[FiniteDomain] = None,
                  ) -> OutcomeSpace:
    """The shared space with these fields, whatever the carrier; the named
    constructors below return the same objects."""
    return _interned((tag, a1, a2, s1, s2, i1, o1, i2, o2))


def pure_space(a1: FiniteDomain, a2: FiniteDomain) -> OutcomeSpace:
    return _interned(("WrelPure", a1, a2, None, None, None, None, None, None))


def state_space(a1: FiniteDomain, s1: FiniteDomain, a2: FiniteDomain, s2: FiniteDomain) -> OutcomeSpace:
    return _interned(("WrelSt", a1, a2, s1, s2, None, None, None, None))


def err_space(a1: FiniteDomain, a2: FiniteDomain) -> OutcomeSpace:
    return _interned(("WrelErr", a1, a2, None, None, None, None, None, None))


def io_space(a1: FiniteDomain, i1: FiniteDomain, o1: FiniteDomain,
             a2: FiniteDomain, i2: FiniteDomain, o2: FiniteDomain) -> OutcomeSpace:
    return _interned(("WrelIO", a1, a2, None, None, i1, o1, i2, o2))


def prob_space(a1: FiniteDomain, a2: FiniteDomain) -> OutcomeSpace:
    return _interned(("WrelProb", a1, a2, None, None, None, None, None, None))


def pp_pure_space(a1: FiniteDomain, a2: FiniteDomain) -> OutcomeSpace:
    return _interned(("PPrelPure", a1, a2, None, None, None, None, None, None))


def pp_state_space(a1: FiniteDomain, s1: FiniteDomain, a2: FiniteDomain, s2: FiniteDomain) -> OutcomeSpace:
    return _interned(("PPrelSt", a1, a2, s1, s2, None, None, None, None))


# ---------------------------------------------------------------------------
# Postconditions and verdicts


@dataclass(frozen=True)
class Postcondition:
    """A total assignment over a space's outcomes.

    Propositional carriers store the satisfying outcome set; the
    quantitative carrier stores one rational in [0,1] per outcome.
    """

    space: OutcomeSpace
    table: object

    def __call__(self, o):
        if isinstance(self.table, frozenset):
            return o in self.table
        return self.table[o]


def postcondition(space: OutcomeSpace, table) -> Postcondition:
    if space.tag == "WrelProb":
        vals = tuple(Fraction(v) for v in table)
        if len(vals) != space.size:
            raise ValueError("quantitative postcondition must cover every outcome")
        if any(v < 0 or v > 1 for v in vals):
            raise ValueError("quantitative postcondition entries must lie in [0,1]")
        return Postcondition(space, vals)
    if space.tag == "WrelIO":
        return Postcondition(space, frozenset(table))
    outs = frozenset(table)
    for o in outs:
        if not (0 <= o < space.size):
            raise ValueError(f"outcome {o} outside space of size {space.size}")
    return Postcondition(space, outs)


@dataclass(frozen=True)
class LeqVerdict:
    """Outcome of a spec comparison.

    Fails carries a witness postcondition (and point for pointed
    carriers) at which the right spec claims more than the left spec
    delivers; both are re-checkable by direct evaluation.
    """

    kind: str
    phi: object = None
    point: object = None
    note: str = ""

    @property
    def holds(self) -> bool:
        return self.kind == "holds"

    @property
    def failed(self) -> bool:
        return self.kind == "fails"

    @property
    def is_unknown(self) -> bool:
        return self.kind == "unknown"


HOLDS = LeqVerdict("holds")


def _fails(phi, point=None, note="") -> LeqVerdict:
    return LeqVerdict("fails", phi=phi, point=point, note=note)


def _unknown(note: str) -> LeqVerdict:
    return LeqVerdict("unknown", note=note)


# ---------------------------------------------------------------------------
# The spec container


class RelSpec:
    """One inhabitant of a relational specification monad.

    Exactly one body is populated:
      table    demonic entries, indexed by point (or a memoized function
               of history points for the interactive carrier)
      closure  (phi, point) -> bool
      pieces   min-of-affine pieces (constant, coefficient row)
      qclosure phi-vector -> Fraction
      pre/post explicit tables for the pre-/postcondition carriers
    """

    __slots__ = (
        "tag", "space", "table", "closure", "pieces", "qclosure",
        "pre", "post", "io_points", "horizon", "_mask_cache", "_io_cache",
    )

    def __init__(self, tag, space, table=None, closure=None, pieces=None,
                 qclosure=None, pre=None, post=None, io_points=None, horizon=None):
        self.tag = tag
        self.space = space
        self.table = table
        self.closure = closure
        self.pieces = pieces
        self.qclosure = qclosure
        self.pre = pre
        self.post = post
        self.io_points = io_points
        self.horizon = horizon
        self._mask_cache: Dict[int, int] = {}
        self._io_cache: Dict[Tuple[History, History], object] = {}

    # -- basic queries

    @property
    def is_demonic(self) -> bool:
        return self.table is not None

    @property
    def is_explicit(self) -> bool:
        return self.pieces is not None

    def demonic_at(self, pt):
        """The demonic entry at a point, or None when only a closure exists."""
        if self.table is None:
            return None
        if self.tag == "WrelIO":
            if pt not in self._io_cache:
                self._io_cache[pt] = self.table(pt)
            return self._io_cache[pt]
        return self.table[pt]

    def at(self, phi, point=None) -> object:
        """Evaluate the transformer at one postcondition and point."""
        if self.tag in PP_TAGS:
            raise TypeError("pre/post pairs are not transformers; embed them first")
        if self.tag == "WrelProb":
            vec = _phi_vector(self, phi)
            if self.pieces is not None:
                return min(k + sum(c * v for c, v in zip(cs, vec) if c) for k, cs in self.pieces)
            return self.qclosure(vec)
        pt = self._norm_point(point)
        f = _phi_func(phi)
        entry = self.demonic_at(pt)
        if entry is not None:
            if entry is VIOLATED:
                return False
            return all(f(o) for o in entry)
        return bool(self.closure(f, pt))

    def apply(self, phi):
        """Evaluate at every point; returns a tuple aligned with points."""
        if self.tag == "WrelProb":
            return self.at(phi)
        if self.tag == "WrelIO":
            return tuple(self.at(phi, pt) for pt in self.io_points)
        return tuple(self.at(phi, pt) for pt in self.space.points())

    def _norm_point(self, point):
        if self.tag == "WrelIO":
            if point is None:
                raise ValueError("interactive specs need a history point")
            return point
        if point is None:
            point = 0
        if not (0 <= point < self.space.point_count):
            raise ValueError(f"point {point} outside {self.space.point_count} points")
        return point

    def mask_at(self, pt: int) -> int:
        """Demonic entry as a bitmask; -1 encodes VIOLATED (fixed carriers)."""
        m = self._mask_cache.get(pt)
        if m is None:
            entry = self.table[pt]
            m = -1 if entry is VIOLATED else sum(1 << o for o in entry)
            self._mask_cache[pt] = m
        return m

    def __repr__(self):
        body = ("demonic" if self.is_demonic else
                "pieces" if self.pieces is not None else
                "pre/post" if self.pre is not None else "closure")
        return f"<RelSpec {self.tag} {body}>"


def _phi_func(phi) -> Callable[[object], bool]:
    if isinstance(phi, Postcondition):
        phi = phi.table
    if isinstance(phi, int):
        return lambda o: bool((phi >> o) & 1)
    if isinstance(phi, (set, frozenset)):
        return lambda o: o in phi
    if isinstance(phi, (tuple, list)):
        return lambda o: bool(phi[o])
    if callable(phi):
        return phi
    raise TypeError(f"cannot read {type(phi).__name__} as a postcondition")


def _phi_vector(w: RelSpec, phi) -> Tuple[Fraction, ...]:
    if isinstance(phi, Postcondition):
        phi = phi.table
    n = w.space.size
    if isinstance(phi, (tuple, list)):
        vec = tuple(Fraction(v) for v in phi)
        if len(vec) != n:
            raise ValueError("quantitative postcondition has the wrong length")
        return vec
    if callable(phi):
        return tuple(Fraction(phi(o)) for o in range(n))
    raise TypeError("quantitative postconditions are value tables")


# ---------------------------------------------------------------------------
# Constructors


def _norm_entry(space: OutcomeSpace, entry):
    """VIOLATED, or the entry as a frozenset of outcomes in range(space.size).

    The range check reads only the least and greatest outcome; the element
    loop runs only to name the first offender.  A frozenset is kept as is.
    """
    if entry is VIOLATED:
        return VIOLATED
    outs = entry if type(entry) is frozenset else frozenset(entry)
    n = space.size
    if outs and (min(outs) < 0 or max(outs) >= n):
        for o in outs:
            if not (0 <= o < n):
                raise ValueError(f"outcome {o} outside space of size {n}")
    return outs


def demonic_spec(space: OutcomeSpace, table) -> RelSpec:
    """Spec from per-point demonic entries (fixed carriers only)."""
    if space.tag not in PROPOSITIONAL_TAGS or space.tag == "WrelIO":
        raise ValueError(f"demonic tables need a fixed propositional carrier, not {space.tag}")
    entries = tuple(_norm_entry(space, e) for e in table)
    if len(entries) != space.point_count:
        raise ValueError("demonic table must cover every precondition point")
    return RelSpec(space.tag, space, table=entries)


def closure_spec(space: OutcomeSpace, fn) -> RelSpec:
    """Spec from a closure (postcondition, point) -> bool.

    The closure must be monotone in the postcondition: if it accepts phi at
    a point it accepts every phi' containing phi there.  Every operation
    here preserves that, and `spec_leq` relies on it to decide a closure
    against a demonic spec with one probe per point.
    """
    if space.tag not in PROPOSITIONAL_TAGS or space.tag == "WrelIO":
        raise ValueError(f"closures need a fixed propositional carrier, not {space.tag}")
    return RelSpec(space.tag, space, closure=fn)


def io_demonic_spec(space: OutcomeSpace, fn, points, horizon: int) -> RelSpec:
    """Interactive spec with lazily computed demonic entries.

    `fn` maps a history pair to VIOLATED or a set of (value, h1, h2)
    outcomes; `points` declares where comparisons happen; `horizon`
    bounds how far outcomes extend the evaluation point.
    """
    if space.tag != "WrelIO":
        raise ValueError("io_demonic_spec needs the interactive carrier")
    pts = tuple(points)
    return RelSpec("WrelIO", space, table=lambda pt: _norm_io_entry(fn(pt)),
                   io_points=pts, horizon=horizon)


def _norm_io_entry(entry):
    return VIOLATED if entry is VIOLATED else frozenset(entry)


def io_closure_spec(space: OutcomeSpace, fn, points, horizon: int) -> RelSpec:
    if space.tag != "WrelIO":
        raise ValueError("io_closure_spec needs the interactive carrier")
    return RelSpec("WrelIO", space, closure=fn, io_points=tuple(points), horizon=horizon)


def linear_spec(space: OutcomeSpace, pieces, exact_prune: bool = True) -> RelSpec:
    """Quantitative spec as a minimum of affine pieces (const, coeffs).

    Redundant pieces never change the minimum, so `exact_prune=False` is a
    pure speed knob for callers that mass-produce large piece families.
    """
    if space.tag != "WrelProb":
        raise ValueError("linear specs live in the quantitative carrier")
    norm = []
    for k, coeffs in pieces:
        cs = tuple(Fraction(c) for c in coeffs)
        if len(cs) != space.size:
            raise ValueError("piece coefficients must cover every outcome")
        if any(c < 0 for c in cs):
            raise ValueError("piece coefficients must be nonnegative to stay monotone")
        norm.append((Fraction(k), cs))
    if not norm:
        raise ValueError("need at least one piece")
    return RelSpec("WrelProb", space, pieces=prune_pieces(norm, exact=exact_prune))


def quant_closure_spec(space: OutcomeSpace, fn) -> RelSpec:
    if space.tag != "WrelProb":
        raise ValueError("quantitative closures live in the quantitative carrier")
    return RelSpec("WrelProb", space, qclosure=fn)


def pp_spec(space: OutcomeSpace, pre, post) -> RelSpec:
    if space.tag not in PP_TAGS:
        raise ValueError(f"pre/post pairs need a PPrel carrier, not {space.tag}")
    pre_t = tuple(bool(v) for v in pre)
    post_t = tuple(bool(v) for v in post)
    if len(pre_t) != space.point_count:
        raise ValueError("precondition table must cover every point")
    if len(post_t) != space.size:
        raise ValueError("postcondition table must cover every outcome")
    return RelSpec(space.tag, space, pre=pre_t, post=post_t)


def prune_pieces(pieces: List[Tuple[Fraction, Tuple[Fraction, ...]]], exact: bool = True):
    """Drop duplicate and never-minimal pieces from a min-of-affine form."""
    uniq = sorted(set((k, cs) for k, cs in pieces))
    if len(uniq) > _PIECE_DOMINANCE_LIMIT:
        return tuple(uniq)
    kept = []
    for k, cs in uniq:
        if any(k2 <= k and all(a <= b for a, b in zip(cs2, cs)) and (k2, cs2) != (k, cs)
               for k2, cs2 in uniq):
            continue
        kept.append((k, cs))
    if len(kept) <= 1 or not exact or len(kept) > _PIECE_LP_PRUNE_LIMIT:
        return tuple(kept)
    # Exact filter: a piece is redundant when the others stay at or below
    # it over the whole box.
    dim = len(kept[0][1])
    work = list(kept)
    i = 0
    while i < len(work) and len(work) > 1:
        others = work[:i] + work[i + 1:]
        k_i, c_i = work[i]
        diff = [(k - k_i, tuple(a - b for a, b in zip(cs, c_i))) for k, cs in others]
        if lp.box_upper_bound(diff) <= 0 or lp.max_min_affine(diff, dim)[0] <= 0:
            work.pop(i)
        else:
            i += 1
    return tuple(work)


# ---------------------------------------------------------------------------
# The monad operations


def _check_value(v: Value, dom: FiniteDomain, side: str):
    if v.domain != dom:
        raise ValueError(f"{side} value from domain {v.domain.name!r}, expected {dom.name!r}")


def spec_ret(space: OutcomeSpace, a1: Value, a2: Value, points=None, horizon: int = 0) -> RelSpec:
    """The unit: demand the postcondition exactly at the given value pair."""
    _check_value(a1, space.a1, "left")
    _check_value(a2, space.a2, "right")
    i1, i2 = a1.index, a2.index
    tag = space.tag
    if tag == "WrelPure":
        return demonic_spec(space, [frozenset({i1 * space.a2.size + i2})])
    if tag == "WrelSt":
        table = []
        for pt in space.points():
            s1i, s2i = space.point_split(pt)
            table.append(frozenset({space.st_outcome(i1, s1i, i2, s2i)}))
        return demonic_spec(space, table)
    if tag == "WrelErr":
        return demonic_spec(space, [frozenset({space.err_ok(i1, i2)})])
    if tag == "WrelIO":
        pts = tuple(points) if points is not None else (((), ()),)
        v = i1 * space.a2.size + i2
        return io_demonic_spec(space, lambda pt: {(v, pt[0], pt[1])}, pts, horizon)
    if tag == "WrelProb":
        coeffs = [ZERO] * space.size
        coeffs[i1 * space.a2.size + i2] = ONE
        return linear_spec(space, [(ZERO, coeffs)])
    if tag == "PPrelPure":
        post = [o == i1 * space.a2.size + i2 for o in space.outcomes()]
        return pp_spec(space, [True], post)
    if tag == "PPrelSt":
        post = []
        for o in space.outcomes():
            si1, a1i, sf1, si2, a2i, sf2 = space.pp_post_split(o)
            post.append(a1i == i1 and a2i == i2 and si1 == sf1 and si2 == sf2)
        return pp_spec(space, [True] * space.point_count, post)
    raise ValueError(f"unknown carrier {tag}")


def _conts(space: OutcomeSpace, wf) -> Dict[Tuple[int, int], RelSpec]:
    if callable(wf):
        get = wf
    elif isinstance(wf, dict):
        get = lambda i1, i2: wf[(i1, i2)]
    else:
        get = lambda i1, i2: wf[i1 * space.a2.size + i2]
    out = {}
    for i1 in range(space.a1.size):
        for i2 in range(space.a2.size):
            w = get(i1, i2)
            if not isinstance(w, RelSpec):
                raise ValueError("continuation table must yield specs")
            out[(i1, i2)] = w
    return out


def _common_cont_space(wm: RelSpec, conts: Dict[Tuple[int, int], RelSpec]) -> OutcomeSpace:
    """The continuations' common space.

    Every continuation must carry wm's tag, the first continuation's value
    domains, and wm's ambient fields (states, alphabets).  Only the first
    continuation's space is compared field by field; one that is that very
    object needs only its tag checked, and any other space gets the full
    comparison, so the errors and their order are those of checking each
    continuation in turn.
    """
    first = None
    for w in conts.values():
        if w.tag != wm.tag:
            raise ValueError(f"continuation carrier {w.tag} differs from {wm.tag}")
        sp = w.space
        if first is None:
            first = sp
        elif sp is first:
            continue
        elif (sp.a1, sp.a2) != (first.a1, first.a2):
            raise ValueError("continuations disagree on their value domains")
        amb = wm.space
        if (sp.s1, sp.s2, sp.i1, sp.o1, sp.i2, sp.o2) != (
                amb.s1, amb.s2, amb.i1, amb.o1, amb.i2, amb.o2):
            raise ValueError("continuations must keep the ambient carrier shape")
    return first


def spec_bind(wm: RelSpec, wf) -> RelSpec:
    """Sequential composition of specs, preserving fast forms when possible."""
    space = wm.space
    conts = _conts(space, wf)
    cspace = _common_cont_space(wm, conts)
    tag = wm.tag
    if tag in ("WrelPure", "WrelSt", "WrelErr"):
        return _bind_fixed(wm, conts, cspace)
    if tag == "WrelIO":
        return _bind_io(wm, conts, cspace)
    if tag == "WrelProb":
        return _bind_prob(wm, conts, cspace)
    if tag == "PPrelPure":
        return _bind_pp_pure(wm, conts, cspace)
    if tag == "PPrelSt":
        return _bind_pp_state(wm, conts, cspace)
    raise ValueError(f"unknown carrier {tag}")


def _cont_point(space: OutcomeSpace, tspace: OutcomeSpace, o: int):
    """Value pair and continuation point carried by an intermediate outcome."""
    if space.tag == "WrelPure":
        return divmod(o, space.a2.size), 0
    if space.tag == "WrelSt":
        a1i, s1i, a2i, s2i = space.st_split(o)
        return (a1i, a2i), tspace.point(s1i, s2i)
    raise AssertionError(space.tag)


def _holds(w: RelSpec, f, pt: int) -> bool:
    """A fixed-carrier spec at predicate f and an in-range point: what
    `RelSpec.at` answers, without normalising the postcondition and point."""
    table = w.table
    if table is not None:
        entry = table[pt]
        return entry is not VIOLATED and all(f(o) for o in entry)
    return bool(w.closure(f, pt))


def _bind_fixed(wm: RelSpec, conts, cspace: OutcomeSpace) -> RelSpec:
    space = wm.space
    tspace = cspace
    is_err = space.tag == "WrelErr"
    # Continuation points follow wm's ambient states, which every
    # continuation shares, so wm's own decode table serves tspace too.
    decode = None if is_err else space.cont_points
    if wm.is_demonic and all(w.is_demonic for w in conts.values()):
        table = []
        for r in wm.table:
            if r is VIOLATED:
                table.append(VIOLATED)
                continue
            acc = set()
            broken = False
            for o in r:
                if is_err:
                    split = space.err_split(o)
                    if split is None:
                        acc.add(tspace.err_bad())
                        continue
                    sub = conts[split].table[0]
                else:
                    pair, cpt = decode[o]
                    sub = conts[pair].table[cpt]
                if sub is VIOLATED:
                    broken = True
                    break
                acc |= sub
            table.append(VIOLATED if broken else frozenset(acc))
        return demonic_spec(tspace, table)

    def body(f, pt, _wm=wm, _conts=conts):
        if is_err:
            def psi(o):
                split = space.err_split(o)
                if split is None:
                    return f(tspace.err_bad())
                return _holds(_conts[split], f, 0)
        else:
            def psi(o):
                pair, cpt = decode[o]
                return _holds(_conts[pair], f, cpt)
        return _holds(_wm, psi, pt)

    return closure_spec(tspace, body)


def _bind_io(wm: RelSpec, conts, cspace: OutcomeSpace) -> RelSpec:
    space = wm.space
    horizon = (wm.horizon or 0) + max((w.horizon or 0) for w in conts.values())
    pair = lambda v: divmod(v, space.a2.size)
    if wm.is_demonic and all(w.is_demonic for w in conts.values()):
        def fn(pt, _wm=wm, _conts=conts):
            r = _wm.demonic_at(pt)
            if r is VIOLATED:
                return VIOLATED
            acc = set()
            for (v, h1, h2) in r:
                sub = _conts[pair(v)].demonic_at((h1, h2))
                if sub is VIOLATED:
                    return VIOLATED
                acc |= sub
            return frozenset(acc)
        return io_demonic_spec(cspace, fn, wm.io_points, horizon)

    def body(f, pt, _wm=wm, _conts=conts):
        def psi(o):
            v, h1, h2 = o
            return _conts[pair(v)].at(f, (h1, h2))
        return _wm.at(psi, pt)

    return io_closure_spec(cspace, body, wm.io_points, horizon)


def _bind_prob(wm: RelSpec, conts, cspace: OutcomeSpace) -> RelSpec:
    space = wm.space
    if wm.pieces is not None and all(w.pieces is not None for w in conts.values()):
        cont_pieces = {}
        for (i1, i2), w in conts.items():
            cont_pieces[i1 * space.a2.size + i2] = w.pieces
        total = 0
        for k, coeffs in wm.pieces:
            sel = 1
            for o, c in enumerate(coeffs):
                if c:
                    sel *= len(cont_pieces[o])
            total += sel
        if total <= _PIECE_SELECTION_LIMIT:
            pieces = []
            for k, coeffs in wm.pieces:
                live = [o for o, c in enumerate(coeffs) if c]
                for choice in product(*(cont_pieces[o] for o in live)):
                    kk = k
                    acc = [ZERO] * cspace.size
                    for o, (ck, ccs) in zip(live, choice):
                        w_o = coeffs[o]
                        kk += w_o * ck
                        for t, cv in enumerate(ccs):
                            if cv:
                                acc[t] += w_o * cv
                    pieces.append((kk, tuple(acc)))
            return linear_spec(cspace, pieces, exact_prune=False)

    def body(vec, _wm=wm, _conts=conts):
        psi = tuple(_conts[divmod(o, space.a2.size)].at(vec) for o in range(space.size))
        return _wm.at(psi)

    return quant_closure_spec(cspace, body)


def _bind_pp_pure(wm: RelSpec, conts, cspace: OutcomeSpace) -> RelSpec:
    space = wm.space
    pre_ok = wm.pre[0] and all(
        not wm.post[i1 * space.a2.size + i2] or conts[(i1, i2)].pre[0]
        for i1 in range(space.a1.size) for i2 in range(space.a2.size)
    )
    post = []
    for b in cspace.outcomes():
        post.append(any(
            wm.post[i1 * space.a2.size + i2] and conts[(i1, i2)].post[b]
            for i1 in range(space.a1.size) for i2 in range(space.a2.size)
        ))
    return pp_spec(cspace, [pre_ok], post)


def _bind_pp_state(wm: RelSpec, conts, cspace: OutcomeSpace) -> RelSpec:
    space = wm.space
    mids = [(a1i, a2i, sm1, sm2)
            for a1i in range(space.a1.size) for a2i in range(space.a2.size)
            for sm1 in range(space.s1.size) for sm2 in range(space.s2.size)]
    pre = []
    for pt in space.points():
        si1, si2 = space.point_split(pt)
        ok = wm.pre[pt] and all(
            not wm.post[space.pp_post_index(si1, a1i, sm1, si2, a2i, sm2)]
            or conts[(a1i, a2i)].pre[space.point(sm1, sm2)]
            for a1i, a2i, sm1, sm2 in mids
        )
        pre.append(ok)
    post = []
    for o in cspace.outcomes():
        si1, b1i, sf1, si2, b2i, sf2 = cspace.pp_post_split(o)
        post.append(any(
            wm.post[space.pp_post_index(si1, a1i, sm1, si2, a2i, sm2)]
            and conts[(a1i, a2i)].post[cspace.pp_post_index(sm1, b1i, sf1, sm2, b2i, sf2)]
            for a1i, a2i, sm1, sm2 in mids
        ))
    return pp_spec(cspace, pre, post)


# ---------------------------------------------------------------------------
# Pre/post embeddings


def from_final_post(space: OutcomeSpace, pre, post) -> RelSpec:
    """Backward transformer of a pre/post pair whose post reads only outcomes.

    `pre` indexes the carrier's precondition points and `post` its own
    outcomes (value pairs, with final states on the stateful carrier).
    The satisfying outcome set is built once and shared by every point
    where `pre` holds; the other points are VIOLATED.
    """
    if space.tag not in ("WrelPure", "WrelSt"):
        raise ValueError("pre/post embeddings target the pure or stateful carrier")
    pre_t, post_t = tuple(map(bool, pre)), tuple(map(bool, post))
    if len(pre_t) != space.point_count or len(post_t) != space.size:
        raise ValueError("pre/post tables must cover every point and every outcome")
    sat = frozenset(o for o, ok in enumerate(post_t) if ok)
    return RelSpec(space.tag, space, table=tuple(sat if ok else VIOLATED for ok in pre_t))


def from_prepost(space: OutcomeSpace, pre, post) -> RelSpec:
    """Backward transformer of a pre/post pair.

    For the stateful carrier, `pre` indexes initial state pairs and
    `post` indexes (initial, value, final) triples per side via
    pp_post_index; at precondition-violating points the spec is marked
    VIOLATED rather than silently weakened.  The pure carrier has no
    initial states, so its post reads value pairs only.
    """
    if space.tag == "WrelPure":
        return from_final_post(space, pre, post)
    if space.tag != "WrelSt":
        raise ValueError("pre/post embeddings target the pure or stateful carrier")
    pre_t = tuple(bool(v) for v in pre)
    if len(pre_t) != space.point_count:
        raise ValueError("precondition table must cover every initial state pair")
    table = []
    for pt in space.points():
        if not pre_t[pt]:
            table.append(VIOLATED)
            continue
        si1, si2 = space.point_split(pt)
        sat = set()
        for a1i in range(space.a1.size):
            for sf1 in range(space.s1.size):
                for a2i in range(space.a2.size):
                    for sf2 in range(space.s2.size):
                        if post[space.pp_post_index(si1, a1i, sf1, si2, a2i, sf2)]:
                            sat.add(space.st_outcome(a1i, sf1, a2i, sf2))
        table.append(frozenset(sat))
    return demonic_spec(space, table)


def embed_pp_in_wp(w: RelSpec) -> RelSpec:
    """View a pre/post pair as a backward predicate transformer."""
    if w.tag == "PPrelSt":
        target = state_space(w.space.a1, w.space.s1, w.space.a2, w.space.s2)
        return from_prepost(target, w.pre, w.post)
    if w.tag == "PPrelPure":
        target = pure_space(w.space.a1, w.space.a2)
        return from_prepost(target, w.pre, w.post)
    raise ValueError("only pre/post pairs embed into transformers")


# ---------------------------------------------------------------------------
# Distinguished elements


def unsatisfiable(space: OutcomeSpace, points=None) -> RelSpec:
    """The top claim: no postcondition is guaranteed anywhere."""
    tag = space.tag
    if tag == "WrelIO":
        pts = tuple(points) if points is not None else (((), ()),)
        return io_demonic_spec(space, lambda pt: VIOLATED, pts, 0)
    if tag == "WrelProb":
        return linear_spec(space, [(ONE, [ZERO] * space.size)])
    if tag in PP_TAGS:
        return pp_spec(space, [False] * space.point_count, [True] * space.size)
    return demonic_spec(space, [VIOLATED] * space.point_count)


def weakest(space: OutcomeSpace, points=None) -> RelSpec:
    """The least claim: trivially satisfied by every observation."""
    tag = space.tag
    if tag == "WrelIO":
        pts = tuple(points) if points is not None else (((), ()),)
        return io_demonic_spec(space, lambda pt: frozenset(), pts, 0)
    if tag == "WrelProb":
        return linear_spec(space, [(ZERO, [ZERO] * space.size)])
    if tag in PP_TAGS:
        return pp_spec(space, [True] * space.point_count, [False] * space.size)
    return demonic_spec(space, [frozenset()] * space.point_count)


def drop_fast_form(w: RelSpec) -> RelSpec:
    """Same transformer, fast forms forgotten.  Exists so the demonic and
    piece paths can be tested against plain enumeration."""
    if w.tag == "WrelProb":
        return quant_closure_spec(w.space, lambda vec, _w=w: _w.at(vec))
    if w.tag == "WrelIO":
        return io_closure_spec(w.space, lambda f, pt, _w=w: _w.at(f, pt), w.io_points, w.horizon)
    if w.tag in PP_TAGS:
        raise ValueError("pre/post pairs have no fast form to drop")
    return closure_spec(w.space, lambda f, pt, _w=w: _w.at(f, pt))


def reindex_outcomes(w: RelSpec, target: OutcomeSpace, fn) -> RelSpec:
    """Push a spec along an outcome translation (same carrier and points).

    `fn` maps source outcomes to target outcomes; demonic sets map
    through it, closures precompose the postcondition with it.
    """
    if w.tag != target.tag or w.tag == "WrelIO" or w.tag in PP_TAGS:
        raise ValueError("outcome translation is for fixed transformer carriers")
    if w.space.point_count != target.point_count:
        raise ValueError("outcome translation must preserve precondition points")
    if w.tag == "WrelProb":
        if w.pieces is None:
            return quant_closure_spec(
                target,
                lambda vec, _w=w: _w.at(tuple(vec[fn(o)] for o in range(_w.space.size))))
        pieces = []
        for k, cs in w.pieces:
            acc = [ZERO] * target.size
            for o, c in enumerate(cs):
                if c:
                    acc[fn(o)] += c
            pieces.append((k, tuple(acc)))
        return linear_spec(target, pieces)
    if w.is_demonic:
        table = []
        for pt in range(w.space.point_count):
            entry = w.demonic_at(pt)
            table.append(VIOLATED if entry is VIOLATED else frozenset(fn(o) for o in entry))
        return demonic_spec(target, table)
    return closure_spec(target, lambda f, pt, _w=w: _w.at(lambda o: f(fn(o)), pt))


# ---------------------------------------------------------------------------
# The comparison procedure


def spec_leq(w: RelSpec, w2: RelSpec, cap: int = DEFAULT_CAP, seed: int = 0) -> LeqVerdict:
    """Decide w <= w2.

    The propositional carriers take the first path that applies:

      demonic pair     exact, per-point set inclusion;
      demonic right    exact, one probe per point: w evaluated at w2's
                       entry there (VIOLATED points skipped), which decides
                       the point because every transformer is monotone;
      enumeration      every postcondition, while the outcome space stays
                       within log2(cap);
      sampling         constants, singletons, co-singletons and cap-many
                       seeded random tables, answering Unknown when nothing
                       refutes.

    Quantitative pairs with explicit pieces compare exactly: per piece of
    w2, a box bound settles the difference family without an LP when it
    is already <= 0, and linear programming decides the rest.
    Quantitative closures are only ever refuted, never confirmed.
    """
    if w.tag != w2.tag:
        raise ValueError(f"cannot compare {w.tag} with {w2.tag}")
    if w.space is not w2.space and (w.space.a1, w.space.a2, w.space.s1, w.space.s2,
            w.space.i1, w.space.o1, w.space.i2, w.space.o2) != (
            w2.space.a1, w2.space.a2, w2.space.s1, w2.space.s2,
            w2.space.i1, w2.space.o1, w2.space.i2, w2.space.o2):
        raise ValueError("cannot compare specs over different outcome spaces")
    if w.tag in PP_TAGS:
        return _leq_pp(w, w2)
    if w.tag == "WrelProb":
        return _leq_prob(w, w2, cap, seed)
    if w.tag == "WrelIO":
        return _leq_io(w, w2, cap, seed)
    return _leq_fixed(w, w2, cap, seed)


def spec_equiv(w: RelSpec, w2: RelSpec, cap: int = DEFAULT_CAP, seed: int = 0) -> LeqVerdict:
    """Both directions of spec_leq; Holds means extensional equality
    (up to the same caveats as spec_leq)."""
    fwd = spec_leq(w, w2, cap, seed)
    if not fwd.holds:
        return fwd
    return spec_leq(w2, w, cap, seed)


def _leq_pp(w: RelSpec, w2: RelSpec) -> LeqVerdict:
    for pt in range(w.space.point_count):
        if w2.pre[pt] and not w.pre[pt]:
            return _fails(None, point=pt, note="right precondition not covered by left")
    for o in range(w.space.size):
        if w.post[o] and not w2.post[o]:
            return _fails(o, note="left postcondition not covered by right")
    return HOLDS


def _leq_prob(w: RelSpec, w2: RelSpec, cap: int, seed: int) -> LeqVerdict:
    n = w.space.size
    if w.pieces is not None and w2.pieces is not None:
        for k2, c2 in w2.pieces:
            diff = [(k1 - k2, tuple(a - b for a, b in zip(c1, c2))) for k1, c1 in w.pieces]
            if lp.box_upper_bound(diff) <= 0:
                continue
            val, phi = lp.max_min_affine(diff, n)
            if val > 0:
                return _fails(phi, note="left exceeds right at this table")
        return HOLDS
    rng = random.Random(seed)
    tried = 0
    if len(_PROB_GRID) ** n <= cap:
        candidates: Iterable = product(_PROB_GRID, repeat=n)
    else:
        def gen():
            yield tuple([ZERO] * n)
            yield tuple([ONE] * n)
            for o in range(n):
                row = [ZERO] * n
                row[o] = ONE
                yield tuple(row)
            for _ in range(cap):
                yield tuple(Fraction(rng.randrange(5), 4) for _ in range(n))
        candidates = gen()
    for vec in candidates:
        tried += 1
        if w.at(vec) > w2.at(vec):
            return _fails(vec, note="left exceeds right at this table")
    return _unknown(f"no refutation among {tried} quantitative tables; "
                    "confirmation needs explicit pieces on both sides")


def _fast_eval(w: RelSpec):
    if w.is_demonic:
        def ev(mask, pt, _w=w):
            m = _w.mask_at(pt)
            if m == -1:
                return False
            return (mask & m) == m
        return ev
    return lambda mask, pt, _w=w: _holds(_w, lambda o: bool(mask >> o & 1), pt)


def _leq_fixed(w: RelSpec, w2: RelSpec, cap: int, seed: int) -> LeqVerdict:
    space = w.space
    n = space.size
    if w.is_demonic and w2.is_demonic:
        for pt, (r, r2) in enumerate(zip(w.table, w2.table)):
            if r2 is VIOLATED:
                continue
            if r is VIOLATED or not r <= r2:
                return _fails(frozenset(r2), point=pt,
                              note="right holds but left does not at this point")
        return HOLDS
    ev1 = _fast_eval(w)
    if w2.is_demonic:
        # w2 accepts exactly the supersets of its entry at each point, and w
        # is monotone, so w fails on one of them iff it fails on the entry
        # itself, the smallest such superset and the one enumeration meets
        # first.
        for pt in space.points():
            m2 = w2.mask_at(pt)
            if m2 != -1 and not ev1(m2, pt):
                return _fails(frozenset(w2.demonic_at(pt)), point=pt,
                              note="right holds but left does not at this point")
        return HOLDS
    ev2 = _fast_eval(w2)
    if 2 ** n <= cap:
        full = range(2 ** n)
        for pt in space.points():
            for mask in full:
                if ev2(mask, pt) and not ev1(mask, pt):
                    return _fails(frozenset(o for o in range(n) if mask >> o & 1), point=pt,
                                  note="right holds but left does not at this point")
        return HOLDS
    rng = random.Random(seed)
    masks = [0, (1 << n) - 1]
    masks += [1 << o for o in range(n)]
    masks += [((1 << n) - 1) ^ (1 << o) for o in range(n)]
    masks += [rng.getrandbits(n) for _ in range(cap)]
    for pt in space.points():
        for mask in masks:
            if ev2(mask, pt) and not ev1(mask, pt):
                return _fails(frozenset(o for o in range(n) if mask >> o & 1), point=pt,
                              note="right holds but left does not at this point")
    return _unknown(f"outcome space of size {n} exceeds the enumeration cap")


def _leq_io(w: RelSpec, w2: RelSpec, cap: int, seed: int) -> LeqVerdict:
    if set(w.io_points) != set(w2.io_points):
        raise ValueError("cannot compare interactive specs with different declared points")
    if w.is_demonic and w2.is_demonic:
        for pt in w.io_points:
            r2 = w2.demonic_at(pt)
            if r2 is VIOLATED:
                continue
            r = w.demonic_at(pt)
            if r is VIOLATED or not r <= r2:
                return _fails(frozenset(r2), point=pt,
                              note="right holds but left does not at this point")
        return HOLDS
    horizon = max(w.horizon or 0, w2.horizon or 0)
    rng = random.Random(seed)
    for pt in w.io_points:
        outs = w.space.io_outcomes_at(pt, horizon)
        for side in (w, w2):
            entry = side.demonic_at(pt) if side.is_demonic else None
            if entry is not None and entry is not VIOLATED and not entry <= set(outs):
                raise ValueError("demonic outcomes exceed the declared horizon")
        n = len(outs)
        if n > _IO_ENUM_LIMIT:
            return _unknown(f"{n} reachable outcomes at {pt} is past the enumeration limit")
        if 2 ** n <= cap:
            subsets: Iterable = (frozenset(o for i, o in enumerate(outs) if mask >> i & 1)
                                 for mask in range(2 ** n))
        else:
            pool = [frozenset(), frozenset(outs)]
            pool += [frozenset({o}) for o in outs]
            pool += [frozenset(outs) - {o} for o in outs]
            pool += [frozenset(o for o in outs if rng.random() < 0.5) for _ in range(cap)]
            subsets = pool
        exhaustive = 2 ** n <= cap
        for phi in subsets:
            if w2.at(phi, pt) and not w.at(phi, pt):
                return _fails(phi, point=pt,
                              note="right holds but left does not at this point")
        if not exhaustive:
            return _unknown(f"{n} reachable outcomes at {pt} exceed the enumeration cap")
    return HOLDS
