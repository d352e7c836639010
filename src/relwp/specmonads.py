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
  PPrelSt    (S1 x S2 -> Prop) x (S1 x S2 -> ((A1 x S1) x (A2 x S2)) -> Prop)

The fixed propositional carriers (WrelPure, WrelSt, WrelErr) have one
body, their exact normal form: per point, the antichain of minimal accepted
postconditions, each an int bitmask of outcomes (a demand family).  The
spec accepts phi at the point exactly when some demand lies inside phi; the
empty family is VIOLATED.  Unit, bind, reindexing and the order are set
operations on families.  The split-context carriers of `generic` use the
same specs: their pure payloads are one-point WrelPure specs.  No
postcondition is enumerated or sampled for these carriers, `spec_leq`
decides them exactly, and a family past a documented size raises
`SpecTooLarge`.  Pre/post pairs share that body.  A PPrel space has the
outcomes and points of its Wrel space, and a pair holds one demand per
point, its post row over those outcomes, beside its precondition row.
Unit, bind and the order on the rows are the demand-family operations; the
precondition row only adds a conjunction to each.

The interactive carrier has one body too: a demonic entry per history
point, the set of (value pair, history, history) outcomes that must all
satisfy the postcondition, or VIOLATED.  Entries are computed lazily and
kept once read; bind threads histories through them and `spec_leq`
compares them by set inclusion at every declared point.  The quantitative
carrier's one body is a minimum of affine pieces, held as rows of ints
over one positive denominator per spec, in lowest terms after pruning, so
equal specs have equal rows; `pieces` is the rational view.  Bind scales
its continuations to one denominator and expands the pieces exactly,
pruning as it goes, and past a documented size raises `SpecTooLarge`;
`spec_leq` scales both sides to one denominator and compares pieces
exactly by linear programming.

Outcome spaces are canonical (`domains.Canonical`): one `OutcomeSpace`
per field tuple, however it is built, so the shape checks in bind and
comparison are identity tests.  Within one
check (`programs._EvaluationScope`), `spec_ret`, `spec_bind`, `linear_spec`
and `demand_spec` build each spec once, in the check's table, so a replay
that rebuilds a stated spec gets that very object and `spec_equiv` answers
at once; the table goes with the check.

Pre/post pairs become demonic specs in two ways.  `embed_pp_in_wp` keeps
a pair's post row at every point where its precondition holds and is
VIOLATED elsewhere; `from_prepost` embeds the pair `pp_spec` builds from
tables, whose post may read the initial states at the price of a row per
initial state pair.  `from_final_post` takes a post over the carrier's own
outcomes, which is all that noninterference, relational Hoare triples and
loop invariants need: one satisfying set, shared by every point where the
precondition holds.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, reduce
from math import gcd, lcm
from operator import or_
from typing import Callable, Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from . import lp
from .domains import Canonical, FiniteDomain, Value
from .programs import _TABLE, History

TAGS = ("WrelPure", "WrelSt", "PPrelPure", "PPrelSt", "WrelErr", "WrelIO", "WrelProb")
_FIXED_TAGS = frozenset({"WrelPure", "WrelSt", "WrelErr"})
PP_TAGS = frozenset({"PPrelPure", "PPrelSt"})
_STATE_TAGS = frozenset({"WrelSt", "PPrelSt"})

DEFAULT_CAP = 2 ** 14
_PIECE_LP_PRUNE_LIMIT = 160
_PIECE_DOMINANCE_LIMIT = 48

# `closure_spec` tabulates a predicate over at most this many outcomes, and
# one step of a bind (partial demands or piece sums times the next outcome's
# family or pieces) may form at most this many; the forall-exists
# observation is such a bind, with one demand per choice function.
_CLOSURE_OUTCOME_LIMIT = 16
_DEMAND_LIMIT = 4096


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


class SpecTooLarge(ValueError):
    """The exact form of a spec would pass a documented size limit."""


def _bind_step(count: int, what: str) -> None:
    if count > _DEMAND_LIMIT:
        raise SpecTooLarge(f"bind step forms {count} {what}, past the limit of {_DEMAND_LIMIT}")


# ---------------------------------------------------------------------------
# Outcome spaces


@dataclass(frozen=True, eq=False)
class OutcomeSpace(Canonical):
    """Carrier shape of a spec: which outcomes postconditions range over.

    The value domains a1/a2 are always present.  State carriers add
    s1/s2, interactive carriers add per-side input and output alphabets.
    For the fixed carriers `size` counts outcomes exactly; a PPrel space
    has the outcomes and points of its Wrel space.  Interactive
    outcomes are (value pair, history, history) triples and form no finite
    domain: each spec lists the ones it demands per history point.
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
        needs_state = self.tag in _STATE_TAGS
        if needs_state and (self.s1 is None or self.s2 is None):
            raise ValueError(f"{self.tag} needs state domains on both sides")
        if self.tag == "WrelIO" and None in (self.i1, self.o1, self.i2, self.o2):
            raise ValueError("WrelIO needs input and output alphabets on both sides")

    @cached_property
    def size(self) -> int:
        if self.tag == "WrelIO":
            raise ValueError("interactive outcomes are listed per history point")
        pairs = self.a1.size * self.a2.size
        if self.tag == "WrelErr":
            return pairs + 1   # the single extra outcome stands for "some side raised"
        return pairs * self.point_count

    @cached_property
    def point_count(self) -> int:
        return self.s1.size * self.s2.size if self.tag in _STATE_TAGS else 1

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
        return self.a1.size * self.a2.size

    def err_split(self, o: int) -> Optional[Tuple[int, int]]:
        if o == self.err_bad():
            return None
        return divmod(o, self.a2.size)

    # -- pre/post tables of PPrelSt pairs, and of their embedding

    def pp_post_index(self, si1: int, a1i: int, sf1: int, si2: int, a2i: int, sf2: int) -> int:
        """Where a post table holds (initial, value, final) on each side: one
        row of `size` outcomes per initial state pair."""
        return self.point(si1, si2) * self.size + self.st_outcome(a1i, sf1, a2i, sf2)

    def pp_post_split(self, o: int) -> Tuple[int, int, int, int, int, int]:
        pt, out = divmod(o, self.size)
        si1, si2 = self.point_split(pt)
        a1i, sf1, a2i, sf2 = self.st_split(out)
        return si1, a1i, sf1, si2, a2i, sf2


# the space with these fields, whatever the carrier; the named constructors
# below return the same objects
outcome_space = OutcomeSpace


def pure_space(a1: FiniteDomain, a2: FiniteDomain) -> OutcomeSpace:
    return OutcomeSpace("WrelPure", a1, a2, None, None, None, None, None, None)


def state_space(a1: FiniteDomain, s1: FiniteDomain, a2: FiniteDomain, s2: FiniteDomain) -> OutcomeSpace:
    return OutcomeSpace("WrelSt", a1, a2, s1, s2, None, None, None, None)


def err_space(a1: FiniteDomain, a2: FiniteDomain) -> OutcomeSpace:
    return OutcomeSpace("WrelErr", a1, a2, None, None, None, None, None, None)


def io_space(a1: FiniteDomain, i1: FiniteDomain, o1: FiniteDomain,
             a2: FiniteDomain, i2: FiniteDomain, o2: FiniteDomain) -> OutcomeSpace:
    return OutcomeSpace("WrelIO", a1, a2, None, None, i1, o1, i2, o2)


def prob_space(a1: FiniteDomain, a2: FiniteDomain) -> OutcomeSpace:
    return OutcomeSpace("WrelProb", a1, a2, None, None, None, None, None, None)


def pp_pure_space(a1: FiniteDomain, a2: FiniteDomain) -> OutcomeSpace:
    return OutcomeSpace("PPrelPure", a1, a2, None, None, None, None, None, None)


def pp_state_space(a1: FiniteDomain, s1: FiniteDomain, a2: FiniteDomain, s2: FiniteDomain) -> OutcomeSpace:
    return OutcomeSpace("PPrelSt", a1, a2, s1, s2, None, None, None, None)


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
    """Outcome of a spec comparison: holds or fails.

    Fails carries a witness postcondition (and point for pointed
    carriers) at which the right spec claims more than the left spec
    delivers; both are re-checkable by direct evaluation.  `where` locates
    the witness as the split-context carriers report it: ("point", point),
    prefixed by the entry states of any state tables around the spec.
    """

    kind: str
    phi: object = None
    point: object = None
    note: str = ""
    where: tuple = ()

    @property
    def holds(self) -> bool:
        return self.kind == "holds"

    @property
    def failed(self) -> bool:
        return self.kind == "fails"

    @property
    def is_unknown(self) -> bool:
        """Always False: every comparison is decided.  Kept for the bench's
        tracer, which still counts undecided comparisons."""
        return False


HOLDS = LeqVerdict("holds")


def _fails(phi, point=None, note="") -> LeqVerdict:
    where = () if point is None else ("point", point)
    return LeqVerdict("fails", phi=phi, point=point, note=note, where=where)


# ---------------------------------------------------------------------------
# Demand families
#
# A family is a frozenset of int bitmasks, bit o standing for outcome o, and
# every function below returns an antichain (no demand inside another).

_NONE: FrozenSet[int] = frozenset()          # accepts nothing: VIOLATED
_ANY: FrozenSet[int] = frozenset({0})        # accepts everything


def _bits(m: int):
    """The outcomes of a mask, lowest first."""
    while m:
        low = m & -m
        yield low.bit_length() - 1
        m ^= low


def _mask(outs: Iterable[int]) -> int:
    m = 0
    for o in outs:
        m |= 1 << o
    return m


def _minimise(masks) -> FrozenSet[int]:
    """The minimal masks among `masks`.  A mask can only lie inside one
    with more outcomes, so each is checked against the kept ones with fewer."""
    kept: List[int] = []
    fewer, count = 0, -1
    for m in sorted(set(masks), key=int.bit_count):
        if m.bit_count() != count:
            fewer, count = len(kept), m.bit_count()
        for k in kept[:fewer]:
            if not k & ~m:
                break
        else:
            kept.append(m)
    return frozenset(kept)


def _fam_bind(fam: FrozenSet[int], subs: Sequence[FrozenSet[int]]) -> FrozenSet[int]:
    """Sequential composition: a demand of the result picks one demand of
    subs[o] for every outcome o of one demand of `fam`, and unions them.

    Outcomes whose family has one demand are ORed in; only the others make
    a product, pruned to its minimal unions as it unrolls (a superset at
    any stage stays a superset under every completion, so the pruning loses
    nothing).  A demonic spec therefore binds as a plain OR of masks.
    """
    out: List[int] = []
    for d in fam:
        acc, partial = 0, None
        while d:
            low = d & -d
            d ^= low
            pool = subs[low.bit_length() - 1]
            if len(pool) == 1:
                (m,) = pool
                acc |= m
            elif not pool:
                break
            elif partial is None:
                partial = list(pool)
            else:
                _bind_step(len(partial) * len(pool), "demands")
                partial = list(_minimise([u | m for u in partial for m in pool]))
        else:
            out += [acc] if partial is None else [u | acc for u in partial]
    return frozenset(out) if len(out) <= 1 else _minimise(out)


def _fam_map(fam: FrozenSet[int], f: Callable[[int], int]) -> FrozenSet[int]:
    """Reindex outcomes: the result accepts phi iff `fam` accepts phi . f."""
    return _minimise(_mask(f(o) for o in _bits(d)) for d in fam)


def _uncovered(fam: FrozenSet[int], fam2: FrozenSet[int]) -> Optional[int]:
    """The least demand of fam2 with no demand of fam inside it, or None.

    fam2's demands are its minimal accepted postconditions and fam is
    monotone, so fam <= fam2 exactly when there is none; and the least such
    demand is the first postcondition a numeric enumeration would find.
    """
    if fam is fam2:
        return None
    for d2 in (sorted(fam2) if len(fam2) > 1 else fam2):
        for d in fam:
            if not d & ~d2:
                break
        else:
            return d2
    return None


def _accepts(fam: FrozenSet[int], phi) -> bool:
    m = _phi_mask(phi, reduce(or_, fam, 0))
    return any(not d & ~m for d in fam)


def _phi_mask(phi, relevant: int) -> int:
    """A propositional postcondition as a mask.  A callable is asked only
    about the outcomes in `relevant`; a tuple or list is a truth table; any
    other iterable lists the outcomes that hold."""
    if isinstance(phi, int):
        return phi
    if callable(phi):
        return _mask(o for o in _bits(relevant) if phi(o))
    if isinstance(phi, (tuple, list)):
        return _mask(o for o, v in enumerate(phi) if v)
    if isinstance(phi, Iterable):
        return _mask(phi)
    raise TypeError(f"cannot read {type(phi).__name__} as a postcondition")


def _minimal_accepted(accepts: Callable[[int], bool], full: int) -> FrozenSet[int]:
    """The minimal masks within `full` that a monotone predicate accepts.

    Each step shrinks an accepted mask greedily to a minimal one and splits
    on one of its outcomes (demands without it, demands with it), so only
    outcomes the predicate actually reads are ever split on.
    """
    found = []
    todo = [(0, full)]           # (outcomes forced in, outcomes still free)
    while todo:
        on, free = todo.pop()
        if not accepts(on | free):
            continue
        if accepts(on):
            found.append(on)
            continue
        d = on | free
        for o in _bits(free):
            if accepts(d & ~(1 << o)):
                d &= ~(1 << o)
        rest = d & ~on
        low = rest & -rest
        todo.append((on, free & ~low))
        todo.append((on | low, free & ~low))
    return _minimise(found)


# ---------------------------------------------------------------------------
# The spec container


class RelSpec:
    """One inhabitant of a relational specification monad.

    Exactly one body is populated, the one its carrier has:
      fams     fixed propositional carriers: one demand family per point;
               pre/post pairs: one demand per point, the post row, beside
               `pre`, a truth value per point
      table    interactive carrier: a demonic entry per history point, a
               function of the point whose answers are kept once read
      rows     quantitative carrier: min-of-affine pieces (constant,
               coefficient row) as ints over the positive denominator
               `den`; a piece reads (k + <cs, phi>) / den.  `pieces` given
               here, as rationals, are stored so.
    """

    __slots__ = (
        "tag", "space", "fams", "table", "rows", "den",
        "pre", "io_points", "_io_cache",
    )

    def __init__(self, tag, space, fams=None, table=None, pieces=None,
                 pre=None, io_points=None):
        self.tag = tag
        self.space = space
        self.fams = fams
        self.table = table
        self.den, self.rows = (None, None) if pieces is None else _int_pieces(space, pieces)
        self.pre = pre
        self.io_points = io_points
        # entries read so far; only interactive table specs have any
        self._io_cache: Optional[Dict[Tuple[History, History], object]] = (
            {} if table is not None else None)

    # -- basic queries

    @property
    def pieces(self):
        """The quantitative body as rationals: (constant, coefficient row)
        per piece; None on the other carriers."""
        if self.rows is None:
            return None
        den = self.den
        return tuple((Fraction(k, den), tuple(Fraction(c, den) for c in cs))
                     for k, cs in self.rows)

    @property
    def is_demonic(self) -> bool:
        """At most one demand per point.  Interactive specs always are: their
        one body is a demonic entry per history point."""
        if self.fams is not None:
            return all(len(f) <= 1 for f in self.fams)
        return self.table is not None

    def demonic_at(self, pt):
        """The demonic entry at a point: its one demand's outcomes, VIOLATED,
        or None for several demands (and on the quantitative and pre/post
        carriers)."""
        if self.pre is not None:
            return None
        if self.fams is not None:
            fam = self.fams[pt]
            if len(fam) != 1:
                return None if fam else VIOLATED
            (d,) = fam
            return frozenset(_bits(d))
        if self.table is None:
            return None
        if pt not in self._io_cache:
            _fill_io_entries(self, pt)
        return self._io_cache[pt]

    def at(self, phi, point=None) -> object:
        """Evaluate the transformer at one postcondition and point."""
        if self.tag in PP_TAGS:
            raise TypeError("pre/post pairs are not transformers; embed them first")
        if self.tag == "WrelProb":
            vec = _phi_vector(self, phi)
            return Fraction(min(k + sum(c * v for c, v in zip(cs, vec) if c)
                                for k, cs in self.rows), self.den)
        pt = self._norm_point(point)
        if self.fams is not None:
            return _accepts(self.fams[pt], phi)
        f = phi.__contains__ if isinstance(phi, (set, frozenset, tuple)) else phi
        entry = self.demonic_at(pt)
        return entry is not VIOLATED and all(f(o) for o in entry)

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

    def __repr__(self):
        body = ("pre/post" if self.pre is not None else
                "demands" if self.fams is not None else
                "demonic" if self.table is not None else "pieces")
        return f"<RelSpec {self.tag} {body}>"


def _fill_io_entries(w: RelSpec, pt) -> None:
    """Cache w's demonic entry at pt and every entry it depends on.

    A table returns an entry, or a (spec, point) pair whose entry it needs
    first: binds of demonic interactive specs do.  The needed entries are
    filled from an explicit stack rather than by recursion, so reading a
    chain of binds of any length takes constant Python stack depth.  A pair
    is pushed only when its entry is missing, and each push fills it before
    the table that asked is called again.
    """
    stack = [(w, pt)]
    while stack:
        s, p = stack[-1]
        got = s.table(p)
        if type(got) is tuple:
            stack.append(got)
        else:
            s._io_cache[p] = got
            stack.pop()


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


def _fixed(space: OutcomeSpace, fams, pre=None) -> RelSpec:
    return RelSpec(space.tag, space, fams=tuple(fams), pre=pre)


def _entry_mask(space: OutcomeSpace, entry) -> int:
    m = 0
    for o in entry:
        if not 0 <= o < space.size:
            raise ValueError(f"outcome {o} outside space of size {space.size}")
        m |= 1 << o
    return m


def demonic_spec(space: OutcomeSpace, table) -> RelSpec:
    """Spec from per-point demonic entries: VIOLATED, or the set of outcomes
    that must all satisfy the postcondition (one demand)."""
    return demand_spec(space, [e if e is VIOLATED else (_entry_mask(space, e),) for e in table])


def _once(table: dict, key: tuple, build: Callable, *args):
    """build(*args), the first time `key` is asked of the check's `table`;
    the same object every later time.  Specs never change once built."""
    w = table.get(key)
    if w is None:
        w = table[key] = build(*args)
    return w


def demand_spec(space: OutcomeSpace, fams) -> RelSpec:
    """Spec from per-point demand families: each an iterable of int bitmasks
    (bit o for outcome o), or VIOLATED for the empty family.  The spec
    accepts phi at a point when some demand there lies inside phi.  Within
    a check, equal families over one space give one spec."""
    if space.tag not in _FIXED_TAGS:
        raise ValueError(f"demand families need a fixed propositional carrier, not {space.tag}")
    out = []
    used = 0
    for fam in fams:
        if type(fam) is not frozenset:
            fam = _NONE if fam is VIOLATED else frozenset(fam)
        for m in fam:
            used |= m
        out.append(fam if len(fam) <= 1 else _minimise(fam))
    if used < 0 or used >> space.size:
        raise ValueError(f"demand outside space of size {space.size}")
    if len(out) != space.point_count:
        raise ValueError("a spec's table must cover every precondition point")
    table = _TABLE.get()
    if table is None:
        return _fixed(space, out)
    out = tuple(out)
    return _once(table, ("spec-demand", space, out), _fixed, space, out)


def closure_spec(space: OutcomeSpace, fn) -> RelSpec:
    """Spec from an opaque predicate (postcondition, point) -> bool, which
    must be monotone in the postcondition.  It is tabulated once into its
    minimal accepted postconditions per point; spaces of more than
    `_CLOSURE_OUTCOME_LIMIT` (16) outcomes raise SpecTooLarge."""
    if space.tag not in _FIXED_TAGS:
        raise ValueError(f"closures need a fixed propositional carrier, not {space.tag}")
    n = space.size
    if n > _CLOSURE_OUTCOME_LIMIT:
        raise SpecTooLarge(f"closure over {n} outcomes; tabulation stops at "
                           f"{_CLOSURE_OUTCOME_LIMIT}")
    fams = []
    for pt in space.points():
        def accepts(m, _pt=pt):
            return bool(fn(lambda o: bool(m >> o & 1), _pt))
        fams.append(_minimal_accepted(accepts, (1 << n) - 1))
    return _fixed(space, fams)


def io_demonic_spec(space: OutcomeSpace, fn, points) -> RelSpec:
    """Interactive spec from its demonic entries, the one body of the
    interactive carrier.

    `fn` maps a history pair to VIOLATED or a set of (value, h1, h2)
    outcomes, where value indexes the value pair; it is called at most once
    per point.  `points` declares where comparisons happen.
    """
    if space.tag != "WrelIO":
        raise ValueError("io_demonic_spec needs the interactive carrier")
    pts = tuple(points)
    return RelSpec("WrelIO", space, table=lambda pt: _norm_io_entry(fn(pt)), io_points=pts)


def _norm_io_entry(entry):
    return VIOLATED if entry is VIOLATED else frozenset(entry)


def linear_spec(space: OutcomeSpace, pieces, exact_prune: bool = True) -> RelSpec:
    """Quantitative spec as a minimum of affine pieces (const, coeffs), the
    one body of the quantitative carrier.  The rationals are brought to one
    denominator once, here.

    Redundant pieces never change the minimum, so `exact_prune=False` is a
    pure speed knob for callers that mass-produce large piece families: it
    drops duplicate and dominated pieces but skips the LP filter.  Within a
    check, pieces equal by value over one space give one spec, pruned once.
    """
    if space.tag != "WrelProb":
        raise ValueError("linear specs live in the quantitative carrier")
    den, rows = _int_pieces(space, pieces)
    return _linear(space, den, rows, exact_prune)


def _int_pieces(space: OutcomeSpace, pieces) -> Tuple[int, tuple]:
    """Rational pieces, checked, as (den, rows): ints over their least
    common denominator, which is in lowest terms."""
    pieces = [(k, tuple(coeffs)) for k, coeffs in pieces]
    if not pieces:
        raise ValueError("need at least one piece")
    if any(len(cs) != space.size for _, cs in pieces):
        raise ValueError("piece coefficients must cover every outcome")
    den, flat = lp._ints([v for k, cs in pieces for v in (k, *cs)])
    width = space.size + 1
    rows = tuple((flat[i], tuple(flat[i + 1:i + width])) for i in range(0, len(flat), width))
    if any(c < 0 for _, cs in rows for c in cs):
        raise ValueError("piece coefficients must be nonnegative to stay monotone")
    return den, rows


def _lowest(den: int, rows) -> Tuple[int, tuple]:
    """(den, rows) divided by their greatest common divisor."""
    g = den
    for k, cs in rows:
        g = gcd(g, k, *cs)
        if g == 1:
            return den, tuple(rows)
    return den // g, tuple((k // g, tuple(c // g for c in cs)) for k, cs in rows)


def _linear(space: OutcomeSpace, den: int, rows, exact_prune: bool = True) -> RelSpec:
    """The quantitative spec of int pieces over `den`, as `linear_spec`
    builds it from rationals: the constructor of the kernel's own producers.
    Within a check, equal pieces over one space give one spec."""
    den, rows = _lowest(den, rows)
    table = _TABLE.get()
    if table is None:
        return _prob_spec(space, den, rows, exact_prune)
    return _once(table, ("spec-linear", space, exact_prune, den, rows),
                 _prob_spec, space, den, rows, exact_prune)


def _prob_spec(space: OutcomeSpace, den: int, rows: tuple, exact_prune: bool) -> RelSpec:
    w = RelSpec("WrelProb", space)
    w.den, w.rows = _lowest(den, prune_pieces(rows, exact=exact_prune))
    return w


def pp_spec(space: OutcomeSpace, pre, post) -> RelSpec:
    """A pre/post pair from truth tables: `pre` over the precondition points
    and `post` over `point_count * size` entries, at `pp_post_index` on
    PPrelSt and at the value pair's outcome on PPrelPure.  Each point's row
    of `post` becomes the pair's one demand there."""
    if space.tag not in PP_TAGS:
        raise ValueError(f"pre/post pairs need a PPrel carrier, not {space.tag}")
    pre_t = tuple(bool(v) for v in pre)
    post_t = tuple(bool(v) for v in post)
    if len(pre_t) != space.point_count:
        raise ValueError("precondition table must cover every point")
    n = space.size
    if len(post_t) != space.point_count * n:
        raise ValueError("postcondition table must cover every outcome")
    rows = (frozenset({_mask(o for o, ok in enumerate(post_t[pt * n:pt * n + n]) if ok)})
            for pt in space.points())
    return _fixed(space, rows, pre_t)


def prune_pieces(pieces: List[Tuple[Fraction, Tuple[Fraction, ...]]], exact: bool = True):
    """Drop duplicate and never-minimal pieces from a min-of-affine form.
    Only order and signs are read, so pieces scaled by one positive number,
    such as a spec's int rows, keep the same pieces in the same order."""
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


def spec_ret(space: OutcomeSpace, a1: Value, a2: Value, points=None) -> RelSpec:
    """The unit: demand the postcondition exactly at the given value pair.
    Within a check, equal arguments give one spec."""
    _check_value(a1, space.a1, "left")
    _check_value(a2, space.a2, "right")
    table = _TABLE.get()
    if table is None:
        return _ret(space, a1.index, a2.index, points)
    points = None if points is None else tuple(points)
    return _once(table, ("spec-ret", space, a1.index, a2.index, points),
                 _ret, space, a1.index, a2.index, points)


def _ret(space: OutcomeSpace, i1: int, i2: int, points) -> RelSpec:
    tag = space.tag
    if tag == "WrelErr":
        return _fixed(space, [frozenset({1 << space.err_ok(i1, i2)})])
    if tag == "WrelIO":
        pts = tuple(points) if points is not None else (((), ()),)
        v = i1 * space.a2.size + i2
        return io_demonic_spec(space, lambda pt: {(v, pt[0], pt[1])}, pts)
    if tag == "WrelProb":
        coeffs = [0] * space.size
        coeffs[i1 * space.a2.size + i2] = 1
        return _linear(space, 1, ((0, tuple(coeffs)),))
    if tag in _STATE_TAGS:
        fams = [frozenset({1 << space.st_outcome(i1, s1i, i2, s2i)})
                for s1i, s2i in map(space.point_split, space.points())]
    else:
        fams = [frozenset({1 << (i1 * space.a2.size + i2)})]
    return _fixed(space, fams, (True,) * space.point_count if tag in PP_TAGS else None)


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
    domains, and wm's ambient fields (states, alphabets).  A space equal to
    the first is that very object and needs only its tag checked; the
    errors and their order are those of checking each continuation in turn.
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


class ContTable:
    """A continuation table for `spec_bind`: `wf` maps each middle value
    pair (i1, i2) to a spec, as a callable, a dict keyed by the pair, or a
    sequence indexed i1 * |a2| + i2.  The first bind over a middle space
    reads and checks the entries and decodes them for that space; later
    binds over it reuse that work, so a callable must be a fixed function.
    A bind over another space checks afresh and raises as a first bind would.
    """

    __slots__ = ("wf", "_prepared")

    def __init__(self, wf):
        self.wf = wf
        self._prepared: Dict[OutcomeSpace, tuple] = {}

    def prepare(self, wm: RelSpec) -> tuple:
        """(conts, cspace, subs) for binds over wm's space: the entries by
        value pair, their common space, and the family each outcome leads
        to on the carriers with demand families (None on the others)."""
        got = self._prepared.get(wm.space)
        if got is None:
            conts = _conts(wm.space, self.wf)
            cspace = _common_cont_space(wm, conts)
            subs = _fixed_subs(wm.space, conts, cspace) if wm.fams is not None else None
            got = self._prepared[wm.space] = (conts, cspace, subs)
        return got


def spec_bind(wm: RelSpec, wf) -> RelSpec:
    """Sequential composition of specs.  `wf` is a `ContTable`, or what one
    is built from: binding many middles to one table prepares it once.
    Within a check, a bind of the same middle spec to the same continuation
    specs, by identity, gives one spec."""
    conts, cspace, subs = (wf if isinstance(wf, ContTable) else ContTable(wf)).prepare(wm)
    table = _TABLE.get()
    if table is None:
        return _bind(wm, conts, cspace, subs)
    # the entry keeps wm and the continuations alive, so their ids stay theirs
    key = ("spec-bind", id(wm)) + tuple(map(id, conts.values()))
    return _once(table, key, lambda: (_bind(wm, conts, cspace, subs), wm, conts))[0]


def _bind(wm: RelSpec, conts, cspace: OutcomeSpace, subs) -> RelSpec:
    tag = wm.tag
    if subs is not None:
        fams = [_fam_bind(fam, subs) for fam in wm.fams]
        return _fixed(cspace, fams, None if wm.pre is None else _bind_pre(wm, conts))
    if tag == "WrelIO":
        return _bind_io(wm, conts, cspace)
    if tag == "WrelProb":
        return _bind_prob(wm, conts, cspace)
    raise ValueError(f"unknown carrier {tag}")


def _bind_pre(wm: RelSpec, conts) -> Tuple[bool, ...]:
    """A bound pair's precondition: wm's own, and the continuation's at the
    point each outcome of wm's post row continues from."""
    cps = wm.space.cont_points
    return tuple(ok and all(conts[cps[o][0]].pre[cps[o][1]] for o in _bits(d))
                 for ok, (d,) in zip(wm.pre, wm.fams))


def _cont_point(space: OutcomeSpace, tspace: OutcomeSpace, o: int):
    """Value pair and continuation point carried by an intermediate outcome;
    a PPrel space reads as its Wrel space."""
    if space.tag in ("WrelPure", "PPrelPure"):
        return divmod(o, space.a2.size), 0
    if space.tag in _STATE_TAGS:
        a1i, s1i, a2i, s2i = space.st_split(o)
        return (a1i, a2i), tspace.point(s1i, s2i)
    raise AssertionError(space.tag)


def _fixed_subs(space: OutcomeSpace, conts, tspace: OutcomeSpace) -> List[FrozenSet[int]]:
    """Per outcome of a fixed middle space, the family it leads to: its
    continuation's at the point it carries, or the raised outcome again."""
    if space.tag == "WrelErr":
        a2n = space.a2.size
        subs = [conts[divmod(o, a2n)].fams[0] for o in range(space.err_bad())]
        subs.append(frozenset({1 << tspace.err_bad()}))
        return subs
    # Continuation points follow wm's ambient states, which every
    # continuation shares, so wm's own decode table serves tspace too.
    return [conts[pair].fams[cpt] for pair, cpt in space.cont_points]


def _bind_io(wm: RelSpec, conts, cspace: OutcomeSpace) -> RelSpec:
    """Each outcome of wm's entry continues from the histories it carries;
    the bound entry is the union of the continuations' entries there."""
    width = wm.space.a2.size

    def entry(pt):
        # the entry, or the first part entry still missing: parts are
        # read in order and the first VIOLATED one ends the reading
        r = wm._io_cache.get(pt)
        if r is None:
            return (wm, pt)
        if r is VIOLATED:
            return VIOLATED
        acc = set()
        for (v, h1, h2) in r:
            sw, spt = conts[divmod(v, width)], (h1, h2)
            sub = sw._io_cache.get(spt)
            if sub is None:
                return (sw, spt)
            if sub is VIOLATED:
                return VIOLATED
            acc |= sub
        return frozenset(acc)

    return RelSpec("WrelIO", cspace, table=entry, io_points=wm.io_points)


def _bind_prob(wm: RelSpec, conts, cspace: OutcomeSpace) -> RelSpec:
    """Per piece of wm, a bound piece picks one piece of the continuation
    of every weighted outcome and adds them in at that weight, as
    `_fam_bind` unions demands.  The continuations are scaled to the lcm m
    of their denominators, so every sum is of ints over wm's den times m.

    Outcomes whose continuation has one piece are added in directly; only
    the others make a product, pruned of duplicate and dominated sums as it
    unrolls (a sum at or above another stays so under every completion, so
    the minimum loses nothing).  A step past `_DEMAND_LIMIT` partial sums
    raises SpecTooLarge.
    """
    width = wm.space.a2.size
    m = lcm(*(w.den for w in conts.values()))
    over_m = {}   # each continuation's rows over m, by identity
    subs = []
    for o in wm.space.outcomes():
        w = conts[divmod(o, width)]
        rows = over_m.get(id(w))
        if rows is None:
            rows = over_m[id(w)] = _scale_rows(w.rows, m // w.den)
        subs.append(rows)
    pieces = []
    for k, coeffs in wm.rows:
        acc, partial = [k * m] + [0] * cspace.size, None
        for o, c in enumerate(coeffs):
            if not c:
                continue
            pool = subs[o]
            if len(pool) == 1:
                ((ck, ccs),) = pool
                acc[0] += c * ck
                for t, v in enumerate(ccs):
                    if v:
                        acc[t + 1] += c * v
                continue
            scaled = [(c * ck, tuple(c * v for v in ccs)) for ck, ccs in pool]
            if partial is None:
                partial = scaled
                continue
            _bind_step(len(partial) * len(scaled), "partial sums")
            partial = prune_pieces([(pk + sk, tuple(a + b for a, b in zip(pcs, scs)))
                                    for pk, pcs in partial for sk, scs in scaled], exact=False)
        base = tuple(acc[1:])
        pieces += [(acc[0], base)] if partial is None else [
            (acc[0] + pk, tuple(a + b for a, b in zip(base, pcs))) for pk, pcs in partial]
    return _linear(cspace, wm.den * m, pieces, exact_prune=False)


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
    sat = frozenset({_mask(o for o, ok in enumerate(post_t) if ok)})
    return _fixed(space, (sat if ok else _NONE for ok in pre_t))


def from_prepost(space: OutcomeSpace, pre, post) -> RelSpec:
    """Backward transformer of a pre/post pair: `embed_pp_in_wp` of the pair
    `pp_spec` builds from these tables over the matching PPrel space.  On
    the stateful carrier `post` holds a row per initial state pair (see
    `pp_post_index`); on the pure carrier it reads value pairs only.  Points
    where `pre` fails are VIOLATED rather than silently weakened."""
    if space.tag == "WrelSt":
        pp = pp_state_space(space.a1, space.s1, space.a2, space.s2)
    elif space.tag == "WrelPure":
        pp = pp_pure_space(space.a1, space.a2)
    else:
        raise ValueError("pre/post embeddings target the pure or stateful carrier")
    return embed_pp_in_wp(pp_spec(pp, pre, post))


def embed_pp_in_wp(w: RelSpec) -> RelSpec:
    """View a pre/post pair as a backward predicate transformer: its post row
    at every point where its precondition holds, VIOLATED elsewhere."""
    sp = w.space
    if w.tag == "PPrelSt":
        target = state_space(sp.a1, sp.s1, sp.a2, sp.s2)
    elif w.tag == "PPrelPure":
        target = pure_space(sp.a1, sp.a2)
    else:
        raise ValueError("only pre/post pairs embed into transformers")
    return _fixed(target, (fam if ok else _NONE for fam, ok in zip(w.fams, w.pre)))


# ---------------------------------------------------------------------------
# Distinguished elements


def unsatisfiable(space: OutcomeSpace, points=None) -> RelSpec:
    """The top claim: no postcondition is guaranteed anywhere."""
    tag = space.tag
    if tag == "WrelIO":
        pts = tuple(points) if points is not None else (((), ()),)
        return io_demonic_spec(space, lambda pt: VIOLATED, pts)
    if tag == "WrelProb":
        return _linear(space, 1, ((1, (0,) * space.size),))
    if tag in PP_TAGS:
        every = frozenset({(1 << space.size) - 1})
        return _fixed(space, [every] * space.point_count, (False,) * space.point_count)
    return _fixed(space, [_NONE] * space.point_count)


def weakest(space: OutcomeSpace, points=None) -> RelSpec:
    """The least claim: trivially satisfied by every observation."""
    tag = space.tag
    if tag == "WrelIO":
        pts = tuple(points) if points is not None else (((), ()),)
        return io_demonic_spec(space, lambda pt: frozenset(), pts)
    if tag == "WrelProb":
        return _linear(space, 1, ((0, (0,) * space.size),))
    pre = (True,) * space.point_count if tag in PP_TAGS else None
    return _fixed(space, [_ANY] * space.point_count, pre)


def reindex_outcomes(w: RelSpec, target: OutcomeSpace, fn) -> RelSpec:
    """Push a spec along an outcome translation (same carrier and points).

    `fn` maps source outcomes to target outcomes; demands map through it,
    and quantitative pieces add up their coefficients.
    """
    if w.tag != target.tag or w.tag == "WrelIO" or w.tag in PP_TAGS:
        raise ValueError("outcome translation is for fixed transformer carriers")
    if w.space.point_count != target.point_count:
        raise ValueError("outcome translation must preserve precondition points")
    if w.tag == "WrelProb":
        pieces = []
        for k, cs in w.rows:
            acc = [0] * target.size
            for o, c in enumerate(cs):
                if c:
                    acc[fn(o)] += c
            pieces.append((k, tuple(acc)))
        return _linear(target, w.den, pieces)
    return demand_spec(target, [_fam_map(fam, fn) for fam in w.fams])


# ---------------------------------------------------------------------------
# The comparison procedure


def spec_leq(w: RelSpec, w2: RelSpec, cap: int = DEFAULT_CAP) -> LeqVerdict:
    """Decide w <= w2; the verdict holds or fails, never anything else.

    The fixed propositional carriers compare exactly: w2's demands are its
    minimal accepted postconditions and w is monotone, so w <= w2 exactly
    when, at every point, each demand of w2 contains one of w.  A failure
    names the first failing point and its least uncovered demand, as a
    frozenset `phi` of outcomes: the first failing postcondition a numeric
    enumeration would meet.  Families are minimal antichains, so equal
    families are equal specs and hold at once.  Pre/post pairs compare
    componentwise: w2's precondition row must imply w's, and then each
    point's post row of w must lie inside w2's, by the same cover loop
    (one demand per point).

    Interactive specs have one body, a demonic entry per history point, and
    compare exactly by set inclusion at every declared point: w <= w2 fails
    at the first point where w2's entry is satisfiable and w's is VIOLATED
    or not inside it, with w2's entry, listed in index order, as the
    witness `phi`.  Quantitative
    specs are pieces on both sides and compare exactly over one common
    denominator: per piece of w2, a box bound settles the difference family
    when it is already <= 0, and linear programming decides the rest.

    `cap` is read by nothing.  It stays only because the bench's tracer
    binds it to label each comparison, and it goes when that tracer does.
    """
    if w.tag != w2.tag:
        raise ValueError(f"cannot compare {w.tag} with {w2.tag}")
    if w.space is not w2.space:
        raise ValueError("cannot compare specs over different outcome spaces")
    if w.tag == "WrelProb":
        return _leq_prob(w, w2)
    if w.tag == "WrelIO":
        return _leq_io(w, w2)
    if w.pre is not None:
        for pt, (ok, ok2) in enumerate(zip(w.pre, w2.pre)):
            if ok2 and not ok:
                return _fails(None, point=pt, note="right precondition not covered by left")
    if w.fams == w2.fams:
        return HOLDS
    for pt, (fam, fam2) in enumerate(zip(w.fams, w2.fams)):
        d2 = _uncovered(fam, fam2)
        if d2 is not None:
            return _fails(frozenset(_bits(d2)), point=pt,
                          note="right holds but left does not at this point")
    return HOLDS


def spec_equiv(w: RelSpec, w2: RelSpec) -> LeqVerdict:
    """Both directions of spec_leq; Holds means extensional equality.  The
    same object holds at once: within a check, equal constructions give one
    spec, so an honest replay's specs compare in O(1)."""
    if w is w2:
        return HOLDS
    fwd = spec_leq(w, w2)
    if not fwd.holds:
        return fwd
    return spec_leq(w2, w)


def order_kind(leq, lhs, rhs):
    """(kind, failing verdict) of lhs against rhs under the order `leq`:
    ("violation", v) when lhs is not below rhs, ("strictly-less", v) when
    only rhs is not below lhs, else ("equal", None).  The law batteries of
    `observations` and `generic` classify their instances with it."""
    fwd = leq(lhs, rhs)
    if not fwd.holds:
        return "violation", fwd
    back = leq(rhs, lhs)
    if not back.holds:
        return "strictly-less", back
    return "equal", None


def _leq_prob(w: RelSpec, w2: RelSpec) -> LeqVerdict:
    """Both sides over one denominator, then per piece of w2 the box bound
    and, where it fails, the LP.  A common positive scale changes no sign
    and no LP vertex, so the witness is the one rationals would give."""
    if w.den == w2.den and w.rows == w2.rows:
        return HOLDS
    m = lcm(w.den, w2.den)
    rows, rows2 = _scale_rows(w.rows, m // w.den), _scale_rows(w2.rows, m // w2.den)
    n = w.space.size
    for k2, c2 in rows2:
        diff = [(k1 - k2, tuple(a - b for a, b in zip(c1, c2))) for k1, c1 in rows]
        if lp.box_upper_bound(diff) <= 0:
            continue
        val, phi = lp.max_min_affine(diff, n)
        if val > 0:
            return _fails(phi, note="left exceeds right at this table")
    return HOLDS


def _scale_rows(rows: tuple, f: int) -> tuple:
    return rows if f == 1 else tuple((k * f, tuple(c * f for c in cs)) for k, cs in rows)


def _leq_io(w: RelSpec, w2: RelSpec) -> LeqVerdict:
    if set(w.io_points) != set(w2.io_points):
        raise ValueError("cannot compare interactive specs with different declared points")
    for pt in w.io_points:
        r2 = w2.demonic_at(pt)
        if r2 is VIOLATED:
            continue
        r = w.demonic_at(pt)
        if r is VIOLATED or not r <= r2:
            # listed in index order: a set of Values iterates in address order
            return _fails(tuple(sorted(r2, key=_io_outcome_key)), point=pt,
                          note="right holds but left does not at this point")
    return HOLDS


def _io_outcome_key(o):
    v, h1, h2 = o
    return v, [(tag, x.index) for tag, x in h1], [(tag, x.index) for tag, x in h2]
