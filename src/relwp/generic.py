"""Split-context judgments with componentwise specifications.

The judgments elsewhere in this package keep one relational spec per program
pair.  This module carries a triple instead: a unary spec for each side plus
a relational one, quantified over a context that is itself split into a
left-only part and a right-only part.  The split is load-bearing: in the
Bind rule each premise component only ever sees its own side's variables, so
a left spec cannot depend on the right program's result, which is exactly
what makes sequencing of exception-raising pairs compositional (see the
regression tests for what goes wrong without it).

Carriers are assembled rather than hard-coded.  A base lift turns a simple
relational carrier into a triple whose unary parts run against a unit result
on the opposite side; transformers then add exception or state structure to
one side at a time.  Each transformer is written for the left side only: the
right-side one is its mirror image, the left transformer over the inner
carrier with its sides swapped, swapped back.  The canonical exception
carrier is the base lift with an exception transformer applied to each side;
the tests pin it against a hand-written version of the same carrier.

Payloads are `specmonads.RelSpec`s, or tables of them under the state
transformer: the pure lift's are one-point WrelPure specs over the pair of
result domains, the state lift's WrelSt specs.  A carrier is its unit, bind
and tau embeddings; the order is one for all carriers, `leq`: `spec_leq` on
a spec and entry by entry on a table, so a split-context judgment and a
core one compare the same objects with the same `spec_leq`.  The top of a
relational component and the payloads the law battery draws are read off
the unit's shape.  The pure lift binds one
demand family against a table of families with the core bind's step; this
module defines no demand-set algorithm of its own.

The rules form `SPLIT`, a catalogue of the one rule engine in `rules`, and
`FullJudgment` names it: `rules.check_derivation` replays split-context
derivations and `rules.oracle_check` decides their judgments clause by
clause.
The law batteries `check_triple_laws` (a carrier's laws) and
`check_exc_strictness` (the exception triple as a strict morphism) run
through `observations.run_laws`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from functools import cache, partial
from itertools import product
from typing import Callable, ClassVar, Iterator, Optional, Sequence, Tuple

from . import programs as P
from . import specmonads as sm
from .domains import (
    UNIT,
    UNIT_VAL,
    FiniteDomain,
    Value,
    case_index,
    inl_index,
    inr_index,
    product_domain,
    sum_domain,
)
from .observations import STRICT, LawReport, run_laws
from .programs import Program
from .rules import (
    EMPTY_ENV,
    Catalogue,
    Env,
    OracleVerdict,
    RuleError,
    RuleInstance,
    Table,
    Valuation,
    _each,
    _firsts,
    _rows,
    _show_valuation,
    _tabulate,
)


def random_spec(rng: random.Random, space: sm.OutcomeSpace) -> sm.RelSpec:
    """Random spec over a fixed carrier, small demand families preferred:
    per point up to three demands, each holding every outcome with
    probability 0.4, so the top (no demands) and the bottom (an empty
    demand) come up with fair probability."""
    fams = []
    for _ in space.points():
        fams.append([sum(1 << o for o in space.outcomes() if rng.random() < 0.4)
                     for _ in range(rng.randrange(4))])
    return sm.demand_spec(space, fams)


# ---------------------------------------------------------------------------
# Spec triples


def leq(w, w2) -> sm.LeqVerdict:
    """The order of every split-context carrier: `spec_leq` on specs, and
    entry by entry on state tables (tuples of payloads), the failing entry's
    state leading `where`, outermost first."""
    if type(w) is not tuple and type(w2) is not tuple:
        return sm.spec_leq(w, w2)
    if type(w) is not tuple or type(w2) is not tuple:
        raise ValueError("cannot compare a spec with a state table")
    if len(w) != len(w2):
        raise ValueError("state tables of different size")
    for si, (x, y) in enumerate(zip(w, w2)):
        v = leq(x, y)
        if not v.holds:
            return replace(v, where=(si,) + v.where)
    return sm.HOLDS


def _each_spec(x, f: Callable[[sm.RelSpec], object]):
    """x with every spec in it replaced by f(spec), in tuple order."""
    if type(x) is tuple:
        return tuple(_each_spec(w, f) for w in x)
    return f(x)


@dataclass(frozen=True)
class FullSpecMonad:
    """A specification carrier in three parts, with componentwise unit and
    sequencing.

    A payload is a `specmonads.RelSpec` or a state table, a tuple of
    payloads; the unit's payload at a domain has the shape of every payload
    there.  Each operation builds its payloads from the inner carrier's, and
    one order serves them all (`leq`), so a carrier is its unit, bind and
    tau embeddings; `shape` records how it was assembled so rule builders
    can insist on the structure they understand.  tau1 and tau2 embed a
    unary spec as a relational one against a unit result on the other side;
    for base lifts both are the identity, and the transformers preserve the
    embedding along with its morphism laws (the triple-law battery,
    `check_triple_laws`, checks them).

    bind1/bind2 take the middle spec, a continuation table indexed by the
    bound value, and the continuation result domain.  bind_rel is staged by
    its tables: bind_rel(f1, f2, frel, b1dom, b2dom) takes all three tables
    and both continuation result domains, the relational table indexed
    [left value][right value], does the work that depends on them alone,
    and returns a binder (m1, m2, mrel) -> payload that binds any three
    middle specs to them.
    """

    name: str
    shape: tuple
    ret1: Callable[[Value], object]
    ret2: Callable[[Value], object]
    ret_rel: Callable[[Value, Value], object]
    bind1: Callable[[object, Sequence, FiniteDomain], object]
    bind2: Callable[[object, Sequence, FiniteDomain], object]
    bind_rel: Callable[..., Callable[[object, object, object], object]]
    tau1: Callable[[object, FiniteDomain], object]
    tau2: Callable[[object, FiniteDomain], object]

    def unsat_rel(self, d1: FiniteDomain, d2: FiniteDomain):
        """The top of the relational component at result domains d1 and d2:
        the unit's shape with every spec unsatisfiable."""
        return _each_spec(self.ret_rel(d1.value(0), d2.value(0)),
                          lambda w: sm.unsatisfiable(w.space))


def lift_simple(name: str, space: Callable[[FiniteDomain, FiniteDomain], sm.OutcomeSpace],
                binder: Callable[[Sequence[sm.RelSpec]], Callable[[sm.RelSpec], sm.RelSpec]]
                ) -> FullSpecMonad:
    """Triple over a simple carrier, given by its outcome space per pair of
    result domains and its binder: prepared once for a continuation table
    (one spec per value pair, left index major), it binds middle specs to
    it.  The unary parts are the carrier at a unit result on the opposite
    side, and every operation simply ignores the pieces the simple carrier
    has no use for."""

    def ret(a1: Value, a2: Value) -> sm.RelSpec:
        return sm.spec_ret(space(a1.domain, a2.domain), a1, a2)

    def bind_unary(w, table, _bdom):
        return binder(tuple(table))(w)

    def bind_rel(_f1, _f2, frel, _b1dom, _b2dom):
        bind = binder(tuple(w for row in frel for w in row))
        return lambda _m1, _m2, mrel: bind(mrel)

    return FullSpecMonad(
        name=f"lift({name})",
        shape=("lift", name),
        ret1=lambda a: ret(a, UNIT_VAL),
        ret2=lambda a: ret(UNIT_VAL, a),
        ret_rel=ret,
        bind1=bind_unary,
        bind2=bind_unary,
        bind_rel=bind_rel,
        tau1=lambda w1, _adom: w1,
        tau2=lambda w2, _adom: w2,
    )


def _point_binder(table: Sequence[sm.RelSpec]) -> Callable[[sm.RelSpec], sm.RelSpec]:
    """Sequential composition of one-point specs against a total table, one
    entry per outcome of the middle w.  The table's space check and its
    entries' families are taken once, when the binder is made.  A
    deterministic w, whose one demand is a single outcome, yields that
    outcome's entry as it stands."""
    space = table[0].space if table else None
    for t in table:
        if t.space is not space:
            raise ValueError("continuation table mixes outcome spaces")
    subs = [t.fams[0] for t in table]

    def bind(w: sm.RelSpec) -> sm.RelSpec:
        if len(table) != w.space.size:
            raise ValueError(f"continuation table must cover {w.space.size} outcomes, "
                             f"got {len(table)}")
        (fam,) = w.fams
        if len(fam) == 1:
            (d,) = fam
            if d and not d & (d - 1):
                return table[d.bit_length() - 1]
        return sm._fixed(space, (sm._fam_bind(fam, subs),))
    return bind


def lift_pure() -> FullSpecMonad:
    """The base lift of one-point WrelPure specs."""
    return lift_simple("pure", sm.pure_space, _point_binder)


def lift_state(s1: FiniteDomain, s2: FiniteDomain) -> FullSpecMonad:
    """The base lift of WrelSt specs over the states s1 and s2."""
    def binder(table):
        cont = sm.ContTable(table)
        return lambda w: sm.spec_bind(w, cont)
    return lift_simple(f"state[{s1.name},{s2.name}]",
                       lambda d1, d2: sm.state_space(d1, s1, d2, s2), binder)


# ---------------------------------------------------------------------------
# Transformers

# Both transformers touch one side at a time, and each is written once, for
# the left side.  The right-side transformer is the left one applied to the
# mirrored inner carrier and mirrored back, so its payloads keep the inner
# carrier's layout.  The composite operations are spelled out with explicit
# unit computations and tau embeddings wherever a one-sided continuation has
# to cross to the relational component, so that the assembled carrier keeps
# the projection discipline: the unary parts of every composite are the
# unary binds of the inner carrier.


def _mirror(m: FullSpecMonad, name: Optional[str] = None,
            shape: Optional[tuple] = None) -> FullSpecMonad:
    """`m` with its sides swapped: the left operations are m's right ones,
    and the relational ones take their arguments the other way round (the
    relational continuation table transposed).  Payloads are m's own, so
    mirroring twice gives m's operations back."""

    def bind_rel(f1, f2, frel, b1dom, b2dom):
        bind = m.bind_rel(f2, f1, tuple(zip(*frel)), b2dom, b1dom)
        return lambda m1, m2, mrel: bind(m2, m1, mrel)

    return FullSpecMonad(
        name=name or f"mirror({m.name})",
        shape=shape or ("mirror", m.shape),
        ret1=m.ret2,
        ret2=m.ret1,
        ret_rel=lambda a1, a2: m.ret_rel(a2, a1),
        bind1=m.bind2,
        bind2=m.bind1,
        bind_rel=bind_rel,
        tau1=m.tau2,
        tau2=m.tau1,
    )


def exct_rel_transform(inner: FullSpecMonad, e: FiniteDomain, side: str) -> FullSpecMonad:
    """Add exception outcomes `e` to one side.

    On the wrapped side, results become tagged sums: unit injects normally,
    bind threads normal results into the continuation and rethrows
    exceptional ones.  The relational bind additionally routes the mixed
    case (wrapped side raised, other side returned) through the other
    side's continuation via its tau embedding, then pins the pair of a
    rethrown exception with that continuation's result.

    What the carrier builds is cached per argument tuple: the tagged sum
    domains, the units appended for raised exceptions, the inner binders a
    pin prepares, the pins and the rows of rethrows that bind_rel appends
    per table of the other side.  Result domains are in the keys because
    payloads need not record them.  A pin is keyed by the payload's exact
    form: a spec by its pooled spec of the same space and demand families,
    so equal specs built apart share one pin, and a table by its entries.
    Reuse is sound because every `inner` operation is a pure function of
    its arguments and payloads never change once built.  A right-side
    carrier keeps these caches in the left instance built over the mirrored
    inner carrier.
    """
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    if side == "right":
        return _mirror(exct_rel_transform(_mirror(inner), e, "left"),
                       f"exct-right[{e.name}]({inner.name})", ("exct", "right", e, inner.shape))

    @cache
    def tagged(adom: FiniteDomain):
        # the sum domain over adom, its normal values by index, its raised values
        s = sum_domain(adom, e)
        return (s,
                tuple(Value(s, inl_index(adom, e, i)) for i in range(adom.size)),
                tuple(Value(s, inr_index(adom, e, j)) for j in range(e.size)))

    def sdom(a: FiniteDomain) -> FiniteDomain:
        return tagged(a)[0]

    def inl(a: Value) -> Value:
        return tagged(a.domain)[1][a.index]

    unit1 = inner.ret1(UNIT_VAL)

    def ret1(a: Value):
        return inner.ret1(inl(a))

    @cache
    def raises(bdom):
        # the unit at each exception, appended to a continuation table
        return tuple(inner.ret1(v) for v in tagged(bdom)[2])

    def bind1(w, table, bdom):
        return inner.bind1(w, tuple(table) + raises(bdom), sdom(bdom))

    @cache
    def units(b1val, b2dom):
        # the inner binder of a pin: its unit tables, prepared once
        return inner.bind_rel((inner.ret1(b1val),),
                              tuple(inner.ret2(v) for v in b2dom.values()),
                              (tuple(inner.ret_rel(b1val, v) for v in b2dom.values()),),
                              b1val.domain, b2dom)

    @cache
    def pinned(w2, b1val, b2dom):
        # pair a fixed left result with whatever the right continuation
        # produces, keeping its effect on the right spec
        return units(b1val, b2dom)(unit1, w2, inner.tau2(w2, b2dom))

    def pin(w2, b1val, b2dom):
        if type(w2) is not tuple:
            w2 = sm._fixed(w2.space, w2.fams)
        return pinned(w2, b1val, b2dom)

    @cache
    def rethrows(f2, b1dom, b2dom):
        # the relational rows appended for raised exceptions: each rethrow
        # pinned against every entry of the other side's continuation table
        return tuple(tuple(pin(w2, thrown, b2dom) for w2 in f2) for thrown in tagged(b1dom)[2])

    def bind_rel(f1, f2, frel, b1dom, b2dom):
        f2 = tuple(f2)
        return inner.bind_rel(tuple(f1) + raises(b1dom), f2,
                              tuple(frel) + rethrows(f2, b1dom, b2dom), sdom(b1dom), b2dom)

    def tau2(w2, a2dom):
        return pin(w2, inl(UNIT_VAL), a2dom)

    return FullSpecMonad(
        name=f"exct-left[{e.name}]({inner.name})",
        shape=("exct", "left", e, inner.shape),
        ret1=ret1,
        ret2=inner.ret2,
        ret_rel=lambda a1, a2: inner.ret_rel(inl(a1), a2),
        bind1=bind1,
        bind2=inner.bind2,
        bind_rel=bind_rel,
        tau1=lambda w1, adom: inner.tau1(w1, sdom(adom)),
        tau2=tau2,
    )


def stt_rel_transform(inner: FullSpecMonad, s: FiniteDomain, side: str) -> FullSpecMonad:
    """Thread a state cell through one side.

    Payloads on the wrapped side become tables indexed by the entry state,
    each entry an inner payload whose results carry the exit state.  The
    relational component is a table too: fixing the wrapped side's entry
    state gives an inner relational spec between the paired result and the
    untouched other side.
    """
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    if side == "right":
        return _mirror(stt_rel_transform(_mirror(inner), s, "left"),
                       f"stt-right[{s.name}]({inner.name})", ("stt", "right", s, inner.shape))

    def pdom(a: FiniteDomain) -> FiniteDomain:
        return product_domain(a, s)

    def paired(a: Value, si: int) -> Value:
        return Value(pdom(a.domain), a.index * s.size + si)

    def bind1(w, table, bdom):
        table = tuple(table)
        def entry(si):
            inner_table = tuple(table[k // s.size][k % s.size]
                                for k in range(len(table) * s.size))
            return inner.bind1(w[si], inner_table, pdom(bdom))
        return tuple(entry(si) for si in range(s.size))

    def bind_rel(f1, f2, frel, b1dom, b2dom):
        # the wrapped side's tables flattened over (value, exit state); the
        # same inner binder serves every entry state
        f2 = tuple(f2)
        n = len(f1) * s.size
        bind = inner.bind_rel(tuple(f1[k // s.size][k % s.size] for k in range(n)), f2,
                              tuple(tuple(frel[k // s.size][a2][k % s.size]
                                          for a2 in range(len(f2)))
                                    for k in range(n)),
                              pdom(b1dom), b2dom)
        return lambda m1, m2, mrel: tuple(bind(m1[si], m2, mrel[si]) for si in range(s.size))

    def tau2(w2, a2dom):
        udom = pdom(UNIT)
        def entry(si):
            bind = inner.bind_rel((inner.ret1(Value(udom, si)),),
                                  tuple(inner.ret2(v) for v in a2dom.values()),
                                  (tuple(inner.ret_rel(Value(udom, si), v)
                                         for v in a2dom.values()),),
                                  udom, a2dom)
            return bind(inner.ret1(UNIT_VAL), w2, inner.tau2(w2, a2dom))
        return tuple(entry(si) for si in range(s.size))

    return FullSpecMonad(
        name=f"stt-left[{s.name}]({inner.name})",
        shape=("stt", "left", s, inner.shape),
        ret1=lambda a: tuple(inner.ret1(paired(a, si)) for si in range(s.size)),
        ret2=inner.ret2,
        ret_rel=lambda a1, a2: tuple(inner.ret_rel(paired(a1, si), a2)
                                     for si in range(s.size)),
        bind1=bind1,
        bind2=inner.bind2,
        bind_rel=bind_rel,
        tau1=lambda w1, adom: tuple(inner.tau1(w1[si], pdom(adom))
                                    for si in range(s.size)),
        tau2=tau2,
    )


def wrelexc_monad(e1: FiniteDomain, e2: FiniteDomain) -> FullSpecMonad:
    """The canonical exception carrier: exceptions added to each side of the
    base lift.  Unary payloads are transformers over one side's tagged
    outcomes, the relational payload over pairs of tagged outcomes."""
    return exct_rel_transform(exct_rel_transform(lift_pure(), e1, "left"), e2, "right")


def _exc_carrier(monad: FullSpecMonad, who: str) -> Tuple[FiniteDomain, FiniteDomain]:
    shape = monad.shape
    if (len(shape) == 4 and shape[:2] == ("exct", "right")
            and isinstance(shape[3], tuple) and len(shape[3]) == 4
            and shape[3][:2] == ("exct", "left") and shape[3][3] == ("lift", "pure")):
        return shape[3][2], shape[2]
    raise RuleError(f"{who}: needs the canonical exception carrier, got {monad.name}")


def _exc_sigs(monad: FullSpecMonad, sig1, sig2, who: str) -> Tuple[FiniteDomain, FiniteDomain]:
    """The canonical carrier's exception domains, which the signatures must raise."""
    e1, e2 = _exc_carrier(monad, who)
    if sig1.effect != P.EXC or sig1.exc != e1 or sig2.effect != P.EXC or sig2.exc != e2:
        raise RuleError(f"{who}: signatures do not raise the carrier's exceptions")
    return e1, e2


def simulation_spec(a1: FiniteDomain, e1: FiniteDomain,
                    a2: FiniteDomain, e2: FiniteDomain) -> sm.RelSpec:
    """Accepts postconditions that hold everywhere except where the left
    side raised and the right side returned normally: the right program
    raises whenever the left does."""
    s1 = sum_domain(a1, e1)
    s2 = sum_domain(a2, e2)
    demand = [o1 * s2.size + o2
              for o1 in range(s1.size) for o2 in range(s2.size)
              if not (o1 >= a1.size and o2 < a2.size)]
    return sm.demonic_spec(sm.pure_space(s1, s2), [demand])


# ---------------------------------------------------------------------------
# Observations in three parts


@dataclass(frozen=True)
class ThetaTriple:
    """An effect observation split the same way the specs are: one unary
    observation per side plus a relational one over both programs."""

    name: str
    theta1: Callable[[Program], object]
    theta2: Callable[[Program], object]
    theta_rel: Callable[[Program, Program], object]


def _exc_outcome(c: Program, e: FiniteDomain) -> int:
    if c.sig.effect != P.EXC or c.sig.exc != e:
        raise ValueError(f"program is {c.sig.effect!r}/{getattr(c.sig.exc, 'name', None)!r}, "
                         f"observation wants exceptions over {e.name!r}")
    return P._runs(c)


def theta_exc_triple(e1: FiniteDomain, e2: FiniteDomain) -> ThetaTriple:
    """Deterministic exception observation targeting the canonical carrier.

    The unary parts run one program each and demand exactly the tagged
    outcome they saw.  The relational part is the evident diagonal choice:
    run both and demand exactly the joint outcome.  Nothing about the
    carrier forces that choice; the strictness battery is what justifies it
    after the fact, by showing it maps unit to unit and sequencing to
    sequencing on the nose.

    Each program is run once (`programs._runs` keeps its tagged outcome),
    and the triple keeps one spec per pair of result domains and joint
    outcome, so equal observations are one object.  A program over the
    carrier's (canonical) signature is known by identity; any other is
    checked, and refused.
    """
    sig1, sig2, runs = P.exc_sig(e1), P.exc_sig(e2), P._runs

    @cache
    def observed(a1, a2, o1, o2):
        # a None result domain is the unit beside a unary part
        s1 = UNIT if a1 is None else sum_domain(a1, e1)
        s2 = UNIT if a2 is None else sum_domain(a2, e2)
        return sm.demand_spec(sm.pure_space(s1, s2), [(1 << (o1 * s2.size + o2),)])

    def theta1(c: Program) -> sm.RelSpec:
        return observed(c.result, None, runs(c) if c.sig is sig1 else _exc_outcome(c, e1), 0)

    def theta2(c: Program) -> sm.RelSpec:
        return observed(None, c.result, 0, runs(c) if c.sig is sig2 else _exc_outcome(c, e2))

    def theta_rel(c1: Program, c2: Program) -> sm.RelSpec:
        return observed(c1.result, c2.result,
                        runs(c1) if c1.sig is sig1 else _exc_outcome(c1, e1),
                        runs(c2) if c2.sig is sig2 else _exc_outcome(c2, e2))

    return ThetaTriple(f"exc-run[{e1.name},{e2.name}]", theta1, theta2, theta_rel)


# ---------------------------------------------------------------------------
# Judgments


@dataclass(frozen=True)
class SplitContext:
    """Variable context in two independent halves; the left programs and
    specs only ever see the left half, and symmetrically."""

    left: Env = EMPTY_ENV
    right: Env = EMPTY_ENV


EMPTY_SPLIT = SplitContext()


SPLIT = Catalogue()


def full_rule_names() -> Tuple[str, ...]:
    return SPLIT.names()


def apply_full_rule(name: str, premises: Sequence["FullJudgment"] = (), **params) -> "FullJudgment":
    return SPLIT.apply(RuleInstance(name, params), premises)


@dataclass(frozen=True)
class FullJudgment:
    """c1 ~ c2 with a spec triple, over a split context.

    c1 and w1 are Tables over left valuations, c2 and w2 over right
    valuations, wrel over pairs (the left valuation major), filled once
    when the judgment is built; read an entry through `c1`, `c2`, `w1`,
    `w2` and `wrel`.  The quantification is the semantics: each unary claim
    binds only its own side's variables.
    """

    ctx: SplitContext
    monad: FullSpecMonad
    theta: ThetaTriple
    c1_table: Table
    c2_table: Table
    w1_table: Table
    w2_table: Table
    wrel_table: Table

    def c1(self, g1: Valuation = ()) -> Program:
        return self.c1_table[self.ctx.left.rank(g1)]

    def c2(self, g2: Valuation = ()) -> Program:
        return self.c2_table[self.ctx.right.rank(g2)]

    def w1(self, g1: Valuation = ()):
        return self.w1_table[self.ctx.left.rank(g1)]

    def w2(self, g2: Valuation = ()):
        return self.w2_table[self.ctx.right.rank(g2)]

    def wrel(self, g1: Valuation = (), g2: Valuation = ()):
        right = self.ctx.right
        return self.wrel_table[self.ctx.left.rank(g1) * right.count + right.rank(g2)]

    catalogue: ClassVar[Catalogue] = SPLIT

    def mismatch(self, computed: "FullJudgment") -> Optional[str]:
        """How this stated conclusion differs from the rule's own: programs
        up to normalization and each clause's spec in both directions, once
        per distinct entry, naming the first valuation that differs.  None
        when they agree."""
        if self.ctx != computed.ctx:
            return "stated context differs from the rule's conclusion context"
        if self.monad.shape != computed.monad.shape or self.theta.name != computed.theta.name:
            return "stated carrier or observation differs from the rule's"
        left, right = self.ctx.left, self.ctx.right
        for i, (p, q, w, w2) in _firsts(self.c1_table, computed.c1_table, self.w1_table,
                                        computed.w1_table):
            if not P.programs_equal(p, q):
                return f"left program differs at {_show_valuation(left, i)}"
            if not _equal(w, w2):
                return f"left spec differs at {_show_valuation(left, i)}"
        for i, (p, q, w, w2) in _firsts(self.c2_table, computed.c2_table, self.w2_table,
                                        computed.w2_table):
            if not P.programs_equal(p, q):
                return f"right program differs at {_show_valuation(right, i)}"
            if not _equal(w, w2):
                return f"right spec differs at {_show_valuation(right, i)}"
        for i, (w, w2) in _firsts(self.wrel_table, computed.wrel_table):
            if not _equal(w, w2):
                i1, i2 = divmod(i, right.count)
                return (f"relational spec differs at {_show_valuation(left, i1)} "
                        f"and {_show_valuation(right, i2)}")
        return None

    def oracle(self) -> OracleVerdict:
        """Clause by clause: the left unary claim over left valuations, the
        right one over right valuations, the relational one over pairs, each
        once per distinct entry; the first clause that fails names the
        verdict, else it holds.  `checked` counts valuations and pairs."""
        th, left, right = self.theta, self.ctx.left, self.ctx.right
        n1, n2 = left.count, right.count
        for i, (c1, w1) in _firsts(self.c1_table, self.w1_table):
            v = leq(th.theta1(c1), w1)
            if not v.holds:
                return OracleVerdict("fails", i + 1, (left.unrank(i),), v, "left")
        for i, (c2, w2) in _firsts(self.c2_table, self.w2_table):
            v = leq(th.theta2(c2), w2)
            if not v.holds:
                return OracleVerdict("fails", n1 + i + 1, (right.unrank(i),), v, "right")
        for i, (c1, c2, wrel) in _firsts(*_pairs(self.c1_table, self.c2_table), self.wrel_table):
            v = leq(th.theta_rel(c1, c2), wrel)
            if not v.holds:
                i1, i2 = divmod(i, n2)
                return OracleVerdict("fails", n1 + n2 + i + 1,
                                     (left.unrank(i1), right.unrank(i2)), v, "relational")
        return OracleVerdict("holds", n1 + n2 + n1 * n2)


def _equal(a, b) -> bool:
    try:
        return leq(a, b).holds and leq(b, a).holds
    except ValueError:  # another carrier or outcome space: they differ
        return False


def full_judgment(monad: FullSpecMonad, theta: ThetaTriple, c1, c2, w1, w2, wrel,
                  ctx: SplitContext = EMPTY_SPLIT) -> FullJudgment:
    """Build a judgment from families: each a Table, a callable of the
    valuation (of the pair of valuations for wrel), called once per
    valuation here, or a plain value.  Programs are probed at the first
    valuations."""
    left, right = ctx.left, ctx.right
    j = FullJudgment(ctx, monad, theta, _tabulate(left, c1), _tabulate(right, c2),
                     _tabulate(left, w1), _tabulate(right, w2), _pair_table(ctx, wrel))
    if not isinstance(j.c1_table[0], Program) or not isinstance(j.c2_table[0], Program):
        raise ValueError("judgment sides must be Program families")
    return j


def _pair_table(ctx: SplitContext, x) -> Table:
    """A relational family as a Table over pairs of valuations, the left one
    major: a Table is checked for its length, a callable of the pair is
    called once per pair, anything else is a constant."""
    left, right = ctx.left, ctx.right
    n = left.count * right.count
    if type(x) is Table:
        if len(x) != n:
            raise ValueError(f"a table over these pairs of valuations has {n} entries, "
                             f"got {len(x)}")
        return x
    if callable(x):
        return Table(x(g1, g2) for g1, g2 in product(left.valuations(), right.valuations()))
    return Table((x,) * n)


# ---------------------------------------------------------------------------
# Rules


def _same_kind(a: FullJudgment, b: FullJudgment, who: str) -> None:
    if a.monad.shape != b.monad.shape:
        raise RuleError(f"{who}: premises use different spec carriers")
    if a.theta.name != b.theta.name:
        raise RuleError(f"{who}: premises use different observations")


def _env_extension(base: Env, ext: Env, who: str, side: str) -> Tuple[str, FiniteDomain]:
    k = len(base.vars)
    if ext.vars[:k] != base.vars or len(ext.vars) != k + 1:
        raise RuleError(f"{who}: {side} premise context must bind exactly one variable")
    return ext.vars[-1]


@SPLIT.rule("Ret", arity=0)
def _full_ret(r: RuleInstance, _prem) -> FullJudgment:
    monad = r.need("monad")
    theta = r.need("theta")
    sig1, sig2 = r.need("sig1"), r.need("sig2")
    ctx = r.get("ctx", EMPTY_SPLIT)
    a1f, a2f = r.table("a1", ctx.left), r.table("a2", ctx.right)
    if monad.shape[0] == "exct":
        _exc_sigs(monad, sig1, sig2, r.rule)
    return full_judgment(
        monad, theta,
        _each(partial(P.ret, sig1), a1f),
        _each(partial(P.ret, sig2), a2f),
        _each(monad.ret1, a1f),
        _each(monad.ret2, a2f),
        _each(monad.ret_rel, *_pairs(a1f, a2f)),
        ctx,
    )


@SPLIT.rule("Weaken", arity=1)
def _full_weaken(r: RuleInstance, prem) -> FullJudgment:
    (j,) = prem
    w1 = r.table("w1", j.ctx.left, j.w1_table)
    w2 = r.table("w2", j.ctx.right, j.w2_table)
    wrel = r.get("wrel", j.wrel_table)
    r.check_length("wrel", wrel, len(j.wrel_table), "pairs of valuations")
    wrel = _pair_table(j.ctx, wrel)
    for part, lows, highs in (("left", j.w1_table, w1), ("right", j.w2_table, w2),
                              ("relational", j.wrel_table, wrel)):
        for _, (lo, hi) in _firsts(lows, highs):
            if not leq(lo, hi).holds:
                raise RuleError(f"{r.rule}: {part} target is not above the premise spec")
    return FullJudgment(j.ctx, j.monad, j.theta, j.c1_table, j.c2_table, w1, w2, wrel)


def _pairs(t1: Sequence, t2: Sequence) -> Tuple[tuple, tuple]:
    """The columns of t1 x t2, the first major: entry k of each is that
    side's entry at the k-th pair, as a relational family orders them."""
    return tuple(x for x in t1 for _ in t2), tuple(t2) * len(t1)


def _rel_rows(j: FullJudgment, n1: int, n2: int) -> Iterator[tuple]:
    """j's relational table as one n1 x n2 table per pair of the
    conclusion's valuations, the left one major, when j binds one more
    variable of n1 values on the left and one of n2 on the right."""
    width = j.ctx.right.count
    for i1 in range(0, len(j.c1_table), n1):
        for i2 in range(0, width, n2):
            yield tuple(j.wrel_table[k:k + n2]
                        for k in range(i1 * width + i2, (i1 + n1) * width, width))


@SPLIT.rule("Bind", arity=2)
def _full_bind(r: RuleInstance, prem) -> FullJudgment:
    jm, jf = prem
    _same_kind(jm, jf, r.rule)
    monad = jm.monad
    x1, d1 = _env_extension(jm.ctx.left, jf.ctx.left, r.rule, "left")
    x2, d2 = _env_extension(jm.ctx.right, jf.ctx.right, r.rule, "right")
    for p in jm.c1_table:
        if p.result != d1:
            raise RuleError(f"{r.rule}: left results do not match the bound variable {x1!r}")
    for p in jm.c2_table:
        if p.result != d2:
            raise RuleError(f"{r.rule}: right results do not match the bound variable {x2!r}")
    b1dom = jf.c1_table[0].result
    b2dom = jf.c2_table[0].result
    if any(p.result != b1dom for p in jf.c1_table):
        raise RuleError(f"{r.rule}: left continuation changes its result domain")
    if any(p.result != b2dom for p in jf.c2_table):
        raise RuleError(f"{r.rule}: right continuation changes its result domain")
    n1, n2 = d1.size, d2.size
    f1, f2 = _rows(jf.w1_table, n1), _rows(jf.w2_table, n2)
    # one relational binder per distinct triple of continuation tables
    binders = _each(lambda fc1, fc2, frel: monad.bind_rel(fc1, fc2, frel, b1dom, b2dom),
                    *_pairs(f1, f2), tuple(_rel_rows(jf, n1, n2)))
    return FullJudgment(
        jm.ctx, monad, jm.theta,
        _each(P.bind, jm.c1_table, _rows(jf.c1_table, n1)),
        _each(P.bind, jm.c2_table, _rows(jf.c2_table, n2)),
        _each(lambda m, f: monad.bind1(m, f, b1dom), jm.w1_table, f1),
        _each(lambda m, f: monad.bind2(m, f, b2dom), jm.w2_table, f2),
        _each(lambda m1, m2, mrel, bind: bind(m1, m2, mrel),
              *_pairs(jm.w1_table, jm.w2_table), jm.wrel_table, binders))


@SPLIT.rule("ThrowL", "ThrowR", arity=0)
def _full_throw(r: RuleInstance, _prem) -> FullJudgment:
    # ThrowL raises on the left beside a right return; ThrowR mirrors it
    left = r.rule == "ThrowL"
    monad = r.need("monad")
    theta = r.need("theta")
    sig1, sig2 = r.need("sig1"), r.need("sig2")
    ctx = r.get("ctx", EMPTY_SPLIT)
    e1, e2 = _exc_sigs(monad, sig1, sig2, r.rule)
    own, other_env = (ctx.left, ctx.right) if left else (ctx.right, ctx.left)
    excs, af = r.table("exc", own), r.table("a2" if left else "a1", other_env)
    result = r.need("result1" if left else "result2")
    sig, other_sig = (sig1, sig2) if left else (sig2, sig1)
    e, other_e = (e1, e2) if left else (e2, e1)
    for x in excs:
        if x.domain != e:
            raise RuleError(f"{r.rule}: exception value lives in {x.domain.name!r}")
    tagged = sum_domain(result, e)

    def w(x):
        space = sm.pure_space(tagged, UNIT) if left else sm.pure_space(UNIT, tagged)
        return sm.demand_spec(space, [(1 << inr_index(result, e, x.index),)])

    def rel(x, a):
        other = sum_domain(a.domain, other_e)
        o, k = inr_index(result, e, x.index), inl_index(a.domain, other_e, a.index)
        if left:
            return sm.demand_spec(sm.pure_space(tagged, other), [(1 << (o * other.size + k),)])
        return sm.demand_spec(sm.pure_space(other, tagged), [(1 << (k * tagged.size + o),)])

    throw = _each(lambda x: P.throw(sig, x, result), excs)
    ret = _each(partial(P.ret, other_sig), af)
    ret_w = _each(monad.ret2 if left else monad.ret1, af)
    # the left valuation is major in wrel, whichever side raises
    wrel = _each(rel, *_pairs(excs, af)) if left else _each(rel, *_pairs(af, excs)[::-1])
    if left:
        return full_judgment(monad, theta, throw, ret, _each(w, excs), ret_w, wrel, ctx)
    return full_judgment(monad, theta, ret, throw, ret_w, _each(w, excs), wrel, ctx)


def _catch_unary(w: sm.RelSpec, normal: int, handlers: Sequence[sm.RelSpec]) -> sm.RelSpec:
    # normal outcomes pass through; exceptional ones defer to their handler
    table = [sm.demand_spec(w.space, [(1 << k,)]) for k in range(normal)]
    table += list(handlers)
    return _point_binder(table)(w)


def _catch_rel(wrel: sm.RelSpec, h1: Sequence[sm.RelSpec], h2: Sequence[sm.RelSpec], hrel,
               a1n: int, a2n: int) -> sm.RelSpec:
    # a unary handler's outcomes index its own side, the other side's a unit
    space = wrel.space
    s2n = a2n + len(h2)
    table = []
    for k in range(space.size):
        ae1, ae2 = divmod(k, s2n)
        if ae1 < a1n and ae2 < a2n:
            table.append(sm.demand_spec(space, [(1 << k,)]))
        elif ae1 >= a1n and ae2 >= a2n:
            table.append(hrel[ae1 - a1n][ae2 - a2n])
        elif ae1 >= a1n:
            # left handler runs, the right side's normal result stands
            table.append(sm.reindex_outcomes(h1[ae1 - a1n], space,
                                             lambda o1, j=ae2: o1 * s2n + j))
        else:
            table.append(sm.reindex_outcomes(h2[ae2 - a2n], space,
                                             lambda o2, i=ae1: i * s2n + o2))
    return _point_binder(table)(wrel)


@SPLIT.rule("Catch", arity=2)
def _full_catch(r: RuleInstance, prem) -> FullJudgment:
    j, jerr = prem
    _same_kind(j, jerr, r.rule)
    monad = j.monad
    e1, e2 = _exc_carrier(monad, r.rule)
    _x1, d1 = _env_extension(j.ctx.left, jerr.ctx.left, r.rule, "left")
    _x2, d2 = _env_extension(j.ctx.right, jerr.ctx.right, r.rule, "right")
    if d1 != e1 or d2 != e2:
        raise RuleError(f"{r.rule}: handler premise must bind one exception per side")
    a1dom = j.c1_table[0].result
    a2dom = j.c2_table[0].result
    if any(p.result != a1dom for p in jerr.c1_table):
        raise RuleError(f"{r.rule}: left handler result domain differs from the body")
    if any(p.result != a2dom for p in jerr.c2_table):
        raise RuleError(f"{r.rule}: right handler result domain differs from the body")
    n1, n2 = e1.size, e2.size
    h1, h2 = _rows(jerr.w1_table, n1), _rows(jerr.w2_table, n2)
    return FullJudgment(
        j.ctx, monad, j.theta,
        _each(P.catch, j.c1_table, _rows(jerr.c1_table, n1)),
        _each(P.catch, j.c2_table, _rows(jerr.c2_table, n2)),
        _each(lambda w, h: _catch_unary(w, a1dom.size, h), j.w1_table, h1),
        _each(lambda w, h: _catch_unary(w, a2dom.size, h), j.w2_table, h2),
        _each(lambda w, hc1, hc2, hrel: _catch_rel(w, hc1, hc2, hrel, a1dom.size, a2dom.size),
              j.wrel_table, *_pairs(h1, h2), tuple(_rel_rows(jerr, n1, n2))))


@SPLIT.rule("Case", arity=2)
def _full_case(r: RuleInstance, prem) -> FullJudgment:
    jl, jr = prem
    _same_kind(jl, jr, r.rule)
    x1 = r.need("x1")
    x2 = r.need("x2")
    base = SplitContext(Env(jl.ctx.left.vars[:-1]), Env(jl.ctx.right.vars[:-1]))
    # both premises must extend the same base, each binding one component
    _al, dal = _env_extension(base.left, jl.ctx.left, r.rule, "left")
    _ar, dar = _env_extension(base.right, jl.ctx.right, r.rule, "right")
    _bl, dbl = _env_extension(base.left, jr.ctx.left, r.rule, "left")
    _br, dbr = _env_extension(base.right, jr.ctx.right, r.rule, "right")
    sum1 = sum_domain(dal, dbl)
    sum2 = sum_domain(dar, dbr)
    r1, r2 = jl.c1_table[0].result, jl.c2_table[0].result
    if jr.c1_table[0].result != r1 or jr.c2_table[0].result != r2:
        raise RuleError(f"{r.rule}: branch result domains differ")
    names1 = {n for n, _ in base.left.vars}
    names2 = {n for n, _ in base.right.vars}
    if x1 in names1 or x2 in names2:
        raise RuleError(f"{r.rule}: scrutinee name already bound")
    ctx = SplitContext(base.left.extend((x1, sum1)), base.right.extend((x2, sum2)))

    def split(count: int, da: FiniteDomain, db: FiniteDomain):
        # per valuation of one side, the branch premise and its rank there:
        # the scrutinee's tag picks the branch, its payload the last value
        return [(jl, i * da.size + k) if is_l else (jr, i * db.size + k)
                for i in range(count)
                for is_l, k in (case_index(da, db, v) for v in range(da.size + db.size))]

    left = split(base.left.count, dal, dbl)
    right = split(base.right.count, dar, dbr)
    top = jl.monad.unsat_rel(r1, r2)

    def rel(ja, ka, jb, kb):
        if ja is not jb:
            # the sum relation only relates matching tags: no claim here
            return top
        return ja.wrel_table[ka * ja.ctx.right.count + kb]

    return FullJudgment(ctx, jl.monad, jl.theta,
                        Table(j.c1_table[k] for j, k in left),
                        Table(j.c2_table[k] for j, k in right),
                        Table(j.w1_table[k] for j, k in left),
                        Table(j.w2_table[k] for j, k in right),
                        Table(rel(ja, ka, jb, kb) for (ja, ka), (jb, kb) in product(left, right)))


# ---------------------------------------------------------------------------
# Law batteries


def check_triple_laws(monad: FullSpecMonad, rng: random.Random,
                      doms1: Sequence[FiniteDomain], doms2: Sequence[FiniteDomain],
                      samples: int = 2) -> LawReport:
    """Unit, sequencing, and associativity for all three components, plus
    the morphism laws of the tau embeddings, on sampled payloads over the
    given result domains (three per side: argument, middle, final).  A
    payload is drawn in the shape of the unit at its domain: a
    `random_spec` over the space of each spec in it, in tuple order.

    The laws are unit-left, unit-right, assoc, tau-unit and tau-bind, each
    claimed with equality under `leq`; an instance is the part it checks
    (left, right or relational) followed by the values it is taken at."""
    for name, n in (("samples", samples), ("len(doms1)", len(doms1)),
                    ("len(doms2)", len(doms2))):
        if n < 1:
            raise ValueError(f"{name} must be at least 1, got {n}")
    a1d, b1d, c1d = (tuple(doms1) * 3)[:3]
    a2d, b2d, c2d = (tuple(doms2) * 3)[:3]

    def gen(ret, *doms):
        # a payload in the shape of the unit `ret` gives at these domains
        return _each_spec(ret(*(d.value(0) for d in doms)), lambda w: random_spec(rng, w.space))

    ret1, ret2, ret_rel = monad.ret1, monad.ret2, monad.ret_rel

    def rets1(dom):
        return tuple(monad.ret1(v) for v in dom.values())

    def rets2(dom):
        return tuple(monad.ret2(v) for v in dom.values())

    def instances():
        for _ in range(samples):
            m1, m2, mrel = gen(ret1, a1d), gen(ret2, a2d), gen(ret_rel, a1d, a2d)
            f1 = tuple(gen(ret1, b1d) for _ in range(a1d.size))
            f2 = tuple(gen(ret2, b2d) for _ in range(a2d.size))
            frel = tuple(tuple(gen(ret_rel, b1d, b2d) for _ in range(a2d.size))
                         for _ in range(a1d.size))
            g1 = tuple(gen(ret1, c1d) for _ in range(b1d.size))
            g2 = tuple(gen(ret2, c2d) for _ in range(b2d.size))
            grel = tuple(tuple(gen(ret_rel, c1d, c2d) for _ in range(b2d.size))
                         for _ in range(b1d.size))

            for a in a1d.values():
                yield ("unit-left", ("left", a), leq,
                       monad.bind1(monad.ret1(a), f1, b1d), f1[a.index])
            for a in a2d.values():
                yield ("unit-left", ("right", a), leq,
                       monad.bind2(monad.ret2(a), f2, b2d), f2[a.index])
            yield "unit-right", ("left",), leq, monad.bind1(m1, rets1(a1d), a1d), m1
            yield "unit-right", ("right",), leq, monad.bind2(m2, rets2(a2d), a2d), m2
            yield ("assoc", ("left",), leq,
                   monad.bind1(monad.bind1(m1, f1, b1d), g1, c1d),
                   monad.bind1(m1, tuple(monad.bind1(w, g1, c1d) for w in f1), c1d))
            yield ("assoc", ("right",), leq,
                   monad.bind2(monad.bind2(m2, f2, b2d), g2, c2d),
                   monad.bind2(m2, tuple(monad.bind2(w, g2, c2d) for w in f2), c2d))

            bind_f = monad.bind_rel(f1, f2, frel, b1d, b2d)
            bind_g = monad.bind_rel(g1, g2, grel, c1d, c2d)
            for a1 in a1d.values():
                for a2 in a2d.values():
                    yield ("unit-left", ("relational", a1, a2), leq,
                           bind_f(monad.ret1(a1), monad.ret2(a2), monad.ret_rel(a1, a2)),
                           frel[a1.index][a2.index])
            retrel = tuple(tuple(monad.ret_rel(v1, v2) for v2 in a2d.values())
                           for v1 in a1d.values())
            yield ("unit-right", ("relational",), leq,
                   monad.bind_rel(rets1(a1d), rets2(a2d), retrel, a1d, a2d)(m1, m2, mrel),
                   mrel)
            lhs = bind_g(monad.bind1(m1, f1, b1d), monad.bind2(m2, f2, b2d),
                         bind_f(m1, m2, mrel))
            comp = tuple(tuple(bind_g(f1[i], f2[k], frel[i][k]) for k in range(a2d.size))
                         for i in range(a1d.size))
            rhs = monad.bind_rel(tuple(monad.bind1(w, g1, c1d) for w in f1),
                                 tuple(monad.bind2(w, g2, c2d) for w in f2),
                                 comp, c1d, c2d)(m1, m2, mrel)
            yield "assoc", ("relational",), leq, lhs, rhs

            # tau is a morphism into the relational component
            for a in a1d.values():
                yield ("tau-unit", ("left", a), leq, monad.tau1(monad.ret1(a), a1d),
                       monad.ret_rel(a, UNIT_VAL))
            for a in a2d.values():
                yield ("tau-unit", ("right", a), leq, monad.tau2(monad.ret2(a), a2d),
                       monad.ret_rel(UNIT_VAL, a))
            u2 = (monad.ret2(UNIT_VAL),)
            yield ("tau-bind", ("left",), leq,
                   monad.tau1(monad.bind1(m1, f1, b1d), b1d),
                   monad.bind_rel(f1, u2, tuple((monad.tau1(w, b1d),) for w in f1),
                                  b1d, UNIT)(m1, monad.ret2(UNIT_VAL), monad.tau1(m1, a1d)))
            u1 = (monad.ret1(UNIT_VAL),)
            yield ("tau-bind", ("right",), leq,
                   monad.tau2(monad.bind2(m2, f2, b2d), b2d),
                   monad.bind_rel(u1, f2, (tuple(monad.tau2(w, b2d) for w in f2),),
                                  UNIT, b2d)(monad.ret1(UNIT_VAL), m2, monad.tau2(m2, a2d)))

    return run_laws(monad.name, STRICT, instances())


def check_exc_strictness(e1: FiniteDomain, e2: FiniteDomain, a: FiniteDomain,
                         depth: int = 3, table_limit: int = 16) -> LawReport:
    """Is the exception observation triple a strict monad morphism: does it
    map unit to unit (law `ret`) and sequencing to sequencing (law `bind`)
    exactly?  Checked over one representative per semantic class of
    raise/handle trees up to the given depth, bound to tables over the
    classes one level shallower, in all three components at once; an
    instance is the part it checks (left, right or relational) followed by
    its values or programs.  `depth` must be at least 2, so that some
    middle is bound to some table."""
    from .genprog import enumerate_classes

    if depth < 2:
        raise ValueError(f"depth must be at least 2, got {depth}")
    if table_limit < 1:
        raise ValueError(f"table_limit must be at least 1, got {table_limit}")
    monad = wrelexc_monad(e1, e2)
    th = theta_exc_triple(e1, e2)
    sig1, sig2 = P.exc_sig(e1), P.exc_sig(e2)

    def instances():
        for v1 in a.values():
            yield "ret", ("left", v1), leq, th.theta1(P.ret(sig1, v1)), monad.ret1(v1)
        for v2 in a.values():
            yield "ret", ("right", v2), leq, th.theta2(P.ret(sig2, v2)), monad.ret2(v2)
        for v1 in a.values():
            for v2 in a.values():
                yield ("ret", ("relational", v1, v2), leq,
                       th.theta_rel(P.ret(sig1, v1), P.ret(sig2, v2)), monad.ret_rel(v1, v2))

        ms1 = enumerate_classes(sig1, a, depth)
        ms2 = enumerate_classes(sig2, a, depth)
        pool1 = enumerate_classes(sig1, a, depth - 1)
        pool2 = enumerate_classes(sig2, a, depth - 1)
        tables1 = list(product(pool1, repeat=a.size))[:table_limit]
        tables2 = list(product(pool2, repeat=a.size))[:table_limit]

        # observations of table entries, the relational binder of each pair
        # of tables and bound programs do not depend on the instance that
        # uses them: take each one once
        thf1 = [tuple(th.theta1(p) for p in f1) for f1 in tables1]
        thf2 = [tuple(th.theta2(p) for p in f2) for f2 in tables2]
        binders = [[monad.bind_rel(w1, w2, tuple(tuple(th.theta_rel(p1, p2) for p2 in f2)
                                                  for p1 in f1), a, a)
                    for f2, w2 in zip(tables2, thf2)] for f1, w1 in zip(tables1, thf1)]
        bound1 = [[P.bind(m1, f1) for f1 in tables1] for m1 in ms1]
        bound2 = [[P.bind(m2, f2) for f2 in tables2] for m2 in ms2]

        for m1, binds1 in zip(ms1, bound1):
            for f1, c1, thf in zip(tables1, binds1, thf1):
                yield ("bind", ("left", m1, f1), leq,
                       th.theta1(c1), monad.bind1(th.theta1(m1), thf, a))
        for m2, binds2 in zip(ms2, bound2):
            for f2, c2, thf in zip(tables2, binds2, thf2):
                yield ("bind", ("right", m2, f2), leq,
                       th.theta2(c2), monad.bind2(th.theta2(m2), thf, a))
        for m1, binds1 in zip(ms1, bound1):
            for m2, binds2 in zip(ms2, bound2):
                thm1, thm2, thmrel = th.theta1(m1), th.theta2(m2), th.theta_rel(m1, m2)
                for f1, c1, row in zip(tables1, binds1, binders):
                    for f2, c2, bind in zip(tables2, binds2, row):
                        yield ("bind", ("relational", m1, m2, f1, f2), leq,
                               th.theta_rel(c1, c2), bind(thm1, thm2, thmrel))

    return run_laws(th.name, STRICT, instances())
