"""Effect observations: interpreting pairs of programs as relational specs.

Each observation maps two programs of a fixed effect into one carrier:

    theta_st    state pairs        -> WrelSt    (runs both sides, singleton demand)
    theta_ndet  nondeterminism     -> WrelPure  (forall / exists / forall-exists)
    theta_err   exceptions         -> WrelErr   (collapse every raise to one outcome)
    theta_io    interactive pairs  -> WrelIO    (runs each side from its history)
    theta_part  loops, partial     -> WrelSt    (divergence satisfies everything)
    theta_tot   loops, total       -> WrelSt    (divergence satisfies nothing)
    theta_prob  probabilistic      -> WrelProb  (infimum over couplings, exact LP)

Two generic constructions are provided alongside the catalog:
`from_commuting_pair` combines two unary observations into a strict relational
one (sound when their images commute, which `check_commute` tests), and
`from_relator` turns a relation lifting for finite nondeterminism into a lax
observation.  `check_morphism_laws` classifies any observation's ret and bind
laws as equal, strictly less precise, or violated, with re-checkable witnesses.

Every observation here factors through the reference evaluators in
`programs`, so two programs with equal `semantic_key` get equal specs; the
battery builders rely on that to dedupe enumerated programs.  None walks a
program tree: the state and loop observations, paired and one-sided, read
each program's runs from the one table `programs._runs` keeps, and a
diverging run makes a point trivial (partial) or unsatisfiable (total);
θ_ndet reads each side's outcome set there and θ_prob its distribution, as
ints over one denominator, so a program met many times is run once.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import lcm
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from . import lp
from . import programs as P
from .domains import UNIT, FiniteDomain, Value
from .genprog import enumerate_classes
from .programs import Program, Signature, semantic_key
from .specmonads import (
    ContTable,
    LeqVerdict,
    OutcomeSpace,
    RelSpec,
    _fixed,
    _linear,
    closure_spec,
    demand_spec,
    err_space,
    io_demonic_spec,
    io_space,
    order_kind,
    outcome_space,
    prob_space,
    pure_space,
    spec_bind,
    spec_equiv,
    spec_leq,
    spec_ret,
    state_space,
)

FORALL, EXISTS, FORALL_EXISTS = "forall", "exists", "forall-exists"
NDET_MODES = (FORALL, EXISTS, FORALL_EXISTS)

STRICT, LAX = "strict", "lax"

IO_ROOT = (((), ()),)


@dataclass(frozen=True)
class EffectObservation:
    """A named map from program pairs to specs, with a strictness claim.

    `map` must be total on well-formed pairs of the declared effects; the
    claim records whether the ret and bind laws are expected to hold with
    equality (strict) or only as inequalities (lax).
    """

    name: str
    left_effect: str
    right_effect: str
    target: str
    map: Callable[[Program, Program], RelSpec]
    strictness: str

    def __call__(self, c1: Program, c2: Program) -> RelSpec:
        return self.map(c1, c2)


@dataclass(frozen=True)
class UnaryObservation:
    """One-sided observation into a pair carrier.

    `side` says which value slot of the carrier the program's results fill;
    the other slot is the unit domain.  Ambient structure (state components,
    event alphabets) is shared with the eventual pair carrier, so two unary
    observations on opposite sides can be composed by `from_commuting_pair`.
    """

    name: str
    effect: str
    side: int
    target: str
    embed: Callable[[Program], RelSpec]


def _expect_effect(c: Program, allowed, who: str):
    if isinstance(allowed, str):
        allowed = (allowed,)
    if c.sig.effect not in allowed:
        raise ValueError(f"{who} expects {' or '.join(allowed)} programs, got {c.sig.effect!r}")


# ---------------------------------------------------------------------------
# State


def _pair_runs(c1: Program, c2: Program, diverged) -> RelSpec:
    """Pair each side's runs: a point's demand is the single joint outcome,
    or its family is `diverged` if a side has none.  A joint outcome is the
    left local outcome times the right side's count, plus the right one."""
    space = state_space(c1.result, c1.sig.state, c2.result, c2.sig.state)
    k = c2.result.size * c2.sig.state.size
    right = P._runs(c2)
    return _fixed(space, [diverged if l is None or r is None else frozenset({1 << (l * k + r)})
                          for l in P._runs(c1) for r in right])


def _refuse_loops(c: Program, who: str):
    if c.sig.effect == P.IMP and P.count_loops(c):
        raise ValueError(f"{who} runs programs without loops; "
                         "observe loops with theta_part or theta_tot")


def theta_st(c1: Program, c2: Program) -> RelSpec:
    """Run both sides and demand the postcondition of the single outcome
    pair.  Imp programs with a loop need `theta_part` or `theta_tot`."""
    _expect_effect(c1, (P.STATE, P.IMP), "theta_st")
    _expect_effect(c2, (P.STATE, P.IMP), "theta_st")
    _refuse_loops(c1, "theta_st")
    _refuse_loops(c2, "theta_st")
    return _pair_runs(c1, c2, None)


def _one_sided_runs(c: Program, s1: FiniteDomain, s2: FiniteDomain,
                    side: int, comp: int) -> RelSpec:
    """c's runs in the two-component state carrier: at each point, c runs
    from state component `comp`, its value fills the `side` slot and its
    final state replaces that component.  A diverging run demands nothing
    (partial correctness)."""
    own = s1 if comp == 1 else s2
    if c.sig.state != own:
        raise ValueError("program state domain does not match the chosen component")
    a = c.result
    space = state_space(a if side == 1 else UNIT, s1, a if side == 2 else UNIT, s2)
    runs = P._runs(c)
    table = []
    for pt in space.points():
        s1i, s2i = space.point_split(pt)
        r = runs[s1i if comp == 1 else s2i]
        if r is None:
            table.append(frozenset({0}))
            continue
        v, t = divmod(r, own.size)
        s1i, s2i = (t, s2i) if comp == 1 else (s1i, t)
        o = space.st_outcome(v if side == 1 else 0, s1i, v if side == 2 else 0, s2i)
        table.append(frozenset({1 << o}))
    return _fixed(space, table)


def unary_theta_st(side: int, s1: FiniteDomain, s2: FiniteDomain,
                   component: Optional[int] = None) -> UnaryObservation:
    """Unary state observation into the two-component carrier.

    `component` picks which state slot the program reads and writes; it
    defaults to the value side, giving the commuting left/right pair.  Making
    both sides act on the same component breaks commutation (order shows).
    Like `theta_st`, it refuses imp programs with a loop.
    """
    comp = side if component is None else component

    def embed(c: Program) -> RelSpec:
        _refuse_loops(c, "unary_theta_st")
        return _one_sided_runs(c, s1, s2, side, comp)

    return UnaryObservation(
        name=f"theta-st/{side}@{comp}",
        effect=P.STATE,
        side=side,
        target="WrelSt",
        embed=embed,
    )


# ---------------------------------------------------------------------------
# Finite nondeterminism


def theta_ndet(mode: str, c1: Program, c2: Program) -> RelSpec:
    """Quantified transformer over the two outcome sets, as demands.

    forall demands the postcondition on every pair (one demand), exists on
    at least one (one singleton demand per pair), and forall-exists asks
    every left outcome to find some right partner: forall over the left
    outcomes bound to exists over each one's pairs, one demand per choice
    of partners (a bind, so past its demand limit this raises SpecTooLarge).
    Empty sets behave accordingly: forall of nothing is trivially met.
    """
    _expect_effect(c1, P.NDET, "theta_ndet")
    _expect_effect(c2, P.NDET, "theta_ndet")
    if mode not in NDET_MODES:
        raise ValueError(f"mode must be one of {NDET_MODES}, got {mode!r}")
    space = pure_space(c1.result, c2.result)
    r1, r2 = P._runs(c1), P._runs(c2)

    def pairs(i1):
        return [1 << (i1 * space.a2.size + i2) for i2 in r2]

    if mode == FORALL:
        return demand_spec(space, [[sum(b for i1 in r1 for b in pairs(i1))]])
    if mode == EXISTS:
        return demand_spec(space, [[b for i1 in r1 for b in pairs(i1)]])
    each_left = demand_spec(pure_space(c1.result, UNIT), [[sum(1 << i1 for i1 in r1)]])
    return spec_bind(each_left, lambda i1, _u: demand_spec(space, [pairs(i1)]))


# ---------------------------------------------------------------------------
# Exceptions


def theta_err(c1: Program, c2: Program) -> RelSpec:
    """Demand the value pair when both sides return; any raise collapses to
    the single exceptional outcome."""
    _expect_effect(c1, P.EXC, "theta_err")
    _expect_effect(c2, P.EXC, "theta_err")
    space = err_space(c1.result, c2.result)
    t1, v1 = P.run_exc(c1)
    t2, v2 = P.run_exc(c2)
    if t1 == P.OK and t2 == P.OK:
        return demand_spec(space, [(1 << space.err_ok(v1.index, v2.index),)])
    return demand_spec(space, [(1 << space.err_bad(),)])


# ---------------------------------------------------------------------------
# Interaction


def _theta_io_spec(c: Program, space: OutcomeSpace, side: int, points) -> RelSpec:
    """Run the program from its side's history at each point: the entry
    holds every (result, final history) an input choice reaches, beside the
    other side's history."""
    def entry(pt):
        h1, h2 = pt
        if side == 1:
            return {(v.index, h, h2) for v, h in P.io_outcomes(c, h1)}
        return {(v.index, h1, h) for v, h in P.io_outcomes(c, h2)}

    return io_demonic_spec(space, entry, points)


def unary_theta_io(side: int, i1: FiniteDomain, o1: FiniteDomain,
                   i2: FiniteDomain, o2: FiniteDomain, points=IO_ROOT) -> UnaryObservation:
    pts = tuple(points)
    cache: Dict[Program, RelSpec] = {}

    def embed(c: Program) -> RelSpec:
        w = cache.get(c)
        if w is not None:
            return w
        _expect_effect(c, P.IO, "unary_theta_io")
        own_i, own_o = (i1, o1) if side == 1 else (i2, o2)
        if c.sig.inp != own_i or c.sig.out != own_o:
            raise ValueError("program alphabets do not match the declared carrier")
        space = io_space(c.result if side == 1 else UNIT, i1, o1,
                         c.result if side == 2 else UNIT, i2, o2)
        w = _theta_io_spec(c, space, side, pts)
        cache[c] = w
        return w

    return UnaryObservation(
        name=f"theta-io/{side}",
        effect=P.IO,
        side=side,
        target="WrelIO",
        embed=embed,
    )


def theta_io(c1: Program, c2: Program, points=IO_ROOT) -> RelSpec:
    """Pairing of the two one-sided interactive observations."""
    _expect_effect(c1, P.IO, "theta_io")
    _expect_effect(c2, P.IO, "theta_io")
    obs = observation_io(c1.sig.inp, c1.sig.out, c2.sig.inp, c2.sig.out, points)
    return obs.map(c1, c2)


# ---------------------------------------------------------------------------
# Loops: partial and total correctness


def theta_part(c1: Program, c2: Program) -> RelSpec:
    """Partial correctness: quantify over terminating outcomes only.

    Each side contributes its terminating run, if any; a diverging side
    empties the demand at that state pair, so the spec holds there for every
    postcondition.
    """
    _expect_effect(c1, (P.IMP, P.STATE), "theta_part")
    _expect_effect(c2, (P.IMP, P.STATE), "theta_part")
    return _pair_runs(c1, c2, frozenset({0}))


def theta_tot(c1: Program, c2: Program) -> RelSpec:
    """Total correctness: termination on both sides becomes part of the
    demand, so a diverging state pair satisfies no postcondition at all.
    This variant is our reconstruction; `theta_part` is the primary one."""
    _expect_effect(c1, (P.IMP, P.STATE), "theta_tot")
    _expect_effect(c2, (P.IMP, P.STATE), "theta_tot")
    return _pair_runs(c1, c2, frozenset())


def theta_part_unary(c: Program) -> RelSpec:
    """One-sided partial-correctness spec over the program's own state.

    The carrier keeps a unit second component, so points are effectively the
    program's initial states and outcomes its (value, final state) pairs.
    """
    _expect_effect(c, (P.IMP, P.STATE), "theta_part_unary")
    return _one_sided_runs(c, c.sig.state, UNIT, side=1, comp=1)


def unary_theta_part(side: int, s1: FiniteDomain, s2: FiniteDomain,
                     component: Optional[int] = None) -> UnaryObservation:
    comp = side if component is None else component
    return UnaryObservation(
        name=f"theta-part/{side}@{comp}",
        effect=P.IMP,
        side=side,
        target="WrelSt",
        embed=lambda c: _one_sided_runs(c, s1, s2, side, comp),
    )


# ---------------------------------------------------------------------------
# Probability


@lru_cache(maxsize=4096)
def _coupling_pieces(p: tuple, q: tuple, width: int):
    """One piece per vertex of the couplings of the int weights p and q,
    over their common denominator."""
    sup1 = [i for i, w in enumerate(p) if w > 0]
    sup2 = [j for j, w in enumerate(q) if w > 0]
    size = len(p) * width
    pieces = []
    for vert in lp.coupling_vertices([p[i] for i in sup1], [q[j] for j in sup2]):
        coeffs = [0] * size
        for r, i in enumerate(sup1):
            for s, j in enumerate(sup2):
                coeffs[i * width + j] = vert[r * len(sup2) + s]
        pieces.append((0, tuple(coeffs)))
    return tuple(pieces)


def theta_prob(c1: Program, c2: Program) -> RelSpec:
    """Infimum of the expected postcondition over all couplings.

    The infimum of a linear objective over the coupling polytope is attained
    at a vertex, so the spec is exactly the minimum over the polytope's
    vertices, each contributing one affine piece.  Exact throughout: each
    program's run is int weights over one denominator, and the vertices are
    found over the two runs' common one.
    """
    _expect_effect(c1, P.PROB, "theta_prob")
    _expect_effect(c2, P.PROB, "theta_prob")
    space = prob_space(c1.result, c2.result)
    (d1, w1), (d2, w2) = P._runs(c1), P._runs(c2)
    if sum(w1) * d2 != sum(w2) * d1:
        raise ValueError(f"no coupling exists: masses {P.run_prob(c1).mass()} "
                         f"and {P.run_prob(c2).mass()} differ")
    den = lcm(d1, d2)
    f1, f2 = den // d1, den // d2
    pieces = _coupling_pieces(tuple(w * f1 for w in w1), tuple(w * f2 for w in w2),
                              space.a2.size)
    return _linear(space, den, pieces, exact_prune=False)


# ---------------------------------------------------------------------------
# Generic constructions


def _pair_space(sp1: OutcomeSpace, sp2: OutcomeSpace) -> OutcomeSpace:
    if sp1.tag != sp2.tag:
        raise ValueError(f"cannot pair {sp1.tag} with {sp2.tag}")
    if sp1.a2 != UNIT or sp2.a1 != UNIT:
        raise ValueError("one-sided specs must keep the unit domain on the off side")
    for f in ("s1", "s2", "i1", "o1", "i2", "o2"):
        if getattr(sp1, f) != getattr(sp2, f):
            raise ValueError("one-sided specs disagree on the ambient carrier")
    return outcome_space(sp1.tag, sp1.a1, sp2.a2, sp1.s1, sp1.s2,
                         sp1.i1, sp1.o1, sp1.i2, sp1.o2)


def _sequence(w1: RelSpec, w2: RelSpec, left_first: bool = True) -> RelSpec:
    """bind w1 (fun a1 -> bind w2 (fun a2 -> ret (a1, a2))), or w2 bound
    first when not `left_first`."""
    tspace = _pair_space(w1.space, w2.space)
    a1d, a2d = tspace.a1, tspace.a2
    kw = {}
    if tspace.tag == "WrelIO":
        kw = dict(points=(w1 if left_first else w2).io_points)

    def ret(i1, i2):
        return spec_ret(tspace, Value(a1d, i1), Value(a2d, i2), **kw)

    if left_first:
        return spec_bind(w1, lambda i1, _u: spec_bind(w2, lambda _v, i2: ret(i1, i2)))
    return spec_bind(w2, lambda _u, i2: spec_bind(w1, lambda i1, _v: ret(i1, i2)))


def from_commuting_pair(u1: UnaryObservation, u2: UnaryObservation,
                        name: Optional[str] = None) -> EffectObservation:
    """Pair two one-sided observations by sequencing left before right.

    Sound (and strict) exactly when the embedded specs commute; run
    `check_commute` on the enumeration of interest to certify that.
    """
    if u1.side != 1 or u2.side != 2:
        raise ValueError("expected a left observation and a right observation")
    if u1.target != u2.target:
        raise ValueError(f"targets differ: {u1.target} vs {u2.target}")

    def map_fn(c1: Program, c2: Program) -> RelSpec:
        return _sequence(u1.embed(c1), u2.embed(c2))

    return EffectObservation(
        name=name or f"{u1.name}*{u2.name}",
        left_effect=u1.effect,
        right_effect=u2.effect,
        target=u1.target,
        map=map_fn,
        strictness=STRICT,
    )


@dataclass(frozen=True)
class CommuteVerdict:
    kind: str  # "commutes" | "fails"
    checked: int
    witness: Optional[Tuple[Program, Program, LeqVerdict]] = None

    @property
    def commutes(self) -> bool:
        return self.kind == "commutes"


def check_commute(u1: UnaryObservation, u2: UnaryObservation,
                  pairs: Sequence[Tuple[Program, Program]]) -> CommuteVerdict:
    """Compare both sequencing orders extensionally on the given pairs."""
    checked = 0
    for c1, c2 in pairs:
        w1, w2 = u1.embed(c1), u2.embed(c2)
        v = spec_equiv(_sequence(w1, w2), _sequence(w1, w2, left_first=False))
        checked += 1
        if v.failed:
            return CommuteVerdict("fails", checked, (c1, c2, v))
    return CommuteVerdict("commutes", checked)


def from_relator(gamma: Callable[[Callable[[Value, Value], bool], frozenset, frozenset], bool],
                 name: str = "relator") -> EffectObservation:
    """Lax observation from a relation lifting for finite nondeterminism.

    `gamma` takes a value-pair relation and the two outcome sets and decides
    whether the lifted relation holds; the observation just swaps arguments.
    """

    def map_fn(c1: Program, c2: Program) -> RelSpec:
        _expect_effect(c1, P.NDET, name)
        _expect_effect(c2, P.NDET, name)
        space = pure_space(c1.result, c2.result)
        r1, r2 = P.run_ndet(c1), P.run_ndet(c2)
        width = space.a2.size

        def body(f, _pt):
            return bool(gamma(lambda v1, v2: f(v1.index * width + v2.index), r1, r2))

        return closure_spec(space, body)

    return EffectObservation(
        name=name,
        left_effect=P.NDET,
        right_effect=P.NDET,
        target="WrelPure",
        map=map_fn,
        strictness=LAX,
    )


# ---------------------------------------------------------------------------
# The named observations


def observation_st() -> EffectObservation:
    return EffectObservation("theta-st", P.STATE, P.STATE, "WrelSt", theta_st, STRICT)


def observation_ndet(mode: str) -> EffectObservation:
    if mode not in NDET_MODES:
        raise ValueError(f"mode must be one of {NDET_MODES}, got {mode!r}")
    claim = LAX if mode == FORALL_EXISTS else STRICT
    return EffectObservation(f"theta-ndet-{mode}", P.NDET, P.NDET, "WrelPure",
                             lambda c1, c2: theta_ndet(mode, c1, c2), claim)


def observation_err() -> EffectObservation:
    return EffectObservation("theta-err", P.EXC, P.EXC, "WrelErr", theta_err, STRICT)


def observation_io(i1: FiniteDomain, o1: FiniteDomain,
                   i2: FiniteDomain, o2: FiniteDomain, points=IO_ROOT) -> EffectObservation:
    u1 = unary_theta_io(1, i1, o1, i2, o2, points)
    u2 = unary_theta_io(2, i1, o1, i2, o2, points)
    return from_commuting_pair(u1, u2, name="theta-io")


def observation_part() -> EffectObservation:
    return EffectObservation("theta-part", P.IMP, P.IMP, "WrelSt", theta_part, STRICT)


def observation_tot() -> EffectObservation:
    return EffectObservation("theta-tot", P.IMP, P.IMP, "WrelSt", theta_tot, STRICT)


def observation_prob() -> EffectObservation:
    return EffectObservation("theta-prob", P.PROB, P.PROB, "WrelProb", theta_prob, LAX)


# ---------------------------------------------------------------------------
# Morphism-law checking


@dataclass(frozen=True)
class LawWitness:
    """Everything needed to re-evaluate one discrepancy by hand."""

    law: str        # "ret" | "bind"
    kind: str       # "strictly-less" | "violation"
    programs: tuple
    lhs: RelSpec
    rhs: RelSpec
    phi: object
    point: object = None


def recheck_witness(w: LawWitness) -> bool:
    """Re-evaluate a witness by direct spec evaluation."""
    if w.lhs.tag == "WrelProb":
        l, r = w.lhs.at(w.phi), w.rhs.at(w.phi)
        return l > r if w.kind == "violation" else l < r
    if w.kind == "violation":
        return bool(w.rhs.at(w.phi, w.point)) and not w.lhs.at(w.phi, w.point)
    return bool(w.lhs.at(w.phi, w.point)) and not w.rhs.at(w.phi, w.point)


@dataclass(frozen=True)
class LawVerdict:
    kind: str                      # "equal" | "strictly-less" | "violation"
    checked: int
    witness: Optional[LawWitness] = None
    definite: bool = True          # always: every comparison is decided (read by the bench)

    @property
    def equal(self) -> bool:
        return self.kind == "equal"


@dataclass(frozen=True)
class MorphismReport:
    observation: str
    claimed: str
    ret_law: LawVerdict
    bind_law: LawVerdict

    @property
    def consistent(self) -> bool:
        """Does the battery outcome back the strictness claim?"""
        if self.claimed == STRICT:
            return self.ret_law.equal and self.bind_law.equal
        return self.ret_law.kind != "violation" and self.bind_law.kind != "violation"


@dataclass(frozen=True)
class ProgramBattery:
    """Instances a morphism-law check quantifies over.

    `ms` are middle computation pairs, `fs` continuation-table pairs; every
    table is total over the corresponding side's result domain.
    """

    sig1: Signature
    sig2: Signature
    rets: Tuple[Tuple[Value, Value], ...]
    ms: Tuple[Tuple[Program, Program], ...]
    fs: Tuple[Tuple[Tuple[Program, ...], Tuple[Program, ...]], ...]


def _cont_table(obs: EffectObservation, f1: Sequence[Program], f2: Sequence[Program],
                observed: Dict[Tuple[Program, Program], RelSpec]) -> ContTable:
    """The bind law's continuation table for (f1, f2), each entry observed
    once per program pair through `observed`."""
    conts = {}
    for i, c1 in enumerate(f1):
        for j, c2 in enumerate(f2):
            w = observed.get((c1, c2))
            if w is None:
                w = observed[(c1, c2)] = obs.map(c1, c2)
            conts[(i, j)] = w
    return ContTable(conts)


def classify_bind_instance(obs: EffectObservation, m1: Program, m2: Program,
                           f1: Sequence[Program], f2: Sequence[Program]):
    """Classify one bind-law instance; returns (kind, LawWitness or None)."""
    f1, f2 = tuple(f1), tuple(f2)
    lhs = obs.map(P.bind(m1, f1), P.bind(m2, f2))
    rhs = spec_bind(obs.map(m1, m2), _cont_table(obs, f1, f2, {}))
    kind, bad = order_kind(spec_leq, lhs, rhs)
    if bad is not None:
        return kind, LawWitness("bind", kind, (m1, m2, f1, f2), lhs, rhs, bad.phi, bad.point)
    return kind, None


def check_morphism_laws(obs: EffectObservation, battery: ProgramBattery) -> MorphismReport:
    """Classify the ret and bind laws over a battery of instances.

    A violation ends the scan immediately; otherwise the strictest observed
    relation wins (any strict instance makes the law strictly-less).  Every
    comparison is decided exactly, so every verdict is definite.

    A bind instance compares theta(bind m1 f1, bind m2 f2) with spec_bind
    of theta(m1, m2) to the table of theta(f1[i], f2[j]), built as in
    `classify_bind_instance`.  What depends on one side or one table is
    done once: each bound program per (m, f), theta per middle pair and per
    continuation pair, and each table's checks and decoding (`ContTable`).
    """
    def run(instances) -> LawVerdict:
        checked = 0
        strict_witness = None
        for law, progs, lhs, rhs in instances:
            checked += 1
            kind, bad = order_kind(spec_leq, lhs, rhs)
            if kind == "violation":
                return LawVerdict("violation", checked,
                                  LawWitness(law, kind, progs, lhs, rhs, bad.phi, bad.point))
            if kind == "strictly-less" and strict_witness is None:
                strict_witness = LawWitness(law, kind, progs, lhs, rhs, bad.phi, bad.point)
        if strict_witness is not None:
            return LawVerdict("strictly-less", checked, strict_witness)
        return LawVerdict("equal", checked)

    def ret_instances():
        for a1, a2 in battery.rets:
            lhs = obs.map(P.ret(battery.sig1, a1), P.ret(battery.sig2, a2))
            kw = dict(points=lhs.io_points) if lhs.tag == "WrelIO" else {}
            rhs = spec_ret(lhs.space, a1, a2, **kw)
            yield "ret", (a1, a2), lhs, rhs

    def bind_instances():
        wms = [obs.map(m1, m2) for m1, m2 in battery.ms]
        observed: Dict[Tuple[Program, Program], RelSpec] = {}
        # Each side's bound program, built once per (m, f): keyed by object
        # identity, which is safe because the battery keeps every key alive
        # for the whole call.
        bound1: Dict[Tuple[int, int], Program] = {}
        bound2: Dict[Tuple[int, int], Program] = {}

        def bound(memo, m, f):
            key = (id(m), id(f))
            b = memo.get(key)
            if b is None:
                b = memo[key] = P.bind(m, f)
            return b

        for f1, f2 in battery.fs:
            table = _cont_table(obs, f1, f2, observed)
            for (m1, m2), wm in zip(battery.ms, wms):
                lhs = obs.map(bound(bound1, m1, f1), bound(bound2, m2, f2))
                yield "bind", (m1, m2, f1, f2), lhs, spec_bind(wm, table)

    return MorphismReport(obs.name, obs.strictness, run(ret_instances()), run(bind_instances()))


# ---------------------------------------------------------------------------
# Battery builders


def _tables(pool: Sequence[Program], arity: int, limit: int) -> List[Tuple[Program, ...]]:
    """Total tables over the pool: exhaustive when they fit the limit,
    otherwise a covering family of constant and strided value-dependent
    tables, taken in diagonal order so both vary early under tight limits."""
    n = len(pool)
    if n == 0:
        raise ValueError("empty continuation pool")
    if n ** arity <= limit:
        return list(product(pool, repeat=arity))
    out: List[Tuple[Program, ...]] = []
    seen = set()
    for d in range(2 * n - 1):
        for j in range(max(0, d - n + 1), min(d, n - 1) + 1):
            k = d - j
            t = tuple(pool[(j + i * k) % n] for i in range(arity))
            key = tuple(semantic_key(p) for p in t)
            if key not in seen:
                seen.add(key)
                out.append(t)
                if len(out) >= limit:
                    return out
    return out


def _battery(sig1: Signature, sig2: Signature, a: FiniteDomain, depth: int,
             cont_depth: int, table_limit: int, m_limit: Optional[int],
             **enum_kw) -> ProgramBattery:
    ms1 = enumerate_classes(sig1, a, depth, **enum_kw)
    ms2 = enumerate_classes(sig2, a, depth, **enum_kw)
    if m_limit is not None:
        ms1, ms2 = ms1[:m_limit], ms2[:m_limit]
    pool1 = enumerate_classes(sig1, a, cont_depth, **enum_kw)
    pool2 = enumerate_classes(sig2, a, cont_depth, **enum_kw)
    fs1 = _tables(pool1, a.size, table_limit)
    fs2 = _tables(pool2, a.size, table_limit)
    rets = tuple((v1, v2) for v1 in a.values() for v2 in a.values())
    return ProgramBattery(
        sig1=sig1, sig2=sig2, rets=rets,
        ms=tuple((m1, m2) for m1 in ms1 for m2 in ms2),
        fs=tuple((f1, f2) for f1 in fs1 for f2 in fs2),
    )


def battery_state(a: FiniteDomain, s1: FiniteDomain, s2: Optional[FiniteDomain] = None,
                  depth: int = 3, cont_depth: int = 2, table_limit: int = 24,
                  m_limit: Optional[int] = None) -> ProgramBattery:
    return _battery(P.state_sig(s1), P.state_sig(s2 or s1), a,
                    depth, cont_depth, table_limit, m_limit)


def battery_imp(a: FiniteDomain, s1: FiniteDomain, s2: Optional[FiniteDomain] = None,
                depth: int = 3, cont_depth: int = 2, table_limit: int = 16,
                m_limit: Optional[int] = None) -> ProgramBattery:
    return _battery(P.imp_sig(s1), P.imp_sig(s2 or s1), a,
                    depth, cont_depth, table_limit, m_limit)


def battery_exc(a: FiniteDomain, e1: FiniteDomain, e2: Optional[FiniteDomain] = None,
                depth: int = 3, cont_depth: int = 2, table_limit: int = 64,
                m_limit: Optional[int] = None) -> ProgramBattery:
    return _battery(P.exc_sig(e1), P.exc_sig(e2 or e1), a,
                    depth, cont_depth, table_limit, m_limit)


def battery_ndet(a: FiniteDomain, depth: int = 3, cont_depth: int = 2,
                 table_limit: int = 64, m_limit: Optional[int] = None) -> ProgramBattery:
    return _battery(P.ndet_sig(), P.ndet_sig(), a, depth, cont_depth, table_limit, m_limit)


def battery_io(a: FiniteDomain, i1: FiniteDomain, o1: FiniteDomain,
               i2: Optional[FiniteDomain] = None, o2: Optional[FiniteDomain] = None,
               depth: int = 3, cont_depth: int = 2, table_limit: int = 4,
               m_limit: Optional[int] = None) -> ProgramBattery:
    return _battery(P.io_sig(i1, o1), P.io_sig(i2 or i1, o2 or o1), a,
                    depth, cont_depth, table_limit, m_limit)


def battery_prob(a: FiniteDomain, depth: int = 3, cont_depth: int = 2,
                 table_limit: int = 6, m_limit: Optional[int] = 12,
                 flips: Sequence[Fraction] = (Fraction(0), Fraction(1, 4), Fraction(1, 2)),
                 ) -> ProgramBattery:
    return _battery(P.prob_sig(), P.prob_sig(), a, depth, cont_depth,
                    table_limit, m_limit, flip_params=tuple(flips))
