"""Effect observations: interpreting pairs of programs as relational specs.

Each observation maps two programs of a fixed effect into one carrier:

    theta_st    state pairs        -> WrelSt    (runs both sides, singleton demand)
    theta_ndet  nondeterminism     -> WrelPure  (forall / exists / forall-exists)
    theta_err   exceptions         -> WrelErr   (collapse every raise to one outcome)
    theta_io    interactive pairs  -> WrelIO    (the product of both sides' root runs)
    theta_part  loops, partial     -> WrelSt    (divergence satisfies everything)
    theta_tot   loops, total       -> WrelSt    (divergence satisfies nothing)
    theta_prob  probabilistic      -> WrelProb  (infimum over couplings, exact LP)

Two generic constructions are provided alongside the catalog:
`from_commuting_pair` combines two unary observations into a strict relational
one (sound when their images commute, which `check_commute` tests), and
`from_relator` turns a relation lifting for finite nondeterminism into a lax
observation.  Law batteries share one runner: `run_laws` classifies each
law of a stream of instances (or runs of identical-sided ones) as equal,
strictly less precise, or violated, with a re-checkable witness, in one
`LawReport`.  It backs `check_morphism_laws` (ret and bind), `check_commute`
(`commute`) and the carrier and strictness batteries of `generic`.

Every observation here factors through the reference evaluators in
`programs`, so two programs with equal `semantic_key` get equal specs; the
battery builders rely on that to dedupe enumerated programs.  Each named
observation states what it reads as its `key`: a program's signature,
result domain and runs (`_run_key`; θ_st also whether an imp program has
a loop).  `check_morphism_laws` applies θ once per distinct pair of keys,
so a battery is observed once per pair of behaviours, not per pair of
programs.  None walks a program tree: the state and loop
observations, paired and one-sided, read each program's runs from the one
table `programs._runs` keeps, and a diverging run makes a point trivial
(partial) or unsatisfiable (total); θ_err reads each side's tagged outcome
there, θ_ndet its outcome set, θ_prob its distribution, as ints over
one denominator, and θ_io its root outcomes, which hold at every history
with that history appended; so a program met many times is run once.

A deterministic run demands one outcome, and a run-table spec holds one
family object per distinct outcome (the diverged ones are the shared
`_ANY` and `_NONE`), so its size follows the outcomes reached, not the
points.  `spec_bind` hands such a point its continuation's family itself,
reading each spec's outcomes once, which is what makes
θ(m >>= f) = θ(m) >>= θ∘f cost a lookup per point.
The named observations are built once per argument tuple.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial
from itertools import chain, groupby, product
from math import lcm
from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Tuple

from . import lp
from . import programs as P
from .domains import UNIT, FiniteDomain, Value
from .genprog import enumerate_classes
from .programs import Program, Signature, semantic_key
from .specmonads import (
    HOLDS,
    ContTable,
    KernelSpec,
    LeqVerdict,
    OutcomeSpace,
    RelSpec,
    _ANY,
    _NONE,
    _bind_body,
    _fails,
    _fixed,
    _io,
    _linear,
    closure_spec,
    demand_spec,
    err_space,
    io_space,
    outcome_space,
    prob_space,
    pure_space,
    spec_bind,
    spec_leq,
    spec_ret,
    state_space,
)

FORALL, EXISTS, FORALL_EXISTS = "forall", "exists", "forall-exists"
NDET_MODES = (FORALL, EXISTS, FORALL_EXISTS)

STRICT, LAX = "strict", "lax"


def _itself(c: Program) -> Program:
    return c


@dataclass(frozen=True, eq=False)
class EffectObservation:
    """A named map from program pairs to specs, with a strictness claim.

    `map` must be total on well-formed pairs of the declared effects; the
    claim records whether the ret and bind laws are expected to hold with
    equality (strict) or only as inequalities (lax).  `key` says what `map`
    reads of a program: pairs whose keys are equal side by side must map
    to equal specs, or be refused alike.  It defaults to the program itself,
    which any map obeys; `check_morphism_laws` applies `map` once per
    distinct pair of keys.  A run key (`_run_key`; `_st_key` off loops)
    promises the map reads only (signature, result domain, runs), so a bind
    over parts with run keys is keyed by `programs.bind_runs`, unbuilt.
    Observations compare and hash by identity: their maps are closures.
    """

    name: str
    left_effect: str
    right_effect: str
    target: str
    map: Callable[[Program, Program], RelSpec]
    strictness: str
    key: Callable[[Program], object] = _itself

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


# The effects θ_st, θ_part and θ_tot run.  Law batteries call them by the
# hundred thousand, so they test both sides against this set inline and
# name the offending side through `_expect_effect` only when one is off it.
_STATEFUL = frozenset((P.STATE, P.IMP))


# ---------------------------------------------------------------------------
# State


def _pair_runs(c1: Program, c2: Program, diverged) -> RelSpec:
    """Pair each side's runs: a point's family is the one demand of the
    joint outcome, or `diverged` if a side has none.  A joint outcome is the
    left local outcome times the right side's count, plus the right one.
    Points with equal outcomes share one family, so the spec holds a mask
    per distinct outcome of the call rather than one per point."""
    space = state_space(c1.result, c1.sig.state, c2.result, c2.sig.state)
    k = c2.result.size * c2.sig.state.size
    right = P._runs(c2)
    fams: Dict[int, FrozenSet[int]] = {}
    table = []
    for l in P._runs(c1):
        if l is None:
            table += [diverged] * len(right)
            continue
        base = l * k
        for r in right:
            if r is None:
                table.append(diverged)
                continue
            fam = fams.get(base + r)
            if fam is None:
                fam = fams[base + r] = frozenset({1 << (base + r)})
            table.append(fam)
    return _fixed(space, table)


def _run_key(c: Program):
    """What an observation reads of c: its signature, so its effect, its
    result domain and its runs."""
    return c.sig, c.result, P._runs(c)


def _st_key(c: Program):
    """θ_st's key: as `_run_key`, but an imp program with a loop, which
    runs cannot tell from one without, keys as itself and is refused."""
    if c.sig.effect == P.IMP and P.count_loops(c):
        return c
    return _run_key(c)


def _refuse_loops(c: Program, who: str):
    if c.sig.effect == P.IMP and P.count_loops(c):
        raise ValueError(f"{who} runs programs without loops; "
                         "observe loops with theta_part or theta_tot")


def theta_st(c1: Program, c2: Program) -> RelSpec:
    """Run both sides and demand the postcondition of the single outcome
    pair.  Imp programs with a loop need `theta_part` or `theta_tot`."""
    if c1.sig.effect not in _STATEFUL or c2.sig.effect not in _STATEFUL:
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
    (partial correctness).  As in `_pair_runs`, equal outcomes share one
    family."""
    own = s1 if comp == 1 else s2
    if c.sig.state != own:
        raise ValueError("program state domain does not match the chosen component")
    a = c.result
    space = state_space(a if side == 1 else UNIT, s1, a if side == 2 else UNIT, s2)
    runs = P._runs(c)
    fams: Dict[int, FrozenSet[int]] = {}
    table = []
    for pt in space.points():
        s1i, s2i = space.point_split(pt)
        r = runs[s1i if comp == 1 else s2i]
        if r is None:
            table.append(_ANY)
            continue
        v, t = divmod(r, own.size)
        s1i, s2i = (t, s2i) if comp == 1 else (s1i, t)
        o = space.st_outcome(v if side == 1 else 0, s1i, v if side == 2 else 0, s2i)
        fam = fams.get(o)
        if fam is None:
            fam = fams[o] = frozenset({1 << o})
        table.append(fam)
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
    o1, o2 = P._runs(c1), P._runs(c2)
    if o1 < c1.result.size and o2 < c2.result.size:
        return demand_spec(space, [(1 << space.err_ok(o1, o2),)])
    return demand_spec(space, [(1 << space.err_bad(),)])


# ---------------------------------------------------------------------------
# Interaction


def _io_runs_spec(space: OutcomeSpace, r1, r2) -> RelSpec:
    """Pair two sets of root io outcomes: the root entry holds each pair's
    value pair with each side's events as its history."""
    width = space.a2.size
    return _io(space, frozenset([(v1.index * width + v2.index, e1, e2)
                                 for v1, e1 in r1 for v2, e2 in r2]))


_UNIT_RUNS = frozenset({(UNIT.value(0), ())})


def unary_theta_io(side: int, i1: FiniteDomain, o1: FiniteDomain,
                   i2: FiniteDomain, o2: FiniteDomain) -> UnaryObservation:
    """One side's runs beside a unit return on the other, for `check_commute`."""
    def embed(c: Program) -> RelSpec:
        _expect_effect(c, P.IO, "unary_theta_io")
        if (c.sig.inp, c.sig.out) != ((i1, o1) if side == 1 else (i2, o2)):
            raise ValueError("program alphabets do not match the declared carrier")
        space = io_space(c.result if side == 1 else UNIT, i1, o1,
                         c.result if side == 2 else UNIT, i2, o2)
        runs = P._runs(c)
        return _io_runs_spec(space, *((runs, _UNIT_RUNS) if side == 1 else (_UNIT_RUNS, runs)))

    return UnaryObservation(f"theta-io/{side}", P.IO, side, "WrelIO", embed)


def theta_io(c1: Program, c2: Program) -> RelSpec:
    """The product of the two sides' runs (`_io_runs_spec`): the sides do
    not interact, so neither constrains the other."""
    _expect_effect(c1, P.IO, "theta_io")
    _expect_effect(c2, P.IO, "theta_io")
    space = io_space(c1.result, c1.sig.inp, c1.sig.out, c2.result, c2.sig.inp, c2.sig.out)
    return _io_runs_spec(space, P._runs(c1), P._runs(c2))


# ---------------------------------------------------------------------------
# Loops: partial and total correctness


def theta_part(c1: Program, c2: Program) -> RelSpec:
    """Partial correctness: quantify over terminating outcomes only.

    Each side contributes its terminating run, if any; a diverging side
    empties the demand at that state pair, so the spec holds there for every
    postcondition.
    """
    if c1.sig.effect not in _STATEFUL or c2.sig.effect not in _STATEFUL:
        _expect_effect(c1, (P.IMP, P.STATE), "theta_part")
        _expect_effect(c2, (P.IMP, P.STATE), "theta_part")
    return _pair_runs(c1, c2, _ANY)


def _part_kernel_leq(c1: Program, c2: Program, w: KernelSpec) -> LeqVerdict:
    """θ_part(c1, c2) <= w by classes: in each pre class, every terminating
    run on the left must end with the post key of every one on the right.
    Each store is read and hashed once.  A failure names the point that
    `spec_leq` would, without the satisfying set, which may not fit."""
    space = state_space(c1.result, c1.sig.state, c2.result, c2.sig.state)
    if space is not w.space:
        raise ValueError("cannot compare specs over different outcome spaces")
    pre1, pre2, post1, post2 = w.keys
    # per pre class on the right: its first terminating store, that run's
    # post key, and the first later store of the class ending with another
    right: Dict[object, list] = {}
    for s2, (k, r) in enumerate(zip(pre2, P._runs(c2))):
        if r is not None:
            got = right.get(k)
            if got is None:
                right[k] = [s2, post2[r], None]
            elif got[2] is None and post2[r] != got[1]:
                got[2] = s2
    for s1, (k, r) in enumerate(zip(pre1, P._runs(c1))):
        got = None if r is None else right.get(k)
        if got is not None:
            s2 = got[0] if post1[r] != got[1] else got[2]
            if s2 is not None:
                ends = _side_outcome(c1, r), _side_outcome(c2, P._runs(c2)[s2])
                return _fails(None, point=space.point(s1, s2), note=(
                    f"left store {space.s1.label_of(s1)} ends in {ends[0]} and right store "
                    f"{space.s2.label_of(s2)} in {ends[1]}: their pre keys agree, "
                    f"their post keys differ"))
    return HOLDS


def _side_outcome(c: Program, r: int) -> str:
    """A one-side outcome a * |S| + t by its labels, t alone for one value."""
    a, t = divmod(r, c.sig.state.size)
    final = c.sig.state.label_of(t)
    return final if c.result.size == 1 else f"{c.result.label_of(a)} with {final}"


def theta_leq(obs: EffectObservation, c1: Program, c2: Program, w: RelSpec) -> LeqVerdict:
    """obs(c1, c2) <= w.  θ_part against a `kernel_spec`, such as
    noninterference, is decided by classes (`_part_kernel_leq`); every other
    pair builds θ(c1, c2) and compares it point by point (`spec_leq`), and
    so does a program θ_part refuses, which it refuses there."""
    if (type(w) is KernelSpec and obs is observation_part()
            and c1.sig.effect in _STATEFUL and c2.sig.effect in _STATEFUL):
        return _part_kernel_leq(c1, c2, w)
    return spec_leq(obs(c1, c2), w)


def theta_tot(c1: Program, c2: Program) -> RelSpec:
    """Total correctness: termination on both sides becomes part of the
    demand, so a diverging state pair satisfies no postcondition at all.
    This variant is our reconstruction; `theta_part` is the primary one."""
    if c1.sig.effect not in _STATEFUL or c2.sig.effect not in _STATEFUL:
        _expect_effect(c1, (P.IMP, P.STATE), "theta_tot")
        _expect_effect(c2, (P.IMP, P.STATE), "theta_tot")
    return _pair_runs(c1, c2, _NONE)


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

    def ret(i1, i2):
        return spec_ret(tspace, Value(a1d, i1), Value(a2d, i2))

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


def check_commute(u1: UnaryObservation, u2: UnaryObservation,
                  pairs: Sequence[Tuple[Program, Program]]) -> LawReport:
    """Compare both sequencing orders extensionally on the given pairs: one
    law, `commute`, claimed with equality."""
    def instances():
        for c1, c2 in pairs:
            w1, w2 = u1.embed(c1), u2.embed(c2)
            yield ("commute", (c1, c2), spec_leq,
                   _sequence(w1, w2), _sequence(w1, w2, left_first=False))

    return run_laws(f"{u1.name}*{u2.name}", STRICT, instances())


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


# Rules and batteries ask for their observation at every application, so
# each named observation is built once per argument tuple.


@lru_cache(maxsize=None)
def observation_st() -> EffectObservation:
    return EffectObservation("theta-st", P.STATE, P.STATE, "WrelSt", theta_st, STRICT, _st_key)


@lru_cache(maxsize=None)
def observation_ndet(mode: str) -> EffectObservation:
    if mode not in NDET_MODES:
        raise ValueError(f"mode must be one of {NDET_MODES}, got {mode!r}")
    claim = LAX if mode == FORALL_EXISTS else STRICT
    return EffectObservation(f"theta-ndet-{mode}", P.NDET, P.NDET, "WrelPure",
                             partial(theta_ndet, mode), claim, _run_key)


@lru_cache(maxsize=None)
def observation_err() -> EffectObservation:
    return EffectObservation("theta-err", P.EXC, P.EXC, "WrelErr", theta_err, STRICT, _run_key)


def observation_io(i1: FiniteDomain, o1: FiniteDomain,
                   i2: FiniteDomain, o2: FiniteDomain) -> EffectObservation:
    """θ_io for these alphabets alone: one object, however they are passed."""
    return _observation_io(i1, o1, i2, o2)


@lru_cache(maxsize=None)
def _observation_io(i1, o1, i2, o2) -> EffectObservation:
    return EffectObservation("theta-io", P.IO, P.IO, "WrelIO",
                             partial(_theta_io_over, (P.io_sig(i1, o1), P.io_sig(i2, o2))),
                             STRICT, _run_key)


def _theta_io_over(sigs, c1: Program, c2: Program) -> RelSpec:
    if (c1.sig, c2.sig) != sigs:
        _expect_effect(c1, P.IO, "theta_io")
        _expect_effect(c2, P.IO, "theta_io")
        raise ValueError("program alphabets do not match the declared carrier")
    return theta_io(c1, c2)


@lru_cache(maxsize=None)
def observation_part() -> EffectObservation:
    return EffectObservation("theta-part", P.IMP, P.IMP, "WrelSt", theta_part, STRICT, _run_key)


@lru_cache(maxsize=None)
def observation_tot() -> EffectObservation:
    return EffectObservation("theta-tot", P.IMP, P.IMP, "WrelSt", theta_tot, STRICT, _run_key)


@lru_cache(maxsize=None)
def observation_prob() -> EffectObservation:
    return EffectObservation("theta-prob", P.PROB, P.PROB, "WrelProb", theta_prob, LAX, _run_key)


# ---------------------------------------------------------------------------
# Law batteries


@dataclass(frozen=True)
class LawWitness:
    """Everything needed to re-evaluate one discrepancy by hand."""

    law: str
    kind: str       # "strictly-less" | "violation"
    instance: tuple
    lhs: object
    rhs: object
    phi: object
    point: object = None
    where: tuple = ()


def recheck_witness(w: LawWitness) -> bool:
    """Re-evaluate a witness over `RelSpec` sides by direct spec evaluation.
    Sides that are state tables (`generic.stt_rel_transform`) are first
    read at the entry states that lead `where`."""
    lhs, rhs = w.lhs, w.rhs
    for si in w.where:
        if type(lhs) is not tuple:
            break
        lhs, rhs = lhs[si], rhs[si]
    if lhs.tag == "WrelProb":
        l, r = lhs.at(w.phi), rhs.at(w.phi)
        return l > r if w.kind == "violation" else l < r
    if w.kind == "violation":
        return bool(rhs.at(w.phi, w.point)) and not lhs.at(w.phi, w.point)
    return bool(lhs.at(w.phi, w.point)) and not rhs.at(w.phi, w.point)


@dataclass(frozen=True)
class LawVerdict:
    law: str
    kind: str                      # "equal" | "strictly-less" | "violation"
    checked: int
    witness: Optional[LawWitness] = None
    definite: bool = True          # always: every comparison is decided (read by the bench)

    @property
    def equal(self) -> bool:
        return self.kind == "equal"


@dataclass(frozen=True)
class LawReport:
    """A battery's verdicts, one per law in the order first met, and the
    claim (strict or lax) they are read against."""

    subject: str
    claimed: str
    laws: Tuple[LawVerdict, ...]

    def law(self, name: str) -> LawVerdict:
        """The named law's verdict; a law without instances holds vacuously."""
        return next((v for v in self.laws if v.law == name), LawVerdict(name, "equal", 0))

    @property
    def ret_law(self) -> LawVerdict:
        return self.law("ret")

    @property
    def bind_law(self) -> LawVerdict:
        return self.law("bind")

    @property
    def checked(self) -> int:
        return sum(v.checked for v in self.laws)

    @property
    def failures(self) -> Tuple[LawWitness, ...]:
        """The witness of every law that is not an equality."""
        return tuple(v.witness for v in self.laws if not v.equal)

    @property
    def ok(self) -> bool:
        """Does every law hold with equality?"""
        return not self.failures

    @property
    def consistent(self) -> bool:
        """Does the battery outcome back the strictness claim?"""
        return self.ok or self.claimed == LAX and all(v.kind != "violation" for v in self.laws)


def run_laws(subject: str, claimed: str, instances) -> LawReport:
    """Classify a stream of law instances `(law, instance, leq, lhs, rhs)`.

    Each instance compares lhs with rhs under `leq`: a violation when lhs
    is not below rhs, strictly-less when only rhs is not below lhs, equal
    otherwise.  Identical sides hold at once: every order is reflexive, so
    such an instance is counted and equal without calling `leq`, and an
    item `(law, n, None, None, None)` counts a run of n such instances.  A
    violation ends its law's scan (later items of that law are skipped);
    otherwise the first strictly-less instance is the law's witness, and
    once it is held only violations are looked for.
    """
    scans: Dict[str, list] = {}     # law -> [kind, checked, witness]
    for law, inst, leq, lhs, rhs in instances:
        scan = scans.get(law)
        if scan is None:
            scan = scans[law] = ["equal", 0, None]
        elif scan[0] == "violation":
            continue
        scan[1] += 1 if leq else inst
        if lhs is rhs:
            continue
        # the specmonads orders hold with the one HOLDS, so identity is the cheap test
        bad = leq(lhs, rhs)
        if bad is HOLDS or bad.holds:
            if scan[2] is not None:
                continue
            bad = leq(rhs, lhs)
            if bad is HOLDS or bad.holds:
                continue
            scan[0] = "strictly-less"
        else:
            scan[0] = "violation"
        scan[2] = LawWitness(law, scan[0], inst, lhs, rhs, bad.phi, bad.point, bad.where)
    return LawReport(subject, claimed,
                     tuple(LawVerdict(law, *scan) for law, scan in scans.items()))


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


def check_morphism_laws(obs: EffectObservation, battery: ProgramBattery) -> LawReport:
    """The ret and bind laws of `obs` over a battery, through `run_laws`.

    A ret instance compares theta(ret a1, ret a2) with the carrier's unit;
    a bind instance compares theta(bind m1 f1, bind m2 f2) with spec_bind
    of theta(m1, m2) to the table of theta(f1[i], f2[j]).  Every comparison
    is decided exactly, so every verdict is definite.

    What depends on one side or one table is done once: the keys of each
    side's bound programs per continuation table, as one list indexed by
    the middle's position among that side's distinct middles, each table's
    checks (`P.bind`'s) and decoding (`ContTable`), and the right side of
    each distinct middle spec and table.  theta itself is applied once per
    distinct pair of keys (`EffectObservation.key`) through a memo that
    lives for the call.  A run key of a bound program is composed from its
    parts' runs (`programs.bind_runs`), and the program built only when
    theta meets its pair of keys first; under other keys each is built.  A right
    side with demand families is its pool key (`specmonads._bind_body`); a
    left side with that key is the pooled spec and holds at once.  Only
    differing sides are pooled and compared; the instances held between
    them reach `run_laws` as one run.
    """
    numbers: Dict[object, int] = {}         # a key -> its number in this call
    keyed: Dict[Program, int] = {}          # a program -> its key's number
    observed: Dict[Tuple[int, int], RelSpec] = {}

    def key(c: Program) -> int:
        k = keyed.get(c)
        if k is None:
            k = keyed[c] = numbers.setdefault(obs.key(c), len(numbers))
        return k

    def theta(c1: Program, c2: Program, k1: int, k2: int) -> RelSpec:
        w = observed.get((k1, k2))
        if w is None:
            w = observed[(k1, k2)] = obs.map(c1, c2)
        return w

    def ret_instances():
        for a1, a2 in battery.rets:
            c1, c2 = P.ret(battery.sig1, a1), P.ret(battery.sig2, a2)
            lhs = theta(c1, c2, key(c1), key(c2))
            yield "ret", (a1, a2), spec_leq, lhs, spec_ret(lhs.space, a1, a2)

    def distinct(xs):
        """The distinct objects among xs in order, and each entry's
        position among them.  By identity, which is safe because the
        battery and the theta memo keep every middle, table and observed
        spec alive for the whole call."""
        at: Dict[int, int] = {}
        pos = [at.setdefault(id(x), len(at)) for x in xs]
        return list({id(x): x for x in xs}.values()), pos

    def runs_keyed(c: Program) -> bool:
        # a bind over parts keyed by runs is keyed as `_run_key` keys it built
        return (obs.key is _run_key or obs.key is _st_key) and type(obs.key(c)) is tuple

    def bound(memo, mids, f):
        """The side's bound programs for table f, parallel to its middles:
        a list to build them into (`build`), and their keys' numbers."""
        b = memo.get(id(f))
        if b is None:
            for m in {(m.sig, m.result): m for m in mids}.values():
                P._bind_cont(m, f)    # bind's refusals, once per table and shape
            composed, progs = all(map(runs_keyed, f)), [None] * len(mids)
            b = memo[id(f)] = progs, [
                numbers.setdefault((m.sig, f[0].result, P.bind_runs(m, f)), len(numbers))
                if composed and runs_keyed(m) else key(build(progs, i, m, f))
                for i, m in enumerate(mids)]
        return b

    def build(progs, i, m, f):
        if progs[i] is None:
            progs[i] = P.bind(m, f)
        return progs[i]

    def right_sides(wms, table: ContTable) -> list:
        """spec_bind(wm, table) per middle spec, as its pool key where it has
        one (`_bind_body`); the table is prepared once per run of one space."""
        out = []
        for _, group in groupby(wms, lambda w: w.space):
            group = list(group)
            prep = table.prepare(group[0])
            out += ([spec_bind(wm, table) for wm in group] if prep[2] is None
                    else [_bind_body(wm, *prep) for wm in group])
        return out

    def bind_instances():
        wms, wpos = distinct([theta(m1, m2, key(m1), key(m2)) for m1, m2 in battery.ms])
        mids1, pos1 = distinct([m1 for m1, _ in battery.ms])
        mids2, pos2 = distinct([m2 for _, m2 in battery.ms])
        bound1: Dict[int, tuple] = {}
        bound2: Dict[int, tuple] = {}
        held = 0    # identical-sided instances not yet passed on, as one run
        for f1, f2 in battery.fs:
            table = ContTable({(i, j): theta(c1, c2, key(c1), key(c2))
                               for i, c1 in enumerate(f1) for j, c2 in enumerate(f2)})
            # bind's refusals of a table come before the spec layer's
            (b1, k1), (b2, k2) = bound(bound1, mids1, f1), bound(bound2, mids2, f2)
            rhss = right_sides(wms, table)
            for m, i1, i2, iw in zip(battery.ms, pos1, pos2, wpos):
                k = k1[i1], k2[i2]
                lhs = observed.get(k)
                if lhs is None:
                    lhs = observed[k] = obs.map(build(b1, i1, mids1[i1], f1),
                                                build(b2, i2, mids2[i2], f2))
                rhs = rhss[iw]
                # a pooled lhs with the right side's key is the spec it pools to
                if lhs is rhs or (lhs.space, lhs.fams, lhs.pre) == rhs:
                    held += 1
                    continue
                if held:
                    yield "bind", held, None, None, None
                    held = 0
                if type(rhs) is tuple:
                    rhs = rhss[iw] = spec_bind(wms[iw], table)
                yield "bind", (*m, f1, f2), spec_leq, lhs, rhs
        if held:
            yield "bind", held, None, None, None

    return run_laws(obs.name, obs.strictness, chain(ret_instances(), bind_instances()))


# ---------------------------------------------------------------------------
# Battery builders


def _tables(pool: Sequence[Program], arity: int, limit: int) -> List[Tuple[Program, ...]]:
    """Total tables over the pool: exhaustive when they fit the limit,
    otherwise a covering family of constant and strided value-dependent
    tables, taken in diagonal order so both vary early under tight limits."""
    n = len(pool)
    if n == 0:
        raise ValueError("empty continuation pool")
    if limit < 1:
        raise ValueError(f"table_limit must be at least 1, got {limit}")
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
