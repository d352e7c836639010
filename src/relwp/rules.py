"""Judgments, inference rules, and derivation checking.

A judgment claims that a pair of programs is related by a spec under a named
effect observation; semantically it means theta(c1, c2) <= w.  Judgments
carry a finite context of typed variables shared by both sides: programs and
specs are tables over context valuations, so a single derivation node covers
every instantiation of its free variables.  Every rule in the catalog is
pointwise in the valuation, which is what makes that representation sound.

One rule engine serves three catalogues: the core rules here (`CORE`), the
split-context rules of `generic` (`SPLIT`) and the relational Hoare rules of
`whilelang` (`RHL`).  A `Catalogue` maps rule names to bodies and arities,
and its `apply` words alike an unknown rule, a wrong arity, and a missing or
unread parameter.  A judgment type names its catalogue and gives `mismatch`
and `oracle`, so one `Derivation` tree and three checkers serve all three:

    apply_rule        computes a core rule's conclusion, enforcing side conditions
    check_derivation  replays a tree bottom-up, reporting the first bad node
    oracle_check      decides a judgment directly at every valuation

The catalog covers the generic monadic rules (Ret, Bind, Weaken), the pure
eliminators (BoolElim, ZeroElim, NatElim, the if variants), derived
one-sided binds, and per-effect axioms whose conclusion specs are written
out explicitly; tests confirm the axiom specs coincide with the observation
applied to the axiom programs.  `random_derivation` builds seeded well-formed
trees for the soundness differential: if some rule were unsound, a random
conclusion would eventually flunk its oracle.  Since a conclusion is
computed from its premises' families, building a tree is the same work as
replaying it, and a build shares one table as a check does
(`programs._EvaluationScope`).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce
from itertools import product
from math import lcm
from operator import or_
from typing import Callable, ClassVar, Dict, Iterator, List, Optional, Sequence, Tuple

from . import programs as P
from .domains import BOOL, UNIT, UNIT_VAL, FiniteDomain, Value, boolv, domain
from .genprog import random_program
from .observations import (
    EXISTS,
    FORALL,
    FORALL_EXISTS,
    IO_ROOT,
    NDET_MODES,
    EffectObservation,
    observation_err,
    observation_io,
    observation_ndet,
    observation_part,
    observation_prob,
    observation_st,
)
from .programs import Program, Signature, _EvaluationScope
from .specmonads import (
    VIOLATED,
    OutcomeSpace,
    RelSpec,
    _fam_bind,
    _int_pieces,
    _linear,
    demand_spec,
    demonic_spec,
    err_space,
    from_final_post,
    io_demonic_spec,
    io_space,
    prob_space,
    pure_space,
    spec_bind,
    spec_equiv,
    spec_leq,
    spec_ret,
    state_space,
    unsatisfiable,
    weakest,
)

ZERO = Fraction(0)


class RuleError(ValueError):
    """A rule application that does not go through: wrong premise shapes,
    bad parameters, or a failed side condition."""


# ---------------------------------------------------------------------------
# Contexts and judgments


Valuation = Tuple[Value, ...]


@dataclass(frozen=True)
class Env:
    """Finite variable context, shared by both sides of a judgment."""

    vars: Tuple[Tuple[str, FiniteDomain], ...] = ()

    def __post_init__(self):
        names = [n for n, _ in self.vars]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate context variables in {names}")

    def extend(self, *more: Tuple[str, FiniteDomain]) -> "Env":
        return Env(self.vars + tuple(more))

    def drop(self, pos: int) -> "Env":
        return Env(self.vars[:pos] + self.vars[pos + 1:])

    def index(self, name: str) -> int:
        for i, (n, _) in enumerate(self.vars):
            if n == name:
                return i
        raise KeyError(name)

    def valuations(self) -> Iterator[Valuation]:
        return product(*(d.values() for _, d in self.vars))

    @property
    def count(self) -> int:
        n = 1
        for _, d in self.vars:
            n *= d.size
        return n


EMPTY_ENV = Env()


def fresh_name(env: Env, base: str) -> str:
    names = {n for n, _ in env.vars}
    if base not in names:
        return base
    k = 2
    while f"{base}{k}" in names:
        k += 1
    return f"{base}{k}"


def _family(x):
    """Constant or valuation-indexed parameter; families are callables."""
    return x if callable(x) else (lambda _g, _x=x: _x)


def _show_valuation(env: Env, g: Valuation) -> str:
    if not env.vars:
        return "the empty context"
    return ", ".join(f"{n}={v.domain.label_of(v.index)}" for (n, _), v in zip(env.vars, g))


# State programs and loop programs share the stateful carrier, so an
# observation declared for one accepts the other.
_EFFECT_KIN = {P.STATE: (P.STATE, P.IMP), P.IMP: (P.STATE, P.IMP)}


def _effect_matches(effect: str, declared: str) -> bool:
    return effect in _EFFECT_KIN.get(declared, (declared,))


_MISSING = object()


def _read(family, g: Valuation):
    """family(g), taken once per check: the check's table (see
    `programs._EvaluationScope`) keeps it under (family, valuation)."""
    table = P._TABLE.get()
    if table is None:
        return family(g)
    key = (family, g)
    out = table.get(key, _MISSING)
    if out is _MISSING:
        out = table[key] = family(g)
    return out


# ---------------------------------------------------------------------------
# Rule instances, catalogues and derivations


@dataclass(frozen=True, eq=False)
class RuleInstance:
    rule: str
    params: Dict[str, object] = field(default_factory=dict)
    # keys read through need/get, so Catalogue.apply can reject the others
    _read: set = field(default_factory=set, init=False, repr=False)

    def need(self, key: str):
        self._read.add(key)
        if key not in self.params:
            raise RuleError(f"{self.rule}: missing parameter {key!r}")
        return self.params[key]

    def get(self, key: str, default=None):
        self._read.add(key)
        return self.params.get(key, default)


def rule(name: str, **params) -> RuleInstance:
    return RuleInstance(name, params)


@dataclass(frozen=True, eq=False)
class Derivation:
    """A rule applied to sub-derivations.  The conclusion is a judgment of
    any kind whose type names the catalogue it replays through."""

    conclusion: object
    rule: RuleInstance
    premises: Tuple["Derivation", ...] = ()


class Catalogue:
    """Named rules over one kind of judgment: each name maps to its body and
    its number of premises (None for any number).  A body takes the rule
    instance, whose parameters it reads through `need` and `get`, and the
    premise judgments, and returns the conclusion.  The core rules below,
    the split-context rules of `generic` and the relational Hoare rules of
    `whilelang` are its three instances."""

    def __init__(self):
        self._rules: Dict[str, Tuple[Callable, Optional[int]]] = {}

    def rule(self, *names: str, arity: Optional[int]):
        """Register the decorated body under each of `names`."""
        def deco(fn):
            for name in names:
                self._rules[name] = (fn, arity)
            return fn
        return deco

    def names(self) -> Tuple[str, ...]:
        return tuple(sorted(self._rules))

    def apply(self, inst: RuleInstance, premises: Sequence):
        """Compute a rule's conclusion from premise judgments.

        Raises RuleError for an unknown rule, a wrong number of premises, a
        missing parameter or one the rule never reads, and when premise
        shapes disagree with the rule or a side condition fails.
        """
        entry = self._rules.get(inst.rule)
        if entry is None:
            raise RuleError(f"unknown rule {inst.rule!r}")
        build, arity = entry
        premises = tuple(premises)
        if arity is not None and len(premises) != arity:
            raise RuleError(f"{inst.rule} takes {arity} premises, got {len(premises)}")
        reading = RuleInstance(inst.rule, inst.params)
        concl = build(reading, premises)
        unread = sorted(set(inst.params) - reading._read)
        if unread:
            raise RuleError(f"{inst.rule} does not take a parameter {unread[0]!r}")
        return concl

    def derive(self, name: str, premises: Sequence[Derivation] = (), **params) -> Derivation:
        """Apply a rule to sub-derivations, computing the conclusion."""
        inst = RuleInstance(name, params)
        return Derivation(self.apply(inst, [d.conclusion for d in premises]), inst,
                          tuple(premises))


CORE = Catalogue()


def rule_names() -> Tuple[str, ...]:
    return CORE.names()


def apply_rule(inst: RuleInstance, premises: Sequence["Judgment"]) -> "Judgment":
    """Compute a core rule's conclusion judgment (see `Catalogue.apply`)."""
    return CORE.apply(inst, premises)


def derive(name: str, premises: Sequence[Derivation] = (), **params) -> Derivation:
    """Apply a core rule to sub-derivations, computing the conclusion."""
    inst = RuleInstance(name, params)
    concl = apply_rule(inst, tuple(d.conclusion for d in premises))
    return Derivation(concl, inst, tuple(premises))


@dataclass(frozen=True)
class Judgment:
    """c1 ~ c2 {w} under an observation, over a context of free variables.

    The families are callables from context valuations to Program, Program,
    and RelSpec; they must be pure, since a check evaluates each of them
    once per valuation and reuses the result.  Read them through `c1`, `c2`
    and `w`.  Closed judgments use the empty context, whose single
    valuation is ().
    """

    env: Env
    c1_family: Callable[[Valuation], Program]
    c2_family: Callable[[Valuation], Program]
    w_family: Callable[[Valuation], RelSpec]
    observation: EffectObservation

    def c1(self, g: Valuation = ()) -> Program:
        return _read(self.c1_family, g)

    def c2(self, g: Valuation = ()) -> Program:
        return _read(self.c2_family, g)

    def w(self, g: Valuation = ()) -> RelSpec:
        return _read(self.w_family, g)

    left, right, spec = c1, c2, w

    catalogue: ClassVar[Catalogue] = CORE

    def mismatch(self, computed: "Judgment") -> Optional[str]:
        """How this stated conclusion differs from the rule's own: programs
        up to normalization, specs extensionally in both directions, per
        valuation.  None when they agree."""
        if self.env != computed.env:
            return "stated context differs from the rule's conclusion context"
        if not _same_observation(self.observation, computed.observation):
            return (f"stated observation {self.observation.name} differs from "
                    f"{computed.observation.name}")
        for g in self.env.valuations():
            if not P.programs_equal(self.c1(g), computed.c1(g)):
                return f"left program differs at {_show_valuation(self.env, g)}"
            if not P.programs_equal(self.c2(g), computed.c2(g)):
                return f"right program differs at {_show_valuation(self.env, g)}"
            v = spec_equiv(self.w(g), computed.w(g))
            if not v.holds:
                return f"conclusion spec differs at {_show_valuation(self.env, g)} ({v.kind})"
        return None

    def oracle(self) -> "OracleVerdict":
        """theta(c1, c2) <= w at every valuation: fails at the first
        valuation where it does not hold, else holds."""
        n = 0
        for g in self.env.valuations():
            n += 1
            theta = self.observation(self.c1(g), self.c2(g))
            v = spec_leq(theta, self.w(g))
            if v.failed:
                return OracleVerdict("fails", n, g, v)
        return OracleVerdict("holds", n)


def judgment(observation: EffectObservation, c1, c2, w, env: Env = EMPTY_ENV) -> Judgment:
    """Build a judgment from families or plain values, checking shapes at the
    first valuation: effects against the observation, spec carrier against
    its target, value domains against the program results."""
    j = Judgment(env, _family(c1), _family(c2), _family(w), observation)
    g0 = next(iter(env.valuations()))
    p1, p2, w0 = j.c1(g0), j.c2(g0), j.w(g0)
    if not _effect_matches(p1.sig.effect, observation.left_effect):
        raise ValueError(f"left program is {p1.sig.effect!r}, observation "
                         f"{observation.name} wants {observation.left_effect!r}")
    if not _effect_matches(p2.sig.effect, observation.right_effect):
        raise ValueError(f"right program is {p2.sig.effect!r}, observation "
                         f"{observation.name} wants {observation.right_effect!r}")
    if w0.tag != observation.target:
        raise ValueError(f"spec lives in {w0.tag}, observation {observation.name} "
                         f"targets {observation.target}")
    if (w0.space.a1, w0.space.a2) != (p1.result, p2.result):
        raise ValueError("spec value domains do not match the program results")
    return j


def _same_observation(o1: EffectObservation, o2: EffectObservation) -> bool:
    # Observations built by different constructor calls close over fresh
    # lambdas, so dataclass equality is useless here; the identifying fields
    # are enough, and deeper mismatches surface as carrier errors later.
    return (o1.name, o1.left_effect, o1.right_effect, o1.target, o1.strictness) == \
           (o2.name, o2.left_effect, o2.right_effect, o2.target, o2.strictness)


def _shared_env(premises: Sequence[Judgment], who: str) -> Env:
    env = premises[0].env
    for j in premises[1:]:
        if j.env != env:
            raise RuleError(f"{who}: premises must share one context")
    return env


def _shared_obs(premises: Sequence[Judgment], who: str) -> EffectObservation:
    obs = premises[0].observation
    for j in premises[1:]:
        if not _same_observation(j.observation, obs):
            raise RuleError(f"{who}: premises must share one observation")
    return obs


def _extension(base: Env, ext: Env, doms: Tuple[FiniteDomain, ...], who: str) -> None:
    k = len(base.vars)
    if ext.vars[:k] != base.vars or len(ext.vars) != k + len(doms):
        raise RuleError(f"{who}: premise context must extend the conclusion "
                        f"context by {len(doms)} variable(s)")
    for (name, d), want in zip(ext.vars[k:], doms):
        if d != want:
            raise RuleError(f"{who}: bound variable {name!r} has domain "
                            f"{d.name!r}, expected {want.name!r}")


def _unsat_like(w: RelSpec) -> RelSpec:
    if w.tag == "WrelIO":
        return unsatisfiable(w.space, points=w.io_points)
    return unsatisfiable(w.space)


# ---------------------------------------------------------------------------
# Generic monadic rules


def _ret_space(target: str, sig1: Signature, sig2: Signature,
               a1: FiniteDomain, a2: FiniteDomain) -> OutcomeSpace:
    if target == "WrelSt":
        return state_space(a1, sig1.state, a2, sig2.state)
    if target == "WrelPure":
        return pure_space(a1, a2)
    if target == "WrelErr":
        return err_space(a1, a2)
    if target == "WrelIO":
        return io_space(a1, sig1.inp, sig1.out, a2, sig2.inp, sig2.out)
    if target == "WrelProb":
        return prob_space(a1, a2)
    raise RuleError(f"no unit spec for carrier {target!r}")


@CORE.rule("Ret", arity=0)
def _ret_rule(r: RuleInstance, _prem) -> Judgment:
    obs = r.need("observation")
    sig1, sig2 = r.need("sig1"), r.need("sig2")
    env = r.get("env", EMPTY_ENV)
    a1f, a2f = _family(r.need("a1")), _family(r.need("a2"))
    points = tuple(r.get("points", IO_ROOT))

    def w(g):
        a1, a2 = a1f(g), a2f(g)
        space = _ret_space(obs.target, sig1, sig2, a1.domain, a2.domain)
        return spec_ret(space, a1, a2, points=points)

    return judgment(obs, lambda g: P.ret(sig1, a1f(g)), lambda g: P.ret(sig2, a2f(g)), w, env)


@CORE.rule("Bind", arity=2)
def _bind_rule(r: RuleInstance, prem) -> Judgment:
    jm, jf = prem
    obs = _shared_obs(prem, "Bind")
    env = jm.env
    if len(jf.env.vars) != len(env.vars) + 2 or jf.env.vars[:len(env.vars)] != env.vars:
        raise RuleError("Bind: second premise context must bind exactly the two result values")
    (x1, dom1), (x2, dom2) = jf.env.vars[-2:]
    for g in env.valuations():
        if jm.c1(g).result != dom1 or jm.c2(g).result != dom2:
            raise RuleError(f"Bind: first premise results do not match the bound "
                            f"variables at {_show_valuation(env, g)}")
        for v1 in dom1.values():
            base = jf.c1(g + (v1, dom2.value(0)))
            for v2 in dom2.values():
                if not P.programs_equal(jf.c1(g + (v1, v2)), base):
                    raise RuleError(f"Bind: left continuation depends on {x2!r}")
        for v2 in dom2.values():
            base = jf.c2(g + (dom1.value(0), v2))
            for v1 in dom1.values():
                if not P.programs_equal(jf.c2(g + (v1, v2)), base):
                    raise RuleError(f"Bind: right continuation depends on {x1!r}")

    def c1(g):
        return P.bind(jm.c1(g), lambda v: jf.c1(g + (v, dom2.value(0))))

    def c2(g):
        return P.bind(jm.c2(g), lambda v: jf.c2(g + (dom1.value(0), v)))

    def w(g):
        return spec_bind(jm.w(g), lambda i1, i2: jf.w(g + (dom1.value(i1), dom2.value(i2))))

    return judgment(obs, c1, c2, w, env)


@CORE.rule("Weaken", arity=1)
def _weaken_rule(r: RuleInstance, prem) -> Judgment:
    (j,) = prem
    wf = _family(r.need("w"))
    for g in j.env.valuations():
        v = spec_leq(j.w(g), _read(wf, g))
        if v.failed:
            raise RuleError(f"Weaken: target spec is not above the premise spec "
                            f"at {_show_valuation(j.env, g)}: {v.note}")
    return judgment(j.observation, j.c1_family, j.c2_family, wf, j.env)


# ---------------------------------------------------------------------------
# Pure eliminators

# The boolean eliminator commits to the live branch at each valuation; the
# dead branch's judgment is never consulted there, which is what lets the
# one-sided conditional rules fall out as special cases.


@CORE.rule("BoolElim", arity=2)
def _bool_elim(r: RuleInstance, prem) -> Judgment:
    jt, jf = prem
    b = _family(r.need("b"))
    env = _shared_env(prem, "BoolElim")
    obs = _shared_obs(prem, "BoolElim")

    def pick(g):
        return jt if b(g) else jf

    return judgment(obs, lambda g: pick(g).c1(g), lambda g: pick(g).c2(g),
                    lambda g: pick(g).w(g), env)


@CORE.rule("ZeroElim", arity=0)
def _zero_elim(r: RuleInstance, _prem) -> Judgment:
    obs = r.need("observation")
    env = r.get("env", EMPTY_ENV)
    c1f, c2f, wf = _family(r.need("c1")), _family(r.need("c2")), _family(r.need("w"))
    for g in env.valuations():
        w0 = _read(wf, g)
        if not spec_leq(_unsat_like(w0), w0).holds:
            raise RuleError("ZeroElim: the spec must be everywhere unsatisfiable "
                            f"(the vacuous claim) but is not at {_show_valuation(env, g)}")
    return judgment(obs, c1f, c2f, wf, env)


@CORE.rule("NatElim", arity=None)
def _nat_elim(r: RuleInstance, prem) -> Judgment:
    env: Env = r.need("env")
    var: str = r.need("var")
    try:
        pos = env.index(var)
    except KeyError:
        raise RuleError(f"NatElim: {var!r} is not bound in the context") from None
    dom = env.vars[pos][1]
    if len(prem) != dom.size:
        raise RuleError(f"NatElim on {var!r}: needs one premise per value of "
                        f"{dom.name!r} ({dom.size}), got {len(prem)}")
    inner = env.drop(pos)
    for k, j in enumerate(prem):
        if j.env != inner:
            raise RuleError(f"NatElim: premise {k} must live in the context "
                            f"without {var!r}")
    obs = _shared_obs(prem, "NatElim")

    def strip(g):
        return g[:pos] + g[pos + 1:]

    def at(g):
        return prem[g[pos].index]

    return judgment(obs, lambda g: at(g).c1(strip(g)), lambda g: at(g).c2(strip(g)),
                    lambda g: at(g).w(strip(g)), env)


@CORE.rule("IfLeft", "IfRight", arity=2)
def _if_one_side(r: RuleInstance, prem) -> Judgment:
    # IfLeft branches on the left over one right program; IfRight mirrors it
    jt, jf = prem
    b = _family(r.need("b"))
    env = _shared_env(prem, r.rule)
    obs = _shared_obs(prem, r.rule)
    left = r.rule == "IfLeft"
    shared, kept = ("right", jt.c2_family) if left else ("left", jt.c1_family)
    for g in env.valuations():
        if not (P.programs_equal(jt.c2(g), jf.c2(g)) if left
                else P.programs_equal(jt.c1(g), jf.c1(g))):
            raise RuleError(f"{r.rule}: premises must share the {shared} program, "
                            f"differ at {_show_valuation(env, g)}")

    def pick(g):
        return jt if b(g) else jf

    def branch(g):
        return pick(g).c1(g) if left else pick(g).c2(g)

    c1, c2 = (branch, kept) if left else (kept, branch)
    return judgment(obs, c1, c2, lambda g: pick(g).w(g), env)


@CORE.rule("IfSync", arity=2)
def _if_sync(r: RuleInstance, prem) -> Judgment:
    jt, jf = prem
    b1, b2 = _family(r.need("b1")), _family(r.need("b2"))
    env = _shared_env(prem, "IfSync")
    obs = _shared_obs(prem, "IfSync")
    for g in env.valuations():
        if jt.c1(g).result != jf.c1(g).result or jt.c2(g).result != jf.c2(g).result:
            raise RuleError("IfSync: branch results must agree on both sides")

    def c1(g):
        return (jt if b1(g) else jf).c1(g)

    def c2(g):
        return (jt if b2(g) else jf).c2(g)

    def w(g):
        # Guards that disagree contradict the rule's synchronization claim,
        # so the precondition is false there and the spec claims nothing.
        if b1(g) != b2(g):
            return _unsat_like(jt.w(g))
        return (jt if b1(g) else jf).w(g)

    return judgment(obs, c1, c2, w, env)


# ---------------------------------------------------------------------------
# Derived one-sided binds


def _is_unit_ret(p: Program) -> bool:
    n = P.normalize(p).node
    return isinstance(n, P.Ret) and n.value.domain == UNIT


@CORE.rule("BindLeft", "BindRight", arity=2)
def _bind_one_side(r: RuleInstance, prem) -> Judgment:
    # BindLeft binds the left program against a unit return on the right,
    # which the continuation's right program, free of the bound variable,
    # replaces; BindRight mirrors it
    jm, jf = prem
    obs = _shared_obs(prem, r.rule)
    env = jm.env
    left = r.rule == "BindLeft"
    side, other = ("left", "right") if left else ("right", "left")
    if len(jf.env.vars) != len(env.vars) + 1 or jf.env.vars[:len(env.vars)] != env.vars:
        raise RuleError(f"{r.rule}: second premise context must bind exactly the {side} result")
    x, dom = jf.env.vars[-1]
    bound, unit = (jm.c1, jm.c2) if left else (jm.c2, jm.c1)
    cont, kept = (jf.c1, jf.c2) if left else (jf.c2, jf.c1)
    for g in env.valuations():
        if not _is_unit_ret(unit(g)):
            raise RuleError(f"{r.rule}: first premise {other} side must be the unit return")
        if bound(g).result != dom:
            raise RuleError(f"{r.rule}: first premise {side} result does not match "
                            f"the bound variable")
        base = kept(g + (dom.value(0),))
        for v in dom.values():
            if not P.programs_equal(kept(g + (v,)), base):
                raise RuleError(f"{r.rule}: {other} program depends on {x!r}")

    def seq(g):
        return P.bind(bound(g), lambda v: cont(g + (v,)))

    def rest(g):
        return kept(g + (dom.value(0),))

    def w(g):
        return spec_bind(jm.w(g), lambda i1, i2: jf.w(g + (dom.value(i1 if left else i2),)))

    c1, c2 = (seq, rest) if left else (rest, seq)
    return judgment(obs, c1, c2, w, env)


# ---------------------------------------------------------------------------
# Stateful axioms

# Each axiom writes its conclusion spec as an explicit demonic table; the
# tests confirm these tables coincide with the observation applied to the
# axiom programs, which is how the specs were found in the first place.


def _beside_return(obs: EffectObservation, left: bool, act, other_sig: Signature, af, w,
                   env: Env) -> Judgment:
    """A one-sided axiom's conclusion: the family `act` on the left (on the
    right when not `left`) beside a return of af(g) on the other side."""
    ret = lambda g: P.ret(other_sig, af(g))
    c1, c2 = (act, ret) if left else (ret, act)
    return judgment(obs, c1, c2, w, env)


def _st_axiom(space: OutcomeSpace, outcome_at) -> RelSpec:
    table = []
    for pt in space.points():
        s1i, s2i = space.point_split(pt)
        table.append(frozenset({outcome_at(s1i, s2i)}))
    return demonic_spec(space, table)


def _state_obs(r: RuleInstance, who: str) -> EffectObservation:
    obs = r.get("observation")
    if obs is None:
        obs = observation_st()
    if obs.target != "WrelSt":
        raise RuleError(f"{who}: observation {obs.name} does not target the stateful carrier")
    return obs


@CORE.rule("GetL", "GetR", arity=0)
def _get_one_side(r: RuleInstance, _prem) -> Judgment:
    # GetL reads the left state beside a right return; GetR mirrors it
    left = r.rule == "GetL"
    obs = _state_obs(r, r.rule)
    sig1, sig2 = r.need("sig1"), r.need("sig2")
    env = r.get("env", EMPTY_ENV)
    af = _family(r.need("a2" if left else "a1"))
    sig, other_sig = (sig1, sig2) if left else (sig2, sig1)

    def w(g):
        a = af(g)
        if left:
            sp = state_space(sig1.state, sig1.state, a.domain, sig2.state)
            return _st_axiom(sp, lambda s1, s2, _a=a.index: sp.st_outcome(s1, s1, _a, s2))
        sp = state_space(a.domain, sig1.state, sig2.state, sig2.state)
        return _st_axiom(sp, lambda s1, s2, _a=a.index: sp.st_outcome(_a, s1, s2, s2))

    return _beside_return(obs, left, lambda g: P.get_state(sig), other_sig, af, w, env)


@CORE.rule("PutL", "PutR", arity=0)
def _put_one_side(r: RuleInstance, _prem) -> Judgment:
    # PutL writes the left state beside a right return; PutR mirrors it
    left = r.rule == "PutL"
    obs = _state_obs(r, r.rule)
    sig1, sig2 = r.need("sig1"), r.need("sig2")
    env = r.get("env", EMPTY_ENV)
    if left:
        sf, af = _family(r.need("s")), _family(r.need("a2"))
    else:
        af, sf = _family(r.need("a1")), _family(r.need("s"))
    sig, other_sig = (sig1, sig2) if left else (sig2, sig1)

    def w(g):
        s, a = sf(g), af(g)
        if left:
            sp = state_space(UNIT, sig1.state, a.domain, sig2.state)
            return _st_axiom(sp, lambda _s1, s2, _t=s.index, _a=a.index: sp.st_outcome(0, _t, _a, s2))
        sp = state_space(a.domain, sig1.state, UNIT, sig2.state)
        return _st_axiom(sp, lambda s1, _s2, _a=a.index, _t=s.index: sp.st_outcome(_a, s1, 0, _t))

    put = lambda g: P.put_unit(sig, sf(g), UNIT_VAL)
    return _beside_return(obs, left, put, other_sig, af, w, env)


@CORE.rule("GetSync", arity=0)
def _get_sync(r: RuleInstance, _prem) -> Judgment:
    obs = _state_obs(r, "GetSync")
    sig1, sig2 = r.need("sig1"), r.need("sig2")
    env = r.get("env", EMPTY_ENV)
    sp = state_space(sig1.state, sig1.state, sig2.state, sig2.state)
    w = _st_axiom(sp, lambda s1, s2: sp.st_outcome(s1, s1, s2, s2))
    return judgment(obs, lambda g: P.get_state(sig1), lambda g: P.get_state(sig2), w, env)


@CORE.rule("PutSync", arity=0)
def _put_sync(r: RuleInstance, _prem) -> Judgment:
    obs = _state_obs(r, "PutSync")
    sig1, sig2 = r.need("sig1"), r.need("sig2")
    env = r.get("env", EMPTY_ENV)
    s1f, s2f = _family(r.need("s1")), _family(r.need("s2"))

    def w(g):
        t1, t2 = s1f(g), s2f(g)
        sp = state_space(UNIT, sig1.state, UNIT, sig2.state)
        return _st_axiom(sp, lambda _s1, _s2, _t1=t1.index, _t2=t2.index:
                         sp.st_outcome(0, _t1, 0, _t2))

    return judgment(obs, lambda g: P.put_unit(sig1, s1f(g), UNIT_VAL),
                    lambda g: P.put_unit(sig2, s2f(g), UNIT_VAL), w, env)


# ---------------------------------------------------------------------------
# Nondeterminism axioms


def _bool_choice(sig: Signature) -> Program:
    return P.choice(P.ret(sig, boolv(True)), P.ret(sig, boolv(False)))


@CORE.rule("DemonicPickLeft", "DemonicPickRight", arity=0)
def _demonic_pick(r: RuleInstance, _prem) -> Judgment:
    # DemonicPickLeft picks a boolean on the left beside a right return;
    # DemonicPickRight mirrors it
    left = r.rule == "DemonicPickLeft"
    obs = observation_ndet(FORALL)
    env = r.get("env", EMPTY_ENV)
    af = _family(r.need("a2" if left else "a1"))
    sig = P.ndet_sig()

    def w(g):
        a = af(g)
        if left:
            sp = pure_space(BOOL, a.domain)
            return demonic_spec(sp, [frozenset({a.index, a.domain.size + a.index})])
        sp = pure_space(a.domain, BOOL)
        return demonic_spec(sp, [frozenset({a.index * 2, a.index * 2 + 1})])

    return _beside_return(obs, left, lambda g: _bool_choice(sig), sig, af, w, env)


@CORE.rule("DemonicFailLeft", arity=0)
def _demonic_fail_left(r: RuleInstance, _prem) -> Judgment:
    obs = observation_ndet(FORALL)
    env = r.get("env", EMPTY_ENV)
    result: FiniteDomain = r.need("result")
    a2f = _family(r.need("a2"))
    sig = P.ndet_sig()

    def w(g):
        return weakest(pure_space(result, a2f(g).domain))

    return judgment(obs, lambda g: P.fail(sig, result), lambda g: P.ret(sig, a2f(g)), w, env)


@CORE.rule("Angelic", arity=0)
def _angelic(r: RuleInstance, _prem) -> Judgment:
    obs = observation_ndet(EXISTS)
    env = r.get("env", EMPTY_ENV)
    sig = P.ndet_sig()
    sp = pure_space(BOOL, BOOL)
    w = demand_spec(sp, [[1 << o for o in range(4)]])
    return judgment(obs, lambda g: _bool_choice(sig), lambda g: _bool_choice(sig), w, env)


@CORE.rule("Refinement", arity=0)
def _refinement(r: RuleInstance, _prem) -> Judgment:
    # The selection h names, for each left alternative, the right alternative
    # that answers it; the spec demands the postcondition only on those
    # pairs, which is deliberately coarser than the observation itself.
    obs = observation_ndet(FORALL_EXISTS)
    env = r.get("env", EMPTY_ENV)
    dom1: FiniteDomain = r.need("dom1")
    dom2: FiniteDomain = r.need("dom2")
    hf = _family(r.need("h"))
    sig = P.ndet_sig()
    for g in env.valuations():
        h = tuple(hf(g))
        if len(h) != dom1.size or any(not (0 <= k < dom2.size) for k in h):
            raise RuleError(f"Refinement: h must map {dom1.size} alternatives into "
                            f"{dom2.size}, got {h}")

    def pick_all(d: FiniteDomain) -> Program:
        return P.pick_fin([P.ret(sig, v) for v in d.values()])

    def w(g):
        h = tuple(hf(g))
        sp = pure_space(dom1, dom2)
        return demonic_spec(sp, [frozenset(k * dom2.size + h[k] for k in range(dom1.size))])

    return judgment(obs, lambda g: pick_all(dom1), lambda g: pick_all(dom2), w, env)


# ---------------------------------------------------------------------------
# Exception axioms and the handler rule


@CORE.rule("ThrowL", "ThrowR", arity=0)
def _throw_one_side(r: RuleInstance, _prem) -> Judgment:
    # ThrowL raises on the left beside a right return; ThrowR mirrors it
    left = r.rule == "ThrowL"
    obs = observation_err()
    sig1, sig2 = r.need("sig1"), r.need("sig2")
    env = r.get("env", EMPTY_ENV)
    if left:
        ef = _family(r.need("e1"))
        result: FiniteDomain = r.need("result1")
        af = _family(r.need("a2"))
    else:
        af = _family(r.need("a1"))
        ef = _family(r.need("e2"))
        result = r.need("result2")
    sig, other_sig = (sig1, sig2) if left else (sig2, sig1)

    def w(g):
        a = af(g).domain
        sp = err_space(result, a) if left else err_space(a, result)
        return demonic_spec(sp, [frozenset({sp.err_bad()})])

    raised = lambda g: P.throw(sig, ef(g), result)
    return _beside_return(obs, left, raised, other_sig, af, w, env)


def catch_spec(w: RelSpec, w_exc: RelSpec) -> RelSpec:
    """Reroute the collapsed exceptional outcome through the handler spec.

    The result transforms a postcondition phi by running w on a new
    postcondition that keeps phi on value pairs and asks w_exc phi of the
    exceptional outcome: per point, w's family bound against the unit on
    value pairs and w_exc's family at the exceptional outcome.
    """
    space = w.space
    if w.tag != "WrelErr" or w_exc.tag != "WrelErr":
        raise ValueError("catch_spec needs errorful specs")
    if (space.a1, space.a2) != (w_exc.space.a1, w_exc.space.a2):
        raise ValueError("handler spec must keep the body's value domains")
    subs = [frozenset({1 << o}) for o in space.outcomes()]
    fams = []
    for fam, handler in zip(w.fams, w_exc.fams):
        subs[space.err_bad()] = handler
        fams.append(_fam_bind(fam, subs))
    return demand_spec(space, fams)


@CORE.rule("Catch", arity=4)
def _catch_rule(r: RuleInstance, prem) -> Judgment:
    # One premise for the double-success case and three sharing the handler
    # spec, one per way an exception can show up.  The shared spec cannot
    # name which side raised; that is the price of the collapsed carrier.
    jmain, jee, jea, jae = prem
    obs = _shared_obs(prem, "Catch")
    if obs.target != "WrelErr":
        raise RuleError("Catch: needs the errorful carrier")
    env = jmain.env
    g0 = next(iter(env.valuations()))
    p1, p2 = jmain.c1(g0), jmain.c2(g0)
    e1dom, e2dom = p1.sig.exc, p2.sig.exc
    a1dom, a2dom = p1.result, p2.result
    _extension(env, jee.env, (e1dom, e2dom), "Catch (exceptional premise)")
    _extension(env, jea.env, (e1dom, a2dom), "Catch (left-raise premise)")
    _extension(env, jae.env, (a1dom, e2dom), "Catch (right-raise premise)")
    e0, a10, a20 = e1dom.value(0), a1dom.value(0), a2dom.value(0)

    for g in env.valuations():
        if jmain.c1(g).result != a1dom or jmain.c2(g).result != a2dom:
            raise RuleError("Catch: body results must not vary with the context")
        wx0 = jee.w(g + (e0, e2dom.value(0)))
        for e1 in e1dom.values():
            h1 = jee.c1(g + (e1, e2dom.value(0)))
            for e2 in e2dom.values():
                if not P.programs_equal(jee.c1(g + (e1, e2)), h1):
                    raise RuleError("Catch: left handler depends on the right exception")
                if not spec_equiv(jee.w(g + (e1, e2)), wx0).holds:
                    raise RuleError("Catch: the exceptional premises must share one spec")
            for a2 in a2dom.values():
                if not P.programs_equal(jea.c1(g + (e1, a2)), h1):
                    raise RuleError("Catch: left handler differs between exceptional premises")
                if not P.programs_equal(jea.c2(g + (e1, a2)), P.ret(p2.sig, a2)):
                    raise RuleError("Catch: left-raise premise right side must return its value")
                if not spec_equiv(jea.w(g + (e1, a2)), wx0).holds:
                    raise RuleError("Catch: the exceptional premises must share one spec")
        for e2 in e2dom.values():
            h2 = jee.c2(g + (e0, e2))
            for e1 in e1dom.values():
                if not P.programs_equal(jee.c2(g + (e1, e2)), h2):
                    raise RuleError("Catch: right handler depends on the left exception")
            for a1 in a1dom.values():
                if not P.programs_equal(jae.c2(g + (a1, e2)), h2):
                    raise RuleError("Catch: right handler differs between exceptional premises")
                if not P.programs_equal(jae.c1(g + (a1, e2)), P.ret(p1.sig, a1)):
                    raise RuleError("Catch: right-raise premise left side must return its value")
                if not spec_equiv(jae.w(g + (a1, e2)), wx0).holds:
                    raise RuleError("Catch: the exceptional premises must share one spec")

    def c1(g):
        return P.catch(jmain.c1(g), lambda e: jee.c1(g + (e, e2dom.value(0))))

    def c2(g):
        return P.catch(jmain.c2(g), lambda e: jee.c2(g + (e1dom.value(0), e)))

    def w(g):
        return catch_spec(jmain.w(g), jee.w(g + (e0, e2dom.value(0))))

    return judgment(obs, c1, c2, w, env)


# ---------------------------------------------------------------------------
# Interactive axioms


def _io_obs(sig1: Signature, sig2: Signature, points) -> EffectObservation:
    return observation_io(sig1.inp, sig1.out, sig2.inp, sig2.out, points)


def _one_event_spec(sig1: Signature, sig2: Signature, points, left: bool, other: Value,
                    steps, rdom: FiniteDomain) -> RelSpec:
    """One side takes one of `steps`, (result, event) pairs, beside a
    return of `other` on the other side: the event goes on the acting
    side's history."""
    if left:
        sp = io_space(rdom, sig1.inp, sig1.out, other.domain, sig2.inp, sig2.out)

        def fn(pt):
            h1, h2 = pt
            return {(x.index * other.domain.size + other.index, (ev,) + h1, h2)
                    for x, ev in steps}
    else:
        sp = io_space(other.domain, sig1.inp, sig1.out, rdom, sig2.inp, sig2.out)

        def fn(pt):
            h1, h2 = pt
            return {(other.index * rdom.size + x.index, h1, (ev,) + h2) for x, ev in steps}

    return io_demonic_spec(sp, fn, points)


@CORE.rule("InputL", "InputR", arity=0)
def _input(r: RuleInstance, _prem) -> Judgment:
    # InputL reads on the left beside a right return; InputR mirrors it
    left = r.rule == "InputL"
    sig1, sig2 = r.need("sig1"), r.need("sig2")
    env = r.get("env", EMPTY_ENV)
    af = _family(r.need("a2" if left else "a1"))
    points = tuple(r.get("points", IO_ROOT))
    sig, other_sig = (sig1, sig2) if left else (sig2, sig1)
    steps = tuple((i, (P.IN, i)) for i in sig.inp.values())

    def w(g):
        return _one_event_spec(sig1, sig2, points, left, af(g), steps, sig.inp)

    read = lambda g: P.read_input(sig)
    return _beside_return(_io_obs(sig1, sig2, points), left, read, other_sig, af, w, env)


@CORE.rule("OutputL", "OutputR", arity=0)
def _output(r: RuleInstance, _prem) -> Judgment:
    # OutputL writes on the left beside a right return; OutputR mirrors it
    left = r.rule == "OutputL"
    sig1, sig2 = r.need("sig1"), r.need("sig2")
    env = r.get("env", EMPTY_ENV)
    if left:
        of, af = _family(r.need("o1")), _family(r.need("a2"))
    else:
        af, of = _family(r.need("a1")), _family(r.need("o2"))
    points = tuple(r.get("points", IO_ROOT))
    sig, other_sig = (sig1, sig2) if left else (sig2, sig1)

    def w(g):
        return _one_event_spec(sig1, sig2, points, left, af(g),
                               ((UNIT_VAL, (P.OUT, of(g))),), UNIT)

    write = lambda g: P.output(sig, of(g), P.ret(sig, UNIT_VAL))
    return _beside_return(_io_obs(sig1, sig2, points), left, write, other_sig, af, w, env)


# ---------------------------------------------------------------------------
# Synchronized loops


def _has_shape(t, shape: Tuple[int, ...]) -> bool:
    """Is t nested sequences of exactly these lengths, outermost first?"""
    if not shape:
        return True
    try:
        return len(t) == shape[0] and all(_has_shape(x, shape[1:]) for x in t)
    except TypeError:
        return False


def _norm_inv(inv, s1: FiniteDomain, s2: FiniteDomain):
    """Invariant table inv[b1][b2][s1][s2] as booleans, from a nested
    sequence of that shape (the rule's `inv` is such a table, or a
    valuation family of them); RuleError for anything else."""
    if not _has_shape(inv, (2, 2, s1.size, s2.size)):
        raise RuleError(f"DoWhileInv: inv must be a 2x2x{s1.size}x{s2.size} table, "
                        "or a valuation family of such tables")
    return tuple(tuple(tuple(tuple(bool(v) for v in row) for row in plane) for plane in b)
                 for b in inv)


def _loop_spec(inv, a1: FiniteDomain, s1: FiniteDomain, a2: FiniteDomain, s2: FiniteDomain,
               post: Callable[[int, int, int, int], bool]) -> RelSpec:
    """From invariant states with both guards pending, `post` of the final
    (value, state) pairs; loop posts never read the initial states."""
    space = state_space(a1, s1, a2, s2)
    pre = [inv[1][1][i][j] for i in range(s1.size) for j in range(s2.size)]
    return from_final_post(space, pre, [post(*space.st_split(o)) for o in space.outcomes()])


def loop_premise_spec(inv, s1: FiniteDomain, s2: FiniteDomain) -> RelSpec:
    """Body obligation: from invariant states with both guards pending, the
    guards agree and the invariant indexed by them holds of the new states."""
    return _loop_spec(inv, BOOL, s1, BOOL, s2,
                      lambda b1, f1, b2, f2: b1 == b2 and inv[b1][b2][f1][f2])


def loop_conclusion_spec(inv, s1: FiniteDomain, s2: FiniteDomain) -> RelSpec:
    return _loop_spec(inv, UNIT, s1, UNIT, s2, lambda _a1, f1, _a2, f2: inv[0][0][f1][f2])


@CORE.rule("DoWhileInv", arity=1)
def _do_while_inv(r: RuleInstance, prem) -> Judgment:
    (jb,) = prem
    obs = jb.observation
    if obs.name != "theta-part":
        raise RuleError("DoWhileInv: sound for the partial-correctness observation only")
    invf = _family(r.need("inv"))
    env = jb.env
    g0 = next(iter(env.valuations()))
    b1p, b2p = jb.c1(g0), jb.c2(g0)
    if b1p.result != BOOL or b2p.result != BOOL:
        raise RuleError("DoWhileInv: loop bodies must produce booleans")
    if b1p.sig.effect != P.IMP or b2p.sig.effect != P.IMP:
        raise RuleError("DoWhileInv: loop bodies must be iterative programs")
    s1dom, s2dom = b1p.sig.state, b2p.sig.state

    def inv_at(g):
        return _norm_inv(invf(g), s1dom, s2dom)

    for g in env.valuations():
        want = loop_premise_spec(inv_at(g), s1dom, s2dom)
        if not spec_equiv(jb.w(g), want).holds:
            raise RuleError(f"DoWhileInv: premise spec is not the invariant "
                            f"obligation at {_show_valuation(env, g)}")

    def c1(g):
        return P.do_while(jb.c1(g), P.ret(b1p.sig, UNIT_VAL))

    def c2(g):
        return P.do_while(jb.c2(g), P.ret(b2p.sig, UNIT_VAL))

    def w(g):
        return loop_conclusion_spec(inv_at(g), s1dom, s2dom)

    return judgment(obs, c1, c2, w, env)


def loop_invariant(body1: Program, body2: Program):
    """A synchronizing invariant for a pair of loop bodies.

    A state pair is included when the joint iteration from it never sees the
    two guards disagree; runs where a body diverges also count as safe,
    because partial correctness demands nothing of them.  Returns a nested
    table inv[b1][b2][s1][s2] whose off-diagonal slices are empty: included
    runs keep the guards synchronized, so mixed guard pairs never arise.
    """
    s1dom, s2dom = body1.sig.state, body2.sig.state
    runs1, runs2 = P._runs(body1), P._runs(body2)
    ok = [[False] * s2dom.size for _ in range(s1dom.size)]
    exits = set()
    for i in range(s1dom.size):
        for j in range(s2dom.size):
            seen = set()
            cur = (i, j)
            good = True
            exit_pair = None
            while cur not in seen:
                seen.add(cur)
                r1, r2 = runs1[cur[0]], runs2[cur[1]]
                if r1 is None or r2 is None:
                    break
                (b1, t1), (b2, t2) = divmod(r1, s1dom.size), divmod(r2, s2dom.size)
                if b1 != b2:
                    good = False
                    break
                if b1 == 0:
                    exit_pair = (t1, t2)
                    break
                cur = (t1, t2)
            ok[i][j] = good
            if good and exit_pair is not None:
                exits.add(exit_pair)
    nothing = tuple(tuple(False for _ in range(s2dom.size)) for _ in range(s1dom.size))
    inv_tt = tuple(tuple(ok[i][j] for j in range(s2dom.size)) for i in range(s1dom.size))
    inv_ff = tuple(tuple((i, j) in exits for j in range(s2dom.size))
                   for i in range(s1dom.size))
    return ((inv_ff, nothing), (nothing, inv_tt))


# ---------------------------------------------------------------------------
# Coupled sampling


@CORE.rule("FlipCoupling", arity=0)
def _flip_coupling(r: RuleInstance, _prem) -> Judgment:
    obs = observation_prob()
    env = r.get("env", EMPTY_ENV)
    pf, qf, df = _family(r.need("p")), _family(r.need("q")), _family(r.need("d"))
    sig = P.prob_sig()

    def coupling_at(g):
        """d at g, checked, as one piece of int coefficients over the
        outcomes (b1, b2), with their least common denominator."""
        p, q = P._fraction(pf(g)), P._fraction(qf(g))
        d = tuple(tuple(map(P._fraction, row)) for row in df(g))
        if len(d) != 2 or any(len(row) != 2 for row in d):
            raise RuleError("FlipCoupling: d must be a 2x2 table over (left, right) guards")
        if any(x < 0 for row in d for x in row):
            raise RuleError("FlipCoupling: coupling weights must be nonnegative")
        if (d[0][0] + d[0][1], d[1][0] + d[1][1]) != (1 - p, p) or \
           (d[0][0] + d[1][0], d[0][1] + d[1][1]) != (1 - q, q):
            raise RuleError(f"FlipCoupling: d is not a coupling of the {p} and {q} draws "
                            f"at {_show_valuation(env, g)}")
        return _int_pieces(space, [(0, d[0] + d[1])])

    # each valuation's table is checked once, here, and read by every w(g);
    # valuations that state equal tables share one coefficient tuple
    space = prob_space(BOOL, BOOL)
    shared: Dict[tuple, tuple] = {}
    pieces = {g: shared.setdefault(t := coupling_at(g), t) for g in env.valuations()}

    def w(g):
        return _linear(space, *pieces[g])

    return judgment(obs, lambda g: P.flip_bool(sig, pf(g)),
                    lambda g: P.flip_bool(sig, qf(g)), w, env)


# ---------------------------------------------------------------------------
# Checking derivations


@dataclass(frozen=True)
class CheckResult:
    ok: bool
    path: Tuple[int, ...] = ()
    message: str = ""

    def __bool__(self):
        return self.ok


_OK = CheckResult(True)


def check_derivation(d: Derivation) -> CheckResult:
    """Replay every node through the catalogue its conclusion's type names
    and compare with the stated conclusion (`mismatch` of that type).
    Premises replay before their node, from an explicit stack, so a tree of
    any depth replays.  A node the tree shares replays once per call, at its
    first occurrence.  Reports the first failing node by its path of child
    indices from the root; a node fails when its rule raises RuleError or
    its parameters build an invalid program or spec (ValueError).

    The replay runs in one `_EvaluationScope`: each judgment family is read
    once per valuation, and each program node and each spec from the
    constructors that share (`spec_ret`, `spec_bind`, `linear_spec`,
    `demand_spec`) is built once, so an honest node's recomputed programs
    and specs are the stated objects themselves and compare in O(1).  Both
    conclusions are still evaluated at every valuation.  Nothing built here
    outlives the call."""
    stack, path = [(d, 0)], []     # nodes with the next premise to visit; child indices
    done = set()                   # ids of the nodes replayed so far
    with _EvaluationScope():
        while stack:
            node, i = stack[-1]
            if i < len(node.premises):
                stack[-1] = (node, i + 1)
                if id(node.premises[i]) not in done:
                    stack.append((node.premises[i], 0))
                    path.append(i)
                continue
            stack.pop()
            stated = node.conclusion
            catalogue = type(stated).catalogue
            # core nodes replay through apply_rule, the entry point the bench times
            apply = apply_rule if catalogue is CORE else catalogue.apply
            try:
                computed = apply(node.rule, tuple(s.conclusion for s in node.premises))
            except (RuleError, ValueError) as e:
                return CheckResult(False, tuple(path), f"{node.rule.rule}: {e}")
            bad = stated.mismatch(computed)
            if bad is not None:
                return CheckResult(False, tuple(path), f"{node.rule.rule}: {bad}")
            done.add(id(node))
            if path:
                path.pop()
    return _OK


# ---------------------------------------------------------------------------
# The semantic oracle


@dataclass(frozen=True)
class OracleVerdict:
    """Aggregated theta(c1,c2) <= w over all valuations: holds or fails.

    A failure's valuation and inner verdict point at the first refutation.
    A split-context verdict also names the failing clause: "left", "right"
    or "relational"."""

    kind: str
    checked: int
    valuation: Optional[tuple] = None
    inner: Optional[object] = None
    clause: Optional[str] = None

    @property
    def holds(self) -> bool:
        return self.kind == "holds"

    @property
    def failed(self) -> bool:
        return self.kind == "fails"

    @property
    def is_unknown(self) -> bool:
        """Always False: every verdict is decided.  Kept for the bench's
        grading, which still asks."""
        return False


def oracle_check(j) -> OracleVerdict:
    """Decide a judgment of any kind semantically, at every valuation (the
    `oracle` of its type).  Within the call, as in `check_derivation`, each
    family is read once per valuation and equal constructions of programs
    and specs give one object; nothing built here outlives the call."""
    with _EvaluationScope():
        return j.oracle()


def minimize_failure(d: Derivation) -> Tuple[Derivation, OracleVerdict]:
    """Smallest subderivation whose conclusion already fails the oracle."""
    while True:
        for sub in d.premises:
            if oracle_check(sub.conclusion).failed:
                d = sub
                break
        else:
            return d, oracle_check(d.conclusion)


@dataclass
class SoundnessReport:
    total: int = 0
    holds: int = 0
    fails: int = 0
    failures: List[Tuple[Derivation, OracleVerdict]] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return self.fails == 0

    def __repr__(self):
        return f"SoundnessReport(total={self.total}, holds={self.holds}, fails={self.fails})"


def soundness_differential(sampler: Callable[[random.Random], Derivation], n: int,
                           seed: int = 0, validate: bool = False) -> SoundnessReport:
    """Oracle-check the conclusions of n sampled derivations.

    Every sampled tree is well-formed by construction (the sampler builds
    through apply_rule), so any Fails is a soundness bug in a rule; the
    report carries the smallest failing subderivation.  With validate=True
    each tree is additionally replayed through check_derivation, and a
    replay failure raises, since it means the sampler and checker disagree.
    """
    rng = random.Random(seed)
    rep = SoundnessReport()
    for _ in range(n):
        d = sampler(rng)
        rep.total += 1
        if validate:
            res = check_derivation(d)
            if not res.ok:
                raise RuleError(f"sampled derivation does not replay: {res.message} "
                                f"at path {res.path}")
        v = oracle_check(d.conclusion)
        if v.failed:
            rep.fails += 1
            rep.failures.append(minimize_failure(d))
        else:
            rep.holds += 1
    return rep


# ---------------------------------------------------------------------------
# Random derivations

# The sampler leans on bind chains over axiom leaves, since the bind law is
# where a broken observation or a miscomputed spec would surface; the pure
# eliminators, weakening, and the effect-specific compound rules are mixed
# in at lower rates.


def _val_family(rng: random.Random, env: Env, dom: FiniteDomain, allowed):
    """Constant, a context variable read, or a table over one variable.

    `allowed` lists the variable positions this parameter may depend on;
    the bind rules reject families that read across sides, so the sampler
    respects the split up front.
    """
    if allowed and rng.random() < 0.5:
        i = rng.choice(allowed)
        src = env.vars[i][1]
        if src == dom and rng.random() < 0.6:
            return lambda g, _i=i: g[_i]
        tbl = tuple(dom.value(rng.randrange(dom.size)) for _ in range(src.size))
        return lambda g, _i=i, _t=tbl: _t[g[_i].index]
    return _family(dom.value(rng.randrange(dom.size)))


def _bool_family(rng: random.Random, env: Env, allowed):
    if allowed and rng.random() < 0.6:
        i = rng.choice(allowed)
        k = rng.randrange(env.vars[i][1].size)
        return lambda g, _i=i, _k=k: g[_i].index == _k
    return _family(rng.random() < 0.5)


def _grow_demonic(rng: random.Random, w: RelSpec) -> RelSpec:
    """A random spec above w: demands grow, some points become unsatisfiable."""
    if not w.is_demonic or w.tag == "WrelIO":
        return w
    space = w.space
    table = []
    for pt in space.points():
        entry = w.demonic_at(pt)
        roll = rng.random()
        if entry is VIOLATED or roll < 0.1:
            table.append(VIOLATED)
        elif roll < 0.55:
            extra = frozenset(o for o in space.outcomes() if rng.random() < 0.2)
            table.append(entry | extra)
        else:
            table.append(entry)
    return demonic_spec(space, table)


def _grow_io(rng: random.Random, w: RelSpec) -> RelSpec:
    doomed = frozenset(pt for pt in w.io_points if rng.random() < 0.2)
    if not doomed:
        return w
    return io_demonic_spec(w.space, lambda pt, _w=w: VIOLATED if pt in doomed
                           else _w.demonic_at(pt), w.io_points)


def _raise_prob(rng: random.Random, w: RelSpec) -> RelSpec:
    # every piece raised by delta eighths, under a new piece at the constant 1
    if w.rows is None:
        return w
    delta = rng.randrange(0, 3)
    if delta == 0:
        return w
    den = lcm(w.den, 8)
    f = den // w.den
    pieces = [(k * f + delta * (den // 8), tuple(c * f for c in cs)) for k, cs in w.rows]
    pieces.append((den, (0,) * w.space.size))
    return _linear(w.space, den, pieces)


def _random_coupling(rng: random.Random):
    # d[1][1] can sit anywhere between the Frechet bounds; the rest follows
    # from the marginals.
    grid = (ZERO, Fraction(1, 4), Fraction(1, 2), Fraction(3, 4))
    p, q = rng.choice(grid), rng.choice(grid)
    lo = max(ZERO, p + q - 1)
    hi = min(p, q)
    t = lo + (hi - lo) * Fraction(rng.randrange(3), 2)
    d = ((1 - p - q + t, q - t), (p - t, t))
    return p, q, d


def random_derivation(rng: random.Random, effect: str, depth: int = 4,
                      state_size: int = 2, exc_size: int = 2,
                      io_sizes: Tuple[int, int] = (2, 2),
                      ndet_mode: Optional[str] = None) -> Derivation:
    """One well-formed seeded derivation for the given effect.

    The conclusion context is empty or holds one small variable; every node
    is built through apply_rule, so the tree replays under check_derivation.
    Alongside each context the sampler tracks which side may read each
    variable ("b" both, "l" left, "r" right), mirroring how the bind and
    handler rules split their bound values between the two programs.

    The build runs in one `_EvaluationScope`, as `check_derivation` does:
    each family is read once per valuation and each program and spec is
    built once across the whole tree, and the table goes when the call
    returns (a build inside an open scope uses that scope's table).  The
    rng never reads the table, so the same trees are drawn.  The Weaken,
    DoWhileInv and Catch targets keep their own per-tree caches, which do
    outlive the build: every later check, each with its own table, then
    reads the same stated objects, and the targets are grown once.
    """
    mode = None
    if effect in (P.STATE, P.IMP):
        sdom = domain(f"st{state_size}", state_size)
        sig = P.state_sig(sdom) if effect == P.STATE else P.imp_sig(sdom)
        obs = observation_st() if effect == P.STATE else observation_part()
        pool = [UNIT, BOOL, sdom]
    elif effect == P.EXC:
        edom = domain(f"ex{exc_size}", exc_size)
        sig = P.exc_sig(edom)
        obs = observation_err()
        pool = [UNIT, BOOL, edom]
    elif effect == P.NDET:
        sig = P.ndet_sig()
        mode = ndet_mode if ndet_mode is not None else rng.choice(NDET_MODES)
        obs = observation_ndet(mode)
        pool = [UNIT, BOOL, domain("n3", 3)]
    elif effect == P.IO:
        idom, odom = domain(f"in{io_sizes[0]}", io_sizes[0]), domain(f"out{io_sizes[1]}", io_sizes[1])
        sig = P.io_sig(idom, odom)
        obs = observation_io(idom, odom, idom, odom, IO_ROOT)
        pool = [UNIT, BOOL, idom]
    elif effect == P.PROB:
        sig = P.prob_sig()
        obs = observation_prob()
        pool = [UNIT, BOOL]
    else:
        raise ValueError(f"unknown effect {effect!r}")

    sig1 = sig2 = sig
    grow = {P.IO: _grow_io, P.PROB: _raise_prob}.get(effect, _grow_demonic)

    def readable(sides, side):
        banned = "r" if side == 1 else "l"
        return tuple(i for i, s in enumerate(sides) if s != banned)

    def leaf(env: Env, sides, r1: Optional[FiniteDomain], r2: Optional[FiniteDomain]) -> Derivation:
        lok, rok = readable(sides, 1), readable(sides, 2)
        names = ["Ret"]
        if effect in (P.STATE, P.IMP):
            if r1 in (None, sdom):
                names.append("GetL")
            if r1 in (None, UNIT):
                names.append("PutL")
            if r2 in (None, sdom):
                names.append("GetR")
            if r2 in (None, UNIT):
                names.append("PutR")
            if r1 in (None, sdom) and r2 in (None, sdom):
                names.append("GetSync")
            if r1 in (None, UNIT) and r2 in (None, UNIT):
                names.append("PutSync")
        elif effect == P.EXC:
            names += ["ThrowL", "ThrowR"]
        elif effect == P.NDET:
            if mode == FORALL:
                if r1 in (None, BOOL):
                    names.append("DemonicPickLeft")
                if r2 in (None, BOOL):
                    names.append("DemonicPickRight")
                names.append("DemonicFailLeft")
            elif mode == EXISTS:
                if r1 in (None, BOOL) and r2 in (None, BOOL):
                    names.append("Angelic")
            else:
                names.append("Refinement")
        elif effect == P.IO:
            if r1 in (None, idom):
                names.append("InputL")
            if r1 in (None, UNIT):
                names.append("OutputL")
            if r2 in (None, idom):
                names.append("InputR")
            if r2 in (None, UNIT):
                names.append("OutputR")
        elif effect == P.PROB:
            if r1 in (None, BOOL) and r2 in (None, BOOL):
                names += ["FlipCoupling", "FlipCoupling"]
        name = rng.choice(names)
        d1 = r1 if r1 is not None else rng.choice(pool)
        d2 = r2 if r2 is not None else rng.choice(pool)
        if name == "Ret":
            return derive("Ret", observation=obs, sig1=sig1, sig2=sig2, env=env,
                          a1=_val_family(rng, env, d1, lok),
                          a2=_val_family(rng, env, d2, rok))
        if name in ("GetL", "GetR", "PutL", "PutR", "GetSync", "PutSync"):
            params = dict(observation=obs, sig1=sig1, sig2=sig2, env=env)
            if name == "GetL":
                params["a2"] = _val_family(rng, env, d2, rok)
            elif name == "GetR":
                params["a1"] = _val_family(rng, env, d1, lok)
            elif name == "PutL":
                params.update(s=_val_family(rng, env, sdom, lok),
                              a2=_val_family(rng, env, d2, rok))
            elif name == "PutR":
                params.update(a1=_val_family(rng, env, d1, lok),
                              s=_val_family(rng, env, sdom, rok))
            elif name == "PutSync":
                params.update(s1=_val_family(rng, env, sdom, lok),
                              s2=_val_family(rng, env, sdom, rok))
            return derive(name, **params)
        if name == "ThrowL":
            return derive("ThrowL", sig1=sig1, sig2=sig2, env=env, result1=d1,
                          e1=_val_family(rng, env, edom, lok),
                          a2=_val_family(rng, env, d2, rok))
        if name == "ThrowR":
            return derive("ThrowR", sig1=sig1, sig2=sig2, env=env, result2=d2,
                          a1=_val_family(rng, env, d1, lok),
                          e2=_val_family(rng, env, edom, rok))
        if name == "DemonicPickLeft":
            return derive("DemonicPickLeft", env=env, a2=_val_family(rng, env, d2, rok))
        if name == "DemonicPickRight":
            return derive("DemonicPickRight", env=env, a1=_val_family(rng, env, d1, lok))
        if name == "DemonicFailLeft":
            return derive("DemonicFailLeft", env=env, result=d1,
                          a2=_val_family(rng, env, d2, rok))
        if name == "Angelic":
            return derive("Angelic", env=env)
        if name == "Refinement":
            h = tuple(rng.randrange(d2.size) for _ in range(d1.size))
            return derive("Refinement", env=env, dom1=d1, dom2=d2, h=h)
        if name == "InputL":
            return derive("InputL", sig1=sig1, sig2=sig2, env=env,
                          a2=_val_family(rng, env, d2, rok))
        if name == "InputR":
            return derive("InputR", sig1=sig1, sig2=sig2, env=env,
                          a1=_val_family(rng, env, d1, lok))
        if name == "OutputL":
            return derive("OutputL", sig1=sig1, sig2=sig2, env=env,
                          o1=_val_family(rng, env, odom, lok),
                          a2=_val_family(rng, env, d2, rok))
        if name == "OutputR":
            return derive("OutputR", sig1=sig1, sig2=sig2, env=env,
                          a1=_val_family(rng, env, d1, lok),
                          o2=_val_family(rng, env, odom, rok))
        if name == "FlipCoupling":
            p, q, dd = _random_coupling(rng)
            return derive("FlipCoupling", env=env, p=p, q=q, d=dd)
        raise AssertionError(name)

    def gen(env: Env, sides, d: int, r1: Optional[FiniteDomain],
            r2: Optional[FiniteDomain], exact: bool = False) -> Derivation:
        if d <= 1:
            return leaf(env, sides, r1, r2)
        both = tuple(i for i, s in enumerate(sides) if s == "b")
        options = ["bind", "bind", "bind", "leaf", "boolelim"]
        if not exact:
            options += ["weaken", "zero", "ifsync"]
            # loops conclude at unit on both sides, so only offer them where
            # the surrounding request allows that
            if effect == P.IMP and d >= 3 and r1 in (None, UNIT) and r2 in (None, UNIT):
                options += ["dowhile", "dowhile"]
            if effect == P.EXC and d >= 2:
                options.append("catch")
        if both:
            options.append("natelim")
        kind = rng.choice(options)

        if kind == "leaf":
            return leaf(env, sides, r1, r2)

        if kind == "bind":
            m = gen(env, sides, d - 1, None, None, exact)
            g0 = next(iter(env.valuations()))
            a1dom = m.conclusion.c1(g0).result
            a2dom = m.conclusion.c2(g0).result
            x = fresh_name(env, "x")
            mid = env.extend((x, a1dom))
            env2 = mid.extend((fresh_name(mid, "y"), a2dom))
            f = gen(env2, sides + ("l", "r"), d - 1, r1, r2, exact)
            return derive("Bind", (m, f))

        if kind == "weaken":
            sub = gen(env, sides, d - 1, r1, r2, exact)
            cache: Dict[Valuation, RelSpec] = {}

            def target(g, _sub=sub, _cache=cache, _seed=rng.getrandbits(32)):
                if g not in _cache:
                    _cache[g] = grow(random.Random(f"{_seed}:{g!r}"), _sub.conclusion.w(g))
                return _cache[g]

            return derive("Weaken", (sub,), w=target)

        if kind == "boolelim":
            rr1 = r1 if r1 is not None else rng.choice(pool)
            rr2 = r2 if r2 is not None else rng.choice(pool)
            jt = gen(env, sides, d - 1, rr1, rr2, exact)
            jf = gen(env, sides, d - 1, rr1, rr2, exact)
            return derive("BoolElim", (jt, jf), b=_bool_family(rng, env, both))

        if kind == "ifsync":
            rr1 = r1 if r1 is not None else rng.choice(pool)
            rr2 = r2 if r2 is not None else rng.choice(pool)
            jt = gen(env, sides, d - 1, rr1, rr2, exact)
            jf = gen(env, sides, d - 1, rr1, rr2, exact)
            return derive("IfSync", (jt, jf),
                          b1=_bool_family(rng, env, readable(sides, 1)),
                          b2=_bool_family(rng, env, readable(sides, 2)))

        if kind == "natelim":
            pos = rng.choice(both)
            var, vdom = env.vars[pos]
            rr1 = r1 if r1 is not None else rng.choice(pool)
            rr2 = r2 if r2 is not None else rng.choice(pool)
            inner_sides = sides[:pos] + sides[pos + 1:]
            prem = [gen(env.drop(pos), inner_sides, d - 1, rr1, rr2, exact)
                    for _ in range(vdom.size)]
            return derive("NatElim", prem, env=env, var=var)

        if kind == "zero":
            rr1 = r1 if r1 is not None else rng.choice(pool)
            rr2 = r2 if r2 is not None else rng.choice(pool)
            p1 = random_program(rng, sig1, rr1, min(d, 3))
            p2 = random_program(rng, sig2, rr2, min(d, 3))
            if obs.target == "WrelIO":
                top = unsatisfiable(io_space(rr1, idom, odom, rr2, idom, odom),
                                    points=IO_ROOT)
            else:
                top = unsatisfiable(_ret_space(obs.target, sig1, sig2, rr1, rr2))
            return derive("ZeroElim", observation=obs, env=env, c1=p1, c2=p2, w=top)

        if kind == "dowhile":
            body = gen(env, sides, max(d - 2, 1), BOOL, BOOL, exact=True)
            cache: Dict[Valuation, object] = {}

            def inv_fam(g, _b=body.conclusion, _cache=cache):
                if g not in _cache:
                    _cache[g] = loop_invariant(_b.c1(g), _b.c2(g))
                return _cache[g]

            prem = derive("Weaken", (body,),
                          w=lambda g: loop_premise_spec(inv_fam(g), sdom, sdom))
            return derive("DoWhileInv", (prem,), inv=inv_fam)

        if kind == "catch":
            a1dom = r1 if r1 is not None else rng.choice(pool)
            a2dom = r2 if r2 is not None else rng.choice(pool)
            jmain = gen(env, sides, d - 1, a1dom, a2dom, exact)
            throw_side = rng.choice((0, 1, 2))
            k = len(env.vars)
            h1_vals = tuple(edom.value(rng.randrange(exc_size)) if throw_side == 1
                            else a1dom.value(rng.randrange(a1dom.size))
                            for _ in range(exc_size))
            h2_vals = tuple(edom.value(rng.randrange(exc_size)) if throw_side == 2
                            else a2dom.value(rng.randrange(a2dom.size))
                            for _ in range(exc_size))
            h1f = lambda g: h1_vals[g[k].index]
            h2f = lambda g: h2_vals[g[k + 1].index]
            proj1 = lambda g: g[k]
            proj2 = lambda g: g[k + 1]
            x = fresh_name(env, "e")
            mid = env.extend((x, edom))
            y = fresh_name(mid, "e")
            z = fresh_name(mid, "a")
            env_ee = env.extend((x, edom), (y, edom))
            env_ea = env.extend((x, edom), (z, a2dom))
            env_ae = env.extend((x, a1dom), (y, edom))

            def axiom(envx, left_kind, right_kind, a1fam, e1fam, a2fam, e2fam):
                if left_kind == "throw":
                    return derive("ThrowL", sig1=sig1, sig2=sig2, env=envx,
                                  result1=a1dom, e1=e1fam, a2=a2fam)
                if right_kind == "throw":
                    return derive("ThrowR", sig1=sig1, sig2=sig2, env=envx,
                                  result2=a2dom, a1=a1fam, e2=e2fam)
                return derive("Ret", observation=obs, sig1=sig1, sig2=sig2, env=envx,
                              a1=a1fam, a2=a2fam)

            k1 = "throw" if throw_side == 1 else "ret"
            k2 = "throw" if throw_side == 2 else "ret"
            jee = axiom(env_ee, k1, k2, h1f, h1f, h2f, h2f)
            jea = axiom(env_ea, k1, "ret", h1f, h1f, proj2, None)
            jae = axiom(env_ae, "ret", k2, proj1, None, h2f, h2f)

            wx_cache: Dict[Valuation, RelSpec] = {}

            def wx(g):
                base = g[:k]
                if base not in wx_cache:
                    specs = []
                    for e1 in edom.values():
                        for e2 in edom.values():
                            specs.append(jee.conclusion.w(base + (e1, e2)))
                        for a2 in a2dom.values():
                            specs.append(jea.conclusion.w(base + (e1, a2)))
                    for a1 in a1dom.values():
                        for e2 in edom.values():
                            specs.append(jae.conclusion.w(base + (a1, e2)))
                    wx_cache[base] = _union_demands(specs)
                return wx_cache[base]

            wee = derive("Weaken", (jee,), w=wx)
            wea = derive("Weaken", (jea,), w=wx)
            wae = derive("Weaken", (jae,), w=wx)
            return derive("Catch", (jmain, wee, wea, wae))

        raise AssertionError(kind)

    env, sides = EMPTY_ENV, ()
    if rng.random() < 0.35:
        env, sides = env.extend(("k", rng.choice(pool[1:]))), ("b",)
    with _EvaluationScope():
        return gen(env, sides, depth, None, None)


def _union_demands(specs: Sequence[RelSpec]) -> RelSpec:
    """Least spec above every given demonic spec: pointwise union of demands."""
    fams = [[reduce(or_, (d for fam in at for d in fam))] if all(at) else []
            for at in zip(*(w.fams for w in specs))]
    return demand_spec(specs[0].space, fams)
