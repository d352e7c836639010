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
    oracle_check      decides a judgment directly, once per distinct entry

The catalog covers the generic monadic rules (Ret, Bind, Weaken), the pure
eliminators (BoolElim, ZeroElim, NatElim, the if variants), derived
one-sided binds, and per-effect axioms whose conclusion specs are written
out explicitly; tests confirm the axiom specs coincide with the observation
applied to the axiom programs.  `random_derivation` builds seeded well-formed
trees for the soundness differential: if some rule were unsound, a random
conclusion would eventually flunk its oracle.

A judgment holds its programs and specs as tables (`Table`), one entry per
valuation of its context, filled once when it is built.  A rule computes
its conclusion's tables from its premises' tables, so replaying a node is
one rule application over stored entries, and the oracle reads the root's
tables without rebuilding anything.  Programs, specs and judgments are
hash-consed (`programs._POOL`): a replay finds its entries by key, and a hit
builds and checks nothing its key fixes, so an honest replay allocates no
program node.  Rule bodies, judgment checks and the oracle work once per
distinct entry (`_each`, `_firsts`), not once per valuation: a family that
ignores a variable of its context repeats its entries, and the repeats
reuse the first result.
"""

from __future__ import annotations

import random
from contextvars import ContextVar
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, partial, reduce
from itertools import islice, product
from math import lcm
from operator import or_
from typing import Callable, ClassVar, Dict, Iterator, Optional, Sequence, Tuple

from . import programs as P
from .domains import BOOL, UNIT, UNIT_VAL, FiniteDomain, Value, boolv, domain
from .genprog import random_program
from .lp import _ints
from .observations import (
    EXISTS,
    FORALL,
    FORALL_EXISTS,
    NDET_MODES,
    EffectObservation,
    observation_err,
    observation_io,
    observation_ndet,
    observation_part,
    observation_prob,
    observation_st,
    theta_leq,
)
from .programs import Program, Signature
from .specmonads import (
    VIOLATED,
    OutcomeSpace,
    RelSpec,
    _fam_bind,
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

    def rank(self, g: Valuation) -> int:
        """g's position in `valuations()`, which varies the last variable
        fastest: the index of g's entry in a table over this context."""
        r = 0
        for (_, d), v in zip(self.vars, g):
            r = r * d.size + v.index
        return r

    @cached_property
    def count(self) -> int:
        n = 1
        for _, d in self.vars:
            n *= d.size
        return n

    def unrank(self, r: int) -> Valuation:
        """The valuation of rank r."""
        return next(islice(self.valuations(), r, None))


EMPTY_ENV = Env()


def fresh_name(env: Env, base: str) -> str:
    names = {n for n, _ in env.vars}
    if base not in names:
        return base
    k = 2
    while f"{base}{k}" in names:
        k += 1
    return f"{base}{k}"


class Table(tuple):
    """A family given by its values: one entry per valuation of its context,
    in `Env.valuations()` order (a split context's relational family has one
    per pair of valuations, the left one major).  Judgments hold their
    families so, and a rule parameter that varies with the valuation may be
    given so."""

    __slots__ = ()


def _tabulate(env: Env, x) -> Table:
    """A family over env as a Table: a Table is checked for its length, a
    callable is called once per valuation, anything else is a constant."""
    if type(x) is Table:
        if len(x) != env.count:
            raise ValueError(f"a table over this context has {env.count} entries, got {len(x)}")
        return x
    if callable(x):
        return Table(map(x, env.valuations()))
    return Table((x,) * env.count)


def _rows(table: Table, n: int) -> list:
    """A premise's table cut into rows of n entries, one per valuation of
    the conclusion's context, when the premise's context extends it by
    variables with n valuations in all."""
    return [table[i:i + n] for i in range(0, len(table), n)]


def _each(fn, *tables) -> Table:
    """Table(map(fn, *tables)), with fn called once per distinct tuple of
    entries, in the order of their first valuations.  A constant family,
    such as `_tabulate` makes of a constant parameter, is found by
    comparison, which meets identical objects first, and takes one call
    and no hashing.  Otherwise the entries are the memo's keys: pooled
    programs and specs and canonical values hash by identity, plain
    parameters by value.  A table of one entry, or with an unhashable
    one, is mapped plainly."""
    if len(tables[0]) < 2:
        return Table(map(fn, *tables))
    keys = tuple(zip(*tables))
    if keys.count(keys[0]) == len(keys):
        return Table((fn(*keys[0]),) * len(keys))
    try:
        memo = dict.fromkeys(keys)
    except TypeError:   # a list given for a parameter, say
        return Table(map(fn, *tables))
    for k in memo:
        memo[k] = fn(*k)
    return Table(map(memo.__getitem__, keys))


def _firsts(*tables) -> Iterator[Tuple[int, tuple]]:
    """Each valuation's rank and tuple of entries across tables, skipping a
    valuation whose entries an earlier one had: a check made over these
    visits every distinct tuple once, at its first valuation."""
    ranked = enumerate(zip(*tables))
    if len(tables[0]) == 1:
        return ranked
    seen = set()
    return ((i, k) for i, k in ranked if not (k in seen or seen.add(k)))


def _show_valuation(env: Env, rank: int) -> str:
    """The valuation of this rank, for a message."""
    if not env.vars:
        return "the empty context"
    return ", ".join(f"{n}={v.domain.label_of(v.index)}"
                     for (n, _), v in zip(env.vars, env.unrank(rank)))


# State programs and loop programs share the stateful carrier, so an
# observation declared for one accepts the other.
_EFFECT_KIN = {P.STATE: (P.STATE, P.IMP), P.IMP: (P.STATE, P.IMP)}


def _effect_matches(effect: str, declared: str) -> bool:
    return effect == declared or effect in _EFFECT_KIN.get(declared, ())


def _axiom_sigs(r: RuleInstance, effect: str, right: str = "") -> Tuple[Signature, Signature]:
    """An axiom's sig1 and sig2, checked to be of `effect` and `right` (or
    `effect`), or their kin, before anything is built from their domains."""
    sigs = r.need("sig1"), r.need("sig2")
    for name, sig, effect in zip(("sig1", "sig2"), sigs, (effect, right or effect)):
        if not isinstance(sig, Signature) or not _effect_matches(sig.effect, effect):
            raise RuleError(f"{r.rule}: {name} must be a {effect} signature, "
                            f"got {getattr(sig, 'effect', sig)!r}")
    return sigs


# ---------------------------------------------------------------------------
# Rule instances, catalogues and derivations


# Keys read by the running rule body: one set per `Catalogue.apply` call and thread.
_read: ContextVar = ContextVar("_read", default=set())


@dataclass(frozen=True, eq=False)
class RuleInstance:
    rule: str
    params: Dict[str, object] = field(default_factory=dict)

    def need(self, key: str):
        if key not in self.params:
            raise RuleError(f"{self.rule}: missing parameter {key!r}")
        return self.get(key)

    def table(self, key: str, env: Env, default=None) -> Table:
        """Parameter key tabulated over env, or `default`, where one is
        given, in its absence; a Table of another length fails."""
        x = self.need(key) if default is None else self.get(key, default)
        self.check_length(key, x, env.count, "valuations")
        return _tabulate(env, x)

    def check_length(self, key: str, x, count: int, what: str) -> None:
        """Refuse a Table x for parameter key unless it has count entries,
        one per valuation (`what`) of its context."""
        if type(x) is Table and len(x) != count:
            raise RuleError(f"{self.rule}: parameter {key!r} is a table of {len(x)} entries, "
                            f"its context has {count} {what}")

    def get(self, key: str, default=None):
        _read.get().add(key)
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
        """Compute a rule's conclusion from premise judgments.  The body gets
        inst, whose need/get note the keys read in this call's set (`_read`).
        Side conditions always run; what the body builds that is pooled is a
        hit, which builds and checks nothing its key fixes.

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
        read = set()
        token = _read.set(read)
        try:
            concl = build(inst, premises)
        finally:
            _read.reset(token)
        if not read.issuperset(inst.params):
            raise RuleError(f"{inst.rule} does not take a parameter "
                            f"{min(inst.params.keys() - read)!r}")
        return concl

    def derive(self, name: str, premises: Sequence[Derivation] = (), **params) -> Derivation:
        """Apply a rule to sub-derivations, computing the conclusion."""
        inst = RuleInstance(name, params)
        return Derivation(self.apply(inst, [d.conclusion for d in premises]), inst,
                          tuple(premises))


CORE = Catalogue()


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

    The families are Tables over the context's valuations, of Program,
    Program and RelSpec, filled once when the judgment is built
    (`judgment`); checks and the oracle read them, once per distinct
    entry, and rebuild nothing.
    Read one valuation's entries through `c1`, `c2` and `w`.  Closed
    judgments use the empty context, whose single valuation is ().
    Judgments are pooled (`judgment`): one live judgment per observation,
    context and tables, so a rule that recomputes a stated conclusion
    returns that object.
    """

    env: Env
    c1_table: Table
    c2_table: Table
    w_table: Table
    observation: EffectObservation

    def c1(self, g: Valuation = ()) -> Program:
        return self.c1_table[self.env.rank(g)]

    def c2(self, g: Valuation = ()) -> Program:
        return self.c2_table[self.env.rank(g)]

    def w(self, g: Valuation = ()) -> RelSpec:
        return self.w_table[self.env.rank(g)]

    left, right, spec = c1, c2, w

    catalogue: ClassVar[Catalogue] = CORE

    def mismatch(self, computed: "Judgment") -> Optional[str]:
        """How this stated conclusion differs from the rule's own: programs
        up to normalization, specs extensionally in both directions, once
        per distinct entry, naming the first valuation that differs; a spec
        that cannot be compared with the rule's (another carrier or outcome
        space) differs.  None when they agree.  A pooled conclusion that is
        the rule's own object agrees without this; it decides the others,
        such as a hand-built, tampered or unpickled one."""
        if self.env != computed.env:
            return "stated context differs from the rule's conclusion context"
        if not _same_observation(self.observation, computed.observation):
            return (f"stated observation {self.observation.name} differs from "
                    f"{computed.observation.name}")
        for i, (p1, q1, p2, q2, w, w2) in _firsts(
                self.c1_table, computed.c1_table, self.c2_table, computed.c2_table,
                self.w_table, computed.w_table):
            if not P.programs_equal(p1, q1):
                return f"left program differs at {_show_valuation(self.env, i)}"
            if not P.programs_equal(p2, q2):
                return f"right program differs at {_show_valuation(self.env, i)}"
            try:
                v = spec_equiv(w, w2).kind
            except ValueError as e:
                v = str(e)
            if v != "holds":
                return f"conclusion spec differs at {_show_valuation(self.env, i)} ({v})"
        return None

    def oracle(self) -> "OracleVerdict":
        """theta(c1, c2) <= w once per distinct entry, in valuation order, as
        `observations.theta_leq` decides it: fails at the first valuation
        where it does not hold, else holds.  `checked` counts valuations."""
        for i, (p1, p2, w) in _firsts(self.c1_table, self.c2_table, self.w_table):
            v = theta_leq(self.observation, p1, p2, w)
            if v.failed:
                return OracleVerdict("fails", i + 1, self.env.unrank(i), v)
        return OracleVerdict("holds", len(self.w_table))


def judgment(observation: EffectObservation, c1, c2, w, env: Env = EMPTY_ENV) -> Judgment:
    """Build a judgment from families: each a Table over env's valuations, a
    callable of the valuation, called once per valuation here, or a plain
    value.  The judgment is pooled (`programs._intern`) under its
    observation, context and tables: built again, it is the live one, and
    nothing its key fixes is checked again.  Else each Table's length and
    every entry's shapes are checked, once per distinct entry: effects
    against the observation, spec carrier against its target, value domains
    against the program results; a judgment they refuse is not pooled."""
    t1 = c1 if type(c1) is Table else _tabulate(env, c1)
    t2 = c2 if type(c2) is Table else _tabulate(env, c2)
    tw = w if type(w) is Table else _tabulate(env, w)
    return P._intern((Judgment, observation, env, t1, t2, tw),
                     _checked, observation, env, t1, t2, tw)


def _checked(observation: EffectObservation, env: Env, c1: Table, c2: Table, w: Table) -> Judgment:
    for t in (c1, c2, w):
        if len(t) != env.count:
            raise ValueError(f"a table over this context has {env.count} entries, got {len(t)}")
    for _, (p1, p2, w0) in _firsts(c1, c2, w):
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
    return Judgment(env, c1, c2, w, observation)


def _same_observation(o1: EffectObservation, o2: EffectObservation) -> bool:
    # Observations built by different constructor calls close over fresh
    # lambdas, so they compare by identity; the identifying fields are
    # enough, and deeper mismatches surface as carrier errors later.
    return o1 is o2 or (o1.name, o1.left_effect, o1.right_effect, o1.target, o1.strictness) == \
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
    sig1, sig2 = _axiom_sigs(r, obs.left_effect, obs.right_effect)
    env = r.get("env", EMPTY_ENV)
    a1s, a2s = r.table("a1", env), r.table("a2", env)
    c1 = _each(partial(P.ret, sig1), a1s)
    c2 = _each(partial(P.ret, sig2), a2s)
    w = _each(lambda a1, a2: spec_ret(_ret_space(obs.target, sig1, sig2, a1.domain, a2.domain),
                                      a1, a2), a1s, a2s)
    return judgment(obs, c1, c2, w, env)


@CORE.rule("Bind", arity=2)
def _bind_rule(r: RuleInstance, prem) -> Judgment:
    jm, jf = prem
    obs = _shared_obs(prem, "Bind")
    env = jm.env
    if len(jf.env.vars) != len(env.vars) + 2 or jf.env.vars[:len(env.vars)] != env.vars:
        raise RuleError("Bind: second premise context must bind exactly the two result values")
    (x1, dom1), (x2, dom2) = jf.env.vars[-2:]
    # jf's row at a valuation of env binds both values, the left one major
    n2, k = dom2.size, dom1.size * dom2.size
    rows1, rows2 = _rows(jf.c1_table, k), _rows(jf.c2_table, k)
    for i, (m1, m2, f1, f2) in _firsts(jm.c1_table, jm.c2_table, rows1, rows2):
        if m1.result != dom1 or m2.result != dom2:
            raise RuleError(f"Bind: first premise results do not match the bound "
                            f"variables at {_show_valuation(env, i)}")
        for j in range(0, k, n2):
            if not all(P.programs_equal(p, f1[j]) for p in f1[j:j + n2]):
                raise RuleError(f"Bind: left continuation depends on {x2!r}")
        for j in range(n2):
            if not all(P.programs_equal(p, f2[j]) for p in f2[j::n2]):
                raise RuleError(f"Bind: right continuation depends on {x1!r}")
    c1 = _each(lambda m, f: P.bind(m, f[::n2]), jm.c1_table, rows1)
    c2 = _each(lambda m, f: P.bind(m, f[:n2]), jm.c2_table, rows2)
    w = _each(spec_bind, jm.w_table, _rows(jf.w_table, k))
    return judgment(obs, c1, c2, w, env)


@CORE.rule("Weaken", arity=1)
def _weaken_rule(r: RuleInstance, prem) -> Judgment:
    (j,) = prem
    w = r.table("w", j.env)
    for i, (lo, hi) in _firsts(j.w_table, w):
        try:
            v = spec_leq(lo, hi)
        except ValueError as e:   # spec_leq refuses specs over other carriers or spaces
            raise RuleError(f"Weaken: {e} at {_show_valuation(j.env, i)}") from None
        if v.failed:
            raise RuleError(f"Weaken: target spec is not above the premise spec "
                            f"at {_show_valuation(j.env, i)}: {v.note}")
    return judgment(j.observation, j.c1_table, j.c2_table, w, j.env)


# ---------------------------------------------------------------------------
# Pure eliminators

# The boolean eliminator commits to the live branch at each valuation; the
# dead branch's judgment is never consulted there, which is what lets the
# one-sided conditional rules fall out as special cases.


def _picked(picks: Sequence[Tuple[Judgment, int]]) -> Tuple[Table, Table, Table]:
    """The c1, c2 and w tables whose entry at each valuation is that of the
    (judgment, rank) pair picked for it."""
    return (Table(j.c1_table[i] for j, i in picks), Table(j.c2_table[i] for j, i in picks),
            Table(j.w_table[i] for j, i in picks))


@CORE.rule("BoolElim", arity=2)
def _bool_elim(r: RuleInstance, prem) -> Judgment:
    jt, jf = prem
    env = _shared_env(prem, "BoolElim")
    obs = _shared_obs(prem, "BoolElim")
    picks = [(jt if bi else jf, i) for i, bi in enumerate(r.table("b", env))]
    return judgment(obs, *_picked(picks), env)


@CORE.rule("ZeroElim", arity=0)
def _zero_elim(r: RuleInstance, _prem) -> Judgment:
    obs = r.need("observation")
    env = r.get("env", EMPTY_ENV)
    c1, c2, w = (r.table(key, env) for key in ("c1", "c2", "w"))
    for i, (w0,) in _firsts(w):
        if not spec_leq(unsatisfiable(w0.space), w0).holds:
            raise RuleError("ZeroElim: the spec must be everywhere unsatisfiable "
                            f"(the vacuous claim) but is not at {_show_valuation(env, i)}")
    try:
        return judgment(obs, c1, c2, w, env)
    except ValueError as e:   # judgment() refuses shapes the observation does not take
        raise RuleError(f"ZeroElim: {e}") from None


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
    # a valuation's rank is (h * |var| + v) * n + l, where h and l rank the
    # variables before and after var; without var it is h * n + l
    n = Env(env.vars[pos + 1:]).count
    picks = [(prem[v], h * n + l) for h in range(inner.count // n)
             for v in range(dom.size) for l in range(n)]
    return judgment(obs, *_picked(picks), env)


@CORE.rule("IfLeft", "IfRight", arity=2)
def _if_one_side(r: RuleInstance, prem) -> Judgment:
    # IfLeft branches on the left over one right program; IfRight mirrors it
    jt, jf = prem
    env = _shared_env(prem, r.rule)
    obs = _shared_obs(prem, r.rule)
    left = r.rule == "IfLeft"
    shared, kept, other = (("right", jt.c2_table, jf.c2_table) if left
                           else ("left", jt.c1_table, jf.c1_table))
    for i, (p, q) in _firsts(kept, other):
        if not P.programs_equal(p, q):
            raise RuleError(f"{r.rule}: premises must share the {shared} program, "
                            f"differ at {_show_valuation(env, i)}")
    c1, c2, w = _picked([(jt if bi else jf, i) for i, bi in enumerate(r.table("b", env))])
    if left:
        c2 = kept
    else:
        c1 = kept
    return judgment(obs, c1, c2, w, env)


@CORE.rule("IfSync", arity=2)
def _if_sync(r: RuleInstance, prem) -> Judgment:
    jt, jf = prem
    env = _shared_env(prem, "IfSync")
    obs = _shared_obs(prem, "IfSync")
    for i in range(env.count):
        if (jt.c1_table[i].result != jf.c1_table[i].result
                or jt.c2_table[i].result != jf.c2_table[i].result):
            raise RuleError("IfSync: branch results must agree on both sides")
    b1, b2 = r.table("b1", env), r.table("b2", env)
    c1 = Table((jt if b else jf).c1_table[i] for i, b in enumerate(b1))
    c2 = Table((jt if b else jf).c2_table[i] for i, b in enumerate(b2))
    # Guards that disagree contradict the rule's synchronization claim, so
    # the precondition is false there and the spec claims nothing.
    w = Table(unsatisfiable(jt.w_table[i].space) if x1 != x2 else (jt if x1 else jf).w_table[i]
              for i, (x1, x2) in enumerate(zip(b1, b2)))
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
    n = dom.size
    bound, unit = (jm.c1_table, jm.c2_table) if left else (jm.c2_table, jm.c1_table)
    cont, kept = (jf.c1_table, jf.c2_table) if left else (jf.c2_table, jf.c1_table)
    for _, (u, b, row) in _firsts(unit, bound, _rows(kept, n)):
        if not _is_unit_ret(u):
            raise RuleError(f"{r.rule}: first premise {other} side must be the unit return")
        if b.result != dom:
            raise RuleError(f"{r.rule}: first premise {side} result does not match "
                            f"the bound variable")
        if not all(P.programs_equal(p, row[0]) for p in row):
            raise RuleError(f"{r.rule}: {other} program depends on {x!r}")

    def conts(wm: RelSpec, row: tuple) -> tuple:
        # the continuation spec at each middle value pair: jf's at the bound value
        sp = wm.space
        return tuple(row[i1 if left else i2]
                     for i1 in range(sp.a1.size) for i2 in range(sp.a2.size))

    seq = _each(P.bind, bound, _rows(cont, n))
    w = _each(lambda wm, row: spec_bind(wm, conts(wm, row)), jm.w_table, _rows(jf.w_table, n))
    c1, c2 = (seq, Table(kept[::n])) if left else (Table(kept[::n]), seq)
    return judgment(obs, c1, c2, w, env)


# ---------------------------------------------------------------------------
# Stateful axioms

# Each axiom writes its conclusion spec as an explicit demonic table; the
# tests confirm these tables coincide with the observation applied to the
# axiom programs, which is how the specs were found in the first place.


def _beside_return(obs: EffectObservation, left: bool, act, other_sig: Signature, a: Table,
                   w: Table, env: Env) -> Judgment:
    """A one-sided axiom's conclusion: the program (or table) `act` on the
    left (on the right when not `left`) beside a return of the table `a` on
    the other side."""
    ret = _each(partial(P.ret, other_sig), a)
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
    sig1, sig2 = _axiom_sigs(r, P.STATE)
    env = r.get("env", EMPTY_ENV)
    af = r.table("a2" if left else "a1", env)
    sig, other_sig = (sig1, sig2) if left else (sig2, sig1)

    def w(a):
        if left:
            sp = state_space(sig1.state, sig1.state, a.domain, sig2.state)
            return _st_axiom(sp, lambda s1, s2, _a=a.index: sp.st_outcome(s1, s1, _a, s2))
        sp = state_space(a.domain, sig1.state, sig2.state, sig2.state)
        return _st_axiom(sp, lambda s1, s2, _a=a.index: sp.st_outcome(_a, s1, s2, s2))

    return _beside_return(obs, left, P.get_state(sig), other_sig, af, _each(w, af), env)


@CORE.rule("PutL", "PutR", arity=0)
def _put_one_side(r: RuleInstance, _prem) -> Judgment:
    # PutL writes the left state beside a right return; PutR mirrors it
    left = r.rule == "PutL"
    obs = _state_obs(r, r.rule)
    sig1, sig2 = _axiom_sigs(r, P.STATE)
    env = r.get("env", EMPTY_ENV)
    if left:
        sf, af = r.table("s", env), r.table("a2", env)
    else:
        af, sf = r.table("a1", env), r.table("s", env)
    sig, other_sig = (sig1, sig2) if left else (sig2, sig1)

    def w(s, a):
        if left:
            sp = state_space(UNIT, sig1.state, a.domain, sig2.state)
            return _st_axiom(sp, lambda _s1, s2, _t=s.index, _a=a.index: sp.st_outcome(0, _t, _a, s2))
        sp = state_space(a.domain, sig1.state, UNIT, sig2.state)
        return _st_axiom(sp, lambda s1, _s2, _a=a.index, _t=s.index: sp.st_outcome(_a, s1, 0, _t))

    put = _each(lambda s: P.put_unit(sig, s, UNIT_VAL), sf)
    return _beside_return(obs, left, put, other_sig, af, _each(w, sf, af), env)


@CORE.rule("GetSync", arity=0)
def _get_sync(r: RuleInstance, _prem) -> Judgment:
    obs = _state_obs(r, "GetSync")
    sig1, sig2 = _axiom_sigs(r, P.STATE)
    env = r.get("env", EMPTY_ENV)
    sp = state_space(sig1.state, sig1.state, sig2.state, sig2.state)
    w = _st_axiom(sp, lambda s1, s2: sp.st_outcome(s1, s1, s2, s2))
    return judgment(obs, P.get_state(sig1), P.get_state(sig2), w, env)


@CORE.rule("PutSync", arity=0)
def _put_sync(r: RuleInstance, _prem) -> Judgment:
    obs = _state_obs(r, "PutSync")
    sig1, sig2 = _axiom_sigs(r, P.STATE)
    env = r.get("env", EMPTY_ENV)
    s1f, s2f = r.table("s1", env), r.table("s2", env)
    sp = state_space(UNIT, sig1.state, UNIT, sig2.state)

    def w(t1, t2):
        return _st_axiom(sp, lambda _s1, _s2, _t1=t1.index, _t2=t2.index:
                         sp.st_outcome(0, _t1, 0, _t2))

    return judgment(obs, _each(lambda s: P.put_unit(sig1, s, UNIT_VAL), s1f),
                    _each(lambda s: P.put_unit(sig2, s, UNIT_VAL), s2f), _each(w, s1f, s2f), env)


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
    af = r.table("a2" if left else "a1", env)
    sig = P.ndet_sig()

    def w(a):
        if left:
            sp = pure_space(BOOL, a.domain)
            return demonic_spec(sp, [frozenset({a.index, a.domain.size + a.index})])
        sp = pure_space(a.domain, BOOL)
        return demonic_spec(sp, [frozenset({a.index * 2, a.index * 2 + 1})])

    return _beside_return(obs, left, _bool_choice(sig), sig, af, _each(w, af), env)


@CORE.rule("DemonicFailLeft", arity=0)
def _demonic_fail_left(r: RuleInstance, _prem) -> Judgment:
    obs = observation_ndet(FORALL)
    env = r.get("env", EMPTY_ENV)
    result: FiniteDomain = r.need("result")
    a2f = r.table("a2", env)
    sig = P.ndet_sig()
    return judgment(obs, P.fail(sig, result), _each(partial(P.ret, sig), a2f),
                    _each(lambda a: weakest(pure_space(result, a.domain)), a2f), env)


@CORE.rule("Angelic", arity=0)
def _angelic(r: RuleInstance, _prem) -> Judgment:
    obs = observation_ndet(EXISTS)
    env = r.get("env", EMPTY_ENV)
    sig = P.ndet_sig()
    sp = pure_space(BOOL, BOOL)
    w = demand_spec(sp, [[1 << o for o in range(4)]])
    return judgment(obs, _bool_choice(sig), _bool_choice(sig), w, env)


@CORE.rule("Refinement", arity=0)
def _refinement(r: RuleInstance, _prem) -> Judgment:
    # The selection h names, for each left alternative, the right alternative
    # that answers it; the spec demands the postcondition only on those
    # pairs, which is deliberately coarser than the observation itself.
    obs = observation_ndet(FORALL_EXISTS)
    env = r.get("env", EMPTY_ENV)
    dom1: FiniteDomain = r.need("dom1")
    dom2: FiniteDomain = r.need("dom2")
    sig = P.ndet_sig()
    sp = pure_space(dom1, dom2)

    def w(h) -> RelSpec:
        h = tuple(h)
        if len(h) != dom1.size or any(not (0 <= k < dom2.size) for k in h):
            raise RuleError(f"Refinement: h must map {dom1.size} alternatives into "
                            f"{dom2.size}, got {h}")
        return demonic_spec(sp, [frozenset(k * dom2.size + h[k] for k in range(dom1.size))])

    def pick_all(d: FiniteDomain) -> Program:
        return P.pick_fin([P.ret(sig, v) for v in d.values()])

    return judgment(obs, pick_all(dom1), pick_all(dom2), _each(w, r.table("h", env)),
                    env)


# ---------------------------------------------------------------------------
# Exception axioms and the handler rule


@CORE.rule("ThrowL", "ThrowR", arity=0)
def _throw_one_side(r: RuleInstance, _prem) -> Judgment:
    # ThrowL raises on the left beside a right return; ThrowR mirrors it
    left = r.rule == "ThrowL"
    obs = observation_err()
    sig1, sig2 = _axiom_sigs(r, P.EXC)
    env = r.get("env", EMPTY_ENV)
    if left:
        ef = r.table("e1", env)
        result: FiniteDomain = r.need("result1")
        af = r.table("a2", env)
    else:
        af = r.table("a1", env)
        ef = r.table("e2", env)
        result = r.need("result2")
    sig, other_sig = (sig1, sig2) if left else (sig2, sig1)

    def w(a):
        sp = err_space(result, a.domain) if left else err_space(a.domain, result)
        return demonic_spec(sp, [frozenset({sp.err_bad()})])

    raised = _each(lambda e: P.throw(sig, e, result), ef)
    return _beside_return(obs, left, raised, other_sig, af, _each(w, af), env)


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
    p1, p2 = jmain.c1_table[0], jmain.c2_table[0]
    e1dom, e2dom = p1.sig.exc, p2.sig.exc
    a1dom, a2dom = p1.result, p2.result
    _extension(env, jee.env, (e1dom, e2dom), "Catch (exceptional premise)")
    _extension(env, jea.env, (e1dom, a2dom), "Catch (left-raise premise)")
    _extension(env, jae.env, (a1dom, e2dom), "Catch (right-raise premise)")
    # each premise has n1 * n2 entries per valuation of env, the first bound
    # value major: a valuation's rows of them are checked together
    ne1, ne2, na1, na2 = e1dom.size, e2dom.size, a1dom.size, a2dom.size
    n = ne1 * ne2
    rows = [_rows(t, k) for j, k in ((jee, n), (jea, ne1 * na2), (jae, na1 * ne2))
            for t in (j.c1_table, j.c2_table, j.w_table)]

    for _, (m1, m2, ee1, ee2, eew, ea1, ea2, eaw, ae1, ae2, aew) in _firsts(
            jmain.c1_table, jmain.c2_table, *rows):
        if m1.result != a1dom or m2.result != a2dom:
            raise RuleError("Catch: body results must not vary with the context")
        wx0 = eew[0]
        for e1 in range(ne1):
            h1 = ee1[e1 * ne2]
            for e2 in range(ne2):
                if not P.programs_equal(ee1[e1 * ne2 + e2], h1):
                    raise RuleError("Catch: left handler depends on the right exception")
                if not spec_equiv(eew[e1 * ne2 + e2], wx0).holds:
                    raise RuleError("Catch: the exceptional premises must share one spec")
            for a2 in a2dom.values():
                k = e1 * na2 + a2.index
                if not P.programs_equal(ea1[k], h1):
                    raise RuleError("Catch: left handler differs between exceptional premises")
                if not P.programs_equal(ea2[k], P.ret(p2.sig, a2)):
                    raise RuleError("Catch: left-raise premise right side must return its value")
                if not spec_equiv(eaw[k], wx0).holds:
                    raise RuleError("Catch: the exceptional premises must share one spec")
        for e2 in range(ne2):
            h2 = ee2[e2]
            for e1 in range(ne1):
                if not P.programs_equal(ee2[e1 * ne2 + e2], h2):
                    raise RuleError("Catch: right handler depends on the left exception")
            for a1 in a1dom.values():
                k = a1.index * ne2 + e2
                if not P.programs_equal(ae2[k], h2):
                    raise RuleError("Catch: right handler differs between exceptional premises")
                if not P.programs_equal(ae1[k], P.ret(p1.sig, a1)):
                    raise RuleError("Catch: right-raise premise left side must return its value")
                if not spec_equiv(aew[k], wx0).holds:
                    raise RuleError("Catch: the exceptional premises must share one spec")

    # the handlers at a valuation are jee's, the other side's exception at
    # its first value
    c1 = _each(lambda p, h: P.catch(p, h[::ne2]), jmain.c1_table, rows[0])
    c2 = _each(lambda p, h: P.catch(p, h[:ne2]), jmain.c2_table, rows[1])
    w = _each(catch_spec, jmain.w_table, jee.w_table[::n])
    return judgment(obs, c1, c2, w, env)


# ---------------------------------------------------------------------------
# Interactive axioms


def _io_obs(sig1: Signature, sig2: Signature) -> EffectObservation:
    return observation_io(sig1.inp, sig1.out, sig2.inp, sig2.out)


def _one_event_spec(sig1: Signature, sig2: Signature, left: bool, other: Value,
                    steps, rdom: FiniteDomain) -> RelSpec:
    """One side takes one of `steps`, (result, event) pairs, beside a
    return of `other` on the other side: the event is the acting side's
    history in the root entry."""
    if left:
        sp = io_space(rdom, sig1.inp, sig1.out, other.domain, sig2.inp, sig2.out)
        entry = {(x.index * other.domain.size + other.index, (ev,), ()) for x, ev in steps}
    else:
        sp = io_space(other.domain, sig1.inp, sig1.out, rdom, sig2.inp, sig2.out)
        entry = {(other.index * rdom.size + x.index, (), (ev,)) for x, ev in steps}
    return io_demonic_spec(sp, entry)


@CORE.rule("InputL", "InputR", arity=0)
def _input(r: RuleInstance, _prem) -> Judgment:
    # InputL reads on the left beside a right return; InputR mirrors it
    left = r.rule == "InputL"
    sig1, sig2 = _axiom_sigs(r, P.IO)
    env = r.get("env", EMPTY_ENV)
    af = r.table("a2" if left else "a1", env)
    sig, other_sig = (sig1, sig2) if left else (sig2, sig1)
    steps = tuple((i, (P.IN, i)) for i in sig.inp.values())
    w = _each(lambda a: _one_event_spec(sig1, sig2, left, a, steps, sig.inp), af)
    return _beside_return(_io_obs(sig1, sig2), left, P.read_input(sig), other_sig, af, w, env)


@CORE.rule("OutputL", "OutputR", arity=0)
def _output(r: RuleInstance, _prem) -> Judgment:
    # OutputL writes on the left beside a right return; OutputR mirrors it
    left = r.rule == "OutputL"
    sig1, sig2 = _axiom_sigs(r, P.IO)
    env = r.get("env", EMPTY_ENV)
    if left:
        of, af = r.table("o1", env), r.table("a2", env)
    else:
        af, of = r.table("a1", env), r.table("o2", env)
    sig, other_sig = (sig1, sig2) if left else (sig2, sig1)
    w = _each(lambda o, a: _one_event_spec(sig1, sig2, left, a, ((UNIT_VAL, (P.OUT, o)),), UNIT),
              of, af)
    write = _each(lambda o: P.output(sig, o, P.ret(sig, UNIT_VAL)), of)
    return _beside_return(_io_obs(sig1, sig2), left, write, other_sig, af, w, env)


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
    env = jb.env
    b1p, b2p = jb.c1_table[0], jb.c2_table[0]
    if b1p.result != BOOL or b2p.result != BOOL:
        raise RuleError("DoWhileInv: loop bodies must produce booleans")
    if b1p.sig.effect != P.IMP or b2p.sig.effect != P.IMP:
        raise RuleError("DoWhileInv: loop bodies must be iterative programs")
    s1dom, s2dom = b1p.sig.state, b2p.sig.state
    invs = _each(lambda x: _norm_inv(x, s1dom, s2dom), r.table("inv", env))
    for i, (w, x) in _firsts(jb.w_table, invs):
        if not spec_equiv(w, loop_premise_spec(x, s1dom, s2dom)).holds:
            raise RuleError(f"DoWhileInv: premise spec is not the invariant "
                            f"obligation at {_show_valuation(env, i)}")
    c1 = _each(lambda p: P.do_while(p, P.ret(b1p.sig, UNIT_VAL)), jb.c1_table)
    c2 = _each(lambda p: P.do_while(p, P.ret(b2p.sig, UNIT_VAL)), jb.c2_table)
    w = _each(lambda x: loop_conclusion_spec(x, s1dom, s2dom), invs)
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
    pf, qf, df = (r.table(key, env) for key in ("p", "q", "d"))
    sig = P.prob_sig()
    space = prob_space(BOOL, BOOL)

    def coupling(p0, q0, d0):
        """The spec of the coupling d, checked in integers: p, q and the
        weights over one denominator, and one piece of int coefficients
        over the outcomes (b1, b2)."""
        den, (p, q, *ws) = _ints((p0, q0, *(x for row in d0 for x in row)))
        if len(d0) != 2 or any(len(row) != 2 for row in d0):
            raise RuleError("FlipCoupling: d must be a 2x2 table over (left, right) guards")
        if any(x < 0 for x in ws):
            raise RuleError("FlipCoupling: coupling weights must be nonnegative")
        a, b, c, e = ws
        if (a + b, c + e) != (den - p, p) or (a + c, b + e) != (den - q, q):
            first = next(i for i, k in enumerate(zip(pf, qf, df)) if k == (p0, q0, d0))
            raise RuleError(f"FlipCoupling: d is not a coupling of the {P._fraction(p0)} and "
                            f"{P._fraction(q0)} draws at {_show_valuation(env, first)}")
        return _linear(space, den, ((0, (a, b, c, e)),))

    return judgment(obs, _each(partial(P.flip_bool, sig), pf),
                    _each(partial(P.flip_bool, sig), qf), _each(coupling, pf, qf, df), env)


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

    Each rule is applied once per node, to its premises' stored tables,
    working once per distinct entry.  Core judgments are pooled like their
    programs and specs (`programs._intern`), so an honest node's recomputed
    conclusion is the stated object, decided by identity: nothing is
    compared, no program is normalized and no LP runs.  Any other
    conclusion is compared with the stated one once per distinct entry
    (`mismatch`).  A stated spec of another space fails its node, as any
    other difference does."""
    stack, path = [(d, 0)], []     # nodes with the next premise to visit; child indices
    done = set()                   # ids of the nodes replayed so far
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
        bad = None if computed is stated else stated.mismatch(computed)
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
    """Decide a judgment of any kind semantically, once per distinct entry
    (the `oracle` of its type), from the programs and specs its tables
    hold."""
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


# ---------------------------------------------------------------------------
# Random derivations

# The sampler leans on bind chains over axiom leaves, since the bind law is
# where a broken observation or a miscomputed spec would surface; the pure
# eliminators, weakening, and the effect-specific compound rules are mixed
# in at lower rates.


def _val_family(rng: random.Random, env: Env, dom: FiniteDomain, allowed):
    """A constant, or a Table over env that reads one variable: its value,
    or an entry of a random table over its domain.

    `allowed` lists the variable positions this parameter may depend on;
    the bind rules reject families that read across sides, so the sampler
    respects the split up front.
    """
    if allowed and rng.random() < 0.5:
        i = rng.choice(allowed)
        src = env.vars[i][1]
        if src == dom and rng.random() < 0.6:
            return Table(g[i] for g in env.valuations())
        tbl = tuple(dom.value(rng.randrange(dom.size)) for _ in range(src.size))
        return Table(tbl[g[i].index] for g in env.valuations())
    return dom.value(rng.randrange(dom.size))


def _bool_family(rng: random.Random, env: Env, allowed):
    if allowed and rng.random() < 0.6:
        i = rng.choice(allowed)
        k = rng.randrange(env.vars[i][1].size)
        return Table(g[i].index == k for g in env.valuations())
    return rng.random() < 0.5


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
    # a spec above w: w itself, or the unsatisfiable spec at one draw in five
    return unsatisfiable(w.space) if rng.random() < 0.2 else w


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

    Parameters that vary with the valuation are given as Tables, so a
    derivation holds data and no closures.  Each distinct program and spec
    body is one object across the whole tree (`programs._intern`), so the
    tree's tables share them.
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
        obs = observation_io(idom, odom, idom, odom)
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
            a1dom = m.conclusion.c1_table[0].result
            a2dom = m.conclusion.c2_table[0].result
            x = fresh_name(env, "x")
            mid = env.extend((x, a1dom))
            env2 = mid.extend((fresh_name(mid, "y"), a2dom))
            f = gen(env2, sides + ("l", "r"), d - 1, r1, r2, exact)
            return derive("Bind", (m, f))

        if kind == "weaken":
            sub = gen(env, sides, d - 1, r1, r2, exact)
            seed = rng.getrandbits(32)
            target = Table(grow(random.Random(f"{seed}:{g!r}"), w)
                           for g, w in zip(env.valuations(), sub.conclusion.w_table))
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
            top = unsatisfiable(_ret_space(obs.target, sig1, sig2, rr1, rr2))
            return derive("ZeroElim", observation=obs, env=env, c1=p1, c2=p2, w=top)

        if kind == "dowhile":
            body = gen(env, sides, max(d - 2, 1), BOOL, BOOL, exact=True)
            inv = Table(map(loop_invariant, body.conclusion.c1_table, body.conclusion.c2_table))
            prem = derive("Weaken", (body,),
                          w=Table(loop_premise_spec(x, sdom, sdom) for x in inv))
            return derive("DoWhileInv", (prem,), inv=inv)

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
            x = fresh_name(env, "e")
            mid = env.extend((x, edom))
            y = fresh_name(mid, "e")
            z = fresh_name(mid, "a")
            env_ee = env.extend((x, edom), (y, edom))
            env_ea = env.extend((x, edom), (z, a2dom))
            env_ae = env.extend((x, a1dom), (y, edom))

            def read(envx, pos, vals=None):
                # the table over envx of the bound value at pos, or of vals at it
                return Table(g[pos] if vals is None else vals[g[pos].index]
                             for g in envx.valuations())

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
            h1, h2 = read(env_ee, k, h1_vals), read(env_ee, k + 1, h2_vals)
            jee = axiom(env_ee, k1, k2, h1, h1, h2, h2)
            h1 = read(env_ea, k, h1_vals)
            jea = axiom(env_ea, k1, "ret", h1, h1, read(env_ea, k + 1), None)
            h2 = read(env_ae, k + 1, h2_vals)
            jae = axiom(env_ae, "ret", k2, read(env_ae, k), None, h2, h2)

            # one shared handler spec per valuation of env: the union of the
            # three premises' specs over the two bound values there
            ws = [(j.conclusion.w_table, n) for j, n in
                  ((jee, exc_size * exc_size), (jea, exc_size * a2dom.size),
                   (jae, a1dom.size * exc_size))]
            wx = [_union_demands([w for t, n in ws for w in t[i * n:i * n + n]])
                  for i in range(env.count)]

            def target(n):
                return Table(w for w in wx for _ in range(n))

            wee, wea, wae = (derive("Weaken", (j,), w=target(n))
                             for j, (_, n) in zip((jee, jea, jae), ws))
            return derive("Catch", (jmain, wee, wea, wae))

        raise AssertionError(kind)

    env, sides = EMPTY_ENV, ()
    if rng.random() < 0.35:
        env, sides = env.extend(("k", rng.choice(pool[1:]))), ("b",)
    try:
        return gen(env, sides, depth, None, None)
    finally:
        gen = None  # gen's closure holds gen: free the build's closures now, not at a collection


def _union_demands(specs: Sequence[RelSpec]) -> RelSpec:
    """Least spec above every given demonic spec: pointwise union of demands."""
    fams = [[reduce(or_, (d for fam in at for d in fam))] if all(at) else []
            for at in zip(*(w.fams for w in specs))]
    return demand_spec(specs[0].space, fams)
