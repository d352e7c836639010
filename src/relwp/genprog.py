"""Exhaustive and random program generation.

Exhaustive enumeration produces every bind-free tree up to a depth bound;
the law batteries pair these up (grafting binds on top) so Bind nodes never
need enumerating themselves.  Random generation covers Bind nodes and bigger
shapes for property tests and the soundness differential.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import chain, product
from typing import Iterator, List, Sequence

from .domains import BOOL, FiniteDomain
from . import programs as P
from .programs import Program, Signature

DEFAULT_FLIPS = (Fraction(0), Fraction(1, 4), Fraction(1, 2))


def _leaves(sig: Signature, result: FiniteDomain) -> List[Program]:
    rets = [P.ret(sig, v) for v in result.values()]
    if sig.effect == P.EXC:
        return rets + [P.throw(sig, e, result) for e in sig.exc.values()]
    if sig.effect == P.NDET:
        return rets + [P.fail(sig, result)]
    return rets


def _grow(sig: Signature, prev: Sequence[Program], bools: Sequence[Program],
          flip_params: Sequence[Fraction], pick_sizes: Sequence[int]) -> Iterator[Program]:
    """Every tree one operation above the pool `prev`, in a fixed order;
    `bools` is the pool of loop bodies (read only under imp)."""
    eff = sig.effect
    if eff in (P.STATE, P.IMP):
        for tbl in product(prev, repeat=sig.state.size):
            yield P.get(sig, tbl)
        for s in sig.state.values():
            for t in prev:
                yield P.put(sig, s, t)
        if eff == P.IMP:
            for b in bools:
                for t in prev:
                    yield P.do_while(b, t)
    elif eff == P.EXC:
        for body in prev:
            for tbl in product(prev, repeat=sig.exc.size):
                yield P.catch(body, tbl)
    elif eff == P.NDET:
        for l in prev:
            for r in prev:
                yield P.choice(l, r)
        for n in pick_sizes:
            for tbl in product(prev, repeat=n):
                yield P.pick_fin(tbl)
    elif eff == P.IO:
        for tbl in product(prev, repeat=sig.inp.size):
            yield P.inp(sig, tbl)
        for o in sig.out.values():
            for t in prev:
                yield P.output(sig, o, t)
    elif eff == P.PROB:
        for p in flip_params:
            for f in prev:
                for t in prev:
                    yield P.flip(sig, p, f, t)


def _levels(sig: Signature, result: FiniteDomain, depth: int, flip_params: Sequence[Fraction],
            pick_sizes: Sequence[int], keep) -> List[Program]:
    """Trees with depth <= depth, grown one level at a time from the leaves;
    `keep` picks, in order, the trees of each level to grow the next from."""
    if depth < 1:
        return []
    doms = [result]
    if sig.effect == P.IMP and BOOL not in doms:
        doms.append(BOOL)
    cur = {res: keep(_leaves(sig, res)) for res in doms}
    for _ in range(depth - 1):
        cur = {res: keep(chain(prev, _grow(sig, prev, cur.get(BOOL, ()), flip_params, pick_sizes)))
               for res, prev in cur.items()}
    return cur[result]


def enumerate_programs(sig: Signature, result: FiniteDomain, depth: int,
                       flip_params: Sequence[Fraction] = DEFAULT_FLIPS,
                       pick_sizes: Sequence[int] = (2,)) -> List[Program]:
    """All bind-free trees of the given effect with depth <= depth."""
    return _levels(sig, result, depth, flip_params, pick_sizes, lambda ps: list(dict.fromkeys(ps)))


def enumerate_classes(sig: Signature, result: FiniteDomain, depth: int,
                      flip_params: Sequence[Fraction] = DEFAULT_FLIPS,
                      pick_sizes: Sequence[int] = (2,)) -> List[Program]:
    """One representative per evaluator-equivalence class of bind-free trees
    with depth <= depth.

    Grows level by level, collapsing each level to class representatives
    before building the next.  The evaluators are compositional (a tree's
    fingerprint is a function of its children's fingerprints), so this loses
    no classes while sidestepping the syntactic blowup of full enumeration.
    Order is deterministic: shallower representatives come first.
    """
    def dedupe(ps) -> List[Program]:
        seen = {}
        for p in ps:
            seen.setdefault(P.semantic_key(p), p)
        return list(seen.values())

    return _levels(sig, result, depth, flip_params, pick_sizes, dedupe)


def random_program(rng: random.Random, sig: Signature, result: FiniteDomain, depth: int,
                   flip_params: Sequence[Fraction] = DEFAULT_FLIPS,
                   pick_sizes: Sequence[int] = (2, 3),
                   allow_bind: bool = True) -> Program:
    """One random tree with depth <= depth (>= 1); includes explicit Bind nodes."""
    eff = sig.effect

    def leaf() -> Program:
        choices = ["ret"]
        if eff == P.EXC:
            choices.append("throw")
        if eff == P.NDET:
            choices.append("fail")
        kind = rng.choice(choices)
        if kind == "throw":
            return P.throw(sig, rng.choice(list(sig.exc.values())), result)
        if kind == "fail":
            return P.fail(sig, result)
        return P.ret(sig, rng.choice(list(result.values())))

    def go(d: int, res: FiniteDomain) -> Program:
        if d <= 1 or rng.random() < 0.25:
            if res is result:
                return leaf()
            return P.ret(sig, rng.choice(list(res.values())))

        ops = {
            P.STATE: ["get", "put"],
            P.IMP: ["get", "put", "dowhile"],
            P.EXC: ["catch", "throw2"],
            P.NDET: ["choice", "pick"],
            P.IO: ["input", "output"],
            P.PROB: ["flip"],
        }[eff]
        if allow_bind:
            ops = ops + ["bind"]
        kind = rng.choice(ops)
        if kind == "bind":
            mid = rng.choice([dom for dom in (result, BOOL, sig.state, sig.exc, sig.inp)
                              if dom is not None])
            m = go(d - 1, mid)
            return P.bind(m, lambda _v: go(d - m.depth if d - m.depth >= 1 else 1, res))
        if kind == "get":
            return P.get(sig, lambda _s: go(d - 1, res))
        if kind == "put":
            return P.put(sig, rng.choice(list(sig.state.values())), go(d - 1, res))
        if kind == "dowhile":
            return P.do_while(go(d - 1, BOOL), go(d - 1, res))
        if kind == "catch":
            return P.catch(go(d - 1, res), lambda _e: go(d - 1, res))
        if kind == "throw2":
            return P.throw(sig, rng.choice(list(sig.exc.values())), res)
        if kind == "choice":
            return P.choice(go(d - 1, res), go(d - 1, res))
        if kind == "pick":
            n = rng.choice(list(pick_sizes))
            return P.pick_fin([go(d - 1, res) for _ in range(n)])
        if kind == "input":
            return P.inp(sig, lambda _i: go(d - 1, res))
        if kind == "output":
            return P.output(sig, rng.choice(list(sig.out.values())), go(d - 1, res))
        if kind == "flip":
            return P.flip(sig, rng.choice(list(flip_params)), go(d - 1, res), go(d - 1, res))
        raise AssertionError(kind)

    try:
        return go(depth, result)
    finally:
        go = None  # go's closure holds go: free the closures now, not at a collection

