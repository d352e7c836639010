"""Free-monad program trees for six effect signatures.

A Program is a finite tree: leaves return values, interior nodes are effect
operations whose continuations are explicit total tables over finite domains
(one subtree per possible answer).  An explicit Bind node is allowed anywhere;
`normalize` grafts it away, and the evaluators handle it directly so that
normalization is a semantic no-op.

Effects and their operations:
    state: get, put            exc: throw, catch      ndet: choice, fail, pick_fin
    io:    input, output       prob: flip             imp:  get, put, do_while

Imp is state plus an iteration construct; do_while(body, k) repeats body while
it returns true, then continues with k.  Divergence is decidable here because
the state space is finite and execution is deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import FrozenSet, Optional, Sequence, Tuple, Union

from .domains import BOOL, FiniteDomain, Value, boolv

STATE, EXC, NDET, IO, PROB, IMP = "state", "exc", "ndet", "io", "prob", "imp"
EFFECTS = (STATE, EXC, NDET, IO, PROB, IMP)


@dataclass(frozen=True)
class Signature:
    """Effect tag plus the parameter domains that tag needs."""

    effect: str
    state: Optional[FiniteDomain] = None
    exc: Optional[FiniteDomain] = None
    inp: Optional[FiniteDomain] = None
    out: Optional[FiniteDomain] = None

    def __post_init__(self):
        if self.effect not in EFFECTS:
            raise ValueError(f"unknown effect {self.effect!r}")
        need = {STATE: ("state",), EXC: ("exc",), IO: ("inp", "out"), IMP: ("state",)}
        for field in need.get(self.effect, ()):
            if getattr(self, field) is None:
                raise ValueError(f"effect {self.effect!r} needs a {field} domain")


def state_sig(s: FiniteDomain) -> Signature:
    return Signature(STATE, state=s)


def exc_sig(e: FiniteDomain) -> Signature:
    return Signature(EXC, exc=e)


def ndet_sig() -> Signature:
    return Signature(NDET)


def io_sig(i: FiniteDomain, o: FiniteDomain) -> Signature:
    return Signature(IO, inp=i, out=o)


def prob_sig() -> Signature:
    return Signature(PROB)


def imp_sig(s: FiniteDomain) -> Signature:
    return Signature(IMP, state=s)


# -- nodes -------------------------------------------------------------------

@dataclass(frozen=True)
class Ret:
    value: Value


@dataclass(frozen=True)
class Bind:
    inner: "Program"
    cont: Tuple["Program", ...]  # indexed by inner result value


@dataclass(frozen=True)
class Get:
    cont: Tuple["Program", ...]  # indexed by state value


@dataclass(frozen=True)
class Put:
    state: Value
    then: "Program"


@dataclass(frozen=True)
class Throw:
    exc: Value


@dataclass(frozen=True)
class Catch:
    body: "Program"
    handler: Tuple["Program", ...]  # indexed by exception value


@dataclass(frozen=True)
class Choice:
    left: "Program"
    right: "Program"


@dataclass(frozen=True)
class Fail:
    pass


@dataclass(frozen=True)
class PickFin:
    cont: Tuple["Program", ...]  # n alternatives, indexed 0..n-1


@dataclass(frozen=True)
class Input:
    cont: Tuple["Program", ...]  # indexed by input value


@dataclass(frozen=True)
class Output:
    value: Value
    then: "Program"


@dataclass(frozen=True)
class Flip:
    p: Fraction  # probability of true
    cont: Tuple["Program", "Program"]  # (false branch, true branch)


@dataclass(frozen=True)
class DoWhile:
    body: "Program"  # result domain Bool
    then: "Program"


Node = Union[Ret, Bind, Get, Put, Throw, Catch, Choice, Fail, PickFin, Input, Output, Flip, DoWhile]

_ALLOWED = {
    STATE: (Ret, Bind, Get, Put),
    EXC: (Ret, Bind, Throw, Catch),
    NDET: (Ret, Bind, Choice, Fail, PickFin),
    IO: (Ret, Bind, Input, Output),
    PROB: (Ret, Bind, Flip),
    IMP: (Ret, Bind, Get, Put, DoWhile),
}


@dataclass(frozen=True)
class Program:
    sig: Signature
    result: FiniteDomain
    node: Node
    depth: int

    def __repr__(self):
        return f"Program[{self.sig.effect}:{self.result.name}]({self.node.__class__.__name__}, d={self.depth})"


def _mk(sig: Signature, result: FiniteDomain, node: Node, depth: int) -> Program:
    if not isinstance(node, _ALLOWED[sig.effect]):
        raise ValueError(f"{node.__class__.__name__} node not allowed under effect {sig.effect!r}")
    return Program(sig, result, node, depth)


def _table(dom: FiniteDomain, f) -> Tuple[Program, ...]:
    """Total continuation table over dom; f is a callable on Values or a sequence."""
    if callable(f):
        entries = tuple(f(v) for v in dom.values())
    else:
        entries = tuple(f)
    if len(entries) != dom.size:
        raise ValueError(f"continuation table has {len(entries)} entries for domain of size {dom.size}")
    return entries


def ret(sig: Signature, value: Value) -> Program:
    return _mk(sig, value.domain, Ret(value), 1)


def bind(m: Program, f) -> Program:
    """Explicit bind node; f is a table (callable or sequence) over m.result."""
    cont = _table(m.result, f)
    if not cont:
        raise ValueError("bind needs a nonempty continuation table")
    res = cont[0].result
    for c in cont:
        if c.sig != m.sig or c.result != res:
            raise ValueError("bind continuation entries disagree on signature or result domain")
    depth = m.depth + max(c.depth for c in cont) - 1
    return _mk(m.sig, res, Bind(m, cont), max(depth, 1))


def get(sig: Signature, f) -> Program:
    cont = _table(sig.state, f)
    return _mk(sig, cont[0].result, Get(cont), 1 + max(c.depth for c in cont))


def get_state(sig: Signature) -> Program:
    """get with the identity continuation: returns the current state."""
    return get(sig, lambda s: ret(sig, s))


def put(sig: Signature, state: Value, then: Program) -> Program:
    return _mk(sig, then.result, Put(state, then), 1 + then.depth)


def put_unit(sig: Signature, state: Value, unit_ret: Value) -> Program:
    return put(sig, state, ret(sig, unit_ret))


def throw(sig: Signature, exc: Value, result: FiniteDomain) -> Program:
    return _mk(sig, result, Throw(exc), 1)


def catch(body: Program, f) -> Program:
    handler = _table(body.sig.exc, f)
    for h in handler:
        if h.result != body.result:
            raise ValueError("catch handler result domain must match the body")
    return _mk(body.sig, body.result, Catch(body, handler),
               1 + max(body.depth, max(h.depth for h in handler)))


def choice(left: Program, right: Program) -> Program:
    if left.sig != right.sig or left.result != right.result:
        raise ValueError("choice branches disagree")
    return _mk(left.sig, left.result, Choice(left, right), 1 + max(left.depth, right.depth))


def fail(sig: Signature, result: FiniteDomain) -> Program:
    return _mk(sig, result, Fail(), 1)


def pick_fin(progs: Sequence[Program]) -> Program:
    progs = tuple(progs)
    if not progs:
        raise ValueError("pick_fin needs at least one alternative (use fail for none)")
    for p in progs:
        if p.sig != progs[0].sig or p.result != progs[0].result:
            raise ValueError("pick_fin alternatives disagree")
    return _mk(progs[0].sig, progs[0].result, PickFin(progs), 1 + max(p.depth for p in progs))


def inp(sig: Signature, f) -> Program:
    cont = _table(sig.inp, f)
    return _mk(sig, cont[0].result, Input(cont), 1 + max(c.depth for c in cont))


def read_input(sig: Signature) -> Program:
    return inp(sig, lambda i: ret(sig, i))


def output(sig: Signature, value: Value, then: Program) -> Program:
    if value.domain != sig.out:
        raise ValueError("output value outside the output domain")
    return _mk(sig, then.result, Output(value, then), 1 + then.depth)


def flip(sig: Signature, p, if_false: Program, if_true: Program) -> Program:
    p = Fraction(p)
    if not 0 <= p <= 1:
        raise ValueError(f"flip parameter {p} outside [0,1]")
    if if_false.result != if_true.result:
        raise ValueError("flip branches disagree on result domain")
    return _mk(sig, if_false.result, Flip(p, (if_false, if_true)),
               1 + max(if_false.depth, if_true.depth))


def flip_bool(sig: Signature, p) -> Program:
    """Bernoulli draw: true with probability p."""
    return flip(sig, p, ret(sig, boolv(False)), ret(sig, boolv(True)))


def do_while(body: Program, then: Program) -> Program:
    if body.result != BOOL:
        raise ValueError("do_while body must produce a bool")
    if body.sig != then.sig:
        raise ValueError("do_while body and continuation disagree on signature")
    return _mk(body.sig, then.result, DoWhile(body, then), 1 + max(body.depth, then.depth))


# -- normalization -----------------------------------------------------------

def _throws(p: Program) -> bool:
    n = p.node
    if isinstance(n, Throw):
        return True
    if isinstance(n, Ret):
        return False
    if isinstance(n, Bind):
        return _throws(n.inner) or any(_throws(c) for c in n.cont)
    if isinstance(n, Catch):
        # a catch can still rethrow from its handler
        return any(_throws(h) for h in n.handler)
    return False


def _graft(p: Program, cont: Tuple[Program, ...], result: FiniteDomain) -> Program:
    """Replace every Ret leaf of normal-form p with the matching table entry.

    catch is not algebraic: pushing a continuation that may throw inside the
    catch would let the handler capture the continuation's exceptions.  In
    that case the bind stays at the spine, which is the normal form here.
    """
    n = p.node
    if isinstance(n, Ret):
        return cont[n.value.index]
    if isinstance(n, Bind):
        # p was normal, so this bind sits over a catch: reassociate rightward
        sub = tuple(_graft(c, cont, result) for c in n.cont)
        depth = n.inner.depth + max(s.depth for s in sub) - 1
        return _mk(p.sig, result, Bind(n.inner, sub), max(depth, 1))
    if isinstance(n, Get):
        sub = tuple(_graft(c, cont, result) for c in n.cont)
        return _mk(p.sig, result, Get(sub), 1 + max(s.depth for s in sub))
    if isinstance(n, Put):
        t = _graft(n.then, cont, result)
        return _mk(p.sig, result, Put(n.state, t), 1 + t.depth)
    if isinstance(n, Throw):
        return _mk(p.sig, result, Throw(n.exc), 1)
    if isinstance(n, Catch):
        if any(_throws(c) for c in cont):
            depth = p.depth + max(c.depth for c in cont) - 1
            return _mk(p.sig, result, Bind(p, cont), max(depth, 1))
        body = _graft(n.body, cont, result)
        handler = tuple(_graft(h, cont, result) for h in n.handler)
        return _mk(p.sig, result, Catch(body, handler),
                   1 + max(body.depth, max(h.depth for h in handler)))
    if isinstance(n, Choice):
        l, r = _graft(n.left, cont, result), _graft(n.right, cont, result)
        return _mk(p.sig, result, Choice(l, r), 1 + max(l.depth, r.depth))
    if isinstance(n, Fail):
        return _mk(p.sig, result, Fail(), 1)
    if isinstance(n, PickFin):
        sub = tuple(_graft(c, cont, result) for c in n.cont)
        return _mk(p.sig, result, PickFin(sub), 1 + max(s.depth for s in sub))
    if isinstance(n, Input):
        sub = tuple(_graft(c, cont, result) for c in n.cont)
        return _mk(p.sig, result, Input(sub), 1 + max(s.depth for s in sub))
    if isinstance(n, Output):
        t = _graft(n.then, cont, result)
        return _mk(p.sig, result, Output(n.value, t), 1 + t.depth)
    if isinstance(n, Flip):
        f, t = _graft(n.cont[0], cont, result), _graft(n.cont[1], cont, result)
        return _mk(p.sig, result, Flip(n.p, (f, t)), 1 + max(f.depth, t.depth))
    if isinstance(n, DoWhile):
        # the loop body result stays bool; only the continuation is grafted
        t = _graft(n.then, cont, result)
        return _mk(p.sig, result, DoWhile(n.body, t), 1 + max(n.body.depth, t.depth))
    raise TypeError(f"unexpected node {n!r}")


def normalize(p: Program) -> Program:
    """Bind-free normal form: unit laws applied, binds pushed into continuations."""
    n = p.node
    if isinstance(n, Ret):
        return p
    if isinstance(n, Bind):
        m = normalize(n.inner)
        cont = tuple(normalize(c) for c in n.cont)
        return _graft(m, cont, p.result)
    if isinstance(n, Get):
        sub = tuple(normalize(c) for c in n.cont)
        return _mk(p.sig, p.result, Get(sub), 1 + max(s.depth for s in sub))
    if isinstance(n, Put):
        t = normalize(n.then)
        return _mk(p.sig, p.result, Put(n.state, t), 1 + t.depth)
    if isinstance(n, Throw):
        return p
    if isinstance(n, Catch):
        body = normalize(n.body)
        handler = tuple(normalize(h) for h in n.handler)
        return _mk(p.sig, p.result, Catch(body, handler),
                   1 + max(body.depth, max(h.depth for h in handler)))
    if isinstance(n, Choice):
        l, r = normalize(n.left), normalize(n.right)
        return _mk(p.sig, p.result, Choice(l, r), 1 + max(l.depth, r.depth))
    if isinstance(n, Fail):
        return p
    if isinstance(n, PickFin):
        sub = tuple(normalize(c) for c in n.cont)
        return _mk(p.sig, p.result, PickFin(sub), 1 + max(s.depth for s in sub))
    if isinstance(n, Input):
        sub = tuple(normalize(c) for c in n.cont)
        return _mk(p.sig, p.result, Input(sub), 1 + max(s.depth for s in sub))
    if isinstance(n, Output):
        t = normalize(n.then)
        return _mk(p.sig, p.result, Output(n.value, t), 1 + t.depth)
    if isinstance(n, Flip):
        f, t = normalize(n.cont[0]), normalize(n.cont[1])
        return _mk(p.sig, p.result, Flip(n.p, (f, t)), 1 + max(f.depth, t.depth))
    if isinstance(n, DoWhile):
        body, t = normalize(n.body), normalize(n.then)
        return _mk(p.sig, p.result, DoWhile(body, t), 1 + max(body.depth, t.depth))
    raise TypeError(f"unexpected node {n!r}")


def programs_equal(p: Program, q: Program) -> bool:
    """Structural equality modulo normalization."""
    return normalize(p) == normalize(q)


# -- evaluators ---------------------------------------------------------------

def run_state(p: Program, s: Value) -> Tuple[Value, Value]:
    n = p.node
    if isinstance(n, Ret):
        return n.value, s
    if isinstance(n, Bind):
        a, s1 = run_state(n.inner, s)
        return run_state(n.cont[a.index], s1)
    if isinstance(n, Get):
        return run_state(n.cont[s.index], s)
    if isinstance(n, Put):
        return run_state(n.then, n.state)
    raise TypeError(f"{n.__class__.__name__} under state")


OK, ERR = "ok", "err"


def run_exc(p: Program) -> Tuple[str, Value]:
    """(\"ok\", v) for a normal result, (\"err\", e) for an uncaught throw."""
    n = p.node
    if isinstance(n, Ret):
        return OK, n.value
    if isinstance(n, Bind):
        tag, v = run_exc(n.inner)
        if tag == ERR:
            return ERR, v
        return run_exc(n.cont[v.index])
    if isinstance(n, Throw):
        return ERR, n.exc
    if isinstance(n, Catch):
        tag, v = run_exc(n.body)
        if tag == ERR:
            return run_exc(n.handler[v.index])
        return OK, v
    raise TypeError(f"{n.__class__.__name__} under exc")


def run_ndet(p: Program) -> FrozenSet[Value]:
    n = p.node
    if isinstance(n, Ret):
        return frozenset((n.value,))
    if isinstance(n, Bind):
        out = set()
        for a in run_ndet(n.inner):
            out |= run_ndet(n.cont[a.index])
        return frozenset(out)
    if isinstance(n, Choice):
        return run_ndet(n.left) | run_ndet(n.right)
    if isinstance(n, Fail):
        return frozenset()
    if isinstance(n, PickFin):
        out = set()
        for c in n.cont:
            out |= run_ndet(c)
        return frozenset(out)
    raise TypeError(f"{n.__class__.__name__} under ndet")


IN, OUT = "in", "out"

Event = Tuple[str, Value]
History = Tuple[Event, ...]  # newest first


class InputExhausted(Exception):
    """Raised when a run demands more inputs than were supplied."""


def run_io(p: Program, inputs: Sequence[Value]) -> Tuple[Value, History]:
    """Deterministic run consuming `inputs` in order; history is newest-first."""

    def go(q: Program, rest: Tuple[Value, ...], h: History) -> Tuple[Value, History, Tuple[Value, ...]]:
        n = q.node
        if isinstance(n, Ret):
            return n.value, h, rest
        if isinstance(n, Bind):
            a, h1, rest1 = go(n.inner, rest, h)
            return go(n.cont[a.index], rest1, h1)
        if isinstance(n, Input):
            if not rest:
                raise InputExhausted(f"program demands an input, none left (history {h})")
            i, rest1 = rest[0], rest[1:]
            return go(n.cont[i.index], rest1, ((IN, i),) + h)
        if isinstance(n, Output):
            return go(n.then, rest, ((OUT, n.value),) + h)
        raise TypeError(f"{n.__class__.__name__} under io")

    v, h, _ = go(p, tuple(inputs), ())
    return v, h


def io_outcomes(p: Program, h: History = ()) -> FrozenSet[Tuple[Value, History]]:
    """All (result, final history) pairs over every possible input choice."""
    n = p.node
    if isinstance(n, Ret):
        return frozenset(((n.value, h),))
    if isinstance(n, Bind):
        out = set()
        for a, h1 in io_outcomes(n.inner, h):
            out |= io_outcomes(n.cont[a.index], h1)
        return frozenset(out)
    if isinstance(n, Input):
        out = set()
        for i, c in zip(p.sig.inp.values(), n.cont):
            out |= io_outcomes(c, ((IN, i),) + h)
        return frozenset(out)
    if isinstance(n, Output):
        return io_outcomes(n.then, ((OUT, n.value),) + h)
    raise TypeError(f"{n.__class__.__name__} under io")


@dataclass(frozen=True)
class Distribution:
    domain: FiniteDomain
    weights: Tuple[Fraction, ...]  # indexed by value

    def __post_init__(self):
        if len(self.weights) != self.domain.size:
            raise ValueError("weight table not total")
        for w in self.weights:
            if not 0 <= w <= 1:
                raise ValueError(f"weight {w} outside [0,1]")
        if sum(self.weights) > 1:
            raise ValueError("total mass exceeds 1")

    def mass(self) -> Fraction:
        return sum(self.weights, Fraction(0))

    def weight(self, v: Value) -> Fraction:
        return self.weights[v.index]

    def support(self) -> Tuple[Value, ...]:
        return tuple(v for v in self.domain.values() if self.weights[v.index] > 0)


def dirac(v: Value) -> Distribution:
    w = [Fraction(0)] * v.domain.size
    w[v.index] = Fraction(1)
    return Distribution(v.domain, tuple(w))


def run_prob(p: Program) -> Distribution:
    n = p.node
    if isinstance(n, Ret):
        return dirac(n.value)
    if isinstance(n, Bind):
        d = run_prob(n.inner)
        acc = [Fraction(0)] * p.result.size
        for a in d.domain.values():
            wa = d.weight(a)
            if wa == 0:
                continue
            sub = run_prob(n.cont[a.index])
            for j, wj in enumerate(sub.weights):
                acc[j] += wa * wj
        return Distribution(p.result, tuple(acc))
    if isinstance(n, Flip):
        df = run_prob(n.cont[0])
        dt = run_prob(n.cont[1])
        acc = tuple((1 - n.p) * wf + n.p * wt for wf, wt in zip(df.weights, dt.weights))
        return Distribution(p.result, acc)
    raise TypeError(f"{n.__class__.__name__} under prob")


def run_imp(p: Program, s: Value) -> Optional[Tuple[Value, Value]]:
    """Deterministic run; None means divergence (a state repeated at a loop head)."""
    n = p.node
    if isinstance(n, Ret):
        return n.value, s
    if isinstance(n, Bind):
        r = run_imp(n.inner, s)
        if r is None:
            return None
        a, s1 = r
        return run_imp(n.cont[a.index], s1)
    if isinstance(n, Get):
        return run_imp(n.cont[s.index], s)
    if isinstance(n, Put):
        return run_imp(n.then, n.state)
    if isinstance(n, DoWhile):
        seen = set()
        cur = s
        while True:
            if cur in seen:
                return None
            seen.add(cur)
            r = run_imp(n.body, cur)
            if r is None:
                return None
            b, cur = r
            if b.index == 0:  # false: leave the loop
                return run_imp(n.then, cur)
    raise TypeError(f"{n.__class__.__name__} under imp")


def reachable_outcomes(p: Program, s: Value) -> Tuple[FrozenSet[Tuple[Value, Value]], bool]:
    """Terminating (result, final state) outcomes from s plus a divergence flag.

    Imp is deterministic, so the set is a singleton or empty; exact on finite
    domains, no fuel parameter.
    """
    r = run_imp(p, s)
    if r is None:
        return frozenset(), True
    return frozenset((r,)), False


def count_loops(p: Program) -> int:
    n = p.node
    if isinstance(n, Ret) or isinstance(n, Throw) or isinstance(n, Fail):
        return 0
    if isinstance(n, Bind):
        return count_loops(n.inner) + sum(count_loops(c) for c in n.cont)
    if isinstance(n, Get):
        return sum(count_loops(c) for c in n.cont)
    if isinstance(n, Put):
        return count_loops(n.then)
    if isinstance(n, DoWhile):
        return 1 + count_loops(n.body) + count_loops(n.then)
    raise TypeError(f"{n.__class__.__name__} under imp")


def semantic_key(p: Program):
    """Evaluator fingerprint: two programs with equal keys are indistinguishable
    by every checker in this package (each observation factors through the
    reference evaluator of its effect)."""
    eff = p.sig.effect
    if eff == STATE:
        return tuple(run_state(p, s) for s in p.sig.state.values())
    if eff == EXC:
        return run_exc(p)
    if eff == NDET:
        return run_ndet(p)
    if eff == IO:
        return io_outcomes(p)
    if eff == PROB:
        return run_prob(p).weights
    if eff == IMP:
        return tuple(run_imp(p, s) for s in p.sig.state.values())
    raise ValueError(eff)


def run_imp_fuel(p: Program, s: Value, fuel: int):
    """Fuel-bounded reference: every loop iteration costs one unit.

    Returns (value, state) on termination within fuel, the string "fuel" on
    exhaustion.  Used only to cross-check run_imp's divergence verdicts.
    """

    def go(q: Program, st: Value, gas: int):
        n = q.node
        if isinstance(n, Ret):
            return (n.value, st), gas
        if isinstance(n, Bind):
            r, gas = go(n.inner, st, gas)
            if r == "fuel":
                return "fuel", gas
            a, s1 = r
            return go(n.cont[a.index], s1, gas)
        if isinstance(n, Get):
            return go(n.cont[st.index], st, gas)
        if isinstance(n, Put):
            return go(n.then, n.state, gas)
        if isinstance(n, DoWhile):
            cur = st
            while True:
                if gas <= 0:
                    return "fuel", gas
                gas -= 1
                r, gas = go(n.body, cur, gas)
                if r == "fuel":
                    return "fuel", gas
                b, cur = r
                if b.index == 0:
                    return go(n.then, cur, gas)
        raise TypeError(f"{n.__class__.__name__} under imp")

    r, _ = go(p, s, fuel)
    return r
