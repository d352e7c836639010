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

Within one check or derivation build (`_EvaluationScope`, opened by
`rules.check_derivation`, `rules.oracle_check` and
`rules.random_derivation`), every program node is built once: `_mk` looks
each node up in the scope's table by its signature, result domain, node
type and head by value, and its children by identity, so two equal
constructions return the very same object and `programs_equal` answers
them at once.  Specs share the same table (`specmonads`), and so do the
judgment families of `rules`.  The table and all it holds go when the
outermost scope closes, so nothing shared outlives it; outside a scope
every constructor builds a new object.

Only the table `_SHAPES` knows where each node keeps its subtrees:
`_kids(node)` lists them and `_rebuild(node, kids)` puts new ones back.
Through it, `_postorder`, `normalize`, `_graft`, `_throws`, `count_loops`,
`==` and `hash` walk trees with explicit stacks and visit a shared subtree
once, so long programs never raise RecursionError.  The evaluators loop over
their own effect's nodes instead.  `run_imp` serves state and imp alike (a
state program is an imp program without loops), and `_runs` keeps each
program's runs on the program, the one table its observation reads: the
runs from every initial state of a state or imp program, the outcome set
of an ndet program, and the output distribution of a prob program as ints
over one denominator, built from its subtrees' runs.  One fold with a
per-node callback would serve the evaluators, but replaying the 368,684
outermost evaluator calls of one `laws` bench pass took 6.6 s that way,
against 0.93-1.09 s with recursive evaluators and 0.83-0.94 s with
per-effect continuation-stack loops (CPython 3.11).
"""

from __future__ import annotations

from contextvars import ContextVar
from dataclasses import FrozenInstanceError, dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import FrozenSet, List, Optional, Sequence, Tuple, Union

from .domains import BOOL, Canonical, FiniteDomain, Value, boolv

STATE, EXC, NDET, IO, PROB, IMP = "state", "exc", "ndet", "io", "prob", "imp"
EFFECTS = (STATE, EXC, NDET, IO, PROB, IMP)


@dataclass(frozen=True, eq=False)
class Signature(Canonical):
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
        for name in need.get(self.effect, ()):
            if getattr(self, name) is None:
                raise ValueError(f"effect {self.effect!r} needs a {name} domain")


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


# node class -> (kids, rebuild from new kids, the rest of the node, index of
# the first tail kid: the kids from there on return the node's own result)
_SHAPES = {
    Ret: (lambda n: (), lambda n, k: n, lambda n: n.value, 0),
    Bind: (lambda n: (n.inner,) + n.cont, lambda n, k: Bind(k[0], k[1:]), lambda n: None, 1),
    Get: (lambda n: n.cont, lambda n, k: Get(k), lambda n: None, 0),
    Put: (lambda n: (n.then,), lambda n, k: Put(n.state, k[0]), lambda n: n.state, 0),
    Throw: (lambda n: (), lambda n, k: n, lambda n: n.exc, 0),
    Catch: (lambda n: (n.body,) + n.handler, lambda n, k: Catch(k[0], k[1:]), lambda n: None, 0),
    Choice: (lambda n: (n.left, n.right), lambda n, k: Choice(k[0], k[1]), lambda n: None, 0),
    Fail: (lambda n: (), lambda n, k: n, lambda n: None, 0),
    PickFin: (lambda n: n.cont, lambda n, k: PickFin(k), lambda n: None, 0),
    Input: (lambda n: n.cont, lambda n, k: Input(k), lambda n: None, 0),
    Output: (lambda n: (n.then,), lambda n, k: Output(n.value, k[0]), lambda n: n.value, 0),
    Flip: (lambda n: n.cont, lambda n, k: Flip(n.p, k), lambda n: (n.p.numerator, n.p.denominator), 0),
    DoWhile: (lambda n: (n.body, n.then), lambda n, k: DoWhile(k[0], k[1]), lambda n: None, 1),
}


def _kids(n: Node) -> Tuple["Program", ...]:
    return _SHAPES[type(n)][0](n)


def _rebuild(n: Node, kids: Tuple["Program", ...]) -> Node:
    return _SHAPES[type(n)][1](n, kids)


def _postorder(p: "Program", below=_kids) -> List["Program"]:
    """The distinct subtrees of p reached through `below` (a node's kids by
    default), by identity, each listed after the ones below it."""
    order: List[Program] = []
    seen = {id(p)}
    path = [p]  # the subtrees being walked, each with the kids it has left
    left = [iter(below(p.node))]
    while left:
        for k in left[-1]:
            if id(k) not in seen:
                seen.add(id(k))
                path.append(k)
                left.append(iter(below(k.node)))
                break
        else:
            left.pop()
            order.append(path.pop())
    return order


class Program:
    """A program tree: its signature, result domain, root node and depth.
    Programs never change, so a check may share one between every place
    that builds it (see `_mk`)."""

    __slots__ = ("sig", "result", "node", "depth", "_hash", "_bind_free", "_runs")

    def __init__(self, sig: Signature, result: FiniteDomain, node: "Node", depth: int):
        _set_sig(self, sig)
        _set_result(self, result)
        _set_node(self, node)
        _set_depth(self, depth)
        # Structural hash, taken on first use.  It is never pickled: it reads
        # identity hashes, which differ between processes.
        _set_hash(self, None)
        # Whether the tree holds no bind, and so is its own normal form; `_mk`
        # finds that out, and a program made another way is not assumed to.
        _set_bind_free(self, False)
        # The runs, taken once by `_runs` (from each initial state, or the
        # output distribution, or the outcome set): programs never change
        # and the evaluators are pure.  Never pickled.
        _set_runs(self, None)

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __repr__(self):
        return f"Program[{self.sig.effect}:{self.result.name}]({self.node.__class__.__name__}, d={self.depth})"

    def __reduce__(self):
        return Program, (self.sig, self.result, self.node, self.depth)

    def __hash__(self):
        if self._hash is None:
            unhashed = lambda n: [k for k in _kids(n) if k._hash is None]
            for q in _postorder(self, unhashed):
                n = q.node
                h = hash((q.sig, q.result, q.depth, type(n), _SHAPES[type(n)][2](n),
                          tuple(k._hash for k in _kids(n))))
                _set_hash(q, h)
        return self._hash

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, Program):
            return NotImplemented
        todo, seen = [(self, other)], set()  # seen: pairs of inner nodes already queued
        while todo:
            p, q = todo.pop()
            n, m = p.node, q.node
            if type(n) is not type(m):
                return False
            kids, _, head, _ = _SHAPES[type(n)]
            a, b = kids(n), kids(m)
            if (p.depth, p.result, p.sig, head(n), len(a)) != (q.depth, q.result, q.sig, head(m), len(b)):
                return False
            if a and (id(p), id(q)) not in seen:
                seen.add((id(p), id(q)))
                todo += [pair for pair in zip(a, b) if pair[0] is not pair[1]]
        return True


# Programs refuse `__setattr__`, like frozen dataclasses; their own code sets
# a field through its slot's descriptor, which costs less than going through
# `object.__setattr__`.
(_set_sig, _set_result, _set_node, _set_depth, _set_hash, _set_bind_free, _set_runs) = (
    getattr(Program, name).__set__ for name in Program.__slots__)


# -- the construction table of a check or build ------------------------------

# The table of the check or derivation build in progress, None while
# neither runs.  One dict holds, under keys that cannot collide:
#   (family, valuation)               judgment families read by `rules._read`
#   ("program", sig, result, ...)     program nodes built by `_mk`
#   ("spec-...", ...)                 specs built by the `specmonads`
#                                     constructors that consult it
_TABLE: ContextVar[Optional[dict]] = ContextVar("relwp_check_table", default=None)


class _EvaluationScope:
    """While open, a check or a derivation build shares what it builds:
    every judgment family is evaluated once per valuation, and every
    program node (`_mk`) and every spec from `spec_ret`, `spec_bind`,
    `linear_spec` and `demand_spec` is built once per distinct
    construction, so an honest replay recomputes the very objects that
    were stated, and a rule reads its premises' families without
    rebuilding them from the leaves.  A nested scope reuses the open one,
    and the table goes when the outermost scope closes, with everything it
    holds: nothing outlives the check or the build."""

    __slots__ = ("token",)

    def __enter__(self):
        self.token = _TABLE.set({}) if _TABLE.get() is None else None

    def __exit__(self, *exc):
        if self.token is not None:
            _TABLE.reset(self.token)


def _mk(sig: Signature, result: FiniteDomain, node: Node) -> Program:
    if not isinstance(node, _ALLOWED[sig.effect]):
        raise ValueError(f"{node.__class__.__name__} node not allowed under effect {sig.effect!r}")
    table = _TABLE.get()
    if table is not None:
        kids, _, head, _ = _SHAPES[type(node)]
        # the stored program keeps its children alive, so their ids stay theirs
        key = ("program", sig, result, type(node), head(node), tuple(map(id, kids(node))))
        p = table.get(key)
        if p is not None:
            return p
    if type(node) is Bind:
        # a bind adds no level of its own: its depth is the longest path
        # through the inner program into a continuation
        p = Program(sig, result, node, max(node.inner.depth + max(c.depth for c in node.cont) - 1, 1))
    else:
        depth, bind_free = 1, True
        for k in _kids(node):
            if k.depth >= depth:
                depth = k.depth + 1
            bind_free = bind_free and k._bind_free
        p = Program(sig, result, node, depth)
        if bind_free:
            _set_bind_free(p, True)
    if table is not None:
        table[key] = p
    return p


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
    return _mk(sig, value.domain, Ret(value))


def bind(m: Program, f) -> Program:
    """Explicit bind node; f is a table (callable or sequence) over m.result."""
    cont = _table(m.result, f)
    if not cont:
        raise ValueError("bind needs a nonempty continuation table")
    res = cont[0].result
    for c in cont:
        if c.sig != m.sig or c.result != res:
            raise ValueError("bind continuation entries disagree on signature or result domain")
    return _mk(m.sig, res, Bind(m, cont))


def get(sig: Signature, f) -> Program:
    cont = _table(sig.state, f)
    return _mk(sig, cont[0].result, Get(cont))


def get_state(sig: Signature) -> Program:
    """get with the identity continuation: returns the current state."""
    return get(sig, lambda s: ret(sig, s))


def put(sig: Signature, state: Value, then: Program) -> Program:
    if state.domain != sig.state:
        raise ValueError("put state outside the state domain")
    return _mk(sig, then.result, Put(state, then))


def put_unit(sig: Signature, state: Value, unit_ret: Value) -> Program:
    return put(sig, state, ret(sig, unit_ret))


def throw(sig: Signature, exc: Value, result: FiniteDomain) -> Program:
    if exc.domain != sig.exc:
        raise ValueError("thrown exception outside the exception domain")
    return _mk(sig, result, Throw(exc))


def catch(body: Program, f) -> Program:
    handler = _table(body.sig.exc, f)
    for h in handler:
        if h.result != body.result:
            raise ValueError("catch handler result domain must match the body")
    return _mk(body.sig, body.result, Catch(body, handler))


def choice(left: Program, right: Program) -> Program:
    if left.sig != right.sig or left.result != right.result:
        raise ValueError("choice branches disagree")
    return _mk(left.sig, left.result, Choice(left, right))


def fail(sig: Signature, result: FiniteDomain) -> Program:
    return _mk(sig, result, Fail())


def pick_fin(progs: Sequence[Program]) -> Program:
    progs = tuple(progs)
    if not progs:
        raise ValueError("pick_fin needs at least one alternative (use fail for none)")
    for p in progs:
        if p.sig != progs[0].sig or p.result != progs[0].result:
            raise ValueError("pick_fin alternatives disagree")
    return _mk(progs[0].sig, progs[0].result, PickFin(progs))


def inp(sig: Signature, f) -> Program:
    cont = _table(sig.inp, f)
    return _mk(sig, cont[0].result, Input(cont))


def read_input(sig: Signature) -> Program:
    return inp(sig, lambda i: ret(sig, i))


def output(sig: Signature, value: Value, then: Program) -> Program:
    if value.domain != sig.out:
        raise ValueError("output value outside the output domain")
    return _mk(sig, then.result, Output(value, then))


def _fraction(x) -> Fraction:
    # Fraction(x) of a Fraction still runs the numbers.Rational checks
    return x if type(x) is Fraction else Fraction(x)


def flip(sig: Signature, p, if_false: Program, if_true: Program) -> Program:
    p = _fraction(p)
    if not 0 <= p <= 1:
        raise ValueError(f"flip parameter {p} outside [0,1]")
    if if_false.result != if_true.result:
        raise ValueError("flip branches disagree on result domain")
    return _mk(sig, if_false.result, Flip(p, (if_false, if_true)))


def flip_bool(sig: Signature, p) -> Program:
    """Bernoulli draw: true with probability p."""
    return flip(sig, p, ret(sig, boolv(False)), ret(sig, boolv(True)))


def do_while(body: Program, then: Program) -> Program:
    if body.result != BOOL:
        raise ValueError("do_while body must produce a bool")
    if body.sig != then.sig:
        raise ValueError("do_while body and continuation disagree on signature")
    return _mk(body.sig, then.result, DoWhile(body, then))


# -- normalization -----------------------------------------------------------

def _throws(p: Program) -> bool:
    """Can p end in an uncaught throw?  A catch can still rethrow from its
    handler, never from its body."""
    below = lambda n: n.handler if type(n) is Catch else _kids(n)
    return any(type(q.node) is Throw for q in _postorder(p, below))


def _graft(p: Program, cont: Tuple[Program, ...], result: FiniteDomain) -> Program:
    """Replace every Ret leaf of normal-form p with the matching table entry.

    Only tail positions are grafted: a bind in p (which sits over a catch,
    p being normal) and a loop keep their inner program and body.  catch is
    not algebraic: pushing a continuation that may throw inside the catch
    would let the handler capture the continuation's exceptions.  In that
    case the bind stays at the spine, which is the normal form here.
    """
    throws = None  # whether some entry of cont may throw, found at the first catch

    def below(n):
        nonlocal throws
        if type(n) is Catch:
            if throws is None:
                throws = any(_throws(c) for c in cont)
            if throws:
                return ()
        kids, _, _, first = _SHAPES[type(n)]
        return kids(n)[first:]

    out = {}
    for q in _postorder(p, below):
        n = q.node
        if type(n) is Ret:
            r = cont[n.value.index]
        elif type(n) is Catch and throws:
            r = _mk(q.sig, result, Bind(q, cont))
        else:
            kids, rebuild, _, first = _SHAPES[type(n)]
            kids = kids(n)
            r = _mk(q.sig, result,
                    rebuild(n, kids[:first] + tuple(out[id(k)] for k in kids[first:])))
        out[id(q)] = r
    return out[id(p)]


def normalize(p: Program) -> Program:
    """Bind-free normal form: unit laws applied, binds pushed into continuations.

    Subtrees that are already normal come back as they are.  A left-nested
    chain of n binds grafts each prefix again, so it costs O(n^2).
    """
    if p._bind_free:
        return p
    out = {}
    for q in _postorder(p, lambda n: [k for k in _kids(n) if not k._bind_free]):
        n = q.node
        if type(n) is Bind:
            r = _graft(out.get(id(n.inner), n.inner),
                       tuple(out.get(id(c), c) for c in n.cont), q.result)
        else:
            r = _mk(q.sig, q.result, _rebuild(n, tuple(out.get(id(k), k) for k in _kids(n))))
        out[id(q)] = r
    return out[id(p)]


def programs_equal(p: Program, q: Program) -> bool:
    """Structural equality modulo normalization.  The same object is equal
    at once: within a check, equal constructions give one object, so an
    honest replay's programs compare in O(1).  Other pairs are normalized
    and walked."""
    return p is q or normalize(p) == normalize(q)


# -- evaluators ---------------------------------------------------------------

OK, ERR = "ok", "err"


def run_exc(p: Program) -> Tuple[str, Value]:
    """(\"ok\", v) for a normal result, (\"err\", e) for an uncaught throw."""
    frames = []  # binds and catches still open around p, innermost last
    while True:
        n = p.node
        t = type(n)
        if t is Ret:
            # a normal result passes the catches and goes to the nearest bind
            while frames and type(frames[-1]) is Catch:
                frames.pop()
            if not frames:
                return OK, n.value
            p = frames.pop().cont[n.value.index]
        elif t is Throw:
            # a throw skips the binds and goes to the nearest handler
            while frames and type(frames[-1]) is Bind:
                frames.pop()
            if not frames:
                return ERR, n.exc
            p = frames.pop().handler[n.exc.index]
        elif t is Bind or t is Catch:
            frames.append(n)
            p = n.inner if t is Bind else n.body
        else:
            raise TypeError(f"{t.__name__} under exc")


def run_ndet(p: Program) -> FrozenSet[Value]:
    out = set()
    # runs still to finish: a node, with the tables of the binds open around
    # it as linked pairs (innermost, rest); a run met before is not redone
    todo, seen = [(p, None)], {}
    while todo:
        run = todo.pop()
        key = (id(run[0]), id(run[1]))
        if key in seen:
            continue
        seen[key] = run  # keeps the pair alive, so its id is not reused
        q, conts = run
        n = q.node
        t = type(n)
        if t is Ret:
            if conts is None:
                out.add(n.value)
            else:
                todo.append((conts[0][n.value.index], conts[1]))
        elif t is Bind:
            todo.append((n.inner, (n.cont, conts)))
        elif t is Choice:
            todo += ((n.left, conts), (n.right, conts))
        elif t is PickFin:
            todo += [(c, conts) for c in n.cont]
        elif t is not Fail:
            raise TypeError(f"{t.__name__} under ndet")
    return frozenset(out)


IN, OUT = "in", "out"

Event = Tuple[str, Value]
History = Tuple[Event, ...]  # newest first


class InputExhausted(Exception):
    """Raised when a run demands more inputs than were supplied."""


def run_io(p: Program, inputs: Sequence[Value]) -> Tuple[Value, History]:
    """Deterministic run consuming `inputs` in order; history is newest-first."""
    unread = list(reversed(inputs))
    conts = []  # tables of the binds still waiting for a result, innermost last
    events = []  # oldest first
    while True:
        n = p.node
        t = type(n)
        if t is Ret:
            if not conts:
                return n.value, tuple(reversed(events))
            p = conts.pop()[n.value.index]
        elif t is Bind:
            conts.append(n.cont)
            p = n.inner
        elif t is Input:
            if not unread:
                raise InputExhausted(f"program demands an input, none left "
                                     f"(history {tuple(reversed(events))})")
            events.append((IN, unread.pop()))
            p = n.cont[events[-1][1].index]
        elif t is Output:
            events.append((OUT, n.value))
            p = n.then
        else:
            raise TypeError(f"{t.__name__} under io")


def io_outcomes(p: Program, h: History = ()) -> FrozenSet[Tuple[Value, History]]:
    """All (result, final history) pairs over every possible input choice."""
    out = set()
    # one run per entry: its program, the tables of its open binds and its
    # events so far, both as linked pairs (newest, rest) shared between runs
    todo = [(p, None, None)]
    while todo:
        q, conts, ev = todo.pop()
        n = q.node
        t = type(n)
        if t is Ret:
            if conts is None:
                hist = []
                while ev is not None:
                    e, ev = ev
                    hist.append(e)
                out.add((n.value, tuple(hist) + h))
            else:
                table, conts = conts
                todo.append((table[n.value.index], conts, ev))
        elif t is Bind:
            todo.append((n.inner, (n.cont, conts), ev))
        elif t is Input:
            todo.extend((c, conts, ((IN, i), ev)) for i, c in zip(q.sig.inp.values(), n.cont))
        elif t is Output:
            todo.append((n.then, conts, ((OUT, n.value), ev)))
        else:
            raise TypeError(f"{t.__name__} under io")
    return frozenset(out)


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
    """p's output distribution: the `Distribution` view of its run."""
    den, weights = _runs(p)
    return Distribution(p.result, tuple(Fraction(w, den) for w in weights))


def _prob_run(q: Program) -> tuple:
    """q's run as integer weights over one positive denominator, in lowest
    terms, from the runs of its children."""
    n = q.node
    t = type(n)
    if t is Ret:
        w = [0] * q.result.size
        w[n.value.index] = 1
        return 1, tuple(w)
    if t is Flip:
        (d0, w0), (d1, w1) = n.cont[0]._runs, n.cont[1]._runs
        b, a = n.p.denominator, n.p.numerator
        m = lcm(d0, d1)
        f0, f1 = (b - a) * (m // d0), a * (m // d1)
        den, w = b * m, [f0 * x + f1 * y for x, y in zip(w0, w1)]
    elif t is Bind:
        d, inner = n.inner._runs
        used = [(x, n.cont[i]._runs) for i, x in enumerate(inner) if x]
        m = lcm(*(dc for _, (dc, _) in used))
        den, w = d * m, [0] * q.result.size
        for x, (dc, wc) in used:
            f = x * (m // dc)
            for j, y in enumerate(wc):
                if y:
                    w[j] += f * y
    else:
        raise TypeError(f"{t.__name__} under prob")
    g = gcd(den, *w)
    return (den // g, tuple(v // g for v in w)) if g > 1 else (den, tuple(w))


def run_imp(p: Program, s: Value) -> Optional[Tuple[Value, Value]]:
    """Deterministic run of a state or imp program; None means divergence
    (a state repeated at a loop head)."""
    # binds still waiting for a result, and loops still running with the
    # states seen at their heads, innermost last
    frames = []
    while True:
        n = p.node
        t = type(n)
        if t is Ret:
            if not frames:
                return n.value, s
            f = frames.pop()
            if type(f) is Bind:
                p = f.cont[n.value.index]
            elif n.value.index == 0:  # false: leave the loop
                p = f[0].then
            elif s in f[1]:
                return None
            else:
                f[1].add(s)
                frames.append(f)
                p = f[0].body
        elif t is Bind:
            frames.append(n)
            p = n.inner
        elif t is Get:
            p = n.cont[s.index]
        elif t is Put:
            s, p = n.state, n.then
        elif t is DoWhile:
            frames.append((n, {s}))
            p = n.body
        else:
            raise TypeError(f"{t.__name__} under imp")


def _runs(p: Program):
    """p's runs, taken once and kept on the program, so every observation
    of it reads one table:
      state, imp  the run from each initial state, as its local outcome
                  index a * |S| + t (value a, final state t), or None where
                  it diverges (`run_imp`)
      prob        (den, weights): the probability of each value, as ints
                  over one positive denominator in lowest terms, built from
                  the runs of the subtrees not yet run, in postorder
      ndet        the frozenset of the indices of the values it may return
    """
    t = p._runs
    if t is None:
        eff = p.sig.effect
        if eff == PROB:
            for q in _postorder(p, lambda n: [k for k in _kids(n) if k._runs is None]):
                _set_runs(q, _prob_run(q))
            return p._runs
        if eff == NDET:
            t = frozenset(v.index for v in run_ndet(p))
        else:
            n = p.sig.state.size
            t = tuple(None if r is None else r[0].index * n + r[1].index
                      for r in (run_imp(p, s) for s in p.sig.state.values()))
        _set_runs(p, t)
    return t


def count_loops(p: Program) -> int:
    """Loop nodes in p, each counted once per place it occurs in the tree."""
    loops = {}
    for q in _postorder(p):
        n = q.node
        loops[id(q)] = (type(n) is DoWhile) + sum(loops[id(k)] for k in _kids(n))
    return loops[id(p)]


def semantic_key(p: Program):
    """Evaluator fingerprint: two programs with equal keys are indistinguishable
    by every checker in this package (each observation factors through the
    reference evaluator of its effect)."""
    eff = p.sig.effect
    if eff == STATE or eff == IMP:
        return tuple(run_imp(p, s) for s in p.sig.state.values())
    if eff == EXC:
        return run_exc(p)
    if eff == NDET:
        return run_ndet(p)
    if eff == IO:
        return io_outcomes(p)
    if eff == PROB:
        return run_prob(p).weights
    raise ValueError(eff)
