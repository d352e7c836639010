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

Programs are hash-consed while alive (Filliâtre and Conchon, "Type-safe
modular hash-consing", 2006): a constructor looks its node up in one
process-wide pool, `_POOL`, by signature, result domain, node type and head
by value, and children by identity, before it builds or checks anything, so
there is one live object per distinct tree, and a hit builds nothing.
Equality is identity, and `programs_equal` compares normal forms by
identity.  Fixed and quantitative specs are interned in the same pool by
their bodies (`_intern`, `specmonads`), and While syntax nodes by class and
fields (`whilelang`).  The pool holds weak references: an object leaves it
when its last user drops it.

Only the table `_SHAPES` knows where each node keeps its subtrees:
`_kids(node)` lists them and `_rebuild(node, kids)` puts new ones back.
Through it, `_postorder`, `normalize`, `_graft`, `_throws` and
`count_loops` walk trees with explicit stacks and visit a shared subtree
once, so long programs never raise RecursionError.  The evaluators loop over
their own effect's nodes instead.  `run_imp` serves state and imp alike (a
state program is an imp program without loops), and `_runs` keeps each
program's runs on the program, the one table its observation reads: the
runs from every initial state of a state or imp program, the tagged
outcome of an exc program, the outcome set of an ndet program, the root
outcomes of an io program, and the output distribution of a prob program
as ints over one denominator; a bind's come from its parts' (`bind_runs`).
One fold with a per-node callback would serve the evaluators, but replaying
the 368,684 outermost evaluator calls of one `laws` bench pass took 6.6 s
that way, against 0.93-1.09 s with recursive evaluators and 0.83-0.94 s
with per-effect continuation-stack loops (CPython 3.11).
"""

from __future__ import annotations

import weakref
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


# The helpers pass every field in order, which takes `Canonical`'s fast path.

def state_sig(s: FiniteDomain) -> Signature:
    return Signature(STATE, s, None, None, None)


def exc_sig(e: FiniteDomain) -> Signature:
    return Signature(EXC, None, e, None, None)


def ndet_sig() -> Signature:
    return Signature(NDET, None, None, None, None)


def io_sig(i: FiniteDomain, o: FiniteDomain) -> Signature:
    return Signature(IO, None, None, i, o)


def prob_sig() -> Signature:
    return Signature(PROB, None, None, None, None)


def imp_sig(s: FiniteDomain) -> Signature:
    return Signature(IMP, s, None, None, None)


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
    One live object stands for each distinct tree (`_mk`), so `==` and
    `hash` are identity."""

    __slots__ = ("sig", "result", "node", "depth", "_bind_free", "_runs", "__weakref__")

    def __init__(self, sig: Signature, result: FiniteDomain, node: "Node", depth: int):
        _set_sig(self, sig)
        _set_result(self, result)
        _set_node(self, node)
        _set_depth(self, depth)
        # Whether the tree holds no bind, and so is its own normal form; `_mk`
        # finds that out, and a program made another way is not assumed to.
        _set_bind_free(self, False)
        # The runs, taken once by `_runs` (from each initial state, or the
        # output distribution, or the outcome set, or the tagged outcome):
        # programs never change and the evaluators are pure.  Never pickled.
        _set_runs(self, None)

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __repr__(self):
        return f"Program[{self.sig.effect}:{self.result.name}]({self.node.__class__.__name__}, d={self.depth})"

    def __copy__(self):
        return self   # one live object per tree, which never changes

    def __deepcopy__(self, _memo):
        return self

    def __reduce__(self):
        # pickle rebuilds through the pool, so it returns the live tree; one
        # flat record, each distinct subtree after the kids it names by
        # position, so that pickling does not recurse with the depth
        order = _postorder(self)
        at = {id(q): i for i, q in enumerate(order)}
        return _unflatten, (tuple((q.sig, q.result, _rebuild(q.node, tuple(
            at[id(k)] for k in _kids(q.node)))) for q in order),)


# Programs refuse `__setattr__`, like frozen dataclasses; their own code sets
# a field through its slot's descriptor, which costs less than going through
# `object.__setattr__`.
(_set_sig, _set_result, _set_node, _set_depth, _set_bind_free, _set_runs) = (
    getattr(Program, name).__set__ for name in Program.__slots__[:-1])


# -- the pool ----------------------------------------------------------------

class _Ref(weakref.ref):
    """A pool entry: a weak reference to a live object, and its key."""

    __slots__ = ("key",)


_set_key = _Ref.key.__set__

# One entry per live program, under the key `_pooled` looks up, and per
# live fixed or quantitative spec, under its body (`specmonads`), per live
# core judgment, under its observation, context and tables (`rules`), and
# per live While syntax node, under its class and fields (`whilelang`).  A
# program's key holds its children, which the program keeps alive anyway;
# the entry goes when the program does.  Program constructors and `_mk`
# look the key up first: a hit builds nothing and checks nothing it fixes.
_POOL: dict = {}


def _drop(ref: _Ref, pool=_POOL):
    # The pool is bound here, so an entry leaves the pool it entered even
    # while `_POOL` names another (tests swap in one that keeps nothing).  A
    # key rebuilt after its object died holds the new entry: keep that.
    if pool.get(ref.key) is ref:
        del pool[ref.key]


def _intern(key, make, *args):
    """The live object pooled under key, or else make(*args), pooled there
    now."""
    ref = _POOL.get(key)
    obj = None if ref is None else ref()
    if obj is None:
        obj = make(*args)
        ref = _POOL[key] = _Ref(obj, _drop)
        _set_key(ref, key)
    return obj


def _pooled(*key):
    """The live program pooled under key, else key for `_new`; `_mk` and each
    constructor lay a key out as (sig, result, node class, head, kids)."""
    ref = _POOL.get(key)
    p = None if ref is None else ref()
    return key if p is None else p


def _new(key: tuple, node: Node) -> Program:
    """A new program over node, with its depth and whether it holds no bind,
    pooled under the key `_pooled` missed: the one way a program is pooled."""
    sig, result, _, _, kids = key
    if not isinstance(node, _ALLOWED[sig.effect]):
        raise ValueError(f"{node.__class__.__name__} node not allowed under effect {sig.effect!r}")
    if type(node) is Bind:
        # a bind adds no level of its own: its depth is the longest path
        # through the inner program into a continuation
        p = Program(sig, result, node, max(node.inner.depth + max(c.depth for c in node.cont) - 1, 1))
    else:
        depth, bind_free = 1, True
        for k in kids:
            if k.depth >= depth:
                depth = k.depth + 1
            bind_free = bind_free and k._bind_free
        p = Program(sig, result, node, depth)
        if bind_free:
            _set_bind_free(p, True)
    ref = _POOL[key] = _Ref(p, _drop)
    _set_key(ref, key)
    return p


def _mk(sig: Signature, result: FiniteDomain, node: Node) -> Program:
    kids, _, head, _ = _SHAPES[type(node)]
    p = _pooled(sig, result, type(node), head(node), kids(node))
    return p if type(p) is Program else _new(p, node)


def _unflatten(record) -> Program:
    """The program a `Program.__reduce__` record stands for, built through
    the pool from the leaves up."""
    built: List[Program] = []
    for sig, result, node in record:
        built.append(_mk(sig, result, _rebuild(node, tuple(built[i] for i in _kids(node)))))
    return built[-1]


def _entries(dom: FiniteDomain, f) -> tuple:
    """f's entries over dom, unchecked (`_table` checks); f is a callable on
    Values or a sequence."""
    return tuple(map(f, dom.values())) if callable(f) else tuple(f)


def _table(dom: FiniteDomain, f) -> Tuple[Program, ...]:
    """Total continuation table over dom; f is a callable on Values or a sequence."""
    entries = f if type(f) is tuple else _entries(dom, f)
    if len(entries) != dom.size:
        raise ValueError(f"continuation table has {len(entries)} entries for domain of size {dom.size}")
    return entries


def ret(sig: Signature, value: Value) -> Program:
    p = _pooled(sig, value.domain, Ret, value, ())
    return p if type(p) is Program else _new(p, Ret(value))


def _bind_cont(m: Program, f) -> Tuple[Program, ...]:
    """The table `bind(m, f)` takes, or its refusal; reads m's shape only."""
    cont = _table(m.result, f)
    if not cont:
        raise ValueError("bind needs a nonempty continuation table")
    res = cont[0].result
    for c in cont:
        if c.sig != m.sig or c.result != res:
            raise ValueError("bind continuation entries disagree on signature or result domain")
    return cont


def bind(m: Program, f) -> Program:
    """Explicit bind node; f is a table (callable or sequence) over m.result."""
    cont = _entries(m.result, f)
    p = _pooled(m.sig, cont[0].result if cont else None, Bind, None, (m,) + cont)
    return p if type(p) is Program else _new(p, Bind(m, _bind_cont(m, cont)))


def get(sig: Signature, f) -> Program:
    cont = _entries(sig.state, f)
    p = _pooled(sig, cont[0].result if cont else None, Get, None, cont)
    return p if type(p) is Program else _new(p, Get(_table(sig.state, cont)))


def get_state(sig: Signature) -> Program:
    """get with the identity continuation: returns the current state."""
    return get(sig, lambda s: ret(sig, s))


def put(sig: Signature, state: Value, then: Program) -> Program:
    p = _pooled(sig, then.result, Put, state, (then,))
    if type(p) is tuple and state.domain != sig.state:
        raise ValueError("put state outside the state domain")
    return p if type(p) is Program else _new(p, Put(state, then))


def put_unit(sig: Signature, state: Value, unit_ret: Value) -> Program:
    return put(sig, state, ret(sig, unit_ret))


def throw(sig: Signature, exc: Value, result: FiniteDomain) -> Program:
    p = _pooled(sig, result, Throw, exc, ())
    if type(p) is tuple and exc.domain != sig.exc:
        raise ValueError("thrown exception outside the exception domain")
    return p if type(p) is Program else _new(p, Throw(exc))


def catch(body: Program, f) -> Program:
    handler = _entries(body.sig.exc, f)
    p = _pooled(body.sig, body.result, Catch, None, (body,) + handler)
    if type(p) is tuple:
        for h in _table(body.sig.exc, handler):
            if h.result != body.result:
                raise ValueError("catch handler result domain must match the body")
    return p if type(p) is Program else _new(p, Catch(body, handler))


def choice(left: Program, right: Program) -> Program:
    p = _pooled(left.sig, left.result, Choice, None, (left, right))
    if type(p) is tuple and (left.sig != right.sig or left.result != right.result):
        raise ValueError("choice branches disagree")
    return p if type(p) is Program else _new(p, Choice(left, right))


def fail(sig: Signature, result: FiniteDomain) -> Program:
    p = _pooled(sig, result, Fail, None, ())
    return p if type(p) is Program else _new(p, Fail())


def pick_fin(progs: Sequence[Program]) -> Program:
    progs = tuple(progs)
    if not progs:
        raise ValueError("pick_fin needs at least one alternative (use fail for none)")
    p = _pooled(progs[0].sig, progs[0].result, PickFin, None, progs)
    if type(p) is tuple and any(q.sig != progs[0].sig or q.result != progs[0].result for q in progs):
        raise ValueError("pick_fin alternatives disagree")
    return p if type(p) is Program else _new(p, PickFin(progs))


def inp(sig: Signature, f) -> Program:
    cont = _entries(sig.inp, f)
    p = _pooled(sig, cont[0].result if cont else None, Input, None, cont)
    return p if type(p) is Program else _new(p, Input(_table(sig.inp, cont)))


def read_input(sig: Signature) -> Program:
    return inp(sig, lambda i: ret(sig, i))


def output(sig: Signature, value: Value, then: Program) -> Program:
    p = _pooled(sig, then.result, Output, value, (then,))
    if type(p) is tuple and value.domain != sig.out:
        raise ValueError("output value outside the output domain")
    return p if type(p) is Program else _new(p, Output(value, then))


def _fraction(x) -> Fraction:
    # Fraction(x) of a Fraction still runs the numbers.Rational checks
    return x if type(x) is Fraction else Fraction(x)


def flip(sig: Signature, p, if_false: Program, if_true: Program) -> Program:
    p = _fraction(p)
    q = _pooled(sig, if_false.result, Flip, (p.numerator, p.denominator), (if_false, if_true))
    if type(q) is tuple and not 0 <= p <= 1:
        raise ValueError(f"flip parameter {p} outside [0,1]")
    if type(q) is tuple and if_false.result != if_true.result:
        raise ValueError("flip branches disagree on result domain")
    return q if type(q) is Program else _new(q, Flip(p, (if_false, if_true)))


def flip_bool(sig: Signature, p) -> Program:
    """Bernoulli draw: true with probability p."""
    return flip(sig, p, ret(sig, boolv(False)), ret(sig, boolv(True)))


def do_while(body: Program, then: Program) -> Program:
    p = _pooled(body.sig, then.result, DoWhile, None, (body, then))
    if type(p) is tuple and body.result != BOOL:
        raise ValueError("do_while body must produce a bool")
    if type(p) is tuple and body.sig != then.sig:
        raise ValueError("do_while body and continuation disagree on signature")
    return p if type(p) is Program else _new(p, DoWhile(body, then))


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
    """Equality modulo normalization.  Equal trees are one object, so
    only other pairs are normalized, and their normal forms compare by
    identity too."""
    return p is q or normalize(p) is normalize(q)


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
    """All (result, final history) pairs over every possible input choice,
    from history h: p's root outcomes (`_runs`) with h appended."""
    runs = _runs(p)
    return frozenset((v, e + h) for v, e in runs) if h else runs


def _io_walk(p: Program) -> FrozenSet[Tuple[Value, History]]:
    """p's root outcomes: (result, events newest first) per input choice."""
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
                out.add((n.value, tuple(hist)))
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


def run_prob(p: Program) -> Distribution:
    """p's output distribution: the `Distribution` view of its run."""
    den, weights = _runs(p)
    return Distribution(p.result, tuple(Fraction(w, den) for w in weights))


def _mixed(d: int, weights, cont: Sequence[Program], size: int) -> tuple:
    """cont's prob runs mixed by weights over d, in lowest terms."""
    used = [(x, _runs(cont[i])) for i, x in enumerate(weights) if x]
    k = lcm(*(dc for _, (dc, _) in used))
    den, w = d * k, [0] * size
    for x, (dc, wc) in used:
        f = x * (k // dc)
        for j, y in enumerate(wc):
            if y:
                w[j] += f * y
    g = gcd(den, *w)
    return (den // g, tuple(v // g for v in w)) if g > 1 else (den, tuple(w))


def _prob_run(q: Program) -> tuple:
    """q's run as integer weights over one positive denominator, in lowest
    terms, from the runs of its children."""
    n = q.node
    t = type(n)
    if t is Ret:
        return 1, tuple(int(i == n.value.index) for i in range(q.result.size))
    if t is Flip:
        b, a = n.p.denominator, n.p.numerator
        return _mixed(b, (b - a, a), n.cont, q.result.size)
    if t is Bind:
        return bind_runs(n.inner, n.cont)
    raise TypeError(f"{t.__name__} under prob")


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
      exc         the tagged outcome index: v's index for a normal result
                  v, |result| + e's index for a raised e (`run_exc`)
      io          the frozenset of its root outcomes (`io_outcomes`), one
                  (value, history) per input choice, walked once
    A bind whose parts have run composes their runs (`bind_runs`).
    """
    t = p._runs
    if t is None:
        node, eff = p.node, p.sig.effect
        if (type(node) is Bind and node.inner._runs is not None
                and all(c._runs is not None for c in node.cont)):
            t = bind_runs(node.inner, node.cont)
        elif eff == PROB:
            for q in _postorder(p, lambda n: [k for k in _kids(n) if k._runs is None]):
                _set_runs(q, _prob_run(q))
            return p._runs
        elif eff == NDET:
            t = frozenset(v.index for v in run_ndet(p))
        elif eff == EXC:
            tag, v = run_exc(p)
            t = v.index if tag == OK else p.result.size + v.index
        elif eff == IO:
            t = _io_walk(p)
        else:
            t = tuple(None if r is None else r[0].index * p.sig.state.size + r[1].index
                      for r in (run_imp(p, s) for s in p.sig.state.values()))
        _set_runs(p, t)
    return t


def bind_runs(m: Program, cont: Sequence[Program]):
    """The runs (`_runs`) of `bind(m, cont)`, built from m's and its entries'
    alone: cont[a]'s run from t where m's ends in (a, t), the entries mixed
    by m's weights, the union of the outcome sets m reaches, a raise of e
    passed as |B| + e (B the entries' result), cont[a]'s outcomes from h."""
    r, eff = _runs(m), m.sig.effect
    if eff == NDET:
        return frozenset().union(*[_runs(cont[i]) for i in r])
    if eff == EXC:
        n = m.result.size
        return _runs(cont[r]) if r < n else cont[0].result.size + r - n
    if eff == IO:
        return frozenset().union(*[io_outcomes(cont[a.index], h) for a, h in r])
    if eff == PROB:
        return _mixed(*r, cont, cont[0].result.size)
    n = m.sig.state.size
    return tuple(None if x is None else _runs(cont[x // n])[x % n] for x in r)


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
        o, n = _runs(p), p.result.size
        return (OK, p.result.value(o)) if o < n else (ERR, p.sig.exc.value(o - n))
    if eff == NDET:
        return run_ndet(p)
    if eff == IO:
        return io_outcomes(p)
    if eff == PROB:
        return run_prob(p).weights
    raise ValueError(eff)
