"""A small imperative language over finite stores, and relational Hoare logic for it.

The language is the classic one: skip, assignment, sequencing, conditionals,
and while loops, with integer expressions over a declared set of locations.
A store signature fixes the locations and a finite value domain; a store is
then a point of a finite domain and the whole language runs inside the
iterative-program carrier.  `translate` is the call-by-value elaboration: an
assignment reads the store and writes the update, a conditional reads the
store and picks a branch, and a while loop becomes `do_while` of the guarded
body combinator

    do_while (bind guard (fun b. if b then bind body (fun (). ret true)
                                 else ret false))

so divergence is owned by the program carrier, not by the translator.

On top of the translation sit two relational front ends.  `ni_judgment`
states noninterference of a command against itself: stores that agree on the
low-labelled locations lead to final stores that again agree on them, under
the partial-correctness observation.  Its spec is keyed by low views, and
the oracle decides it by low classes, not by store pairs (self-composition
read by classes).  `RHL` is a syntax-directed proof
system whose judgments `{pre} c1 ~ c2 {post}` speak only about store pairs.
It is a catalogue of the one rule engine in `rules`: `apply_rhl_rule` and
`RHL.derive` build conclusions, enforcing each rule's shape and side
conditions, `rules.check_derivation` replays RHL derivations, and
`rules.oracle_check` decides any instance through its translated judgment
(`RHLInstance.judgment`).  Arithmetic wraps
modulo the value-domain size, and comparisons and connectives yield 0 or 1,
so every expression denotes a total function on stores.

Syntax and signatures are canonical, so the rules compare statements,
expressions and signatures by identity.  A syntax node is hash-consed while
alive, like a program: its class is `Canonical`'s, but it lives in the weak
pool `programs._POOL`, so two parses of one text are one object and a
dropped tree leaves the pool.  A store signature is a `Canonical` proper:
few exist, each is validated once, and each keeps its store domain and the
tables every elaboration under it shares.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, fields
from functools import cached_property
from typing import Callable, ClassVar, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from . import observations as O
from . import programs as P
from . import rules as R
from . import specmonads as sm
from .domains import UNIT, UNIT_VAL, Canonical, FiniteDomain, _Pooled, boolv, domain
from .rules import RuleError

LOW, HIGH = "low", "high"


# ---------------------------------------------------------------------------
# Store signatures


@dataclass(frozen=True, eq=False)
class StoreSignature(Canonical):
    """Declared locations over a shared finite value domain.

    The first location is the most significant digit of the packed store
    index.  `labels`, when present, assigns each location a confidentiality
    label, in the locations' order, and is required by the noninterference
    front end only.  A signature is canonical, so one object stands for its
    fields and carries what every elaboration under it shares: its store
    domain and its `_StoreTables`, each built on first use.
    """

    locations: Tuple[str, ...]
    values: FiniteDomain
    labels: Optional[Tuple[Tuple[str, str], ...]] = None

    def __post_init__(self):
        locs = self.locations
        if not locs:
            raise ValueError("need at least one location")
        if len(set(locs)) != len(locs):
            raise ValueError("locations must be distinct")
        if self.labels is not None:
            named = tuple(l for l, _ in self.labels)
            if named != locs:
                raise ValueError(f"labels must name the locations {list(locs)} once each, "
                                 f"in order, not {list(named)}")
            bad = [v for _, v in self.labels if v not in (LOW, HIGH)]
            if bad:
                raise ValueError(f"labels must be {LOW!r} or {HIGH!r}, not {bad[0]!r}")

    def index(self, loc: str) -> int:
        try:
            return self.locations.index(loc)
        except ValueError:
            raise ValueError(f"undeclared location {loc!r}") from None

    def label(self, loc: str) -> str:
        if self.labels is None:
            raise ValueError("store signature carries no security labels")
        return dict(self.labels)[loc]

    @cached_property
    def _domain(self) -> FiniteDomain:
        size = self.values.size ** len(self.locations)
        name = "store[" + ",".join(self.locations) + f":{self.values.size}]"
        labels = None
        if size <= 64:
            labels = tuple(",".join(f"{l}={v}" for l, v in zip(self.locations, _digits(self, i)))
                           for i in range(size))
        return domain(name, size, labels)

    @cached_property
    def _tables(self) -> "_StoreTables":
        sdom, m = self._domain, self.values.size
        strides = {loc: m ** k for k, loc in enumerate(reversed(self.locations))}
        columns = {loc: tuple(s // d % m for s in range(sdom.size)) for loc, d in strides.items()}
        isig = P.imp_sig(sdom)
        unit = P.ret(isig, UNIT_VAL)
        return _StoreTables(strides, columns, unit, P.get_state(isig),
                            tuple(P.put(isig, st, unit) for st in sdom.values()),
                            (P.ret(isig, boolv(False)), P.ret(isig, boolv(True))))


def store_signature(locations: Sequence[str], values: FiniteDomain,
                    labels: Optional[Mapping[str, str]] = None) -> StoreSignature:
    locs = tuple(locations)
    if labels is not None:
        # in the locations' order, so every mapping of one labelling is one
        # signature; a label for no location goes last, and is refused
        order = {l: k for k, l in enumerate(locs)}
        labels = tuple(sorted(labels.items(), key=lambda kv: order.get(kv[0], len(locs))))
    return StoreSignature(locs, values, labels)


def store_domain(sig: StoreSignature) -> FiniteDomain:
    return sig._domain


@dataclass(frozen=True)
class _StoreTables:
    """What every elaboration under one signature shares: each location's
    stride in the packed index and its column (its value at every store),
    and the leaves of the translated programs."""

    strides: Dict[str, int]
    columns: Dict[str, Tuple[int, ...]]
    unit: P.Program                     # ret ()
    read: P.Program                     # get_state
    writes: Tuple[P.Program, ...]       # put s; ret (), for every store s
    bools: Tuple[P.Program, P.Program]  # ret false, ret true

    def column(self, loc: str) -> Tuple[int, ...]:
        try:
            return self.columns[loc]
        except KeyError:
            raise ValueError(f"undeclared location {loc!r}") from None


def _digits(sig: StoreSignature, idx: int) -> Tuple[int, ...]:
    """A store's location values, first location first."""
    out = []
    for _ in sig.locations:
        idx, d = divmod(idx, sig.values.size)
        out.append(d)
    return tuple(reversed(out))


def _check_store(sig: StoreSignature, idx: int) -> None:
    n = sig.values.size ** len(sig.locations)
    if not 0 <= idx < n:
        raise ValueError(f"store index {idx} outside the {n} stores")


def _stride(sig: StoreSignature, loc: str) -> int:
    return sig.values.size ** (len(sig.locations) - 1 - sig.index(loc))


def store_read(sig: StoreSignature, idx: int, loc: str) -> int:
    _check_store(sig, idx)
    return idx // _stride(sig, loc) % sig.values.size


def store_write(sig: StoreSignature, idx: int, loc: str, v: int) -> int:
    _check_store(sig, idx)
    m, stride = sig.values.size, _stride(sig, loc)
    return idx + (v % m - idx // stride % m) * stride


# ---------------------------------------------------------------------------
# Syntax


class _Interned(_Pooled):
    """Calling a syntax class looks its node up in `programs._POOL`, by
    class and fields, the way `Canonical` looks up its own pools."""

    def __call__(cls, *args, **kwargs):
        if kwargs or len(args) != cls._arity:
            args = cls._full_args(args, kwargs)
        return P._intern((cls,) + args, type.__call__, cls, *args)


class _Syntax(Canonical, metaclass=_Interned):
    """A statement or expression.  As with programs, one live node stands
    for each distinct tree, however it is built, so `==` and `hash` are
    identity; the pool holds it weakly, so a dropped tree leaves it."""

    def __repr__(self):
        # the dataclass repr, from an explicit stack: a long tree never recurses
        out, todo = [], [self]  # nodes and text still to show, the next one last
        while todo:
            x = todo.pop()
            if isinstance(x, str):
                out.append(x)
                continue
            parts = [f"{type(x).__name__}("]
            for k, f in enumerate(fields(x)):
                v = getattr(x, f.name)
                parts += [", " * (k > 0) + f"{f.name}=", v if isinstance(v, _Syntax) else repr(v)]
            todo += reversed(parts + [")"])
        return "".join(out)

    def __copy__(self):
        return self   # one live node per tree, which never changes

    def __deepcopy__(self, _memo):
        return self

    def __reduce__(self):
        # pickle rebuilds through the pool, so it returns the live tree; one
        # flat record, as `Program.__reduce__` writes: each distinct node
        # after the nodes its `kids` fields name by position, so that
        # pickling does not recurse with the depth
        at: Dict[int, int] = {}
        record = []
        todo = [(self, False)]
        while todo:
            x, ready = todo.pop()
            if id(x) in at:
                continue
            args = _fields(x)
            kids = tuple(k for k, v in enumerate(args) if isinstance(v, _Syntax))
            if not ready:
                todo += [(x, True)] + [(args[k], False) for k in kids]
                continue
            at[id(x)] = len(record)
            record.append((type(x), tuple(at[id(v)] if k in kids else v
                                          for k, v in enumerate(args)), kids))
        return _unflatten_syntax, (tuple(record),)


def _fields(x: _Syntax) -> tuple:
    return tuple(getattr(x, f.name) for f in fields(x))


def _unflatten_syntax(record) -> _Syntax:
    """The node a `_Syntax.__reduce__` record stands for, built through the
    pool from the leaves up: `kids` lists the fields that name an earlier
    node by its position."""
    built: List[_Syntax] = []
    for cls, args, kids in record:
        built.append(cls(*(built[v] if k in kids else v for k, v in enumerate(args))))
    return built[-1]


_syntax = dataclass(frozen=True, eq=False, repr=False)


@_syntax
class Lit(_Syntax):
    value: int


@_syntax
class Loc(_Syntax):
    name: str


@_syntax
class Not(_Syntax):
    arg: "Expr"


@_syntax
class BinOp(_Syntax):
    op: str
    left: "Expr"
    right: "Expr"


Expr = Union[Lit, Loc, Not, BinOp]


@_syntax
class Skip(_Syntax):
    pass


@_syntax
class Assign(_Syntax):
    loc: str
    expr: Expr


@_syntax
class Seq(_Syntax):
    first: "Stmt"
    second: "Stmt"


@_syntax
class If(_Syntax):
    cond: Expr
    then: "Stmt"
    els: "Stmt"


@_syntax
class While(_Syntax):
    cond: Expr
    body: "Stmt"


Stmt = Union[Skip, Assign, Seq, If, While]

# Arithmetic wraps modulo the value-domain size; comparisons and the
# connectives return 0 or 1, and any nonzero value counts as true.
_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul,
        "=": operator.eq, "<": operator.lt, "<=": operator.le,
        "&&": lambda a, b: bool(a and b), "||": lambda a, b: bool(a or b)}


def expr_locations(e: Expr) -> frozenset:
    out, todo = set(), [e]
    while todo:
        x = todo.pop()
        if isinstance(x, Loc):
            out.add(x.name)
        elif isinstance(x, Not):
            todo.append(x.arg)
        elif isinstance(x, BinOp):
            todo += (x.left, x.right)
        elif not isinstance(x, Lit):
            raise TypeError(f"not an expression: {x!r}")
    return frozenset(out)


def _statements(s: Stmt) -> List[Stmt]:
    """s and every statement inside it, each listed after its parent."""
    out, todo = [], [s]
    while todo:
        x = todo.pop()
        out.append(x)
        if isinstance(x, Seq):
            todo += (x.first, x.second)
        elif isinstance(x, If):
            todo += (x.then, x.els)
        elif isinstance(x, While):
            todo.append(x.body)
        elif not isinstance(x, (Skip, Assign)):
            raise TypeError(f"not a statement: {x!r}")
    return out


def stmt_locations(s: Stmt) -> frozenset:
    out = set()
    for x in _statements(s):
        if isinstance(x, Assign):
            out |= {x.loc} | expr_locations(x.expr)
        elif isinstance(x, (If, While)):
            out |= expr_locations(x.cond)
    return frozenset(out)


# ---------------------------------------------------------------------------
# Concrete syntax

# stmt  ::= "skip" | IDENT ":=" expr | stmt ";" stmt
#         | "if" expr "then" stmt "else" stmt
#         | "while" expr "do" stmt | "(" stmt ")"
# expr  ::= NAT | IDENT | expr OP expr | "!" expr | "(" expr ")"
#
# ";" binds loosest and associates right; if/while bodies extend as far
# right as possible.  Operator precedence, tightest first:
# "!", "*", "+"/"-", comparisons (non-associative), "&&", "||".
#
# The parser recurses once per level of "(", "if" and "while" nesting, so
# that nesting is capped; ";" chains and operator chains are read in loops
# and may be as long as memory allows.

_MAX_NESTING = 100


class ParseError(ValueError):
    def __init__(self, line: int, col: int, msg: str):
        super().__init__(f"line {line}, column {col}: {msg}")
        self.line = line
        self.col = col


_KEYWORDS = ("skip", "if", "then", "else", "while", "do")
_SYMBOLS = (":=", "<=", "&&", "||", ";", "(", ")", "+", "-", "*", "=", "<", "!")


@dataclass(frozen=True)
class _Tok:
    kind: str  # "nat" | "ident" | "kw" | "sym" | "eof"
    text: str
    line: int
    col: int


def _lex(text: str) -> List[_Tok]:
    toks: List[_Tok] = []
    line, col = 1, 1
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            i, line, col = i + 1, line + 1, 1
            continue
        if ch in " \t\r":
            i, col = i + 1, col + 1
            continue
        if text.startswith("//", i):
            while i < n and text[i] != "\n":
                i += 1
            continue
        if ch == "−":  # minus sign, accepted as "-"
            toks.append(_Tok("sym", "-", line, col))
            i, col = i + 1, col + 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            toks.append(_Tok("nat", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            kind = "kw" if word in _KEYWORDS else "ident"
            toks.append(_Tok(kind, word, line, col))
            col += j - i
            i = j
            continue
        for s in _SYMBOLS:
            if text.startswith(s, i):
                toks.append(_Tok("sym", s, line, col))
                i, col = i + len(s), col + len(s)
                break
        else:
            raise ParseError(line, col, f"unexpected character {ch!r}")
    toks.append(_Tok("eof", "", line, col))
    return toks


class _Parser:
    def __init__(self, toks: List[_Tok]):
        self.toks = toks
        self.pos = 0
        self.depth = 0  # open "(", "if" and "while" levels

    def peek(self) -> _Tok:
        return self.toks[self.pos]

    def take(self) -> _Tok:
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def at(self, text: str) -> bool:
        """At the keyword or symbol `text` (their spellings never overlap)."""
        t = self.peek()
        return t.kind in ("kw", "sym") and t.text == text

    def expect(self, text: str) -> None:
        t = self.peek()
        if not self.at(text):
            raise ParseError(t.line, t.col, f"expected {text!r}, found {self._show(t)}")
        self.take()

    @staticmethod
    def _show(t: _Tok) -> str:
        return "end of input" if t.kind == "eof" else repr(t.text)

    def enter(self) -> None:
        """Take an opening "(", "if" or "while": one more level of nesting."""
        t = self.take()
        if self.depth == _MAX_NESTING:
            raise ParseError(t.line, t.col, f"nesting deeper than {_MAX_NESTING} levels")
        self.depth += 1

    # statements

    def stmt(self) -> Stmt:
        items = [self.stmt_atom()]
        while self.at(";"):
            self.take()
            items.append(self.stmt_atom())
        out = items.pop()
        while items:
            out = Seq(items.pop(), out)
        return out

    def stmt_atom(self) -> Stmt:
        t = self.peek()
        if self.at("skip"):
            self.take()
            return Skip()
        if t.kind == "ident":
            self.take()
            self.expect(":=")
            return Assign(t.text, self.expr())
        if not (self.at("if") or self.at("while") or self.at("(")):
            raise ParseError(t.line, t.col, f"expected a statement, found {self._show(t)}")
        self.enter()
        if t.text == "if":
            cond = self.expr()
            self.expect("then")
            then = self.stmt()
            self.expect("else")
            out = If(cond, then, self.stmt())
        elif t.text == "while":
            cond = self.expr()
            self.expect("do")
            out = While(cond, self.stmt())
        else:
            out = self.stmt()
            self.expect(")")
        self.depth -= 1
        return out

    # expressions, loosest first

    def expr(self) -> Expr:
        left = self.expr_and()
        while self.at("||"):
            self.take()
            left = BinOp("||", left, self.expr_and())
        return left

    def expr_and(self) -> Expr:
        left = self.expr_cmp()
        while self.at("&&"):
            self.take()
            left = BinOp("&&", left, self.expr_cmp())
        return left

    def expr_cmp(self) -> Expr:
        left = self.expr_add()
        for op in ("<=", "<", "="):
            if self.at(op):
                self.take()
                return BinOp(op, left, self.expr_add())
        return left

    def expr_add(self) -> Expr:
        left = self.expr_mul()
        while self.at("+") or self.at("-"):
            op = self.take().text
            left = BinOp(op, left, self.expr_mul())
        return left

    def expr_mul(self) -> Expr:
        left = self.expr_unary()
        while self.at("*"):
            self.take()
            left = BinOp("*", left, self.expr_unary())
        return left

    def expr_unary(self) -> Expr:
        nots = 0
        while self.at("!"):
            self.take()
            nots += 1
        out = self.expr_primary()
        for _ in range(nots):
            out = Not(out)
        return out

    def expr_primary(self) -> Expr:
        t = self.peek()
        if t.kind == "nat":
            self.take()
            return Lit(int(t.text))
        if t.kind == "ident":
            self.take()
            return Loc(t.text)
        if self.at("("):
            self.enter()
            inner = self.expr()
            self.expect(")")
            self.depth -= 1
            return inner
        raise ParseError(t.line, t.col, f"expected an expression, found {self._show(t)}")


def parse_while(text: str) -> Stmt:
    p = _Parser(_lex(text))
    out = p.stmt()
    t = p.peek()
    if t.kind != "eof":
        raise ParseError(t.line, t.col, f"trailing input, found {p._show(t)}")
    return out


_PREC = {"||": 1, "&&": 2, "=": 3, "<": 3, "<=": 3, "+": 4, "-": 4, "*": 5}


def show_expr(e: Expr, at: int = 0) -> str:
    out = []
    todo = [(e, at)]  # (expression or text, precedence it is shown at)
    while todo:
        x, at = todo.pop()
        if isinstance(x, str):
            out.append(x)
        elif isinstance(x, Lit):
            out.append(str(x.value))
        elif isinstance(x, Loc):
            out.append(x.name)
        elif isinstance(x, Not):
            todo += ((x.arg, 6), ("!", 0))
        elif isinstance(x, BinOp):
            p = _PREC[x.op]
            # comparisons are non-associative, so both sides render one level up
            lk = p if x.op not in ("=", "<", "<=") else p + 1
            parts = [(x.left, lk), (f" {x.op} ", 0), (x.right, p + 1)]
            if p < at:
                parts = [("(", 0)] + parts + [(")", 0)]
            todo += reversed(parts)
        else:
            raise TypeError(f"not an expression: {x!r}")
    return "".join(out)


def show_stmt(s: Stmt) -> str:
    out = []
    todo = [s]  # statements still to show, or text, the next one last
    while todo:
        x = todo.pop()
        if isinstance(x, str):
            out.append(x)
        elif isinstance(x, Skip):
            out.append("skip")
        elif isinstance(x, Assign):
            out.append(f"{x.loc} := {show_expr(x.expr)}")
        elif isinstance(x, Seq):
            # the left of a ";" must stop there, so compound heads get parens
            head = [x.first]
            if isinstance(x.first, (Seq, If, While)):
                head = ["(", x.first, ")"]
            todo += reversed(head + ["; ", x.second])
        elif isinstance(x, If):
            todo += (x.els, " else ", x.then, f"if {show_expr(x.cond)} then ")
        elif isinstance(x, While):
            todo += (x.body, f"while {show_expr(x.cond)} do ")
        else:
            raise TypeError(f"not a statement: {x!r}")
    return "".join(out)


# ---------------------------------------------------------------------------
# Expression evaluation


def eval_expr(sig: StoreSignature, e: Expr, store: int) -> int:
    m = sig.values.size
    vals = []
    todo = [e]  # expressions still to evaluate, and operators waiting for their operands
    while todo:
        x = todo.pop()
        t = type(x)
        if t is str:
            b = vals.pop()
            vals.append((0 if b else 1) % m if x == "!" else _OPS[x](vals.pop(), b) % m)
        elif t is Lit:
            vals.append(x.value % m)
        elif t is Loc:
            vals.append(store_read(sig, store, x.name))
        elif t is Not:
            todo += ("!", x.arg)
        elif t is BinOp and x.op in _OPS:
            todo += (x.op, x.right, x.left)
        else:
            raise TypeError(f"not an expression: {x!r}")
    return vals.pop()


def truthy(v: int) -> bool:
    return v != 0


def expr_table(sig: StoreSignature, e: Expr) -> Tuple[int, ...]:
    """e's value at every store, by one explicit-stack walk: a location is
    its column, a literal is the same at every store, and an operator
    combines its operands' tables elementwise modulo the value size.
    `eval_expr` is the same function one store at a time."""
    t = sig._tables
    m, n = sig.values.size, store_domain(sig).size
    one = 1 % m
    vals = []
    todo = [e]  # expressions still to evaluate, and operators waiting for their operands
    while todo:
        x = todo.pop()
        k = type(x)
        if k is str:
            b = vals.pop()
            if x == "!":
                vals.append([0 if v else one for v in b])
            else:
                vals.append([v % m for v in map(_OPS[x], vals.pop(), b)])
        elif k is Lit:
            vals.append((x.value % m,) * n)
        elif k is Loc:
            vals.append(t.column(x.name))
        elif k is Not:
            todo += ("!", x.arg)
        elif k is BinOp and x.op in _OPS:
            todo += (x.op, x.right, x.left)
        else:
            raise TypeError(f"not an expression: {x!r}")
    return tuple(vals.pop())


def assign_table(sig: StoreSignature, loc: str, e: Expr) -> Tuple[int, ...]:
    """The store that `loc := e` steps to from every store."""
    t = sig._tables
    col, stride = t.column(loc), t.strides[loc]
    return tuple(s + (v - c) * stride for s, (v, c) in enumerate(zip(expr_table(sig, e), col)))


def guard_table(sig: StoreSignature, e: Expr) -> Tuple[bool, ...]:
    return tuple(v != 0 for v in expr_table(sig, e))


# ---------------------------------------------------------------------------
# Elaboration into the iterative carrier


def translate(ast: Stmt, sig: StoreSignature) -> P.Program:
    """Call-by-value elaboration of a statement into a unit-valued program.

    An assignment reads the store and writes the update, a conditional
    reads the store and picks a branch, and a loop becomes `do_while` over
    the combinator that reads the guard, runs the body when it holds, and
    reports whether to go around again.  Each expression is evaluated once
    over all stores (`expr_table`, `assign_table`), and the leaves (the
    read, the writes, unit and the bools) are built once per signature and
    shared by every translation under it.  Parsing is signature-free, so
    undeclared locations surface here.
    """
    missing = sorted(stmt_locations(ast) - set(sig.locations))
    if missing:
        raise ValueError(f"undeclared location {missing[0]!r}")
    t = sig._tables
    unit, read, writes, bools = t.unit, t.read, t.writes, t.bools

    # read backwards, every statement comes after those inside it, whose
    # translations are then the last ones on `done`
    done: List[P.Program] = []
    for s in reversed(_statements(ast)):
        if isinstance(s, Skip):
            r = unit
        elif isinstance(s, Assign):
            r = P.bind(read, [writes[k] for k in assign_table(sig, s.loc, s.expr)])
        elif isinstance(s, Seq):
            second, first = done.pop(), done.pop()
            r = P.bind(first, (second,))
        elif isinstance(s, If):
            els, then = done.pop(), done.pop()
            r = P.bind(read, [then if g else els for g in guard_table(sig, s.cond)])
        else:
            body = P.bind(done.pop(), (bools[True],))
            guard = P.bind(read, [bools[g] for g in guard_table(sig, s.cond)])
            r = P.do_while(P.bind(guard, (bools[False], body)), unit)
        done.append(r)
    return done.pop()


def run_stmt(sig: StoreSignature, ast: Stmt, store: int) -> Optional[int]:
    """Final store of a run, or None when the statement diverges.

    Statements are deterministic over a finite store, so a loop diverges
    exactly when a store repeats while its guard still holds; this decides
    termination without fuel.
    """
    _check_store(sig, store)   # rejects a store outside the domain, read or not
    # statements still to run, the next one last; a running loop is
    # (loop, stores seen at its head)
    todo = [ast]
    while todo:
        s = todo.pop()
        if isinstance(s, tuple):
            loop, seen = s
            if truthy(eval_expr(sig, loop.cond, store)):
                if store in seen:
                    return None
                seen.add(store)
                todo += (s, loop.body)
        elif isinstance(s, Seq):
            todo += (s.second, s.first)
        elif isinstance(s, Assign):
            store = store_write(sig, store, s.loc, eval_expr(sig, s.expr, store))
        elif isinstance(s, If):
            todo.append(s.then if truthy(eval_expr(sig, s.cond, store)) else s.els)
        elif isinstance(s, While):
            todo.append((s, set()))
        elif not isinstance(s, Skip):
            raise TypeError(f"not a statement: {s!r}")
    return store


# ---------------------------------------------------------------------------
# Noninterference


def ni_judgment(ast: Stmt, sig: StoreSignature) -> R.Judgment:
    """The command against itself: low-equivalent runs stay low-equivalent.

    Stated under the partial-correctness observation, so diverging runs
    satisfy the claim vacuously.  Low equivalence is the kernel of each
    store's low view, read on initial and on final stores, so the spec is a
    `kernel_spec` keyed by the low views, |S| keys, and the oracle decides
    it class by class: every terminating run from one low class of initial
    stores must end in one low class.
    """
    if sig.labels is None:
        raise ValueError("noninterference needs a labelled store signature")
    c = translate(ast, sig)
    t, sdom = sig._tables, store_domain(sig)
    # one key per store for its low view: the low digits, read off their columns
    keys = [0] * sdom.size
    for loc in sig.locations:
        if sig.label(loc) == LOW:
            keys = [k + v * t.strides[loc] for k, v in zip(keys, t.columns[loc])]
    return R.judgment(O.observation_part(), c, c,
                      sm.kernel_spec(sm.state_space(UNIT, sdom, UNIT, sdom), keys, keys, keys, keys))


# ---------------------------------------------------------------------------
# Relational Hoare judgments
#
# Pre- and postconditions are truth tables over store pairs, indexed
# s1 * size + s2.  The judgment {pre} c1 ~ c2 {post} means: under the
# partial-correctness observation, related initial stores that both
# terminate end in related final stores.


def rel_table(sig: StoreSignature, fn: Callable[[int, int], bool]) -> Tuple[bool, ...]:
    n = store_domain(sig).size
    return tuple(bool(fn(i, j)) for i in range(n) for j in range(n))


RHL = R.Catalogue()


def rhl_rule_names() -> Tuple[str, ...]:
    return RHL.names()


def apply_rhl_rule(name: str, premises: Sequence["RHLInstance"] = (), **params) -> "RHLInstance":
    return RHL.apply(R.RuleInstance(name, params), premises)


@dataclass(frozen=True)
class RHLInstance:
    """One judgment {pre} left ~ right {post} over a shared store signature."""

    sig: StoreSignature
    left: Stmt
    right: Stmt
    pre: Tuple[bool, ...]
    post: Tuple[bool, ...]

    catalogue: ClassVar[R.Catalogue] = RHL

    def __post_init__(self):
        n = store_domain(self.sig).size
        if len(self.pre) != n * n:
            raise ValueError("precondition table must cover every store pair")
        if len(self.post) != n * n:
            raise ValueError("postcondition table must cover every store pair")

    def judgment(self) -> R.Judgment:
        c1 = translate(self.left, self.sig)
        c2 = translate(self.right, self.sig)
        return R.judgment(O.observation_part(), c1, c2,
                          _store_pair_spec(self.sig, self.pre, self.post))

    def mismatch(self, computed: "RHLInstance") -> Optional[str]:
        """The first field in which this stated conclusion differs from the
        rule's own, or None."""
        for f in fields(self):
            if getattr(self, f.name) != getattr(computed, f.name):
                return f"stated {f.name} differs from the rule's conclusion"
        return None

    def oracle(self) -> R.OracleVerdict:
        """The oracle's verdict on the translated judgment."""
        return self.judgment().oracle()


def _store_pair_spec(sig: StoreSignature, pre: Sequence[bool],
                     post: Sequence[bool]) -> sm.RelSpec:
    """{pre} _ ~ _ {post} over unit-valued runs: store pairs index both the
    points and the (final) outcomes as s1 * size + s2."""
    sdom = store_domain(sig)
    return sm.from_final_post(sm.state_space(UNIT, sdom, UNIT, sdom), pre, post)


# ---------------------------------------------------------------------------
# The rule catalog


def _table_param(r: R.RuleInstance, key: str, n: int) -> Tuple[bool, ...]:
    t = tuple(bool(v) for v in r.need(key))
    if len(t) != n * n:
        raise RuleError(f"{r.rule}: {key!r} must cover every store pair")
    return t


def _expr_param(r: R.RuleInstance, key: str, sig: StoreSignature) -> Expr:
    e = r.need(key)
    missing = sorted(expr_locations(e) - set(sig.locations))
    if missing:
        raise RuleError(f"{r.rule}: {key!r} reads undeclared location {missing[0]!r}")
    return e


def _same_sig(rule: str, premises: Sequence[RHLInstance]) -> StoreSignature:
    sigs = {p.sig for p in premises}
    if len(sigs) != 1:
        raise RuleError(f"{rule}: premises must share one store signature")
    return premises[0].sig


def _and_guards(pre: Sequence[bool], g1: Sequence[bool], g2: Sequence[bool],
                n: int, want1: Optional[bool], want2: Optional[bool]) -> Tuple[bool, ...]:
    """pre, with each side's guard at its want; a None want leaves that
    side's guard untested."""
    return tuple(pre[k] and (want1 is None or g1[k // n] == want1)
                 and (want2 is None or g2[k % n] == want2) for k in range(n * n))


def _guards_agree(rule: str, sig: StoreSignature, pre: Sequence[bool],
                  g1: Sequence[bool], g2: Sequence[bool]) -> None:
    sdom = store_domain(sig)
    n = sdom.size
    for k in range(n * n):
        if pre[k] and g1[k // n] != g2[k % n]:
            raise RuleError(f"{rule}: the precondition admits stores where the guards "
                            f"disagree, for example {sdom.label_of(k // n)} and "
                            f"{sdom.label_of(k % n)}")


def _assign_pre(upd1: Sequence[int], upd2: Sequence[int],
                post: Sequence[bool]) -> Tuple[bool, ...]:
    # substitution through the update tables: pre = post o (upd1 x upd2)
    n = len(upd2)
    return tuple(post[u1 * n + u2] for u1 in upd1 for u2 in upd2)


def _assign_param(r: R.RuleInstance, sig: StoreSignature, loc_key: str, expr_key: str):
    loc = r.need(loc_key)
    if loc not in sig.locations:
        raise RuleError(f"{r.rule}: assignment to undeclared location {loc!r}")
    e = _expr_param(r, expr_key, sig)
    return loc, e


@RHL.rule("Skip", arity=0)
def _rhl_skip(r: R.RuleInstance, _prem) -> RHLInstance:
    sig = r.need("sig")
    pre = _table_param(r, "pre", store_domain(sig).size)
    return RHLInstance(sig, Skip(), Skip(), pre, pre)


@RHL.rule("Assign", "AssignL", "AssignR", arity=0)
def _rhl_assign(r: R.RuleInstance, _prem) -> RHLInstance:
    # Assign updates both sides; AssignL and AssignR one side, the other skips
    sig = r.need("sig")
    sides = []
    for k, skipped in (("1", "AssignR"), ("2", "AssignL")):
        if r.rule == skipped:
            sides.append((Skip(), range(store_domain(sig).size)))
        else:
            loc, e = _assign_param(r, sig, "loc" + k, "expr" + k)
            sides.append((Assign(loc, e), assign_table(sig, loc, e)))
    (c1, upd1), (c2, upd2) = sides
    post = _table_param(r, "post", store_domain(sig).size)
    return RHLInstance(sig, c1, c2, _assign_pre(upd1, upd2, post), post)


@RHL.rule("Seq", arity=2)
def _rhl_seq(r: R.RuleInstance, prem) -> RHLInstance:
    j1, j2 = prem
    sig = _same_sig(r.rule, prem)
    if j1.post != j2.pre:
        raise RuleError("Seq: the first postcondition must be exactly the second "
                        "precondition; adapt with Consequence first")
    return RHLInstance(sig, Seq(j1.left, j2.left), Seq(j1.right, j2.right),
                       j1.pre, j2.post)


@RHL.rule("IfSync", arity=2)
def _rhl_if_sync(r: R.RuleInstance, prem) -> RHLInstance:
    jt, jf = prem
    sig = _same_sig(r.rule, prem)
    n = store_domain(sig).size
    cond1 = _expr_param(r, "cond1", sig)
    cond2 = _expr_param(r, "cond2", sig)
    pre = _table_param(r, "pre", n)
    g1, g2 = guard_table(sig, cond1), guard_table(sig, cond2)
    _guards_agree("IfSync", sig, pre, g1, g2)
    if jt.pre != _and_guards(pre, g1, g2, n, True, True):
        raise RuleError("IfSync: the first premise must assume the precondition "
                        "with both guards true")
    if jf.pre != _and_guards(pre, g1, g2, n, False, False):
        raise RuleError("IfSync: the second premise must assume the precondition "
                        "with both guards false")
    if jt.post != jf.post:
        raise RuleError("IfSync: the branch postconditions must agree")
    return RHLInstance(sig, If(cond1, jt.left, jf.left), If(cond2, jt.right, jf.right),
                       pre, jt.post)


@RHL.rule("IfL", "IfR", arity=2)
def _rhl_if_one_side(r: R.RuleInstance, prem) -> RHLInstance:
    # IfL branches on the left guard over a shared right program; IfR mirrors it
    jt, jf = prem
    sig = _same_sig(r.rule, prem)
    n = store_domain(sig).size
    left = r.rule == "IfL"
    cond = _expr_param(r, "cond1" if left else "cond2", sig)
    pre = _table_param(r, "pre", n)
    shared = "right" if left else "left"
    if getattr(jt, shared) != getattr(jf, shared):
        raise RuleError(f"{r.rule}: the premises must share the {shared} program")
    g = guard_table(sig, cond)
    for j, want, which in ((jt, True, "first"), (jf, False, "second")):
        wants = (want, None) if left else (None, want)
        if j.pre != _and_guards(pre, g, g, n, *wants):
            raise RuleError(f"{r.rule}: the {which} premise must assume the precondition "
                            f"with the guard {str(want).lower()}")
    if jt.post != jf.post:
        raise RuleError(f"{r.rule}: the branch postconditions must agree")
    if left:
        return RHLInstance(sig, If(cond, jt.left, jf.left), jt.right, pre, jt.post)
    return RHLInstance(sig, jt.left, If(cond, jt.right, jf.right), pre, jt.post)


@RHL.rule("WhileSync", arity=1)
def _rhl_while_sync(r: R.RuleInstance, prem) -> RHLInstance:
    (jb,) = prem
    sig = jb.sig
    n = store_domain(sig).size
    cond1 = _expr_param(r, "cond1", sig)
    cond2 = _expr_param(r, "cond2", sig)
    inv = _table_param(r, "inv", n)
    g1, g2 = guard_table(sig, cond1), guard_table(sig, cond2)
    _guards_agree("WhileSync", sig, inv, g1, g2)
    if jb.pre != _and_guards(inv, g1, g2, n, True, True):
        raise RuleError("WhileSync: the body must assume the invariant with both "
                        "guards true")
    if jb.post != inv:
        raise RuleError("WhileSync: the body must reestablish the invariant")
    return RHLInstance(sig, While(cond1, jb.left), While(cond2, jb.right),
                       inv, _and_guards(inv, g1, g2, n, False, False))


@RHL.rule("Consequence", arity=1)
def _rhl_consequence(r: R.RuleInstance, prem) -> RHLInstance:
    (j,) = prem
    n = store_domain(j.sig).size
    pre = _table_param(r, "pre", n)
    post = _table_param(r, "post", n)
    for k in range(n * n):
        if pre[k] and not j.pre[k]:
            raise RuleError("Consequence: the new precondition must entail the "
                            "premise precondition")
    for k in range(n * n):
        if j.post[k] and not post[k]:
            raise RuleError("Consequence: the premise postcondition must entail "
                            "the new postcondition")
    return RHLInstance(j.sig, j.left, j.right, pre, post)
