"""Long programs: every walker answers without a RecursionError.

Chains of 10^4 operations, nested to the right (each operation's
continuation is the rest of the chain) and to the left (a bind whose inner
program is the chain so far), go through normalisation, equality, hashing,
the evaluators, `semantic_key`, `count_loops` and the observations.  The
While front end gets 10^4-statement programs and long expressions.
"""

import copy
import dataclasses
import os
import pickle
import subprocess
import sys
from fractions import Fraction

import pytest

from relwp import observations as O
from relwp import programs as P
from relwp import rules as R
from relwp import specmonads as sm
from relwp import whilelang as W
from relwp.domains import UNIT, UNIT_VAL, boolv, domain

N = 10 ** 4

Z2 = domain("Z2", 2)
Z3 = domain("Z3", 3)
SRC = os.path.dirname(os.path.dirname(os.path.abspath(P.__file__)))


def _bottom(sig, last):
    # a bind at the bottom, so that normalising grafts it and rebuilds the
    # whole spine above it
    return P.bind(P.ret(sig, UNIT_VAL), lambda _u: last)


def state_chain(sig):
    """get and put alternately, the last put writing 1; returns the state."""
    p = _bottom(sig, P.get_state(sig))
    for i in reversed(range(N)):
        if i % 2:
            p = P.get(sig, lambda _s, rest=p: rest)
        else:
            p = P.put(sig, Z2.value((i // 2) % 2), p)
    return p


def imp_chain():
    """Puts, the last one writing 1, with a loop that runs its body once in
    every tenth place; returns the state."""
    sig = P.imp_sig(Z2)
    p = _bottom(sig, P.get_state(sig))
    for i in reversed(range(N)):
        if i % 10 == 9:
            p = P.do_while(P.ret(sig, boolv(False)), p)
        else:
            p = P.put(sig, Z2.value((i // 2) % 2), p)
    return p


def exc_chain():
    """Each throw is caught by a handler that runs the rest; returns 1."""
    sig = P.exc_sig(Z2)
    p = _bottom(sig, P.ret(sig, Z2.value(1)))
    for i in range(N):
        p = P.catch(P.throw(sig, Z2.value(i % 2), Z2), lambda _e, rest=p: rest)
    return p


def ndet_chain():
    """Returns any value of Z3, or fails at the end."""
    sig = P.ndet_sig()
    p = _bottom(sig, P.fail(sig, Z3))
    for i in range(N):
        p = P.choice(P.ret(sig, Z3.value(i % 3)), p)
    return p


def io_chain():
    """Outputs 0, 1, 0, 1, ... in that order, then returns unit."""
    sig = P.io_sig(Z2, Z2)
    p = _bottom(sig, P.ret(sig, UNIT_VAL))
    for i in reversed(range(N)):
        p = P.output(sig, Z2.value(i % 2), p)
    return p


def prob_chain():
    """Goes on with certainty, except at four fair coins that return 0."""
    sig = P.prob_sig()
    p = _bottom(sig, P.ret(sig, Z2.value(1)))
    for i in range(N):
        p = P.flip(sig, Fraction(1, 2) if i % 2500 == 0 else 1, P.ret(sig, Z2.value(0)), p)
    return p


BUILD = {
    "state": lambda: state_chain(P.state_sig(Z2)),
    "imp": imp_chain,
    "exc": exc_chain,
    "ndet": ndet_chain,
    "io": io_chain,
    "prob": prob_chain,
}

LAST_PUT = Z2.value(((N - 2) // 2) % 2)
KEYS = {
    "state": tuple((LAST_PUT, LAST_PUT) for _ in range(2)),
    "imp": tuple((LAST_PUT, LAST_PUT) for _ in range(2)),
    "exc": (P.OK, Z2.value(1)),
    "ndet": frozenset(Z3.values()),
    "io": frozenset({(UNIT_VAL, tuple((P.OUT, Z2.value(i % 2)) for i in reversed(range(N))))}),
    "prob": (Fraction(15, 16), Fraction(1, 16)),
}


def _final_pairs(w):
    # every point of a two-state chain pair ends with both sides at LAST_PUT
    i = LAST_PUT.index
    return all(w.demonic_at(pt) == frozenset({w.space.st_outcome(i, i, i, i)})
               for pt in w.space.points())


def _both_return_1(w):
    return w.demonic_at(0) == frozenset({w.space.err_ok(1, 1)})


def _io_run(p):
    v, h = P.run_io(p, [])
    return v == UNIT_VAL and h == next(iter(KEYS["io"]))[1]


# what `semantic_key` does not already run: the observations, and run_io
CHECKS = {
    "state": lambda p: _final_pairs(O.theta_st(p, p)),
    "imp": lambda p: _final_pairs(O.theta_part(p, p)) and _final_pairs(O.theta_tot(p, p)),
    "exc": lambda p: _both_return_1(O.theta_err(p, p)),
    "ndet": lambda p: len(O.theta_ndet(O.FORALL, p, p).demonic_at(0)) == 9,
    "io": _io_run,
    # the least chance that the two sides agree, over all couplings
    "prob": lambda p: O.theta_prob(p, p).at((1, 0, 0, 1)) == Fraction(7, 8),
}


@pytest.mark.parametrize("effect", sorted(BUILD))
def test_right_nested_chain(effect):
    p = BUILD[effect]()
    assert p.depth > N
    q = P.normalize(p)
    assert P.normalize(q) is q  # bind-free: its own normal form
    assert q != p and q.depth == p.depth
    assert isinstance(hash(p), int)
    # the effect's evaluator, from every initial state where there is one
    assert P.semantic_key(p) == KEYS[effect]
    assert P.count_loops(p) == (N // 10 if effect == "imp" else 0)
    assert CHECKS[effect](q)


@pytest.mark.parametrize("effect", ["state", "exc"])
def test_deep_programs_built_apart_compare_and_hash_equal(effect):
    # one live object per distinct tree, however deep
    p, twin = BUILD[effect](), BUILD[effect]()
    assert p is twin and hash(p) == hash(twin)


def test_one_sided_embeddings_of_long_chains():
    sig = P.imp_sig(Z2)
    p = P.get_state(sig)
    for i in range(N):
        p = P.put(sig, Z2.value(i % 2), p)
    w = O.theta_part_unary(p)
    assert all(w.demonic_at(pt) == frozenset({w.space.st_outcome(0, 0, 0, 0)})
               for pt in w.space.points())
    io = P.io_sig(Z2, Z2)
    q = P.ret(io, UNIT_VAL)
    for i in range(N):
        q = P.output(io, Z2.value(0), q)
    history = ((P.OUT, Z2.value(0)),) * N
    w = O.unary_theta_io(1, Z2, Z2, Z2, Z2).embed(q)
    assert w.demonic_at(((), ())) == frozenset({(0, history, ())})
    # the pair reads the left entry, then the right one from its end point
    assert O.theta_io(q, q).demonic_at(((), ())) == frozenset({(0, history, history)})


@pytest.mark.parametrize("nesting", ["left", "right"])
def test_deep_io_bind_chains_read_without_recursion(nesting):
    # each bind computes its root entry from its parts' root entries
    n = sys.getrecursionlimit() + 1000
    space = sm.io_space(UNIT, Z2, Z2, UNIT, Z2, Z2)
    ev = (P.OUT, Z2.value(1))
    out = sm.io_demonic_spec(space, {(0, (ev,), ())})
    chain = out
    for _ in range(n - 1):
        chain = sm.spec_bind(chain, [out]) if nesting == "left" else sm.spec_bind(out, [chain])
    assert chain.demonic_at(((), ())) == frozenset({(0, (ev,) * n, ())})


def _left_chain(first, table, n=N):
    p = first
    for _ in range(n):
        p = P.bind(p, table)
    return p


def test_left_nested_binds_through_the_evaluators():
    st, imp = P.state_sig(Z2), P.imp_sig(Z2)
    s1 = Z2.value(1)

    def toggle(sig):
        # write the other state, then read it back
        return [P.put(sig, v, P.get_state(sig)) for v in reversed(list(Z2.values()))]

    p = _left_chain(P.get_state(st), toggle(st))
    assert P.run_imp(p, s1) == (s1, s1)
    assert P.semantic_key(p) == ((Z2.value(0), Z2.value(0)), (s1, s1))
    q = _left_chain(P.get_state(imp), toggle(imp))
    assert P.run_imp(q, s1) == (s1, s1)
    w = O.theta_part(q, q)
    assert w.demonic_at(w.space.point(1, 1)) == frozenset({w.space.st_outcome(1, 1, 1, 1)})

    exc = P.exc_sig(Z2)
    e = _left_chain(P.ret(exc, Z2.value(0)), [P.ret(exc, v) for v in reversed(list(Z2.values()))])
    assert P.run_exc(e) == P.semantic_key(e) == (P.OK, Z2.value(0))
    nd = P.ndet_sig()
    both = P.choice(P.ret(nd, Z2.value(0)), P.ret(nd, Z2.value(1)))
    assert P.run_ndet(_left_chain(both, [both, both])) == frozenset(Z2.values())
    io = P.io_sig(Z2, Z2)
    out = P.output(io, Z2.value(1), P.ret(io, UNIT_VAL))
    o = _left_chain(out, [out])
    assert len(P.run_io(o, [])[1]) == N + 1
    assert len(next(iter(P.io_outcomes(o)))[1]) == N + 1
    pr = P.prob_sig()
    coin = P.flip_bool(pr, Fraction(1, 2))
    assert P.run_prob(_left_chain(coin, [coin, coin])).weights == (Fraction(1, 2),) * 2


def test_normalize_left_nested_binds():
    # each bind grafts onto the normal form of the chain below it, so the
    # cost is quadratic in the chain length; left as it is, since a chain
    # this long is already far past the programs the checkers enumerate
    sig = P.state_sig(Z2)
    write = P.put_unit(sig, Z2.value(1), UNIT_VAL)
    p = _left_chain(write, [write], 600)
    q = P.normalize(p)
    assert P.normalize(q) is q and q.depth == 602
    assert P.semantic_key(q) == P.semantic_key(p)


def test_a_program_pickled_under_another_string_hash_seed_hashes_here():
    # a program made in a process with other string hashes is the live one here
    code = ("import pickle, sys; from relwp import programs as P; "
            "from relwp.domains import domain; d = domain('A', 2, ('x', 'y')); "
            "sig = P.state_sig(d); p = P.put(sig, d.value(1), P.get_state(sig)); hash(p); "
            "sys.stdout.write(pickle.dumps(p).hex())")
    env = dict(os.environ, PYTHONHASHSEED="12345",
               PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    there = pickle.loads(bytes.fromhex(out))
    d = domain("A", 2, ("x", "y"))
    sig = P.state_sig(d)
    here = P.put(sig, d.value(1), P.get_state(sig))
    assert there is here


def test_a_program_10_to_the_5_deep_pickles_and_copies_to_itself():
    # one flat record per program: neither pickle nor deepcopy descends the chain
    sig = P.state_sig(Z2)
    p = P.get_state(sig)
    for i in range(10 ** 5):
        p = P.put(sig, Z2.value(i % 2), p)
    assert p.depth == 10 ** 5 + 2
    assert pickle.loads(pickle.dumps(p)) is p
    assert copy.deepcopy(p) is p


# ---------------------------------------------------------------------------
# While programs

SIG = W.store_signature(("l", "h"), domain("V", 2), {"l": "low", "h": "high"})


def _low_equal_runs_agree(ast) -> bool:
    # brute force: low-equal initial stores end low-equal whenever both stop
    size = W.store_domain(SIG).size
    ends = [W.run_stmt(SIG, ast, s) for s in range(size)]
    low = lambda s: W.store_read(SIG, s, "l")
    return all(ends[a] is None or ends[b] is None or low(ends[a]) == low(ends[b])
               for a in range(size) for b in range(size) if low(a) == low(b))


def test_long_while_program():
    text = "; ".join("l := l + 1" if i % 3 else "h := h + l" for i in range(N))
    ast = W.parse_while(text)
    assert W.show_stmt(ast) == text
    assert W.stmt_locations(ast) == {"l", "h"}
    j = W.ni_judgment(ast, SIG)
    prog, sdom = j.c1(), W.store_domain(SIG)
    for s in range(sdom.size):
        assert P.run_imp(prog, sdom.value(s))[1].index == W.run_stmt(SIG, ast, s)
    assert R.oracle_check(j).holds and _low_equal_runs_agree(ast)


def test_parses_of_a_long_chain_compare_and_hash_equal():
    text = "; ".join("l := l + 1" if i % 3 else "h := h + l" for i in range(N))
    a, b = W.parse_while(text), W.parse_while(text)
    assert a is b and {a: 1}[b] == 1
    assert W.Seq(a.first, W.Seq(W.Skip(), a.second)) != b
    assert type(a).__eq__ is object.__eq__ and type(a).__hash__ is object.__hash__


def _increments_then(last, n=N):
    s = last
    for _ in range(n - 1):
        s = W.Seq(W.Assign("l", W.BinOp("+", W.Loc("l"), W.Lit(1))), s)
    return s


def test_a_rebuilt_statement_is_the_parsed_node():
    a = W.parse_while("; ".join(["l := l + 1"] * N) + "; skip")
    assert _increments_then(W.Skip(), N + 1) is a
    assert W.Seq(second=a.second, first=a.first) is a
    assert dataclasses.replace(a) is a and copy.copy(a) is a
    assert dataclasses.replace(a, first=W.Skip()) is W.Seq(W.Skip(), a.second)


def test_unequal_chains_with_their_hashes_taken_compare_without_a_walk():
    a, b = _increments_then(W.Skip()), _increments_then(W.Assign("h", W.Loc("l")))
    assert hash(a) != hash(b)
    twin = _increments_then(W.Skip())
    assert a != b and b != a and a == twin and twin is a


def test_parses_that_differ_only_at_the_end_compare_unequal():
    text = "; ".join(["l := l + 1"] * 2000)
    a, b = W.parse_while(text), W.parse_while(text[:-1] + "2")
    assert a != b and b != a and a == W.parse_while(text)
    assert W.If(W.Loc("l"), a, b) != W.If(W.Loc("l"), b, a)


def test_nodes_over_the_same_subtrees_compare_without_a_walk():
    a = _increments_then(W.Skip(), 2000)
    cond = W.parse_while("if l then skip else skip").cond
    # built twice from the same parts, as a rule replay builds a conclusion
    assert W.Seq(a, a.second) is W.Seq(a, a.second)
    assert W.If(cond, a, W.Skip()) is W.If(cond, a, W.Skip())
    assert W.Seq(a, a.second) != W.Seq(a.second, a)


def test_a_statement_pickled_under_another_string_hash_seed_hashes_here():
    # a statement made in a process with other string hashes is the live one here
    text = "l := h; while l < 1 do l := l + 1"
    code = ("import pickle, sys; from relwp import whilelang as W; "
            f"s = W.parse_while({text!r}); hash(s); "
            "sys.stdout.write(pickle.dumps(s).hex())")
    env = dict(os.environ, PYTHONHASHSEED="12345",
               PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    there = pickle.loads(bytes.fromhex(out))
    here = W.parse_while(text)
    assert there is here and {here: 1}[there] == 1


def test_a_long_statement_pickles_and_copies_to_itself():
    # one flat record per tree: neither pickle nor deepcopy descends the chain,
    # here or in a process with other string hashes
    text = "; ".join("l := l + 1" if i % 3 else "h := h + l" for i in range(N))
    code = ("import pickle, sys; from relwp import whilelang as W; "
            f"s = W.parse_while({text!r}); hash(s); "
            "sys.stdout.write(pickle.dumps(s).hex())")
    env = dict(os.environ, PYTHONHASHSEED="12345",
               PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    here = W.parse_while(text)
    assert pickle.loads(bytes.fromhex(out)) is here
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.loads(pickle.dumps(here, protocol)) is here
    assert copy.deepcopy(here) is here and copy.copy(here) is here
    cond = W.parse_while("while !(l = 0) && h < 1 do skip").cond
    assert pickle.loads(pickle.dumps(cond)) is cond


def test_a_long_program_and_expression_show_in_their_repr():
    text = "; ".join(["l := l + 1"] * N)
    a = W.parse_while(text)
    assert repr(a).startswith("Seq(first=Assign(loc='l', expr=BinOp(op='+', left=Loc(name='l'), "
                              "right=Lit(value=1))), second=Seq(")
    assert str(a) == repr(a) and repr(a).count("Assign(") == N
    e = W.parse_while("l := " + " + ".join(["1"] * 3000)).expr
    assert repr(e).count("Lit(value=1)") == 3000
    # the repr of a small node is the dataclass one
    assert repr(W.If(W.Not(W.Loc("h")), W.Skip(), W.Assign("l", W.Lit(0)))) == (
        "If(cond=Not(arg=Loc(name='h')), then=Skip(), els=Assign(loc='l', expr=Lit(value=0)))")


def test_if_left_over_long_right_programs():
    # the rule compares the premises' right programs, two parses of one text
    n = W.store_domain(SIG).size
    text = "; ".join(["l := l + h"] * 2000)
    cond = W.parse_while("if h then skip else skip").cond
    guard = W.guard_table(SIG, cond)
    pre = (True,) * (n * n)
    post = tuple(k % 3 == 0 for k in range(n * n))

    def premise(want):
        return W.RHLInstance(SIG, W.Skip(), W.parse_while(text),
                             tuple(pre[k] and guard[k // n] == want for k in range(n * n)), post)

    jt, jf = premise(True), premise(False)
    assert jt.right is jf.right
    concl = W.apply_rhl_rule("IfL", (jt, jf), cond1=cond, pre=pre)
    assert concl.left == W.If(cond, W.Skip(), W.Skip()) and concl.right == jt.right


def test_left_nested_seq():
    n = 3000
    ast = W.Assign("l", W.Lit(1))
    for _ in range(n):
        ast = W.Seq(ast, W.Assign("h", W.Loc("l")))
    assert W.run_stmt(SIG, ast, 0) == W.run_stmt(SIG, W.parse_while("l := 1; h := l"), 0)
    prog = W.translate(ast, SIG)
    assert P.run_imp(prog, W.store_domain(SIG).value(0))[1].index == W.run_stmt(SIG, ast, 0)
    assert W.show_stmt(ast).startswith("(" * (n - 1) + "l := 1; h := l); h := l")
    assert W.stmt_locations(ast) == {"l", "h"}


def test_long_expressions():
    text = "l := " + " + ".join(["1"] * 3000) + " - h"
    ast = W.parse_while(text)
    assert W.show_stmt(ast) == text
    assert W.expr_locations(ast.expr) == {"h"}
    assert W.eval_expr(SIG, ast.expr, 0) == 3000 % 2
    assert W.expr_table(SIG, ast.expr) == tuple(W.eval_expr(SIG, ast.expr, s) for s in range(4))
    assert W.show_expr(W.parse_while("l := " + "!" * 3000 + "h").expr) == "!" * 3000 + "h"


@pytest.mark.parametrize("prefix, opening, inner, closing", [
    ("", "(", "skip", ")"),
    ("", "if l then ", "skip", " else skip"),
    ("", "while l do ", "skip", ""),
    ("l := ", "(", "1", ")"),
])
def test_nesting_past_the_parser_limit_is_a_parse_error(prefix, opening, inner, closing):
    with pytest.raises(W.ParseError, match="nesting deeper than 100 levels"):
        W.parse_while(prefix + opening * 5000 + inner + closing * 5000)
    W.parse_while(prefix + opening * 100 + inner + closing * 100)


# ---------------------------------------------------------------------------
# Long derivations build, replay and pass the oracle


def test_a_long_weaken_chain():
    sig = P.state_sig(Z2)
    d = R.derive("Ret", observation=O.observation_st(), sig1=sig, sig2=sig,
                 a1=Z2.value(0), a2=Z2.value(1))
    w = d.conclusion.w()
    for _ in range(10 ** 3):
        d = R.derive("Weaken", (d,), w=w)
    assert R.check_derivation(d).ok
    assert R.oracle_check(d.conclusion).holds


def _assign_h(expr, post):
    return W.RHL.derive("Assign", sig=SIG, loc1="h", expr1=expr,
                        loc2="h", expr2=expr, post=post)


def _count_assign_bodies(monkeypatch) -> list:
    """Count the Assign rule bodies run from here on, in a one-item list."""
    body, arity = W.RHL._rules["Assign"]
    runs = [0]

    def counted(*args):
        runs[0] += 1
        return body(*args)

    monkeypatch.setitem(W.RHL._rules, "Assign", (counted, arity))
    return runs


def test_a_long_rhl_seq_chain(monkeypatch):
    n = W.store_domain(SIG).size
    low_eq = W.rel_table(SIG, lambda i, j: i // 2 == j // 2)
    step = _assign_h(W.Loc("l"), low_eq)
    assert step.conclusion.pre == low_eq and len(low_eq) == n * n
    d = step
    for _ in range(N):
        d = W.RHL.derive("Seq", (d, step))
    assert W.stmt_locations(d.conclusion.left) == {"l", "h"}
    runs = _count_assign_bodies(monkeypatch)
    assert R.check_derivation(d).ok
    assert runs == [1]        # the leaf is shared N + 1 times, and replays once
    assert R.oracle_check(d.conclusion).holds


def test_a_failing_shared_node_reports_its_first_occurrence(monkeypatch):
    low_eq = W.rel_table(SIG, lambda i, j: i // 2 == j // 2)
    step = _assign_h(W.Loc("l"), low_eq)
    # states `h := h` while its rule assigns `h := l`
    bad = R.Derivation(_assign_h(W.Loc("h"), low_eq).conclusion, step.rule)
    d = W.RHL.derive("Seq", (W.RHL.derive("Seq", (step, bad)), bad))
    runs = _count_assign_bodies(monkeypatch)
    res = R.check_derivation(d)
    assert not res.ok and res.path == (0, 1)
    assert res.message.startswith("Assign: stated left differs")
    assert runs == [2]        # step, then bad's first occurrence

