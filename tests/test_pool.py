"""The pool of live programs, specs, core judgments and While syntax
(`programs._POOL`): it keeps nothing alive, an honest replay recomputes
each stated conclusion as the pooled object and so is decided by
identity, and derivations that hold pooled objects pickle and replay in a
fresh interpreter, where each program comes back as the live one.
Program constructors look their key up before they build: an honest
replay builds no program node, and a refused construction raises as it
always did, whatever valid sibling the pool holds.

The corpus checks run in fresh interpreters: other tests keep programs
alive in their modules, so only a fresh pool can be asked to be empty.
"""

import gc
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
from relwp.domains import BOOL, UNIT, UNIT_VAL, boolv, domain

import reference

SRC = os.path.dirname(os.path.dirname(os.path.abspath(P.__file__)))
TESTS = os.path.dirname(os.path.abspath(reference.__file__))


def _run(code, *args):
    """The words code prints, run in a fresh interpreter."""
    path = [SRC, TESTS, os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    return subprocess.run([sys.executable, "-c", code, *args], env=env, check=True,
                          capture_output=True, text=True).stdout.split()


def test_a_dropped_corpus_leaves_the_pool_empty():
    # the seeded corpus of every effect, built, replayed and oracle-checked
    out = _run("""
import gc, reference
from relwp import programs as P, rules as R
ds = reference.seeded_corpus(20)
pooled = len(P._POOL)
ok = all(R.check_derivation(d).ok and R.oracle_check(d.conclusion).holds for d in ds)
del ds
gc.collect()
print(pooled, ok, len(P._POOL))
""")
    assert int(out[0]) > 100 and out[1:] == ["True", "0"]


def test_long_chains_built_apart_are_one_object_and_leave_the_pool_when_dropped():
    n = 10 ** 5
    sig = P.state_sig(domain("chain", 2))

    def chain():
        p = P.ret(sig, UNIT_VAL)
        for i in range(n):
            p = P.put(sig, sig.state.value(i % 2), p)
        return p

    gc.collect()
    pooled = len(P._POOL)
    p, twin = chain(), chain()
    assert p is twin and p.depth == n + 1
    assert len(P._POOL) == pooled + n + 1
    # freed link by link by reference counting, with no RecursionError
    del p, twin
    assert len(P._POOL) == pooled


def _syntax_pooled():
    return sum(isinstance(ref(), W._Syntax) for ref in list(P._POOL.values()))


def test_two_parses_of_a_long_program_are_one_object_and_leave_the_pool_when_dropped():
    text = "; ".join("l := l + 1" if i % 3 else "h := h + l" for i in range(10 ** 4))
    gc.collect()
    pooled = _syntax_pooled()
    a, b = W.parse_while(text), W.parse_while(text)
    assert a is b and _syntax_pooled() > pooled + 10 ** 4
    del a, b
    gc.collect()
    assert _syntax_pooled() == pooled


def _nodes(d):
    yield d
    for sub in d.premises:
        yield from _nodes(sub)


def test_derivations_pickle_and_replay_in_a_fresh_interpreter(tmp_path):
    ds = reference.seeded_corpus(20, (P.STATE, P.IMP, P.EXC, P.PROB, P.NDET, P.IO))
    data = pickle.dumps(ds)
    # here, every program and every spec comes back as the live one
    for a, b in zip(ds, pickle.loads(data)):
        for na, nb in zip(_nodes(a), _nodes(b)):
            ja, jb = na.conclusion, nb.conclusion
            assert all(p is q for p, q in zip(ja.c1_table + ja.c2_table + ja.w_table,
                                              jb.c1_table + jb.c2_table + jb.w_table))
    path = tmp_path / "corpus.pickle"
    path.write_bytes(data)
    out = _run("""
import pickle, sys
from relwp import rules as R
ds = pickle.loads(open(sys.argv[1], "rb").read())
print(len(ds), sum(R.check_derivation(d).ok and R.oracle_check(d.conclusion).holds for d in ds))
""", str(path))
    assert out == ["120", "120"]


# ---------------------------------------------------------------------------
# Constructors look up before they build

NODE_CLASSES = (P.Ret, P.Bind, P.Get, P.Put, P.Throw, P.Catch, P.Choice, P.Fail, P.PickFin,
                P.Input, P.Output, P.Flip, P.DoWhile)


def _count_nodes(monkeypatch):
    """A list that grows by one per program node built from now on."""
    built = []
    for cls in NODE_CLASSES:
        monkeypatch.setattr(cls, "__init__", lambda self, *a, _init=cls.__init__:
                            built.append(type(self)) or _init(self, *a))
    return built


def test_an_honest_replay_builds_no_program_node(monkeypatch):
    corpus = reference.seeded_corpus(15)
    assert {d.conclusion.c1().sig.effect for d in corpus} == set(reference.CORPUS_EFFECTS)
    built = _count_nodes(monkeypatch)
    assert all(R.check_derivation(d).ok for d in corpus)
    assert built == []
    # the counter counts: a program the pool does not hold is built
    P.ret(P.state_sig(domain("fresh-for-counting", 3)), UNIT_VAL)
    assert built == [P.Ret]


Z2 = domain("Z2", 2)
Z3 = domain("Z3", 3)
SSIG = P.state_sig(Z2)


def test_each_constructor_keys_its_program_as_mk_does():
    # constructors lay their keys out by hand; `_mk` reads them from `_SHAPES`
    esig, nsig, iosig, psig, isig = (P.exc_sig(Z2), P.ndet_sig(), P.io_sig(Z2, Z2),
                                     P.prob_sig(), P.imp_sig(Z2))
    r0, r1 = P.ret(SSIG, Z2.value(0)), P.ret(SSIG, Z2.value(1))
    hb = [P.ret(esig, boolv(False)), P.ret(esig, boolv(True))]
    t, f = P.ret(nsig, boolv(True)), P.ret(nsig, boolv(False))
    io_r = P.ret(iosig, UNIT_VAL)
    pf, pt = P.ret(psig, boolv(False)), P.ret(psig, boolv(True))
    loop = P.get(isig, lambda s: P.ret(isig, boolv(s.index == 0)))
    progs = [r0, P.bind(P.get_state(SSIG), [r1, r0]), P.get(SSIG, [r0, r1]),
             P.put(SSIG, Z2.value(1), r0), P.catch(P.throw(esig, Z2.value(1), BOOL), hb),
             P.choice(t, f), P.fail(nsig, BOOL), P.pick_fin([t, f, t]),
             P.inp(iosig, [io_r, io_r]), P.output(iosig, Z2.value(1), io_r),
             P.flip(psig, Fraction(1, 3), pf, pt), P.do_while(loop, P.ret(isig, UNIT_VAL))]
    nodes = {type(q.node) for p in progs for q in P._postorder(p)}
    assert nodes == set(NODE_CLASSES)
    for p in progs:
        for q in P._postorder(p):
            assert P._mk(q.sig, q.result, q.node) is q


def _tampered_bind():
    """Bind(GetR, GetL) and the pieces to tamper with."""
    jm = R.derive("GetR", sig1=SSIG, sig2=SSIG, a1=UNIT_VAL)
    env2 = R.EMPTY_ENV.extend(("u", UNIT), ("s2", Z2))
    jf = R.derive("GetL", sig1=SSIG, sig2=SSIG, env=env2, a2=lambda g: g[1])
    return jm, jf, R.derive("Bind", (jm, jf))


def _replay(d):
    res = R.check_derivation(d)
    return res.ok, res.path, res.message


def test_a_tampered_derivation_fails_at_its_path_with_its_message():
    jm, jf, d = _tampered_bind()
    j = jf.conclusion
    # a stated program another pooled program replaces
    other = P.ret(SSIG, Z2.value(0))
    fake = R.judgment(j.observation, j.c1_table, R.Table((j.c2_table[0], other)), j.w_table, j.env)
    bad = R.Derivation(d.conclusion, d.rule, (jm, R.Derivation(fake, jf.rule, ())))
    assert _replay(bad) == (False, (1,), "GetL: right program differs at u=(), s2=1")
    # a leaf whose parameter was changed after its conclusion was stated
    moved = R.RuleInstance("GetR", {**jm.rule.params, "a1": boolv(True)})
    bad = R.Derivation(d.conclusion, d.rule, (R.Derivation(jm.conclusion, moved, ()), jf))
    assert _replay(bad) == (False, (0,), "GetR: left program differs at the empty context")
    # a root whose stated spec claims nothing
    top = sm.unsatisfiable(d.conclusion.w().space)
    wrong = R.judgment(j.observation, d.conclusion.c1_table, d.conclusion.c2_table, top)
    assert _replay(R.Derivation(wrong, d.rule, d.premises)) == (
        False, (), "Bind: conclusion spec differs at the empty context (fails)")
    # a node whose rule no longer takes its premises
    assert _replay(R.Derivation(d.conclusion, d.rule, (jf, jm))) == (
        False, (), "Bind: Bind: second premise context must bind exactly the two result values")


def _refusals():
    """(valid sibling, refused construction) pairs: each refused call shares
    all but the refused part of its key with a program the pool holds."""
    # every program a refused call is given is built here, and so is held
    # by the lambdas rather than by the traceback of the refusal
    m = P.get_state(SSIG)
    r0, r1, r_unit = P.ret(SSIG, Z2.value(0)), P.ret(SSIG, Z2.value(1)), P.ret(SSIG, UNIT_VAL)
    r_s3 = P.ret(P.state_sig(Z3), Z2.value(1))
    esig = P.exc_sig(Z2)
    body = P.throw(esig, Z2.value(0), BOOL)
    hb = [P.ret(esig, boolv(False)), P.ret(esig, boolv(True))]
    e_unit = P.ret(esig, UNIT_VAL)
    nsig = P.ndet_sig()
    t, f, u = P.ret(nsig, boolv(True)), P.ret(nsig, boolv(False)), P.ret(nsig, UNIT_VAL)
    iosig = P.io_sig(Z2, Z2)
    io_r = P.ret(iosig, UNIT_VAL)
    psig = P.prob_sig()
    pf, pt, pu = P.ret(psig, boolv(False)), P.ret(psig, boolv(True)), P.ret(psig, UNIT_VAL)
    isig = P.imp_sig(Z2)
    loop, done = P.get(isig, lambda s: P.ret(isig, boolv(s.index == 0))), P.ret(isig, UNIT_VAL)
    done3 = P.ret(P.imp_sig(Z3), UNIT_VAL)
    return [
        (lambda: P.bind(m, [r0, r1]), lambda: P.bind(m, [r0])),
        (lambda: P.bind(m, [r0, r1]), lambda: P.bind(m, [])),
        (lambda: P.bind(m, [r0, r1]), lambda: P.bind(m, [r0, r_s3])),
        (lambda: P.bind(m, [r0, r1]), lambda: P.bind(m, [r0, r_unit])),
        (lambda: P.bind(m, lambda s: r0), lambda: P.bind(m, lambda s: r0 if s.index else r_unit)),
        (lambda: P.get(SSIG, [r0, r1]), lambda: P.get(SSIG, [r0])),
        (lambda: P.get(SSIG, [r0, r1]), lambda: P.get(SSIG, ())),
        (lambda: P.get(SSIG, [r0, r1]),
         lambda: P.get(P.Signature(P.EXC, Z2, Z2, None, None), [r0, r1])),
        (lambda: P.put(SSIG, Z2.value(0), r0), lambda: P.put(SSIG, Z3.value(0), r0)),
        (lambda: P.throw(esig, Z2.value(0), BOOL), lambda: P.throw(esig, Z3.value(0), BOOL)),
        (lambda: P.catch(body, hb), lambda: P.catch(body, [hb[0], e_unit])),
        (lambda: P.catch(body, hb), lambda: P.catch(body, hb[:1])),
        (lambda: P.catch(body, hb), lambda: P.catch(body, lambda e: e_unit)),
        (lambda: P.choice(t, f), lambda: P.choice(t, u)),
        (lambda: P.pick_fin([t, f]), lambda: P.pick_fin([t, f, u])),
        (lambda: P.pick_fin([t, f]), lambda: P.pick_fin([])),
        (lambda: P.inp(iosig, [io_r, io_r]), lambda: P.inp(iosig, [io_r])),
        (lambda: P.output(iosig, Z2.value(1), io_r), lambda: P.output(iosig, Z3.value(1), io_r)),
        (lambda: P.flip(psig, Fraction(1, 2), pf, pt), lambda: P.flip(psig, Fraction(3, 2), pf, pt)),
        (lambda: P.flip(psig, Fraction(1, 2), pf, pt), lambda: P.flip(psig, -1, pf, pt)),
        (lambda: P.flip(psig, Fraction(1, 2), pf, pt), lambda: P.flip(psig, Fraction(1, 2), pu, pt)),
        (lambda: P.do_while(loop, done), lambda: P.do_while(done, done)),
        (lambda: P.do_while(loop, done), lambda: P.do_while(loop, done3)),
        (lambda: P.put(SSIG, Z2.value(0), r0), lambda: P._mk(psig, UNIT, P.Put(Z2.value(0), r0))),
    ]


# what each refusal raises, as it did before constructors looked up first
REFUSED = [
    (ValueError, "continuation table has 1 entries for domain of size 2"),
    (ValueError, "continuation table has 0 entries for domain of size 2"),
    (ValueError, "bind continuation entries disagree on signature or result domain"),
    (ValueError, "bind continuation entries disagree on signature or result domain"),
    (ValueError, "bind continuation entries disagree on signature or result domain"),
    (ValueError, "continuation table has 1 entries for domain of size 2"),
    (ValueError, "continuation table has 0 entries for domain of size 2"),
    (ValueError, "Get node not allowed under effect 'exc'"),
    (ValueError, "put state outside the state domain"),
    (ValueError, "thrown exception outside the exception domain"),
    (ValueError, "catch handler result domain must match the body"),
    (ValueError, "continuation table has 1 entries for domain of size 2"),
    (ValueError, "catch handler result domain must match the body"),
    (ValueError, "choice branches disagree"),
    (ValueError, "pick_fin alternatives disagree"),
    (ValueError, "pick_fin needs at least one alternative (use fail for none)"),
    (ValueError, "continuation table has 1 entries for domain of size 2"),
    (ValueError, "output value outside the output domain"),
    (ValueError, "flip parameter 3/2 outside [0,1]"),
    (ValueError, "flip parameter -1 outside [0,1]"),
    (ValueError, "flip branches disagree on result domain"),
    (ValueError, "do_while body must produce a bool"),
    (ValueError, "do_while body and continuation disagree on signature"),
    (ValueError, "Put node not allowed under effect 'prob'"),
]


@pytest.mark.parametrize("case", range(len(REFUSED)))
def test_a_refused_construction_raises_as_before_beside_a_pooled_sibling(case):
    sibling, refused = _refusals()[case]
    kind, message = REFUSED[case]
    held = sibling()
    gc.collect()
    pooled = len(P._POOL)
    for _ in range(2):
        with pytest.raises(Exception) as info:
            refused()
        assert (type(info.value), str(info.value)) == (kind, message)
        assert len(P._POOL) == pooled
    assert sibling() is held


def test_a_table_of_another_length_is_refused_beside_its_pooled_judgment():
    # a judgment's hit skips the length check its key fixes; a miss still runs it
    c = P.ret(SSIG, Z2.value(0))
    w = sm.spec_ret(sm.state_space(Z2, Z2, Z2, Z2), Z2.value(0), Z2.value(0))
    held = R.judgment(O.observation_st(), R.Table((c,)), c, w)
    for c1, c2, w0, got in ((R.Table((c, c)), c, w, 2), (c, R.Table(()), w, 0),
                            (c, c, R.Table((w, w, w)), 3)):
        with pytest.raises(ValueError) as info:
            R.judgment(O.observation_st(), c1, c2, w0)
        assert str(info.value) == f"a table over this context has 1 entries, got {got}"
    assert R.judgment(O.observation_st(), c, c, w) is held
