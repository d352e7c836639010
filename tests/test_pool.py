"""The pool of live programs, specs, core judgments and While syntax
(`programs._POOL`): it keeps nothing alive, an honest replay recomputes
each stated conclusion as the pooled object and so is decided by
identity, and derivations that hold pooled objects pickle and replay in a
fresh interpreter, where each program comes back as the live one.

The corpus checks run in fresh interpreters: other tests keep programs
alive in their modules, so only a fresh pool can be asked to be empty.
"""

import gc
import os
import pickle
import subprocess
import sys

from relwp import programs as P
from relwp import whilelang as W
from relwp.domains import UNIT_VAL, domain

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
