"""Canonical domains, values, signatures, outcome spaces, store signatures
and While syntax.

Each class keeps one live object per field tuple, however it is built, so
equality and hashing are identity; syntax is pooled weakly, in
`programs._POOL`, and the rest for the whole process.  Identity hashes follow memory addresses,
which change from one interpreter to the next, so the last test checks that
verdicts still read the same in every run.
"""

import copy
import dataclasses
import os
import pickle
import subprocess
import sys
import threading

import pytest

from relwp import domains as D
from relwp import programs as P
from relwp import specmonads as sm
from relwp import whilelang as W
from relwp.domains import FiniteDomain, Value
from relwp.programs import Signature
from relwp.specmonads import OutcomeSpace
from relwp.whilelang import StoreSignature

SRC = os.path.dirname(os.path.dirname(os.path.abspath(D.__file__)))
IMPORTS = ("from relwp.domains import FiniteDomain, Value; "
           "from relwp.programs import Signature; "
           "from relwp.specmonads import OutcomeSpace; "
           "from relwp.whilelang import StoreSignature, Lit, Loc, Not, BinOp, Skip, Assign, Seq, "
           "If, While")
SYNTAX = (W.Lit, W.Loc, W.Not, W.BinOp, W.Skip, W.Assign, W.Seq, W.If, W.While)
NAMES = dict(FiniteDomain=FiniteDomain, Value=Value, Signature=Signature, OutcomeSpace=OutcomeSpace,
             StoreSignature=StoreSignature, **{cls.__name__: cls for cls in SYNTAX})

A = "FiniteDomain('A', 2, ('x', 'y'))"
S = "FiniteDomain('S', 3)"
# per class: the object built positionally, and the same fields by keyword
CASES = {
    "domain": (A, "FiniteDomain(labels=('x', 'y'), name='A', size=2)"),
    "value": (f"Value({A}, 1)", f"Value(index=1, domain={A})"),
    "signature": (f"Signature('io', None, None, {A}, {S})", f"Signature('io', out={S}, inp={A})"),
    "space": (f"OutcomeSpace('WrelSt', {A}, {A}, {S}, {S})",
              f"OutcomeSpace(s2={S}, s1={S}, a2={A}, a1={A}, tag='WrelSt', o2=None)"),
    "store": (f"StoreSignature(('l', 'h'), {A}, (('l', 'low'), ('h', 'high')))",
              f"StoreSignature(labels=(('l', 'low'), ('h', 'high')), values={A}, locations=('l', 'h'))"),
    "statement": ("Seq(Assign('l', BinOp('+', Loc('h'), Lit(1))), While(Not(Loc('l')), Skip()))",
                  "Seq(second=While(body=Skip(), cond=Not(arg=Loc(name='l'))), first=Assign("
                  "expr=BinOp(right=Lit(value=1), op='+', left=Loc(name='h')), loc='l'))"),
}
CLASSES = (FiniteDomain, Value, Signature, OutcomeSpace, StoreSignature) + SYNTAX


def _env(**extra):
    return dict(os.environ, **extra,
                PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_equality_and_hashing_are_identity(cls):
    assert cls.__eq__ is object.__eq__ and cls.__hash__ is object.__hash__


@pytest.mark.parametrize("case", sorted(CASES))
def test_positional_and_keyword_construction_give_one_object(case):
    positional, keyword = CASES[case]
    obj = eval(positional, NAMES)
    assert eval(keyword, NAMES) is obj and eval(positional, NAMES) is obj
    assert dataclasses.replace(obj) is obj
    if hasattr(copy, "replace"):      # Python 3.13 and later
        assert copy.replace(obj) is obj


@pytest.mark.parametrize("case", sorted(CASES))
def test_pickle_copy_and_deepcopy_return_the_object(case):
    obj = eval(CASES[case][0], NAMES)
    twins = [pickle.loads(pickle.dumps(obj, protocol))
             for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    twins += [copy.copy(obj), copy.deepcopy(obj), copy.deepcopy([obj, obj])[1]]
    assert all(twin is obj for twin in twins)


@pytest.mark.parametrize("case", sorted(CASES))
def test_a_pickle_made_under_another_hash_seed_is_the_object_here(case):
    built = CASES[case][0]
    code = f"import pickle, sys; {IMPORTS}; sys.stdout.write(pickle.dumps({built}).hex())"
    out = subprocess.run([sys.executable, "-c", code], env=_env(PYTHONHASHSEED="12345"),
                         check=True, capture_output=True, text=True).stdout
    there = pickle.loads(bytes.fromhex(out))
    here = eval(built, NAMES)
    assert there is here


def test_a_failed_validation_pools_nothing():
    d = D.domain("A", 2)
    bad = [
        (FiniteDomain, lambda: D.domain("A", 0)),
        (FiniteDomain, lambda: FiniteDomain("A", 2, ("x",))),
        (Value, lambda: d.value(2)),
        (Value, lambda: Value(d, -1)),
        (Signature, lambda: Signature("state")),
        (Signature, lambda: Signature("loop")),
        (OutcomeSpace, lambda: OutcomeSpace("WrelSt", d, d)),
        (OutcomeSpace, lambda: sm.io_space(d, d, d, d, d, None)),
        (StoreSignature, lambda: StoreSignature(("l", "l"), d)),
        (StoreSignature, lambda: StoreSignature((), d)),
        (StoreSignature, lambda: StoreSignature(("l", "h"), d, (("l", "low"),))),
        (StoreSignature, lambda: StoreSignature(("l",), d, (("l", "low"), ("l", "low")))),
        (StoreSignature, lambda: StoreSignature(("l",), d, (("l", "secret"),))),
        (StoreSignature, lambda: W.store_signature(("l",), d, {"l": "low", "h": "high"})),
        (StoreSignature, lambda: StoreSignature(("l", "h"), d, (("h", "high"), ("l", "low")))),
    ]
    for cls, build in bad:
        pooled = len(cls._pool)
        for _ in range(2):
            with pytest.raises(ValueError):
                build()
        assert len(cls._pool) == pooled


def test_a_call_that_names_no_fields_right_raises():
    for call in (lambda: FiniteDomain("A"), lambda: FiniteDomain("A", 2, None, 4),
                 lambda: FiniteDomain("A", 2, colour="red"), lambda: Signature()):
        with pytest.raises(TypeError):
            call()


def test_defaulted_fields_are_read_once_per_class(monkeypatch):
    calls = []
    real = D.fields
    monkeypatch.setattr(D, "fields", lambda cls: calls.append(cls) or real(cls))
    assert all(P.prob_sig() is P.prob_sig() for _ in range(500))
    assert len(calls) <= 1


def test_signature_helpers_take_the_positional_fast_path(monkeypatch):
    d = D.domain("SigHelp", 2)
    helpers = [lambda: P.state_sig(d), lambda: P.exc_sig(d), P.ndet_sig,
               lambda: P.io_sig(d, d), P.prob_sig, lambda: P.imp_sig(d)]
    first = [h() for h in helpers]   # the first call of a class may read its fields
    calls = []
    real = Signature._full_args.__func__
    monkeypatch.setattr(Signature, "_full_args",
                        classmethod(lambda cls, a, kw: calls.append(cls) or real(cls, a, kw)))
    for h, sig in zip(helpers, first):
        assert all(h() is sig for _ in range(1000))
    assert calls == []
    assert first[3].inp is first[3].out is d and first[1].exc is d and first[0].state is d


def test_a_domain_makes_each_value_once():
    d = D.domain("Fresh", 4)
    direct = Value(d, 2)
    assert d.value(2) is direct
    first, again = list(d.values()), list(d.values())
    assert all(a is b for a, b in zip(first, again)) and len(first) == 4
    assert all(d.value(i) is v and Value(d, i) is v for i, v in enumerate(first))
    assert first[2] is direct
    # the other constructors of the package return the kept values too
    assert D.BOOL.value(1) is D.TRUE is D.boolv(True)
    assert P.ret(P.ndet_sig(), d.value(3)).node.value is first[3]


def test_threads_building_one_object_all_get_the_same():
    names = [f"Raced{k}" for k in range(2000)]
    got = [[] for _ in range(8)]
    start = threading.Barrier(len(got))

    def build(out):
        start.wait(timeout=60)
        out.extend(Value(FiniteDomain(n, 3), 2) for n in names)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=build, args=(out,)) for out in got]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert all(len(out) == len(names) for out in got)
    assert all(a is b for out in got[1:] for a, b in zip(got[0], out))


DETERMINISM = """
from relwp import observations as O, programs as P, rules as R, whilelang as W
from relwp.domains import domain
Z3 = domain("Z3", 3)
IO = P.io_sig(Z3, Z3)
# reads two inputs and echoes the first before or after reading the second
c1 = P.inp(IO, lambda i: P.inp(IO, lambda j: P.output(IO, i, P.ret(IO, j))))
c2 = P.inp(IO, lambda i: P.output(IO, i, P.inp(IO, lambda j: P.ret(IO, j))))
io = R.judgment(O.observation_io(Z3, Z3, Z3, Z3), c1, c2, O.theta_io(c2, c1))
N = P.ndet_sig()
pick = P.pick_fin([P.ret(N, v) for v in Z3.values()])
one = P.ret(N, Z3.value(1))
ndet = R.judgment(O.observation_ndet(O.FORALL), pick, pick, O.theta_ndet(O.FORALL, one, one))
sig = W.store_signature(["l", "h"], Z3, {"l": "low", "h": "high"})
ni = W.ni_judgment(W.parse_while("l := h"), sig)
for j in (io, ndet, ni):
    v = R.oracle_check(j)
    print(repr((v.kind, v.valuation, v.inner.kind, v.inner.point, v.inner.phi)))
"""


def test_failing_verdicts_read_the_same_in_every_interpreter():
    runs = [subprocess.run([sys.executable, "-c", DETERMINISM], env=_env(PYTHONHASHSEED=seed),
                           check=True, capture_output=True, text=True).stdout
            for seed in ("0", "0", "4242")]
    lines = runs[0].splitlines()
    assert len(lines) == 3 and all(line.startswith("('fails', ()") for line in lines)
    assert runs[1] == runs[0] and runs[2] == runs[0]
