"""Program trees and reference evaluators."""

import copy
import dataclasses
import os
import pickle
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relwp.domains import BOOL, UNIT, UNIT_VAL, FiniteDomain, boolv, domain
from relwp import programs as P
from relwp.genprog import enumerate_programs, random_program

import reference

Z8 = domain("Z8", 8)
Z3 = domain("Z3", 3)
E2 = domain("E", 2)

st_sig = P.state_sig(Z8)


def test_run_state_increment():
    # read the state, add 2 mod 8, write it back
    p = P.bind(P.get_state(st_sig),
               lambda x: P.put_unit(st_sig, Z8.value((x.index + 2) % 8), UNIT_VAL))
    v, s = P.run_imp(p, Z8.value(3))
    assert v == UNIT_VAL
    assert s == Z8.value(5)


def test_run_state_ret_keeps_state():
    p = P.ret(st_sig, Z8.value(4))
    assert P.run_imp(p, Z8.value(7)) == (Z8.value(4), Z8.value(7))


def test_run_state_put_then_get():
    p = P.bind(P.put_unit(st_sig, Z8.value(1), UNIT_VAL), lambda _: P.get_state(st_sig))
    assert P.run_imp(p, Z8.value(6)) == (Z8.value(1), Z8.value(1))


def test_normalize_left_unit():
    k = lambda v: P.put_unit(st_sig, v, UNIT_VAL)
    p = P.bind(P.ret(st_sig, Z8.value(3)), k)
    assert P.normalize(p) == k(Z8.value(3))


def test_normalize_right_unit():
    m = P.get_state(st_sig)
    p = P.bind(m, lambda v: P.ret(st_sig, v))
    assert P.normalize(p) == m


def test_normalize_associates_into_get():
    f = lambda s: P.ret(st_sig, Z8.value((s.index + 1) % 8))
    g = lambda v: P.put_unit(st_sig, v, UNIT_VAL)
    p = P.bind(P.bind(P.get_state(st_sig), f), g)
    q = P.normalize(p)
    assert isinstance(q.node, P.Get)
    for s in Z8.values():
        assert P.run_imp(p, s) == P.run_imp(q, s)


def test_run_exc_catch_of_throw():
    sig = P.exc_sig(E2)
    p = P.catch(P.throw(sig, E2.value(0), Z8), lambda e: P.ret(sig, Z8.value(7)))
    assert P.run_exc(p) == (P.OK, Z8.value(7))


def test_run_exc_throw_discards_continuation():
    sig = P.exc_sig(E2)
    p = P.bind(P.throw(sig, E2.value(0), Z8), lambda v: P.ret(sig, Z8.value(1)))
    assert P.run_exc(p) == (P.ERR, E2.value(0))


def test_run_exc_catch_passes_normal_result():
    sig = P.exc_sig(E2)
    p = P.catch(P.ret(sig, Z8.value(2)), lambda e: P.ret(sig, Z8.value(0)))
    assert P.run_exc(p) == (P.OK, Z8.value(2))


def test_put_and_throw_reject_values_outside_the_signature():
    # a state or exception from another domain would be decoded as some
    # in-domain value, or fail in the evaluator
    E3 = domain("E3", 3)
    with pytest.raises(ValueError, match="state domain"):
        P.put(P.state_sig(BOOL), E3.value(2), P.ret(P.state_sig(BOOL), UNIT_VAL))
    with pytest.raises(ValueError, match="state domain"):
        P.put_unit(P.imp_sig(Z3), Z8.value(1), UNIT_VAL)
    with pytest.raises(ValueError, match="exception domain"):
        P.throw(P.exc_sig(E2), E3.value(2), Z8)
    with pytest.raises(ValueError, match="exception domain"):
        P.throw(P.state_sig(Z3), E2.value(0), Z8)


def test_run_ndet_choice():
    sig = P.ndet_sig()
    c = P.choice(P.ret(sig, boolv(True)), P.ret(sig, boolv(False)))
    p = P.bind(c, lambda b: P.ret(sig, Z3.value(1 if b.index else 0)))
    assert P.run_ndet(p) == frozenset({Z3.value(0), Z3.value(1)})


def test_run_ndet_fail():
    assert P.run_ndet(P.fail(P.ndet_sig(), Z3)) == frozenset()


def test_run_ndet_pick_fin():
    sig = P.ndet_sig()
    p = P.pick_fin([P.ret(sig, v) for v in Z3.values()])
    assert P.run_ndet(p) == frozenset(Z3.values())


def test_run_io_echo():
    sig = P.io_sig(Z8, Z8)
    p = P.bind(P.read_input(sig), lambda i: P.output(sig, i, P.ret(sig, UNIT_VAL)))
    v, h = P.run_io(p, [Z8.value(4)])
    assert v == UNIT_VAL
    # newest first: the output in front of the input
    assert h == ((P.OUT, Z8.value(4)), (P.IN, Z8.value(4)))


def test_run_io_ret_no_events():
    z10 = domain("Z10", 10)
    sig = P.io_sig(z10, z10)
    assert P.run_io(P.ret(sig, z10.value(9)), []) == (z10.value(9), ())


def test_run_io_exhausted():
    sig = P.io_sig(Z8, Z8)
    with pytest.raises(P.InputExhausted):
        P.run_io(P.read_input(sig), [])


def test_run_prob_flip():
    sig = P.prob_sig()
    d = P.run_prob(P.flip_bool(sig, Fraction(1, 3)))
    assert d.weight(boolv(True)) == Fraction(1, 3)
    assert d.weight(boolv(False)) == Fraction(2, 3)


def test_run_prob_two_flips():
    sig = P.prob_sig()
    p = P.bind(P.flip_bool(sig, Fraction(1, 2)),
               lambda b: P.flip_bool(sig, Fraction(1, 2)) if b.index else P.ret(sig, boolv(False)))
    d = P.run_prob(p)
    assert d.weight(boolv(True)) == Fraction(1, 4)
    assert d.weight(boolv(False)) == Fraction(3, 4)


def test_run_prob_ret_is_dirac():
    sig = P.prob_sig()
    d = P.run_prob(P.ret(sig, Z3.value(2)))
    assert d.weights == (0, 0, 1)


imp3 = P.imp_sig(Z3)


def loop_forever(sig):
    return P.do_while(P.ret(sig, boolv(True)), P.ret(sig, UNIT_VAL))


def test_reachable_outcomes_trivial_loop_diverges():
    for s in Z3.values():
        assert P.run_imp(loop_forever(imp3), s) is None


def countdown(sig, dom):
    # while x != 0: x -= 1
    body = P.get(sig, lambda x: P.ret(sig, boolv(False)) if x.index == 0
                 else P.put(sig, dom.value(x.index - 1), P.ret(sig, boolv(True))))
    return P.do_while(body, P.ret(sig, UNIT_VAL))


def test_reachable_outcomes_countdown():
    assert P.run_imp(countdown(imp3, Z3), Z3.value(2)) == (UNIT_VAL, Z3.value(0))


def test_reachable_outcomes_ret():
    p = P.ret(imp3, Z3.value(2))
    assert P.run_imp(p, Z3.value(1)) == (Z3.value(2), Z3.value(1))


# -- generated-program properties ---------------------------------------------

Z4 = domain("Z4", 4)

SIGS = [
    (P.state_sig(Z4), Z4),
    (P.exc_sig(Z3), Z4),
    (P.ndet_sig(), Z4),
    (P.io_sig(Z3, Z3), Z4),
    (P.prob_sig(), Z4),
    (P.imp_sig(Z3), Z4),
]


@pytest.mark.parametrize("sig,res", SIGS, ids=[s.effect for s, _ in SIGS])
@given(seed=st.integers(min_value=0, max_value=10**6))
@settings(max_examples=40, deadline=None)
def test_monad_laws_under_evaluators(sig, res, seed):
    rng = random.Random(seed)
    a = rng.choice(list(res.values()))
    m = random_program(rng, sig, res, 4)
    f = [random_program(rng, sig, res, 3) for _ in res.values()]
    g = [random_program(rng, sig, res, 2) for _ in res.values()]

    left_unit = P.bind(P.ret(sig, a), f)
    assert P.semantic_key(left_unit) == P.semantic_key(f[a.index])

    right_unit = P.bind(m, lambda v: P.ret(sig, v))
    assert P.semantic_key(right_unit) == P.semantic_key(m)

    assoc_l = P.bind(P.bind(m, f), g)
    assoc_r = P.bind(m, lambda v: P.bind(f[v.index], g))
    assert P.semantic_key(assoc_l) == P.semantic_key(assoc_r)


@pytest.mark.parametrize("sig,res", SIGS, ids=[s.effect for s, _ in SIGS])
@given(seed=st.integers(min_value=0, max_value=10**6))
@settings(max_examples=40, deadline=None)
def test_normalize_preserves_semantics(sig, res, seed):
    rng = random.Random(seed)
    p = random_program(rng, sig, res, 5)
    q = P.normalize(p)
    assert not _has_spine_bind_over_algebraic(q)
    assert P.semantic_key(p) == P.semantic_key(q)


def _has_spine_bind_over_algebraic(p):
    """After normalize, Bind may only remain directly over a Catch."""
    n = p.node
    if isinstance(n, P.Bind):
        if not isinstance(n.inner.node, P.Catch):
            return True
        return (_has_spine_bind_over_algebraic(n.inner)
                or any(_has_spine_bind_over_algebraic(c) for c in n.cont))
    for child in _children(n):
        if _has_spine_bind_over_algebraic(child):
            return True
    return False


def _children(n):
    if isinstance(n, (P.Ret, P.Throw, P.Fail)):
        return ()
    if isinstance(n, (P.Get, P.PickFin, P.Input)):
        return n.cont
    if isinstance(n, P.Put):
        return (n.then,)
    if isinstance(n, P.Catch):
        return (n.body,) + n.handler
    if isinstance(n, P.Choice):
        return (n.left, n.right)
    if isinstance(n, P.Output):
        return (n.then,)
    if isinstance(n, P.Flip):
        return n.cont
    if isinstance(n, P.DoWhile):
        return (n.body, n.then)
    raise TypeError(n)


_tree = reference.tree


@pytest.mark.parametrize("sig,res", SIGS, ids=[s.effect for s, _ in SIGS])
def test_normalize_matches_the_recursive_reference(sig, res):
    rng = random.Random(sig.effect)
    for _ in range(150):
        p = random_program(rng, sig, res, 5)
        got, want = P.normalize(p), reference.normalize(p)
        assert _tree(got) == _tree(want)
        # the reference builds its nodes outside the pool; rebuilt
        # through it, the reference's tree is the very normal form
        assert P.normalize(want) is got


def test_normalize_keeps_a_bind_over_a_catch_whose_continuation_may_throw():
    sig = P.exc_sig(E2)
    body = P.catch(P.throw(sig, E2.value(0), Z3), lambda e: P.ret(sig, Z3.value(e.index)))
    rethrow = P.bind(body, lambda v: P.throw(sig, E2.value(1), Z3) if v.index == 0
                     else P.ret(sig, v))
    q = P.normalize(rethrow)
    assert isinstance(q.node, P.Bind) and isinstance(q.node.inner.node, P.Catch)
    assert _tree(q) == _tree(reference.normalize(rethrow))
    # a continuation that cannot throw goes inside the catch
    assert isinstance(P.normalize(P.bind(body, lambda v: P.ret(sig, v))).node, P.Catch)


@given(seed=st.integers(min_value=0, max_value=10**6))
@settings(max_examples=60, deadline=None)
def test_prob_mass_is_one(seed):
    rng = random.Random(seed)
    p = random_program(rng, P.prob_sig(), Z4, 5)
    assert P.run_prob(p).mass() == 1


@given(seed=st.integers(min_value=0, max_value=10**6))
@settings(max_examples=60, deadline=None)
def test_divergence_agrees_with_fueled_reference(seed):
    rng = random.Random(seed)
    sig = P.imp_sig(Z4)
    p = random_program(rng, sig, Z3, 5)
    fuel = Z4.size * (P.count_loops(p) + 1) + p.depth
    for s in Z4.values():
        r = P.run_imp(p, s)
        ref = reference.run_imp_fuel(p, s, fuel)
        if r is None:
            assert ref == "fuel"
        else:
            assert ref != "fuel"
            assert r == ref


def _imp_runs(p):
    """p's runs as `P._runs` encodes them, from `run_imp` alone."""
    n = p.sig.state.size
    return tuple(None if r is None else r[0].index * n + r[1].index
                 for r in (P.run_imp(p, s) for s in p.sig.state.values()))


def test_a_bind_whose_parts_have_run_composes_their_runs():
    # seeded state and imp middles and tables over Z2 and Z3 states, loops
    # and divergence among them; the parts are run first in half the cases,
    # so the bound runs are composed, and not run in the other half
    rng = random.Random(30)
    composed = fresh = diverged = 0
    for i in range(600):
        states = (domain("Z2", 2), Z3)[i % 2]
        sig = (P.state_sig, P.imp_sig)[i // 2 % 2](states)
        mid, res = rng.choice((BOOL, Z3)), rng.choice((BOOL, Z3))
        m = random_program(rng, sig, mid, rng.randint(1, 4))
        f = tuple(random_program(rng, sig, res, rng.randint(1, 3)) for _ in mid.values())
        if i // 4 % 2:
            for q in (m, *f):
                P._runs(q)
            composed += 1
        else:
            fresh += m._runs is None
        b = P.bind(m, f)
        assert b._runs is None
        assert P._runs(b) == _imp_runs(b)
        diverged += None in b._runs
        del m, f, b
    assert composed == 300 and fresh > 250 and diverged > 30


def _fuel_runs(p):
    """p's state or imp runs as `P._runs` encodes them, from the fuelled
    reference evaluator: out of fuel is divergence."""
    n = p.sig.state.size
    rs = (reference.run_imp_fuel(p, s, 200) for s in p.sig.state.values())
    return tuple(None if r == "fuel" else r[0].index * n + r[1].index for r in rs)


def _io_replayed(p, outcomes):
    """Each (value, history) outcome, replayed by `run_io` on its inputs."""
    for v, hist in outcomes:
        inputs = [x for tag, x in reversed(hist) if tag == P.IN]
        assert P.run_io(p, inputs) == (v, hist)
    return outcomes


# per effect: its signature, the runs of a bound program by the evaluators
# (each a walk of the whole tree, never `_runs`), and what a run shows
# that the battery must meet: divergence, an empty outcome set, a raise
# passing the bind, a flip at 0, 1/4 and 1/2, or a history of two events
_BIND_RUNS_CASES = {
    P.STATE: (P.state_sig(domain("Z2", 2)), lambda b: {_imp_runs(b), _fuel_runs(b)},
              lambda r: True),
    P.IMP: (P.imp_sig(domain("Z2", 2)), lambda b: {_imp_runs(b), _fuel_runs(b)},
            lambda r: None in r),
    P.NDET: (P.ndet_sig(), lambda b: {frozenset(v.index for v in P.run_ndet(b))},
             lambda r: not r),
    P.EXC: (P.exc_sig(E2), lambda b: {(lambda tag, v: v.index + (tag == P.ERR) * Z3.size)(
        *P.run_exc(b))}, lambda r: r >= Z3.size),
    P.PROB: (P.prob_sig(), lambda b: {tuple(reference.run_prob(b))}, lambda r: True),
    P.IO: (P.io_sig(domain("Z2", 2), domain("Z2", 2)), lambda b: {_io_replayed(b, P._io_walk(b))},
           lambda r: any(len(h) > 1 for _, h in r)),
}


@pytest.mark.parametrize("effect", sorted(_BIND_RUNS_CASES))
def test_bind_runs_agree_with_the_evaluators_on_the_bound_program(effect):
    # seeded middles over Z2 and tables into Z3, so an exception's tag moves
    # by |Z3|, not |Z2|; the bound program is built only to be evaluated
    sig, evaluated, shows = _BIND_RUNS_CASES[effect]
    rng = random.Random(37)
    Z2 = domain("Z2", 2)
    seen, flips = 0, set()
    for _ in range(120):
        m = random_program(rng, sig, Z2, rng.randint(1, 3))
        f = tuple(random_program(rng, sig, Z3, rng.randint(1, 3)) for _ in Z2.values())
        b = P.bind(m, f)
        want = evaluated(b)
        got = P.bind_runs(m, f)
        if effect == P.PROB:
            den, weights = got
            got = tuple(Fraction(w, den) for w in weights)
        assert want == {got}
        # the parts have run now, so the bound program's runs are composed
        assert P._runs(b) == P.bind_runs(m, f)
        seen += shows(got)
        flips |= {q.node.p for q in P._postorder(b) if type(q.node) is P.Flip}
        del m, f, b
    assert seen > 10
    assert flips == ({Fraction(0), Fraction(1, 4), Fraction(1, 2)} if effect == P.PROB else set())


def test_do_while_unrolling_under_evaluation():
    # do_while(body, k) behaves like bind(body, b -> b ? do_while(body, k) : k)
    rng = random.Random(7)
    sig = P.imp_sig(Z3)
    for _ in range(30):
        body = random_program(rng, sig, BOOL, 3)
        k = random_program(rng, sig, Z3, 3)
        loop = P.do_while(body, k)
        unrolled = P.bind(body, lambda b: loop if b.index else k)
        assert P.semantic_key(loop) == P.semantic_key(unrolled)


def test_enumeration_counts_state_depth3():
    progs = enumerate_programs(P.state_sig(domain("S", 2)), domain("A", 2), 3)
    assert len(progs) == 122  # 2 rets, 10 at depth <=2, the rest get/put over those
    assert all(p.depth <= 3 for p in progs)
    assert len(set(progs)) == len(progs)


def _constructions():
    """A few programs of several shapes, built afresh (signatures too) on
    every call: the pool returns the live ones."""
    st, pr, imp = P.state_sig(Z3), P.prob_sig(), P.imp_sig(Z3)
    return [
        P.put(st, Z3.value(1), P.get_state(st)),
        P.bind(P.get_state(st), lambda s: P.put_unit(st, s, UNIT_VAL)),
        P.flip(pr, Fraction(1, 3), P.ret(pr, Z3.value(0)),
               P.flip(pr, Fraction(1, 2), P.ret(pr, Z3.value(1)), P.ret(pr, Z3.value(2)))),
        P.do_while(P.get(imp, lambda s: P.ret(imp, boolv(s.index == 0))), P.ret(imp, UNIT_VAL)),
    ]


def test_a_check_builds_each_program_once():
    built = _constructions()
    assert all(a is b for a, b in zip(built, _constructions()))
    st = P.state_sig(Z3)
    put = built[0]
    # another head, another signature: another program
    assert P.put(st, Z3.value(2), put.node.then) is not put
    assert P.put(P.state_sig(Z8), Z8.value(1), put.node.then) is not put
    pr = P.prob_sig()
    flip = built[2]
    assert P.flip(pr, Fraction(1, 4), *flip.node.cont) is not flip
    assert P.flip(pr, Fraction(1, 3), *flip.node.cont) is flip
    assert P.flip(pr, Fraction(2, 6), *flip.node.cont) is flip
    assert P.ret(P.ndet_sig(), Z3.value(0)) is not flip.node.cont[0]
    # equality is identity, and a copy or an unpickled program is the live one
    assert P.Program.__eq__ is object.__eq__ and P.Program.__hash__ is object.__hash__
    assert all(copy.deepcopy(p) is p and pickle.loads(pickle.dumps(p)) is p for p in built)
    # a rejected construction is rejected before the pool is read, and pools nothing
    pooled = len(P._POOL)
    with pytest.raises(ValueError, match="not allowed"):
        P._mk(pr, Z3, P.Put(Z3.value(1), put.node.then))
    assert len(P._POOL) == pooled


def test_programs_equal_answers_one_object_without_normalizing(monkeypatch):
    p = _constructions()[1]
    monkeypatch.setattr(P, "normalize", lambda q: pytest.fail("normalized"))
    assert P.programs_equal(p, p)


def test_a_signature_pickled_under_another_string_hash_seed_hashes_here():
    # a stored hash carried across processes would disagree with this one
    code = ("import pickle, sys; from relwp import programs as P; "
            "from relwp.domains import domain; "
            "sys.stdout.write(pickle.dumps(P.io_sig(domain('I', 2, ('a', 'b')), "
            "domain('O', 3))).hex())")
    src = os.path.dirname(os.path.dirname(os.path.abspath(P.__file__)))
    env = dict(os.environ, PYTHONHASHSEED="12345",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    there = pickle.loads(bytes.fromhex(out))
    here = P.io_sig(domain("I", 2, ("a", "b")), domain("O", 3))
    assert there == here and hash(there) == hash(here)
    assert {here: 1}[there] == 1
    assert here.__reduce__() == (P.Signature, (P.IO, None, None, here.inp, here.out))


def test_programs_keep_no_instance_dict():
    p = _constructions()[1]
    P.normalize(p)
    P._runs(p)
    assert not hasattr(p, "__dict__") and p._runs is not None
    # the pool holds one weak reference to it, not the program itself
    assert [type(r) for r in P._POOL.values() if r() is p] == [P._Ref]
    with pytest.raises(dataclasses.FrozenInstanceError):
        p.depth = 3
