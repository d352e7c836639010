"""Spec carriers: units, binds, embeddings, and the comparison procedure.

Reference transformers are written out longhand from their defining
formulas, independently of the library's fast forms, so every check
pins behaviour rather than echoing the implementation.
"""

import copy
import gc
import os
import pickle
import random
import re
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from relwp import lp
from relwp import observations as O
from relwp import rules as R
from relwp import specmonads as sm
from relwp.domains import BOOL, UNIT, Value, domain
from relwp.genprog import random_program
from relwp.programs import (IN, OUT, bind, choice, get, get_state, ndet_sig, pick_fin, put, ret,
                            run_imp, state_sig)

import reference

Z2 = domain("Z2", 2)
Z3 = domain("Z3", 3)
Z4 = domain("Z4", 4)

F = Fraction


# ---------------------------------------------------------------------------
# Outcome spaces


def test_space_size_arithmetic():
    assert sm.pure_space(Z3, Z4).size == 12
    assert sm.state_space(Z3, Z2, Z3, Z2).size == 36
    assert sm.state_space(Z3, Z2, Z3, Z2).point_count == 4
    assert sm.err_space(Z2, Z3).size == 7  # 6 value pairs + the raised outcome
    assert sm.prob_space(Z2, Z2).size == 4
    pps = sm.pp_state_space(Z2, Z2, Z2, Z2)
    assert pps.size == 16  # the WrelSt outcomes: (2*2) squared
    assert pps.point_count * pps.size == 64  # post table entries: (2*2*2) squared


def test_state_outcome_roundtrip():
    space = sm.state_space(Z3, Z2, Z4, Z2)
    for a1 in range(3):
        for s1 in range(2):
            for a2 in range(4):
                for s2 in range(2):
                    o = space.st_outcome(a1, s1, a2, s2)
                    assert space.st_split(o) == (a1, s1, a2, s2)


def test_postcondition_validation():
    space = sm.pure_space(Z2, Z2)
    phi = sm.postcondition(space, [0, 3])
    assert phi(0) and phi(3) and not phi(1)
    with pytest.raises(ValueError):
        sm.postcondition(space, [7])
    prob = sm.prob_space(Z2, Z2)
    with pytest.raises(ValueError):
        sm.postcondition(prob, [F(1, 2)] * 3)
    with pytest.raises(ValueError):
        sm.postcondition(prob, [F(3, 2)] + [F(0)] * 3)


# ---------------------------------------------------------------------------
# Units


def test_ret_state_matches_display():
    # fun phi (s1,s2) -> phi ((a1,s1),(a2,s2)), with a1=1, a2=2
    space = sm.state_space(Z3, Z2, Z3, Z2)
    w = sm.spec_ret(space, Z3.value(1), Z3.value(2))

    def reference(phi, pt):
        s1, s2 = space.point_split(pt)
        return phi(space.st_outcome(1, s1, 2, s2))

    rng = random.Random(7)
    for pt in space.points():
        for _ in range(50):
            phi = frozenset(o for o in space.outcomes() if rng.random() < 0.5)
            assert w.at(phi, pt) == reference(lambda o: o in phi, pt)


def _post(w):
    """A pair's post table in `pp_spec`'s layout: each point's row in turn."""
    return tuple(bool(d >> o & 1) for (d,) in w.fams for o in w.space.outcomes())


def test_ret_pp_pure_matches_display():
    space = sm.pp_pure_space(Z3, Z3)
    w = sm.spec_ret(space, Z3.value(1), Z3.value(2))
    assert w.pre == (True,)
    hit = 1 * 3 + 2
    assert _post(w) == tuple(o == hit for o in space.outcomes())


def test_ret_pp_state_keeps_state_fixed():
    space = sm.pp_state_space(Z2, Z2, Z2, Z2)
    w = sm.spec_ret(space, Z2.value(1), Z2.value(0))
    assert all(w.pre)
    post = _post(w)
    assert len(post) == space.point_count * space.size
    for o, got in enumerate(post):
        si1, a1, sf1, si2, a2, sf2 = space.pp_post_split(o)
        expected = a1 == 1 and a2 == 0 and si1 == sf1 and si2 == sf2
        assert got == expected


def test_ret_prob_is_point_mass():
    space = sm.prob_space(Z3, Z3)
    w = sm.spec_ret(space, Z3.value(2), Z3.value(2))
    rng = random.Random(3)
    for _ in range(20):
        phi = tuple(F(rng.randrange(5), 4) for _ in space.outcomes())
        assert w.at(phi) == phi[2 * 3 + 2]


def test_ret_err_demands_the_value_pair():
    space = sm.err_space(Z2, Z2)
    w = sm.spec_ret(space, Z2.value(0), Z2.value(1))
    assert w.demonic_at(0) == frozenset({space.err_ok(0, 1)})
    assert w.at({space.err_ok(0, 1)}, 0)
    assert not w.at({space.err_bad()}, 0)


def test_ret_domain_mismatch_rejected():
    space = sm.pure_space(Z2, Z2)
    with pytest.raises(ValueError):
        sm.spec_ret(space, Z3.value(1), Z2.value(0))


# ---------------------------------------------------------------------------
# Binds


def test_bind_left_unit_state():
    space = sm.state_space(Z3, Z2, Z3, Z2)
    wf = lambda i1, i2: sm.spec_ret(space, Z3.value((i1 + 1) % 3), Z3.value(i2))
    w = sm.spec_bind(sm.spec_ret(space, Z3.value(1), Z3.value(2)), wf)
    assert sm.spec_equiv(w, wf(1, 2)).holds


def test_bind_state_against_program_oracle():
    # wm observes (get, get); the continuation is a constant spec.  The
    # composite must equal the transformer read off by running the
    # composed programs directly.
    s_dom = Z2
    sig = state_sig(s_dom)
    c1 = bind(get_state(sig), lambda v: put(sig, s_dom.value(1 - v.index), ret(sig, Value(UNIT, 0))))
    c2 = bind(get_state(sig), lambda v: ret(sig, v))
    space = sm.state_space(UNIT, s_dom, s_dom, s_dom)

    def run_transformer(p1, p2):
        def body(phi, pt):
            s1, s2 = space.point_split(pt)
            v1, f1 = run_imp(p1, s_dom.value(s1))
            v2, f2 = run_imp(p2, s_dom.value(s2))
            return phi(space.st_outcome(v1.index, f1.index, v2.index, f2.index))
        return sm.closure_spec(space, body)

    mid = sm.state_space(s_dom, s_dom, s_dom, s_dom)
    wm_table = []
    for pt in mid.points():
        s1, s2 = mid.point_split(pt)
        wm_table.append(frozenset({mid.st_outcome(s1, s1, s2, s2)}))
    wm = sm.demonic_spec(mid, wm_table)

    tail1 = lambda v: put(sig, s_dom.value(1 - v.index), ret(sig, Value(UNIT, 0)))
    tail2 = lambda v: ret(sig, v)
    wf = lambda i1, i2: run_transformer(tail1(s_dom.value(i1)), tail2(s_dom.value(i2)))
    composed = sm.spec_bind(wm, wf)
    direct = run_transformer(c1, c2)
    assert sm.spec_equiv(composed, direct).holds


def test_bind_pp_pure_matches_display():
    space = sm.pp_pure_space(Z2, Z2)
    post = [o in {0 * 2 + 1, 1 * 2 + 0} for o in space.outcomes()]
    w = sm.pp_spec(space, [True], post)

    def f(i1, i2):
        return sm.pp_spec(space, [i1 == 0], [o == i1 * 2 + i2 for o in space.outcomes()])

    out = sm.spec_bind(w, f)
    # pre' = pre and (forall pairs in post, pre of the continuation);
    # the pair (1,0) lands in a continuation with a false precondition.
    assert out.pre == (False,)
    assert _post(out) == tuple(post)


def test_bind_err_routes_raises_past_the_continuation():
    space = sm.err_space(Z2, Z2)
    raised = sm.demonic_spec(space, [frozenset({space.err_bad()})])
    out = sm.spec_bind(raised, lambda i1, i2: sm.spec_ret(space, Z2.value(i1), Z2.value(i2)))
    assert out.demonic_at(0) == frozenset({space.err_bad()})
    mixed = sm.demonic_spec(space, [frozenset({space.err_bad(), space.err_ok(1, 1)})])
    out2 = sm.spec_bind(mixed, lambda i1, i2: sm.spec_ret(space, Z2.value(1 - i1), Z2.value(i2)))
    assert out2.demonic_at(0) == frozenset({space.err_bad(), space.err_ok(0, 1)})


def test_bind_io_threads_histories():
    space = sm.io_space(Z2, Z2, Z2, Z2, Z2, Z2)
    ev, ev2 = (OUT, Z2.value(1)), (IN, Z2.value(0))
    wm = sm.io_demonic_spec(space, {(3, (ev,), ())})
    wf = lambda i1, i2: sm.io_demonic_spec(space, {((1 - i1) * 2 + i2, (ev2,), (ev2,))})
    out = sm.spec_bind(wm, wf)
    # the continuation's events go after the middle's, newest first
    assert out.root == frozenset({(0 * 2 + 1, (ev2, ev), (ev2,))})
    assert out.demonic_at(((ev,), ())) == frozenset({(1, (ev2, ev, ev), (ev2,))})


@pytest.mark.parametrize("space", [sm.pure_space(Z2, Z2), sm.io_space(Z2, Z2, Z2, Z2, Z2, Z2)],
                         ids=["pure", "io"])
def test_bind_refuses_malformed_continuation_tables(space):
    wm = sm.spec_ret(space, Z2.value(0), Z2.value(1))
    conts = [sm.spec_ret(space, Z2.value(i1), Z2.value(i2)) for i1 in range(2) for i2 in range(2)]
    for wf in (conts[:3], tuple(conts + conts[:1])):
        with pytest.raises(ValueError, match=f"^continuation table has {len(wf)} entries, "
                                             "expected 4$"):
            sm.spec_bind(wm, wf)
    table = {divmod(k, 2): w for k, w in enumerate(conts)}
    del table[(1, 1)]
    with pytest.raises(ValueError, match=r"no entry for the value pair \(1, 1\)$"):
        sm.spec_bind(wm, table)
    table[(1, 1)] = conts[3]
    for wf in (conts, table):
        assert sm.spec_equiv(sm.spec_bind(wm, wf), conts[1]).holds
    # a key outside the middle's value pairs is named, not ignored
    for extra in ((2, 0), "x"):
        with pytest.raises(ValueError, match=f"^continuation table has an entry for "
                                             f"{re.escape(repr(extra))}, which is not a value "
                                             "pair of the middle$"):
            sm.spec_bind(wm, {**table, extra: conts[0]})


# ---------------------------------------------------------------------------
# Monad laws, checked extensionally on small spaces


def _table(w):
    """A demonic spec's entry at every point."""
    return tuple(w.demonic_at(pt) for pt in w.space.points())


def _rebuilt(w):
    """The same transformer, rebuilt from its demand families."""
    return sm.demand_spec(w.space, w.fams)


def _random_demonic(rng, space):
    table = []
    for _ in range(space.point_count):
        if rng.random() < 0.15:
            table.append(sm.VIOLATED)
        else:
            table.append(frozenset(o for o in space.outcomes() if rng.random() < 0.4))
    return sm.demonic_spec(space, table)


def _random_pp(rng, space):
    pre = [rng.random() < 0.8 for _ in range(space.point_count)]
    post = [rng.random() < 0.5 for _ in range(space.point_count * space.size)]
    return sm.pp_spec(space, pre, post)


def _random_pieces(rng, space):
    # Sparse rows keep bind compositions small; the scaling keeps the
    # minimum within [0,1] so these stay genuine carrier elements.
    def row():
        coeffs = [F(0)] * space.size
        for o in rng.sample(range(space.size), rng.randrange(1, 3)):
            coeffs[o] = F(rng.randrange(1, 4), 4)
        return coeffs
    k = F(rng.randrange(3), 4)
    coeffs = row()
    total = k + sum(coeffs)
    if total > 1:
        coeffs = [c * (1 - k) / (total - k) for c in coeffs]
    pieces = [(k, coeffs)]
    if rng.random() < 0.5:
        pieces.append((F(rng.randrange(3), 4), row()))
    return sm.linear_spec(space, pieces)


def _io_outcomes_near(space):
    """The root outcomes of at most one event on each side."""
    def steps(i, o):
        return [()] + [((IN, v),) for v in i.values()] + [((OUT, v),) for v in o.values()]
    return [(v, e1, e2) for v in range(space.a1.size * space.a2.size)
            for e1 in steps(space.i1, space.o1) for e2 in steps(space.i2, space.o2)]


def _random_io(rng, space):
    """A random interactive spec: its root entry, drawn."""
    if rng.random() < 0.1:
        return sm.io_demonic_spec(space, sm.VIOLATED)
    return sm.io_demonic_spec(space, (o for o in _io_outcomes_near(space) if rng.random() < 0.3))


def _spaces_for_laws():
    return [
        ("pure", sm.pure_space(Z2, Z2), sm.pure_space(Z2, Z2), _random_demonic),
        ("state", sm.state_space(Z2, Z2, Z2, Z2), sm.state_space(Z2, Z2, Z2, Z2), _random_demonic),
        ("err", sm.err_space(Z2, Z2), sm.err_space(Z2, Z2), _random_demonic),
        ("pp-pure", sm.pp_pure_space(Z2, Z2), sm.pp_pure_space(Z2, Z2), _random_pp),
        ("pp-state", sm.pp_state_space(Z2, Z2, Z2, Z2), sm.pp_state_space(Z2, Z2, Z2, Z2), _random_pp),
        ("prob", sm.prob_space(Z2, Z2), sm.prob_space(Z2, Z2), _random_pieces),
    ]


@settings(deadline=None, max_examples=40)
@given(seed=st.integers(0, 10 ** 9))
def test_monad_laws_fixed_carriers(seed):
    rng = random.Random(seed)
    for name, space, target, make in _spaces_for_laws():
        a1 = Value(space.a1, rng.randrange(space.a1.size))
        a2 = Value(space.a2, rng.randrange(space.a2.size))
        wm = make(rng, space)
        f_table = {(i1, i2): make(rng, target)
                   for i1 in range(space.a1.size) for i2 in range(space.a2.size)}
        g_table = {(i1, i2): make(rng, target)
                   for i1 in range(target.a1.size) for i2 in range(target.a2.size)}
        f = lambda i1, i2: f_table[(i1, i2)]
        g = lambda i1, i2: g_table[(i1, i2)]

        left = sm.spec_bind(sm.spec_ret(space, a1, a2), f)
        assert sm.spec_equiv(left, f(a1.index, a2.index)).holds, name

        unit = lambda i1, i2: sm.spec_ret(space, Value(space.a1, i1), Value(space.a2, i2))
        assert sm.spec_equiv(sm.spec_bind(wm, unit), wm).holds, name

        lhs = sm.spec_bind(sm.spec_bind(wm, f), g)
        rhs = sm.spec_bind(wm, lambda i1, i2: sm.spec_bind(f(i1, i2), g))
        assert sm.spec_equiv(lhs, rhs).holds, name


@settings(deadline=None, max_examples=25)
@given(seed=st.integers(0, 10 ** 9))
def test_monad_laws_io(seed):
    rng = random.Random(seed)
    space = sm.io_space(Z2, Z2, Z2, Z2, Z2, Z2)
    a1, a2 = Z2.value(rng.randrange(2)), Z2.value(rng.randrange(2))
    wm = _random_io(rng, space)
    f_table = {(i1, i2): _random_io(rng, space) for i1 in range(2) for i2 in range(2)}
    f = lambda i1, i2: f_table[(i1, i2)]

    left = sm.spec_bind(sm.spec_ret(space, a1, a2), f)
    assert sm.spec_equiv(left, f(a1.index, a2.index)).holds

    unit = lambda i1, i2: sm.spec_ret(space, Z2.value(i1), Z2.value(i2))
    assert sm.spec_equiv(sm.spec_bind(wm, unit), wm).holds

    g_table = {(i1, i2): _random_io(rng, space) for i1 in range(2) for i2 in range(2)}
    g = lambda i1, i2: g_table[(i1, i2)]
    lhs = sm.spec_bind(sm.spec_bind(wm, f), g)
    rhs = sm.spec_bind(wm, lambda i1, i2: sm.spec_bind(f(i1, i2), g))
    assert sm.spec_equiv(lhs, rhs).holds


def _io_leq_by_enumeration(w, w2, pt) -> bool:
    """w <= w2 at the history point pt, by trying each postcondition over
    the outcomes the two entries there name; the others change neither
    side."""
    named = set()
    for e in (w.demonic_at(pt), w2.demonic_at(pt)):
        named |= set() if e is sm.VIOLATED else e
    named = sorted(named, key=repr)
    for mask in range(2 ** len(named)):
        phi = frozenset(o for k, o in enumerate(named) if mask >> k & 1)
        if w2.at(phi, pt) and not w.at(phi, pt):
            return False
    return True


@settings(deadline=None, max_examples=40)
@given(seed=st.integers(0, 10 ** 9))
def test_io_comparison_is_always_decided(seed):
    # random interactive specs and one above the first, each compared with
    # each in both directions: only holds or fails, as enumeration says at
    # the root and at two other history points
    rng = random.Random(seed)
    u = Value(UNIT, 0)
    pts = (((), ()), (((IN, u),), ()), (((IN, u),), ((OUT, u), (IN, u))))
    space = sm.io_space(UNIT, UNIT, UNIT, UNIT, UNIT, UNIT)
    w = _random_io(rng, space)
    grow = frozenset(o for o in _io_outcomes_near(space) if rng.random() < 0.2)
    above = sm.VIOLATED if w.root is sm.VIOLATED or rng.random() < 0.2 else w.root | grow
    specs = [w, sm.io_demonic_spec(space, above),
             _random_io(rng, space), sm.weakest(space), sm.unsatisfiable(space)]
    assert sm.spec_leq(w, specs[1]).holds
    for a in specs:
        for b in specs:
            v = sm.spec_leq(a, b)
            assert v.kind in ("holds", "fails")
            assert [_io_leq_by_enumeration(a, b, pt) for pt in pts] == [v.holds] * len(pts)
            if v.failed:
                assert b.at(v.phi, v.point) and not a.at(v.phi, v.point)


@settings(deadline=None, max_examples=25)
@given(seed=st.integers(0, 10 ** 9))
def test_monad_laws_closure_instances(seed):
    # Angelic transformers have no demonic form, so these runs force the
    # enumeration path end to end.  Sizes keep every space within reach.
    rng = random.Random(seed)
    space = sm.state_space(Z2, Z2, UNIT, Z2)
    angelic = sm.closure_spec(space, lambda f, pt: any(f(o) for o in space.outcomes()))
    f_table = {(i1, i2): _random_demonic(rng, space) for i1 in range(2) for i2 in range(1)}
    f = lambda i1, i2: f_table[(i1, i2)]

    unit = lambda i1, i2: sm.spec_ret(space, Z2.value(i1), Value(UNIT, i2))
    assert sm.spec_equiv(sm.spec_bind(angelic, unit), angelic).holds

    lhs = sm.spec_bind(sm.spec_bind(angelic, f), unit)
    rhs = sm.spec_bind(angelic, lambda i1, i2: sm.spec_bind(f(i1, i2), unit))
    assert sm.spec_equiv(lhs, rhs).holds


# ---------------------------------------------------------------------------
# The comparison procedure


def test_leq_reflexive_on_handmade_specs():
    space = sm.pure_space(Z2, Z2)
    for w in (sm.demonic_spec(space, [frozenset({1, 2})]),
              sm.unsatisfiable(space),
              sm.weakest(space),
              sm.closure_spec(space, lambda f, pt: any(f(o) for o in range(4)))):
        assert sm.spec_leq(w, w).holds


def test_a_spec_compared_with_itself_holds_at_once(monkeypatch):
    def compared(*_):
        raise AssertionError("a spec was compared with itself")

    for name in ("_leq_prob", "_leq_io", "_uncovered"):
        monkeypatch.setattr(sm, name, compared)
    io = sm.io_space(Z2, Z2, Z2, Z2, Z2, Z2)
    for w in (sm.demonic_spec(sm.state_space(Z2, Z2, UNIT, Z2), [{1}, {0, 3}, {2}, {5}]),
              sm.from_prepost(sm.state_space(UNIT, Z2, UNIT, Z2), [True, False] * 2, [True] * 16),
              sm.linear_spec(sm.prob_space(Z2, Z2), [(0, [F(1, 4)] * 4), (F(1, 8), [0, 1, 0, 0])]),
              sm.io_demonic_spec(io, {(3, ((OUT, Z2.value(1)),), ())})):
        assert sm.spec_leq(w, w) is sm.HOLDS


def test_leq_demonic_subset_example():
    space = sm.pure_space(Z2, Z2)
    w1 = sm.demonic_spec(space, [frozenset({3})])
    w2 = sm.demonic_spec(space, [frozenset({3, 0})])
    assert sm.spec_leq(w1, w2).holds
    v = sm.spec_leq(w2, w1)
    assert v.failed
    # witness is re-checkable: the second spec guarantees phi, the first does not
    assert w1.at(v.phi, v.point) and not w2.at(v.phi, v.point)
    # and the full enumeration agrees in both directions
    assert reference.leq_by_enumeration(w1, w2)[0] == "holds"
    assert reference.leq_by_enumeration(w2, w1) == ("fails", v.point, v.phi)


def test_leq_violated_points():
    space = sm.state_space(UNIT, Z2, UNIT, Z2)
    top = sm.unsatisfiable(space)
    some = sm.spec_ret(space, Value(UNIT, 0), Value(UNIT, 0))
    assert sm.spec_leq(some, top).holds
    v = sm.spec_leq(top, some)
    assert v.failed
    assert some.at(v.phi, v.point) and not top.at(v.phi, v.point)


def test_leq_unknown_without_refutation():
    big = domain("big", 4)
    space = sm.pure_space(big, big)  # 16 outcomes, past the default cap
    w1 = sm.closure_spec(space, lambda f, pt: any(f(o) for o in space.outcomes()))
    w2 = sm.closure_spec(space, lambda f, pt: any(f(o) for o in space.outcomes()))
    assert sm.spec_leq(w1, w2).holds  # both tabulate to the 16 singleton demands
    demonic_all = sm.demonic_spec(space, [frozenset(space.outcomes())])
    v = sm.spec_leq(demonic_all, w1)  # needs "exists" to imply "forall": false
    assert v.failed
    assert w1.at(v.phi, 0) and not demonic_all.at(v.phi, 0)


def test_leq_prob_exact_and_witnessed():
    space = sm.prob_space(Z2, Z2)
    zero = sm.weakest(space)
    avg = sm.linear_spec(space, [(0, [F(1, 4)] * 4)])
    assert sm.spec_leq(zero, avg).holds
    v = sm.spec_leq(avg, zero)
    assert v.failed
    assert avg.at(v.phi) > zero.at(v.phi)
    # min of the two coordinates vs their average: only one direction holds
    two = domain("two", 2)
    one = domain("one", 1)
    sp2 = sm.prob_space(two, one)
    mins = sm.linear_spec(sp2, [(0, [1, 0]), (0, [0, 1])])
    mean = sm.linear_spec(sp2, [(0, [F(1, 2), F(1, 2)])])
    assert sm.spec_leq(mins, mean).holds
    assert sm.spec_leq(mean, mins).failed


def test_leq_rejects_mismatches():
    with pytest.raises(ValueError):
        sm.spec_leq(sm.weakest(sm.pure_space(Z2, Z2)), sm.weakest(sm.prob_space(Z2, Z2)))
    with pytest.raises(ValueError):
        sm.spec_leq(sm.weakest(sm.pure_space(Z2, Z2)), sm.weakest(sm.pure_space(Z2, Z3)))


@settings(deadline=None, max_examples=60)
@given(seed=st.integers(0, 10 ** 9))
def test_demonic_fast_path_agrees_with_enumeration(seed):
    # Invariant: on every space of size <= 12 the subset shortcut and the
    # brute-force quantification over postconditions give the same answer.
    rng = random.Random(seed)
    spaces = [
        sm.pure_space(Z3, Z4),                      # 12 outcomes
        sm.state_space(Z2, Z2, Z3, UNIT),           # 12 outcomes, 2 points
        sm.err_space(Z3, Z3),                       # 10 outcomes
    ]
    space = spaces[rng.randrange(len(spaces))]
    w1 = _random_demonic(rng, space)
    w2 = _random_demonic(rng, space)

    def brute(lo, hi):
        for pt in space.points():
            for mask in range(2 ** space.size):
                phi = tuple(bool(mask >> o & 1) for o in space.outcomes())
                if hi.at(phi, pt) and not lo.at(phi, pt):
                    return False
        return True

    fast = sm.spec_leq(w1, w2)
    assert fast.kind in ("holds", "fails")
    assert fast.holds == brute(w1, w2)
    if fast.failed:
        assert w2.at(fast.phi, fast.point) and not w1.at(fast.phi, fast.point)


@settings(deadline=None, max_examples=40)
@given(seed=st.integers(0, 10 ** 9))
def test_bind_monotone_and_preorder(seed):
    rng = random.Random(seed)
    space = sm.state_space(Z2, Z2, Z2, Z2)

    def weaken(w):
        table = []
        for pt in space.points():
            entry = w.demonic_at(pt)
            if rng.random() < 0.2:
                table.append(sm.VIOLATED)
            elif entry is sm.VIOLATED:
                table.append(sm.VIOLATED)
            else:
                extra = frozenset(o for o in space.outcomes() if rng.random() < 0.3)
                table.append(entry | extra)
        return sm.demonic_spec(space, table)

    w = _random_demonic(rng, space)
    w_up = weaken(w)
    w_upper = weaken(w_up)
    assert sm.spec_leq(w, w_up).holds
    assert sm.spec_leq(w, w_upper).holds  # transitive closure of two steps

    f_table = {(i1, i2): _random_demonic(rng, space) for i1 in range(2) for i2 in range(2)}
    g_table = {k: weaken(v) for k, v in f_table.items()}
    f = lambda i1, i2: f_table[(i1, i2)]
    g = lambda i1, i2: g_table[(i1, i2)]
    assert sm.spec_leq(sm.spec_bind(w, f), sm.spec_bind(w_up, f)).holds
    assert sm.spec_leq(sm.spec_bind(w, f), sm.spec_bind(w, g)).holds

    # reflexivity on whatever we generated
    for cand in (w, w_up, sm.spec_bind(w, f)):
        assert sm.spec_leq(cand, cand).holds


@settings(deadline=None, max_examples=40)
@given(seed=st.integers(0, 10 ** 9))
def test_preorder_transitive_on_random_triples(seed):
    rng = random.Random(seed)
    space = sm.pure_space(Z2, Z3)
    a, b, c = (_random_demonic(rng, space) for _ in range(3))
    if sm.spec_leq(a, b).holds and sm.spec_leq(b, c).holds:
        assert sm.spec_leq(a, c).holds


# ---------------------------------------------------------------------------
# Pre/post embeddings


def test_from_prepost_low_equivalence_table():
    # States are (low, high) pairs; precondition: low parts agree;
    # postcondition: final low parts agree.  The resulting transformer,
    # written straight from its definition, is compared entry by entry.
    s = domain("LH", 4, tuple(f"l{l}h{h}" for l in range(2) for h in range(2)))
    lo = lambda i: i // 2
    space = sm.state_space(UNIT, s, UNIT, s)
    pre = [lo(s1) == lo(s2) for s1 in range(4) for s2 in range(4)]
    post = []
    pps = sm.pp_state_space(UNIT, s, UNIT, s)
    for o in range(pps.point_count * pps.size):
        si1, a1, sf1, si2, a2, sf2 = space.pp_post_split(o)
        post.append(lo(sf1) == lo(sf2))
    w = sm.from_prepost(space, pre, post)
    for pt in space.points():
        s1, s2 = space.point_split(pt)
        entry = w.demonic_at(pt)
        if lo(s1) != lo(s2):
            assert entry is sm.VIOLATED
        else:
            expected = frozenset(
                space.st_outcome(0, f1, 0, f2)
                for f1 in range(4) for f2 in range(4) if lo(f1) == lo(f2))
            assert entry == expected


def test_from_prepost_trivial_and_vacuous():
    space = sm.state_space(Z2, Z2, Z2, Z2)
    pps = sm.pp_state_space(Z2, Z2, Z2, Z2)
    n_post = pps.point_count * pps.size
    # An always-true pair demands phi of every outcome: the transformer
    # collapses to "forall o. phi o", which only the all-true table meets.
    top_true = sm.from_prepost(space, [True] * 4, [True] * n_post)
    for pt in space.points():
        assert top_true.demonic_at(pt) == frozenset(space.outcomes())
    assert top_true.at(frozenset(space.outcomes()), 0)
    assert not top_true.at(frozenset(), 0)
    vac = sm.from_prepost(space, [False] * 4, [True] * n_post)
    rng = random.Random(1)
    for pt in space.points():
        for _ in range(10):
            phi = frozenset(o for o in space.outcomes() if rng.random() < 0.5)
            assert vac.at(phi, pt) is False


def test_embed_ret_pp_state_is_ret_state():
    pps = sm.pp_state_space(Z2, Z2, Z2, Z2)
    ws = sm.state_space(Z2, Z2, Z2, Z2)
    for a1 in range(2):
        for a2 in range(2):
            emb = sm.embed_pp_in_wp(sm.spec_ret(pps, Z2.value(a1), Z2.value(a2)))
            direct = sm.spec_ret(ws, Z2.value(a1), Z2.value(a2))
            assert sm.spec_equiv(emb, direct).holds


def test_embed_all_true_pair_demands_every_outcome():
    # Same collapse as from_prepost(True, True): the embedding display
    # turns an always-true pair into "forall o. phi o".
    pps = sm.pp_state_space(Z2, Z2, Z2, Z2)
    pair = sm.pp_spec(pps, [True] * 4, [True] * (pps.point_count * pps.size))
    emb = sm.embed_pp_in_wp(pair)
    ws = sm.state_space(Z2, Z2, Z2, Z2)
    for pt in ws.points():
        assert emb.demonic_at(pt) == frozenset(ws.outcomes())


@settings(deadline=None, max_examples=50)
@given(seed=st.integers(0, 10 ** 9))
def test_embed_monotone(seed):
    rng = random.Random(seed)
    pps = sm.pp_state_space(Z2, Z2, Z2, Z2)
    w1 = _random_pp(rng, pps)
    w2 = _random_pp(rng, pps)
    if sm.spec_leq(w1, w2).holds:
        assert sm.spec_leq(sm.embed_pp_in_wp(w1), sm.embed_pp_in_wp(w2)).holds


def test_pp_order_is_componentwise():
    space = sm.pp_pure_space(Z2, Z2)
    loose = sm.pp_spec(space, [False], [True] * 4)
    tight = sm.pp_spec(space, [True], [o == 0 for o in range(4)])
    assert sm.spec_leq(tight, loose).holds  # pre weakens, post widens
    assert sm.spec_leq(loose, tight).failed
    with pytest.raises(TypeError):
        loose.at(frozenset(), 0)


def test_a_pair_has_no_demonic_entry():
    # a pair is not a transformer: its post rows are no entries until embedded
    pps = sm.pp_state_space(Z2, Z2, Z2, Z2)
    for w in (sm.spec_ret(pps, Z2.value(0), Z2.value(1)), sm.weakest(pps), sm.unsatisfiable(pps)):
        assert all(w.demonic_at(pt) is None for pt in pps.points())
        assert sm.embed_pp_in_wp(w).demonic_at(0) is not None


# -- pre/post pairs against the explicit-table reference


def _pp_shape(space):
    if space.tag == "PPrelPure":
        return space.a1.size, 1, space.a2.size, 1
    return space.a1.size, space.s1.size, space.a2.size, space.s2.size


def _pp_index(space, t1, t2):
    if space.tag == "PPrelPure":
        return t1[1] * space.a2.size + t2[1]
    return space.pp_post_index(*t1, *t2)


def _pp_point(space, pt):
    return 0 if space.tag == "PPrelPure" else space.point(*pt)


def _pp_tables(space, ref):
    """The reference pair as the pre and post tables `pp_spec` reads."""
    pre_d, post_s = ref
    pre = [None] * space.point_count
    for pt, ok in pre_d.items():
        pre[_pp_point(space, pt)] = ok
    post = [False] * (space.point_count * space.size)
    for t1, t2 in post_s:
        post[_pp_index(space, t1, t2)] = True
    return pre, post


def _pp_build(space, ref):
    return sm.pp_spec(space, *_pp_tables(space, ref))


def _pp_read(w):
    """A pair back as reference tables, through `pp_post_split`."""
    space = w.space
    pts = reference.pp_points(_pp_shape(space))
    pre = {pt: w.pre[_pp_point(space, pt)] for pt in pts}
    post = set()
    for pt, (d,) in enumerate(w.fams):
        for o in space.outcomes():
            if d >> o & 1:
                if space.tag == "PPrelPure":
                    a1, a2 = divmod(o, space.a2.size)
                    post.add(((0, a1, 0), (0, a2, 0)))
                else:
                    si1, a1, sf1, si2, a2, sf2 = space.pp_post_split(pt * space.size + o)
                    post.add(((si1, a1, sf1), (si2, a2, sf2)))
    return pre, frozenset(post)


def _pp_random(rng, shape):
    pre = {pt: rng.random() < 0.8 for pt in reference.pp_points(shape)}
    return pre, frozenset(t for t in reference.pp_triples(shape) if rng.random() < 0.3)


@pytest.mark.parametrize("carrier", ["PPrelPure", "PPrelSt"])
def test_pairs_match_the_explicit_table_reference(carrier):
    rng = random.Random(carrier)
    doms = (Z2, Z3)
    for case in range(200):
        a1, a2, b1, b2, s1, s2 = (rng.choice(doms) for _ in range(6))
        if carrier == "PPrelPure":
            space, cspace = sm.pp_pure_space(a1, a2), sm.pp_pure_space(b1, b2)
        else:
            space, cspace = sm.pp_state_space(a1, s1, a2, s2), sm.pp_state_space(b1, s1, b2, s2)
        shape, cshape = _pp_shape(space), _pp_shape(cspace)
        m = _pp_random(rng, shape)
        conts = {(i1, i2): _pp_random(rng, cshape)
                 for i1 in range(a1.size) for i2 in range(a2.size)}
        wm = _pp_build(space, m)
        assert _pp_read(wm) == m
        i1, i2 = rng.randrange(a1.size), rng.randrange(a2.size)
        assert _pp_read(sm.spec_ret(space, a1.value(i1), a2.value(i2))) == \
            reference.pp_ret(shape, i1, i2)
        built = {pair: _pp_build(cspace, c) for pair, c in conts.items()}
        bound = sm.spec_bind(wm, lambda j1, j2: built[(j1, j2)])
        assert _pp_read(bound) == reference.pp_bind(m, conts), case
        top, bottom = sm.unsatisfiable(space), sm.weakest(space)
        assert _pp_read(top) == reference.pp_unsatisfiable(shape)
        assert _pp_read(bottom) == reference.pp_weakest(shape)
        # four verdicts: against a random pair and against one above m
        pre, post = m
        above = ({pt: ok and rng.random() < 0.7 for pt, ok in pre.items()},
                 post | frozenset(t for t in reference.pp_triples(shape) if rng.random() < 0.1))
        for other in (_pp_random(rng, shape), above):
            for x, y in ((m, other), (other, m)):
                got = sm.spec_leq(_pp_build(space, x), _pp_build(space, y)).holds
                assert got == reference.pp_leq(x, y), case
        for x, y in ((m, reference.pp_unsatisfiable(shape)), (reference.pp_weakest(shape), m)):
            assert sm.spec_leq(_pp_build(space, x), _pp_build(space, y)).holds == \
                reference.pp_leq(x, y)
        emb = sm.embed_pp_in_wp(wm)
        assert sm.from_prepost(emb.space, *_pp_tables(space, m)).fams == emb.fams
        split = emb.space.st_split if carrier == "PPrelSt" else (
            lambda o: (o // a2.size, 0, o % a2.size, 0))
        for pt, entry in reference.pp_embed(m).items():
            got = emb.demonic_at(_pp_point(space, pt))
            if entry is None:
                assert got is sm.VIOLATED
            else:
                assert frozenset(split(o) for o in got) == entry


# ---------------------------------------------------------------------------
# Distinguished elements and reindexing


def test_unsatisfiable_tops_everything():
    rng = random.Random(11)
    for space, make in ((sm.pure_space(Z2, Z2), _random_demonic),
                        (sm.state_space(Z2, Z2, Z2, Z2), _random_demonic),
                        (sm.err_space(Z2, Z2), _random_demonic),
                        (sm.prob_space(Z2, Z2), _random_pieces),
                        (sm.pp_state_space(Z2, Z2, Z2, Z2), _random_pp)):
        top = sm.unsatisfiable(space)
        bottom = sm.weakest(space)
        for _ in range(10):
            w = make(rng, space)
            assert sm.spec_leq(w, top).holds
            assert sm.spec_leq(bottom, w).holds


def test_err_collapse_cannot_tell_sides_apart():
    # Raising on the left against a pure return looks exactly like the
    # mirrored situation: both specs send phi to phi(raised).
    space = sm.err_space(Z2, Z2)
    left_raise = sm.demonic_spec(space, [frozenset({space.err_bad()})])
    right_raise = sm.demonic_spec(space, [frozenset({space.err_bad()})])
    assert sm.spec_equiv(left_raise, right_raise).holds
    for phi in (frozenset({space.err_bad()}), frozenset(), frozenset(space.outcomes())):
        assert left_raise.at(phi, 0) == (space.err_bad() in phi)


def test_reindex_outcomes_state():
    small = sm.pure_space(Z2, Z2)
    big = sm.pure_space(Z3, Z3)
    fn = lambda o: (o // 2) * 3 + (o % 2)
    w = sm.demonic_spec(small, [frozenset({0, 3})])
    out = sm.reindex_outcomes(w, big, fn)
    assert out.demonic_at(0) == frozenset({fn(0), fn(3)})
    for mask in range(2 ** big.size):
        assert out.at(mask) == w.at(lambda o: mask >> fn(o) & 1)


def test_closure_spec_tabulates_the_same_transformer():
    rng = random.Random(5)
    space = sm.state_space(Z2, Z2, Z2, Z2)
    w = _random_demonic(rng, space)
    g = sm.closure_spec(space, w.at)
    assert g.fams == w.fams
    for pt in space.points():
        for _ in range(30):
            phi = frozenset(o for o in space.outcomes() if rng.random() < 0.5)
            assert w.at(phi, pt) == g.at(phi, pt)


# ---------------------------------------------------------------------------
# Exact quantitative comparisons need the box LP, not just its corners


def test_lp_simplex_textbook_instance():
    value, x = lp.simplex_max([3, 2], [[1, 1], [1, 0]], [4, 2])
    assert value == 10 and x == [2, 2]


def test_lp_max_min_affine_peaks_off_the_corners():
    # min(p0 - p1, -p0 + 3 p1) peaks at (1, 1/2) with value 1/2, while
    # every corner of the unit box gives at most 0.
    pieces = [(F(0), (F(1), F(-1))), (F(0), (F(-1), F(3)))]
    value, phi = lp.max_min_affine(pieces, 2)
    assert value == F(1, 2)
    assert phi == (F(1), F(1, 2))
    corners = []
    for cx in (F(0), F(1)):
        for cy in (F(0), F(1)):
            corners.append(min(k + c[0] * cx + c[1] * cy for k, c in pieces))
    assert max(corners) <= 0


def test_lp_coupling_vertices_frozen_cases():
    half = (F(1, 2), F(1, 2))
    vs = lp.coupling_vertices(half, half)
    assert sorted(vs) == sorted([
        (F(1, 2), F(0), F(0), F(1, 2)),
        (F(0), F(1, 2), F(1, 2), F(0)),
    ])
    skew = lp.coupling_vertices((F(1, 4), F(3, 4)), half)
    assert sorted(skew) == sorted([
        (F(1, 4), F(0), F(1, 4), F(1, 2)),
        (F(0), F(1, 4), F(1, 2), F(1, 4)),
    ])
    eq_table = (F(1), F(0), F(0), F(1))
    assert reference.min_coupling_value(half, half, eq_table) == F(0)
    assert reference.min_coupling_value((F(1, 4), F(3, 4)), half, eq_table) == F(1, 4)


def test_lp_is_coupling():
    half = (F(1, 2), F(1, 2))
    assert reference.is_coupling(half, half, (F(1, 2), F(0), F(0), F(1, 2)))
    assert not reference.is_coupling(half, half, (F(1), F(0), F(0), F(0)))


@settings(deadline=None, max_examples=40)
@given(seed=st.integers(0, 10 ** 9))
def test_leq_prob_matches_grid_sampling(seed):
    # spec_leq never holds where some table on the quarter grid separates
    # the specs, for specs built directly and by bind
    rng = random.Random(seed)
    space = sm.prob_space(Z2, Z2)
    w1 = _random_pieces(rng, space)
    w2 = _random_pieces(rng, space)
    w3 = sm.spec_bind(w1, {(i1, i2): _random_multi_pieces(rng, space, rng.randrange(1, 3))
                           for i1 in range(2) for i2 in range(2)})
    for a, b in ((w1, w2), (w2, w1), (w3, w2), (w2, w3)):
        v = sm.spec_leq(a, b)
        if v.holds:
            assert reference.prob_grid_refutation(a, b) is None
        else:
            assert v.failed and a.at(v.phi) > b.at(v.phi)


# ---------------------------------------------------------------------------
# The box bound and the single-piece closed form against the simplex


def _lp_max_min_affine(pieces, dim):
    # The box LP written out here and always solved: maximize t subject to
    # t <= k_i + <c_i, phi> and 0 <= phi <= 1, with t shifted nonnegative.
    shift = 1 - min(F(0), min(F(k) for k, _ in pieces))
    rows = [[F(1)] + [-F(c) for c in cs] for _, cs in pieces]
    rows += [[F(0)] * (j + 1) + [F(1)] + [F(0)] * (dim - j - 1) for j in range(dim)]
    rhs = [F(k) + shift for k, _ in pieces] + [F(1)] * dim
    value, x = lp.simplex_max([F(1)] + [F(0)] * dim, rows, rhs)
    return value - shift, tuple(x[1:])


def _random_family(rng, dim, count):
    # Signed coefficients: difference families are what the bound meets.
    return [(F(rng.randrange(-4, 5), 4), tuple(F(rng.randrange(-4, 5), 4) for _ in range(dim)))
            for _ in range(count)]


@settings(deadline=None, max_examples=80)
@given(seed=st.integers(0, 10 ** 9))
def test_box_upper_bound_dominates_the_box_maximum(seed):
    rng = random.Random(seed)
    dim = rng.randrange(1, 5)
    pieces = _random_family(rng, dim, rng.randrange(1, 5))
    value, phi = lp.max_min_affine(pieces, dim)
    bound = lp.box_upper_bound(pieces)
    assert bound >= value
    assert min(k + sum(c * p for c, p in zip(cs, phi)) for k, cs in pieces) == value
    if len(pieces) == 1:
        assert bound == value


@settings(deadline=None, max_examples=80)
@given(seed=st.integers(0, 10 ** 9))
def test_single_piece_closed_form_is_the_simplex_vertex(seed):
    rng = random.Random(seed)
    dim = rng.randrange(1, 6)
    piece = _random_family(rng, dim, 1)
    assert lp.max_min_affine(piece, dim) == _lp_max_min_affine(piece, dim)


def test_single_piece_closed_form_leaves_flat_coordinates_at_zero():
    value, phi = lp.max_min_affine([(F(-1, 2), (F(1, 4), F(0), F(-1)))], 3)
    assert value == F(-1, 4)
    assert phi == (F(1), F(0), F(0))
    assert all(isinstance(p, F) for p in phi)


def _leq_prob_reference(w1, w2):
    for k2, c2 in w2.pieces:
        diff = [(k1 - k2, tuple(a - b for a, b in zip(c1, c2))) for k1, c1 in w1.pieces]
        val, phi = _lp_max_min_affine(diff, w1.space.size)
        if val > 0:
            return "fails", phi
    return "holds", None


def _prune_reference(pieces):
    uniq = sorted(set(pieces))
    if len(uniq) > sm._PIECE_DOMINANCE_LIMIT:
        return tuple(uniq)
    kept = [(k, cs) for k, cs in uniq
            if not any(k2 <= k and all(a <= b for a, b in zip(cs2, cs)) and (k2, cs2) != (k, cs)
                       for k2, cs2 in uniq)]
    if len(kept) <= 1:
        return tuple(kept)
    work, i = list(kept), 0
    while i < len(work) and len(work) > 1:
        k_i, c_i = work[i]
        diff = [(k - k_i, tuple(a - b for a, b in zip(cs, c_i)))
                for k, cs in work[:i] + work[i + 1:]]
        if _lp_max_min_affine(diff, len(c_i))[0] <= 0:
            work.pop(i)
        else:
            i += 1
    return tuple(work)


def _random_monotone_pieces(rng, size, count):
    return [(F(rng.randrange(4), 4), tuple(F(rng.randrange(3), 4) for _ in range(size)))
            for _ in range(count)]


@settings(deadline=None, max_examples=60)
@given(seed=st.integers(0, 10 ** 9))
def test_leq_prob_and_prune_match_an_always_lp_reference(seed):
    rng = random.Random(seed)
    space = sm.prob_space(Z2, Z2)
    raw1 = _random_monotone_pieces(rng, space.size, rng.randrange(1, 6))
    raw2 = _random_monotone_pieces(rng, space.size, rng.randrange(1, 6))
    for raw in (raw1, raw2):
        assert sm.prune_pieces(raw) == _prune_reference(raw)
    w1, w2 = sm.linear_spec(space, raw1), sm.linear_spec(space, raw2)
    for lo, hi in ((w1, w2), (w2, w1), (w1, w1)):
        v = sm.spec_leq(lo, hi)
        assert (v.kind, v.phi) == _leq_prob_reference(lo, hi)


# ---------------------------------------------------------------------------
# Quantitative specs have one body: bind expands the pieces exactly


def _random_multi_pieces(rng, space, count):
    # Up to two nonzero coefficients of at most 1/4 each, over a constant of
    # at most 1/4, so every value stays within [0,1].
    pieces = []
    for _ in range(count):
        coeffs = [F(0)] * space.size
        for o in rng.sample(range(space.size), rng.randrange(1, 3)):
            coeffs[o] = F(rng.randrange(1, 3), 8)
        pieces.append((F(rng.randrange(2), 4), coeffs))
    return sm.linear_spec(space, pieces)


def _grid_tables(rng, space, count):
    grid = [F(0), F(1, 4), F(1, 2), F(3, 4), F(1)]
    return [tuple(rng.choice(grid) for _ in space.outcomes()) for _ in range(count)]


@settings(deadline=None, max_examples=40)
@given(seed=st.integers(0, 10 ** 9))
def test_prob_bind_matches_evaluation_through_its_definition(seed):
    rng = random.Random(seed)
    space, target = sm.prob_space(Z2, Z2), sm.prob_space(Z2, Z3)
    wm = _random_multi_pieces(rng, space, rng.randrange(1, 4))
    table = {(i1, i2): _random_multi_pieces(rng, target, rng.randrange(1, 4))
             for i1 in range(2) for i2 in range(2)}
    cont = lambda i1, i2: table[(i1, i2)]
    bound = sm.spec_bind(wm, cont)
    for phi in _grid_tables(rng, target, 12):
        assert bound.at(phi) == reference.prob_bind_by_evaluation(wm, cont, phi)


def _linear_pruned(space, den, rows, exact_prune=True):
    """`specmonads._linear` pruning every form, a one-piece one too."""
    den, rows = sm._lowest(den, rows)
    den, rows = sm._lowest(den, sm.prune_pieces(rows, exact=exact_prune))
    return sm._intern((space, den, rows), sm._prob_spec, space, den, rows)


def _one_piece_specs():
    """Units, FlipCoupling specs and binds of those, each one piece."""
    space, target = sm.prob_space(BOOL, BOOL), sm.prob_space(BOOL, Z3)
    rets = [sm.spec_ret(space, BOOL.value(i), BOOL.value(j)) for i in range(2) for j in range(2)]
    couplings = [R.derive("FlipCoupling", p=p, q=q, d=d).conclusion.w_table[0]
                 for p, q, d in ((F(1, 2), F(1, 2), ((F(1, 2), 0), (0, F(1, 2)))),
                                 (F(1, 4), F(1, 3), ((F(2, 3), F(1, 12)), (0, F(1, 4)))),
                                 (1, 0, ((0, 0), (1, 0))))]
    conts = {(i, j): sm.spec_ret(target, BOOL.value(i), Z3.value((i + 2 * j) % 3))
             for i in range(2) for j in range(2)}
    binds = [sm.spec_bind(w, lambda i1, i2: conts[(i1, i2)]) for w in rets + couplings]
    return rets + couplings + binds + [sm.linear_spec(target, [(F(1, 6), [F(1, 3)] * 6)])]


def test_a_one_piece_spec_is_the_pooled_object_pruning_makes(monkeypatch):
    kept = _one_piece_specs()
    assert all(len(w.rows) == 1 for w in kept)
    with monkeypatch.context() as m:
        for module in (sm, R):
            m.setattr(module, "_linear", _linear_pruned)
        pruned = _one_piece_specs()
    assert len(pruned) == len(kept) == 15
    assert all(a is b for a, b in zip(pruned, kept))


def test_a_bind_of_65536_piece_selections_is_decided_both_ways():
    # the uniform average over 16 outcomes of min(phi0, phi1): one piece
    # per selection would be 2 ** 16, but the sums collapse to 17
    d4, two = domain("D4", 4), domain("two", 2)
    average = sm.linear_spec(sm.prob_space(d4, d4), [(0, [F(1, 16)] * 16)])
    mins = sm.linear_spec(sm.prob_space(two, UNIT), [(0, [1, 0]), (0, [0, 1])])
    cont = lambda i1, i2: mins
    bound = sm.spec_bind(average, cont)
    assert len(bound.pieces) == 17
    assert sm.spec_leq(bound, mins).holds and sm.spec_leq(mins, bound).holds
    rng = random.Random(3)
    for phi in _grid_tables(rng, mins.space, 40):
        assert bound.at(phi) == reference.prob_bind_by_evaluation(average, cont, phi)


# ---------------------------------------------------------------------------
# A closure against a demonic spec: one probe per point


def _random_up_closure(rng, space):
    # The general monotone transformer: at each point, a union of demands.
    demands = [[frozenset(o for o in space.outcomes() if rng.random() < 0.3)
                for _ in range(rng.randrange(0, 3))] for _ in space.points()]
    return sm.closure_spec(space, lambda f, pt: any(all(f(o) for o in d) for d in demands[pt]))


@settings(deadline=None, max_examples=60)
@given(seed=st.integers(0, 10 ** 9))
def test_demonic_right_probe_matches_enumeration(seed):
    rng = random.Random(seed)
    spaces = [sm.pure_space(Z2, Z3), sm.state_space(Z2, Z2, UNIT, Z2), sm.err_space(Z2, Z2)]
    space = spaces[rng.randrange(len(spaces))]
    demonic = _random_demonic(rng, space)
    lefts = [_random_up_closure(rng, space), _random_demonic(rng, space)]
    for w in lefts:
        fast = sm.spec_leq(w, demonic)
        slow = reference.leq_by_enumeration(w, demonic)
        assert (fast.kind, fast.point, fast.phi) == slow
        if fast.failed:
            assert demonic.at(fast.phi, fast.point) and not w.at(fast.phi, fast.point)


def test_exists_claim_on_d4_is_decided_past_the_cap():
    d4 = domain("D4", 4)
    sig = ndet_sig()

    def rets(*idx):
        out = ret(sig, d4.value(idx[0]))
        for i in idx[1:]:
            out = choice(out, ret(sig, d4.value(i)))
        return out

    space = sm.pure_space(d4, d4)
    assert 2 ** space.size > sm.DEFAULT_CAP
    diagonal = sm.demonic_spec(space, [frozenset(i * 4 + i for i in range(4))])
    # {1, 3} and {0, 3} share 3: some run pair ends on the diagonal.
    assert sm.spec_leq(O.theta_ndet(O.EXISTS, rets(1, 3), rets(0, 3)), diagonal).holds
    w = O.theta_ndet(O.EXISTS, rets(1, 2), rets(0, 3))
    v = sm.spec_leq(w, diagonal)
    assert v.failed and v.point == 0
    assert diagonal.at(v.phi, v.point) and not w.at(v.phi, v.point)


def _masks_below(n):
    # Every pair mask <= mask' of an n-outcome space.
    full = range(2 ** n)
    return [(m, m2) for m in full for m2 in full if m & m2 == m]


def _assert_monotone(w):
    pairs = _masks_below(w.space.size)
    for pt in w.space.points():
        for m, m2 in pairs:
            assert not w.at(m, pt) or w.at(m2, pt), (pt, m, m2)


@settings(deadline=None, max_examples=20)
@given(seed=st.integers(0, 10 ** 9))
def test_built_closures_are_monotone(seed):
    rng = random.Random(seed)
    sig = ndet_sig()
    c1, c2 = random_program(rng, sig, Z2, 2), random_program(rng, sig, Z2, 2)
    for mode in O.NDET_MODES:
        _assert_monotone(O.theta_ndet(mode, c1, c2))
    space = sm.pure_space(Z2, Z2)
    wm = _random_up_closure(rng, space)
    conts = {(i1, i2): (_random_up_closure(rng, space) if rng.random() < 0.5
                        else _random_demonic(rng, space))
             for i1 in range(2) for i2 in range(2)}
    bound = sm.spec_bind(wm, lambda i1, i2: conts[(i1, i2)])
    _assert_monotone(bound)
    _assert_monotone(_random_demonic(rng, sm.state_space(Z2, Z2, UNIT, Z2)))


# ---------------------------------------------------------------------------
# Interned spaces, and the shape checks that try identity first

SPACE_BUILDERS = {
    "pure": lambda d: sm.pure_space(d, Z3),
    "state": lambda d: sm.state_space(d, Z2, Z3, d),
    "err": lambda d: sm.err_space(d, Z3),
    "io": lambda d: sm.io_space(d, Z2, Z2, Z3, d, Z2),
    "prob": lambda d: sm.prob_space(d, Z3),
    "pp-pure": lambda d: sm.pp_pure_space(d, Z3),
    "pp-state": lambda d: sm.pp_state_space(d, Z2, Z3, d),
}


def _fields(space):
    return (space.tag, space.a1, space.a2, space.s1, space.s2,
            space.i1, space.o1, space.i2, space.o2)


def _twin_direct(space):
    return sm.OutcomeSpace(*_fields(space))


def _twin_pickled(space):
    return pickle.loads(pickle.dumps(space))


@pytest.mark.parametrize("name", sorted(SPACE_BUILDERS))
def test_space_constructors_return_one_object_per_field_tuple(name):
    build = SPACE_BUILDERS[name]
    space = build(Z2)
    assert build(Z2) is space
    assert build(domain("Z2", 2)) is space      # equal domains, fresh objects
    assert build(Z4) is build(Z4) and build(Z4) is not space
    assert sm.outcome_space(*_fields(space)) is space
    others = {n: b(Z2) for n, b in SPACE_BUILDERS.items() if n != name}
    assert all(o is not space for o in others.values())
    for twin in (_twin_direct(space), _twin_pickled(space)):
        # spaces are canonical: a direct or unpickled twin is the space itself
        assert twin == space and twin is space
        assert twin.point_count == space.point_count
        if name != "io":      # interactive outcomes form no finite domain
            assert twin.size == space.size


def test_a_space_pickled_under_another_string_hash_seed_hashes_here():
    # a stored hash carried across processes would disagree with this one
    build = ("sm.state_space(domain('A', 2, ('x', 'y')), domain('S', 3), "
             "domain('B', 2), domain('S', 3))")
    code = ("import pickle, sys; from relwp import specmonads as sm; "
            "from relwp.domains import domain; "
            f"sys.stdout.write(pickle.dumps({build}).hex())")
    src = os.path.dirname(os.path.dirname(os.path.abspath(sm.__file__)))
    env = dict(os.environ, PYTHONHASHSEED="12345",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    there = pickle.loads(bytes.fromhex(out))
    here = sm.state_space(domain("A", 2, ("x", "y")), domain("S", 3), domain("B", 2), domain("S", 3))
    assert there == here and hash(there) == hash(here)
    assert {here: 1}[there] == 1
    assert here.__reduce__() == (sm.OutcomeSpace, _fields(here))


def _rekeyed(space, other, tables, flip):
    """Demonic specs from `tables`, over `other` and `space` in turn."""
    return {k: sm.demonic_spec(other if (n % 2 == 0) == flip else space, t)
            for n, (k, t) in enumerate(tables.items())}


def _verdict(v):
    return v.kind, v.point, v.phi


@pytest.mark.parametrize("twin", [_twin_direct, _twin_pickled], ids=["direct", "pickled"])
def test_equal_but_not_identical_spaces_bind_and_compare_alike(twin):
    rng = random.Random(11)
    for space in (sm.pure_space(Z2, Z3), sm.err_space(Z2, Z3), sm.state_space(Z2, Z2, Z3, Z3)):
        other = twin(space)
        # spaces are canonical: the twin is the space itself
        assert other == space and other is space
        keys = [(i1, i2) for i1 in range(space.a1.size) for i2 in range(space.a2.size)]
        small = space.tag != "WrelSt"     # closures on the right need enumeration
        for _ in range(10):
            wm = _random_demonic(rng, space)
            tables = {k: _table(_random_demonic(rng, space)) for k in keys}
            plain = {k: sm.demonic_spec(space, t) for k, t in tables.items()}
            mixed = _rekeyed(space, other, tables, rng.random() < 0.5)
            want = sm.spec_bind(wm, plain)
            got = sm.spec_bind(sm.demonic_spec(other, _table(wm)), mixed)
            assert got.fams == want.fams
            want_c = sm.spec_bind(_rebuilt(wm), plain)
            got_c = sm.spec_bind(_rebuilt(wm),
                                 {k: _rebuilt(w) for k, w in mixed.items()})
            claim = _random_demonic(rng, space)
            claim_twin = sm.demonic_spec(other, _table(claim))
            base = _verdict(sm.spec_leq(want, claim))
            assert _verdict(sm.spec_leq(got, claim)) == base
            assert _verdict(sm.spec_leq(want, claim_twin)) == base
            assert _verdict(sm.spec_leq(got_c, claim_twin)) == base
            assert _verdict(sm.spec_leq(want_c, claim)) == base
            if small:
                back = _verdict(sm.spec_leq(claim, want_c))
                assert _verdict(sm.spec_leq(claim_twin, got_c)) == back
                assert _verdict(sm.spec_leq(claim, want)) == back


def test_common_cont_space_keeps_its_three_errors():
    space = sm.state_space(Z2, Z2, Z2, Z3)
    wm = sm.weakest(space)
    good = sm.weakest(space)

    def bind_with(odd, at):
        return sm.spec_bind(wm, lambda i1, i2: odd if (i1, i2) == at else good)

    tag = sm.weakest(sm.pure_space(Z2, Z2))
    values = sm.weakest(sm.state_space(Z3, Z2, Z2, Z3))
    ambient = sm.weakest(sm.state_space(Z2, Z3, Z2, Z3))
    both = sm.weakest(sm.state_space(Z3, Z3, Z2, Z3))
    for at in ((0, 0), (1, 1)):
        with pytest.raises(ValueError, match="continuation carrier WrelPure differs from WrelSt"):
            bind_with(tag, at)
        # the first continuation sets the value domains the others must share
        with pytest.raises(ValueError, match="continuations disagree on their value domains"):
            bind_with(values, at)
        with pytest.raises(ValueError, match="continuations must keep the ambient carrier shape"):
            bind_with(ambient, at)
    # value domains are checked before the ambient shape
    with pytest.raises(ValueError, match="value domains"):
        bind_with(both, (1, 1))
    with pytest.raises(ValueError, match="ambient carrier shape"):
        bind_with(both, (0, 0))
    for twin in (_twin_direct(space), _twin_pickled(space)):
        for at in ((0, 0), (1, 1)):
            assert bind_with(sm.weakest(twin), at).fams == bind_with(good, at).fams


def test_a_table_prepared_for_one_middle_space_checks_another_afresh():
    cspace = sm.state_space(Z2, Z2, Z2, Z3)
    entries = {(i1, i2): sm.weakest(cspace) for i1 in range(2) for i2 in range(2)}
    good = sm.weakest(cspace)
    for wm, named in ((sm.weakest(sm.pure_space(Z2, Z2)), "carrier WrelSt differs from WrelPure"),
                      (sm.weakest(sm.state_space(Z2, Z3, Z2, Z3)), "ambient carrier shape")):
        with pytest.raises(ValueError, match=named) as first:
            sm.spec_bind(wm, sm.ContTable(entries))
        table = sm.ContTable(entries)
        assert sm.spec_bind(good, table).space is cspace
        for _ in range(2):  # a failed check leaves nothing prepared behind
            with pytest.raises(ValueError) as later:
                sm.spec_bind(wm, table)
            assert str(later.value) == str(first.value)
        assert sm.spec_bind(good, table).fams == sm.spec_bind(good, entries).fams


def test_a_table_reads_its_entries_once_per_middle_space():
    cspace = sm.state_space(Z2, Z2, Z2, Z3)
    reads = []

    def entry(i1, i2):
        reads.append((i1, i2))
        return sm.spec_ret(cspace, Value(Z2, (i1 + i2) % 2), Value(Z2, i1 % 2))

    table = sm.ContTable(entry)
    rng = random.Random(5)
    for space in (sm.state_space(Z2, Z2, Z2, Z3), sm.state_space(Z3, Z2, UNIT, Z3)):
        for _ in range(5):
            wm = _random_demonic(rng, space)
            assert sm.spec_bind(wm, table).fams == sm.spec_bind(wm, entry).fams
    # the fresh tables of the plain binds read every entry each time
    assert len(reads) == (4 + 5 * 4) + (3 + 5 * 3)


def test_demonic_entries_keep_their_range_check():
    space = sm.pure_space(Z2, Z3)
    entry = frozenset({0, 5})
    assert sm.demonic_spec(space, [entry]).demonic_at(0) == entry
    assert sm.demonic_spec(space, [[5, 0, 5]]).demonic_at(0) == entry
    for bad, named in (({0, 6}, 6), ({-1, 2}, -1), (frozenset({7}), 7)):
        with pytest.raises(ValueError, match=f"outcome {named} outside space of size 6"):
            sm.demonic_spec(space, [bad])


def _bind_by_cont_point(wm, conts, tspace):
    """Demonic bind table decoded outcome by outcome through `_cont_point`."""
    table = []
    for pt in wm.space.points():
        r = wm.demonic_at(pt)
        acc = set()
        if r is not sm.VIOLATED:
            for o in r:
                pair, cpt = sm._cont_point(wm.space, tspace, o)
                sub = conts[pair].demonic_at(cpt)
                if sub is sm.VIOLATED:
                    r = sm.VIOLATED
                    break
                acc |= sub
        table.append(sm.VIOLATED if r is sm.VIOLATED else frozenset(acc))
    return tuple(table)


@settings(deadline=None, max_examples=40)
@given(seed=st.integers(0, 10 ** 9))
def test_bind_fixed_tables_match_cont_point_decoding(seed):
    rng = random.Random(seed)
    # Z2 states against Z3 states, and value domains that change across the bind
    cases = [(sm.state_space(Z2, Z2, Z3, Z3), sm.state_space(Z3, Z2, Z2, Z3)),
             (sm.state_space(UNIT, Z3, Z2, Z2), sm.state_space(Z2, Z3, Z3, Z2)),
             (sm.pure_space(Z2, Z3), sm.pure_space(Z3, Z2))]
    for space, tspace in cases:
        wm = _random_demonic(rng, space)
        conts = {(i1, i2): _random_demonic(rng, tspace)
                 for i1 in range(space.a1.size) for i2 in range(space.a2.size)}
        got = sm.spec_bind(wm, conts)
        assert got.space is tspace
        assert _table(got) == _bind_by_cont_point(wm, conts, tspace)
        closed = sm.spec_bind(_rebuilt(wm), conts)
        for pt in tspace.points():
            for _ in range(6):
                phi = frozenset(o for o in tspace.outcomes() if rng.random() < 0.7)
                assert closed.at(phi, pt) == got.at(phi, pt)


def _pred(phi):
    return phi.__contains__ if isinstance(phi, frozenset) else phi


def _random_term(rng, space, depth):
    """A library spec built by binds of random leaves, and a reference
    evaluator (phi, pt) -> bool for it that goes through `RelSpec.at` on
    the leaves and spells each bind out longhand."""
    if depth == 0 or rng.random() < 0.3:
        leaf = (_random_up_closure(rng, space) if rng.random() < 0.6
                else _random_demonic(rng, space))
        return leaf, leaf.at
    wm, wm_at = _random_term(rng, space, depth - 1)
    conts = {(i1, i2): _random_term(rng, space, depth - 1)
             for i1 in range(space.a1.size) for i2 in range(space.a2.size)}
    spec = sm.spec_bind(wm, {k: c[0] for k, c in conts.items()})

    def ref(phi, pt):
        f = _pred(phi)

        def psi(o):
            if space.tag == "WrelErr":
                split = space.err_split(o)
                return f(space.err_bad()) if split is None else conts[split][1](f, 0)
            if space.tag == "WrelPure":
                return conts[divmod(o, space.a2.size)][1](f, 0)
            a1, s1, a2, s2 = space.st_split(o)
            return conts[(a1, a2)][1](f, space.point(s1, s2))

        return wm_at(psi, pt)

    return spec, ref


def _leq_by_enumeration(space, w_at, w2_at):
    n = space.size
    for pt in space.points():
        for mask in range(2 ** n):
            phi = frozenset(o for o in range(n) if mask >> o & 1)
            if w2_at(phi, pt) and not w_at(phi, pt):
                return "fails", pt, phi
    return "holds", None, None


@settings(deadline=None, max_examples=40)
@given(seed=st.integers(0, 10 ** 9))
def test_closure_comparisons_match_evaluation_through_at(seed):
    rng = random.Random(seed)
    spaces = [sm.pure_space(Z2, Z2), sm.err_space(Z2, Z2), sm.state_space(Z2, Z2, UNIT, Z2)]
    space = spaces[rng.randrange(len(spaces))]
    w, w_at = _random_term(rng, space, 2)
    w2, w2_at = _random_term(rng, space, 2)
    demonic = _random_demonic(rng, space)
    pairs = [((w, w_at), (w2, w2_at)), ((w, w_at), (demonic, demonic.at)),
             ((demonic, demonic.at), (w2, w2_at))]
    for (a, a_at), (b, b_at) in pairs:
        want = _leq_by_enumeration(space, a_at, b_at)
        assert _verdict(sm.spec_leq(a, b)) == want


# ---------------------------------------------------------------------------
# Demand families against references that read specs only through `at`

# (space, bind target): pure, state and err, 4 to 8 outcomes each
FAMILY_SPACES = [
    (sm.pure_space(Z2, Z2), sm.pure_space(Z2, Z3)),
    (sm.state_space(Z2, Z2, UNIT, Z2), sm.state_space(UNIT, Z2, Z2, Z2)),
    (sm.err_space(Z2, Z2), sm.err_space(Z2, Z3)),
]


def _random_families(rng, space):
    """Zero to three random demands per point, about a quarter of the
    outcomes each."""
    return sm.demand_spec(space, [[rng.getrandbits(space.size) & rng.getrandbits(space.size)
                                   for _ in range(rng.randrange(4))]
                                  for _ in space.points()])


def _ret_at(space, o):
    return sm.demonic_spec(space, [{o}] * space.point_count)


def _bind_cont(space, tspace, conts):
    """The spec each outcome of `space` leads to in a bind, and its point."""
    def cont(o, pt):
        if space.tag == "WrelErr":
            if o == space.err_bad():
                return _ret_at(tspace, tspace.err_bad()), 0
            return conts[divmod(o, space.a2.size)], 0
        if space.tag == "WrelPure":
            return conts[divmod(o, space.a2.size)], 0
        a1, s1, a2, s2 = space.st_split(o)
        return conts[(a1, a2)], tspace.point(s1, s2)
    return cont


def _assert_is_bind(got, wm, cont):
    for pt in got.space.points():
        for mask in range(2 ** got.space.size):
            phi = frozenset(o for o in got.space.outcomes() if mask >> o & 1)
            assert got.at(phi, pt) == reference.bind_by_evaluation(wm, cont, phi, pt), (pt, phi)


@settings(deadline=None, max_examples=60)
@given(seed=st.integers(0, 10 ** 9))
def test_demand_families_match_the_references(seed):
    rng = random.Random(seed)
    space, tspace = FAMILY_SPACES[rng.randrange(len(FAMILY_SPACES))]
    w, w2 = _random_families(rng, space), _random_families(rng, space)
    conts = {(i1, i2): _random_families(rng, tspace)
             for i1 in range(space.a1.size) for i2 in range(space.a2.size)}
    bound = sm.spec_bind(w, conts)
    _assert_is_bind(bound, w, _bind_cont(space, tspace, conts))
    fn = [rng.randrange(tspace.size) for _ in space.outcomes()]
    moved = sm.reindex_outcomes(w, tspace, fn.__getitem__)
    _assert_is_bind(moved, w, lambda o, pt: (_ret_at(tspace, fn[o]), pt))
    pairs = [(w, w2), (w2, w), (w, w), (bound, moved), (moved, bound)]
    if space.tag == "WrelErr":
        caught = R.catch_spec(w, w2)
        _assert_is_bind(caught, w, lambda o, pt: (w2 if o == space.err_bad()
                                                  else _ret_at(space, o), pt))
        pairs += [(caught, w), (w, caught)]
    for a, b in pairs:
        assert _verdict(sm.spec_leq(a, b)) == reference.leq_by_enumeration(a, b)


def _mixed_families(rng, space):
    """Per point one of: one demand of one outcome, several demands, the
    trivial family {0}, or VIOLATED."""
    def fam():
        kind = rng.randrange(4)
        if kind == 0:
            return [1 << rng.randrange(space.size)]
        if kind == 1:
            return [rng.getrandbits(space.size) | 1 << rng.randrange(space.size)
                    for _ in range(rng.randrange(2, 4))]
        return [0] if kind == 2 else sm.VIOLATED
    return sm.demand_spec(space, [fam() for _ in space.points()])


@settings(deadline=None, max_examples=60)
@given(seed=st.integers(0, 10 ** 9))
def test_fam_bind_hands_a_one_outcome_demand_its_continuation_family(seed):
    rng = random.Random(seed)
    space, tspace = FAMILY_SPACES[rng.randrange(len(FAMILY_SPACES))]
    w = _mixed_families(rng, space)
    conts = {(i1, i2): _mixed_families(rng, tspace)
             for i1 in range(space.a1.size) for i2 in range(space.a2.size)}
    table = sm.ContTable(conts)
    bound = sm.spec_bind(w, table)
    _assert_is_bind(bound, w, _bind_cont(space, tspace, conts))
    subs = table.prepare(w)[2]   # the family each outcome of w leads to
    for o, sub in enumerate(subs):
        assert sm._fam_bind(frozenset({1 << o}), subs) is sub
    # (the bound spec may be an equal one already pooled, with equal families)
    for fam, got in zip(w.fams, bound.fams):
        assert got == sm._fam_bind(fam, subs)
        if len(fam) == 1 and max(fam).bit_count() == 1:
            assert sm._fam_bind(fam, subs) is subs[max(fam).bit_length() - 1]


def test_a_spec_that_served_as_a_middle_pickles_and_binds_alike():
    # every point one outcome: the middle keeps a gather of its outcomes'
    # families, which must pickle with it and bind alike afterwards
    for space, cont in (
            (sm.state_space(Z2, Z2, Z2, Z2),
             lambda i1, i2: sm.demonic_spec(sm.state_space(Z2, Z2, UNIT, Z2),
                                            [{(i1 + i2 + pt) % 8} for pt in range(4)])),
            (sm.pp_state_space(Z2, Z2, UNIT, Z2),
             lambda i1, i2: sm.spec_ret(sm.pp_state_space(Z3, Z2, UNIT, Z2),
                                        Z3.value(i1 + i2), UNIT.value(0)))):
        w = sm.spec_ret(space, Z2.value(1), Value(space.a2, 0))
        table = sm.ContTable(cont)
        bound = sm.spec_bind(w, table)
        assert callable(w._outs)
        for again in (pickle.loads(pickle.dumps(w, protocol)) for protocol in (2, 5)):
            assert again.fams == w.fams and again.pre == w.pre
            assert again._outs(table.prepare(w)[2]) == bound.fams
            rebound = sm.spec_bind(again, table)
            assert rebound.fams == bound.fams and rebound.pre == bound.pre
    # a one-point space keeps the plain path
    pure = sm.pure_space(Z2, Z2)
    one_point = sm.demonic_spec(pure, [{3}])
    sm.spec_bind(one_point, lambda i1, i2: sm.spec_ret(pure, Z2.value(i2), Z2.value(i1)))
    assert one_point._outs is False


def test_a_spec_pickles_as_its_body_and_comes_back_as_the_live_spec():
    sp = sm.state_space(Z2, Z2, Z2, Z2)
    middle = sm.spec_ret(sp, Z2.value(1), Z2.value(0))
    sm.spec_bind(middle, lambda i1, i2: sm.spec_ret(sp, Z2.value(i2), Z2.value(i1)))
    assert callable(middle._outs)
    specs = [middle, *_spec_constructions()]
    for w in specs:
        for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1):
            data = pickle.dumps(w, protocol)
            # the body alone: no cache is written, and the pool hands back w
            assert b"itemgetter" not in data and b"_outs" not in data
            assert pickle.loads(data) is w
        assert copy.copy(w) is w and copy.deepcopy(w) is w
    # once the spec is gone, unpickling builds it afresh from its body
    data = [pickle.dumps(w) for w in specs]
    bodies = [(w.fams, w.pre, w.den, w.rows, w.root) for w in specs]
    del specs, w, middle
    gc.collect()
    for d, body in zip(data, bodies):
        again = pickle.loads(d)
        assert (again.fams, again.pre, again.den, again.rows, again.root) == body
        assert again._outs is None


def test_a_kernel_spec_pickles_as_its_keys_without_building_families():
    s3 = domain("S3", 3)
    sp = sm.state_space(BOOL, s3, UNIT, s3)
    keys = ([0, 1, 0], [1, 1, 0], [0, 1, 2, 0, 1, 2], [2, 1, 0])
    w = sm.kernel_spec(sp, *keys)
    assert sm.kernel_spec(sp, *map(tuple, keys)) is w and w.keys == tuple(map(tuple, keys))
    data = pickle.dumps(w)
    assert pickle.loads(data) is w and copy.deepcopy(w) is w
    assert sm.RelSpec.fams.__get__(w) is None
    del w
    gc.collect()
    again = pickle.loads(data)
    assert again.keys == tuple(map(tuple, keys)) and sm.RelSpec.fams.__get__(again) is None
    # read at last, the families are the final-post embedding's
    ref = sm.from_final_post(sp, [k1 == k2 for k1 in keys[0] for k2 in keys[1]],
                             [k1 == k2 for k1 in keys[2] for k2 in keys[3]])
    assert again.fams == ref.fams and sm.spec_equiv(again, ref).holds
    assert len({id(f) for f in again.fams if f}) == 1


def test_kernel_spec_checks_its_keys():
    s2 = domain("S2", 2)
    sp = sm.state_space(UNIT, s2, BOOL, s2)
    assert sm.kernel_spec(sp, [0, 1], [0, 1], [0, 1], [0, 1, 2, 3]).tag == "WrelSt"
    for keys in (([0], [0, 1], [0, 1], [0, 1, 2, 3]), ([0, 1], [0, 1], [0, 1], [0, 1])):
        with pytest.raises(ValueError, match="every state and every one-side outcome"):
            sm.kernel_spec(sp, *keys)
    with pytest.raises(ValueError, match="stateful carrier"):
        sm.kernel_spec(sm.pure_space(UNIT, UNIT), [0], [0], [0], [0])


def test_fixed_leq_is_exact_at_cap_one_on_16_outcome_spaces():
    rng = random.Random(16)
    d4 = domain("D4", 4)
    spaces = [sm.pure_space(d4, d4), sm.state_space(Z2, Z2, Z2, Z2),
              sm.err_space(Z3, domain("Z5", 5))]
    kinds = set()
    for space in spaces:
        assert space.size == 16
        for _ in range(20):
            w, w2 = _random_families(rng, space), _random_families(rng, space)
            for a, b in ((w, w2), (w, sm.unsatisfiable(space)), (sm.weakest(space), w)):
                v = sm.spec_leq(a, b, cap=1)
                kinds.add(v.kind)
                if v.failed:
                    assert b.at(v.phi, v.point) and not a.at(v.phi, v.point)
                else:
                    for _ in range(20):
                        phi = rng.getrandbits(16)
                        for pt in space.points():
                            assert a.at(phi, pt) or not b.at(phi, pt)
    assert kinds == {"holds", "fails"}


def test_spec_too_large_fires_at_each_documented_limit():
    # closure_spec tabulates spaces of up to 16 outcomes
    d4 = domain("D4", 4)
    assert sm.closure_spec(sm.pure_space(d4, d4), lambda f, pt: f(5)).fams == (frozenset({1 << 5}),)
    with pytest.raises(sm.SpecTooLarge, match="17 outcomes"):
        sm.closure_spec(sm.pure_space(domain("D17", 17), UNIT), lambda f, pt: f(5))
    # one bind step may form up to 4096 demands
    assert sm._DEMAND_LIMIT == 4096
    far = domain("Far", 130)

    def bind_pools(k):
        space = sm.pure_space(far, UNIT)
        table = [sm.demand_spec(space, [[1 << i for i in range(k)]]),
                 sm.demand_spec(space, [[1 << (65 + i) for i in range(k)]])]
        return sm.spec_bind(sm.demand_spec(sm.pure_space(Z2, UNIT), [[0b11]]), table)

    assert len(bind_pools(64).fams[0]) == 4096
    with pytest.raises(sm.SpecTooLarge, match="4225 demands"):
        bind_pools(65)
    # forall-exists has one demand per choice of partners: 4 ** 6 is fine, 4 ** 7 is not
    sig = ndet_sig()

    def all_of(d):
        return pick_fin([ret(sig, v) for v in d.values()])

    w = O.theta_ndet(O.FORALL_EXISTS, all_of(domain("D6", 6)), all_of(d4))
    assert len(w.fams[0]) == 4096
    with pytest.raises(sm.SpecTooLarge, match="16384 demands"):
        O.theta_ndet(O.FORALL_EXISTS, all_of(domain("D7", 7)), all_of(d4))
    # a prob bind step may form as many partial sums: here each of 8 outcomes
    # continues with the min of three unit pieces of its own, so no partial
    # sum repeats or dominates another, and the eighth step forms 3 ** 8
    target = sm.prob_space(domain("D6", 6), Z4)

    def unit(t):
        return [int(u == t) for u in target.outcomes()]

    average = sm.linear_spec(sm.prob_space(Z4, Z2), [(0, [F(1, 8)] * 8)])
    conts = {(i1, i2): sm.linear_spec(target, [(0, unit(3 * (2 * i1 + i2) + j)) for j in range(3)])
             for i1 in range(4) for i2 in range(2)}
    with pytest.raises(sm.SpecTooLarge,
                       match="^bind step forms 6561 partial sums, past the limit of 4096$"):
        sm.spec_bind(average, conts)


def _spec_constructions():
    """One spec of each constructor, built afresh on every call: the pool
    returns the live ones."""
    sp, pp = sm.state_space(Z2, Z2, Z2, Z2), sm.prob_space(Z2, Z2)
    io = sm.io_space(Z2, Z2, Z2, Z2, Z2, Z2)
    ret = sm.spec_ret(sp, Z2.value(1), Z2.value(0))
    lin = sm.linear_spec(pp, [(0, [F(1, 2), 0, 0, F(1, 2)]), (F(1, 3), (F(1, 3),) * 4)])
    out = sm.io_demonic_spec(io, {(1, ((OUT, Z2.value(1)),), ()), (2, (), ((IN, Z2.value(0)),))})
    return [
        ret,
        lin,
        sm.demand_spec(sp, [[1, 2], [3], [4], [5, 6]]),
        sm.spec_bind(ret, lambda i1, i2: sm.spec_ret(sp, Z2.value(i2), Z2.value(i1))),
        sm.spec_bind(lin, [sm.spec_ret(pp, Z2.value(i % 2), Z2.value(0)) for i in range(4)]),
        out,
        sm.spec_bind(out, lambda i1, i2: out),
        sm.spec_ret(io, Z2.value(0), Z2.value(1)),
        sm.unsatisfiable(io),
    ]


def test_a_check_builds_each_spec_once():
    built = _spec_constructions()
    assert all(a is b for a, b in zip(built, _spec_constructions()))
    sp = built[0].space
    assert sm.spec_ret(sp, Z2.value(0), Z2.value(0)) is not built[0]
    assert sm.linear_spec(built[1].space, [(0, (F(1, 2),) * 4)]) is not built[1]
    # one body, one spec, however it was built
    assert sm._linear(built[1].space, built[1].den, built[1].rows, exact_prune=False) is built[1]
    assert sm.demand_spec(sp, built[0].fams) is built[0]
    io = built[5].space
    assert sm.io_demonic_spec(io, list(built[5].root)) is built[5]
    assert sm.io_demonic_spec(io, built[6].root) is built[6]
    assert sm.io_demonic_spec(io, {(1, (), ())}) is built[7]
    assert sm.io_demonic_spec(io, sm.VIOLATED) is built[8]


def test_equal_specs_compare_without_an_lp(monkeypatch):
    w = _spec_constructions()[1]
    w2 = sm.RelSpec(w.tag, w.space, pieces=w.pieces)   # made outside the pool
    assert w is not w2 and all(type(c) is F for _, cs in w.pieces for c in cs)
    monkeypatch.setattr(lp, "max_min_affine", lambda *a: pytest.fail("ran an LP"))
    monkeypatch.setattr(lp, "box_upper_bound", lambda *a: pytest.fail("bounded a box"))
    assert sm.spec_equiv(w, w2).holds and sm.spec_equiv(w, w).holds
