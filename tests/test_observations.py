"""Observation catalog: each theta against independently computed oracles.

Expected tables are written out from the defining quantifier shapes (all
pairs, each-left-finds-right, couplings, ...) using only the reference
evaluators, never the observation code under test.
"""

import dataclasses
import pickle
import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from relwp import observations as O
from relwp import programs as P
from relwp import specmonads as sm
from relwp.domains import BOOL, UNIT, UNIT_VAL, Value, boolv, domain
from relwp.genprog import enumerate_classes, random_program

import reference

Z2 = domain("Z2", 2)
Z3 = domain("Z3", 3)

F = Fraction

SSIG = P.state_sig(Z2)
ISIG = P.imp_sig(Z2)
NSIG = P.ndet_sig()
ESIG = P.exc_sig(Z2)
IOSIG = P.io_sig(Z2, Z2)
PSIG = P.prob_sig()

ROOT = ((), ())


def assert_equiv(w1, w2):
    fwd, back = sm.spec_leq(w1, w2), sm.spec_leq(w2, w1)
    assert fwd.holds and back.holds, (fwd, back)


# ---------------------------------------------------------------------------
# State


def test_theta_st_get_against_ret():
    # running (get, ret v1) from (s1, s2) must end in ((s1, s1), (v1, s2))
    w = O.theta_st(P.get_state(SSIG), P.ret(SSIG, Value(Z2, 1)))
    sp = w.space
    for pt in sp.points():
        s1, s2 = sp.point_split(pt)
        assert w.demonic_at(pt) == frozenset({sp.st_outcome(s1, s1, 1, s2)})


def test_theta_st_put_pair():
    w = O.theta_st(P.put_unit(SSIG, Value(Z2, 0), UNIT_VAL),
                   P.put_unit(SSIG, Value(Z2, 1), UNIT_VAL))
    sp = w.space
    for pt in sp.points():
        assert w.demonic_at(pt) == frozenset({sp.st_outcome(0, 0, 0, 1)})


def test_theta_st_ret_is_unit():
    w = O.theta_st(P.ret(SSIG, Value(Z2, 0)), P.ret(SSIG, Value(Z2, 1)))
    assert_equiv(w, sm.spec_ret(w.space, Value(Z2, 0), Value(Z2, 1)))


def test_theta_st_rejects_other_effects():
    with pytest.raises(ValueError):
        O.theta_st(P.ret(NSIG, Value(Z2, 0)), P.ret(NSIG, Value(Z2, 0)))


def test_theta_st_refuses_imp_programs_with_loops():
    loop = P.do_while(P.ret(ISIG, boolv(False)), P.ret(ISIG, UNIT_VAL))
    with pytest.raises(ValueError, match="theta_part or theta_tot"):
        O.theta_st(loop, loop)
    with pytest.raises(ValueError, match="theta_part or theta_tot"):
        O.theta_st(P.put(ISIG, Z2.value(1), P.ret(ISIG, UNIT_VAL)), loop)
    # an imp program without a loop still runs as a state program
    straight = P.put(ISIG, Z2.value(1), P.ret(ISIG, UNIT_VAL))
    assert_equiv(O.theta_st(straight, straight), O.theta_part(straight, straight))
    assert_equiv(O.theta_part(loop, loop), O.theta_part(P.ret(ISIG, UNIT_VAL), P.ret(ISIG, UNIT_VAL)))


# ---------------------------------------------------------------------------
# Finite nondeterminism


def _rets(*idx):
    ps = [P.ret(NSIG, Value(Z3, i)) for i in idx]
    out = ps[0]
    for p in ps[1:]:
        out = P.choice(out, p)
    return out


def test_theta_forall_demands_all_pairs():
    w = O.theta_ndet(O.FORALL, _rets(1, 2), _rets(0))
    assert w.demonic_at(0) == frozenset({1 * 3 + 0, 2 * 3 + 0})


def test_theta_forall_of_empty_is_trivial():
    w = O.theta_ndet(O.FORALL, P.fail(NSIG, Z3), _rets(0))
    assert_equiv(w, sm.weakest(w.space))


def test_theta_exists_needs_one_witness():
    w = O.theta_ndet(O.EXISTS, _rets(1, 2), _rets(0))
    assert w.at(lambda o: o == 2 * 3 + 0, 0) is True
    assert w.at(lambda o: o == 0, 0) is False
    # no outcomes on the left: nothing can witness
    we = O.theta_ndet(O.EXISTS, P.fail(NSIG, Z3), _rets(0))
    assert we.at(lambda o: True, 0) is False


def test_theta_forall_exists_each_left_finds_a_partner():
    w = O.theta_ndet(O.FORALL_EXISTS, _rets(0, 1), _rets(0, 1))
    diagonal = lambda o: (o // 3) == (o % 3)
    assert w.at(diagonal, 0) is True
    only_zero = lambda o: o == 0
    assert w.at(only_zero, 0) is False
    # empty left set: vacuous
    we = O.theta_ndet(O.FORALL_EXISTS, P.fail(NSIG, Z3), P.fail(NSIG, Z3))
    assert we.at(lambda o: False, 0) is True


def test_forall_exists_bind_law_is_genuinely_one_sided():
    # m1 = {0} with f1(0) = {0,1}; m2 = {0,1} with f2 the singleton identity.
    # On equality, quantifying after the bind succeeds (pick a2 knowing the
    # final a1) while binding the quantified parts must commit a2 up front.
    obs = O.observation_ndet(O.FORALL_EXISTS)
    nz2 = P.ndet_sig()
    m1 = P.ret(nz2, Value(Z2, 0))
    m2 = P.choice(P.ret(nz2, Value(Z2, 0)), P.ret(nz2, Value(Z2, 1)))
    f1 = (P.choice(P.ret(nz2, Value(Z2, 0)), P.ret(nz2, Value(Z2, 1))),
          P.fail(nz2, Z2))
    f2 = (P.ret(nz2, Value(Z2, 0)), P.ret(nz2, Value(Z2, 1)))
    law = O.check_morphism_laws(obs, O.ProgramBattery(nz2, nz2, (), ((m1, m2),), ((f1, f2),))).bind_law
    assert law.kind == "strictly-less" and law.checked == 1
    wit = law.witness
    assert O.recheck_witness(wit)
    # the witnessing postcondition separates the two specs at the root
    assert wit.lhs.at(wit.phi, wit.point) is True
    assert wit.rhs.at(wit.phi, wit.point) is False


# ---------------------------------------------------------------------------
# Exceptions


def test_theta_err_value_pair():
    w = O.theta_err(P.ret(ESIG, Value(Z3, 2)), P.ret(ESIG, Value(Z3, 0)))
    assert w.demonic_at(0) == frozenset({w.space.err_ok(2, 0)})


def test_theta_err_collapses_every_raise():
    throw0 = P.throw(ESIG, Value(Z2, 0), Z3)
    throw1 = P.throw(ESIG, Value(Z2, 1), Z3)
    ok = P.ret(ESIG, Value(Z3, 1))
    configs = [(throw0, ok), (ok, throw1), (throw0, throw1), (throw1, throw0)]
    specs = [O.theta_err(a, b) for a, b in configs]
    bad = specs[0].space.err_bad()
    for w in specs:
        assert w.demonic_at(0) == frozenset({bad})
    for w in specs[1:]:
        assert_equiv(specs[0], w)


def test_theta_err_catch_restores_the_value_route():
    body = P.throw(ESIG, Value(Z2, 0), Z3)
    handler = lambda e: P.ret(ESIG, Value(Z3, e.index))
    w = O.theta_err(P.catch(body, handler), P.ret(ESIG, Value(Z3, 2)))
    assert w.demonic_at(0) == frozenset({w.space.err_ok(0, 2)})


# ---------------------------------------------------------------------------
# Interaction


def test_theta_io_input_left():
    w = O.theta_io(P.read_input(IOSIG), P.ret(IOSIG, Value(Z2, 1)))
    expect = frozenset({(i * 2 + 1, ((P.IN, Value(Z2, i)),), ()) for i in range(2)})
    assert w.demonic_at(ROOT) == expect


def test_theta_io_output_left():
    w = O.theta_io(P.output(IOSIG, Value(Z2, 0), P.ret(IOSIG, Value(Z2, 1))),
                   P.ret(IOSIG, Value(Z2, 0)))
    assert w.demonic_at(ROOT) == frozenset({(1 * 2 + 0, ((P.OUT, Value(Z2, 0)),), ())})


def test_theta_io_ret_is_unit():
    w = O.theta_io(P.ret(IOSIG, Value(Z2, 1)), P.ret(IOSIG, Value(Z2, 0)))
    assert_equiv(w, sm.spec_ret(w.space, Value(Z2, 1), Value(Z2, 0)))


def test_theta_io_matches_outcome_product():
    # oracle: enumerate each side's (value, trace) outcomes independently and
    # take all combinations; the relational spec may not couple the sides
    pool = enumerate_classes(IOSIG, Z2, 2)
    assert len(pool) == 10
    for c1, c2 in product(pool, repeat=2):
        w = O.theta_io(c1, c2)
        expect = frozenset({(v1.index * 2 + v2.index, h1, h2)
                            for v1, h1 in P.io_outcomes(c1)
                            for v2, h2 in P.io_outcomes(c2)})
        assert w.demonic_at(ROOT) == expect


def test_theta_io_prepend_equivariance():
    c1 = P.inp(IOSIG, lambda i: P.output(IOSIG, i, P.ret(IOSIG, i)))
    c2 = P.output(IOSIG, Value(Z2, 1), P.read_input(IOSIG))
    h1 = ((P.OUT, Value(Z2, 0)),)
    h2 = ((P.IN, Value(Z2, 1)), (P.OUT, Value(Z2, 1)))
    w = O.theta_io(c1, c2)
    shifted = frozenset({(v, e1 + h1, e2 + h2) for v, e1, e2 in w.demonic_at(ROOT)})
    assert w.demonic_at((h1, h2)) == shifted
    # the runs from (h1, h2), by the evaluator
    assert shifted == {(v1.index * 2 + v2.index, e1, e2)
                       for v1, e1 in P.io_outcomes(c1, h1) for v2, e2 in P.io_outcomes(c2, h2)}


def test_theta_io_matches_the_reference_walk():
    # θ_io runs the evaluator; the reference binds one spec per tree node
    battery = O.battery_io(Z2, Z2, Z2, depth=3)
    pool = sorted({c for f1, _ in battery.fs for c in f1} | {m for m, _ in battery.ms},
                  key=repr)
    pool += [P.bind(m1, f1) for (m1, _), (f1, _) in zip(battery.ms[::997], battery.fs)]
    v0, v1 = Z2.value(0), Z2.value(1)
    pts = (ROOT, (((P.OUT, v0),), ()), (((P.IN, v1),), ((P.OUT, v1), (P.IN, v0))))
    alph = (Z2, Z2, Z2, Z2)
    for side in (1, 2):
        embed = O.unary_theta_io(side, *alph).embed
        for c in pool:
            w, ref = embed(c), reference.theta_io_walk(c, side, alph)
            assert all(w.demonic_at(pt) == ref.demonic_at(pt) for pt in pts), (side, c)
    for c1, c2 in list(battery.ms[::61]) + list(zip(pool[::7], pool[::-5])):
        w, ref = O.theta_io(c1, c2), reference.theta_io_by_walks(c1, c2)
        assert all(w.demonic_at(pt) == ref.demonic_at(pt) for pt in pts), (c1, c2)


# the points `test_theta_io_matches_the_reference_walk` reads
_THREE_POINTS = (ROOT, (((P.OUT, Z2.value(0)),), ()),
                 (((P.IN, Z2.value(1)),), ((P.OUT, Z2.value(1)), (P.IN, Z2.value(0)))))


def test_io_observations_refuse_programs_over_other_alphabets():
    ok = P.ret(IOSIG, Z2.value(0))
    obs = O.observation_io(Z2, Z2, Z2, Z2)
    refused = "program alphabets do not match the declared carrier"
    for other in (P.io_sig(Z3, Z2), P.io_sig(Z2, Z3)):
        c = P.output(other, other.out.value(0), P.ret(other, Z2.value(1)))
        for c1, c2 in ((c, ok), (ok, c)):
            with pytest.raises(ValueError, match=refused):
                obs.map(c1, c2)
        for side in (1, 2):
            with pytest.raises(ValueError, match=refused):
                O.unary_theta_io(side, Z2, Z2, Z2, Z2).embed(c)
    with pytest.raises(ValueError, match="theta_io expects io programs"):
        obs.map(P.ret(P.ndet_sig(), Z2.value(0)), ok)


def test_observation_io_is_built_once_per_argument_tuple():
    obs = O.observation_io(Z2, Z2, Z2, Z2)
    assert obs is O.observation_io(Z2, Z2, Z2, Z2)
    assert obs is O.observation_io(Z2, Z2, i2=Z2, o2=Z2)
    assert obs is not O.observation_io(Z2, Z2, Z2, Z3)
    c = P.read_input(IOSIG)
    assert obs.map(c, c).space is sm.io_space(Z2, Z2, Z2, Z2, Z2, Z2)


def test_theta_io_binds_no_spec(monkeypatch):
    def bound(*_):
        raise AssertionError("θ_io bound specs")

    monkeypatch.setattr(sm, "spec_bind", bound)
    monkeypatch.setattr(O, "spec_bind", bound)
    pool = enumerate_classes(IOSIG, Z2, 2)
    for c1, c2 in product(pool, repeat=2):
        w = O.observation_io(Z2, Z2, Z2, Z2).map(c1, c2)
        assert all(w.demonic_at(pt) for pt in _THREE_POINTS)


def test_an_io_program_is_walked_once_whatever_reads_it(monkeypatch):
    # fresh programs over their own alphabet, so no earlier run is kept
    d = domain("walked-once", 3)
    sig = P.io_sig(d, d)
    c1 = P.inp(sig, lambda i: P.output(sig, i, P.ret(sig, i)))
    c2 = P.output(sig, d.value(1), P.read_input(sig))
    assert c1._runs is None and c2._runs is None
    walked, walk = [], P._io_walk

    def counted(p):
        walked.append(p)
        return walk(p)

    monkeypatch.setattr(P, "_io_walk", counted)
    h = ((P.IN, d.value(2)),)
    pts = (ROOT, (h, ()), ((), h))
    for _ in range(2):
        for w in (O.theta_io(c1, c2), O.observation_io(d, d, d, d).map(c2, c1),
                  O.unary_theta_io(1, d, d, d, d).embed(c1),
                  O.unary_theta_io(2, d, d, d, d).embed(c2)):
            assert all(w.demonic_at(pt) for pt in pts)
    assert P.io_outcomes(c1, h) == {(v, e + h) for v, e in P.io_outcomes(c1)}
    assert P.semantic_key(c2) == O._run_key(c2)[2] == P.io_outcomes(c2)
    assert walked == [c1, c2]


def test_io_unary_pair_commutes_on_enumeration():
    u1 = O.unary_theta_io(1, Z2, Z2, Z2, Z2)
    u2 = O.unary_theta_io(2, Z2, Z2, Z2, Z2)
    pool = enumerate_classes(IOSIG, Z2, 2)
    verdict = O.check_commute(u1, u2, list(product(pool, repeat=2)))
    assert verdict.ok and verdict.checked == 100


# ---------------------------------------------------------------------------
# Loops


def _skip():
    return P.ret(ISIG, UNIT_VAL)


def _forever():
    return P.do_while(P.ret(ISIG, boolv(True)), _skip())


def test_skip_against_never_terminating_loop():
    # partial correctness quantifies over terminating runs; the loop has
    # none, so the pair satisfies every postcondition everywhere
    w = O.theta_part(_skip(), _forever())
    assert_equiv(w, sm.weakest(w.space))
    slow = reference.theta_part_slow(_skip(), _forever())
    assert_equiv(slow, sm.weakest(w.space))


def test_total_correctness_rejects_divergence():
    w = O.theta_tot(_skip(), _forever())
    for pt in w.space.points():
        assert w.demonic_at(pt) is sm.VIOLATED
    # on terminating pairs the two variants agree
    wp = O.theta_part(_skip(), _skip())
    wt = O.theta_tot(_skip(), _skip())
    assert_equiv(wp, wt)


def test_theta_part_countdown_oracle():
    # body: at state 0 stop, else zero the state and continue once
    body = P.get(ISIG, lambda s: P.ret(ISIG, boolv(False)) if s.index == 0
                 else P.put(ISIG, Value(Z2, 0), P.ret(ISIG, boolv(True))))
    loop = P.do_while(body, P.get_state(ISIG))
    # from either start the loop drains to state 0, then returns it
    w = O.theta_part(loop, loop)
    sp = w.space
    for pt in sp.points():
        assert w.demonic_at(pt) == frozenset({sp.st_outcome(0, 0, 0, 0)})


def test_theta_part_unary_table():
    body = P.get(ISIG, lambda s: P.ret(ISIG, boolv(False)) if s.index == 0
                 else P.put(ISIG, Value(Z2, 0), P.ret(ISIG, boolv(True))))
    loop = P.do_while(body, P.get_state(ISIG))
    w = O.theta_part_unary(loop)
    sp = w.space
    assert sp.s2 == UNIT
    for pt in sp.points():
        assert w.demonic_at(pt) == frozenset({sp.st_outcome(0, 0, 0, 0)})
    div = O.theta_part_unary(_forever())
    for pt in div.space.points():
        assert div.demonic_at(pt) == frozenset()


def test_theta_part_fast_equals_fixpoint_on_enumeration():
    classes = enumerate_classes(ISIG, Z2, 3)
    assert len(classes) == 25
    for c1, c2 in product(classes[:12], classes[:12]):
        assert_equiv(O.theta_part(c1, c2), reference.theta_part_slow(c1, c2))


@settings(deadline=None, max_examples=40)
@given(seed=st.integers(0, 10 ** 9))
def test_theta_part_fast_equals_fixpoint_random(seed):
    rng = random.Random(seed)
    s3 = domain("S3", 3)
    sig = P.imp_sig(s3)
    progs = []
    while len(progs) < 2:
        p = random_program(rng, sig, Z2, 4, allow_bind=True)
        if P.count_loops(p) <= 2:
            progs.append(p)
    c1, c2 = progs
    assert_equiv(O.theta_part(c1, c2), reference.theta_part_slow(c1, c2))


# ---------------------------------------------------------------------------
# Unequal state domains
#
# The pair observations run each side once per initial state and pair the
# runs; with a two-state left and a three-state right, a slip in the order
# of points shows as a wrong entry.

S3SIG = P.state_sig(Z3)
I3SIG = P.imp_sig(Z3)


def _stuck_at(sig, k):
    """Loops forever from state k, returns the state from anywhere else."""
    body = P.get(sig, lambda s: P.ret(sig, boolv(s.index == k)))
    return P.do_while(body, P.get_state(sig))


def _unequal_pairs(sig1, sig2, seed, n):
    rng = random.Random(seed)
    pairs = [(_stuck_at(sig1, 0), _stuck_at(sig2, 1))] if sig1.effect == P.IMP else []
    while len(pairs) < n:
        c1 = random_program(rng, sig1, sig1.state, 3)
        c2 = random_program(rng, sig2, sig2.state, 3)
        if P.count_loops(c1) + P.count_loops(c2) <= 2:
            pairs.append((c1, c2))
    return pairs


def test_theta_st_on_unequal_state_domains_is_the_commuting_pair():
    obs = O.from_commuting_pair(O.unary_theta_st(1, Z2, Z3), O.unary_theta_st(2, Z2, Z3))
    for c1, c2 in _unequal_pairs(SSIG, S3SIG, 11, 40):
        w = O.theta_st(c1, c2)
        sp = w.space
        assert (sp.s1, sp.s2, sp.point_count) == (Z2, Z3, 6)
        assert_equiv(w, obs.map(c1, c2))
        for s1, s2 in product(range(2), range(3)):
            v1, t1 = P.run_imp(c1, Value(Z2, s1))
            v2, t2 = P.run_imp(c2, Value(Z3, s2))
            assert w.demonic_at(s1 * 3 + s2) == \
                frozenset({sp.st_outcome(v1.index, t1.index, v2.index, t2.index)})


def test_theta_part_and_tot_on_unequal_state_domains():
    pairs = _unequal_pairs(ISIG, I3SIG, 12, 30)
    assert any(P.count_loops(c1) and P.count_loops(c2) for c1, c2 in pairs)
    for c1, c2 in pairs:
        wp, wt = O.theta_part(c1, c2), O.theta_tot(c1, c2)
        assert_equiv(wp, reference.theta_part_slow(c1, c2))
        for s1, s2 in product(range(2), range(3)):
            pt = s1 * 3 + s2
            diverges = (P.run_imp(c1, Value(Z2, s1)) is None
                        or P.run_imp(c2, Value(Z3, s2)) is None)
            if diverges:
                assert wp.demonic_at(pt) == frozenset()
                assert wt.demonic_at(pt) is sm.VIOLATED
            else:
                assert wt.demonic_at(pt) == wp.demonic_at(pt)
                assert len(wp.demonic_at(pt)) == 1
    # the looping pair diverges exactly from left state 0 or right state 1
    wt = O.theta_tot(*pairs[0])
    assert [wt.demonic_at(pt) is sm.VIOLATED for pt in wt.space.points()] == \
        [s1 == 0 or s2 == 1 for s1 in range(2) for s2 in range(3)]


def _walk_pool(rng, sig, n):
    """n seeded random programs over sig with at most two loops, the state
    as their result, after the loop that sticks at state 0 for imp."""
    pool = [_stuck_at(sig, 0)] if sig.effect == P.IMP else []
    while len(pool) < n:
        c = random_program(rng, sig, sig.state, 4, allow_bind=True)
        if P.count_loops(c) <= 2:
            pool.append(c)
    return pool


def test_one_sided_embeddings_match_the_reference_walk():
    # the embeddings read each program's runs; the reference binds one spec
    # per tree node and takes each loop's fixpoint
    rng = random.Random(16)
    pools = {(eff, dom): _walk_pool(rng, sig, 12)
             for eff, mk in ((P.STATE, P.state_sig), (P.IMP, P.imp_sig))
             for dom in (Z2, Z3) for sig in (mk(dom),)}
    assert any(P.run_imp(c, s) is None for c in pools[(P.IMP, Z3)] for s in Z3.values())
    for side in (1, 2):
        for comp, own in ((1, Z2), (2, Z3)):
            part = O.unary_theta_part(side, Z2, Z3, comp).embed
            st_ = O.unary_theta_st(side, Z2, Z3, comp).embed
            for eff in (P.STATE, P.IMP):
                for c in pools[(eff, own)]:
                    ref = reference.theta_imp_walk(c, Z2, Z3, side, comp)
                    assert part(c).fams == ref.fams, (side, comp, c)
                    if not P.count_loops(c):
                        assert st_(c).fams == ref.fams, (side, comp, c)
    for c in pools[(P.IMP, Z2)] + pools[(P.STATE, Z3)]:
        ref = reference.theta_imp_walk(c, c.sig.state, UNIT, 1, 1)
        assert O.theta_part_unary(c).fams == ref.fams


def test_unary_theta_st_refuses_loops():
    for loop in (_forever(), _stuck_at(ISIG, 1)):
        for side in (1, 2):
            with pytest.raises(ValueError, match="observe loops with theta_part or theta_tot"):
                O.unary_theta_st(side, Z2, Z2).embed(loop)


def _count_runs(monkeypatch):
    """Count outermost evaluator calls; nested ones recurse through the
    patched module names and are not counted."""
    seen = {"runs": 0, "depth": 0}

    def counted(*args, _run=P.run_imp, **kw):
        seen["runs"] += seen["depth"] == 0
        seen["depth"] += 1
        try:
            return _run(*args, **kw)
        finally:
            seen["depth"] -= 1
    monkeypatch.setattr(P, "run_imp", counted)
    return seen


@pytest.mark.parametrize("theta,sig1,sig2", [
    (O.theta_st, SSIG, S3SIG), (O.theta_part, ISIG, I3SIG), (O.theta_tot, ISIG, I3SIG)])
def test_pair_observations_run_each_side_once_per_initial_state(monkeypatch, theta, sig1, sig2):
    # a side runs from each initial state the first time any observation
    # meets it; a program built again is the same object, and runs no more
    pairs = _unequal_pairs(sig1, sig2, 13, 8) + _unequal_pairs(sig1, sig2, 13, 8)
    seen = _count_runs(monkeypatch)
    for c1, c2 in pairs:
        before = seen["runs"]
        fresh = (c1._runs is None) * 2 + (c2._runs is None) * 3
        theta(c1, c2)
        assert seen["runs"] - before == fresh
    assert seen["runs"] <= 8 * (2 + 3)


def test_a_program_runs_once_whatever_it_is_paired_with(monkeypatch):
    pairs = _unequal_pairs(ISIG, I3SIG, 14, 6)
    lefts, rights = [c1 for c1, _ in pairs], [c2 for _, c2 in pairs]
    # each distinct program not run yet runs once, from each initial state
    fresh = {id(c): c for c in lefts + rights if c._runs is None}.values()
    seen = _count_runs(monkeypatch)
    for c1 in lefts:
        for c2 in rights:
            O.theta_part(c1, c2)
            O.theta_tot(c1, c2)
    assert seen["runs"] == sum(c.sig.state.size for c in fresh)
    # a copy is the program itself, with its runs
    copy = pickle.loads(pickle.dumps(lefts[0]))
    assert copy is lefts[0] and copy._runs is not None
    before = seen["runs"]
    assert O.theta_part(copy, rights[0]).fams == O.theta_part(lefts[0], rights[0]).fams
    assert seen["runs"] == before


def test_theta_err_runs_each_program_once(monkeypatch):
    rng = random.Random(5)
    progs = [random_program(rng, ESIG, Z2, 3) for _ in range(6)]
    seen = []
    real = P.run_exc
    monkeypatch.setattr(P, "run_exc", lambda p: seen.append(p) or real(p))
    for c1 in progs:
        for c2 in progs:
            w = O.theta_err(c1, c2)
            r1, r2 = real(c1), real(c2)
            ok = r1[0] == r2[0] == P.OK
            want = w.space.err_ok(r1[1].index, r2[1].index) if ok else w.space.err_bad()
            assert w.fams == (frozenset({1 << want}),)
    assert len(seen) == len(progs)


def test_state_and_imp_specs_are_what_demand_spec_builds():
    # These builders skip demand_spec's checks, since they make one in-range
    # demand per point or reuse families already built; the checks must agree.
    for battery, thetas in ((O.battery_state(Z2, Z2, depth=2), (O.theta_st,)),
                            (O.battery_imp(Z2, Z2, depth=2), (O.theta_part, O.theta_tot))):
        sig = battery.sig1
        pool = sorted({c for f1, _ in battery.fs for c in f1} | {m for m, _ in battery.ms},
                      key=repr)
        pairs = list(battery.ms) + [(c1, c2) for c1 in pool for c2 in pool]
        pairs += [(P.bind(m1, f1), P.bind(m2, f2))
                  for (m1, m2), (f1, f2) in zip(battery.ms[::16], battery.fs[::16])]
        specs = [theta(c1, c2) for theta in thetas for c1, c2 in pairs]
        for side in (1, 2):
            for comp in (1, 2):
                for unary in (O.unary_theta_st, O.unary_theta_part):
                    if unary is O.unary_theta_st and sig.effect == P.IMP:
                        continue
                    embed = unary(side, Z2, Z2, comp).embed
                    specs += [embed(c) for c in pool]
        specs += [O.theta_part_unary(c) for c in pool]
        for w in specs:
            assert sm.demand_spec(w.space, w.fams).fams == w.fams


def test_run_table_specs_hold_one_family_per_distinct_outcome():
    battery = O.battery_imp(Z2, Z2, depth=3, table_limit=4)
    pool = sorted({c for f1, _ in battery.fs for c in f1} | {m for m, _ in battery.ms}, key=repr)
    diverging = [c for c in pool if None in P._runs(c)]
    assert diverging and len(diverging) < len(pool)
    specs = [theta(c1, c2) for theta in (O.theta_part, O.theta_tot)
             for c1 in pool for c2 in pool]
    specs += [O.theta_part_unary(c) for c in pool]
    for w in specs:
        # equal families are one object, the diverged ones included
        assert len({id(f) for f in w.fams}) == len(set(w.fams))
        assert all(f is sm._ANY or f is sm._NONE or len(f) == 1 for f in w.fams)
    # a left side that forgets its state gives every point of a row one outcome
    forget = P.put(ISIG, Value(Z2, 0), P.ret(ISIG, UNIT_VAL))
    w = O.theta_st(forget, forget)
    assert len(set(w.fams)) == 1 and len({id(f) for f in w.fams}) == 1
    w = O.theta_tot(diverging[0], forget)
    assert any(f is sm._NONE for f in w.fams)


# ---------------------------------------------------------------------------
# Probability


def test_flip_half_has_an_identity_coupling():
    half = P.flip_bool(PSIG, F(1, 2))
    w = O.theta_prob(half, half)
    eq = tuple(F(1) if (o // 2) == (o % 2) else F(0) for o in range(4))
    assert w.at(eq) == 0
    assert w.at(tuple(F(1) for _ in range(4))) == 1


@pytest.mark.parametrize("p", [F(0), F(1, 4), F(1, 2)])
def test_flip_against_constant_true(p):
    w = O.theta_prob(P.flip_bool(PSIG, p), P.ret(PSIG, boolv(True)))
    left_true = tuple(F(1) if (o // 2) == 1 else F(0) for o in range(4))
    assert w.at(left_true) == p


def test_theta_prob_pieces_are_couplings():
    rng = random.Random(7)
    for _ in range(12):
        c1 = random_program(rng, PSIG, Z2, 3)
        c2 = random_program(rng, PSIG, Z2, 3)
        w = O.theta_prob(c1, c2)
        p = P.run_prob(c1).weights
        q = P.run_prob(c2).weights
        for k, coeffs in w.pieces:
            assert k == 0
            flat = [coeffs[i * 2 + j] for i in range(2) for j in range(2)]
            assert reference.is_coupling(list(p), list(q), flat)


def test_theta_prob_matches_direct_coupling_minimum():
    # oracle: one fresh linear program per sampled postcondition
    rng = random.Random(3)
    grid = [F(0), F(1, 4), F(1, 2), F(3, 4), F(1)]
    for _ in range(10):
        c1 = random_program(rng, PSIG, Z2, 3)
        c2 = random_program(rng, PSIG, Z2, 3)
        w = O.theta_prob(c1, c2)
        p = list(P.run_prob(c1).weights)
        q = list(P.run_prob(c2).weights)
        for _ in range(6):
            phi = [rng.choice(grid) for _ in range(4)]
            assert w.at(tuple(phi)) == reference.min_coupling_value(p, q, phi)


@settings(deadline=None, max_examples=60)
@given(seed=st.integers(0, 10 ** 9))
def test_theta_prob_monotone_and_lipschitz(seed):
    rng = random.Random(seed)
    c1 = random_program(rng, PSIG, Z2, 3)
    c2 = random_program(rng, PSIG, Z2, 3)
    w = O.theta_prob(c1, c2)
    grid = [F(0), F(1, 4), F(1, 2), F(3, 4), F(1)]
    lo = [rng.choice(grid) for _ in range(4)]
    hi = [min(F(1), v + rng.choice(grid)) for v in lo]
    assert w.at(tuple(lo)) <= w.at(tuple(hi))
    gap = max(h - l for h, l in zip(hi, lo))
    assert abs(w.at(tuple(hi)) - w.at(tuple(lo))) <= gap


# ---------------------------------------------------------------------------
# Pairing unary observations


def test_state_components_commute_but_shared_state_does_not():
    u1 = O.unary_theta_st(1, Z2, Z2)
    u2 = O.unary_theta_st(2, Z2, Z2)
    classes = enumerate_classes(SSIG, Z2, 2)
    verdict = O.check_commute(u1, u2, list(product(classes, repeat=2)))
    assert verdict.ok

    # both sides writing the one shared component: order becomes visible
    shared1 = O.unary_theta_st(1, Z2, Z2, component=1)
    shared2 = O.unary_theta_st(2, Z2, Z2, component=1)
    put0 = P.put_unit(SSIG, Value(Z2, 0), UNIT_VAL)
    put1 = P.put_unit(SSIG, Value(Z2, 1), UNIT_VAL)
    bad = O.check_commute(shared1, shared2, [(put0, put1)])
    assert not bad.ok
    (wit,) = bad.failures
    assert (wit.law, wit.instance) == ("commute", (put0, put1))
    assert O.recheck_witness(wit)


def test_commuting_state_pair_reproduces_theta_st():
    obs = O.from_commuting_pair(O.unary_theta_st(1, Z2, Z2),
                                O.unary_theta_st(2, Z2, Z2))
    assert obs.strictness == O.STRICT
    classes = enumerate_classes(SSIG, Z2, 2)
    for c1, c2 in product(classes, repeat=2):
        assert_equiv(obs.map(c1, c2), O.theta_st(c1, c2))
        # loop-free programs terminate, so the partial reading agrees too
        assert_equiv(obs.map(c1, c2), O.theta_part(c1, c2))


def test_commuting_io_pair_is_theta_io():
    # the one-sided specs sequenced by binds against θ_io's product of runs
    pool = enumerate_classes(IOSIG, Z2, 2)
    u1 = O.unary_theta_io(1, Z2, Z2, Z2, Z2)
    u2 = O.unary_theta_io(2, Z2, Z2, Z2, Z2)
    obs = O.from_commuting_pair(u1, u2)
    for c1, c2 in product(pool[:6], pool[:6]):
        w = O.theta_io(c1, c2)
        # pooled: the bound specs are θ_io's own objects
        assert obs.map(c1, c2) is w
        assert all(w.demonic_at(pt) == frozenset(
            (v, e1 + pt[0], e2 + pt[1]) for v, e1, e2 in w.demonic_at(ROOT))
            for pt in _THREE_POINTS)


def test_from_commuting_pair_validates_sides():
    u1 = O.unary_theta_st(1, Z2, Z2)
    with pytest.raises(ValueError):
        O.from_commuting_pair(u1, u1)


# ---------------------------------------------------------------------------
# Relators


def test_relator_liftings_reproduce_the_quantifier_observations():
    def fe(rel, s1, s2):
        return all(any(rel(v1, v2) for v2 in s2) for v1 in s1)

    def fa(rel, s1, s2):
        return all(rel(v1, v2) for v1 in s1 for v2 in s2)

    obs_fe = O.from_relator(fe, "each-left-finds-right")
    obs_fa = O.from_relator(fa, "all-pairs")
    assert obs_fe.strictness == O.LAX
    classes = enumerate_classes(NSIG, Z2, 2)
    for c1, c2 in product(classes, repeat=2):
        assert_equiv(obs_fe.map(c1, c2), O.theta_ndet(O.FORALL_EXISTS, c1, c2))
        assert_equiv(obs_fa.map(c1, c2), O.theta_ndet(O.FORALL, c1, c2))


# ---------------------------------------------------------------------------
# Morphism-law batteries (small sizes here; the deep runs live in the
# acceptance suite)


def _laws(obs, battery):
    return O.check_morphism_laws(obs, battery)


def test_state_laws_equal_on_shallow_battery():
    rep = _laws(O.observation_st(), O.battery_state(Z2, Z2, depth=2))
    assert rep.ret_law.equal and rep.bind_law.equal and rep.consistent


def test_part_and_tot_laws_equal_on_shallow_battery():
    bat = O.battery_imp(Z2, Z2, depth=2)
    for obs in (O.observation_part(), O.observation_tot()):
        rep = _laws(obs, bat)
        assert rep.ret_law.equal and rep.bind_law.equal, obs.name


def test_err_laws_equal():
    rep = _laws(O.observation_err(), O.battery_exc(Z2, Z2, depth=3))
    assert rep.ret_law.equal and rep.bind_law.equal and rep.bind_law.definite


def test_ndet_law_classification_by_mode():
    bat = O.battery_ndet(Z2, depth=3)
    for mode, expected in [(O.FORALL, "equal"), (O.EXISTS, "equal"),
                           (O.FORALL_EXISTS, "strictly-less")]:
        rep = _laws(O.observation_ndet(mode), bat)
        assert rep.ret_law.equal, mode
        assert rep.bind_law.kind == expected, mode
        assert rep.consistent, mode
        if rep.bind_law.witness is not None:
            assert O.recheck_witness(rep.bind_law.witness)


def test_ndet_laws_run_each_program_once(monkeypatch):
    bat = O.battery_ndet(Z2, depth=2, table_limit=8)
    real, ran = P.run_ndet, []

    def counted(c):
        ran.append(c)   # keeps each program alive, so ids stay distinct
        return real(c)

    monkeypatch.setattr(P, "run_ndet", counted)
    for mode in O.NDET_MODES:
        _laws(O.observation_ndet(mode), bat)
    assert ran and len(ran) == len({id(c) for c in ran})


def test_io_laws_equal_on_shallow_battery():
    rep = _laws(O.observation_io(Z2, Z2, Z2, Z2), O.battery_io(Z2, Z2, Z2, depth=2))
    assert rep.ret_law.equal and rep.bind_law.equal


def test_io_laws_observe_each_pair_of_root_outcome_sets_once():
    # θ_io keys a program by its root outcomes: the outcomes from any
    # history are the root ones with that history appended
    battery = O.battery_io(Z2, Z2, Z2, depth=2)
    progs = sorted({c for pair in battery.ms for c in pair}, key=repr)
    for c in progs:
        for h in (((P.IN, Z2.value(1)),), ((P.OUT, Z2.value(0)), (P.IN, Z2.value(1)))):
            assert P.io_outcomes(c, h) == {(v, hist + h) for v, hist in P.io_outcomes(c)}
    obs = O.observation_io(Z2, Z2, Z2, Z2)
    reports, calls = [], []
    for key in (obs.key, O._itself):
        n = [0]

        def counted(c1, c2, n=n):
            n[0] += 1
            return obs.map(c1, c2)

        reports.append(_laws(dataclasses.replace(obs, map=counted, key=key), battery))
        calls.append(n[0])
    # keyed by program, the map ran once per pair of programs
    assert calls == [225, 1700]
    keyed, by_program = ([(v.law, v.kind, v.checked) for v in rep.laws] for rep in reports)
    assert keyed == by_program == [("ret", "equal", 4), ("bind", "equal", 1600)]


def test_prob_laws_never_violated_on_shallow_battery():
    rep = _laws(O.observation_prob(), O.battery_prob(Z2, depth=2, m_limit=None))
    assert rep.ret_law.equal
    assert rep.bind_law.kind in ("equal", "strictly-less")
    assert rep.consistent
    if rep.bind_law.witness is not None:
        assert O.recheck_witness(rep.bind_law.witness)


def _swapped_st(c1, c2):
    """Deliberately wrong: final states swapped between the sides."""
    w = O.theta_st(c1, c2)
    sp = w.space
    table = []
    for pt in sp.points():
        out = []
        for o in w.demonic_at(pt):
            a1, s1, a2, s2 = sp.st_split(o)
            out.append(sp.st_outcome(a1, s2, a2, s1))
        table.append(frozenset(out))
    return sm.demonic_spec(sp, table)


BROKEN_ST = O.EffectObservation("swapped-st", P.STATE, P.STATE, "WrelSt", _swapped_st, O.STRICT)

# Wrong only on programs of depth 3 and more: on a depth-2 battery, only
# some bound programs, so the ret law holds and the bind law fails mid-scan.
DEEP_BROKEN_ST = O.EffectObservation(
    "swapped-deep-st", P.STATE, P.STATE, "WrelSt",
    lambda c1, c2: (_swapped_st if c1.depth >= 3 else O.theta_st)(c1, c2), O.STRICT)


def test_law_checker_flags_a_broken_observation():
    rep = _laws(BROKEN_ST, O.battery_state(Z2, Z2, depth=2, table_limit=8))
    assert rep.bind_law.kind == "violation"
    assert not rep.consistent
    assert O.recheck_witness(rep.bind_law.witness)


# Small batteries of every law observation, and a broken one, with the
# bind-law kind each gives.
_SMALL_LAW_CASES = [
    (O.observation_st(), lambda: O.battery_state(Z2, Z2, depth=2, table_limit=4, m_limit=5), "equal"),
    (O.observation_part(), lambda: O.battery_imp(Z2, Z2, depth=2, table_limit=4, m_limit=5), "equal"),
    (O.observation_tot(), lambda: O.battery_imp(Z2, Z2, depth=2, table_limit=4, m_limit=5), "equal"),
    (O.observation_ndet(O.FORALL), lambda: O.battery_ndet(Z2, depth=2, table_limit=8), "equal"),
    (O.observation_ndet(O.EXISTS), lambda: O.battery_ndet(Z2, depth=2, table_limit=8), "equal"),
    (O.observation_ndet(O.FORALL_EXISTS), lambda: O.battery_ndet(Z2, depth=3, table_limit=8),
     "strictly-less"),
    (O.observation_err(), lambda: O.battery_exc(Z2, Z2, depth=2, table_limit=8), "equal"),
    (O.observation_io(Z2, Z2, Z2, Z2), lambda: O.battery_io(Z2, Z2, Z2, depth=2, m_limit=3), "equal"),
    (O.observation_prob(), lambda: O.battery_prob(Z2, depth=2, table_limit=3, m_limit=4), "equal"),
    (DEEP_BROKEN_ST, lambda: O.battery_state(Z2, Z2, depth=2, table_limit=4, m_limit=5),
     "violation"),
]


@pytest.mark.parametrize("obs,make,bind_kind", _SMALL_LAW_CASES,
                         ids=[c[0].name for c in _SMALL_LAW_CASES])
def test_law_check_matches_the_per_instance_reference(obs, make, bind_kind):
    battery = make()
    want_ret, want_bind = reference.morphism_laws_by_instance(obs, battery)
    rep = O.check_morphism_laws(obs, battery)
    for law, want in ((rep.ret_law, want_ret), (rep.bind_law, want_bind)):
        progs = law.witness.instance if law.witness is not None else None
        assert (law.kind, law.checked, progs) == want
    assert rep.ret_law.kind == "equal" and rep.bind_law.kind == bind_kind
    assert rep.bind_law.checked > 1


def _toy_leq(x, y):
    _toy_leq.calls += 1
    return sm.HOLDS if x <= y else sm._fails(phi=(x, y))


def test_run_laws_ends_a_law_at_its_violation_and_keeps_the_first_strict_witness():
    _toy_leq.calls = 0
    rep = O.run_laws("toy", O.LAX, [
        ("a", 1, _toy_leq, 0, 0), ("b", 2, _toy_leq, 0, 1), ("a", 3, _toy_leq, 1, 0),
        ("b", 4, _toy_leq, 0, 2), ("a", 5, _toy_leq, 0, 1), ("b", 6, _toy_leq, 0, 0),
        ("c", 7, _toy_leq, 2, 2)])
    got = [(v.law, v.kind, v.checked, v.witness and v.witness.instance) for v in rep.laws]
    assert got == [("a", "violation", 2, 3), ("b", "strictly-less", 3, 2), ("c", "equal", 1, None)]
    assert rep.law("b").witness.phi == (1, 0)
    # a: none for its identical sides, 1, then skipped; b: 2, then the
    # forward check only once a witness is held, and none for identical
    # sides; c: none
    assert _toy_leq.calls == 4
    assert rep.checked == 6 and not rep.ok and not rep.consistent
    assert [w.law for w in rep.failures] == ["a", "b"]
    assert rep.law("d") == O.LawVerdict("d", "equal", 0)
    lax = O.run_laws("toy", O.LAX, [("b", 2, _toy_leq, 0, 1)])
    assert lax.consistent and not lax.ok
    assert not O.run_laws("toy", O.STRICT, [("b", 2, _toy_leq, 0, 1)]).consistent


def test_run_laws_counts_a_run_of_identical_sides_in_one_step_up_to_a_violation():
    _toy_leq.calls = 0
    rep = O.run_laws("toy", O.LAX, [
        ("a", 3, None, None, None), ("b", 1, _toy_leq, 0, 1), ("b", 2, None, None, None),
        ("a", 4, _toy_leq, 1, 0), ("a", 5, None, None, None), ("a", 6, _toy_leq, 0, 0),
        ("c", 2, None, None, None)])
    got = [(v.law, v.kind, v.checked, v.witness and v.witness.instance) for v in rep.laws]
    # a: the run of three before its violation counts, the run after it does not
    assert got == [("a", "violation", 4, 4), ("b", "strictly-less", 3, 1), ("c", "equal", 2, None)]
    # b: forward and back for its witness; a: forward once; no run is compared
    assert _toy_leq.calls == 3
    assert rep.checked == 9


def _swap_first_points(bind_body):
    """A broken bind body: the families of points 0 and 1 trade places
    when the continuation table observes more than one spec."""

    def broken(wm, conts, cspace, subs):
        space, fams, pre = bind_body(wm, conts, cspace, subs)
        if len({id(w) for w in conts.values()}) > 1:
            fams = (fams[1], fams[0], *fams[2:])
        return space, fams, pre

    return broken


@pytest.mark.parametrize("obs,make", [
    (O.observation_st(), lambda: O.battery_state(Z2, Z2, depth=2, table_limit=6, m_limit=9)),
    (O.observation_part(), lambda: O.battery_imp(Z2, Z2, depth=2, table_limit=6, m_limit=9)),
], ids=["state", "imp"])
def test_a_broken_bind_body_is_found_as_the_per_instance_reference_finds_it(monkeypatch, obs,
                                                                            make):
    battery = make()
    broken = _swap_first_points(sm._bind_body)
    monkeypatch.setattr(sm, "_bind_body", broken)   # spec_bind, as the reference binds
    monkeypatch.setattr(O, "_bind_body", broken)    # the law loop's right sides
    _, (kind, checked, progs) = reference.morphism_laws_by_instance(obs, battery)
    law = O.check_morphism_laws(obs, battery).bind_law
    assert kind == "violation" and 1 < checked < len(battery.ms) * len(battery.fs)
    assert (law.kind, law.checked, law.witness.instance) == (kind, checked, progs)
    m1, m2, f1, f2 = progs
    lhs = obs.map(P.bind(m1, f1), P.bind(m2, f2))
    rhs = sm.spec_bind(obs.map(m1, m2), lambda i, j: obs.map(f1[i], f2[j]))
    bad = sm.spec_leq(lhs, rhs)
    assert (law.witness.phi, law.witness.point, law.witness.where) == (bad.phi, bad.point,
                                                                       bad.where)
    assert O.recheck_witness(law.witness)


def test_run_laws_holds_identical_sides_without_comparing_them():
    def never(*_):
        raise AssertionError("identical sides were compared")

    w = sm.weakest(sm.pure_space(Z2, Z2))
    rep = O.run_laws("same", O.STRICT, [("ret", 1, never, w, w), ("bind", 2, never, 7, 7),
                                        ("bind", 3, never, w, w)])
    assert [(v.law, v.kind, v.checked, v.witness) for v in rep.laws] == [
        ("ret", "equal", 1, None), ("bind", "equal", 2, None)]
    assert rep.checked == 3 and rep.ok and rep.consistent
    # after a strict witness, identical sides still count and still hold
    _toy_leq.calls = 0
    rep = O.run_laws("toy", O.LAX, [("b", 1, _toy_leq, 0, 1), ("b", 2, never, 5, 5)])
    assert (rep.law("b").kind, rep.law("b").checked, _toy_leq.calls) == ("strictly-less", 2, 2)


def test_a_battery_without_rets_holds_the_ret_law_vacuously():
    battery = O.battery_state(Z2, Z2, depth=2, table_limit=2, m_limit=3)
    rep = O.check_morphism_laws(O.observation_st(), dataclasses.replace(battery, rets=()))
    assert [v.law for v in rep.laws] == ["bind"]
    assert rep.ret_law == O.LawVerdict("ret", "equal", 0)
    assert rep.bind_law.equal and rep.bind_law.checked == len(battery.ms) * len(battery.fs)


def test_a_law_check_observes_each_distinct_pair_of_run_tables_once():
    obs = O.observation_st()
    battery = O.battery_state(Z2, Z2, depth=2)
    met = []

    def counted(c1, c2):
        met.append(tuple((c.sig, c.result, P._runs(c)) for c in (c1, c2)))
        return O.theta_st(c1, c2)

    rep = O.check_morphism_laws(dataclasses.replace(obs, map=counted), battery)
    assert rep == O.check_morphism_laws(obs, battery)
    assert len(met) == len(set(met))
    assert len(met) * 10 < rep.checked


@pytest.mark.parametrize("obs,battery,n_middles", [
    # every middle pair of the state battery observes a spec of its own; 16
    # of the 81 of the imp battery observe one that another observed first
    (O.observation_st(), lambda: O.battery_state(Z2, Z2, depth=2), 64),
    (O.observation_part(), lambda: O.battery_imp(Z2, Z2, depth=2), 65),
], ids=["state", "imp"])
def test_a_law_check_binds_each_distinct_middle_spec_once_per_table(monkeypatch, obs, battery,
                                                                      n_middles):
    battery = battery()
    bodies, pooled = [], []

    def bind_body(wm, conts, *prep):
        bodies.append((wm, conts))   # keeps each one alive, so ids stay distinct
        return sm._bind_body(wm, conts, *prep)

    def spec_bind(wm, table):
        pooled.append((wm, table))
        return sm.spec_bind(wm, table)

    with monkeypatch.context() as m:
        m.setattr(O, "_bind_body", bind_body)
        m.setattr(O, "spec_bind", spec_bind)
        rep = O.check_morphism_laws(obs, battery)
    assert rep == O.check_morphism_laws(obs, battery) and rep.ok
    middles = {(w.space, w.fams) for w in (obs.map(m1, m2) for m1, m2 in battery.ms)}
    assert len(middles) == n_middles
    # one body per distinct middle spec per table (each table's entries are
    # decoded into one `conts` of its own) ...
    assert len({(id(w), id(conts)) for w, conts in bodies}) == len(bodies)
    assert len(bodies) == n_middles * len(battery.fs)
    # ... and every bound pair's spec is the one its body pools to, so the
    # law loop pools no right side
    assert pooled == []


def test_an_observation_keyed_by_program_is_applied_once_per_program_pair():
    battery = O.battery_state(Z2, Z2, depth=2, table_limit=4, m_limit=5)
    met = []

    def counted(c1, c2):
        met.append((c1, c2))   # keeps each program alive, so ids stay distinct
        return O.theta_st(c1, c2)

    obs = O.EffectObservation("theta-st-by-program", P.STATE, P.STATE, "WrelSt",
                              counted, O.STRICT)
    rep = O.check_morphism_laws(obs, battery)
    assert rep.ok
    rets = {(P.ret(SSIG, a1), P.ret(SSIG, a2)) for a1, a2 in battery.rets}
    conts = {(c1, c2) for f1, f2 in battery.fs for c1 in f1 for c2 in f2}
    bound = {(P.bind(m1, f1), P.bind(m2, f2))
             for f1, f2 in battery.fs for m1, m2 in battery.ms}
    assert len(met) == len(set(met))
    assert set(met) == rets | set(battery.ms) | conts | bound


def _refusal(fn):
    with pytest.raises(ValueError) as e:
        fn()
    return str(e.value)


def test_a_law_check_meets_every_refusal_of_a_named_observation():
    # a pair met after one with equal runs is refused still: an imp program
    # with a loop under theta_st, and a program of another effect
    plain = P.ret(ISIG, Z2.value(0))
    looping = P.do_while(P.ret(ISIG, boolv(False)), plain)
    assert P._runs(looping) == P._runs(plain)
    f = (plain, P.ret(ISIG, Z2.value(1)))
    io = P.ret(IOSIG, Z2.value(0))
    exc = P.ret(ESIG, Z2.value(0))
    state = P.ret(SSIG, Z2.value(0))
    cases = [
        (O.observation_st(), ISIG, (plain, plain), (looping, plain)),
        (O.observation_st(), ISIG, (plain, plain), (plain, looping)),
        (O.observation_st(), SSIG, (state, state), (state, io)),
        (O.observation_err(), ESIG, (exc, exc), (exc, state)),
        (O.observation_part(), ISIG, (plain, plain), (io, plain)),
    ]
    for obs, sig, fine, bad in cases:
        ft = tuple(P.ret(sig, v) for v in Z2.values())
        battery = O.ProgramBattery(sig, sig, (), (fine, bad), ((ft, ft),))
        assert _refusal(lambda: O.check_morphism_laws(obs, battery)) == _refusal(
            lambda: obs.map(*bad)), (obs.name, bad)
    with_loop = O.ProgramBattery(ISIG, ISIG, (), ((plain, plain),),
                                 ((f, f), ((looping, plain), f)))
    assert "observe loops" in _refusal(
        lambda: O.check_morphism_laws(O.observation_st(), with_loop))


def test_a_law_check_refuses_a_table_of_the_wrong_length_as_bind_does():
    m = P.ret(SSIG, Z2.value(0))
    good = tuple(P.ret(SSIG, v) for v in Z2.values())
    long = good + good[:1]
    want = _refusal(lambda: P.bind(m, long))
    assert want == "continuation table has 3 entries for domain of size 2"
    for key in (O._st_key, O._itself):
        obs = dataclasses.replace(O.observation_st(), key=key)
        for fs in ((long, good), (good, long)):
            battery = O.ProgramBattery(SSIG, SSIG, (), ((m, m),), (fs,))
            assert _refusal(lambda: O.check_morphism_laws(obs, battery)) == want


def test_a_table_limit_below_one_is_refused():
    with pytest.raises(ValueError, match="table_limit"):
        O.battery_state(Z2, Z2, depth=2, table_limit=0)


def test_pair_space_returns_the_interned_space():
    left = sm.state_space(Z2, Z2, UNIT, Z3)
    right = sm.state_space(UNIT, Z2, Z3, Z3)
    paired = O._pair_space(left, right)
    assert paired is O._pair_space(left, right) is sm.state_space(Z2, Z2, Z3, Z3)
    io_left, io_right = sm.io_space(Z2, Z2, Z3, UNIT, Z3, Z2), sm.io_space(UNIT, Z2, Z3, Z3, Z3, Z2)
    assert O._pair_space(io_left, io_right) is sm.io_space(Z2, Z2, Z3, Z3, Z3, Z2)
    with pytest.raises(ValueError, match="ambient"):
        O._pair_space(left, sm.state_space(UNIT, Z3, Z3, Z3))


def test_law_check_builds_bound_programs_only_for_key_pairs_theta_has_not_seen(monkeypatch):
    battery = O.battery_state(Z2, Z2, depth=2, table_limit=12)
    built, met = [], []
    bind = P.bind

    def counted(m, f):
        built.append((m, f, bind(m, f)))   # keeps each one alive, so ids stay distinct
        return built[-1][2]

    def observed(c1, c2):
        met.append((c1, c2))
        return O.theta_st(c1, c2)

    monkeypatch.setattr(P, "bind", counted)
    obs = dataclasses.replace(O.observation_st(), map=observed)
    rep = O.check_morphism_laws(obs, battery)
    assert rep.bind_law.equal
    # keyed by runs: a bound pair is keyed by its composed runs, and a
    # program is built only to be observed, for a key pair met the first time
    assert built and {c for _, _, c in built} <= {c for pair in met for c in pair}
    assert len({(id(m), id(f)) for m, f, _ in built}) == len(built)
    keys = [(O._st_key(c1), O._st_key(c2)) for c1, c2 in met]
    assert len(keys) == len(set(keys))
    left = {(id(m1), id(f1)) for m1, _ in battery.ms for f1, _ in battery.fs}
    right = {(id(m2), id(f2)) for _, m2 in battery.ms for _, f2 in battery.fs}
    assert len(built) * 10 < len(left) + len(right)
    # keyed by program, each side's (m, f) is built once
    built.clear()
    rep = O.check_morphism_laws(dataclasses.replace(obs, key=O._itself), battery)
    assert rep.bind_law.equal
    calls = [(id(m), id(f)) for m, f, _ in built]
    assert set(calls) == left | right
    # a pair used on both sides (the two signatures are equal here) is
    # built once for each
    assert len(calls) == len(left) + len(right)
    assert rep.bind_law.checked == len(battery.ms) * len(battery.fs) > len(calls)


def test_battery_shapes():
    bat = O.battery_state(Z2, Z2)
    assert len(bat.ms) == 16 * 16  # every state transformer class, both sides
    assert len(bat.rets) == 4
    classes = enumerate_classes(P.exc_sig(Z2), Z2, 3)
    assert len(classes) == 4  # two returns + two distinguishable raises
    assert len(enumerate_classes(NSIG, Z2, 3)) == 4  # the subsets of {0,1}


def test_tables_cover_constants_and_value_dependence():
    pool = enumerate_classes(SSIG, Z2, 2)
    capped = O._tables(pool, 2, 8)
    assert len(capped) == 8
    keys = {tuple(P.semantic_key(p) for p in t) for t in capped}
    assert len(keys) == 8
    assert any(len({P.semantic_key(p) for p in t}) == 2 for t in capped)
    full = O._tables(pool[:3], 2, 9)
    assert len(full) == 9  # exhaustive when it fits


def test_observation_call_and_claims():
    obs = O.observation_st()
    w = obs(P.ret(SSIG, Value(Z2, 0)), P.ret(SSIG, Value(Z2, 0)))
    assert w.tag == "WrelSt"
    assert O.observation_prob().strictness == O.LAX
    assert O.observation_io(Z2, Z2, Z2, Z2).strictness == O.STRICT
    with pytest.raises(ValueError):
        O.observation_ndet("sometimes")
