"""Spec triples over split contexts.

The pure lift's payloads are one-point WrelPure specs.  Their demand normal
form, bind and order are pinned against brute-force quantification over
every postcondition, so they are trusted by construction before anything
is built on them.  The assembled exception carrier is then
compared extensionally with a hand-written single-shot version of the same
transformer, the run-both observation is checked to map unit and sequencing
to unit and sequencing exactly, and each rule's conclusion is re-decided by
the three-clause semantic oracle, including a seeded sweep of random
derivations.
"""

import dataclasses
import random
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from relwp import generic as G
from relwp import observations as O
from relwp import programs as P
from relwp import rules as R
from relwp import specmonads as sm
from relwp import whilelang as W
from relwp.domains import (BOOL, UNIT, UNIT_VAL, Value, case_index, domain, product_domain,
                           sum_domain)

from relwp.genprog import random_program

import reference

Z2 = domain("Z2", 2)
Z3 = domain("Z3", 3)
EL = domain("EL", 2)
ER = domain("ER", 2)

XSIG = P.exc_sig(EL)
YSIG = P.exc_sig(ER)

MONAD = G.wrelexc_monad(EL, ER)
TH = G.theta_exc_triple(EL, ER)

SUM1 = sum_domain(Z2, EL)
SUM2 = sum_domain(Z2, ER)
PAIR = sm.pure_space(SUM1, SUM2)
LP = G.lift_pure()


def PT(d):
    """The one-point pure space over d beside a unit: outcome o is (o, ())."""
    return sm.pure_space(d, UNIT)


def ret_at(d, o):
    return sm.spec_ret(PT(d), d.value(o), UNIT_VAL)


def all_phis(dom):
    return [frozenset(o for o in range(dom.size) if mask >> o & 1)
            for mask in range(1 << dom.size)]


def assert_equiv(w1, w2):
    fwd, back = sm.spec_leq(w1, w2), sm.spec_leq(w2, w1)
    assert fwd.holds and back.holds, (fwd, back, w1, w2)


def assert_triple_theta_equal(j):
    """The conclusion spec IS the observation of the conclusion programs."""
    for g1 in j.ctx.left.valuations():
        assert G.leq(j.w1(g1), j.theta.theta1(j.c1(g1))).holds
        assert G.leq(j.theta.theta1(j.c1(g1)), j.w1(g1)).holds
    for g2 in j.ctx.right.valuations():
        assert G.leq(j.w2(g2), j.theta.theta2(j.c2(g2))).holds
        assert G.leq(j.theta.theta2(j.c2(g2)), j.w2(g2)).holds
    for g1 in j.ctx.left.valuations():
        for g2 in j.ctx.right.valuations():
            seen = j.theta.theta_rel(j.c1(g1), j.c2(g2))
            assert G.leq(j.wrel(g1, g2), seen).holds
            assert G.leq(seen, j.wrel(g1, g2)).holds


def draw(rng, unit):
    """A random payload in the shape of `unit`, as `check_triple_laws`
    draws one: a random spec over each spec's space, in tuple order."""
    if isinstance(unit, tuple):
        return tuple(draw(rng, w) for w in unit)
    return G.random_spec(rng, unit.space)


def gen1(m, rng, d):
    return draw(rng, m.ret1(d.value(0)))


def gen2(m, rng, d):
    return draw(rng, m.ret2(d.value(0)))


def gen_rel(m, rng, d1, d2):
    return draw(rng, m.ret_rel(d1.value(0), d2.value(0)))


# ---------------------------------------------------------------------------
# Demand normal form


def test_wp_normalizes_to_a_minimal_antichain():
    d = domain("D", 4)
    w = sm.demand_spec(PT(d), [[0b0011, 0b0001, 0b1100, 0b1101]])
    assert w.fams == (frozenset({0b0001, 0b1100}),)


def test_wp_accepts_callables_masks_and_iterables():
    d = domain("D", 4)
    w = sm.demand_spec(PT(d), [[0b0001, 0b1100]])
    assert w.at(frozenset({0}))
    assert w.at(lambda o: o >= 2)
    assert w.at(0b1101)
    assert not w.at(frozenset({1, 2}))
    assert not w.at(0)


def test_wp_rejects_out_of_range_outcomes():
    d = domain("D", 2)
    with pytest.raises(ValueError, match="outside space"):
        sm.demand_spec(PT(d), [[1 << 3]])
    with pytest.raises(ValueError, match="outside space"):
        sm.demonic_spec(PT(d), [{2}])
    with pytest.raises(ValueError, match="expected 'D'"):
        sm.spec_ret(PT(d), Z3.value(2), UNIT_VAL)


def test_order_extremes():
    d = domain("D", 3)
    mid = ret_at(d, 1)
    assert sm.spec_leq(mid, sm.unsatisfiable(PT(d))).holds
    assert sm.spec_leq(sm.weakest(PT(d)), mid).holds
    assert not sm.spec_leq(sm.unsatisfiable(PT(d)), mid).holds
    assert not sm.spec_leq(mid, sm.weakest(PT(d))).holds


def test_order_failure_carries_a_separating_postcondition():
    d = domain("D", 3)
    v = sm.spec_leq(ret_at(d, 2), ret_at(d, 0))
    assert not v.holds
    assert v.phi == frozenset({0}) and v.where == ("point", 0)
    # the witness is a postcondition the right accepts and the left does not
    assert ret_at(d, 0).at(v.phi) and not ret_at(d, 2).at(v.phi)


def test_comparing_different_domains_is_an_error():
    with pytest.raises(ValueError, match="cannot compare"):
        sm.spec_leq(sm.weakest(PT(Z2)), sm.weakest(PT(Z3)))


@settings(deadline=None, max_examples=60)
@given(seed=st.integers(0, 10 ** 9))
def test_order_agrees_with_quantification_over_postconditions(seed):
    rng = random.Random(seed)
    d = domain("D", 5)
    w, w2 = G.random_spec(rng, PT(d)), G.random_spec(rng, PT(d))
    brute = all(w.at(phi) for phi in all_phis(d) if w2.at(phi))
    assert sm.spec_leq(w, w2).holds == brute


@settings(deadline=None, max_examples=60)
@given(seed=st.integers(0, 10 ** 9))
def test_bind_agrees_with_the_pointwise_composite(seed):
    rng = random.Random(seed)
    d, r = domain("D", 4), domain("R", 3)
    w = G.random_spec(rng, PT(d))
    table = [G.random_spec(rng, PT(r)) for _ in range(d.size)]
    got = LP.bind1(w, table, r)
    for phi in all_phis(r):
        want = w.at(frozenset(o for o in range(d.size) if table[o].at(phi)))
        assert got.at(phi) == want, (phi, got)
    # the core bind of the same one-point specs builds the same family
    assert sm.spec_bind(w, table).fams == got.fams


@settings(deadline=None, max_examples=40)
@given(seed=st.integers(0, 10 ** 9))
def test_bind_is_associative(seed):
    rng = random.Random(seed)
    a, b, c = domain("A", 3), domain("B", 3), domain("C", 3)
    w = G.random_spec(rng, PT(a))
    f = [G.random_spec(rng, PT(b)) for _ in range(a.size)]
    g = [G.random_spec(rng, PT(c)) for _ in range(b.size)]
    assert_equiv(LP.bind1(LP.bind1(w, f, b), g, c),
                 LP.bind1(w, [LP.bind1(x, g, c) for x in f], c))


def test_bind_unit_laws():
    d = domain("D", 4)
    rng = random.Random(3)
    table = [G.random_spec(rng, PT(d)) for _ in range(d.size)]
    for o in range(d.size):
        assert_equiv(LP.bind1(ret_at(d, o), table, d), table[o])
    w = G.random_spec(rng, PT(d))
    assert_equiv(LP.bind1(w, [ret_at(d, o) for o in range(d.size)], d), w)


def test_bind_through_an_unsatisfiable_continuation_demands_avoidance():
    # the only surviving demands steer around the dead outcome
    d = domain("D", 2)
    w = sm.demand_spec(PT(d), [[0b01, 0b11]])
    got = LP.bind1(w, [ret_at(d, 1), sm.unsatisfiable(PT(d))], d)
    assert got.fams == (frozenset({0b10}),)


@settings(deadline=None, max_examples=40)
@given(seed=st.integers(0, 10 ** 9))
def test_map_agrees_with_postcondition_composition(seed):
    rng = random.Random(seed)
    d, r = domain("D", 4), domain("R", 6)
    w = G.random_spec(rng, PT(d))
    f = lambda o: (2 * o + 1) % r.size
    got = sm.reindex_outcomes(w, PT(r), f)
    for phi in all_phis(r):
        assert got.at(phi) == w.at(lambda o: f(o) in phi)


def test_bind_rejects_short_tables_and_mixed_domains():
    d = domain("D", 3)
    # a deterministic middle spec takes the same checks before its shortcut
    for w in (sm.weakest(PT(d)), ret_at(d, 0)):
        with pytest.raises(ValueError, match="must cover"):
            LP.bind1(w, [sm.weakest(PT(d))], d)
        with pytest.raises(ValueError, match="mixes"):
            LP.bind1(w, [sm.weakest(PT(d)), sm.weakest(PT(Z2)), sm.weakest(PT(d))], d)


def test_deterministic_bind_matches_the_pruning_path():
    # {{o}, {o, p}} is the same transformer as {{o}} but, with two demands,
    # is composed by the general product-and-prune path
    rng = random.Random(2024)
    d, r = domain("D", 4), domain("R", 5)
    for _ in range(200):
        table = [G.random_spec(rng, PT(r)) for _ in range(d.size)]
        o, p = rng.sample(range(d.size), 2)
        got = LP.bind1(ret_at(d, o), table, r)
        unpruned = sm.RelSpec("WrelPure", PT(d), fams=(frozenset({1 << o, 1 << o | 1 << p}),))
        slow = LP.bind1(unpruned, table, r)
        assert got is table[o]
        assert got.fams == slow.fams, (o, table)


# ---------------------------------------------------------------------------
# Carrier law batteries

TRIPLE_LAWS = ("unit-left", "unit-right", "assoc", "tau-unit", "tau-bind")


def assert_laws_equal(rep, *checked):
    """Every law of a triple-law report is equal, with these checked counts
    in law order: payloads drawn in the unit's shape consume the seed as
    each carrier's own draws once did, so the counts are pinned."""
    assert rep.ok, rep.failures
    assert ([(v.law, v.kind, v.checked) for v in rep.laws]
            == [(law, "equal", n) for law, n in zip(TRIPLE_LAWS, checked)])


def test_pure_lift_satisfies_the_triple_laws():
    rep = G.check_triple_laws(G.lift_pure(), random.Random(11), (Z2, Z3), (Z3, Z2),
                              samples=3)
    assert_laws_equal(rep, 33, 9, 9, 15, 6)


def test_state_lift_satisfies_the_triple_laws():
    rep = G.check_triple_laws(G.lift_state(Z2, Z3), random.Random(12), (Z2,), (Z2,),
                              samples=2)
    assert_laws_equal(rep, 16, 6, 6, 8, 4)


def test_state_transformer_satisfies_the_triple_laws():
    left = G.stt_rel_transform(G.lift_pure(), Z2, "left")
    rep = G.check_triple_laws(left, random.Random(13), (Z2, Z3), (Z2,), samples=2)
    assert_laws_equal(rep, 16, 6, 6, 8, 4)
    right = G.stt_rel_transform(G.lift_pure(), Z3, "right")
    rep = G.check_triple_laws(right, random.Random(14), (Z2,), (Z2, Z3), samples=2)
    assert_laws_equal(rep, 16, 6, 6, 8, 4)


def test_exception_transformer_satisfies_the_triple_laws():
    left = G.exct_rel_transform(G.lift_pure(), EL, "left")
    rep = G.check_triple_laws(left, random.Random(15), (Z2, Z3), (Z2,), samples=2)
    assert_laws_equal(rep, 16, 6, 6, 8, 4)
    right = G.exct_rel_transform(G.lift_pure(), ER, "right")
    rep = G.check_triple_laws(right, random.Random(16), (Z2,), (Z2, Z3), samples=2)
    assert_laws_equal(rep, 16, 6, 6, 8, 4)


def test_double_exception_carrier_satisfies_the_triple_laws():
    rep = G.check_triple_laws(MONAD, random.Random(17), (Z2, Z2), (Z2, Z2), samples=3)
    assert_laws_equal(rep, 24, 9, 9, 12, 6)


def test_transformers_stack_across_effects():
    mixed = G.exct_rel_transform(G.stt_rel_transform(G.lift_pure(), Z2, "left"),
                                 ER, "right")
    rep = G.check_triple_laws(mixed, random.Random(18), (Z2,), (Z2,), samples=1)
    assert_laws_equal(rep, 8, 3, 3, 4, 2)


# per seed, each law's (kind, checked) and each failing law's witness
# instance, for the pure lift whose bind1 keeps its middle
MIDDLE_KEPT = {
    5: ([("violation", 10), ("equal", 4)], [("unit-left", ("left", 1))]),
    6: ([("violation", 1), ("equal", 4)], [("unit-left", ("left", 0))]),
    7: ([("violation", 2), ("violation", 1)], [("unit-left", ("left", 1)),
                                              ("tau-bind", ("left",))]),
    8: ([("violation", 1), ("strictly-less", 4)], [("unit-left", ("left", 0)),
                                                  ("tau-bind", ("left",))]),
    9: ([("violation", 9), ("strictly-less", 4)], [("unit-left", ("left", 0)),
                                                  ("tau-bind", ("left",))]),
    **{seed: ([("violation", 1), ("equal", 4)], [("unit-left", ("left", 0))])
       for seed in range(10, 14)},
}


@pytest.mark.parametrize("seed", sorted(MIDDLE_KEPT))
def test_a_carrier_that_keeps_the_middle_reports_the_same_at_each_seed(seed):
    broken = dataclasses.replace(LP, name="middle-kept", bind1=lambda m, f, d: m)
    rep = G.check_triple_laws(broken, random.Random(seed), (Z2,), (Z2,), samples=2)
    (unit_left, tau_bind), witnesses = MIDDLE_KEPT[seed]
    assert ([(v.law, v.kind, v.checked) for v in rep.laws]
            == [("unit-left", *unit_left), ("unit-right", "equal", 6), ("assoc", "equal", 6),
                ("tau-unit", "equal", 8), ("tau-bind", *tau_bind)])
    assert [(w.law, w.instance) for w in rep.failures] == [
        (law, inst[:1] + tuple(Z2.value(i) for i in inst[1:])) for law, inst in witnesses]
    assert all(O.recheck_witness(w) for w in rep.failures)


def test_a_carrier_that_keeps_the_middle_fails_unit_left_on_the_left():
    # bind1 returns its middle unchanged, so bind1(ret1 a, f1) is ret1 a, not f1[a]
    broken = dataclasses.replace(LP, name="middle-kept", bind1=lambda m, f, d: m)
    rep = G.check_triple_laws(broken, random.Random(11), (Z2,), (Z2,), samples=2)
    assert [v.law for v in rep.laws] == ["unit-left", "unit-right", "assoc", "tau-unit", "tau-bind"]
    assert not rep.ok and not rep.consistent
    (wit,) = rep.failures
    assert (wit.law, wit.kind, wit.instance) == ("unit-left", "violation", ("left", Z2.value(0)))
    assert O.recheck_witness(wit)
    # the violation ends that law's scan; the others run to the end
    assert rep.law("unit-left").checked == 1
    sound = G.check_triple_laws(LP, random.Random(11), (Z2,), (Z2,), samples=2)
    assert sound.ok
    assert ([(v.law, v.checked) for v in rep.laws[1:]]
            == [(v.law, v.checked) for v in sound.laws[1:]])


def test_a_state_table_witness_rechecks_at_its_entry_state():
    # bind_rel returns its relational middle, so the relational unit-left
    # law fails inside the state table, at the entry state `where` leads with
    st = G.stt_rel_transform(LP, Z2, "left")
    broken = dataclasses.replace(st, name="rel-middle-kept",
                                 bind_rel=lambda *_tables: lambda m1, m2, mrel: mrel)
    rep = G.check_triple_laws(broken, random.Random(1), (Z2,), (Z2,), samples=2)
    wit = rep.failures[0]
    assert (wit.law, wit.kind, wit.instance, wit.where) == (
        "unit-left", "violation", ("relational", Z2.value(0), Z2.value(0)), (1, "point", 0))
    assert isinstance(wit.lhs, tuple) and len(wit.lhs) == Z2.size
    assert O.recheck_witness(wit)
    assert not O.recheck_witness(dataclasses.replace(wit, lhs=wit.rhs, rhs=wit.lhs))


NESTED = {
    # relational payloads: the outer table by the outer transformer's entry
    # state (Z3), each entry a table by the inner one's (Z2)
    "stt over stt": G.stt_rel_transform(G.stt_rel_transform(LP, Z2, "left"), Z3, "left"),
    "mirrored": G.stt_rel_transform(G.stt_rel_transform(LP, Z2, "left"), Z3, "right"),
}


@pytest.mark.parametrize("name", sorted(NESTED))
def test_leq_names_nested_entry_states_outermost_first(name):
    m = NESTED[name]
    w = m.ret_rel(Z2.value(1), Z2.value(0))
    assert len(w) == Z3.size and all(len(row) == Z2.size for row in w)
    # unsatisfiable at outer state 2, inner state 1 only: above w, and not below it
    hi = tuple(tuple(sm.unsatisfiable(x.space) if (i, k) == (2, 1) else x
                     for k, x in enumerate(row)) for i, row in enumerate(w))
    assert G.leq(w, w) is sm.HOLDS and G.leq(w, hi).holds
    v = G.leq(hi, w)
    assert not v.holds and v.where[:2] == (2, 1)
    wit = O.LawWitness("unit-left", "violation", (name,), hi, w, v.phi, v.point, v.where)
    assert O.recheck_witness(wit)
    assert not O.recheck_witness(dataclasses.replace(wit, lhs=w, rhs=hi))
    top = m.unsat_rel(Z2, Z2)
    assert G.leq(hi, top).holds and not G.leq(top, w).holds


def test_leq_refuses_payloads_of_different_shapes():
    m = NESTED["stt over stt"]
    table = m.ret_rel(Z2.value(0), Z2.value(0))
    with pytest.raises(ValueError, match="spec with a state table"):
        G.leq(table[0][0], table)
    with pytest.raises(ValueError, match="spec with a state table"):
        G.leq(table, table[0][0])
    with pytest.raises(ValueError, match="different size"):
        G.leq(table, table[:2])


def test_triple_law_arguments_are_checked():
    with pytest.raises(ValueError, match="samples"):
        G.check_triple_laws(LP, random.Random(1), (Z2,), (Z2,), samples=0)
    with pytest.raises(ValueError, match="doms1"):
        G.check_triple_laws(LP, random.Random(1), (), (Z2,))
    with pytest.raises(ValueError, match="doms2"):
        G.check_triple_laws(LP, random.Random(1), (Z2,), ())


def _swapped(x, d1, d2):
    """A payload with its pair components swapped: a transformer over
    d1 x d2 becomes one over d2 x d1, and a state table is swapped entry by
    entry."""
    if isinstance(x, tuple):
        return tuple(_swapped(w, d1, d2) for w in x)
    return sm.reindex_outcomes(x, sm.pure_space(d2, d1),
                               lambda o: (o % d2.size) * d1.size + o // d2.size)


def _assert_same(x, y):
    if isinstance(x, tuple):
        assert isinstance(y, tuple) and len(x) == len(y)
        for a, b in zip(x, y):
            _assert_same(a, b)
    else:
        assert_equiv(x, y)


# each transformer over the pure lift, with the result domain it gives the
# wrapped side
SIDED = {
    "exct": (lambda side: G.exct_rel_transform(G.lift_pure(), EL, side),
             lambda d: sum_domain(d, EL)),
    "stt": (lambda side: G.stt_rel_transform(G.lift_pure(), Z2, side),
            lambda d: product_domain(d, Z2)),
}


@pytest.mark.parametrize("name", sorted(SIDED))
def test_a_right_transformer_is_the_left_one_on_the_swapped_problem(name):
    # every operation of the right carrier over (a1d, a2d) against the left
    # carrier's over (a2d, a1d), payloads swapped by hand; the domains of
    # the two sides differ so that a side mix-up shows
    build, wrap = SIDED[name]
    left, right = build("left"), build("right")
    a1d, a2d, b1d, b2d = Z2, Z3, Z3, Z2
    rng = random.Random(43)
    for a in a2d.values():
        _assert_same(_swapped(right.ret2(a), UNIT, wrap(a2d)), left.ret1(a))
    for a in a1d.values():
        _assert_same(_swapped(right.ret1(a), a1d, UNIT), left.ret2(a))
    for a1, a2 in product(a1d.values(), a2d.values()):
        _assert_same(_swapped(right.ret_rel(a1, a2), a1d, wrap(a2d)), left.ret_rel(a2, a1))
    for d1, d2 in ((a1d, a2d), (b1d, b2d)):
        _assert_same(_swapped(right.unsat_rel(d1, d2), d1, wrap(d2)), left.unsat_rel(d2, d1))
    for _ in range(3):
        # drawn for the left carrier, swapped for the right one
        m2, m1 = gen1(left, rng, a2d), gen2(left, rng, a1d)
        mrel = gen_rel(left, rng, a2d, a1d)
        f2 = tuple(gen1(left, rng, b2d) for _ in range(a2d.size))
        f1 = tuple(gen2(left, rng, b1d) for _ in range(a1d.size))
        frel = tuple(tuple(gen_rel(left, rng, b2d, b1d) for _ in range(a1d.size))
                     for _ in range(a2d.size))
        r_m1, r_m2 = _swapped(m1, UNIT, a1d), _swapped(m2, wrap(a2d), UNIT)
        r_f1 = tuple(_swapped(w, UNIT, b1d) for w in f1)
        r_f2 = tuple(_swapped(w, wrap(b2d), UNIT) for w in f2)
        r_frel = tuple(tuple(_swapped(frel[i2][i1], wrap(b2d), b1d) for i2 in range(a2d.size))
                       for i1 in range(a1d.size))
        _assert_same(_swapped(right.bind2(r_m2, r_f2, b2d), UNIT, wrap(b2d)),
                     left.bind1(m2, f2, b2d))
        _assert_same(_swapped(right.bind1(r_m1, r_f1, b1d), b1d, UNIT),
                     left.bind2(m1, f1, b1d))
        got = right.bind_rel(r_f1, r_f2, r_frel, b1d, b2d)(r_m1, r_m2,
                                                           _swapped(mrel, wrap(a2d), a1d))
        _assert_same(_swapped(got, b1d, wrap(b2d)),
                     left.bind_rel(f2, f1, frel, b2d, b1d)(m2, m1, mrel))
        _assert_same(_swapped(right.tau2(r_m2, a2d), UNIT, wrap(a2d)), left.tau1(m2, a2d))
        _assert_same(_swapped(right.tau1(r_m1, a1d), a1d, wrap(UNIT)), left.tau2(m1, a1d))


def test_transformer_rejects_unknown_side():
    with pytest.raises(ValueError, match="side"):
        G.exct_rel_transform(G.lift_pure(), EL, "middle")
    with pytest.raises(ValueError, match="side"):
        G.stt_rel_transform(G.lift_pure(), Z2, "both")


def test_tau_is_the_identity_on_lifts():
    lp = G.lift_pure()
    w = G.random_spec(random.Random(19), PT(Z2))
    assert lp.tau1(w, Z2) is w
    ls = G.lift_state(Z2, Z2)
    m = gen2(ls, random.Random(20), Z3)
    assert ls.tau2(m, Z3) is m


def test_state_transformer_unit_is_the_per_state_table():
    # fixing the entry state, the unit pairs the value with that state
    st_ = G.stt_rel_transform(G.lift_pure(), Z3, "left")
    a1, a2 = Z2.value(1), Z2.value(0)
    got = st_.ret_rel(a1, a2)
    paired = sm.pure_space(product_domain(Z2, Z3), Z2)
    for si in range(Z3.size):
        want = sm.demand_spec(paired, [(1 << ((a1.index * Z3.size + si) * Z2.size + a2.index),)])
        assert_equiv(got[si], want)


def test_state_lift_bind_is_plain_spec_bind():
    # the triple bind discards its unary arguments on a lift
    ls = G.lift_state(Z2, Z2)
    rng = random.Random(21)
    space = sm.state_space(Z2, Z2, Z2, Z2)
    m = gen_rel(ls, rng, Z2, Z2)
    frel = [[gen_rel(ls, rng, Z3, Z3) for _ in range(Z2.size)] for _ in range(Z2.size)]
    got = ls.bind_rel([gen1(ls, rng, Z3)] * Z2.size, [gen2(ls, rng, Z3)] * Z2.size,
                      frel, Z3, Z3)(gen1(ls, rng, Z2), gen2(ls, rng, Z2), m)
    want = sm.spec_bind(m, lambda i1, i2: frel[i1][i2])
    assert sm.spec_leq(got, want).holds and sm.spec_leq(want, got).holds
    assert space.tag == m.space.tag


# ---------------------------------------------------------------------------
# Assembled vs hand-written exception carrier


def test_exception_units_agree_with_the_hand_written_carrier():
    for a1 in Z2.values():
        for a2 in Z2.values():
            assert_equiv(MONAD.ret_rel(a1, a2), reference.wrelexc_ret(a1, EL, a2, ER))


def test_exception_binds_agree_with_the_hand_written_carrier():
    s1b = sm.pure_space(sum_domain(Z3, EL), UNIT)
    s2b = sm.pure_space(UNIT, sum_domain(Z3, ER))
    pairb = sm.pure_space(sum_domain(Z3, EL), sum_domain(Z3, ER))
    for seed in range(60):
        rng = random.Random(seed)
        wm = G.random_spec(rng, PAIR)
        f1 = [G.random_spec(rng, s1b) for _ in range(Z2.size)]
        f2 = [G.random_spec(rng, s2b) for _ in range(Z2.size)]
        frel = [[G.random_spec(rng, pairb) for _ in range(Z2.size)]
                for _ in range(Z2.size)]
        hand = reference.wrelexc_bind(wm, f1, f2, frel, EL, ER, Z3, Z3)
        built = MONAD.bind_rel(f1, f2, frel, Z3, Z3)(gen1(MONAD, rng, Z2),
                                                     gen2(MONAD, rng, Z2), wm)
        assert_equiv(hand, built)


def _wide_spec(rng, space):
    """A random one-point spec whose demands all name two outcomes or more,
    so no bind through it takes the deterministic shortcut."""
    return sm.demand_spec(space, [[sum(1 << o for o in rng.sample(range(space.size),
                                                                  rng.randint(2, space.size)))
                                   for _ in range(rng.randint(1, 3))]])


def test_one_carrier_serves_continuations_over_several_domains():
    # the carrier keeps unit tables by domain signature; alternating the
    # domains through one carrier catches a key that leaves one out
    monad = G.wrelexc_monad(EL, ER)
    rng = random.Random(7)
    for _ in range(3):
        for a1d, a2d, b1d, b2d in product((Z2, Z3), repeat=4):
            s1b, s2b = sum_domain(b1d, EL), sum_domain(b2d, ER)
            wm = _wide_spec(rng, sm.pure_space(sum_domain(a1d, EL), sum_domain(a2d, ER)))
            f1 = [_wide_spec(rng, PT(s1b)) for _ in range(a1d.size)]
            f2 = [_wide_spec(rng, sm.pure_space(UNIT, s2b)) for _ in range(a2d.size)]
            frel = [[_wide_spec(rng, sm.pure_space(s1b, s2b)) for _ in range(a2d.size)]
                    for _ in range(a1d.size)]
            hand = reference.wrelexc_bind(wm, f1, f2, frel, EL, ER, b1d, b2d)
            built = monad.bind_rel(f1, f2, frel, b1d, b2d)(gen1(monad, rng, a1d),
                                                           gen2(monad, rng, a2d), wm)
            assert_equiv(hand, built)
            # unary: raised exceptions pass through as units of the new domain
            m1 = _wide_spec(rng, PT(sum_domain(a1d, EL)))
            raises = [ret_at(s1b, b1d.size + j) for j in range(EL.size)]
            assert_equiv(monad.bind1(m1, f1, b1d), sm.spec_bind(m1, f1 + raises))


# Exception carriers built fresh: pins memoise spec payloads by their exact
# form in the canonical carrier, and tuple payloads where the other side
# threads state.
EXC_CARRIERS = {
    "wrelexc": lambda: G.wrelexc_monad(EL, ER),
    "exct-right over stt-left": lambda: G.exct_rel_transform(
        G.stt_rel_transform(G.lift_pure(), Z2, "left"), ER, "right"),
    "exct-left over stt-right": lambda: G.exct_rel_transform(
        G.stt_rel_transform(G.lift_pure(), Z2, "right"), EL, "left"),
}


def _form(x):
    """A payload's exact form: a spec's space and families, a table's entries'."""
    if isinstance(x, tuple):
        return tuple(map(_form, x))
    return x.space, x.fams


@pytest.mark.parametrize("name", sorted(EXC_CARRIERS))
def test_pins_kept_across_calls_match_a_fresh_carrier(name):
    # continuations come from a small pool, so one carrier meets the same
    # payload again, over Z2 and Z3 and under BOOL, a relabelled Z2 that the
    # payloads themselves do not name
    build = EXC_CARRIERS[name]
    monad = build()
    rng = random.Random(31)
    pool1 = {d: [gen1(monad, rng, d) for _ in range(2)] for d in (Z2, Z3)}
    pool2 = {d: [gen2(monad, rng, d) for _ in range(2)] for d in (Z2, Z3)}
    for _ in range(2):
        for a1d, a2d, b1d, b2d in product((Z2, Z3), repeat=4):
            m1, m2 = gen1(monad, rng, a1d), gen2(monad, rng, a2d)
            mrel = gen_rel(monad, rng, a1d, a2d)
            f1 = [rng.choice(pool1[b1d]) for _ in range(a1d.size)]
            f2 = [rng.choice(pool2[b2d]) for _ in range(a2d.size)]
            frel = [[gen_rel(monad, rng, b1d, b2d) for _ in range(a2d.size)]
                    for _ in range(a1d.size)]
            got = monad.bind_rel(f1, f2, frel, b1d, b2d)(m1, m2, mrel)
            assert _form(got) == _form(build().bind_rel(f1, f2, frel, b1d, b2d)(m1, m2, mrel))
            if name == "wrelexc":
                hand = reference.wrelexc_bind(mrel, f1, f2, frel, EL, ER, b1d, b2d)
                assert_equiv(hand, got)
    for d, told in ((Z2, Z2), (Z2, BOOL), (Z3, Z3)):
        for w1, w2 in zip(pool1[d], pool2[d]):
            assert _form(monad.tau1(w1, told)) == _form(build().tau1(w1, told))
            assert _form(monad.tau2(w2, told)) == _form(build().tau2(w2, told))


@pytest.mark.parametrize("name", sorted(EXC_CARRIERS))
def test_rethrow_rows_kept_per_continuation_table(name):
    # one pair of continuation tables meets many middle specs and relational
    # tables, so every bind after the first reads the rows of rethrows kept
    # for the first; each agrees with a fresh carrier's bind
    build = EXC_CARRIERS[name]
    monad = build()
    rng = random.Random(47)
    f1 = tuple(gen1(monad, rng, Z3) for _ in range(Z2.size))
    f2 = tuple(gen2(monad, rng, Z3) for _ in range(Z2.size))
    for _ in range(12):
        m1, m2, mrel = gen1(monad, rng, Z2), gen2(monad, rng, Z2), gen_rel(monad, rng, Z2, Z2)
        frel = [[gen_rel(monad, rng, Z3, Z3) for _ in range(Z2.size)] for _ in range(Z2.size)]
        got = monad.bind_rel(f1, f2, frel, Z3, Z3)(m1, m2, mrel)
        assert _form(got) == _form(build().bind_rel(f1, f2, frel, Z3, Z3)(m1, m2, mrel))
        if name == "wrelexc":
            assert_equiv(reference.wrelexc_bind(mrel, f1, f2, frel, EL, ER, Z3, Z3), got)


def test_exception_bind_routes_a_left_raise_through_the_right_continuation():
    # left already raised e0, right still runs: the raise is pinned while
    # the right continuation picks its result
    wm = sm.demonic_spec(PAIR, [{G.inr_index(Z2, EL, 0) * SUM2.size + 1}])
    f2 = [sm.demand_spec(sm.pure_space(UNIT, SUM2), [(1 << (1 - a),)]) for a in range(Z2.size)]
    got = reference.wrelexc_bind(wm, [sm.weakest(PT(SUM1))] * 2, f2,
                                 [[sm.weakest(PAIR)] * 2] * 2, EL, ER, Z2, Z2)
    want = sm.demonic_spec(PAIR, [{G.inr_index(Z2, EL, 0) * SUM2.size + 0}])
    assert_equiv(got, want)


def test_exception_bind_pins_double_raises():
    k = G.inr_index(Z2, EL, 1) * SUM2.size + G.inr_index(Z2, ER, 0)
    wm = sm.demonic_spec(PAIR, [{k}])
    got = reference.wrelexc_bind(wm, [sm.unsatisfiable(PT(SUM1))] * 2,
                                 [sm.unsatisfiable(sm.pure_space(UNIT, SUM2))] * 2,
                                 [[sm.unsatisfiable(PAIR)] * 2] * 2, EL, ER, Z2, Z2)
    assert_equiv(got, sm.demonic_spec(PAIR, [{k}]))


def test_exception_bind_checks_the_middle_domain():
    with pytest.raises(ValueError, match="outcome pairs"):
        reference.wrelexc_bind(sm.weakest(PT(SUM1)), [sm.weakest(PT(SUM1))] * 2,
                               [sm.weakest(sm.pure_space(UNIT, SUM2))] * 2,
                               [[sm.weakest(PAIR)] * 2] * 2, EL, ER, Z2, Z2)


# ---------------------------------------------------------------------------
# Simulation spec


def test_simulation_spec_excludes_exactly_the_left_only_raises():
    w = G.simulation_spec(Z2, EL, Z2, ER)
    ((demand,),) = w.fams
    for o1 in range(SUM1.size):
        for o2 in range(SUM2.size):
            excluded = o1 >= Z2.size and o2 < Z2.size
            assert bool(demand >> (o1 * SUM2.size + o2) & 1) == (not excluded)


def test_simulation_spec_is_closed_under_sequencing():
    simA = G.simulation_spec(Z2, EL, Z2, ER)
    simB = G.simulation_spec(Z3, EL, Z3, ER)
    rng = random.Random(22)
    f2 = [G.random_spec(rng, sm.pure_space(UNIT, sum_domain(Z3, ER))) for _ in range(Z2.size)]
    got = reference.wrelexc_bind(simA, [sm.weakest(PT(sum_domain(Z3, EL)))] * Z2.size, f2,
                                 [[simB] * Z2.size for _ in range(Z2.size)],
                                 EL, ER, Z3, Z3)
    assert_equiv(got, simB)


def test_simulation_spec_program_instances():
    sim = G.simulation_spec(Z2, EL, Z2, ER)
    both = TH.theta_rel(P.throw(XSIG, EL.value(1), Z2), P.throw(YSIG, ER.value(0), Z2))
    assert sm.spec_leq(both, sim).holds
    rets = TH.theta_rel(P.ret(XSIG, Z2.value(0)), P.ret(YSIG, Z2.value(1)))
    assert sm.spec_leq(rets, sim).holds
    leaky = TH.theta_rel(P.throw(XSIG, EL.value(0), Z2), P.ret(YSIG, Z2.value(0)))
    v = sm.spec_leq(leaky, sim)
    assert not v.holds
    # the separating postcondition is the simulation demand itself
    assert not leaky.at(v.phi) and sim.at(v.phi)


# ---------------------------------------------------------------------------
# The run-both observation


def test_observation_is_strict_for_unit_and_sequencing():
    rep = G.check_exc_strictness(EL, ER, Z2, depth=3)
    assert rep.ok, rep.failures[:5]
    assert [(v.law, v.kind, v.checked) for v in rep.laws] == [("ret", "equal", 8),
                                                               ("bind", "equal", 4224)]


def test_a_relational_part_that_ignores_raises_breaks_the_bind_law(monkeypatch):
    real = G.theta_exc_triple

    def ignoring(e1, e2):
        th = real(e1, e2)

        def returned(c):
            # an uncaught raise read as a normal return of the first value
            return c if P.run_exc(c)[0] == P.OK else P.ret(c.sig, c.result.value(0))

        return dataclasses.replace(
            th, theta_rel=lambda c1, c2: th.theta_rel(returned(c1), returned(c2)))

    monkeypatch.setattr(G, "theta_exc_triple", ignoring)
    rep = G.check_exc_strictness(EL, ER, Z2, depth=2)
    assert [v.law for v in rep.laws] == ["ret", "bind"]
    assert rep.ret_law.equal and rep.ret_law.checked == 8
    bind = rep.bind_law
    assert bind.kind == "violation" and bind.checked == 645
    assert not rep.ok and rep.failures == (bind.witness,)
    part, m1, m2, f1, f2 = bind.witness.instance
    assert part == "relational" and bind.witness.law == "bind"
    assert (bind.witness.phi, bind.witness.point, bind.witness.where) == (
        frozenset({1}), 0, ("point", 0))
    assert O.recheck_witness(bind.witness)
    # the two triples differ only where a program raises
    assert P.ERR in (P.run_exc(P.bind(m1, f1))[0], P.run_exc(P.bind(m2, f2))[0])


@pytest.mark.parametrize("kw,name", [(dict(depth=1), "depth"), (dict(depth=0), "depth"),
                                     (dict(table_limit=0), "table_limit")])
def test_vacuous_strictness_batteries_are_refused(kw, name):
    # each returned ok with only the 8 ret instances checked
    with pytest.raises(ValueError, match=name):
        G.check_exc_strictness(EL, ER, Z2, **kw)


def test_every_law_battery_returns_one_report():
    ssig = P.state_sig(Z2)
    states = [P.ret(ssig, Z2.value(0)), P.get_state(ssig)]
    reports = [
        (O.check_morphism_laws(O.observation_st(),
                               O.battery_state(Z2, Z2, depth=2, table_limit=2, m_limit=3)),
         ("ret", "bind")),
        (O.check_commute(O.unary_theta_st(1, Z2, Z2), O.unary_theta_st(2, Z2, Z2),
                         list(product(states, repeat=2))),
         ("commute",)),
        (G.check_triple_laws(LP, random.Random(19), (Z2,), (Z2,), samples=1),
         ("unit-left", "unit-right", "assoc", "tau-unit", "tau-bind")),
        (G.check_exc_strictness(EL, ER, Z2, depth=2, table_limit=2), ("ret", "bind")),
    ]
    for rep, laws in reports:
        assert type(rep) is O.LawReport
        assert tuple(v.law for v in rep.laws) == laws
        assert rep.ok and rep.consistent and rep.claimed == O.STRICT
        assert rep.checked == sum(v.checked for v in rep.laws) > 0


def test_strictness_builds_each_unit_once(monkeypatch):
    # units come from per-carrier tables, and the observation builds one
    # spec per pair of result domains and joint outcome (852,752 unit
    # builds before either, 5,538 with one observed spec per program)
    calls = []
    for name in ("spec_ret", "demand_spec"):
        real = getattr(sm, name)
        monkeypatch.setattr(sm, name, lambda *a, _real=real: calls.append(a) or _real(*a))
    rep = G.check_exc_strictness(EL, ER, Z2, depth=2)
    assert rep.ok and rep.checked == 4232
    assert len(calls) <= 66


def test_strictness_runs_each_program_once(monkeypatch):
    # the tagged outcome is kept on the program: enumeration runs each
    # candidate and the observation reads it (every bound program was run
    # 64 times before)
    seen = []
    real = P.run_exc
    monkeypatch.setattr(P, "run_exc", lambda p: seen.append(p) or real(p))
    rep = G.check_exc_strictness(EL, ER, Z2, depth=3)
    assert rep.ok and rep.checked == 4232
    # `seen` keeps every program run alive, so equal ids mean one program
    assert seen and len({id(p) for p in seen}) == len(seen)


def test_equal_joint_outcomes_share_one_spec():
    th = G.theta_exc_triple(EL, ER)
    raised = P.throw(XSIG, EL.value(1), Z2)
    rethrown = P.catch(P.throw(XSIG, EL.value(0), Z2), lambda e: P.throw(XSIG, EL.value(1), Z2))
    right = P.ret(YSIG, Z2.value(0))
    assert raised is not rethrown
    w = th.theta_rel(raised, right)
    assert th.theta_rel(rethrown, P.ret(YSIG, Z2.value(0))) is w
    assert th.theta1(rethrown) is th.theta1(raised)
    assert th.theta_rel(raised, P.ret(YSIG, Z2.value(1))) is not w
    assert_equiv(w, sm.demand_spec(PAIR, [(1 << (G.inr_index(Z2, EL, 1) * SUM2.size),)]))


def test_theta_exc_refuses_programs_over_other_signatures():
    th = G.theta_exc_triple(EL, ER)
    ez = domain("EZ", 3)
    left, right = P.ret(XSIG, Z2.value(0)), P.ret(YSIG, Z2.value(0))
    state = P.ret(P.state_sig(Z2), Z2.value(0))
    other = P.throw(P.exc_sig(ez), ez.value(2), Z2)
    for bad, shown in ((state, "'state'/None"), (other, "'exc'/'EZ'")):
        for call, wanted in ((lambda: th.theta1(bad), "EL"), (lambda: th.theta2(bad), "ER"),
                             (lambda: th.theta_rel(bad, right), "EL"),
                             (lambda: th.theta_rel(left, bad), "ER")):
            with pytest.raises(ValueError) as err:
                call()
            assert str(err.value) == (f"program is {shown}, observation wants exceptions "
                                      f"over '{wanted}'")
    # each side wants its own domain: the right signature is refused on the left
    with pytest.raises(ValueError, match="program is 'exc'/'ER', observation wants "
                                         "exceptions over 'EL'"):
        th.theta_rel(right, right)


def _counting(m, calls):
    """m with its relational tables prepared (`bind_rel`) and its binds
    through them counted in `calls`."""
    def bind_rel(*tables):
        calls["prepare"] += 1
        bind = m.bind_rel(*tables)

        def counted(*mids):
            calls["bind"] += 1
            return bind(*mids)
        return counted
    return dataclasses.replace(m, bind_rel=bind_rel)


def test_strictness_pins_each_payload_once(monkeypatch):
    # pins are kept per (payload, fixed result, domain), so the pure carrier
    # under both exception layers binds 4,112 times (86,016 with every pin
    # rebuilt); the outer carrier prepares one relational binder per pair
    # of its 16 x 16 tables and binds each of the 4,096 relational
    # instances through one, and the pure carrier prepares four unit tables
    # besides
    real_pure, real_exc = G.lift_pure, G.wrelexc_monad
    for depth in (2, 3):
        pure, outer = {"prepare": 0, "bind": 0}, {"prepare": 0, "bind": 0}
        monkeypatch.setattr(G, "lift_pure", lambda: _counting(real_pure(), pure))
        monkeypatch.setattr(G, "wrelexc_monad",
                            lambda e1, e2: _counting(real_exc(e1, e2), outer))
        rep = G.check_exc_strictness(EL, ER, Z2, depth, 16)
        assert rep.ok and rep.checked == 4232
        assert pure["bind"] <= 4112 and pure["prepare"] <= 260
        assert outer == {"prepare": 256, "bind": 4096}


def test_equal_payloads_built_apart_share_one_pin(monkeypatch):
    # pins are keyed by a payload's exact form: a second spec equal to the
    # first but built apart finds the first one's pins
    calls = {"prepare": 0, "bind": 0}
    real = G.lift_pure
    monkeypatch.setattr(G, "lift_pure", lambda: _counting(real(), calls))
    monad = G.wrelexc_monad(EL, ER)
    # the second of each pair is made outside the pool, with the first's body
    left = [sm.demand_spec(PT(SUM1), [[0b0011, 0b0100]])]
    right = [sm.demand_spec(sm.pure_space(UNIT, SUM2), [[0b1001]])]
    for ws in (left, right):
        ws.append(sm.RelSpec(ws[0].tag, ws[0].space, fams=ws[0].fams))
    assert left[0] is not left[1] and right[0] is not right[1]
    frel = ((sm.weakest(PAIR),) * Z2.size,) * Z2.size
    seen = []
    for w1, w2 in zip(left, right):
        monad.tau1(w1, Z2)
        monad.tau2(w2, Z2)
        monad.bind_rel((w1,) * Z2.size, (w2,) * Z2.size, frel, Z2, Z2)(
            MONAD.ret1(Z2.value(0)), MONAD.ret2(Z2.value(0)), sm.weakest(PAIR))
        seen.append(calls["bind"])
    # the second round binds once, for the bind itself, and pins nothing
    assert seen[0] > 1 and seen[1] == seen[0] + 1, seen


def test_the_run_both_observation_collapses_to_theta_err():
    # theta_exc_triple and observations.theta_err build their specs apart
    # from the same runs: sending each tagged pair to its value pair when
    # both sides returned, and to the one raised outcome otherwise, turns
    # the first into the second
    rng = random.Random(2026)
    kinds = set()
    for _ in range(200):
        a1, a2 = rng.choice((Z2, Z3)), rng.choice((Z2, Z3))
        c1 = random_program(rng, XSIG, a1, rng.randint(1, 4))
        c2 = random_program(rng, YSIG, a2, rng.randint(1, 4))
        w = TH.theta_rel(c1, c2)
        err = sm.err_space(a1, a2)

        def collapse(o):
            (ok1, i1), (ok2, i2) = (case_index(a1, EL, o // w.space.a2.size),
                                    case_index(a2, ER, o % w.space.a2.size))
            return err.err_ok(i1, i2) if ok1 and ok2 else err.err_bad()

        got = frozenset(sum(1 << collapse(o) for o in w.space.outcomes() if d >> o & 1)
                        for d in w.fams[0])
        want = O.theta_err(c1, c2)
        assert got == want.fams[0], (c1, c2)
        kinds.add(want.fams[0] == frozenset({1 << err.err_bad()}))
    assert kinds == {True, False}


def test_observation_rejects_foreign_signatures():
    with pytest.raises(ValueError, match="exceptions over"):
        TH.theta1(P.ret(P.exc_sig(Z3), Z2.value(0)))
    with pytest.raises(ValueError, match="exceptions over"):
        TH.theta1(P.get_state(P.state_sig(Z2)))


def test_observation_demands_exactly_the_joint_outcome():
    c1 = P.catch(P.throw(XSIG, EL.value(1), Z2), lambda e: P.ret(XSIG, Z2.value(e.index)))
    c2 = P.throw(YSIG, ER.value(0), Z2)
    w = TH.theta_rel(c1, c2)
    k = G.inl_index(Z2, EL, 1) * SUM2.size + G.inr_index(Z2, ER, 0)
    assert w.fams == (frozenset({1 << k}),)


# ---------------------------------------------------------------------------
# Judgments and the three-clause oracle


def _ret_judgment(a1, a2):
    return G.apply_full_rule("Ret", monad=MONAD, theta=TH, sig1=XSIG, sig2=YSIG,
                             a1=Z2.value(a1), a2=Z2.value(a2))


def test_judgments_probe_their_families():
    with pytest.raises(ValueError, match="Program families"):
        G.full_judgment(MONAD, TH, lambda g: 42, lambda g: P.ret(YSIG, Z2.value(0)),
                        sm.weakest(PAIR), sm.weakest(PAIR), sm.weakest(PAIR))


def test_oracle_reports_the_failing_clause_and_valuation():
    ctx = G.SplitContext(right=R.Env((("y", Z2),)))
    j = G.full_judgment(
        MONAD, TH,
        lambda g1: P.ret(XSIG, Z2.value(0)),
        lambda g2: P.ret(YSIG, g2[0]),
        lambda g1: TH.theta1(P.ret(XSIG, Z2.value(0))),
        lambda g2: TH.theta2(P.ret(YSIG, Z2.value(0))),  # wrong at y=1
        lambda g1, g2: sm.unsatisfiable(PAIR),
        ctx,
    )
    v = R.oracle_check(j)
    assert not v.holds
    assert v.clause == "right"
    assert v.valuation == ((Z2.value(1),),)
    assert v.inner is not None and not v.inner.holds


def test_oracle_passes_exact_specs():
    j = _ret_judgment(0, 1)
    v = R.oracle_check(j)
    assert v.holds and v.checked == 3
    assert_triple_theta_equal(j)


def test_parts_and_observed_agree_on_axioms():
    j = _ret_judgment(1, 1)
    c1, c2 = j.c1(), j.c2()
    assert_equiv(j.w1(), j.theta.theta1(c1))
    assert_equiv(j.w2(), j.theta.theta2(c2))
    assert_equiv(j.wrel(), j.theta.theta_rel(c1, c2))


# ---------------------------------------------------------------------------
# Rules: axioms


def test_ret_rule_is_the_observation():
    for a1, a2 in product(range(2), range(2)):
        j = _ret_judgment(a1, a2)
        assert R.oracle_check(j).holds
        assert_triple_theta_equal(j)


def test_ret_rule_checks_signatures_against_the_carrier():
    with pytest.raises(R.RuleError, match="carrier's exceptions"):
        G.apply_full_rule("Ret", monad=MONAD, theta=TH, sig1=P.exc_sig(Z3), sig2=YSIG,
                          a1=Z2.value(0), a2=Z2.value(0))


def test_throw_left_rule_is_the_observation():
    for e, a2 in product(range(EL.size), range(Z2.size)):
        j = G.apply_full_rule("ThrowL", monad=MONAD, theta=TH, sig1=XSIG, sig2=YSIG,
                              exc=EL.value(e), a2=Z2.value(a2), result1=Z2)
        assert R.oracle_check(j).holds
        assert_triple_theta_equal(j)


def test_throw_right_rule_is_the_observation():
    for e, a1 in product(range(ER.size), range(Z2.size)):
        j = G.apply_full_rule("ThrowR", monad=MONAD, theta=TH, sig1=XSIG, sig2=YSIG,
                              exc=ER.value(e), a1=Z2.value(a1), result2=Z2)
        assert R.oracle_check(j).holds
        assert_triple_theta_equal(j)


def test_throw_rules_run_under_a_context():
    ctx = G.SplitContext(R.Env((("x", EL),)), R.Env((("y", Z2),)))
    j = G.apply_full_rule("ThrowL", monad=MONAD, theta=TH, sig1=XSIG, sig2=YSIG,
                          exc=lambda g1: g1[0], a2=lambda g2: g2[0],
                          result1=Z2, ctx=ctx)
    assert R.oracle_check(j).holds
    assert_triple_theta_equal(j)


@pytest.mark.parametrize("rule, side", [("ThrowL", dict(a2=Z2.value(0), result1=Z2)),
                                        ("ThrowR", dict(a1=Z2.value(0), result2=Z2))])
def test_throw_rules_reject_an_exception_of_another_domain(rule, side):
    # ER has as many values as EL; only the domain tells them apart
    wrong = ER if rule == "ThrowL" else EL
    with pytest.raises(R.RuleError, match="exception value lives in"):
        G.apply_full_rule(rule, monad=MONAD, theta=TH, sig1=XSIG, sig2=YSIG,
                          exc=wrong.value(0), **side)


def test_throw_rules_need_the_canonical_carrier():
    with pytest.raises(R.RuleError, match="canonical exception carrier"):
        G.apply_full_rule("ThrowL", monad=G.lift_pure(), theta=TH, sig1=XSIG,
                          sig2=YSIG, exc=EL.value(0), a2=Z2.value(0), result1=Z2)


# ---------------------------------------------------------------------------
# Rules: weakening


def test_weaken_raises_all_three_components():
    j = _ret_judgment(0, 0)
    jw = G.apply_full_rule("Weaken", (j,),
                           w1=sm.unsatisfiable(PT(SUM1)),
                           w2=sm.unsatisfiable(sm.pure_space(UNIT, SUM2)),
                           wrel=sm.unsatisfiable(PAIR))
    v = R.oracle_check(jw)
    assert v.holds


def test_weaken_to_the_simulation_spec():
    j = _ret_judgment(0, 1)
    jw = G.apply_full_rule("Weaken", (j,), wrel=G.simulation_spec(Z2, EL, Z2, ER))
    assert R.oracle_check(jw).holds


def test_weaken_rejects_a_non_simulable_premise():
    jl = G.apply_full_rule("ThrowL", monad=MONAD, theta=TH, sig1=XSIG, sig2=YSIG,
                           exc=EL.value(0), a2=Z2.value(0), result1=Z2)
    with pytest.raises(R.RuleError, match="not above"):
        G.apply_full_rule("Weaken", (jl,), wrel=G.simulation_spec(Z2, EL, Z2, ER))


def test_weaken_rejects_lowering_a_unary_component():
    j = _ret_judgment(0, 0)
    with pytest.raises(R.RuleError, match="left target"):
        G.apply_full_rule("Weaken", (j,), w1=sm.weakest(PT(SUM1)))


# ---------------------------------------------------------------------------
# Rules: sequencing


def _cont_judgment():
    """x1 ~ x2 with exact specs, one variable per side."""
    ctx = G.SplitContext(R.Env((("x1", Z2),)), R.Env((("x2", Z2),)))
    return G.full_judgment(
        MONAD, TH,
        lambda g1: P.ret(XSIG, g1[0]),
        lambda g2: P.ret(YSIG, g2[0]),
        lambda g1: MONAD.ret1(g1[0]),
        lambda g2: MONAD.ret2(g2[0]),
        lambda g1, g2: MONAD.ret_rel(g1[0], g2[0]),
        ctx,
    )


def test_bind_rule_after_a_left_throw():
    jm = G.apply_full_rule("ThrowL", monad=MONAD, theta=TH, sig1=XSIG, sig2=YSIG,
                           exc=EL.value(1), a2=Z2.value(0), result1=Z2)
    jb = G.apply_full_rule("Bind", (jm, _cont_judgment()))
    assert R.oracle_check(jb).holds
    assert_triple_theta_equal(jb)
    # the raise skips the left continuation: outcome stays (raise 1, return 0)
    k = G.inr_index(Z2, EL, 1) * SUM2.size + G.inl_index(Z2, ER, 0)
    assert jb.wrel((), ()).fams == (frozenset({1 << k}),)


def test_bind_rule_composes_rets():
    jm = _ret_judgment(1, 0)
    jb = G.apply_full_rule("Bind", (jm, _cont_judgment()))
    assert R.oracle_check(jb).holds
    assert_triple_theta_equal(jb)
    k = G.inl_index(Z2, EL, 1) * SUM2.size + G.inl_index(Z2, ER, 0)
    assert jb.wrel((), ()).fams == (frozenset({1 << k}),)


def test_bind_requires_one_fresh_variable_per_side():
    jm = _ret_judgment(0, 0)
    bad_ctx = G.SplitContext(R.Env((("x1", Z2), ("x1b", Z2))), R.Env((("x2", Z2),)))
    jf = G.full_judgment(
        MONAD, TH,
        lambda g1: P.ret(XSIG, g1[0]), lambda g2: P.ret(YSIG, g2[0]),
        lambda g1: MONAD.ret1(g1[0]), lambda g2: MONAD.ret2(g2[0]),
        lambda g1, g2: MONAD.ret_rel(g1[0], g2[0]),
        bad_ctx,
    )
    with pytest.raises(R.RuleError, match="left premise context"):
        G.apply_full_rule("Bind", (jm, jf))


def test_bind_requires_matching_bound_domains():
    jm = G.apply_full_rule("Ret", monad=MONAD, theta=TH, sig1=XSIG, sig2=YSIG,
                           a1=Z3.value(0), a2=Z2.value(0))
    with pytest.raises(R.RuleError, match="left results"):
        G.apply_full_rule("Bind", (jm, _cont_judgment()))


def test_bind_rejects_premises_over_different_carriers():
    other = G.wrelexc_monad(EL, EL)
    jm = G.apply_full_rule("Ret", monad=other, theta=G.theta_exc_triple(EL, EL),
                           sig1=XSIG, sig2=P.exc_sig(EL),
                           a1=Z2.value(0), a2=Z2.value(0))
    with pytest.raises(R.RuleError, match="different spec carriers"):
        G.apply_full_rule("Bind", (jm, _cont_judgment()))


def test_left_spec_cannot_serve_two_right_continuations():
    # With a joined context the left premise spec could mention the right
    # variable; the split context makes that unwritable.  Writing the two
    # candidate left specs by hand shows no single choice covers both
    # right-hand continuations, so the split is necessary, not cosmetic.
    borrow0 = TH.theta1(P.ret(XSIG, Z2.value(0)))
    borrow1 = TH.theta1(P.throw(XSIG, EL.value(0), Z2))
    assert not (sm.spec_leq(borrow0, borrow1).holds and sm.spec_leq(borrow1, borrow0).holds)
    table0 = [borrow0, borrow0]
    table1 = [borrow1, borrow1]
    m = TH.theta1(P.ret(XSIG, Z2.value(0)))
    w_using0 = MONAD.bind1(m, table0, Z2)
    w_using1 = MONAD.bind1(m, table1, Z2)
    assert not (sm.spec_leq(w_using0, w_using1).holds and sm.spec_leq(w_using1, w_using0).holds)


# ---------------------------------------------------------------------------
# Rules: catch


def _handler_judgment():
    ctx = G.SplitContext(R.Env((("e1", EL),)), R.Env((("e2", ER),)))
    return G.full_judgment(
        MONAD, TH,
        lambda g1: P.ret(XSIG, Z2.value(g1[0].index)),
        lambda g2: P.ret(YSIG, Z2.value(1 - g2[0].index)),
        lambda g1: MONAD.ret1(Z2.value(g1[0].index)),
        lambda g2: MONAD.ret2(Z2.value(1 - g2[0].index)),
        lambda g1, g2: MONAD.ret_rel(Z2.value(g1[0].index), Z2.value(1 - g2[0].index)),
        ctx,
    )


def test_catch_rule_substitutes_handlers_for_raises():
    body = G.apply_full_rule("ThrowL", monad=MONAD, theta=TH, sig1=XSIG, sig2=YSIG,
                             exc=EL.value(1), a2=Z2.value(0), result1=Z2)
    jc = G.apply_full_rule("Catch", (body, _handler_judgment()))
    assert R.oracle_check(jc).holds
    assert_triple_theta_equal(jc)
    # handler turned (raise 1, return 0) into (return 1, return 0)
    tag, val = P.run_exc(jc.c1(()))
    assert tag == P.OK and val.index == 1
    k = G.inl_index(Z2, EL, 1) * SUM2.size + G.inl_index(Z2, ER, 0)
    assert jc.wrel((), ()).fams == (frozenset({1 << k}),)


def test_catch_rule_passes_normal_results_through():
    body = _ret_judgment(0, 1)
    jc = G.apply_full_rule("Catch", (body, _handler_judgment()))
    assert R.oracle_check(jc).holds
    assert_triple_theta_equal(jc)


def test_catch_with_a_double_raise_pairs_both_handlers():
    ctx = G.EMPTY_SPLIT
    body = G.full_judgment(
        MONAD, TH,
        P.throw(XSIG, EL.value(0), Z2), P.throw(YSIG, ER.value(1), Z2),
        TH.theta1(P.throw(XSIG, EL.value(0), Z2)),
        TH.theta2(P.throw(YSIG, ER.value(1), Z2)),
        TH.theta_rel(P.throw(XSIG, EL.value(0), Z2), P.throw(YSIG, ER.value(1), Z2)),
        ctx,
    )
    jc = G.apply_full_rule("Catch", (body, _handler_judgment()))
    assert R.oracle_check(jc).holds
    assert_triple_theta_equal(jc)
    k = G.inl_index(Z2, EL, 0) * SUM2.size + G.inl_index(Z2, ER, 0)
    assert jc.wrel((), ()).fams == (frozenset({1 << k}),)


def test_catch_requires_exception_bound_handlers():
    body = _ret_judgment(0, 0)
    bad_ctx = G.SplitContext(R.Env((("e1", Z3),)), R.Env((("e2", ER),)))
    jerr = G.full_judgment(
        MONAD, TH,
        lambda g1: P.ret(XSIG, Z2.value(0)), lambda g2: P.ret(YSIG, Z2.value(0)),
        lambda g1: MONAD.ret1(Z2.value(0)), lambda g2: MONAD.ret2(Z2.value(0)),
        lambda g1, g2: MONAD.ret_rel(Z2.value(0), Z2.value(0)),
        bad_ctx,
    )
    with pytest.raises(R.RuleError, match="one exception per side"):
        G.apply_full_rule("Catch", (body, jerr))


def test_catch_requires_stable_handler_results():
    body = _ret_judgment(0, 0)
    ctx = G.SplitContext(R.Env((("e1", EL),)), R.Env((("e2", ER),)))
    jerr = G.full_judgment(
        MONAD, TH,
        lambda g1: P.ret(XSIG, Z3.value(0)), lambda g2: P.ret(YSIG, Z2.value(0)),
        lambda g1: MONAD.ret1(Z3.value(0)), lambda g2: MONAD.ret2(Z2.value(0)),
        lambda g1, g2: MONAD.ret_rel(Z3.value(0), Z2.value(0)),
        ctx,
    )
    with pytest.raises(R.RuleError, match="left handler result"):
        G.apply_full_rule("Catch", (body, jerr))


# ---------------------------------------------------------------------------
# Rules: case


def _branch_judgment(dom1, dom2, mk):
    ctx = G.SplitContext(R.Env((("u1", dom1),)), R.Env((("u2", dom2),)))
    c1f, c2f = mk
    return G.full_judgment(
        MONAD, TH,
        c1f, c2f,
        lambda g1: TH.theta1(c1f(g1)),
        lambda g2: TH.theta2(c2f(g2)),
        lambda g1, g2: TH.theta_rel(c1f(g1), c2f(g2)),
        ctx,
    )


def test_case_rule_dispatches_on_matching_tags():
    jl = _branch_judgment(Z2, Z2, (lambda g1: P.ret(XSIG, g1[0]),
                                   lambda g2: P.ret(YSIG, g2[0])))
    jr = _branch_judgment(Z3, Z3, (lambda g1: P.throw(XSIG, EL.value(0), Z2),
                                   lambda g2: P.throw(YSIG, ER.value(0), Z2)))
    jc = G.apply_full_rule("Case", (jl, jr), x1="s1", x2="s2")
    v = R.oracle_check(jc)
    assert v.holds
    scr1 = sum_domain(Z2, Z3)
    assert jc.ctx.left.vars == (("s1", scr1),)
    # left-tag points reproduce the left branch
    g1 = (Value(scr1, G.inl_index(Z2, Z3, 1)),)
    g2 = (Value(scr1, G.inl_index(Z2, Z3, 0)),)
    assert_equiv(jc.wrel(g1, g2), jl.wrel((Z2.value(1),), (Z2.value(0),)))


def test_case_rule_claims_nothing_across_tags():
    jl = _branch_judgment(Z2, Z2, (lambda g1: P.ret(XSIG, g1[0]),
                                   lambda g2: P.ret(YSIG, g2[0])))
    jr = _branch_judgment(Z3, Z3, (lambda g1: P.throw(XSIG, EL.value(0), Z2),
                                   lambda g2: P.throw(YSIG, ER.value(0), Z2)))
    jc = G.apply_full_rule("Case", (jl, jr), x1="s1", x2="s2")
    scr = sum_domain(Z2, Z3)
    g1 = (Value(scr, G.inl_index(Z2, Z3, 0)),)
    g2 = (Value(scr, G.inr_index(Z2, Z3, 2)),)
    assert_equiv(jc.wrel(g1, g2), MONAD.unsat_rel(Z2, Z2))
    # vacuous points cannot fail the oracle
    assert R.oracle_check(jc).holds


def test_case_over_a_unit_sum_is_branch_relabeling():
    # 1 + 1 is the booleans: the case conclusion at each tag is literally
    # the corresponding branch judgment
    jl = _branch_judgment(UNIT, UNIT, (lambda g1: P.ret(XSIG, Z2.value(0)),
                                       lambda g2: P.ret(YSIG, Z2.value(0))))
    jr = _branch_judgment(UNIT, UNIT, (lambda g1: P.throw(XSIG, EL.value(1), Z2),
                                       lambda g2: P.throw(YSIG, ER.value(1), Z2)))
    jc = G.apply_full_rule("Case", (jl, jr), x1="b1", x2="b2")
    assert R.oracle_check(jc).holds
    two = sum_domain(UNIT, UNIT)
    for tag in range(2):
        g = (Value(two, tag),)
        src = jl if tag == 0 else jr
        assert_equiv(jc.wrel(g, g), src.wrel((UNIT_VAL,), (UNIT_VAL,)))


def test_case_rejects_mismatched_branch_results():
    jl = _branch_judgment(Z2, Z2, (lambda g1: P.ret(XSIG, g1[0]),
                                   lambda g2: P.ret(YSIG, g2[0])))
    jr = _branch_judgment(Z2, Z2, (lambda g1: P.ret(XSIG, Z3.value(0)),
                                   lambda g2: P.ret(YSIG, g2[0])))
    with pytest.raises(R.RuleError, match="branch result domains"):
        G.apply_full_rule("Case", (jl, jr), x1="s1", x2="s2")


def test_case_rejects_shadowed_scrutinee_names():
    base1 = R.Env((("v", Z2),))
    ctxl = G.SplitContext(base1.extend(("u1", Z2)), R.Env((("u2", Z2),)))
    jl = G.full_judgment(
        MONAD, TH,
        lambda g1: P.ret(XSIG, g1[1]), lambda g2: P.ret(YSIG, g2[0]),
        lambda g1: MONAD.ret1(g1[1]), lambda g2: MONAD.ret2(g2[0]),
        lambda g1, g2: MONAD.ret_rel(g1[1], g2[0]),
        ctxl,
    )
    with pytest.raises(R.RuleError, match="already bound"):
        G.apply_full_rule("Case", (jl, jl), x1="v", x2="s2")


# ---------------------------------------------------------------------------
# Derivations replay through the shared engine


def _ret_derivation(ctx, a1, a2):
    return G.SPLIT.derive("Ret", monad=MONAD, theta=TH, sig1=XSIG, sig2=YSIG,
                          a1=a1, a2=a2, ctx=ctx)


def _throw_left_derivation():
    return G.SPLIT.derive("ThrowL", monad=MONAD, theta=TH, sig1=XSIG, sig2=YSIG,
                          exc=EL.value(1), a2=Z2.value(0), result1=Z2)


def _bind_derivation():
    ctx = G.SplitContext(R.Env((("x1", Z2),)), R.Env((("x2", Z2),)))
    cont = _ret_derivation(ctx, lambda g1: g1[0], lambda g2: g2[0])
    return G.SPLIT.derive("Bind", (_throw_left_derivation(), cont))


def _catch_derivation():
    ctx = G.SplitContext(R.Env((("e1", EL),)), R.Env((("e2", ER),)))
    handler = _ret_derivation(ctx, lambda g1: Z2.value(g1[0].index),
                              lambda g2: Z2.value(1 - g2[0].index))
    return G.SPLIT.derive("Catch", (_throw_left_derivation(), handler))


@pytest.mark.parametrize("build", [_bind_derivation, _catch_derivation], ids=["bind", "catch"])
def test_split_context_derivations_replay_and_hold(build):
    d = build()
    assert R.check_derivation(d).ok
    v = R.oracle_check(d.conclusion)
    assert v.holds and v.checked == 3
    assert_triple_theta_equal(d.conclusion)


def test_a_tampered_split_context_node_is_reported_at_its_path():
    d = _catch_derivation()
    body, handler = d.premises
    # the handler's stated relational spec claims nothing, which Ret does not say
    top = sm.weakest(PAIR)
    wrong = dataclasses.replace(handler.conclusion,
                                wrel_table=R.Table(top for _ in handler.conclusion.wrel_table))
    tampered = dataclasses.replace(d, premises=(body, dataclasses.replace(handler, conclusion=wrong)))
    res = R.check_derivation(tampered)
    assert (res.ok, res.path) == (False, (1,))
    assert res.message == "Ret: relational spec differs at e1=0 and e2=0"
    # a table of another carrier cannot be compared: it differs the same way
    other = sm.weakest(sm.state_space(UNIT, Z2, UNIT, Z2))
    for field, clause in (("wrel_table", "relational"), ("w1_table", "left")):
        j = handler.conclusion
        wrong = dataclasses.replace(j, **{field: R.Table(other for _ in getattr(j, field))})
        res = R.check_derivation(dataclasses.replace(
            d, premises=(body, dataclasses.replace(handler, conclusion=wrong))))
        assert (res.ok, res.path) == (False, (1,))
        assert res.message.startswith(f"Ret: {clause} spec differs at ")


# ---------------------------------------------------------------------------
# Registry plumbing


def _registry_case(kind):
    """A catalogue's entry point, one of its zero-premise rules with every
    parameter it needs and the last one it reads, and a two-premise rule."""
    if kind == "core":
        sig = P.state_sig(Z2)
        return ((lambda name, prem=(), **kw: R.apply_rule(R.rule(name, **kw), prem)), "Ret",
                dict(observation=O.observation_st(), sig1=sig, sig2=sig,
                     a1=Z2.value(0), a2=Z2.value(0)), "a2", "Bind")
    if kind == "split":
        return (G.apply_full_rule, "Ret", dict(monad=MONAD, theta=TH, sig1=XSIG, sig2=YSIG,
                                               a1=Z2.value(0), a2=Z2.value(0)), "a2", "Bind")
    sig = W.store_signature(("l",), Z2)
    return W.apply_rhl_rule, "Skip", dict(sig=sig, pre=(True,) * 4), "pre", "Seq"


@pytest.mark.parametrize("kind", ["core", "split", "rhl"])
def test_rule_registry_rejects_unknown_names_arity_and_params(kind):
    apply, axiom, params, last, binary = _registry_case(kind)
    one = apply(axiom, **params)
    with pytest.raises(R.RuleError, match="^unknown rule 'Frobnicate'$"):
        apply("Frobnicate")
    with pytest.raises(R.RuleError, match=f"^{binary} takes 2 premises, got 1$"):
        apply(binary, (one,))
    with pytest.raises(R.RuleError, match=f"^{axiom}: missing parameter '{last}'$"):
        apply(axiom, **{k: v for k, v in params.items() if k != last})
    with pytest.raises(R.RuleError, match=f"^{axiom} does not take a parameter 'horizon'$"):
        apply(axiom, horizon=3, **params)


def test_rule_names_are_stable():
    assert G.full_rule_names() == ("Bind", "Case", "Catch", "Ret", "ThrowL",
                                   "ThrowR", "Weaken")


# ---------------------------------------------------------------------------
# Seeded derivation sweep


def _const_family(rng, env, dom):
    return R.Table(dom.value(rng.randrange(dom.size)) for _ in env.valuations())


def _relax_spec(rng, w):
    kept = [d for d in sorted(w.fams[0]) if rng.random() < 0.8]
    grown = [d | 1 << rng.randrange(w.space.size) if rng.random() < 0.5 else d for d in kept]
    return sm.demand_spec(w.space, [grown])


def _random_full_derivation(rng, ctx, depth):
    """A seeded split-context derivation over the exception carrier whose
    parameters are Tables: leaves return or raise, inner nodes bind, catch
    or weaken."""
    derive = G.SPLIT.derive
    if depth == 0:
        kind = rng.choice(("ret", "ret", "throwl", "throwr"))
        if kind == "ret":
            return derive(
                "Ret", monad=MONAD, theta=TH, sig1=XSIG, sig2=YSIG,
                a1=_const_family(rng, ctx.left, Z2),
                a2=_const_family(rng, ctx.right, Z2), ctx=ctx)
        if kind == "throwl":
            return derive(
                "ThrowL", monad=MONAD, theta=TH, sig1=XSIG, sig2=YSIG,
                exc=_const_family(rng, ctx.left, EL),
                a2=_const_family(rng, ctx.right, Z2), result1=Z2, ctx=ctx)
        return derive(
            "ThrowR", monad=MONAD, theta=TH, sig1=XSIG, sig2=YSIG,
            exc=_const_family(rng, ctx.right, ER),
            a1=_const_family(rng, ctx.left, Z2), result2=Z2, ctx=ctx)
    kind = rng.choice(("bind", "catch", "weaken"))
    if kind == "bind":
        jm = _random_full_derivation(rng, ctx, depth - 1)
        n = sum(len(e.vars) for e in (ctx.left, ctx.right))
        ext = G.SplitContext(ctx.left.extend((f"x{n}", Z2)),
                             ctx.right.extend((f"y{n}", Z2)))
        jf = _random_full_derivation(rng, ext, depth - 1)
        return derive("Bind", (jm, jf))
    if kind == "catch":
        body = _random_full_derivation(rng, ctx, depth - 1)
        n = sum(len(e.vars) for e in (ctx.left, ctx.right))
        ext = G.SplitContext(ctx.left.extend((f"e{n}", EL)),
                             ctx.right.extend((f"f{n}", ER)))
        jerr = _random_full_derivation(rng, ext, depth - 1)
        return derive("Catch", (body, jerr))
    d = _random_full_derivation(rng, ctx, depth - 1)
    j = d.conclusion
    return derive("Weaken", (d,),
                  w1=R.Table(_relax_spec(rng, w) for w in j.w1_table),
                  w2=R.Table(_relax_spec(rng, w) for w in j.w2_table),
                  wrel=R.Table(_relax_spec(rng, w) for w in j.wrel_table))


@settings(deadline=None, max_examples=60)
@given(seed=st.integers(0, 10 ** 9))
def test_random_derivations_are_sound(seed):
    rng = random.Random(seed)
    j = _random_full_derivation(rng, G.EMPTY_SPLIT, rng.choice((1, 2, 2))).conclusion
    v = R.oracle_check(j)
    assert v.holds, (seed, v)
