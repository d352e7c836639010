"""Rule catalog and derivation checking.

Every axiom's written-out spec is compared against the observation applied
to its programs (both directions, so the recipe axioms are exactly the
observation and not merely below it).  Compound rules are exercised through
worked derivations whose conclusions the semantic oracle re-decides, and the
random sampler feeds the same oracle as a differential against the whole
catalog.  The two deliberately parameterized rules, Refinement and
FlipCoupling, get soundness checks plus a witness that they sit strictly
above the observation.
"""

import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from relwp import observations as O
from relwp import programs as P
from relwp import rules as R
from relwp import specmonads as sm
from relwp.domains import BOOL, UNIT, UNIT_VAL, Value, boolv, domain
from relwp.genprog import random_program

F = Fraction

Z2 = domain("Z2", 2)
Z3 = domain("Z3", 3)
Z8 = domain("Z8", 8)

SSIG = P.state_sig(Z2)
SSIG3 = P.state_sig(Z3)
ISIG = P.imp_sig(Z2)
ESIG = P.exc_sig(Z2)
NSIG = P.ndet_sig()
IOSIG = P.io_sig(Z2, Z2)
PSIG = P.prob_sig()

ALL_EFFECTS = (P.STATE, P.IMP, P.EXC, P.NDET, P.IO, P.PROB)


def assert_equiv(w1, w2):
    fwd, back = sm.spec_leq(w1, w2), sm.spec_leq(w2, w1)
    assert fwd.holds and back.holds, (fwd, back)


def assert_theta_equal(d: R.Derivation):
    """The conclusion spec IS the observation of the conclusion programs."""
    j = d.conclusion
    for g in j.env.valuations():
        assert_equiv(j.w(g), j.observation(j.c1(g), j.c2(g)))


# ---------------------------------------------------------------------------
# Contexts and judgment construction


def test_env_valuations_cover_the_product():
    env = R.Env((("a", Z2), ("b", Z3)))
    vals = list(env.valuations())
    assert len(vals) == env.count == 6
    assert vals[0] == (Z2.value(0), Z3.value(0))
    assert vals[-1] == (Z2.value(1), Z3.value(2))


def test_env_rejects_duplicate_names():
    with pytest.raises(ValueError):
        R.Env((("a", Z2), ("a", Z3)))


def test_empty_env_has_one_valuation():
    assert list(R.EMPTY_ENV.valuations()) == [()]


def test_judgment_checks_effects_and_carrier():
    w = sm.spec_ret(sm.state_space(Z2, Z2, Z2, Z2), Z2.value(0), Z2.value(0))
    with pytest.raises(ValueError):
        R.judgment(O.observation_st(), P.ret(ESIG, Z2.value(0)), P.ret(SSIG, Z2.value(0)), w)
    werr = sm.spec_ret(sm.err_space(Z2, Z2), Z2.value(0), Z2.value(0))
    with pytest.raises(ValueError):
        R.judgment(O.observation_st(), P.ret(SSIG, Z2.value(0)), P.ret(SSIG, Z2.value(0)), werr)


def test_judgment_checks_value_domains():
    w = sm.spec_ret(sm.state_space(Z3, Z2, Z2, Z2), Z3.value(0), Z2.value(0))
    with pytest.raises(ValueError):
        R.judgment(O.observation_st(), P.ret(SSIG, Z2.value(0)), P.ret(SSIG, Z2.value(0)), w)


def test_state_axioms_work_under_the_partial_observation():
    # loop-capable signatures share the stateful carrier, so the single-step
    # axioms are usable inside loop derivations unchanged
    j = R.apply_rule(R.rule("GetSync", sig1=ISIG, sig2=ISIG,
                            observation=O.observation_part()), ())
    assert R.oracle_check(j).holds


# ---------------------------------------------------------------------------
# Generic rules: Ret, Bind, Weaken


def test_ret_spec_is_the_unit():
    d = R.derive("Ret", observation=O.observation_st(), sig1=SSIG, sig2=SSIG3,
                 a1=Z2.value(1), a2=Z3.value(2))
    want = sm.spec_ret(sm.state_space(Z2, Z2, Z3, Z3), Z2.value(1), Z3.value(2))
    assert_equiv(d.conclusion.spec(), want)
    assert_theta_equal(d)


def test_ret_families_follow_the_context():
    env = R.Env((("k", Z3),))
    d = R.derive("Ret", observation=O.observation_err(), sig1=ESIG, sig2=ESIG,
                 env=env, a1=lambda g: g[0], a2=Z3.value(0))
    for g in env.valuations():
        assert d.conclusion.c1(g).node.value == g[0]
    assert R.oracle_check(d.conclusion).holds


def test_bind_composes_two_reads_into_the_synchronized_read():
    # |- ret () ~ get {...}  and for all u, s2:  |- get ~ ret s2 {...}
    # compose to |- get ~ get with exactly the synchronized-read spec.
    jm = R.derive("GetR", sig1=SSIG3, sig2=SSIG3, a1=UNIT_VAL)
    env2 = R.EMPTY_ENV.extend(("u", UNIT), ("s2", Z3))
    jf = R.derive("GetL", sig1=SSIG3, sig2=SSIG3, env=env2, a2=lambda g: g[1])
    d = R.derive("Bind", (jm, jf))
    sync = R.derive("GetSync", sig1=SSIG3, sig2=SSIG3)
    assert_equiv(d.conclusion.spec(), sync.conclusion.spec())
    assert P.programs_equal(d.conclusion.left(), P.get_state(SSIG3))
    assert check_ok(d)
    assert R.oracle_check(d.conclusion).holds


def check_ok(d):
    res = R.check_derivation(d)
    assert res.ok, (res.path, res.message)
    return True


def test_bind_rejects_cross_side_dependence():
    jm = R.derive("Ret", observation=O.observation_st(), sig1=SSIG, sig2=SSIG,
                  a1=Z2.value(0), a2=Z2.value(1))
    env2 = R.EMPTY_ENV.extend(("x", Z2), ("y", Z2))
    bad = R.derive("Ret", observation=O.observation_st(), sig1=SSIG, sig2=SSIG,
                   env=env2, a1=lambda g: g[1], a2=lambda g: g[0])
    with pytest.raises(R.RuleError, match="depends on"):
        R.apply_rule(R.rule("Bind"), (jm.conclusion, bad.conclusion))


def test_bind_rejects_mismatched_bound_domains():
    jm = R.derive("Ret", observation=O.observation_st(), sig1=SSIG, sig2=SSIG,
                  a1=Z2.value(0), a2=Z2.value(1))
    env2 = R.EMPTY_ENV.extend(("x", Z3), ("y", Z2))
    jf = R.derive("Ret", observation=O.observation_st(), sig1=SSIG, sig2=SSIG,
                  env=env2, a1=Z2.value(0), a2=Z2.value(0))
    with pytest.raises(R.RuleError, match="results do not match"):
        R.apply_rule(R.rule("Bind"), (jm.conclusion, jf.conclusion))


def test_weaken_grows_demands():
    d = R.derive("Ret", observation=O.observation_st(), sig1=SSIG, sig2=SSIG,
                 a1=Z2.value(0), a2=Z2.value(0))
    space = d.conclusion.spec().space
    bigger = sm.demonic_spec(space, [d.conclusion.spec().demonic_at(pt) | {0}
                                     for pt in space.points()])
    w = R.derive("Weaken", (d,), w=bigger)
    assert R.oracle_check(w.conclusion).holds
    assert check_ok(w)


def test_weaken_rejects_incomparable_target():
    d = R.derive("Ret", observation=O.observation_st(), sig1=SSIG, sig2=SSIG,
                 a1=Z2.value(0), a2=Z2.value(0))
    space = d.conclusion.spec().space
    other = sm.spec_ret(space, Z2.value(1), Z2.value(1))
    with pytest.raises(R.RuleError, match="not above"):
        R.apply_rule(R.rule("Weaken", w=other), (d.conclusion,))


def test_apply_rule_rejects_unknown_rule_and_bad_arity():
    with pytest.raises(R.RuleError, match="unknown rule"):
        R.apply_rule(R.rule("Frobnicate"), ())
    with pytest.raises(R.RuleError, match="premises"):
        R.apply_rule(R.rule("GetSync", sig1=SSIG, sig2=SSIG),
                     (R.derive("GetSync", sig1=SSIG, sig2=SSIG).conclusion,))


def test_rules_reject_parameters_they_never_read():
    ret = dict(observation=O.observation_st(), sig1=SSIG, sig2=SSIG,
               a1=Z2.value(0), a2=Z2.value(0))
    with pytest.raises(R.RuleError, match="Ret does not take a parameter 'pionts'"):
        R.derive("Ret", pionts=(), **ret)
    # an optional parameter the rule reads is accepted even where it is moot
    d = R.derive("Ret", points=O.IO_ROOT, **ret)
    with pytest.raises(R.RuleError, match="'cpa'"):
        R.derive("Weaken", (d,), w=d.conclusion.w, cpa=4)
    # every comparison is decided, so no rule takes a cap or a seed for one
    with pytest.raises(R.RuleError, match="^Weaken does not take a parameter 'cap'$"):
        R.derive("Weaken", (d,), w=d.conclusion.w, cap=1)
    with pytest.raises(R.RuleError, match="'b'"):
        R.derive("Bind", (d, R.derive("Ret", env=R.EMPTY_ENV.extend(("x", Z2), ("y", Z2)),
                                      **ret)), b=True)
    with pytest.raises(R.RuleError, match="'observation'"):
        R.derive("DemonicPickLeft", observation=O.observation_ndet(O.FORALL), a2=Z2.value(0))
    # replay applies the same check to a stored instance
    stray = R.Derivation(d.conclusion, R.rule("Ret", extra=1, **ret))
    res = R.check_derivation(stray)
    assert not res.ok and "'extra'" in res.message


# ---------------------------------------------------------------------------
# Axiom specs against the observations

# The recipe axioms must *be* the observation on their programs, not just
# sit above it; this pins the explicit tables to the semantics.


@pytest.mark.parametrize("sig1,sig2", [(SSIG, SSIG), (SSIG, SSIG3), (SSIG3, SSIG)])
def test_state_axioms_equal_the_observation(sig1, sig2):
    s1dom, s2dom = sig1.state, sig2.state
    for a2 in Z3.values():
        assert_theta_equal(R.derive("GetL", sig1=sig1, sig2=sig2, a2=a2))
        for s in s1dom.values():
            assert_theta_equal(R.derive("PutL", sig1=sig1, sig2=sig2, s=s, a2=a2))
    for a1 in Z3.values():
        assert_theta_equal(R.derive("GetR", sig1=sig1, sig2=sig2, a1=a1))
        for s in s2dom.values():
            assert_theta_equal(R.derive("PutR", sig1=sig1, sig2=sig2, a1=a1, s=s))
    assert_theta_equal(R.derive("GetSync", sig1=sig1, sig2=sig2))
    for s1 in s1dom.values():
        for s2 in s2dom.values():
            assert_theta_equal(R.derive("PutSync", sig1=sig1, sig2=sig2, s1=s1, s2=s2))


def test_state_axioms_equal_the_partial_observation_on_loops():
    obs = O.observation_part()
    i3 = P.imp_sig(Z3)
    for a2 in Z2.values():
        assert_theta_equal(R.derive("GetL", observation=obs, sig1=ISIG, sig2=i3, a2=a2))
    assert_theta_equal(R.derive("GetSync", observation=obs, sig1=ISIG, sig2=i3))


def test_demonic_axioms_equal_the_observation():
    for dom in (UNIT, BOOL, Z3):
        for a in dom.values():
            assert_theta_equal(R.derive("DemonicPickLeft", a2=a))
            assert_theta_equal(R.derive("DemonicPickRight", a1=a))
            assert_theta_equal(R.derive("DemonicFailLeft", result=Z2, a2=a))


def test_angelic_axiom_equals_the_observation():
    assert_theta_equal(R.derive("Angelic"))


def test_throw_axioms_equal_the_observation():
    for e in Z2.values():
        for a in Z3.values():
            assert_theta_equal(R.derive("ThrowL", sig1=ESIG, sig2=ESIG,
                                        e1=e, result1=Z3, a2=a))
            assert_theta_equal(R.derive("ThrowR", sig1=ESIG, sig2=ESIG,
                                        a1=a, e2=e, result2=Z3))


def test_io_axioms_equal_the_observation():
    for a in Z2.values():
        assert_theta_equal(R.derive("InputL", sig1=IOSIG, sig2=IOSIG, a2=a))
        assert_theta_equal(R.derive("InputR", sig1=IOSIG, sig2=IOSIG, a1=a))
        for o in Z2.values():
            assert_theta_equal(R.derive("OutputL", sig1=IOSIG, sig2=IOSIG, o1=o, a2=a))
            assert_theta_equal(R.derive("OutputR", sig1=IOSIG, sig2=IOSIG, a1=a, o2=o))


def test_io_axioms_at_a_nonempty_history_point():
    pt = (((P.OUT, Z2.value(1)),), ())
    d = R.derive("OutputL", sig1=IOSIG, sig2=IOSIG, o1=Z2.value(0), a2=Z2.value(1),
                 points=(pt,))
    assert_theta_equal(d)
    entry = d.conclusion.spec().demonic_at(pt)
    assert entry == frozenset({(1, ((P.OUT, Z2.value(0)), (P.OUT, Z2.value(1))), ())})


# ---------------------------------------------------------------------------
# Parameterized rules: sound but strictly above the observation


def test_refinement_is_sound_but_not_the_observation():
    d = R.derive("Refinement", dom1=Z2, dom2=Z2, h=(0, 0))
    j = d.conclusion
    assert R.oracle_check(j).holds
    theta = j.observation(j.c1(()), j.c2(()))
    # the observation accepts the right-column postcondition; the selection
    # h=(0,0) spec does not, so the rule really is coarser
    assert sm.spec_leq(j.w(()), theta).failed
    assert theta.at({1, 3}) and not j.w(()).at({1, 3})


def test_refinement_checks_the_selection():
    with pytest.raises(R.RuleError, match="alternatives"):
        R.apply_rule(R.rule("Refinement", dom1=Z2, dom2=Z2, h=(0, 5)), ())


def test_flip_coupling_vertices_are_sound():
    for p, q in product((F(0), F(1, 4), F(1, 2)), repeat=2):
        lo, hi = max(F(0), p + q - 1), min(p, q)
        for t in {lo, hi}:
            d = ((1 - p - q + t, q - t), (p - t, t))
            dd = R.derive("FlipCoupling", p=p, q=q, d=d)
            assert R.oracle_check(dd.conclusion).holds, (p, q, t)


def test_flip_coupling_spec_reads_off_the_table():
    d = ((F(1, 2), F(0)), (F(0), F(1, 2)))
    dd = R.derive("FlipCoupling", p=F(1, 2), q=F(1, 2), d=d)
    w = dd.conclusion.spec()
    assert w.at((1, 0, 0, 1)) == F(1)
    assert w.at((0, 1, 1, 0)) == F(0)
    assert w.at((0, 0, 0, 1)) == F(1, 2)


def test_flip_coupling_is_strictly_above_theta_on_the_identity():
    # theta finds the anti-correlated coupling, which puts nothing on the
    # diagonal; the identity-coupling instance claims the full diagonal
    dd = R.derive("FlipCoupling", p=F(1, 2), q=F(1, 2),
                  d=((F(1, 2), F(0)), (F(0), F(1, 2))))
    j = dd.conclusion
    theta = j.observation(j.c1(()), j.c2(()))
    assert theta.at((1, 0, 0, 1)) == F(0)
    assert sm.spec_leq(j.w(()), theta).failed


def test_flip_coupling_rejects_non_couplings():
    with pytest.raises(R.RuleError, match="not a coupling"):
        R.apply_rule(R.rule("FlipCoupling", p=F(1, 2), q=F(1, 2),
                            d=((F(1, 2), F(0)), (F(1, 2), F(0)))), ())
    with pytest.raises(R.RuleError, match="nonnegative"):
        R.apply_rule(R.rule("FlipCoupling", p=F(1, 2), q=F(1, 2),
                            d=((F(1), F(-1, 2)), (F(0), F(1, 2)))), ())


def test_flip_coupling_checks_each_valuation_once_per_application():
    half = F(1, 2)
    env = R.EMPTY_ENV.extend(("b1", BOOL), ("b2", BOOL))
    read = []

    def d(g):
        read.append(g)
        return ((half, F(0)), (F(0), half))

    dd = R.derive("FlipCoupling", env=env, p=half, q=half, d=d)
    valuations = list(env.valuations())
    assert read == valuations
    # evaluating the spec family reads the tables the rule checked
    j = dd.conclusion
    assert all(j.w(g).at((1, 0, 0, 1)) == 1 for g in valuations)
    assert R.oracle_check(j).holds
    assert read == valuations
    # a replay applies the rule once more, and checks each valuation once more
    assert R.check_derivation(dd).ok
    assert read == valuations * 2


def test_flip_coupling_shares_one_coefficient_tuple_between_equal_tables():
    half, zero = F(1, 2), F(0)
    env = R.EMPTY_ENV.extend(("x", Z3))

    def d(g):
        # a fresh table on every call; the first two valuations state equal ones
        if g[0].index < 2:
            return ((half, zero), (zero, half))
        return ((zero, half), (half, zero))

    j = R.derive("FlipCoupling", env=env, p=half, q=half, d=d).conclusion
    specs = [j.w(g) for g in env.valuations()]
    assert [w.den for w in specs] == [2, 2, 2]
    (c0,), (c1,), (c2,) = ([cs for _, cs in w.rows] for w in specs)
    assert c0 is c1 and c0 == (1, 0, 0, 1)
    assert c2 is not c0 and c2 == (0, 1, 1, 0)


# ---------------------------------------------------------------------------
# Eliminators and conditionals


def _state_ret(a1, a2, env=R.EMPTY_ENV):
    return R.derive("Ret", observation=O.observation_st(), sig1=SSIG, sig2=SSIG,
                    env=env, a1=a1, a2=a2)


def test_bool_elim_dispatches_per_valuation():
    env = R.Env((("b", BOOL),))
    jt = _state_ret(Z2.value(1), Z2.value(1), env)
    jf = _state_ret(Z2.value(0), Z2.value(0), env)
    d = R.derive("BoolElim", (jt, jf), b=lambda g: g[0].index == 1)
    for g in env.valuations():
        assert d.conclusion.c1(g).node.value.index == g[0].index
    assert R.oracle_check(d.conclusion).holds
    assert check_ok(d)


def test_zero_elim_concludes_anything_from_the_vacuous_spec():
    top = sm.unsatisfiable(sm.state_space(Z2, Z2, Z2, Z2))
    d = R.derive("ZeroElim", observation=O.observation_st(),
                 c1=P.get_state(SSIG), c2=P.get_state(SSIG), w=top)
    assert R.oracle_check(d.conclusion).holds


def test_zero_elim_rejects_satisfiable_specs():
    w = sm.spec_ret(sm.state_space(Z2, Z2, Z2, Z2), Z2.value(0), Z2.value(0))
    with pytest.raises(R.RuleError, match="unsatisfiable"):
        R.apply_rule(R.rule("ZeroElim", observation=O.observation_st(),
                            c1=P.get_state(SSIG), c2=P.get_state(SSIG), w=w), ())


def test_nat_elim_dispatches_on_the_named_variable():
    env = R.Env((("k", Z3),))
    prem = [_state_ret(Z2.value(k % 2), Z2.value(0)) for k in range(3)]
    d = R.derive("NatElim", prem, env=env, var="k")
    for g in env.valuations():
        assert d.conclusion.c1(g).node.value.index == g[0].index % 2
    assert check_ok(d)


def test_nat_elim_rejects_wrong_premise_contexts():
    env = R.Env((("k", Z3),))
    prem = [_state_ret(Z2.value(0), Z2.value(0), env) for _ in range(3)]
    with pytest.raises(R.RuleError, match="without"):
        R.apply_rule(R.rule("NatElim", env=env, var="k"),
                     [p.conclusion for p in prem])


def test_nat_elim_on_an_unbound_variable_fails_the_check():
    env = R.Env((("k", Z3),))
    good = R.derive("NatElim", [_state_ret(Z2.value(0), Z2.value(0)) for _ in range(3)],
                    env=env, var="k")
    bad = R.Derivation(good.conclusion, R.rule("NatElim", env=env, var="j"), good.premises)
    res = R.check_derivation(bad)
    assert not res.ok and res.path == ()
    assert "'j' is not bound" in res.message


def test_an_axiom_raising_a_foreign_exception_fails_the_check():
    good = R.derive("ThrowL", sig1=ESIG, sig2=ESIG, e1=Z2.value(0), result1=Z2, a2=Z2.value(0))
    inst = R.rule("ThrowL", sig1=ESIG, sig2=ESIG, e1=Z3.value(2), result1=Z2, a2=Z2.value(0))
    res = R.check_derivation(R.Derivation(good.conclusion, inst))
    assert not res.ok and "outside the exception domain" in res.message


def test_if_left_requires_a_shared_right_program():
    jt = _state_ret(Z2.value(1), Z2.value(0))
    jf = _state_ret(Z2.value(0), Z2.value(1))
    with pytest.raises(R.RuleError, match="share the right"):
        R.apply_rule(R.rule("IfLeft", b=True), (jt.conclusion, jf.conclusion))


def test_if_left_picks_the_live_left_branch():
    jt = R.derive("PutL", sig1=SSIG, sig2=SSIG, s=Z2.value(1), a2=UNIT_VAL)
    jf = R.derive("PutL", sig1=SSIG, sig2=SSIG, s=Z2.value(0), a2=UNIT_VAL)
    d = R.derive("IfLeft", (jt, jf), b=False)
    assert P.programs_equal(d.conclusion.left(), jf.conclusion.left())
    assert_theta_equal(d)


def test_if_right_picks_the_live_right_branch():
    jt = R.derive("PutR", sig1=SSIG, sig2=SSIG, a1=UNIT_VAL, s=Z2.value(1))
    jf = R.derive("PutR", sig1=SSIG, sig2=SSIG, a1=UNIT_VAL, s=Z2.value(0))
    d = R.derive("IfRight", (jt, jf), b=True)
    assert P.programs_equal(d.conclusion.right(), jt.conclusion.right())
    assert_theta_equal(d)


def test_if_sync_claims_nothing_when_guards_disagree():
    env = R.Env((("b", BOOL),))
    jt = _state_ret(Z2.value(1), Z2.value(1), env)
    jf = _state_ret(Z2.value(0), Z2.value(0), env)
    d = R.derive("IfSync", (jt, jf), b1=lambda g: g[0].index == 1, b2=False)
    g_agree, g_clash = (boolv(False),), (boolv(True),)
    assert_equiv(d.conclusion.w(g_agree), jf.conclusion.w(g_agree))
    clash = d.conclusion.w(g_clash)
    assert all(clash.demonic_at(pt) is sm.VIOLATED for pt in clash.space.points())
    assert R.oracle_check(d.conclusion).holds


# ---------------------------------------------------------------------------
# One-sided binds


def test_bind_left_agrees_with_bind_over_the_unit():
    # same pieces routed through Bind with a dummy unit variable must give
    # the same programs (after normalization) and the same spec
    jm = R.derive("GetL", sig1=SSIG3, sig2=SSIG3, a2=UNIT_VAL)
    env1 = R.EMPTY_ENV.extend(("x", Z3))
    jf1 = R.derive("PutL", sig1=SSIG3, sig2=SSIG3, env=env1,
                   s=lambda g: g[0], a2=UNIT_VAL)
    d1 = R.derive("BindLeft", (jm, jf1))

    env2 = R.EMPTY_ENV.extend(("x", Z3), ("u", UNIT))
    jf2 = R.derive("PutL", sig1=SSIG3, sig2=SSIG3, env=env2,
                   s=lambda g: g[0], a2=UNIT_VAL)
    d2 = R.derive("Bind", (jm, jf2))

    assert P.programs_equal(d1.conclusion.left(), d2.conclusion.left())
    assert P.programs_equal(P.normalize(d1.conclusion.right()),
                            P.normalize(d2.conclusion.right()))
    assert_equiv(d1.conclusion.spec(), d2.conclusion.spec())
    assert check_ok(d1)


def test_bind_right_agrees_with_bind_over_the_unit():
    jm = R.derive("GetR", sig1=SSIG3, sig2=SSIG3, a1=UNIT_VAL)
    env1 = R.EMPTY_ENV.extend(("y", Z3))
    jf1 = R.derive("PutR", sig1=SSIG3, sig2=SSIG3, env=env1,
                   a1=UNIT_VAL, s=lambda g: g[0])
    d1 = R.derive("BindRight", (jm, jf1))

    env2 = R.EMPTY_ENV.extend(("u", UNIT), ("y", Z3))
    jf2 = R.derive("PutR", sig1=SSIG3, sig2=SSIG3, env=env2,
                   a1=UNIT_VAL, s=lambda g: g[1])
    d2 = R.derive("Bind", (jm, jf2))

    assert P.programs_equal(P.normalize(d1.conclusion.left()),
                            P.normalize(d2.conclusion.left()))
    assert P.programs_equal(d1.conclusion.right(), d2.conclusion.right())
    assert_equiv(d1.conclusion.spec(), d2.conclusion.spec())
    assert check_ok(d1)


def test_bind_left_requires_a_unit_return_on_the_right():
    jm = R.derive("GetSync", sig1=SSIG, sig2=SSIG)
    env1 = R.EMPTY_ENV.extend(("x", Z2))
    jf = R.derive("GetL", sig1=SSIG, sig2=SSIG, env=env1, a2=Z2.value(0))
    with pytest.raises(R.RuleError, match="unit return"):
        R.apply_rule(R.rule("BindLeft"), (jm.conclusion, jf.conclusion))


def test_one_sided_increment_against_the_idle_program():
    # get >>= (put . (+k))  against  ret (), over k in Z8: the composed spec
    # is exactly "left lands on s1+k, right is untouched"
    z8sig = P.state_sig(Z8)
    env = R.Env((("k", Z8),))
    jm = R.derive("GetL", sig1=z8sig, sig2=z8sig, env=env, a2=UNIT_VAL)
    env2 = env.extend(("x", Z8))
    jf = R.derive("PutL", sig1=z8sig, sig2=z8sig, env=env2,
                  s=lambda g: Z8.value((g[1].index + g[0].index) % 8), a2=UNIT_VAL)
    d = R.derive("BindLeft", (jm, jf))
    space = sm.state_space(UNIT, Z8, UNIT, Z8)
    for g in env.valuations():
        k = g[0].index
        want = sm.demonic_spec(space, [
            frozenset({space.st_outcome(0, (s1 + k) % 8, 0, s2)})
            for pt in space.points()
            for s1, s2 in [space.point_split(pt)]])
        assert_equiv(d.conclusion.w(g), want)
    assert R.oracle_check(d.conclusion).holds
    assert check_ok(d)


# ---------------------------------------------------------------------------
# Catch


def _catch_parts():
    exc = ESIG
    jmain = R.derive("ThrowL", sig1=exc, sig2=exc, e1=Z2.value(0),
                     result1=BOOL, a2=boolv(True))
    env_ee = R.EMPTY_ENV.extend(("e1", Z2), ("e2", Z2))
    env_ea = R.EMPTY_ENV.extend(("e1", Z2), ("a2", BOOL))
    env_ae = R.EMPTY_ENV.extend(("a1", BOOL), ("e2", Z2))
    obs = O.observation_err()
    # handlers: left maps every exception to true, right to false
    jee = R.derive("Ret", observation=obs, sig1=exc, sig2=exc, env=env_ee,
                   a1=boolv(True), a2=boolv(False))
    jea = R.derive("Ret", observation=obs, sig1=exc, sig2=exc, env=env_ea,
                   a1=boolv(True), a2=lambda g: g[1])
    jae = R.derive("Ret", observation=obs, sig1=exc, sig2=exc, env=env_ae,
                   a1=lambda g: g[0], a2=boolv(False))
    # the shared exceptional spec: union of everything the three premise
    # families can demand
    sp = sm.err_space(BOOL, BOOL)
    union = frozenset({sp.err_ok(1, 0), sp.err_ok(1, 1),
                       sp.err_ok(0, 0)})
    wx = sm.demonic_spec(sp, [union])
    return jmain, [R.derive("Weaken", (j,), w=wx) for j in (jee, jea, jae)], wx


def test_catch_routes_the_exception_through_the_handler_spec():
    jmain, (wee, wea, wae), wx = _catch_parts()
    d = R.derive("Catch", (jmain, wee, wea, wae))
    j = d.conclusion
    # left: throw then handle to true; right: plain true
    assert P.run_exc(j.left()) == (P.OK, boolv(True))
    assert P.run_exc(j.right()) == (P.OK, boolv(True))
    # body spec demands only the collapsed raise, so the conclusion demands
    # exactly the handler spec's entries
    assert j.spec().demonic_at(0) == wx.demonic_at(0)
    assert R.oracle_check(j).holds
    assert check_ok(d)


def test_catch_rejects_disagreeing_exceptional_specs():
    jmain, (wee, wea, wae), wx = _catch_parts()
    sp = wx.space
    other = sm.demonic_spec(sp, [frozenset({sp.err_bad()}) | wx.demonic_at(0)])
    wea_bad = R.derive("Weaken", (wea,), w=other)
    with pytest.raises(R.RuleError, match="share one spec"):
        R.apply_rule(R.rule("Catch"),
                     (jmain.conclusion, wee.conclusion, wea_bad.conclusion,
                      wae.conclusion))


def test_catch_rejects_handlers_that_read_the_other_side():
    jmain, (wee, wea, wae), wx = _catch_parts()
    env_ee = wee.conclusion.env
    leaky = R.derive("Ret", observation=O.observation_err(), sig1=ESIG, sig2=ESIG,
                     env=env_ee, a1=lambda g: boolv(g[1].index == 0), a2=boolv(False))
    leaky_w = R.derive("Weaken", (leaky,), w=wx)
    with pytest.raises(R.RuleError, match="depends on the right"):
        R.apply_rule(R.rule("Catch"),
                     (jmain.conclusion, leaky_w.conclusion, wea.conclusion,
                      wae.conclusion))


def test_catch_spec_closure_form_agrees_with_the_demonic_form():
    sp = sm.err_space(BOOL, BOOL)
    w = sm.demonic_spec(sp, [frozenset({sp.err_ok(0, 1), sp.err_bad()})])
    wx = sm.demonic_spec(sp, [frozenset({sp.err_ok(1, 1)})])
    fast = R.catch_spec(w, wx)
    slow = R.catch_spec(sm.closure_spec(sp, lambda f, pt: w.at(f, pt)), wx)
    for mask in range(1 << sp.size):
        assert fast.at(mask) == slow.at(mask), mask


# ---------------------------------------------------------------------------
# Loops


def _countdown_body(sig):
    sdom = sig.state

    def step(s):
        nxt = max(s.index - 1, 0)
        return P.put_unit(sig, sdom.value(nxt), boolv(nxt > 0))

    return P.bind(P.get_state(sig), step)


def test_loop_invariant_of_identical_bodies_synchronizes_everywhere():
    sig = P.imp_sig(Z3)
    body = _countdown_body(sig)
    inv = R.loop_invariant(body, body)
    assert all(inv[1][1][i][i] for i in range(3))
    assert inv[0][0][0][0] and not inv[0][0][1][1]
    assert not any(v for row in inv[0][1] for v in row)


def test_do_while_concludes_the_invariant():
    sig = P.imp_sig(Z3)
    body = _countdown_body(sig)
    inv = R.loop_invariant(body, body)
    prem = R.judgment(O.observation_part(), body, body,
                      R.loop_premise_spec(inv, Z3, Z3))
    assert R.oracle_check(prem).holds
    concl = R.apply_rule(R.rule("DoWhileInv", inv=inv), (prem,))
    assert R.oracle_check(concl).holds
    assert isinstance(P.normalize(concl.left()).node, P.DoWhile)


def test_do_while_rejects_a_premise_spec_that_is_not_the_obligation():
    sig = P.imp_sig(Z3)
    body = _countdown_body(sig)
    inv = R.loop_invariant(body, body)
    wrong = sm.weakest(sm.state_space(BOOL, Z3, BOOL, Z3))
    prem = R.judgment(O.observation_part(), body, body, wrong)
    with pytest.raises(R.RuleError, match="obligation"):
        R.apply_rule(R.rule("DoWhileInv", inv=inv), (prem,))


@pytest.mark.parametrize("inv", [
    7,                                          # not a table at all
    ((True,) * 3,) * 2,                         # two levels short
    (((((True,) * 3,) * 3,) * 2,),) * 2,        # one guard slice missing
    (((((True,) * 3,) * 2,) * 2,),) * 2,        # a state row short
    lambda g: lambda b1, b2, i, j: True,        # a family of callables
], ids=["scalar", "flat", "short-guard", "short-state", "callable-family"])
def test_do_while_with_a_misshapen_invariant_fails_the_check(inv):
    # an empty invariant makes the body obligation vacuous, so ZeroElim
    # derives the premise
    body = _countdown_body(P.imp_sig(Z3))
    empty = ((((False,) * 3,) * 3,) * 2,) * 2
    prem = R.derive("ZeroElim", observation=O.observation_part(), c1=body, c2=body,
                    w=R.loop_premise_spec(empty, Z3, Z3))
    good = R.derive("DoWhileInv", (prem,), inv=empty)
    assert check_ok(good)
    with pytest.raises(R.RuleError, match="2x2x3x3 table"):
        R.apply_rule(R.rule("DoWhileInv", inv=inv), (prem.conclusion,))
    res = R.check_derivation(R.Derivation(good.conclusion, R.rule("DoWhileInv", inv=inv),
                                          (prem,)))
    assert not res.ok and res.path == ()
    assert "2x2x3x3 table" in res.message


def test_do_while_rejects_total_correctness():
    sig = P.imp_sig(Z3)
    body = _countdown_body(sig)
    inv = R.loop_invariant(body, body)
    prem = R.judgment(O.observation_tot(), body, body,
                      R.loop_premise_spec(inv, Z3, Z3))
    with pytest.raises(R.RuleError, match="partial-correctness"):
        R.apply_rule(R.rule("DoWhileInv", inv=inv), (prem,))


@settings(deadline=None, max_examples=40)
@given(seed=st.integers(0, 10 ** 9))
def test_do_while_invariant_conclusions_pass_the_oracle(seed):
    # the constructed invariant always discharges the premise, and the
    # concluded loop judgment must then hold under partial correctness
    rng = random.Random(seed)
    size = rng.choice((2, 3, 4))
    sdom = domain(f"s{size}", size)
    sig = P.imp_sig(sdom)
    b1 = random_program(rng, sig, BOOL, rng.choice((2, 3)))
    b2 = random_program(rng, sig, BOOL, rng.choice((2, 3)))
    inv = R.loop_invariant(b1, b2)
    prem = R.judgment(O.observation_part(), b1, b2,
                      R.loop_premise_spec(inv, sdom, sdom))
    assert R.oracle_check(prem).holds
    concl = R.apply_rule(R.rule("DoWhileInv", inv=inv), (prem,))
    assert R.oracle_check(concl).holds


# ---------------------------------------------------------------------------
# A worked noninterference argument

# Stores are (low, high) pairs encoded as low * 2 + high.  The secure
# program copies its low part and zeroes the high part; the judgment says
# runs from low-equal stores end in low-equal stores.

LH = domain("LH", 4)
LHSIG = P.state_sig(LH)


def _low(i):
    return i // 2


def _high(i):
    return i % 2


def _ni_spec():
    space = sm.state_space(UNIT, LH, UNIT, LH)
    pre = [_low(s1) == _low(s2)
           for pt in space.points() for s1, s2 in [space.point_split(pt)]]
    size = (space.s1.size ** 2) * (space.s2.size ** 2)
    post = [False] * size
    for si1 in range(4):
        for sf1 in range(4):
            for si2 in range(4):
                for sf2 in range(4):
                    post[space.pp_post_index(si1, 0, sf1, si2, 0, sf2)] = \
                        _low(sf1) == _low(sf2)
    return sm.from_prepost(space, pre, post)


def _ni_derivation(write):
    # write: store index -> stored index; dispatching on the two high bits
    # through the asymmetric conditionals covers the four combinations even
    # though the written value only uses the low part
    obs = O.observation_st()
    jm = R.derive("GetSync", observation=obs, sig1=LHSIG, sig2=LHSIG)
    env2 = R.EMPTY_ENV.extend(("x1", LH), ("x2", LH))

    def put_leaf():
        return R.derive("PutSync", observation=obs, sig1=LHSIG, sig2=LHSIG, env=env2,
                        s1=lambda g: LH.value(write(g[0].index)),
                        s2=lambda g: LH.value(write(g[1].index)))

    def if_right():
        return R.derive("IfRight", (put_leaf(), put_leaf()),
                        b=lambda g: _high(g[1].index) == 1)

    jf = R.derive("IfLeft", (if_right(), if_right()),
                  b=lambda g: _high(g[0].index) == 1)
    body = R.derive("Bind", (jm, jf))
    return R.derive("Weaken", (body,), w=_ni_spec())


def test_noninterference_derivation_replays_and_holds():
    d = _ni_derivation(lambda s: _low(s) * 2)
    assert check_ok(d)
    v = R.oracle_check(d.conclusion)
    assert v.holds and v.checked == 1


def test_noninterference_weaken_rejects_the_high_copy():
    # l := h cannot be weakened to the low-equality contract
    with pytest.raises(R.RuleError, match="not above"):
        _ni_derivation(lambda s: _high(s) * 2)


def test_leaky_judgment_fails_the_oracle_with_a_store_witness():
    leak = P.bind(P.get_state(LHSIG),
                  lambda s: P.put_unit(LHSIG, LH.value(_high(s.index) * 2), UNIT_VAL))
    j = R.judgment(O.observation_st(), leak, leak, _ni_spec())
    v = R.oracle_check(j)
    assert v.failed
    s1, s2 = _ni_spec().space.point_split(v.inner.point)
    # the refuting start pair is low-equal but high-distinct
    assert _low(s1) == _low(s2) and _high(s1) != _high(s2)


# ---------------------------------------------------------------------------
# Failure reporting


def test_check_derivation_reports_a_tampered_leaf_with_its_path():
    jm = R.derive("GetR", sig1=SSIG, sig2=SSIG, a1=UNIT_VAL)
    env2 = R.EMPTY_ENV.extend(("u", UNIT), ("s2", Z2))
    jf = R.derive("GetL", sig1=SSIG, sig2=SSIG, env=env2, a2=lambda g: g[1])
    d = R.derive("Bind", (jm, jf))
    fake = R.judgment(jm.conclusion.observation, jm.conclusion.c1, jm.conclusion.c2,
                      sm.weakest(jm.conclusion.spec().space))
    tampered = R.Derivation(d.conclusion, d.rule,
                            (R.Derivation(fake, jm.rule, ()), d.premises[1]))
    res = R.check_derivation(tampered)
    assert not res.ok
    assert res.path == (0,)
    assert "spec differs" in res.message


def test_check_derivation_reports_side_condition_failures():
    d = _state_ret(Z2.value(0), Z2.value(0))
    bad_w = sm.spec_ret(d.conclusion.spec().space, Z2.value(1), Z2.value(1))
    fake = R.judgment(d.conclusion.observation, d.conclusion.c1, d.conclusion.c2, bad_w)
    tampered = R.Derivation(fake, R.RuleInstance("Weaken", {"w": bad_w}), (d,))
    res = R.check_derivation(tampered)
    assert not res.ok and res.path == ()
    assert "Weaken" in res.message


def test_minimize_failure_finds_the_bad_leaf():
    good = _state_ret(Z2.value(0), Z2.value(0))
    bad_w = sm.spec_ret(good.conclusion.spec().space, Z2.value(1), Z2.value(1))
    bad = R.judgment(good.conclusion.observation, good.conclusion.c1,
                     good.conclusion.c2, bad_w)
    bad_leaf = R.Derivation(bad, good.rule, ())
    wrapped = R.Derivation(bad, R.RuleInstance("Weaken", {"w": bad_w}), (bad_leaf,))
    node, verdict = R.minimize_failure(wrapped)
    assert node is bad_leaf and verdict.failed


# ---------------------------------------------------------------------------
# The sampler differential


@pytest.mark.parametrize("effect", ALL_EFFECTS)
def test_sampled_derivations_replay_and_hold(effect):
    rep = R.soundness_differential(
        lambda rng: R.random_derivation(rng, effect), n=60, seed=17, validate=True)
    assert rep.clean, rep


def test_sampler_is_deterministic_per_seed():
    for effect in ALL_EFFECTS:
        a = R.random_derivation(random.Random(5), effect)
        b = R.random_derivation(random.Random(5), effect)
        g0 = next(iter(a.conclusion.env.valuations()))
        assert a.rule.rule == b.rule.rule
        assert P.programs_equal(a.conclusion.c1(g0), b.conclusion.c1(g0))
        assert P.programs_equal(a.conclusion.c2(g0), b.conclusion.c2(g0))
        assert sm.spec_leq(a.conclusion.w(g0), b.conclusion.w(g0)).holds


def test_differential_reports_an_unsound_sampler():
    # a "sampler" that emits a wrong conclusion must be caught and minimized
    good = _state_ret(Z2.value(0), Z2.value(0))
    bad_w = sm.spec_ret(good.conclusion.spec().space, Z2.value(1), Z2.value(1))
    bad = R.Derivation(
        R.judgment(good.conclusion.observation, good.conclusion.c1,
                   good.conclusion.c2, bad_w),
        good.rule, ())
    rep = R.soundness_differential(lambda rng: bad, n=3, seed=0)
    assert rep.fails == 3 and not rep.clean
    node, verdict = rep.failures[0]
    assert node is bad and verdict.failed


# ---------------------------------------------------------------------------
# One evaluation of each judgment family per valuation per check


class _Counted:
    """A judgment family that counts its calls per valuation."""

    def __init__(self, family):
        self.family = family
        self.calls = {}

    def __call__(self, g):
        self.calls[g] = self.calls.get(g, 0) + 1
        return self.family(g)


def _counted_leaf(d, counters):
    j = d.conclusion
    fams = [_Counted(lambda g, f=f: f(g)) for f in (j.c1, j.c2, j.w)]
    counters.extend(fams)
    return R.Derivation(R.Judgment(j.env, *fams, j.observation), d.rule, ())


def _depth3_with_counted_leaves():
    """Weaken(Bind(GetR, GetL)), both leaves read through counting families;
    the GetL leaf has two valuations."""
    counters = []
    jm = R.derive("GetR", sig1=SSIG, sig2=SSIG, a1=UNIT_VAL)
    env2 = R.EMPTY_ENV.extend(("u", UNIT), ("s2", Z2))
    jf = R.derive("GetL", sig1=SSIG, sig2=SSIG, env=env2, a2=lambda g: g[1])
    bind = R.derive("Bind", (_counted_leaf(jm, counters), _counted_leaf(jf, counters)))
    root = R.derive("Weaken", (bind,), w=bind.conclusion.w)
    for c in counters:
        c.calls.clear()
    return root, counters


def test_check_derivation_evaluates_each_family_once_per_valuation():
    root, counters = _depth3_with_counted_leaves()
    assert R.check_derivation(root).ok
    for c in counters:
        assert c.calls and set(c.calls.values()) == {1}, c.calls
    assert len(counters[3].calls) == 2    # both valuations of the GetL leaf
    for c in counters:
        c.calls.clear()
    assert R.oracle_check(root.conclusion).holds
    leaf_w = counters[5]
    assert set(leaf_w.calls.values()) == {1}


def test_no_memo_outlives_a_check():
    root, counters = _depth3_with_counted_leaves()
    assert R.check_derivation(root).ok
    assert P._TABLE.get() is None
    assert R.oracle_check(root.conclusion).holds
    assert P._TABLE.get() is None
    leaf = root.premises[0].premises[0].conclusion
    leaf_w = counters[2]
    leaf_w.calls.clear()
    leaf.w(())
    leaf.w(())
    assert leaf_w.calls[()] == 2
    # nested checks share the table that is open
    leaf_w.calls.clear()
    with R._EvaluationScope():
        table = P._TABLE.get()
        assert R.check_derivation(root.premises[0].premises[0]).ok
        R.oracle_check(leaf)
        R.oracle_check(leaf)
        assert P._TABLE.get() is table and table
    assert leaf_w.calls[()] == 1 and P._TABLE.get() is None

    def broken(_g):
        raise RuntimeError("family failed")
    bad = R.Judgment(leaf.env, leaf.c1, leaf.c2, broken, leaf.observation)
    with pytest.raises(RuntimeError):
        R.oracle_check(bad)
    assert P._TABLE.get() is None
    bad_leaf = R.Derivation(bad, root.premises[0].premises[0].rule, ())
    with pytest.raises(RuntimeError):
        R.check_derivation(bad_leaf)
    assert P._TABLE.get() is None


def test_corrupted_inner_conclusions_fail_where_they_did():
    root, _ = _depth3_with_counted_leaves()
    bind = root.premises[0]
    jb = bind.conclusion
    fake = R.judgment(jb.observation, jb.c1, jb.c2, sm.weakest(jb.spec().space))
    tampered = R.Derivation(root.conclusion, root.rule,
                            (R.Derivation(fake, bind.rule, bind.premises),))
    res = R.check_derivation(tampered)
    assert (res.ok, res.path, res.message) == (
        False, (0,), "Bind: conclusion spec differs at the empty context (fails)")

    leaf = bind.premises[1]
    jl = leaf.conclusion
    other = P.ret(SSIG, Z2.value(0))
    bad_c2 = lambda g: other if g[1].index == 1 else jl.c2(g)
    bad_leaf = R.Derivation(R.judgment(jl.observation, jl.c1, bad_c2, jl.w, jl.env),
                            leaf.rule, ())
    bad_bind = R.derive("Bind", (bind.premises[0], bad_leaf))
    res = R.check_derivation(R.derive("Weaken", (bad_bind,), w=bad_bind.conclusion.w))
    assert (res.ok, res.path, res.message) == (
        False, (0, 1), "GetL: right program differs at u=(), s2=1")


# ---------------------------------------------------------------------------
# One construction table per check


class _Forgetful(dict):
    """A check table that drops every program and spec construction as soon
    as it is stored (their keys start with a tag string) and keeps only the
    judgment families' values: a check that shares no construction."""

    def __setitem__(self, key, value):
        if type(key[0]) is not str:
            super().__setitem__(key, value)


def _forget_constructions(monkeypatch):
    def enter(scope):
        scope.token = P._TABLE.set(_Forgetful()) if P._TABLE.get() is None else None
    monkeypatch.setattr(P._EvaluationScope, "__enter__", enter)


def _outcome(res):
    if isinstance(res, R.CheckResult):
        return res.ok, res.path, res.message
    inner = res.inner
    return res.kind, res.checked, res.valuation, res.clause, inner and (inner.kind, inner.point)


def _coupled_flips():
    """Bind(FlipCoupling, FlipCoupling): each continuation flip's bias reads
    its own side's first result, coupled independently."""
    half = F(1, 2)
    first = R.derive("FlipCoupling", p=half, q=half, d=((half, F(0)), (F(0), half)))
    env = R.EMPTY_ENV.extend(("b1", BOOL), ("b2", BOOL))
    p = lambda g: F(1, 3) if g[0].index else half
    q = lambda g: F(1, 4) if g[1].index else half
    d = lambda g: tuple(tuple((p(g) if i else 1 - p(g)) * (q(g) if j else 1 - q(g))
                              for j in range(2)) for i in range(2))
    second = R.derive("FlipCoupling", env=env, p=p, q=q, d=d)
    return R.derive("Bind", (first, second))


def test_an_honest_replay_recomputes_the_stated_objects(monkeypatch):
    # the sharing guard: every comparison an honest replay makes is between
    # one object and itself, so none of them normalizes or runs an LP
    seen = []
    real_equal, real_equiv = P.programs_equal, R.spec_equiv
    monkeypatch.setattr(P, "programs_equal", lambda p, q: seen.append((p, q)) or real_equal(p, q))
    monkeypatch.setattr(R, "spec_equiv", lambda w, w2: seen.append((w, w2)) or real_equiv(w, w2))
    root, _ = _depth3_with_counted_leaves()
    for d in (root, _coupled_flips()):
        seen.clear()
        assert R.check_derivation(d).ok
        # at least two programs and one spec per valuation of each node
        assert len(seen) >= 3 * 4
        assert all(a is b for a, b in seen), [(a, b) for a, b in seen if a is not b][:3]


def test_constructions_are_shared_only_within_a_check():
    root, _ = _depth3_with_counted_leaves()
    j = root.conclusion
    outside = j.c1(()), j.w(())
    assert j.c1(()) is not outside[0] and j.w(()) is not outside[1]
    with R._EvaluationScope():
        inside = j.c1(()), j.w(())
        with R._EvaluationScope():
            assert (j.c1(()), j.w(())) == inside
            assert R.check_derivation(root).ok
    assert inside[0] is not outside[0] and P.programs_equal(inside[0], outside[0])
    assert sm.spec_equiv(inside[1], outside[1]).holds


@pytest.mark.parametrize("effect", ALL_EFFECTS)
def test_sharing_constructions_changes_no_result(monkeypatch, effect):
    rng = random.Random(f"table-{effect}")
    ds = [R.random_derivation(rng, effect, depth=3) for _ in range(100)]
    # each root also restated with the next derivation's conclusion, so the
    # failures are compared too
    cases = ds + [R.Derivation(b.conclusion, a.rule, a.premises) for a, b in zip(ds, ds[1:])]

    def results():
        return ([_outcome(R.check_derivation(d)) for d in cases]
                + [_outcome(R.oracle_check(d.conclusion)) for d in ds])

    shared = results()
    _forget_constructions(monkeypatch)
    assert results() == shared
    assert all(r[0] for r in shared[:len(ds)])
    assert not all(r[0] for r in shared[len(ds):len(cases)])


def test_a_tampered_coupling_fails_where_it_did(monkeypatch):
    d = _coupled_flips()
    leaf = d.premises[0]
    j = leaf.conclusion
    other = sm.linear_spec(j.w(()).space, [(F(0), (F(1, 4),) * 4)])
    tampered = R.Derivation(d.conclusion, d.rule, (
        R.Derivation(R.judgment(j.observation, j.c1, j.c2, other), leaf.rule, ()),
        d.premises[1]))
    want = (False, (0,), "FlipCoupling: conclusion spec differs at the empty context (fails)")
    assert _outcome(R.check_derivation(tampered)) == want
    _forget_constructions(monkeypatch)
    assert _outcome(R.check_derivation(tampered)) == want


def test_weaken_and_zero_elim_read_their_target_once_per_valuation():
    root, _ = _depth3_with_counted_leaves()
    bind = root.premises[0]
    target = _Counted(bind.conclusion.w)
    weak = R.derive("Weaken", (bind,), w=target)
    target.calls.clear()
    assert R.check_derivation(weak).ok
    assert target.calls == {(): 1}

    env = R.EMPTY_ENV.extend(("b", BOOL))
    top = _Counted(lambda g: sm.unsatisfiable(sm.state_space(Z2, Z2, Z2, Z2)))
    zero = R.derive("ZeroElim", observation=O.observation_st(), env=env,
                    c1=P.ret(SSIG, Z2.value(0)), c2=P.ret(SSIG, Z2.value(1)), w=top)
    top.calls.clear()
    assert R.check_derivation(zero).ok
    assert top.calls == {(boolv(False),): 1, (boolv(True),): 1}


# ---------------------------------------------------------------------------
# One construction table per derivation build


def _shape(d):
    return d.rule.rule, tuple(map(_shape, d.premises))


def _nodes(d):
    yield d
    for sub in d.premises:
        yield from _nodes(sub)


@pytest.mark.parametrize("effect", ALL_EFFECTS)
def test_a_build_inside_the_table_draws_the_same_derivations(monkeypatch, effect):
    def build():
        rng = random.Random(f"build-{effect}")
        return [R.random_derivation(rng, effect, depth=3) for _ in range(100)]

    shared = build()
    with monkeypatch.context() as m:
        m.setattr(P._EvaluationScope, "__enter__", lambda scope: setattr(scope, "token", None))
        free = build()
    assert P._TABLE.get() is None
    assert list(map(_shape, shared)) == list(map(_shape, free))
    for a, b in zip(shared, free):
        for na, nb in zip(_nodes(a), _nodes(b)):
            ja, jb = na.conclusion, nb.conclusion
            assert ja.env == jb.env
            for g in ja.env.valuations():
                assert P.programs_equal(ja.c1(g), jb.c1(g))
                assert P.programs_equal(ja.c2(g), jb.c2(g))
                assert sm.spec_equiv(ja.w(g), jb.w(g)).holds
        assert _outcome(R.check_derivation(a)) == _outcome(R.check_derivation(b))
        assert _outcome(R.oracle_check(a.conclusion)) == _outcome(R.oracle_check(b.conclusion))


def test_a_build_shares_one_table_and_none_outlives_it(monkeypatch):
    made = []
    mk = P._mk
    monkeypatch.setattr(P, "_mk", lambda *a: made.append(1) or mk(*a))
    rng = random.Random(0)
    for _ in range(50):
        R.random_derivation(rng, P.PROB, depth=3)
    # 4,680 calls when every derive re-evaluated its premises from the leaves
    assert len(made) <= 2000
    assert P._TABLE.get() is None

    # a build inside an open scope builds into that scope's table
    with R._EvaluationScope():
        table = P._TABLE.get()
        R.random_derivation(random.Random(1), P.STATE, depth=3)
        assert P._TABLE.get() is table and table
    assert P._TABLE.get() is None

    # a build that raises partway drops its table too
    derive, tables = R.derive, []

    def failing(*a, **kw):
        tables.append(P._TABLE.get())
        if len(tables) == 3:
            raise RuntimeError("third derive")
        return derive(*a, **kw)

    monkeypatch.setattr(R, "derive", failing)
    rng = random.Random(0)
    with pytest.raises(RuntimeError, match="third derive"):
        for _ in range(10):
            R.random_derivation(rng, P.PROB, depth=3)
    assert tables[-1] is not None and P._TABLE.get() is None
