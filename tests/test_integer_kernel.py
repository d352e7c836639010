"""The probabilistic kernel in integers against the rational carrier.

Runs, θ_prob, bind and the order hold every quantity as ints over one
positive denominator per object, and the simplex pivots fraction-free.
Each is checked here against its Fraction transcription in `reference`,
exactly: runs and pieces by value and order, comparisons by kind and
witness, the simplex by (value, x).  Biases of 1/3, 2/5 and 5/7 make the
lcm and gcd paths run.  A guard counts the Fraction arithmetic left in a
law check of the prob battery.
"""

import random
import sys
from fractions import Fraction as F
from math import gcd, prod

from hypothesis import given, settings, strategies as st

from relwp import lp
from relwp import observations as O
from relwp import programs as P
from relwp import specmonads as sm
from relwp.domains import UNIT, domain
from relwp.genprog import random_program

import reference

Z2 = domain("Z2", 2)
PSIG = P.prob_sig()
BIASES = (F(0), F(1, 4), F(1, 2), F(1, 3), F(2, 5), F(5, 7), F(1))


def _programs(seed, count, depth=4):
    rng = random.Random(seed)
    return [random_program(rng, PSIG, Z2, rng.randrange(1, depth + 1), flip_params=BIASES)
            for _ in range(count)]


def _lowest(den, weights):
    return den > 0 and gcd(den, *weights) == 1


# ---------------------------------------------------------------------------
# Runs


def test_runs_match_the_fraction_evaluator():
    for c in _programs(11, 200):
        den, weights = P._runs(c)
        assert _lowest(den, weights) and sum(weights) == den
        dist = P.run_prob(c)
        assert dist.weights == reference.run_prob(c)
        assert all(type(w) is F for w in dist.weights)
        assert P.semantic_key(c) == dist.weights


def test_a_program_is_run_once():
    c = _programs(5, 1)[0]
    while c.depth < 3:
        c = P.flip(PSIG, F(1, 3), c, c)
    P.run_prob(c)
    run = c._runs
    assert P._runs(c) is run and P.run_prob(c).weights == reference.run_prob(c)


def test_a_chain_of_ten_thousand_flips_runs_in_lowest_terms():
    n = 10 ** 4
    biases = [BIASES[3 + i % 3] for i in range(n)]
    c = P.ret(PSIG, Z2.value(1))
    for p in biases:
        c = P.flip(PSIG, p, P.ret(PSIG, Z2.value(0)), c)
    den, (w_false, w_true) = P._runs(c)
    assert _lowest(den, (w_false, w_true)) and w_false + w_true == den
    # true only at the end of the chain: the product of every bias
    assert w_true * prod(p.denominator for p in biases) == den * prod(p.numerator for p in biases)
    assert P.run_prob(c).mass() == 1


# ---------------------------------------------------------------------------
# θ_prob, bind and the order


def test_theta_prob_matches_the_fraction_couplings():
    cs = _programs(23, 24)
    for c1, c2 in zip(cs, cs[1:]):
        w = O.theta_prob(c1, c2)
        assert _lowest(w.den, [v for k, row in w.rows for v in (k, *row)])
        assert w.pieces == reference.theta_prob_pieces(c1, c2)


def test_spec_bind_matches_the_fraction_bind():
    rng = random.Random(31)
    for _ in range(12):
        c1, c2, *fs = _programs(rng.randrange(10 ** 6), 6, depth=3)
        wm = O.theta_prob(c1, c2)
        table = {(i1, i2): O.theta_prob(fs[i1 + 2 * i2], fs[3 - i1])
                 for i1 in range(2) for i2 in range(2)}
        cont = lambda i1, i2: table[(i1, i2)]
        bound = sm.spec_bind(wm, cont)
        assert bound.pieces == reference.bind_prob(wm, cont)
        rows = [v for k, row in bound.rows for v in (k, *row)]
        assert _lowest(bound.den, rows)


def _random_linear(rng, space, count):
    dens = (1, 2, 3, 5, 7)
    return sm.linear_spec(space, [(F(rng.randrange(0, 4), rng.choice(dens)),
                                   [F(rng.randrange(0, 3), rng.choice(dens))
                                    for _ in range(space.size)])
                                  for _ in range(count)])


def test_spec_leq_matches_the_fraction_order_in_kind_and_witness():
    rng = random.Random(41)
    space = sm.prob_space(Z2, Z2)
    cs = _programs(43, 16, depth=3)
    specs = [O.theta_prob(c1, c2) for c1, c2 in zip(cs, cs[1:])]
    specs += [_random_linear(rng, space, rng.randrange(1, 5)) for _ in range(16)]
    kinds = set()
    for w in specs:
        for w2 in rng.sample(specs, 8):
            v = sm.spec_leq(w, w2)
            assert (v.kind, v.phi) == reference.leq_prob(w, w2)
            kinds.add(v.kind)
    assert kinds == {"holds", "fails"}


def test_linear_spec_keeps_lowest_terms_and_its_rational_view():
    space = sm.prob_space(Z2, UNIT)
    w = sm.linear_spec(space, [(F(1, 6), [F(1, 3), F(1, 2)]), (F(1, 2), [0, F(1, 4)])])
    assert w.den == 12 and w.rows == ((2, (4, 6)), (6, (0, 3)))
    assert w.pieces == ((F(1, 6), (F(1, 3), F(1, 2))), (F(1, 2), (F(0), F(1, 4))))
    assert sm.linear_spec(space, w.pieces).rows == w.rows
    halves = sm.linear_spec(space, [(F(2, 4), [F(2, 4), F(4, 4)])])
    assert (halves.den, halves.rows) == (2, ((1, (1, 2)),))


# ---------------------------------------------------------------------------
# The simplex and the box LP


def _random_lp(rng):
    m, n = rng.randrange(1, 7), rng.randrange(1, 6)
    num = lambda lo: F(rng.randrange(lo, 5), rng.randrange(1, 5))
    objective = [num(-4) for _ in range(n)]
    rows = [[num(-4) for _ in range(n)] for _ in range(m)]
    rhs = [num(0) if rng.random() < 0.7 else F(0) for _ in range(m)]
    return objective, rows, rhs


def _solve_or_error(simplex, problem):
    try:
        return simplex(*problem)
    except ValueError as e:
        return str(e)


def test_simplex_max_matches_the_fraction_tableau():
    rng = random.Random(53)
    outcomes = set()
    for _ in range(600):
        problem = _random_lp(rng)
        got = _solve_or_error(lp.simplex_max, problem)
        assert got == _solve_or_error(reference.simplex_max, problem), problem
        outcomes.add(type(got))
    assert outcomes == {tuple, str}   # optima and unbounded problems both met


def _random_family(rng, dim, count):
    dens = (1, 2, 3, 4, 5)
    return [(F(rng.randrange(-4, 5), rng.choice(dens)),
             tuple(F(rng.randrange(-4, 5), rng.choice(dens)) for _ in range(dim)))
            for _ in range(count)]


@settings(deadline=None, max_examples=50)
@given(seed=st.integers(0, 10 ** 9))
def test_max_min_affine_is_the_best_vertex(seed):
    rng = random.Random(seed)
    dim = rng.randrange(1, 5)
    pieces = _random_family(rng, dim, rng.randrange(1, 6))
    value, phi = lp.max_min_affine(pieces, dim)
    best, _ = reference.max_min_affine_by_vertices(pieces, dim)
    assert value == best
    assert all(0 <= v <= 1 for v in phi)
    assert min(k + sum(c * v for c, v in zip(cs, phi)) for k, cs in pieces) == value


def test_max_min_affine_takes_the_fraction_simplex_vertex_at_any_scale():
    rng = random.Random(59)
    for _ in range(300):
        dim = rng.randrange(1, 5)
        pieces = _random_family(rng, dim, rng.randrange(2, 6))
        value, phi = lp.max_min_affine(pieces, dim)
        assert (value, phi) == reference.max_min_affine(pieces, dim)
        scale = rng.choice((60, 420, 3600))   # multiples of every denominator
        scaled = [(int(k * scale), tuple(int(c * scale) for c in cs)) for k, cs in pieces]
        assert lp.max_min_affine(scaled, dim) == (value * scale, phi)


def test_coupling_vertices_keep_rational_marginals():
    p, q = (F(1, 3), F(2, 3)), (F(2, 5), F(3, 5))
    verts = lp.coupling_vertices(p, q)
    assert verts == sorted(verts) and len(verts) == 2
    assert all(reference.is_coupling(p, q, d) and all(type(v) is F for v in d) for d in verts)


# ---------------------------------------------------------------------------
# Guard: a law check of the prob battery does its arithmetic in ints


def test_a_prob_law_check_does_no_fraction_arithmetic():
    from fractions import Fraction

    battery = O.battery_prob(Z2, depth=2, table_limit=4, m_limit=6)
    codes = {Fraction._add.__code__, Fraction._mul.__code__}
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code in codes:
            calls += 1

    sys.setprofile(count)
    try:
        report = O.check_morphism_laws(O.observation_prob(), battery)
    finally:
        sys.setprofile(None)
    assert report.bind_law.checked == 400
    # the Fraction carrier made 24,870 here
    assert calls <= 50, calls
