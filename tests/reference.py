"""Independent references the tests check the package against.

Each is a direct transcription of its definition, kept apart from `relwp`
on purpose: `normalize` is the structural normal form the iterative one in
`programs` must reproduce node for node, built with `Program` directly,
outside the pool, so tests compare it through `tree`, which reads a
program as nested tuples off its nodes' dataclass fields; `run_imp_fuel` cross-checks
`run_imp`'s divergence verdicts, `theta_imp_walk` builds the one-sided
state and partial-correctness transformers node by node, loops by their
fixpoint, where the observations read the program's runs, `theta_part_slow`
pairs two such walks to cross-check `theta_part`, and `theta_io_walk`
builds θ_io node by node from spec units and binds where `theta_io` runs
the evaluator.  Those recurse once per tree level, so keep their inputs
shallow.

`leq_by_enumeration` and `bind_by_evaluation` read specs of the fixed
propositional carriers only through `RelSpec.at`: the first tries every
postcondition at every point, the second evaluates a bind from its
definition.  `prob_bind_by_evaluation` and `prob_grid_refutation` do the
same for quantitative specs: a bind evaluated from its definition, and a
search of value tables on a grid for one that separates two specs.
`is_coupling` and `min_coupling_value` check the coupling vertices behind
`theta_prob`, and `flip_coupling_by_fractions` is FlipCoupling's coupling
check in `Fraction`s, which the rule makes in integers.  `run_prob`, `simplex_max`, `max_min_affine`, `leq_prob`,
`bind_prob` and `theta_prob_pieces` are the quantitative carrier in
`Fraction`s, node by node and tableau row by tableau row, against which
the integer kernel must agree exactly; `max_min_affine_by_vertices` solves
the box LP with no simplex at all.  `morphism_laws_by_instance` spells out `check_morphism_laws`
one instance at a time, with nothing shared between instances.
`wrelexc_ret` and `wrelexc_bind` write the exception carrier of `generic`
out by hand over `specmonads` alone, as one four-way case split, to pin the
assembled carrier down.  The `pp_*` functions are the pre/post pair algebra
written over explicit tables and nothing of `relwp`: unit, bind as a
relational composition, the componentwise order and the embedding.
`translate_by_store` elaborates a While statement store by store through
the scalar evaluator, building every leaf afresh, where `translate` reads
per-signature tables.  `soundness_differential` oracle-checks sampled
derivations and reports each failure minimized; `seeded_corpus` draws the
seed-1 depth-3 derivations that CI's "Derivation corpus" step draws.
"""

import random
from dataclasses import dataclass, field, fields
from fractions import Fraction
from itertools import combinations, product
from typing import Callable, List, Optional, Sequence, Tuple

from relwp import observations as O
from relwp import programs as P
from relwp import rules as R
from relwp import whilelang as W
from relwp.domains import BOOL, UNIT, UNIT_VAL, FiniteDomain, Value, boolv, inl_index, sum_domain
from relwp.lp import coupling_vertices
from relwp.observations import UnaryObservation, from_commuting_pair
from relwp.programs import (IN, OUT, Bind, Catch, Choice, DoWhile, Fail, Flip, Get, Input,
                            Output, PickFin, Program, Put, Ret, Throw)
from relwp.specmonads import (RelSpec, demand_spec, io_demonic_spec, io_space, linear_spec,
                              prob_space, prune_pieces, pure_space, reindex_outcomes, spec_bind,
                              spec_leq, spec_ret, state_space, weakest)


def _mk(sig, result: FiniteDomain, node, depth: int) -> Program:
    return Program(sig, result, node, depth)


def tree(p: Program) -> tuple:
    """p as nested tuples, read off the dataclass fields of its nodes rather
    than through the node-shape table of `programs`."""
    def read(v):
        if isinstance(v, Program):
            return tree(v)
        if isinstance(v, tuple):
            return tuple(read(x) for x in v)
        return v
    n = p.node
    return (type(n).__name__, p.sig, p.result, p.depth) + tuple(
        read(getattr(n, f.name)) for f in fields(n))


def _throws(p: Program) -> bool:
    n = p.node
    if isinstance(n, Throw):
        return True
    if isinstance(n, Ret):
        return False
    if isinstance(n, Bind):
        return _throws(n.inner) or any(_throws(c) for c in n.cont)
    if isinstance(n, Catch):
        # a catch can still rethrow from its handler
        return any(_throws(h) for h in n.handler)
    return False


def _graft(p: Program, cont: Tuple[Program, ...], result: FiniteDomain) -> Program:
    """Replace every Ret leaf of normal-form p with the matching table entry.

    catch is not algebraic: pushing a continuation that may throw inside the
    catch would let the handler capture the continuation's exceptions.  In
    that case the bind stays at the spine, which is the normal form here.
    """
    n = p.node
    if isinstance(n, Ret):
        return cont[n.value.index]
    if isinstance(n, Bind):
        # p was normal, so this bind sits over a catch: reassociate rightward
        sub = tuple(_graft(c, cont, result) for c in n.cont)
        depth = n.inner.depth + max(s.depth for s in sub) - 1
        return _mk(p.sig, result, Bind(n.inner, sub), max(depth, 1))
    if isinstance(n, Get):
        sub = tuple(_graft(c, cont, result) for c in n.cont)
        return _mk(p.sig, result, Get(sub), 1 + max(s.depth for s in sub))
    if isinstance(n, Put):
        t = _graft(n.then, cont, result)
        return _mk(p.sig, result, Put(n.state, t), 1 + t.depth)
    if isinstance(n, Throw):
        return _mk(p.sig, result, Throw(n.exc), 1)
    if isinstance(n, Catch):
        if any(_throws(c) for c in cont):
            depth = p.depth + max(c.depth for c in cont) - 1
            return _mk(p.sig, result, Bind(p, cont), max(depth, 1))
        body = _graft(n.body, cont, result)
        handler = tuple(_graft(h, cont, result) for h in n.handler)
        return _mk(p.sig, result, Catch(body, handler),
                   1 + max(body.depth, max(h.depth for h in handler)))
    if isinstance(n, Choice):
        l, r = _graft(n.left, cont, result), _graft(n.right, cont, result)
        return _mk(p.sig, result, Choice(l, r), 1 + max(l.depth, r.depth))
    if isinstance(n, Fail):
        return _mk(p.sig, result, Fail(), 1)
    if isinstance(n, PickFin):
        sub = tuple(_graft(c, cont, result) for c in n.cont)
        return _mk(p.sig, result, PickFin(sub), 1 + max(s.depth for s in sub))
    if isinstance(n, Input):
        sub = tuple(_graft(c, cont, result) for c in n.cont)
        return _mk(p.sig, result, Input(sub), 1 + max(s.depth for s in sub))
    if isinstance(n, Output):
        t = _graft(n.then, cont, result)
        return _mk(p.sig, result, Output(n.value, t), 1 + t.depth)
    if isinstance(n, Flip):
        f, t = _graft(n.cont[0], cont, result), _graft(n.cont[1], cont, result)
        return _mk(p.sig, result, Flip(n.p, (f, t)), 1 + max(f.depth, t.depth))
    if isinstance(n, DoWhile):
        # the loop body result stays bool; only the continuation is grafted
        t = _graft(n.then, cont, result)
        return _mk(p.sig, result, DoWhile(n.body, t), 1 + max(n.body.depth, t.depth))
    raise TypeError(f"unexpected node {n!r}")


def normalize(p: Program) -> Program:
    """Bind-free normal form: unit laws applied, binds pushed into continuations."""
    n = p.node
    if isinstance(n, Ret):
        return p
    if isinstance(n, Bind):
        m = normalize(n.inner)
        cont = tuple(normalize(c) for c in n.cont)
        return _graft(m, cont, p.result)
    if isinstance(n, Get):
        sub = tuple(normalize(c) for c in n.cont)
        return _mk(p.sig, p.result, Get(sub), 1 + max(s.depth for s in sub))
    if isinstance(n, Put):
        t = normalize(n.then)
        return _mk(p.sig, p.result, Put(n.state, t), 1 + t.depth)
    if isinstance(n, Throw):
        return p
    if isinstance(n, Catch):
        body = normalize(n.body)
        handler = tuple(normalize(h) for h in n.handler)
        return _mk(p.sig, p.result, Catch(body, handler),
                   1 + max(body.depth, max(h.depth for h in handler)))
    if isinstance(n, Choice):
        l, r = normalize(n.left), normalize(n.right)
        return _mk(p.sig, p.result, Choice(l, r), 1 + max(l.depth, r.depth))
    if isinstance(n, Fail):
        return p
    if isinstance(n, PickFin):
        sub = tuple(normalize(c) for c in n.cont)
        return _mk(p.sig, p.result, PickFin(sub), 1 + max(s.depth for s in sub))
    if isinstance(n, Input):
        sub = tuple(normalize(c) for c in n.cont)
        return _mk(p.sig, p.result, Input(sub), 1 + max(s.depth for s in sub))
    if isinstance(n, Output):
        t = normalize(n.then)
        return _mk(p.sig, p.result, Output(n.value, t), 1 + t.depth)
    if isinstance(n, Flip):
        f, t = normalize(n.cont[0]), normalize(n.cont[1])
        return _mk(p.sig, p.result, Flip(n.p, (f, t)), 1 + max(f.depth, t.depth))
    if isinstance(n, DoWhile):
        body, t = normalize(n.body), normalize(n.then)
        return _mk(p.sig, p.result, DoWhile(body, t), 1 + max(body.depth, t.depth))
    raise TypeError(f"unexpected node {n!r}")


def run_imp_fuel(p: Program, s: Value, fuel: int):
    """Fuel-bounded reference: every loop iteration costs one unit.

    Returns (value, state) on termination within fuel, the string "fuel" on
    exhaustion.  Used only to cross-check run_imp's divergence verdicts.
    """

    def go(q: Program, st: Value, gas: int):
        n = q.node
        if isinstance(n, Ret):
            return (n.value, st), gas
        if isinstance(n, Bind):
            r, gas = go(n.inner, st, gas)
            if r == "fuel":
                return "fuel", gas
            a, s1 = r
            return go(n.cont[a.index], s1, gas)
        if isinstance(n, Get):
            return go(n.cont[st.index], st, gas)
        if isinstance(n, Put):
            return go(n.then, n.state, gas)
        if isinstance(n, DoWhile):
            cur = st
            while True:
                if gas <= 0:
                    return "fuel", gas
                gas -= 1
                r, gas = go(n.body, cur, gas)
                if r == "fuel":
                    return "fuel", gas
                b, cur = r
                if b.index == 0:
                    return go(n.then, cur, gas)
        raise TypeError(f"{n.__class__.__name__} under imp")

    r, _ = go(p, s, fuel)
    return r


def translate_by_store(ast, sig) -> Program:
    """`whilelang.translate` with every expression evaluated store by store
    (`eval_expr`, `store_write`) and every leaf built per call."""
    missing = sorted(W.stmt_locations(ast) - set(sig.locations))
    if missing:
        raise ValueError(f"undeclared location {missing[0]!r}")
    sdom = W.store_domain(sig)
    isig = P.imp_sig(sdom)
    unit = P.ret(isig, UNIT_VAL)
    read = P.get_state(isig)
    writes = [P.put_unit(isig, st, UNIT_VAL) for st in sdom.values()]
    bools = [P.ret(isig, boolv(False)), P.ret(isig, boolv(True))]
    done = []
    for s in reversed(W._statements(ast)):
        if isinstance(s, W.Skip):
            r = unit
        elif isinstance(s, W.Assign):
            r = P.bind(read, lambda st: writes[
                W.store_write(sig, st.index, s.loc, W.eval_expr(sig, s.expr, st.index))])
        elif isinstance(s, W.Seq):
            second, first = done.pop(), done.pop()
            r = P.bind(first, lambda _u: second)
        elif isinstance(s, W.If):
            els, then = done.pop(), done.pop()
            r = P.bind(read, lambda st: then if W.eval_expr(sig, s.cond, st.index) else els)
        else:
            body = P.bind(done.pop(), lambda _u: bools[True])
            guard = P.bind(read, lambda st: bools[W.eval_expr(sig, s.cond, st.index) != 0])
            r = P.do_while(P.bind(guard, lambda b: body if b.index else bools[False]), unit)
        done.append(r)
    return done.pop()


def theta_imp_walk(c: Program, s1: FiniteDomain, s2: FiniteDomain,
                   side: int, comp: int) -> RelSpec:
    """One-sided partial-correctness transformer of a state or imp program
    on the given side, acting on state component `comp`, built on the
    tree: a return is the unit, a get goes on with the spec of the point's
    own state, a put reads its subtree's spec at the moved point, and a
    bind binds into its table's specs.  A loop is the fixpoint of
    w -> bind body (true ? w : done), iterated from the trivial spec until
    its demand families stop changing; the chain only grows, and the
    lattice of entries is finite, so this terminates."""
    if c.sig.state != (s1 if comp == 1 else s2):
        raise ValueError("program state domain does not match the chosen component")
    u = Value(UNIT, 0)

    def space(dom):
        return state_space(dom if side == 1 else UNIT, s1, dom if side == 2 else UNIT, s2)

    def unit(sp, v):
        return spec_ret(sp, v, u) if side == 1 else spec_ret(sp, u, v)

    def then(w, kids):
        specs = [walk(k) for k in kids]
        return spec_bind(w, lambda i1, i2: specs[i1 if side == 1 else i2])

    def walk(q: Program) -> RelSpec:
        n = q.node
        sp = space(q.result)
        if isinstance(n, Ret):
            return unit(sp, n.value)
        if isinstance(n, Bind):
            return then(walk(n.inner), n.cont)
        if isinstance(n, Get):
            specs = [walk(k) for k in n.cont]
            return demand_spec(sp, [specs[sp.point_split(pt)[comp - 1]].fams[pt]
                                    for pt in sp.points()])
        if isinstance(n, Put):
            sub = walk(n.then)

            def moved(pt):
                s1i, s2i = sp.point_split(pt)
                return sp.point(n.state.index, s2i) if comp == 1 else sp.point(s1i, n.state.index)

            return demand_spec(sp, [sub.fams[moved(pt)] for pt in sp.points()])
        if isinstance(n, DoWhile):
            body, bsp = walk(n.body), space(BOOL)
            done = unit(bsp, boolv(False))
            w = weakest(bsp)
            while True:
                nxt = spec_bind(body, lambda i1, i2, _w=w: _w if (i1 if side == 1 else i2) else done)
                if nxt.fams == w.fams:
                    break
                w = nxt
            sub = walk(n.then)
            return spec_bind(w, lambda _i1, _i2: sub)
        raise TypeError(f"{n.__class__.__name__} under imp")

    return walk(c)


def theta_part_slow(c1: Program, c2: Program) -> RelSpec:
    """Fixpoint-based cross check of theta_part: the pairing of the two
    one-sided walks."""
    O._expect_effect(c1, (P.IMP, P.STATE), "theta_part_slow")
    O._expect_effect(c2, (P.IMP, P.STATE), "theta_part_slow")
    s1, s2 = c1.sig.state, c2.sig.state
    u1, u2 = (UnaryObservation(f"theta-imp-walk/{side}", P.IMP, side, "WrelSt",
                               lambda c, _s=side: theta_imp_walk(c, s1, s2, _s, _s))
              for side in (1, 2))
    return from_commuting_pair(u1, u2, name="theta-part").map(c1, c2)


def theta_io_walk(c: Program, side: int, alph) -> RelSpec:
    """One-sided θ_io on the given side, built on the tree: a return is the
    unit, an output the one outcome with its event put on the side's
    history, an input one outcome per value read; event nodes and binds
    bind into their subtrees' specs.  `alph` is (i1, o1, i2, o2)."""
    i1, o1, i2, o2 = alph

    def space(dom):
        return io_space(dom if side == 1 else UNIT, i1, o1, dom if side == 2 else UNIT, i2, o2)

    def event(ev):
        # the root histories of one event on this side
        return ((ev,), ()) if side == 1 else ((), (ev,))

    def then(prim, kids):
        specs = [walk(k) for k in kids]
        return spec_bind(prim, lambda j1, j2: specs[j1 if side == 1 else j2])

    def walk(q: Program) -> RelSpec:
        n = q.node
        if isinstance(n, Ret):
            u = Value(UNIT, 0)
            pair = (n.value, u) if side == 1 else (u, n.value)
            return spec_ret(space(q.result), *pair)
        if isinstance(n, Output):
            ev = (OUT, n.value)
            return then(io_demonic_spec(space(UNIT), {(0,) + event(ev)}), [n.then])
        if isinstance(n, Input):
            d = q.sig.inp
            read = {(v.index,) + event((IN, v)) for v in d.values()}
            return then(io_demonic_spec(space(d), read), n.cont)
        if isinstance(n, Bind):
            return then(walk(n.inner), n.cont)
        raise TypeError(f"{n.__class__.__name__} under io")

    return walk(c)


def theta_io_by_walks(c1: Program, c2: Program) -> RelSpec:
    """θ_io paired from the two one-sided walks."""
    alph = (c1.sig.inp, c1.sig.out, c2.sig.inp, c2.sig.out)
    u1, u2 = (UnaryObservation(f"theta-io-walk/{side}", P.IO, side, "WrelIO",
                               lambda c, _s=side: theta_io_walk(c, _s, alph))
              for side in (1, 2))
    return from_commuting_pair(u1, u2, name="theta-io").map(c1, c2)


def is_coupling(p: Sequence, q: Sequence, d: Sequence) -> bool:
    p = [Fraction(v) for v in p]
    q = [Fraction(v) for v in q]
    m, n = len(p), len(q)
    if len(d) != m * n or any(Fraction(v) < 0 for v in d):
        return False
    rows_ok = all(sum(Fraction(d[i * n + j]) for j in range(n)) == p[i] for i in range(m))
    cols_ok = all(sum(Fraction(d[i * n + j]) for i in range(m)) == q[j] for j in range(n))
    return rows_ok and cols_ok


def min_coupling_value(p: Sequence, q: Sequence, phi: Sequence) -> Fraction:
    """inf over couplings d of sum d(i,j) * phi(i,j), attained at a vertex."""
    best = None
    for d in coupling_vertices(p, q):
        v = sum(a * Fraction(b) for a, b in zip(d, phi))
        if best is None or v < best:
            best = v
    if best is None:
        raise ValueError("empty transportation polytope")
    return best


def flip_coupling_by_fractions(p0, q0, d0, where: str = "the empty context") -> RelSpec:
    """FlipCoupling's coupling spec in `Fraction` arithmetic: d checked as a
    2x2 table of nonnegative weights whose rows sum to the left draw's
    (1 - p, p) and whose columns sum to the right draw's (1 - q, q), then
    read off as one piece over the outcomes (b1, b2).  A refusal raises the
    rule's `RuleError`, naming the valuation `where`."""
    p, q = Fraction(p0), Fraction(q0)
    d = tuple(tuple(map(Fraction, row)) for row in d0)
    if len(d) != 2 or any(len(row) != 2 for row in d):
        raise R.RuleError("FlipCoupling: d must be a 2x2 table over (left, right) guards")
    if any(x < 0 for row in d for x in row):
        raise R.RuleError("FlipCoupling: coupling weights must be nonnegative")
    if (d[0][0] + d[0][1], d[1][0] + d[1][1]) != (1 - p, p) or \
       (d[0][0] + d[1][0], d[0][1] + d[1][1]) != (1 - q, q):
        raise R.RuleError(f"FlipCoupling: d is not a coupling of the {p} and {q} draws "
                          f"at {where}")
    return linear_spec(prob_space(BOOL, BOOL), [(0, d[0] + d[1])])


def leq_by_enumeration(w: RelSpec, w2: RelSpec):
    """("holds", None, None), or ("fails", point, phi) for the first point and,
    in numeric order of masks, the first postcondition phi that w2 accepts
    there and w does not."""
    n = w.space.size
    for pt in w.space.points():
        for mask in range(2 ** n):
            phi = frozenset(o for o in range(n) if mask >> o & 1)
            if w2.at(phi, pt) and not w.at(phi, pt):
                return "fails", pt, phi
    return "holds", None, None


def bind_by_evaluation(wm: RelSpec, cont, phi, pt) -> bool:
    """wm bound to a continuation, at postcondition phi and point pt: wm at
    psi(o) = c.at(phi, cpt), where (c, cpt) = cont(o, pt) is the spec that
    outcome o of wm leads to and the point it is read at."""
    def psi(o):
        c, cpt = cont(o, pt)
        return c.at(phi, cpt)
    return wm.at(psi, pt)


_GRID = (Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(1))


def prob_bind_by_evaluation(wm: RelSpec, cont, phi) -> Fraction:
    """wm bound to a continuation, at value table phi: wm at psi, where
    psi(o) is the value at phi of cont(i1, i2), the spec that outcome
    o = i1 * |a2| + i2 of wm leads to."""
    width = wm.space.a2.size
    return wm.at(tuple(cont(*divmod(o, width)).at(phi) for o in wm.space.outcomes()))


def prob_grid_refutation(w: RelSpec, w2: RelSpec) -> Optional[Tuple[Fraction, ...]]:
    """A value table on the quarter grid at which w exceeds w2, or None.
    All 5 ** n tables are tried, so keep the spaces small."""
    for phi in product(_GRID, repeat=w.space.size):
        if w.at(phi) > w2.at(phi):
            return phi
    return None


# -- the rational carrier: runs, LP, bind and order over Fraction pieces ------

def run_prob(p: Program) -> Tuple[Fraction, ...]:
    """p's output weights, evaluated node by node in Fractions."""
    dist = {}  # weight tables by subtree
    for q in P._postorder(p):
        n = q.node
        if isinstance(n, Ret):
            w = tuple(Fraction(int(i == n.value.index)) for i in range(q.result.size))
        elif isinstance(n, Flip):
            pf, pt = 1 - n.p, n.p
            w = tuple(pf * wf + pt * wt
                      for wf, wt in zip(dist[id(n.cont[0])], dist[id(n.cont[1])]))
        elif isinstance(n, Bind):
            acc = [Fraction(0)] * q.result.size
            for a, wa in enumerate(dist[id(n.inner)]):
                if wa:
                    for j, wj in enumerate(dist[id(n.cont[a])]):
                        acc[j] += wa * wj
            w = tuple(acc)
        else:
            raise TypeError(f"{type(n).__name__} under prob")
        dist[id(q)] = w
    return dist[id(p)]


def simplex_max(objective: Sequence, rows: Sequence[Sequence], rhs: Sequence):
    """Maximize objective . x subject to rows . x <= rhs and x >= 0, rhs >= 0,
    on a tableau of Fraction rows under Bland's rule."""
    m, n = len(rows), len(objective)
    if any(Fraction(b) < 0 for b in rhs):
        raise ValueError("simplex_max needs a nonnegative right-hand side")
    tab = [[Fraction(v) for v in rows[i]] + [Fraction(int(j == i)) for j in range(m)]
           + [Fraction(rhs[i])] for i in range(m)]
    cost = [Fraction(v) for v in objective] + [Fraction(0)] * (m + 1)
    basis = list(range(n, n + m))
    while True:
        col = next((j for j in range(n + m) if cost[j] > 0), None)
        if col is None:
            break
        pivot, best = None, None
        for i in range(m):
            a = tab[i][col]
            if a > 0:
                ratio = tab[i][-1] / a
                if best is None or ratio < best or (ratio == best and basis[i] < basis[pivot]):
                    best, pivot = ratio, i
        if pivot is None:
            raise ValueError("unbounded linear program")
        a = tab[pivot][col]
        prow = tab[pivot] = [v / a for v in tab[pivot]]
        for i in range(m):
            f = tab[i][col]
            if i != pivot and f:
                tab[i] = [u - f * v for u, v in zip(tab[i], prow)]
        f = cost[col]
        cost = [u - f * v for u, v in zip(cost, prow)]
        basis[pivot] = col
    x = [Fraction(0)] * n
    for i, b in enumerate(basis):
        if b < n:
            x[b] = tab[i][-1]
    return -cost[-1], x


def max_min_affine(pieces, dim: int):
    """max over the box [0,1]^dim of min_i (k_i + <c_i, phi>), and a phi
    attaining it, by the Fraction simplex: maximize t subject to
    t <= k_i + <c_i, phi> and phi <= 1, with t shifted nonnegative."""
    shift = 1 - min(Fraction(0), min(Fraction(k) for k, _ in pieces))
    rows = [[Fraction(1)] + [-Fraction(c) for c in cs] for _, cs in pieces]
    rows += [[Fraction(int(i == j + 1)) for i in range(dim + 1)] for j in range(dim)]
    rhs = [Fraction(k) + shift for k, _ in pieces] + [Fraction(1)] * dim
    value, x = simplex_max([Fraction(1)] + [Fraction(0)] * dim, rows, rhs)
    return value - shift, tuple(x[1:])


def _solve(a, b):
    """The unique solution of the square system a x = b, or None."""
    n = len(a)
    m = [list(map(Fraction, row)) + [Fraction(v)] for row, v in zip(a, b)]
    for c in range(n):
        r = next((r for r in range(c, n) if m[r][c]), None)
        if r is None:
            return None
        m[c], m[r] = m[r], m[c]
        m[c] = [v / m[c][c] for v in m[c]]
        for r in range(n):
            if r != c and m[r][c]:
                f = m[r][c]
                m[r] = [u - f * v for u, v in zip(m[r], m[c])]
    return [row[-1] for row in m]


def max_min_affine_by_vertices(pieces, dim: int):
    """max over the box [0,1]^dim of min_i (k_i + <c_i, phi>), and a phi
    attaining it, with no simplex: every choice of dim + 1 tight constraints
    among t = k_i + <c_i, phi>, phi_j = 0 and phi_j = 1 is solved for
    (t, phi), and the best feasible one kept."""
    faces = [((1,) + tuple(-Fraction(c) for c in cs), Fraction(k)) for k, cs in pieces]
    for j in range(dim):
        unit = tuple(int(i == j + 1) for i in range(dim + 1))
        faces += [(unit, Fraction(0)), (unit, Fraction(1))]
    best = None
    for tight in combinations(faces, dim + 1):
        x = _solve([a for a, _ in tight], [b for _, b in tight])
        if x is None:
            continue
        t, phi = x[0], tuple(x[1:])
        if all(0 <= v <= 1 for v in phi) and \
                all(t <= k + sum(c * v for c, v in zip(cs, phi)) for k, cs in pieces):
            if best is None or t > best[0]:
                best = (t, phi)
    return best


def leq_prob(w: RelSpec, w2: RelSpec):
    """("holds", None) or ("fails", phi): w <= w2 decided on the rational
    pieces, per piece of w2 by the box bound and then the Fraction LP."""
    if w.pieces == w2.pieces:
        return "holds", None
    for k2, c2 in w2.pieces:
        diff = [(k1 - k2, tuple(a - b for a, b in zip(c1, c2))) for k1, c1 in w.pieces]
        if min(k + sum(c for c in cs if c > 0) for k, cs in diff) <= 0:
            continue
        val, phi = max_min_affine(diff, w.space.size)
        if val > 0:
            return "fails", phi
    return "holds", None


def bind_prob(wm: RelSpec, cont) -> Tuple[tuple, ...]:
    """The pieces of wm bound to cont(i1, i2), expanded over Fraction pieces:
    each piece of wm picks a piece of the continuation of every weighted
    outcome and adds them in at that weight.  Single pieces are added in
    directly and the rest multiplied out, pruned of duplicate and dominated
    sums from the second such outcome on; the result is pruned the same way,
    with no LP, as `spec_bind` prunes it."""
    width = wm.space.a2.size
    subs = [cont(*divmod(o, width)).pieces for o in wm.space.outcomes()]
    size = cont(0, 0).space.size
    pieces = []
    for k, coeffs in wm.pieces:
        acc, partial = [k] + [Fraction(0)] * size, None
        for o, c in enumerate(coeffs):
            if not c:
                continue
            pool = subs[o]
            if len(pool) == 1:
                ((ck, ccs),) = pool
                acc[0] += c * ck
                for t, v in enumerate(ccs):
                    acc[t + 1] += c * v
                continue
            scaled = [(c * ck, tuple(c * v for v in ccs)) for ck, ccs in pool]
            if partial is None:
                partial = scaled
                continue
            partial = prune_pieces([(pk + sk, tuple(a + b for a, b in zip(pcs, scs)))
                                    for pk, pcs in partial for sk, scs in scaled], exact=False)
        base = tuple(acc[1:])
        pieces += [(acc[0], base)] if partial is None else [
            (acc[0] + pk, tuple(a + b for a, b in zip(base, pcs))) for pk, pcs in partial]
    return prune_pieces(pieces, exact=False)


def theta_prob_pieces(c1: Program, c2: Program) -> Tuple[tuple, ...]:
    """θ_prob's pieces from the Fraction runs: one per coupling vertex of
    the two supports, pruned as `theta_prob` prunes them."""
    w1, w2 = run_prob(c1), run_prob(c2)
    sup1 = [i for i, w in enumerate(w1) if w]
    sup2 = [j for j, w in enumerate(w2) if w]
    width = len(w2)
    pieces = []
    for vert in coupling_vertices([w1[i] for i in sup1], [w2[j] for j in sup2]):
        coeffs = [Fraction(0)] * (len(w1) * width)
        for r, i in enumerate(sup1):
            for s, j in enumerate(sup2):
                coeffs[i * width + j] = vert[r * len(sup2) + s]
        pieces.append((Fraction(0), tuple(coeffs)))
    return prune_pieces(pieces, exact=False)


def _law_kind(lhs: RelSpec, rhs: RelSpec) -> str:
    if spec_leq(lhs, rhs).failed:
        return "violation"
    return "strictly-less" if spec_leq(rhs, lhs).failed else "equal"


def _law_scan(instances):
    """(kind, checked, witness programs): a violation ends the scan, else
    the first strictly-less instance is the witness."""
    checked, strict = 0, None
    for progs, lhs, rhs in instances:
        checked += 1
        kind = _law_kind(lhs, rhs)
        if kind == "violation":
            return kind, checked, progs
        if kind == "strictly-less" and strict is None:
            strict = progs
    if strict is not None:
        return "strictly-less", checked, strict
    return "equal", checked, None


def morphism_laws_by_instance(obs, battery):
    """The ret and bind laws of `obs` over `battery`, each as (kind, checked,
    witness programs).  Every bind instance binds its programs afresh and
    binds the middle spec to a lambda that observes each continuation pair
    when asked."""

    def rets():
        for a1, a2 in battery.rets:
            lhs = obs.map(P.ret(battery.sig1, a1), P.ret(battery.sig2, a2))
            yield (a1, a2), lhs, spec_ret(lhs.space, a1, a2)

    def binds():
        for f1, f2 in battery.fs:
            for m1, m2 in battery.ms:
                lhs = obs.map(P.bind(m1, f1), P.bind(m2, f2))
                rhs = spec_bind(obs.map(m1, m2),
                                lambda i, j, _f1=f1, _f2=f2: obs.map(_f1[i], _f2[j]))
                yield (m1, m2, f1, f2), lhs, rhs

    return _law_scan(rets()), _law_scan(binds())


def wrelexc_ret(a1: Value, e1: FiniteDomain, a2: Value, e2: FiniteDomain) -> RelSpec:
    s1 = sum_domain(a1.domain, e1)
    s2 = sum_domain(a2.domain, e2)
    o = inl_index(a1.domain, e1, a1.index) * s2.size + inl_index(a2.domain, e2, a2.index)
    return demand_spec(pure_space(s1, s2), [(1 << o,)])


def wrelexc_bind(wm: RelSpec, f1: Sequence[RelSpec], f2: Sequence[RelSpec], frel,
                 e1: FiniteDomain, e2: FiniteDomain,
                 b1dom: FiniteDomain, b2dom: FiniteDomain) -> RelSpec:
    """Sequencing over pairs of tagged outcomes.

    Both normal: the relational continuation.  One side raised: that
    exception is pinned while the other side's unary continuation fills in
    its half of the pair.  Both raised: the exception pair is final.  The
    unary continuations are one-point specs beside a unit result, so their
    outcomes index their own side's tagged results.
    """
    f1 = tuple(f1)
    f2 = tuple(f2)
    a1n, a2n = len(f1), len(f2)
    s1 = sum_domain(b1dom, e1)
    s2 = sum_domain(b2dom, e2)
    rspace = pure_space(s1, s2)
    arg2n = a2n + e2.size
    if wm.space.size != (a1n + e1.size) * arg2n:
        raise ValueError("middle spec does not cover the stated outcome pairs")
    table = []
    for k in range(wm.space.size):
        ae1, ae2 = divmod(k, arg2n)
        if ae1 < a1n and ae2 < a2n:
            t = frel[ae1][ae2]
        elif ae1 < a1n:
            err2 = b2dom.size + (ae2 - a2n)
            t = reindex_outcomes(f1[ae1], rspace, lambda be1, j=err2: be1 * s2.size + j)
        elif ae2 < a2n:
            err1 = b1dom.size + (ae1 - a1n)
            t = reindex_outcomes(f2[ae2], rspace, lambda be2, i=err1: i * s2.size + be2)
        else:
            err1 = b1dom.size + (ae1 - a1n)
            err2 = b2dom.size + (ae2 - a2n)
            t = demand_spec(rspace, [(1 << (err1 * s2.size + err2),)])
        table.append(t)
    return spec_bind(wm, table)


# ---------------------------------------------------------------------------
# Pre/post pairs over explicit tables
#
# A pair over the shape (|A1|, |S1|, |A2|, |S2|) is (pre, post): pre maps
# each initial state pair (si1, si2) to a truth value, and post is the set
# of ((si1, a1, sf1), (si2, a2, sf2)) triples it accepts, the initial,
# value and final state on each side.  PPrelPure is the shape with one
# state per side.


def pp_points(shape) -> list:
    _, n1, _, n2 = shape
    return [(s1, s2) for s1 in range(n1) for s2 in range(n2)]


def pp_triples(shape) -> list:
    a1, n1, a2, n2 = shape
    return [((si1, v1, sf1), (si2, v2, sf2))
            for si1, v1, sf1, si2, v2, sf2 in product(range(n1), range(a1), range(n1),
                                                      range(n2), range(a2), range(n2))]


def pp_ret(shape, i1: int, i2: int):
    """Every precondition holds; the post returns (i1, i2) and keeps each
    side's state."""
    return ({pt: True for pt in pp_points(shape)},
            frozenset(((s1, i1, s1), (s2, i2, s2)) for s1, s2 in pp_points(shape)))


def pp_unsatisfiable(shape):
    return {pt: False for pt in pp_points(shape)}, frozenset(pp_triples(shape))


def pp_weakest(shape):
    return {pt: True for pt in pp_points(shape)}, frozenset()


def pp_bind(m, conts):
    """m then conts[(a1, a2)].  The precondition holds at an initial pair
    when m's does and every triple m accepts from there ends where its
    continuation's precondition holds; the post composes m's post with the
    continuations' through the middle values and states."""
    pre, post = m
    bound_pre = dict(pre)
    for t1, t2 in post:
        if not conts[(t1[1], t2[1])][0][(t1[2], t2[2])]:
            bound_pre[(t1[0], t2[0])] = False
    bound_post = frozenset(
        ((t1[0], u1[1], u1[2]), (t2[0], u2[1], u2[2]))
        for t1, t2 in post for u1, u2 in conts[(t1[1], t2[1])][1]
        if (u1[0], u2[0]) == (t1[2], t2[2]))
    return bound_pre, bound_post


def pp_leq(w, w2) -> bool:
    """w <= w2: w2's precondition implies w's, and w's post lies in w2's."""
    return all(w[0][pt] for pt, ok in w2[0].items() if ok) and w[1] <= w2[1]


def pp_embed(w) -> dict:
    """The backward transformer's entry per initial pair: None where the
    precondition fails (VIOLATED), else the (a1, sf1, a2, sf2) final
    outcomes the post accepts from there."""
    pre, post = w
    return {pt: frozenset((t1[1], t1[2], t2[1], t2[2]) for t1, t2 in post
                          if (t1[0], t2[0]) == pt) if ok else None
            for pt, ok in pre.items()}


# ---------------------------------------------------------------------------
# The sampler differential


@dataclass
class SoundnessReport:
    total: int = 0
    holds: int = 0
    fails: int = 0
    failures: List[Tuple[R.Derivation, R.OracleVerdict]] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return self.fails == 0

    def __repr__(self):
        return f"SoundnessReport(total={self.total}, holds={self.holds}, fails={self.fails})"


CORPUS_EFFECTS = (P.STATE, P.IMP, P.EXC, P.NDET, P.IO, P.PROB)


def seeded_corpus(per_effect: int, effects: Sequence[str] = CORPUS_EFFECTS) -> List[R.Derivation]:
    """per_effect seeded depth-3 derivations of each effect, in this order,
    the ndet modes taking turns."""
    rng = random.Random(1)
    return [R.random_derivation(rng, effect, depth=3,
                                **({"ndet_mode": O.NDET_MODES[i % 3]} if effect == P.NDET else {}))
            for effect in effects for i in range(per_effect)]


def soundness_differential(sampler: Callable[[random.Random], R.Derivation], n: int,
                           seed: int = 0, validate: bool = False) -> SoundnessReport:
    """Oracle-check the conclusions of n sampled derivations.

    Every sampled tree is well-formed by construction (the sampler builds
    through apply_rule), so any Fails is a soundness bug in a rule; the
    report carries the smallest failing subderivation.  With validate=True
    each tree is additionally replayed through check_derivation, and a
    replay failure raises, since it means the sampler and checker disagree.
    """
    rng = random.Random(seed)
    rep = SoundnessReport()
    for _ in range(n):
        d = sampler(rng)
        rep.total += 1
        if validate:
            res = R.check_derivation(d)
            if not res.ok:
                raise R.RuleError(f"sampled derivation does not replay: {res.message} "
                                  f"at path {res.path}")
        if R.oracle_check(d.conclusion).failed:
            rep.fails += 1
            rep.failures.append(R.minimize_failure(d))
        else:
            rep.holds += 1
    return rep
