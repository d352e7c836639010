"""The While front end: noninterference and RHL judgments.

Noninterference verdicts are checked against a brute force over `run_stmt`
on low-equal store pairs, with store digits decoded here rather than through
the store helpers.  The specs the front end builds are checked entry by
entry against the long way round: a post table over (initial, value, final)
triples per side, |S|^4 entries for unit-valued runs, read back point by
point.
"""

import dataclasses
import random
import re
import tracemalloc
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

import reference
from relwp import domains as D
from relwp import observations as O
from relwp import programs as P
from relwp import rules as R
from relwp import specmonads as sm
from relwp import whilelang as W
from relwp.domains import BOOL, UNIT, domain
from relwp.genprog import random_program

LOW_LOCATIONS = ("l", "m")

# Explicit flow, implicit flow through if and while, and secure overwrites,
# each with its verdict on every store below.
NI_CORPUS = (
    ("l := h", False),
    ("if h then l := 1 else l := 0", False),
    ("while h do (h := h - 1; l := l + 1)", False),
    ("if h then l := 1 else l := 1", True),
    ("l := h; l := 0", True),
    ("h := l + 1", True),
    ("while h do h := h - 1", True),
    ("if l then h := 1 else skip", True),
)

STORES = {
    "2x2": (("l", "h"), 2),
    "3x3": (("l", "h", "m"), 3),
    "4x3": (("l", "h", "m", "k"), 3),   # 81 stores
}


def _store(locations, values, name=None):
    labels = {loc: W.LOW if loc in LOW_LOCATIONS else W.HIGH for loc in locations}
    return W.store_signature(locations, domain(name or f"V{values}", values), labels)


def _digits(sig, store):
    """Location values of a packed store, first location most significant."""
    out = []
    for _ in sig.locations:
        store, d = divmod(store, sig.values.size)
        out.append(d)
    return out[::-1]


def _low_view(sig, store):
    return tuple(d for loc, d in zip(sig.locations, _digits(sig, store))
                 if loc in LOW_LOCATIONS)


def ni_brute_force(sig, ast) -> bool:
    """Every pair of low-equal stores whose runs both end ends low-equal.
    Each store's run and low views are taken once, so that the pairs of 729
    stores are visited in a second."""
    n = sig.values.size ** len(sig.locations)
    views = [_low_view(sig, s) for s in range(n)]
    ends = [None if f is None else _low_view(sig, f)
            for f in (W.run_stmt(sig, ast, s) for s in range(n))]
    return all(views[s1] != views[s2] or None in (ends[s1], ends[s2]) or ends[s1] == ends[s2]
               for s1, s2 in product(range(n), repeat=2))


# ---------------------------------------------------------------------------
# Noninterference verdicts


@pytest.mark.parametrize("store", sorted(STORES))
@pytest.mark.parametrize("text,secure", NI_CORPUS)
def test_ni_corpus_verdicts_match_brute_force(store, text, secure):
    sig = _store(*STORES[store])
    ast = W.parse_while(text)
    assert ni_brute_force(sig, ast) == secure
    v = R.oracle_check(W.ni_judgment(ast, sig))
    assert (v.kind, v.checked) == ("holds" if secure else "fails", 1)


def _random_statement(rng, locations, values, depth=3) -> str:
    def expr(d):
        if d <= 0 or rng.random() < 0.5:
            return rng.choice(locations) if rng.random() < 0.6 else str(rng.randrange(values))
        op = rng.choice(("+", "-", "*", "=", "<", "&&", "||"))
        return f"({expr(d - 1)} {op} {expr(d - 1)})"

    def stmt(d):
        r = rng.random()
        if d <= 0 or r < 0.35:
            return f"{rng.choice(locations)} := {expr(1)}"
        if r < 0.6:
            return f"({stmt(d - 1)}; {stmt(d - 1)})"
        if r < 0.85:
            return f"(if {expr(1)} then {stmt(d - 1)} else {stmt(d - 1)})"
        return f"(while {expr(1)} do {stmt(d - 1)})"

    return stmt(depth)


@pytest.mark.parametrize("store", [(("l", "h"), 3), (("l", "h", "m"), 2)])
def test_ni_random_statements_match_brute_force(store):
    sig = _store(*store)
    rng = random.Random(len(store[0]) * 10 + store[1])
    verdicts = set()
    for _ in range(40):
        ast = W.parse_while(_random_statement(rng, store[0], store[1]))
        v = R.oracle_check(W.ni_judgment(ast, sig))
        assert v.holds == ni_brute_force(sig, ast) and v.holds != v.failed
        verdicts.add(v.kind)
    assert verdicts == {"holds", "fails"}


def test_ni_needs_labels():
    sig = W.store_signature(("l", "h"), domain("V2", 2))
    with pytest.raises(ValueError, match="labelled"):
        W.ni_judgment(W.parse_while("l := h"), sig)


def test_a_labelling_in_any_order_is_the_directly_built_signature():
    # a signature built directly is validated (`test_canonical`) and canonical
    v2 = domain("V2", 2)
    direct = W.StoreSignature(("l", "h"), v2, (("l", W.LOW), ("h", W.HIGH)))
    assert W.store_signature(["l", "h"], v2, {"h": W.HIGH, "l": W.LOW}) is direct
    assert W.store_domain(direct).size == 4 and direct.label("h") == W.HIGH


def test_store_domain_is_built_once_per_signature():
    sig = _store(("l", "h"), 2)
    dom = W.store_domain(sig)
    assert W.store_domain(sig) is dom
    assert W.store_domain(_store(("l", "h"), 2)) is dom
    assert dom.name == "store[l,h:2]"
    assert dom.labels == ("l=0,h=0", "l=0,h=1", "l=1,h=0", "l=1,h=1")
    # past 64 stores no labels are formatted
    assert W.store_domain(_store(("l", "h", "m", "k"), 3)).labels is None
    assert W.store_domain(_store(("l", "h"), 3)) is not dom


# ---------------------------------------------------------------------------
# The final-state embedding against the quadruple table


def _entries(w):
    """A demonic spec's entry at every point."""
    return tuple(w.demonic_at(pt) for pt in w.space.points())


def reference_table(space, pre, post6):
    """Demonic entries of {pre} _ ~ _ {post6}, where post6 reads the initial
    state, value and final state of each side: the post is tabulated over
    every (initial, value, final) pair of triples, then each point where pre
    holds collects the outcomes its row of the table accepts."""
    pp = sm.pp_state_space(space.a1, space.s1, space.a2, space.s2)
    quad = [False] * (pp.point_count * pp.size)
    for si1, a1, sf1, si2, a2, sf2 in product(
            range(space.s1.size), range(space.a1.size), range(space.s1.size),
            range(space.s2.size), range(space.a2.size), range(space.s2.size)):
        quad[pp.pp_post_index(si1, a1, sf1, si2, a2, sf2)] = bool(post6(si1, a1, sf1, si2, a2, sf2))
    entries = []
    for pt in space.points():
        si1, si2 = space.point_split(pt)
        if not pre[pt]:
            entries.append(sm.VIOLATED)
            continue
        entries.append(frozenset(
            space.st_outcome(a1, sf1, a2, sf2)
            for a1, sf1, a2, sf2 in product(range(space.a1.size), range(space.s1.size),
                                            range(space.a2.size), range(space.s2.size))
            if quad[pp.pp_post_index(si1, a1, sf1, si2, a2, sf2)]))
    # the general embedding reads the same table the same way
    assert _entries(sm.from_prepost(space, pre, quad)) == tuple(entries)
    return tuple(entries)


SMALL_STORES = [(("l", "h"), 2), (("l", "h", "m"), 2), (("l", "h"), 3)]   # 4, 8, 9 states


@pytest.mark.parametrize("store", SMALL_STORES)
def test_ni_spec_is_the_quadruple_table_embedding(store):
    sig = _store(*store)
    w = W.ni_judgment(W.parse_while("l := h"), sig).spec()
    n = w.space.s1.size
    low_eq = [_low_view(sig, s1) == _low_view(sig, s2) for s1 in range(n) for s2 in range(n)]
    ref = reference_table(w.space, low_eq,
                          lambda _i1, _a1, f1, _i2, _a2, f2: low_eq[f1 * n + f2])
    assert _entries(w) == ref
    # one satisfying set, shared by every low-equal point
    assert len({id(f) for f in w.fams if f}) == 1


@pytest.mark.parametrize("store", SMALL_STORES)
def test_rhl_spec_is_the_quadruple_table_embedding(store):
    sig = _store(*store)
    n = sig.values.size ** len(sig.locations)
    rng = random.Random(n)
    ast = W.parse_while("l := h + 1")
    for _ in range(5):
        pre = tuple(rng.random() < 0.5 for _ in range(n * n))
        post = tuple(rng.random() < 0.5 for _ in range(n * n))
        w = W.RHLInstance(sig, ast, ast, pre, post).judgment().spec()
        assert _entries(w) == reference_table(
            w.space, pre, lambda _i1, _a1, f1, _i2, _a2, f2: post[f1 * n + f2])


@pytest.mark.parametrize("sizes", [(2, 2), (2, 3), (3, 2)])
def test_loop_specs_are_the_quadruple_table_embedding(sizes):
    s1, s2 = domain("A", sizes[0]), domain("B", sizes[1])
    rng = random.Random(sum(sizes))
    for _ in range(4):
        inv = tuple(tuple(tuple(tuple(rng.random() < 0.5 for _ in range(s2.size))
                                for _ in range(s1.size)) for _ in range(2)) for _ in range(2))
        pre = [inv[1][1][i][j] for i in range(s1.size) for j in range(s2.size)]
        prem = R.loop_premise_spec(inv, s1, s2)
        assert (prem.space.a1, prem.space.a2) == (BOOL, BOOL)
        assert _entries(prem) == reference_table(
            prem.space, pre, lambda _i1, b1, f1, _i2, b2, f2: b1 == b2 and inv[b1][b2][f1][f2])
        concl = R.loop_conclusion_spec(inv, s1, s2)
        assert (concl.space.a1, concl.space.a2) == (UNIT, UNIT)
        assert _entries(concl) == reference_table(
            concl.space, pre, lambda _i1, _a1, f1, _i2, _a2, f2: inv[0][0][f1][f2])


def test_final_post_checks_its_tables():
    space = sm.state_space(UNIT, BOOL, UNIT, BOOL)
    with pytest.raises(ValueError, match="cover every point"):
        sm.from_final_post(space, [True] * 3, [True] * 4)
    with pytest.raises(ValueError, match="every outcome"):
        sm.from_final_post(space, [True] * 4, [True] * 5)
    with pytest.raises(ValueError, match="pure or stateful"):
        sm.from_final_post(sm.err_space(UNIT, UNIT), [True], [True] * 2)


def test_ni_judgment_builds_nothing_quartic(monkeypatch):
    # Every table and domain built while judging stays within |S| entries:
    # the spec is four key tuples, one key per store, and the oracle reads
    # the runs class by class, so no table over store pairs is built.  Both
    # sides are one program, which runs once per initial store: its runs are
    # kept on the program.  Domains are canonical and live for the process:
    # a high location no other test uses keeps the store domain fresh
    sig = _store(("l", "hq"), 2, name="Vcost")
    n = 4
    sizes, domains = [], []
    init, kernel_init = sm.RelSpec.__init__, sm.KernelSpec.__init__

    def recording_init(self, *args, **kw):
        init(self, *args, **kw)
        # the slot itself: reading a kernel spec's `fams` would build them
        sizes.extend(len(t) for t in (sm.RelSpec.fams.__get__(self), self.pre)
                     if isinstance(t, tuple))

    def recording_kernel_init(self, space, keys):
        kernel_init(self, space, keys)
        sizes.extend(map(len, keys))

    post_init = D.FiniteDomain.__post_init__

    def recording_post_init(self):
        post_init(self)
        sizes.append(self.size)
        domains.append((self.name, self.size))

    monkeypatch.setattr(sm.RelSpec, "__init__", recording_init)
    monkeypatch.setattr(sm.KernelSpec, "__init__", recording_kernel_init)
    monkeypatch.setattr(D.FiniteDomain, "__post_init__", recording_post_init)
    seen = {"runs": 0, "depth": 0}
    run_imp = P.run_imp

    def counted(c, s):
        # the evaluator recurses through its module name: count outermost calls
        seen["runs"] += seen["depth"] == 0
        seen["depth"] += 1
        try:
            return run_imp(c, s)
        finally:
            seen["depth"] -= 1

    monkeypatch.setattr(P, "run_imp", counted)
    for text, secure in NI_CORPUS:
        ast = W.parse_while(re.sub(r"\bh\b", "hq", text))
        j = W.ni_judgment(ast, sig)
        assert R.oracle_check(j).holds == secure
        assert sm.RelSpec.fams.__get__(j.spec()) is None
    store = W.store_domain(sig)
    assert store.size == n and (store.name, n) in domains, domains
    assert sizes and max(sizes) <= n, sizes
    assert seen["runs"] == n * len(NI_CORPUS)


def test_ni_check_builds_no_domain_past_the_store(monkeypatch):
    # Outcome spaces count their outcomes and points by arithmetic, so no
    # product of store domains is built, labels and all.  Domains are
    # canonical and live for the process: locations no other test uses
    # keep the store pairs' spaces fresh.
    sig = _store(("m", "h"), 3)     # 9 stores
    store = W.store_domain(sig)
    built = []
    post_init = D.FiniteDomain.__post_init__

    def recording_post_init(self):
        post_init(self)
        built.append(self.size)

    monkeypatch.setattr(D.FiniteDomain, "__post_init__", recording_post_init)
    judgment = W.ni_judgment(W.parse_while("while h do (h := h - 1; m := m + 1)"), sig)
    assert not R.oracle_check(judgment).holds
    assert max(built, default=0) <= store.size, sorted(built)


def _pointwise_ni(ast, sig):
    """NI through the point-wise path: θ_part built over every store pair and
    compared by `spec_leq` with the |S|^2 tables of `_store_pair_spec`, low
    views decoded here."""
    c = W.translate(ast, sig)
    n = W.store_domain(sig).size
    views = [_low_view(sig, s) for s in range(n)]
    rel = [v1 == v2 for v1 in views for v2 in views]
    return R.judgment(O.observation_part(), c, c, W._store_pair_spec(sig, rel, rel))


def test_a_5x3_ni_check_traces_under_64_mib():
    # The point-wise path, which RHL tables take and which the kernel path is
    # checked against: θ_part's families hold one |S|^2-bit mask per distinct
    # joint outcome, not one per store pair, so 243 stores trace about
    # 25 MiB, where a mask per point traced 190 MiB.
    sig = W.store_signature(("l", "h0", "h1", "h2", "h3"), domain("Vtm3", 3),
                            {"l": W.LOW, "h0": W.HIGH, "h1": W.HIGH, "h2": W.HIGH, "h3": W.HIGH})
    judgment = _pointwise_ni(W.parse_while("while h0 do (h0 := h0 - 1; l := l + 1)"), sig)
    tracemalloc.start()
    try:
        verdict = R.oracle_check(judgment)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert verdict.failed
    assert peak <= 64 * 2 ** 20, f"{peak / 2 ** 20:.0f} MiB"


# ---------------------------------------------------------------------------
# The kernel path against the point-wise path and the brute force

DIFF_STORES = {
    "2x2": (("l", "h"), 2),
    "2x3": (("l", "h"), 3),
    "3x2": (("l", "h", "m"), 2),
    "3x3": (("l", "h", "m"), 3),
    "3x3-two-high": (("l", "h", "k"), 3),
    "4x3": (("l", "h", "m", "k"), 3),
}


def _failing_point(v):
    return v.inner.point if v.failed else None


def _same_verdicts(j, ref):
    v, v_ref = R.oracle_check(j), R.oracle_check(ref)
    assert (v.kind, v.checked, _failing_point(v)) == \
        (v_ref.kind, v_ref.checked, _failing_point(v_ref))
    # read after the verdict, the kernel spec builds the point-wise families
    assert j.spec().fams == ref.spec().fams
    return v


def _named_stores(sig, note):
    """The initial and final stores a kernel failure's note names, as
    indices: labels on a labelled store domain, indices past it."""
    names = re.fullmatch(r"left store (\S+) ends in (\S+) and right store (\S+) in (\S+): "
                         r"their pre keys agree, their post keys differ", note).groups()
    labels = W.store_domain(sig).labels
    return [labels.index(x) if labels else int(x) for x in names]


def _check_failure_note(sig, ast, v):
    s1, f1, s2, f2 = _named_stores(sig, v.inner.note)
    assert v.inner.phi is None
    assert v.inner.point == s1 * W.store_domain(sig).size + s2
    assert (W.run_stmt(sig, ast, s1), W.run_stmt(sig, ast, s2)) == (f1, f2)
    assert _low_view(sig, s1) == _low_view(sig, s2)
    assert _low_view(sig, f1) != _low_view(sig, f2)


@pytest.mark.parametrize("store", sorted(DIFF_STORES))
def test_ni_kernel_path_matches_the_point_wise_path_and_the_brute_force(store):
    locations, values = DIFF_STORES[store]
    sig = _store(locations, values)
    rng = random.Random(f"kernel-{store}")
    texts = [text for text, _ in NI_CORPUS] + [
        _random_statement(rng, locations, values) for _ in range(12)]
    kinds = set()
    for text in texts:
        ast = W.parse_while(text)
        v = _same_verdicts(W.ni_judgment(ast, sig), _pointwise_ni(ast, sig))
        assert v.holds == ni_brute_force(sig, ast)
        if v.failed:
            _check_failure_note(sig, ast, v)
        kinds.add(v.kind)
    assert kinds == {"holds", "fails"}


@pytest.mark.parametrize("result", [UNIT, BOOL])
def test_kernel_spec_on_two_programs_is_the_final_post_embedding(result):
    # c1 ~ c2 with pre keys other than the post keys, on unit-valued
    # translations and on bool-valued random imp programs, whose one-side
    # outcomes carry the value as well as the final state
    rng = random.Random(f"two-programs-{result.name}")
    sig = _store(("l", "h"), 3)
    sdom = W.store_domain(sig)
    n, width = sdom.size, result.size * sdom.size
    space = sm.state_space(result, sdom, result, sdom)
    kinds = set()
    for _ in range(16):
        if result is UNIT:
            c1, c2 = (W.translate(W.parse_while(_random_statement(rng, ("l", "h"), 3)), sig)
                      for _ in range(2))
        else:
            c1, c2 = (random_program(rng, P.imp_sig(sdom), result, 3) for _ in range(2))
        pre1, pre2 = ([rng.randrange(2) for _ in range(n)] for _ in range(2))
        post1, post2 = ([rng.randrange(3) for _ in range(width)] for _ in range(2))
        w = sm.kernel_spec(space, pre1, pre2, post1, post2)
        ref = sm.from_final_post(space, [k1 == k2 for k1 in pre1 for k2 in pre2],
                                 [k1 == k2 for k1 in post1 for k2 in post2])
        obs = O.observation_part()
        v = _same_verdicts(R.judgment(obs, c1, c2, w), R.judgment(obs, c1, c2, ref))
        kinds.add(v.kind)
    assert kinds == {"holds", "fails"}


def test_the_kernel_path_refuses_what_the_point_wise_path_refuses():
    sig = _store(("l", "h"), 2)
    sdom = W.store_domain(sig)
    w = sm.kernel_spec(sm.state_space(UNIT, sdom, UNIT, sdom), *[[0, 0, 1, 1]] * 4)
    obs = O.observation_part()
    c = W.translate(W.parse_while("l := h"), sig)
    other = W.translate(W.parse_while("l := h"), _store(("l", "h", "m"), 2))
    with pytest.raises(ValueError, match="different outcome spaces"):
        O.theta_leq(obs, c, other, w)
    raises = P.throw(P.exc_sig(UNIT), UNIT.value(0), UNIT)
    with pytest.raises(ValueError, match="theta_part expects"):
        O.theta_leq(obs, raises, c, w)


@pytest.mark.parametrize("text,secure", [
    ("while h0 do (h0 := h0 - 1; l := l + 1)", False),
    ("while h0 do h0 := h0 - 1", True),
    ("if h3 then h1 := l else h2 := l + 1", True),
    ("if h3 < h1 then l := 2 else skip", False),
])
def test_a_6x3_ni_check_matches_the_brute_force(text, secure):
    names = ("l", "h0", "h1", "h2", "h3", "h4")
    sig = W.store_signature(names, domain("V3", 3),
                            {n: W.LOW if n == "l" else W.HIGH for n in names})
    ast = W.parse_while(text)
    assert ni_brute_force(sig, ast) == secure
    v = R.oracle_check(W.ni_judgment(ast, sig))
    assert (v.kind, v.checked) == ("holds" if secure else "fails", 1)
    if v.failed:
        _check_failure_note(sig, ast, v)


def test_a_7x3_kernel_check_traces_under_16_mib_and_builds_no_families():
    # 2,187 stores: the families would hold 4.8 M points, and the point-wise
    # θ_part one mask per distinct joint outcome of 4.8 M bits each
    names = ("l", "h0", "h1", "h2", "h3", "h4", "h5")
    sig = W.store_signature(names, domain("V3", 3),
                            {n: W.LOW if n == "l" else W.HIGH for n in names})
    ast = W.parse_while("while h0 do (h0 := h0 - 1; l := l + 1)")
    tracemalloc.start()
    try:
        judgment = W.ni_judgment(ast, sig)
        verdict = R.oracle_check(judgment)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert verdict.failed
    _check_failure_note(sig, ast, verdict)
    assert sm.RelSpec.fams.__get__(judgment.spec()) is None
    assert peak <= 16 * 2 ** 20, f"{peak / 2 ** 20:.0f} MiB"


# ---------------------------------------------------------------------------
# RHL instances through the oracle

SIG = _store(("l", "h"), 2)
N = 4


def _lo(s):
    return _digits(SIG, s)[0]


LOW_EQ = W.rel_table(SIG, lambda i, j: _lo(i) == _lo(j))


def _expr(text):
    return W.parse_while("x := " + text).expr


def _guarded(pre, g, want):
    return tuple(pre[k] and g[k // N] == want and g[k % N] == want for k in range(N * N))


def _rhl_instances():
    g = _expr("l")
    gt = W.guard_table(SIG, g)
    out = {
        "assign": W.apply_rhl_rule("Assign", sig=SIG, loc1="l", expr1=_expr("h"),
                                   loc2="l", expr2=_expr("h"), post=LOW_EQ),
        "assign-two-locations": W.apply_rhl_rule(
            "Assign", sig=SIG, loc1="l", expr1=_expr("l + 1"), loc2="h", expr2=_expr("l"),
            post=W.rel_table(SIG, lambda i, j: _lo(i) == _digits(SIG, j)[1] + 1 or _lo(i) == 0)),
        "assign-leak": W.RHLInstance(SIG, W.Assign("l", _expr("h")), W.Assign("l", _expr("h")),
                                     LOW_EQ, LOW_EQ),
    }
    one = W.apply_rhl_rule("Assign", sig=SIG, loc1="l", expr1=_expr("1"),
                           loc2="l", expr2=_expr("1"), post=LOW_EQ)
    jt = W.apply_rhl_rule("Consequence", [one], pre=_guarded(LOW_EQ, gt, True), post=LOW_EQ)
    skip = W.apply_rhl_rule("Skip", sig=SIG, pre=_guarded(LOW_EQ, gt, False))
    jf = W.apply_rhl_rule("Consequence", [skip], pre=_guarded(LOW_EQ, gt, False), post=LOW_EQ)
    out["if-sync"] = W.apply_rhl_rule("IfSync", [jt, jf], cond1=g, cond2=g, pre=LOW_EQ)
    high_if = W.parse_while("if h then l := 1 else skip")
    out["if-leak"] = W.RHLInstance(SIG, high_if, high_if, LOW_EQ, LOW_EQ)
    dec = W.apply_rhl_rule("Assign", sig=SIG, loc1="l", expr1=_expr("l - 1"),
                           loc2="l", expr2=_expr("l - 1"), post=LOW_EQ)
    jb = W.apply_rhl_rule("Consequence", [dec], pre=_guarded(LOW_EQ, gt, True), post=LOW_EQ)
    out["while-sync"] = W.apply_rhl_rule("WhileSync", [jb], cond1=g, cond2=g, inv=LOW_EQ)
    loop = out["while-sync"].left
    out["while-wrong-post"] = W.RHLInstance(
        SIG, loop, loop, LOW_EQ, W.rel_table(SIG, lambda i, j: _lo(i) == 1 and _lo(j) == 1))
    return out


# Verdicts, and the point of the first refutation, as the quadruple-table
# embedding decided them.
ADMISSIBLE = {
    "assign": ("holds", None),
    "assign-two-locations": ("holds", None),
    "assign-leak": ("fails", 1),
    "if-sync": ("holds", None),
    "if-leak": ("fails", 1),
    "while-sync": ("holds", None),
    "while-wrong-post": ("fails", 0),
}


def test_admissible_verdicts_of_rule_built_and_hand_made_instances():
    insts = _rhl_instances()
    assert set(insts) == set(ADMISSIBLE)
    assert W.show_stmt(insts["if-sync"].left) == "if l then l := 1 else skip"
    assert W.show_stmt(insts["while-sync"].left) == "while l do l := l - 1"
    for name, inst in insts.items():
        v = R.oracle_check(inst)
        point = v.inner.point if v.failed else None
        assert (v.kind, point) == ADMISSIBLE[name], name


# ---------------------------------------------------------------------------
# Concrete syntax and the translation, against the direct interpreter


_ops = st.sampled_from(("+", "-", "*", "=", "<", "<=", "&&", "||"))
_exprs = st.recursive(
    st.one_of(st.integers(0, 12).map(W.Lit), st.sampled_from(("l", "h", "m")).map(W.Loc)),
    lambda sub: st.one_of(
        sub.map(W.Not),
        st.builds(W.BinOp, _ops, sub, sub)),
    max_leaves=6)

_stmts = st.recursive(
    st.one_of(st.just(W.Skip()), st.builds(W.Assign, st.sampled_from(("l", "h", "m")), _exprs)),
    lambda sub: st.one_of(
        st.builds(W.Seq, sub, sub),
        st.builds(W.If, _exprs, sub, sub),
        st.builds(W.While, _exprs, sub)),
    max_leaves=8)


@settings(deadline=None, max_examples=300)
@given(_stmts)
def test_show_then_parse_is_the_identity(ast):
    assert W.parse_while(W.show_stmt(ast)) == ast


@pytest.mark.parametrize("values", [2, 3])
def test_run_stmt_matches_the_translated_program(values):
    sig = _store(("l", "h"), values)
    sdom = W.store_domain(sig)
    rng = random.Random(values)
    texts = [text for text, _ in NI_CORPUS]
    texts += [_random_statement(rng, ("l", "h"), values) for _ in range(60)]
    outcomes = set()
    for text in texts:
        ast = W.parse_while(text)
        prog = W.translate(ast, sig)
        for store in range(sdom.size):
            want = W.run_stmt(sig, ast, store)
            got = P.run_imp(prog, sdom.value(store))
            assert (None if got is None else got[1].index) == want, (text, store)
            outcomes.add(want is None)
    assert outcomes == {True, False}    # both divergence and termination occur


@pytest.mark.parametrize("store", [(("l", "h"), 2), (("l", "h"), 3),
                                   (("l", "h", "m"), 2), (("l", "h", "m"), 3)])
def test_translate_equals_the_per_store_elaboration(store):
    sig = _store(*store)
    rng = random.Random(len(store[0]) * 10 + store[1])
    texts = [text for text, _ in NI_CORPUS]
    texts += [_random_statement(rng, *store) for _ in range(50)]
    for text in texts:
        ast = W.parse_while(text)
        got, want = W.translate(ast, sig), reference.translate_by_store(ast, sig)
        assert got == want and got.depth == want.depth and hash(got) == hash(want), text


_SIGS_LHM = {m: _store(("l", "h", "m"), m) for m in (2, 3)}


@settings(deadline=None, max_examples=300)
@given(_exprs, st.sampled_from((2, 3)))
def test_expr_table_is_eval_expr_at_every_store(e, values):
    sig = _SIGS_LHM[values]
    table = W.expr_table(sig, e)
    assert table == tuple(W.eval_expr(sig, e, s) for s in range(values ** 3))
    assert W.guard_table(sig, e) == tuple(v != 0 for v in table)
    assert W.assign_table(sig, "h", e) == tuple(
        W.store_write(sig, s, "h", table[s]) for s in range(values ** 3))


def test_table_evaluators_reject_undeclared_locations():
    sig = _store(("l", "h"), 2)
    with pytest.raises(ValueError, match="undeclared location 'm'"):
        W.expr_table(sig, _expr("l + m"))
    with pytest.raises(ValueError, match="undeclared location 'm'"):
        W.assign_table(sig, "m", _expr("l"))
    with pytest.raises(TypeError, match="not an expression"):
        W.expr_table(sig, W.BinOp("/", W.Lit(1), W.Lit(1)))


def test_elaboration_and_rhl_assign_never_evaluate_store_by_store(monkeypatch):
    def refuse(*_args):
        raise AssertionError("evaluated one store at a time")

    monkeypatch.setattr(W, "eval_expr", refuse)
    monkeypatch.setattr(W, "store_write", refuse)
    sig = _store(("l", "h", "m"), 3)
    for text, _ in NI_CORPUS:
        W.ni_judgment(W.parse_while(text), sig)
    n = W.store_domain(sig).size
    inst = W.apply_rhl_rule("Assign", sig=sig, loc1="l", expr1=_expr("h + 1"),
                            loc2="m", expr2=_expr("l * h"), post=(True,) * (n * n))
    assert inst.pre == (True,) * (n * n)


def test_a_second_translation_builds_no_leaves(monkeypatch):
    # a value domain no other test uses keeps the signature's tables fresh
    sig = _store(("l", "h"), 3, name="Vleaves")
    puts = []
    put = P.put
    monkeypatch.setattr(P, "put", lambda *args: puts.append(args) or put(*args))
    W.translate(W.parse_while("l := h"), sig)
    assert len(puts) == 9       # one write per store
    puts.clear()
    W.translate(W.parse_while("while h do (h := h - 1; l := l + 1)"), sig)
    assert puts == []


@pytest.mark.parametrize("bad", [99, 4, -1])
def test_store_helpers_reject_indices_outside_the_store_domain(bad):
    sig = _store(("l", "h"), 2)   # 4 stores
    reads_l = _expr("l + 1")
    with pytest.raises(ValueError, match="outside"):
        W.store_read(sig, bad, "l")
    with pytest.raises(ValueError, match="outside"):
        W.store_write(sig, bad, "l", 0)
    with pytest.raises(ValueError, match="outside"):
        W.eval_expr(sig, reads_l, bad)
    with pytest.raises(ValueError, match="outside"):
        W.run_stmt(sig, W.parse_while("skip"), bad)
    # in range, each helper reads and writes the digits as before
    for store in range(4):
        l, h = _digits(sig, store)
        assert W.store_read(sig, store, "l") == l and W.store_read(sig, store, "h") == h
        assert W.store_write(sig, store, "l", 1 - l) == (1 - l) * 2 + h
        assert W.eval_expr(sig, reads_l, store) == (l + 1) % 2
        assert W.run_stmt(sig, W.parse_while("skip"), store) == store
        assert W.run_stmt(sig, W.parse_while("l := h"), store) == h * 2 + h


# ---------------------------------------------------------------------------
# RHL soundness: every rule maps admissible premises to an admissible
# conclusion.  Premises are built semantically, with postconditions that
# contain every pair of final stores the runs reach, so the oracle accepts
# them by construction; the rule under test is then the only thing left to
# go wrong.

_GUARDS = ("l", "h", "l = h", "l < h", "1 - l", "l && h", "l || h", "0", "1")
_SOUNDNESS_TRIALS = 20


def _run_pairs(pre, c1, c2):
    """Pairs of final stores reached from the pairs in `pre` (both runs
    terminating), as a set of pair indices."""
    out = set()
    for k in range(N * N):
        if pre[k]:
            f1, f2 = W.run_stmt(SIG, c1, k // N), W.run_stmt(SIG, c2, k % N)
            if f1 is not None and f2 is not None:
                out.add(f1 * N + f2)
    return out


def _table(pairs):
    return tuple(k in pairs for k in range(N * N))


def _random_table(rng):
    return tuple(rng.random() < 0.5 for _ in range(N * N))


def _widen(rng, table):
    return tuple(v or rng.random() < 0.2 for v in table)


def _narrow(rng, table):
    return tuple(v and rng.random() < 0.8 for v in table)


def _stmt(rng):
    return W.parse_while(_random_statement(rng, ("l", "h"), 2, depth=2))


def _valid(rng, pre, c1, c2, post=None):
    """{pre} c1 ~ c2 {post}, where post defaults to the reached pairs
    widened at random; the oracle must accept it."""
    if post is None:
        post = _widen(rng, _table(_run_pairs(pre, c1, c2)))
    inst = W.RHLInstance(SIG, c1, c2, tuple(pre), tuple(post))
    assert R.oracle_check(inst).holds
    return inst


def _branch_post(rng, parts):
    reached = set()
    for pre, c1, c2 in parts:
        reached |= _run_pairs(pre, c1, c2)
    return _widen(rng, _table(reached))


def _invariant(rng, g1, g2, b1, b2):
    """A random set of store pairs on which the guards agree, closed under
    running both bodies from its guard-true pairs; None when the closure
    reaches a pair where the guards disagree."""
    inv = {k for k in range(N * N) if g1[k // N] == g2[k % N] and rng.random() < 0.4}
    todo = list(inv)
    while todo:
        k = todo.pop()
        i, j = divmod(k, N)
        if g1[i] != g2[j]:
            return None
        if g1[i]:
            f1, f2 = W.run_stmt(SIG, b1, i), W.run_stmt(SIG, b2, j)
            if f1 is not None and f2 is not None and f1 * N + f2 not in inv:
                inv.add(f1 * N + f2)
                todo.append(f1 * N + f2)
    return _table(inv)


def _rhl_case(name, rng):
    """Premises the oracle accepts and the parameters that make `name`
    apply to them."""
    if name == "Skip":
        return [], dict(sig=SIG, pre=_random_table(rng))
    if name in ("Assign", "AssignL", "AssignR"):
        params = dict(sig=SIG, post=_random_table(rng))
        for side in ("1", "2"):
            if name != ("AssignR" if side == "1" else "AssignL"):
                params["loc" + side] = rng.choice(("l", "h"))
                params["expr" + side] = _expr(rng.choice(_GUARDS))
        return [], params
    if name == "Seq":
        j1 = _valid(rng, _random_table(rng), _stmt(rng), _stmt(rng))
        return [j1, _valid(rng, j1.post, _stmt(rng), _stmt(rng))], {}
    if name == "Consequence":
        j = _valid(rng, _random_table(rng), _stmt(rng), _stmt(rng))
        return [j], dict(pre=_narrow(rng, j.pre), post=_widen(rng, j.post))
    e1, e2, g1, g2 = _guard_pair(rng)
    if name == "IfSync":
        pre = tuple(v and g1[k // N] == g2[k % N] for k, v in enumerate(_random_table(rng)))
        pt, pf = _guarded_both(pre, g1, g2, True), _guarded_both(pre, g1, g2, False)
        ct, cf = (_stmt(rng), _stmt(rng)), (_stmt(rng), _stmt(rng))
        post = _branch_post(rng, [(pt, *ct), (pf, *cf)])
        return ([_valid(rng, pt, *ct, post), _valid(rng, pf, *cf, post)],
                dict(cond1=e1, cond2=e2, pre=pre))
    if name in ("IfL", "IfR"):
        pre = _random_table(rng)
        g, left = (g1, True) if name == "IfL" else (g2, False)
        on = lambda k: g[k // N] if left else g[k % N]
        pt = tuple(v and on(k) for k, v in enumerate(pre))
        pf = tuple(v and not on(k) for k, v in enumerate(pre))
        shared = _stmt(rng)
        branches = [(_stmt(rng), shared) if left else (shared, _stmt(rng)) for _ in range(2)]
        post = _branch_post(rng, [(pt, *branches[0]), (pf, *branches[1])])
        params = dict(cond1=e1) if left else dict(cond2=e2)
        params["pre"] = pre
        return [_valid(rng, pt, *branches[0], post), _valid(rng, pf, *branches[1], post)], params
    assert name == "WhileSync", name
    for _ in range(100):
        e1, e2, g1, g2 = _guard_pair(rng)
        b1, b2 = _stmt(rng), _stmt(rng)
        inv = _invariant(rng, g1, g2, b1, b2)
        if inv is not None:
            jb = _valid(rng, _guarded_both(inv, g1, g2, True), b1, b2, inv)
            return [jb], dict(cond1=e1, cond2=e2, inv=inv)
    raise AssertionError("no invariant found")


def _guard_pair(rng):
    e1, e2 = _expr(rng.choice(_GUARDS)), _expr(rng.choice(_GUARDS))
    return e1, e2, W.guard_table(SIG, e1), W.guard_table(SIG, e2)


def _guarded_both(pre, g1, g2, want):
    return tuple(pre[k] and g1[k // N] == want and g2[k % N] == want for k in range(N * N))


# Premises the oracle accepts enter a derivation as hypotheses: instances of
# a type whose catalogue has one rule, restating the instance it is given.
_HYPOTHESES = R.Catalogue()


class _Hypothesis(W.RHLInstance):
    catalogue = _HYPOTHESES


@_HYPOTHESES.rule("Hypothesis", arity=0)
def _restate(r, _prem):
    return r.need("inst")


def _hypothesis(inst):
    h = _Hypothesis(inst.sig, inst.left, inst.right, inst.pre, inst.post)
    return R.Derivation(h, R.rule("Hypothesis", inst=h))


def test_rhl_rules_preserve_admissibility():
    rng = random.Random(2019)
    assert set(W.rhl_rule_names()) == {
        "Assign", "AssignL", "AssignR", "Consequence", "IfL", "IfR", "IfSync",
        "Seq", "Skip", "WhileSync"}
    for name in W.rhl_rule_names():
        for trial in range(_SOUNDNESS_TRIALS):
            premises, params = _rhl_case(name, rng)
            concl = W.apply_rhl_rule(name, premises, **params)
            v = R.oracle_check(concl)
            assert v.holds, (name, trial, W.show_stmt(concl.left), W.show_stmt(concl.right), v)
            # the same step as a derivation over its premises replays
            d = W.RHL.derive(name, [_hypothesis(p) for p in premises], **params)
            assert R.check_derivation(d).ok, (name, trial, R.check_derivation(d))
            assert d.conclusion == concl and R.oracle_check(d.conclusion).holds


def test_a_tampered_rhl_node_is_reported_at_its_path():
    one = W.RHL.derive("Assign", sig=SIG, loc1="l", expr1=_expr("1"),
                       loc2="l", expr2=_expr("1"), post=LOW_EQ)
    skip = W.RHL.derive("Skip", sig=SIG, pre=LOW_EQ)
    d = W.RHL.derive("Seq", (one, W.RHL.derive("Seq", (skip, skip))))
    assert R.check_derivation(d).ok and R.oracle_check(d.conclusion).holds
    inner = d.premises[1]
    wrong = dataclasses.replace(skip, conclusion=dataclasses.replace(
        skip.conclusion, right=W.parse_while("l := 0")))
    tampered = dataclasses.replace(d, premises=(one, dataclasses.replace(inner, premises=(skip, wrong))))
    res = R.check_derivation(tampered)
    assert (res.ok, res.path) == (False, (1, 1))
    assert res.message == "Skip: stated right differs from the rule's conclusion"
