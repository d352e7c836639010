"""Rule bodies, judgment checks and the oracles work once per distinct
entry, and that changes no verdict.

`rules._each` maps a rule body's constructor over its tables once per
distinct tuple of entries, and `rules._firsts` walks the distinct tuples
for the judgment checks, `mismatch` and the oracles.  Here both are swapped
for their plain forms, which work at every valuation, and nothing may move:
the seed-1 core corpus (a slice of the one CI replays) and seeded
split-context derivations, each with mutants of them, give equal
`CheckResult`s and oracle verdicts, and every tampered-derivation test
passes as it stands.
"""

import dataclasses
import inspect

import pytest

from relwp import generic as G
from relwp import rules as R

import reference
import test_generic
import test_mutants
import test_rules
import test_whilelang


def _plain(monkeypatch):
    """Work at every valuation: bodies map their constructors over every
    entry, and the checks and oracles visit every valuation."""
    for module in (R, G):
        monkeypatch.setattr(module, "_each", lambda fn, *tables: R.Table(map(fn, *tables)))
        monkeypatch.setattr(module, "_firsts", lambda *tables: enumerate(zip(*tables)))


def _outcome(d):
    res = R.check_derivation(d)
    try:
        v = R.oracle_check(d.conclusion)
        verdict = (v.kind, v.checked, v.valuation, v.clause)
    except ValueError as e:   # a stated spec of another carrier
        verdict = str(e)
    return (res.ok, res.path, res.message), verdict


def _crossed(roots):
    """Each node restated with the (relational) spec table of the next node
    over the same context and outcome space: such a claim often fails, at
    some valuation past the first."""
    nodes = [n for d in roots for _, n in test_mutants._paths(d)]
    out = []
    for a, b in zip(nodes, nodes[1:]):
        ja, jb = a.conclusion, b.conclusion
        key = "w_table" if isinstance(ja, R.Judgment) else "wrel_table"
        wa, wb = getattr(ja, key), getattr(jb, key)
        if (type(ja) is type(jb) and getattr(ja, "env", None) == getattr(jb, "env", None)
                and getattr(ja, "ctx", None) == getattr(jb, "ctx", None)
                and wa[0].space is wb[0].space and wa != wb):
            crossed = dataclasses.replace(ja, **{key: wb})
            out.append(R.Derivation(crossed, a.rule, a.premises))
    return out


def _outcomes():
    """The outcomes of the two corpora, and of 300 mutants and the crossed
    claims of each."""
    core = reference.seeded_corpus(20)
    split = test_mutants.split_corpus(40)
    mutants = [d for roots, seed in ((core, 3), (split, 5))
               for _, _, d in test_mutants.mutants(roots, 300, seed)]
    mutants += _crossed(core) + _crossed(split)
    return [_outcome(d) for d in core + split], [_outcome(d) for d in mutants]


def test_working_once_per_distinct_entry_changes_no_verdict(monkeypatch):
    corpus, mutants = _outcomes()
    with monkeypatch.context() as m:
        _plain(m)
        assert _outcomes() == (corpus, mutants)
    # the corpora replay and hold; among the mutants, replays and oracles fail
    assert all(res[0] and v[0] == "holds" for res, v in corpus)
    assert not all(res[0] for res, _ in mutants)
    fails = [v for _, v in mutants if isinstance(v, tuple) and v[0] == "fails"]
    assert any(v[1] > 1 for v in fails) and {v[3] for v in fails} >= {None, "relational"}


TAMPERED = [
    test_rules.test_check_derivation_reports_a_tampered_leaf_with_its_path,
    test_rules.test_check_derivation_reports_side_condition_failures,
    test_rules.test_no_memo_outlives_a_check,
    test_rules.test_corrupted_inner_conclusions_fail_where_they_did,
    test_rules.test_a_tampered_coupling_fails_where_it_did,
    test_generic.test_a_tampered_split_context_node_is_reported_at_its_path,
    test_whilelang.test_a_tampered_rhl_node_is_reported_at_its_path,
    test_mutants.test_every_mutant_fails_with_a_reason_or_replays_soundly,
    test_mutants.test_every_split_context_mutant_fails_with_a_reason_or_replays_soundly,
]


@pytest.mark.parametrize("test", TAMPERED, ids=lambda t: t.__name__)
def test_a_tampered_derivation_fails_alike_when_every_entry_is_worked(monkeypatch, test):
    _plain(monkeypatch)
    test(*[monkeypatch] * ("monkeypatch" in inspect.signature(test).parameters))


def test_the_split_bind_prepares_each_distinct_continuation_triple_once(monkeypatch):
    # the Bind rule prepares the carrier's relational binder once per
    # distinct (left row, right row, relational table) of its continuation
    # premise, and binds once per distinct middle triple and binder; worked
    # at every valuation, it prepares once per pair and gives the same table
    nodes = [n for d in test_mutants.split_corpus(40) for _, n in test_mutants._paths(d)
             if n.rule.rule == "Bind"]
    shared = 0
    for node in nodes:
        jm, jf = (p.conclusion for p in node.premises)
        n1, n2 = jf.ctx.left.vars[-1][1].size, jf.ctx.right.vars[-1][1].size
        width = jf.ctx.right.count
        pairs = [(i1, i2) for i1 in range(jm.ctx.left.count) for i2 in range(jm.ctx.right.count)]
        triples = [(jf.w1_table[i1 * n1:(i1 + 1) * n1], jf.w2_table[i2 * n2:(i2 + 1) * n2],
                    tuple(tuple(jf.wrel_table[(i1 * n1 + a) * width + i2 * n2 + b]
                                for b in range(n2)) for a in range(n1)))
                   for i1, i2 in pairs]
        middles = [(jm.w1_table[i1], jm.w2_table[i2], jm.wrel_table[k], triples[k])
                   for k, (i1, i2) in enumerate(pairs)]
        for plain in (False, True):
            calls = {"prepare": 0, "bind": 0}
            counted = test_generic._counting(jm.monad, calls)
            with monkeypatch.context() as m:
                if plain:
                    _plain(m)
                got = G.SPLIT.apply(node.rule, [dataclasses.replace(p.conclusion, monad=counted)
                                                for p in node.premises])
            assert got.wrel_table == node.conclusion.wrel_table
            if plain:
                assert calls == {"prepare": len(pairs), "bind": len(pairs)}
            else:
                assert calls == {"prepare": len(set(triples)), "bind": len(set(middles))}
        shared += len(set(triples)) < len(pairs)
    assert len(nodes) > 10 and shared > 3, (len(nodes), shared)
