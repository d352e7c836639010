"""Mutation harness: a malformed derivation fails with a reason, never with
an exception, and a mutant that still replays is sound.

Seeded core derivations of all six effects, seeded split-context
derivations over the exception carrier, and seeded RHL derivations are
mutated one node at a time, in five ways: one parameter taken from another
node, all parameters taken from another node, the premises replaced by
other nodes, the stated conclusion replaced by another node's, and a
stated spec table swapped for one of another carrier (for RHL, the stated
judgment moved to another store signature of the same size).  The
ancestors of the mutated node keep their stated conclusions.  Every mutant
must give a `CheckResult`, and every one that replays must have a
conclusion the oracle holds: soundness on adversarial trees, not only on
generated ones.
"""

import dataclasses
import random

from relwp import generic as G
from relwp import rules as R
from relwp import specmonads as sm
from relwp import whilelang as W
from relwp.domains import UNIT, domain

import reference
import test_generic
import test_whilelang

# a spec of the stateful carrier, which no split-context clause compares with
OTHER = sm.weakest(sm.state_space(UNIT, domain("Z2", 2), UNIT, domain("Z2", 2)))
# a store signature with as many stores as the RHL corpus's, over other
# locations
OTHER_SIG = W.store_signature(("a", "b"), domain("V", 2), {"a": W.LOW, "b": W.HIGH})


def _paths(d, path=()):
    """Every node of d with its path of premise indices from the root."""
    yield path, d
    for i, sub in enumerate(d.premises):
        yield from _paths(sub, path + (i,))


def _at(d, path):
    for i in path:
        d = d.premises[i]
    return d


def _replace(d, path, node):
    """d with the node at path replaced; the ancestors keep their conclusions."""
    if not path:
        return node
    i, rest = path[0], path[1:]
    premises = d.premises[:i] + (_replace(d.premises[i], rest, node),) + d.premises[i + 1:]
    return R.Derivation(d.conclusion, d.rule, premises)


def _mutate(rng, kind, node, nodes):
    """One mutant of node, drawing donors from nodes; None when the kind
    does not apply (no shared parameter, no premise, no other carrier)."""
    donor = rng.choice(nodes)
    if kind == "one parameter":
        shared = sorted(set(node.rule.params) & set(donor.rule.params))
        if not shared:
            return None
        key = rng.choice(shared)
        params = dict(node.rule.params, **{key: donor.rule.params[key]})
        return R.Derivation(node.conclusion, R.RuleInstance(node.rule.rule, params), node.premises)
    if kind == "all parameters":
        return R.Derivation(node.conclusion, R.RuleInstance(node.rule.rule, dict(donor.rule.params)),
                            node.premises)
    if kind == "premises":
        if not node.premises:
            return None
        return R.Derivation(node.conclusion, node.rule,
                            tuple(rng.choice(nodes) for _ in node.premises))
    if kind == "conclusion":
        return R.Derivation(donor.conclusion, node.rule, node.premises)
    if kind == "spec carrier":
        j = node.conclusion
        if isinstance(j, W.RHLInstance):
            return R.Derivation(dataclasses.replace(j, sig=OTHER_SIG), node.rule, node.premises)
        if isinstance(j, G.FullJudgment):
            key = rng.choice(("w1_table", "w2_table", "wrel_table"))
            wrong = dataclasses.replace(j, **{key: R.Table(OTHER for _ in getattr(j, key))})
            return R.Derivation(wrong, node.rule, node.premises)
        others = [n for n in nodes if n.conclusion.w_table[0].tag != j.w_table[0].tag]
        w_table = rng.choice(others).conclusion.w_table
        return R.Derivation(R.Judgment(j.env, j.c1_table, j.c2_table, w_table, j.observation),
                            node.rule, node.premises)
    raise AssertionError(kind)


KINDS = ("one parameter", "all parameters", "premises", "conclusion", "spec carrier")


def mutants(roots, n, seed):
    """n seeded mutants of the roots, each with its kind and the path of its
    mutated node, the kinds taking turns."""
    nodes = [node for d in roots for _, node in _paths(d)]
    rng = random.Random(seed)
    made = 0
    while made < n:
        root = rng.choice(roots)
        path, node = rng.choice(list(_paths(root)))
        kind = KINDS[made % len(KINDS)]
        mutant = _mutate(rng, kind, node, nodes)
        if mutant is None:
            continue
        made += 1
        yield kind, path, _replace(root, path, mutant)


def split_corpus(n):
    """n seeded split-context derivations of depth 1 to 3."""
    rng = random.Random(7)
    return [test_generic._random_full_derivation(rng, G.EMPTY_SPLIT, rng.choice((1, 2, 3)))
            for _ in range(n)]


def rhl_corpus(n):
    """n seeded RHL derivations: each rule of the catalogue in turn, over
    hypotheses the oracle accepts (the cases of `test_whilelang`), then
    up to two steps more, each a Consequence that narrows the precondition
    and widens the postcondition, or a Seq into a Skip."""
    rng = random.Random(2019)
    names = W.rhl_rule_names()
    out = []
    for k in range(n):
        name = names[k % len(names)]
        premises, params = test_whilelang._rhl_case(name, rng)
        d = W.RHL.derive(name, [test_whilelang._hypothesis(p) for p in premises], **params)
        for _ in range(rng.randrange(3)):
            j = d.conclusion
            if rng.random() < 0.5:
                d = W.RHL.derive("Consequence", (d,), pre=test_whilelang._narrow(rng, j.pre),
                                 post=test_whilelang._widen(rng, j.post))
            else:
                d = W.RHL.derive("Seq", (d, W.RHL.derive("Skip", sig=j.sig, pre=j.post)))
        out.append(d)
    return out


def _check_mutants(roots, n, seed):
    counts = {kind: [0, 0] for kind in KINDS}  # per kind: replayed, failed
    for kind, path, d in mutants(roots, n, seed):
        res = R.check_derivation(d)
        assert type(res) is R.CheckResult, (kind, path, res)
        if res.ok:
            assert R.oracle_check(d.conclusion).holds, (kind, path)
        else:
            assert res.message.startswith(f"{_at(d, res.path).rule.rule}: ")
        counts[kind][not res.ok] += 1
    # each kind of mutation is caught, and some mutants replay, so the
    # oracle's side of the property is exercised too
    assert all(failed for _, failed in counts.values()), counts
    assert sum(replayed for replayed, _ in counts.values()) >= 20, counts
    # a stated spec of another carrier never replays
    assert counts["spec carrier"][0] == 0, counts


def test_every_mutant_fails_with_a_reason_or_replays_soundly():
    _check_mutants(reference.seeded_corpus(10), 1250, 13)


def test_every_split_context_mutant_fails_with_a_reason_or_replays_soundly():
    _check_mutants(split_corpus(60), 1000, 17)


def test_every_rhl_mutant_fails_with_a_reason_or_replays_soundly():
    _check_mutants(rhl_corpus(60), 1000, 19)
