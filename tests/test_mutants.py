"""Mutation harness: a malformed derivation fails with a reason, never with
an exception, and a mutant that still replays is sound.

Seeded core derivations of all six effects are mutated one node at a
time, in five ways: one parameter taken from another node, all parameters
taken from another node, the premises replaced by other nodes, the stated
conclusion replaced by another node's, and the stated spec table swapped
for one of another carrier.  The ancestors of the mutated node keep their
stated conclusions.  Every mutant must give a `CheckResult`, and every one
that replays must have a conclusion the oracle holds: soundness on
adversarial trees, not only on generated ones.
"""

import random

from relwp import rules as R

import reference


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
        others = [n for n in nodes if n.conclusion.w_table[0].tag != j.w_table[0].tag]
        w_table = rng.choice(others).conclusion.w_table
        return R.Derivation(R.Judgment(j.env, j.c1_table, j.c2_table, w_table, j.observation),
                            node.rule, node.premises)
    raise AssertionError(kind)


KINDS = ("one parameter", "all parameters", "premises", "conclusion", "spec carrier")


def test_every_mutant_fails_with_a_reason_or_replays_soundly():
    roots = reference.seeded_corpus(10)
    nodes = [n for d in roots for _, n in _paths(d)]
    rng = random.Random(13)
    counts = {kind: [0, 0] for kind in KINDS}  # per kind: replayed, failed
    made = 0
    while made < 1250:
        root = rng.choice(roots)
        path, node = rng.choice(list(_paths(root)))
        kind = KINDS[made % len(KINDS)]
        mutant = _mutate(rng, kind, node, nodes)
        if mutant is None:
            continue
        made += 1
        d = _replace(root, path, mutant)
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
