"""Typed errors from the core rules: a perturbed rule application returns a
judgment or raises a typed error that names the rule.

The probe draws 15 seeded depth-3 derivations per effect
(`random.Random(5)`) and applies each distinct node's rule again through
`CORE.apply` with one thing changed: a premise swapped for a conclusion
from elsewhere in the corpus, a parameter swapped for another node's value
of that parameter, or a Table parameter lengthened by one entry.  Every
application must return a judgment, or raise `RuleError` with a message
that starts with the rule's name, or `SpecTooLarge`, the spec layer's
documented size limit.  Any other exception is a crash, which a bug
raising a bare `ValueError` must still look like, so the contract is
checked here and not by wrapping errors in `Catalogue.apply`.

Only the core catalogue is probed.  The split-context rules (`SPLIT`) and
the relational Hoare rules (`RHL`) are left for ROADMAP item 23.
"""

import random
import time

import pytest

from relwp import programs as P
from relwp import rules as R
from relwp.specmonads import SpecTooLarge

EFFECTS = (P.STATE, P.IMP, P.EXC, P.NDET, P.IO, P.PROB)


def _corpus():
    rng = random.Random(5)
    return [R.random_derivation(rng, effect, depth=3) for effect in EFFECTS for _ in range(15)]


def _distinct_nodes(ds):
    out, seen, stack = [], set(), list(ds)
    while stack:
        d = stack.pop()
        if id(d) not in seen:
            seen.add(id(d))
            out.append(d)
            stack += d.premises
    return out


def _perturbed(nodes, rng):
    """(rule instance, premises) per perturbation of each node."""
    conclusions = [d.conclusion for d in nodes]
    values = {}   # parameter name -> the values the corpus gives it
    for d in nodes:
        for key, x in d.rule.params.items():
            values.setdefault(key, []).append(x)
    for d in nodes:
        inst, prem = d.rule, tuple(s.conclusion for s in d.premises)
        for i in range(len(prem)):
            swapped = prem[:i] + (rng.choice(conclusions),) + prem[i + 1:]
            yield inst, swapped
        for key, x in inst.params.items():
            yield R.RuleInstance(inst.rule, {**inst.params, key: rng.choice(values[key])}), prem
            if type(x) is R.Table:
                longer = R.Table(x + x[:1])
                yield R.RuleInstance(inst.rule, {**inst.params, key: longer}), prem


def _crashes(applications):
    """The applications that break the contract, with what they raised."""
    bad = []
    for inst, prem in applications:
        try:
            R.CORE.apply(inst, prem)
        except R.RuleError as e:
            if not str(e).startswith(inst.rule):
                bad.append((inst.rule, e))
        except SpecTooLarge:
            pass
        except Exception as e:   # anything else is a crash
            bad.append((inst.rule, e))
    return bad


@pytest.fixture(scope="module")
def applications():
    nodes = _distinct_nodes(_corpus())
    return list(_perturbed(nodes, random.Random(5)))


def test_every_perturbed_core_application_is_a_judgment_or_a_named_rule_error(applications):
    t = time.perf_counter()
    assert len(applications) > 1500
    assert len({inst.rule for inst, _ in applications}) >= 20
    assert _crashes(applications) == []
    assert time.perf_counter() - t < 3


def test_zero_elim_and_weaken_name_themselves_when_refused(applications):
    # the two rules whose refusals surfaced as bare ValueErrors from
    # `judgment()` and `spec_leq`
    refused = {"ZeroElim": [], "Weaken": []}
    for inst, prem in applications:
        if inst.rule in refused:
            try:
                R.CORE.apply(inst, prem)
            except R.RuleError as e:
                refused[inst.rule].append(str(e))
    assert any("observation" in m or "spec lives in" in m for m in refused["ZeroElim"])
    assert any("cannot compare" in m for m in refused["Weaken"])
    assert all(m.startswith(rule + ":") for rule, ms in refused.items() for m in ms)


def test_a_bare_value_error_in_a_rule_body_is_a_crash(applications, monkeypatch):
    body, arity = R.CORE._rules["Weaken"]

    def buggy(r, prem):
        if r.params["w"] is not prem[0].w_table:
            raise ValueError("an internal invariant broke")
        return body(r, prem)

    monkeypatch.setitem(R.CORE._rules, "Weaken", (buggy, arity))
    crashes = _crashes(applications)
    assert crashes and {rule for rule, _ in crashes} == {"Weaken"}
    assert all(type(e) is ValueError for _, e in crashes)
