"""One container for demand families: the split-context carriers of
`generic` hold the same `RelSpec`s as the core judgments.  `specmonads`
keeps no second payload type or verdict type, and `generic` names none of
the wrappers that once converted between them.  Pre/post pairs hold
demand families too, one demand per point beside the precondition row,
with no post table, outcome domains or binds of their own.  Interactive
specs are their root entry: finite data, with no entry cache, no function
of the history point and no declared points."""

import ast
import dataclasses
import os
import random

import pytest

import relwp
from relwp import generic as G
from relwp import specmonads as sm
from relwp.domains import domain

import reference

SECOND_CONTAINER = frozenset({"Wp", "OrderVerdict", "wp"})
PAIR_BODY = frozenset({"_bind_pp_pure", "_bind_pp_state", "_pp_triple",
                       "outcome_dom", "point_dom", "pair_values"})
WRAPPERS = frozenset({"random_wp", "SimpleMonadOps", "pure_ops", "state_ops"})
IO_CLOSURE = frozenset({"_io_cache", "_fill_io_entries", "histories"})
# a spec's body slots; the others are its carrier, its space and caches
BODY = ("fams", "root", "rows", "den", "pre")

Z2 = domain("Z2", 2)
EL = domain("EL", 2)
ER = domain("ER", 2)


def _names(module: str):
    """Every name a relwp module defines, uses, reads as an attribute or
    imports."""
    path = os.path.join(os.path.dirname(relwp.__file__), f"{module}.py")
    with open(path) as fh:
        tree = ast.parse(fh.read())
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.asname or node.name
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name


def _second_container(names):
    return sorted(n for n in set(names) if n in SECOND_CONTAINER or n.startswith("wp_"))


def test_specmonads_has_one_container():
    assert _second_container(_names("specmonads")) == []
    assert _second_container(vars(sm)) == []


def test_generic_names_no_second_container_or_wrapper():
    used = set(_names("generic"))
    assert _second_container(used) == []
    assert sorted(used & WRAPPERS) == []


CARRIERS = {
    "lift_pure": G.lift_pure,
    "lift_state": lambda: G.lift_state(Z2, Z2),
    "wrelexc_monad": lambda: G.wrelexc_monad(EL, ER),
}


@pytest.mark.parametrize("name", sorted(CARRIERS))
def test_every_payload_is_a_spec(name):
    m = CARRIERS[name]()
    rng = random.Random(3)
    v = Z2.value(1)

    def draw(unit):
        return G.random_spec(rng, unit.space)

    m1, m2, mrel = draw(m.ret1(v)), draw(m.ret2(v)), draw(m.ret_rel(v, v))
    f1 = tuple(draw(m.ret1(v)) for _ in range(Z2.size))
    f2 = tuple(draw(m.ret2(v)) for _ in range(Z2.size))
    frel = tuple(tuple(draw(m.ret_rel(v, v)) for _ in range(Z2.size)) for _ in range(Z2.size))
    built = [m1, m2, mrel, *f1, *f2, *frel[0], *frel[1],
             m.ret1(v), m.ret2(v), m.ret_rel(v, v),
             m.bind1(m1, f1, Z2), m.bind2(m2, f2, Z2),
             m.bind_rel(f1, f2, frel, Z2, Z2)(m1, m2, mrel),
             m.unsat_rel(Z2, Z2)]
    assert all(isinstance(w, sm.RelSpec) for w in built), [type(w).__name__ for w in built]


CARRIER_OPS = ("name", "shape", "ret1", "ret2", "ret_rel", "bind1", "bind2", "bind_rel",
               "tau1", "tau2")


def test_a_carrier_is_its_unit_bind_and_tau():
    # the order is `generic.leq` for every carrier, and the top and the
    # sampled payloads follow the unit's shape
    assert tuple(f.name for f in dataclasses.fields(G.FullSpecMonad)) == CARRIER_OPS
    assert sorted({"leq_table", "TripleSpec"} & set(_names("generic"))) == []
    assert not hasattr(G, "leq_table") and callable(G.leq)


def test_pairs_keep_no_body_of_their_own():
    assert "post" not in sm.RelSpec.__slots__
    assert sorted(PAIR_BODY & set(_names("specmonads"))) == []
    assert sorted(PAIR_BODY & set(vars(sm))) == []


Z3 = domain("Z3", 3)
PAIR_SPACES = {
    "pure": sm.pp_pure_space(Z2, Z3),
    "state": sm.pp_state_space(Z2, Z3, Z3, Z2),
}


@pytest.mark.parametrize("name", sorted(PAIR_SPACES))
def test_every_pair_is_one_demand_per_point_beside_a_precondition_row(name):
    space = PAIR_SPACES[name]
    rng = random.Random(5)
    n = space.point_count
    built = [sm.pp_spec(space, [rng.random() < 0.7 for _ in range(n)],
                        [rng.random() < 0.3 for _ in range(n * space.size)])
             for _ in range(4)]
    built += [sm.spec_ret(space, Z2.value(1), Z3.value(2)),
              sm.unsatisfiable(space), sm.weakest(space)]
    built.append(sm.spec_bind(built[0], lambda i1, i2: built[(i1 + i2) % 4]))
    for w in built:
        assert len(w.fams) == n and all(len(fam) == 1 for fam in w.fams), w
        assert isinstance(w.pre, tuple) and len(w.pre) == n, w


def test_interactive_specs_keep_no_entry_cache_or_declared_points():
    assert sorted(IO_CLOSURE & set(_names("specmonads"))) == []
    assert sorted(IO_CLOSURE & set(vars(sm))) == []


def _specs(d):
    """Every spec of every judgment of a derivation."""
    stack = [d]
    while stack:
        node = stack.pop()
        stack += node.premises
        yield from node.conclusion.w_table


def test_no_spec_of_a_seeded_corpus_holds_a_callable_body():
    assert set(sm.RelSpec.__slots__) == set(BODY) | {"tag", "space", "_outs", "__weakref__"}
    seen = set()
    for d in reference.seeded_corpus(10):
        for w in _specs(d):
            seen.add(w.tag)
            assert not [b for b in BODY if callable(getattr(w, b))], (w, BODY)
    assert {"WrelSt", "WrelErr", "WrelPure", "WrelIO", "WrelProb"} <= seen
