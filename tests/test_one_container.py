"""One container for demand families: the split-context carriers of
`generic` hold the same `RelSpec`s as the core judgments.  `specmonads`
keeps no second payload type or verdict type, and `generic` names none of
the wrappers that once converted between them."""

import ast
import os
import random

import pytest

import relwp
from relwp import generic as G
from relwp import specmonads as sm
from relwp.domains import domain

SECOND_CONTAINER = frozenset({"Wp", "OrderVerdict", "wp"})
WRAPPERS = frozenset({"random_wp", "SimpleMonadOps", "pure_ops", "state_ops"})

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
    m1, m2, mrel = m.gen1(rng, Z2), m.gen2(rng, Z2), m.gen_rel(rng, Z2, Z2)
    f1 = tuple(m.gen1(rng, Z2) for _ in range(Z2.size))
    f2 = tuple(m.gen2(rng, Z2) for _ in range(Z2.size))
    frel = tuple(tuple(m.gen_rel(rng, Z2, Z2) for _ in range(Z2.size)) for _ in range(Z2.size))
    v = Z2.value(1)
    built = [m1, m2, mrel, *f1, *f2, *frel[0], *frel[1],
             m.ret1(v), m.ret2(v), m.ret_rel(v, v),
             m.bind1(m1, f1, Z2), m.bind2(m2, f2, Z2),
             m.bind_rel(m1, m2, mrel, f1, f2, frel, Z2, Z2),
             m.unsat_rel(Z2, Z2)]
    assert all(isinstance(w, sm.RelSpec) for w in built), [type(w).__name__ for w in built]
