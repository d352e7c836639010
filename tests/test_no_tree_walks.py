"""The observations read runs, not trees: `observations` walks no program
tree and names no node class, and `programs` has one state evaluator,
`run_imp`, behind every state and loop observation."""

import ast
import os

import relwp
from relwp import programs as P

NODE_CLASSES = frozenset(cls.__name__ for cls in P._SHAPES)


def _names(module: str):
    """Every name, attribute and imported name used in a relwp module."""
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


def test_the_node_classes_are_the_shape_table():
    assert {"Ret", "Bind", "Get", "Put", "DoWhile"} <= NODE_CLASSES


def test_observations_walk_no_program_tree():
    used = set(_names("observations"))
    assert "_postorder" not in used
    assert not used & NODE_CLASSES, sorted(used & NODE_CLASSES)


def test_programs_has_one_state_evaluator():
    assert not hasattr(P, "run_state")
    assert not hasattr(P, "reachable_outcomes")
