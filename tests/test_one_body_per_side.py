"""One-sided rules are written once: in each catalogue, the left and the
right rule of a pair (…L/…R, …Left/…Right) are one body that tells the
side from the rule's name, and the one-sided assignments share the body of
the two-sided one."""

import pytest

from relwp import generic as G
from relwp import rules as R
from relwp import whilelang as W

CATALOGUES = {"core": R.CORE, "split": G.SPLIT, "rhl": W.RHL}

PAIRS = {
    "core": {("BindLeft", "BindRight"), ("DemonicPickLeft", "DemonicPickRight"),
             ("GetL", "GetR"), ("IfLeft", "IfRight"), ("InputL", "InputR"),
             ("OutputL", "OutputR"), ("PutL", "PutR"), ("ThrowL", "ThrowR")},
    "split": {("ThrowL", "ThrowR")},
    "rhl": {("AssignL", "AssignR"), ("IfL", "IfR")},
}


def _pairs(names):
    for name in names:
        for left, right in (("Left", "Right"), ("L", "R")):
            other = name[:-len(left)] + right
            if name.endswith(left) and other in names:
                yield name, other


def _body(catalogue, name):
    return catalogue._rules[name][0]


@pytest.mark.parametrize("cat", sorted(CATALOGUES))
def test_the_left_right_pairs_are_the_known_ones(cat):
    assert set(_pairs(set(CATALOGUES[cat].names()))) == PAIRS[cat]


@pytest.mark.parametrize("cat", sorted(CATALOGUES))
def test_each_left_right_pair_has_one_body(cat):
    catalogue = CATALOGUES[cat]
    for left, right in _pairs(set(catalogue.names())):
        assert _body(catalogue, left) is _body(catalogue, right), (left, right)


def test_the_one_sided_assignments_share_the_assignment_body():
    assert _body(W.RHL, "AssignL") is _body(W.RHL, "Assign")
