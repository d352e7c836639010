"""Finite domains: product and sum builders, hashing and pickling."""

import copy
import inspect
import os
import pickle
import subprocess
import sys

from relwp import domains as D
from relwp.domains import domain

SRC = os.path.dirname(os.path.dirname(os.path.abspath(D.__file__)))


def test_product_domain_labels_and_reuse():
    a, b = domain("A", 2, ("x", "y")), domain("B", 3)
    p = D.product_domain(a, b)
    assert (p.name, p.size) == ("(A*B)", 6)
    assert p.labels == ("(x,0)", "(x,1)", "(x,2)", "(y,0)", "(y,1)", "(y,2)")
    assert D.product_domain(a, b) is p
    # equal operands built apart share the built domain
    assert D.product_domain(domain("A", 2, ("x", "y")), domain("B", 3)) is p
    # same name, other labels: another domain
    assert D.product_domain(domain("A", 2), b).labels[:2] == ("(0,0)", "(0,1)")
    assert D.product_domain(b, a).labels[:2] == ("(0,x)", "(0,y)")


def test_sum_domain_labels_and_reuse():
    a, b = domain("A", 2, ("x", "y")), domain("B", 3)
    s = D.sum_domain(a, b)
    assert (s.name, s.size) == ("(A+B)", 5)
    assert s.labels == ("inl x", "inl y", "inr 0", "inr 1", "inr 2")
    assert D.sum_domain(a, b) is s
    assert D.sum_domain(b, a).labels == ("inl 0", "inl 1", "inl 2", "inr x", "inr y")


def test_domain_builders_stay_plain_functions():
    # per-layer tracing wraps only plain functions
    assert inspect.isfunction(D.product_domain) and inspect.isfunction(D.sum_domain)


def test_equal_domains_built_apart_hash_and_compare_equal():
    a, b = domain("A", 2, ("x", "y")), domain("A", 2, ("x", "y"))
    # domains are canonical: built apart, they are one object
    assert a is b and a == b and hash(a) == hash(b)
    assert len({a, b}) == 1
    assert domain("A", 2) != a and domain("A", 3) != domain("A", 2)


def test_domain_round_trips_rebuild_through_the_constructor():
    a = domain("A", 2, ("x", "y"))
    assert a.__reduce__() == (D.FiniteDomain, ("A", 2, ("x", "y")))
    for twin in (pickle.loads(pickle.dumps(a)), copy.copy(a), copy.deepcopy(a)):
        assert twin == a and hash(twin) == hash(a)
        assert D.product_domain(twin, twin) is D.product_domain(a, a)
        assert D.sum_domain(twin, a) is D.sum_domain(a, a)


def test_a_domain_pickled_under_another_string_hash_seed_hashes_here():
    # a stored hash carried across processes would disagree with this one
    code = ("import pickle, sys; from relwp.domains import domain; "
            "sys.stdout.write(pickle.dumps(domain('A', 2, ('x', 'y'))).hex())")
    env = dict(os.environ, PYTHONHASHSEED="12345",
               PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    there = pickle.loads(bytes.fromhex(out))
    here = domain("A", 2, ("x", "y"))
    assert there == here and hash(there) == hash(here)
    assert {here: 1}[there] == 1

