"""Finite domains: product and sum builders."""

import inspect

from relwp import domains as D
from relwp.domains import domain


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
