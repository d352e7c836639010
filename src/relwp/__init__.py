"""Relational weakest-precondition checking for monadic programs over
finite domains.

The modules are imported one by one (`relwp.generic`, `relwp.whilelang`,
...); this package module re-exports nothing.
"""
