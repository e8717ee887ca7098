"""The backtracking core against brute force: every candidate tuple in
product order, filtered by every constraint."""

from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sgdtors.search import Partition, solve


def _dependent(values, shift):
    # a domain that depends on the values chosen before it
    return lambda chosen: [v for v in values if (v + shift + sum(chosen)) % 3]


def _predicate(salt):
    return lambda *values: (salt + sum((i + 2) * v for i, v in enumerate(values))) % 3 != 0


@st.composite
def problems(draw):
    width = draw(st.integers(0, 5))
    domains = []
    for _ in range(width):
        values = draw(st.lists(st.integers(0, 4), max_size=3, unique=True))
        if draw(st.booleans()):
            domains.append(_dependent(values, draw(st.integers(0, 2))))
        else:
            domains.append(values)
    constraints = [
        (
            tuple(draw(st.lists(st.integers(0, width - 1), max_size=3))) if width else (),
            _predicate(draw(st.integers(0, 5))),
        )
        for _ in range(draw(st.integers(0, 4)))
    ]
    return domains, constraints


def brute_force(domains, constraints):
    tuples = [()]
    for d in domains:
        tuples = [t + (v,) for t in tuples for v in (d(t) if callable(d) else d)]
    return [
        t
        for t in tuples
        if all(pred(*[t[j] for j in scope]) for scope, pred in constraints)
    ]


@settings(derandomize=True, max_examples=300, deadline=None)
@given(problems(), st.integers(0, 6))
def test_solve_is_product_then_filter(problem, k):
    domains, constraints = problem
    everything = brute_force(domains, constraints)
    assert solve(domains, constraints) == everything
    assert solve(domains, constraints, limit=k) == everything[:k]
    # the bound caps the product of the sizes of the domains given as sequences
    static = prod(len(d) for d in domains if not callable(d))
    assert solve(domains, constraints, bound=static) == everything
    with pytest.raises(ValueError, match=f"needs {static} candidates, bound is {static - 1}$"):
        solve(domains, constraints, bound=static - 1)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 7), st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6))))
def test_partition_classes_are_the_components(n, edges):
    edges = [(a % n, b % n) for a, b in edges]
    classes = Partition(range(n))
    for a, b in edges:
        root = classes.find(a)
        classes.join(a, b)
        assert classes.find(b) == root
    reach = {i: frozenset([i]) for i in range(n)}
    for _ in range(n):
        for a, b in edges:
            merged = reach[a] | reach[b]
            for x in merged:
                reach[x] = merged
    found = classes.classes()
    assert sorted(x for c in found for x in c) == list(range(n))
    assert all(c == sorted(c) for c in found)
    assert [c[0] for c in found] == sorted(c[0] for c in found)
    assert {frozenset(c) for c in found} == set(reach.values())

