"""The backtracking core against brute force: every candidate assignment
in product order, filtered by every constraint."""

import re
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sgdtors.search import Dependent, Partition, solve


def _dependent(reads, values, shift):
    # a domain that depends on the values chosen at the slots it reads
    return Dependent(tuple(reads), lambda *read: [v for v in values if (v + shift + sum(read)) % 3])


def _predicate(salt):
    return lambda *values: (salt + sum((i + 2) * v for i, v in enumerate(values))) % 3 != 0


# slot keys of mixed types, nested tuples among them; no two compare equal
KEYS = st.one_of(
    st.integers(-3, 9),
    st.text("uv", max_size=2),
    st.tuples(st.integers(0, 2), st.tuples(st.integers(0, 2), st.text("w", max_size=1))),
    st.frozensets(st.integers(0, 2), max_size=2),
)


@st.composite
def problems(draw):
    keys = draw(st.lists(KEYS, max_size=5, unique=True))
    domains = {}
    for i, key in enumerate(keys):
        values = draw(st.lists(st.integers(0, 4), max_size=3, unique=True))
        if draw(st.booleans()):
            reads = draw(st.lists(st.sampled_from(keys[:i]), max_size=3)) if i else []
            domains[key] = _dependent(reads, values, draw(st.integers(0, 2)))
        else:
            domains[key] = values
    constraints = [
        (
            tuple(draw(st.lists(st.sampled_from(keys), max_size=3))) if keys else (),
            _predicate(draw(st.integers(0, 5))),
        )
        for _ in range(draw(st.integers(0, 4)))
    ]
    return domains, constraints


def brute_force(domains, constraints):
    keys = list(domains)
    rows = [{}]
    for key in keys:
        d = domains[key]
        rows = [
            {**row, key: v}
            for row in rows
            for v in (d.choose(*[row[r] for r in d.reads]) if isinstance(d, Dependent) else d)
        ]
    return [
        row
        for row in rows
        if all(pred(*[row[key] for key in scope]) for scope, pred in constraints)
    ]


@settings(derandomize=True, max_examples=300, deadline=None)
@given(problems(), st.integers(0, 6))
def test_solve_is_product_then_filter(problem, k):
    domains, constraints = problem
    everything = brute_force(domains, constraints)
    found = solve(domains, constraints)
    assert found == everything
    # each solution is keyed in the order the domains were given
    assert all(list(solution) == list(domains) for solution in found)
    assert solve(domains, constraints, limit=k) == everything[:k]
    # the bound caps the product of the sizes of the domains given as sequences
    static = prod(len(d) for d in domains.values() if not isinstance(d, Dependent))
    assert solve(domains, constraints, bound=static) == everything
    with pytest.raises(ValueError, match=f"needs {static} candidates, bound is {static - 1}$"):
        solve(domains, constraints, bound=static - 1)


def _never(*values):
    raise AssertionError("a rejected search evaluated a domain")


@pytest.mark.parametrize(
    "reads, named",
    [((("b", 1),), ("b", 1)), (("a", "c"), "c"), (("z",), "z"), ((("a",),), ("a",))],
    ids=["itself", "later", "unknown", "nested-unknown"],
)
def test_a_read_of_a_later_or_unknown_slot_is_rejected(reads, named):
    # rejected when the search is set up: the empty first domain would
    # end the search before the bad domain is ever evaluated
    domains = {"a": [], ("b", 1): Dependent(reads, _never), "c": [0]}
    message = f"the domain of ('b', 1) reads {named!r}, not an earlier slot"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        solve(domains, [])


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

