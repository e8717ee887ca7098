"""One backtracking core for every exhaustive map search, and the
union-find that closes the edge relations of ``kan.pi_n`` and ``sset.pi0``.

A search is stated as slots, a domain per slot, and constraints; the
core lists the solutions.  A constraint ``(scope, pred)`` is a tuple of
slot indices and a predicate on the values at those slots, in scope
order.  It is checked as soon as the last slot in its scope has a value,
so a partial assignment that breaks it is never extended.  This is the
backtracking of Mackworth's networks of relations (AI 8, 1977) without
his arc-consistency pass: domains are not narrowed ahead of the search.
"""

from __future__ import annotations

from math import prod


def solve(domains, constraints, limit=None, bound=None):
    """Every tuple with one value per slot, in ``itertools.product``
    order, that satisfies every constraint; only the first ``limit``.
    Constraints whose scopes end at the same slot are checked in the
    order given, so an earlier one can guard a later one's lookups.

    A domain is a sequence, or a function of the tuple of values already
    chosen for the slots before it.  ``bound`` caps the product of the
    sizes of the domains given as sequences and raises ValueError when
    the search would range over more candidates.
    """
    if bound is not None:
        total = prod(len(d) for d in domains if not callable(d))
        if total > bound:
            raise ValueError(f"search needs {total} candidates, bound is {bound}")
    checks = [[] for _ in domains]
    for scope, pred in constraints:
        if scope:
            checks[max(scope)].append((scope, pred))
        elif not pred():
            return []
    out, chosen, pending = [], [], []
    if limit == 0:
        return out
    if not domains:
        return [()]

    def start(i):
        d = domains[i]
        pending.append(iter(d(tuple(chosen)) if callable(d) else d))

    start(0)
    while pending:
        i = len(pending) - 1
        for value in pending[i]:
            chosen.append(value)
            if all(pred(*[chosen[j] for j in scope]) for scope, pred in checks[i]):
                break
            chosen.pop()
        else:
            pending.pop()
            if chosen:
                chosen.pop()
            continue
        if i + 1 < len(domains):
            start(i + 1)
            continue
        out.append(tuple(chosen))
        if len(out) == limit:
            break
        chosen.pop()
    return out


class Partition:
    """Union-find over hashable items (Tarjan, JACM 22, 1975), with path
    halving.  ``join(a, b)`` hangs the class of ``b`` under the root of
    ``a``, so a caller decides which root a class keeps."""

    def __init__(self, items):
        self.parent = {x: x for x in items}

    def find(self, x):
        parent = self.parent
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def join(self, a, b):
        self.parent[self.find(b)] = self.find(a)

    def classes(self):
        """The classes as lists, in the order of their first items;
        members keep the order of the items."""
        groups = {}
        for x in self.parent:
            groups.setdefault(self.find(x), []).append(x)
        return list(groups.values())
