"""One backtracking core for every exhaustive map search, and the
union-find that closes the edge relations of ``kan.pi_n`` and ``sset.pi0``.

A search is stated as slots, a domain per slot, and constraints; the
core lists the solutions.  Slots are named by hashable keys, and their
order is the order of the ``domains`` dict.  A constraint
``(scope, pred)`` is a tuple of slot keys and a predicate on the values
at those slots, in scope order.  It is checked as soon as the last slot
in its scope has a value, so a partial assignment that breaks it is
never extended.  This is the backtracking of Mackworth's networks of
relations (AI 8, 1977) without his arc-consistency pass: domains are
not narrowed ahead of the search.  Callers never see slot positions, so
the order in which slots are placed is this module's own business.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod
from operator import itemgetter
from typing import Callable


@dataclass(frozen=True)
class Dependent:
    """A domain that depends on earlier slots: ``choose`` gets the values
    of the slots ``reads`` names, in that order, and returns the values
    this slot ranges over."""

    reads: tuple
    choose: Callable


def _reader(places):
    """A C-level function from the list of chosen values to a sequence of
    the values at ``places``, in that order: ``itemgetter`` of one index
    returns the bare value, so one place, or none, reads a slice."""
    if len(places) == 1:
        return itemgetter(slice(places[0], places[0] + 1))
    return itemgetter(*places) if places else itemgetter(slice(0, 0))


def require_bound(sizes, bound):
    """Raise ValueError when the product of the domain ``sizes``, the
    number of candidates a search over them ranges over, exceeds
    ``bound``; a ``bound`` of None caps nothing."""
    if bound is not None:
        total = prod(sizes)
        if total > bound:
            raise ValueError(f"search needs {total} candidates, bound is {bound}")


def solve(domains, constraints, limit=None, bound=None):
    """Every assignment of one value per slot, in ``itertools.product``
    order, that satisfies every constraint; only the first ``limit``.
    Each comes back as a dict from slot key to value, in the key order of
    ``domains``.  Constraints whose scopes end at the same slot are
    checked in the order given, so an earlier one can guard a later one's
    lookups.

    ``domains`` maps each slot key to a sequence or a ``Dependent``,
    whose reads must name earlier slots: ValueError names a read that
    does not, and KeyError a constraint's unknown slot.  ``bound`` caps
    the product of the sizes of the domains given as sequences and
    raises ValueError, through ``require_bound``, when the search would
    range over more candidates.

    Slot keys are resolved to positions once, before the search: each
    constraint scope and each ``Dependent.reads`` becomes a reader of
    the list ``chosen``, which holds the value at every placed position
    (entries past the current one are stale and never read).  The
    search keeps one iterator per position; a value is kept when every
    check of its slot holds, tried in a plain loop that stops at the
    first failure, and an exhausted iterator steps back one position.
    """
    keys, listed = list(domains), list(domains.values())
    at = {key: i for i, key in enumerate(keys)}
    reads = [None] * len(keys)
    for i, (key, d) in enumerate(domains.items()):
        if isinstance(d, Dependent):
            late = [r for r in d.reads if at.get(r, i) >= i]
            if late:
                raise ValueError(f"the domain of {key!r} reads {late[0]!r}, not an earlier slot")
            reads[i] = _reader([at[r] for r in d.reads])
    require_bound([len(d) for d in listed if not isinstance(d, Dependent)], bound)
    checks = [[] for _ in keys]
    for scope, pred in constraints:
        if scope:
            places = [at[key] for key in scope]
            checks[max(places)].append((_reader(places), pred))
        elif not pred():
            return []
    out = []
    if limit == 0:
        return out
    if not keys:
        return [{}]
    last = len(keys) - 1
    chosen, pending = [None] * len(keys), [None] * len(keys)
    pending[0] = iter(listed[0] if reads[0] is None else listed[0].choose())
    i = 0
    while i >= 0:
        here = checks[i]
        for value in pending[i]:
            chosen[i] = value
            for read, pred in here:
                if not pred(*read(chosen)):
                    break
            else:
                break
        else:
            i -= 1
            continue
        if i < last:
            i += 1
            read = reads[i]
            pending[i] = iter(listed[i] if read is None else listed[i].choose(*read(chosen)))
            continue
        out.append(dict(zip(keys, chosen)))
        if len(out) == limit:
            break
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
