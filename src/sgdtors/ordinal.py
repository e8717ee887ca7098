"""Strings of cells, and the comparison of a prism with a join.

A string is a chain of cells between objects.  The nerve of a groupoid,
the rows of the enriched nerve, the translation object and the
classifying object all list their simplices with ``strings``, and state
their faces and degeneracies by the two rules here: d_0 and d_n drop an
end cell, an inner face composes two neighbouring cells, and a
degeneracy inserts an identity.

>>> compose = lambda a, b, c, g, f: g + f
>>> string_face("wxyz", ("p", "q", "r"), 1, compose)
('w', ('qp', 'r'))
>>> string_degeneracy("wxyz", ("p", "q", "r"), 3, lambda a: "1" + a)
('w', ('p', 'q', 'r', '1z'))
"""

from __future__ import annotations


def strings(starts, steps, n):
    """Every string of n cells from an object in starts, as (objects,
    cells), where cells[k] runs from objects[k] to objects[k + 1].
    steps(k, at) lists the (cell, next object) pairs that cell k + 1 may
    take from at.  Strings come in the order of their choices: starts
    first, then the steps of each cell in turn.

    >>> arrows = {"x": [("f", "y"), ("1x", "x")], "y": [("g", "x")]}
    >>> strings("xy", lambda k, at: arrows[at], 2)  # doctest: +NORMALIZE_WHITESPACE
    [(('x', 'y', 'x'), ('f', 'g')), (('x', 'x', 'y'), ('1x', 'f')),
     (('x', 'x', 'x'), ('1x', '1x')), (('y', 'x', 'y'), ('g', 'f')),
     (('y', 'x', 'x'), ('g', '1x'))]
    """
    out = [((x,), ()) for x in starts]
    for k in range(n):
        out = [
            (objs + (b,), cells + (c,)) for objs, cells in out for c, b in steps(k, objs[-1])
        ]
    return out


def string_face(objs, cells, i, compose):
    """The face d_i of a string of cells, cells[k]: objs[k] -> objs[k + 1].

    Returns (first object, cells): d_0 drops the first cell, d_n the
    last, and an inner d_i puts cell i after cell i - 1, as
    compose(objs[i - 1], objs[i], objs[i + 1], cells[i], cells[i - 1]),
    in place of the two.  This is the action of the injection
    [n - 1] -> [n] that misses i.
    """
    if i == 0:
        return objs[1], cells[1:]
    if i == len(cells):
        return objs[0], cells[:-1]
    composite = compose(objs[i - 1], objs[i], objs[i + 1], cells[i], cells[i - 1])
    return objs[0], cells[: i - 1] + (composite,) + cells[i + 1 :]


def string_degeneracy(objs, cells, j, identity):
    """The degeneracy s_j of a string of cells, as (first object, cells):
    identity(objs[j]) inserted as cell j.  This is the action of the
    surjection [n + 1] -> [n] that repeats j."""
    return objs[0], cells[:j] + (identity(objs[j]),) + cells[j:]


def h_map(n: int):
    """The comparison (i, eps) -> element of the join, for i in [n], eps in {0,1}.

    The join [n] * [n] is [2n+1], the left copy of [n] an initial and the
    right copy a final segment.  h_n sends (i, 0) to the left copy and
    (i, 1) to the right copy of i.  As a function on the product poset
    [n] x [1] it is monotone, and it is natural: for monotone
    theta: [m] -> [n], acting by theta on both copies after h_m is
    h_n after theta x 1.
    """
    return {(i, eps): i if eps == 0 else n + 1 + i for i in range(n + 1) for eps in (0, 1)}
