"""Check results with witnesses.

Every verifier in the package returns a ``Check``: a verdict, a short
claim, the parameters that scope the claim (truncation, degree bounds,
cover family), and a witness when the verdict is negative.  Checks nest.
It is the only verdict type: a CLI certificate is a check's JSON object
(``to_obj``) inside a parameter envelope.
The ``validate_*`` table checks list their problems and are wrapped by
``validator``; a caller that names the part differently renames it with
``dataclasses.replace``.  A computation whose input breaks an invariant it relies on raises
``InvariantError`` instead.

Each law has one home.  A validator for a composite structure builds
the derived object its law lives on (a product such as
hom(b, c) x hom(a, b), a level presheaf, the underlying category),
calls the base validator on it, and prefixes the base validator's first
witness with where the derived object sits, e.g. ``composition at
(a, b, c): ...``.  It checks by hand only what belongs to it alone.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field


@dataclass
class Check:
    claim: str
    ok: bool
    params: dict = field(default_factory=dict)
    witness: object = None
    parts: list = field(default_factory=list)

    def __bool__(self):
        return self.ok

    def add(self, part: "Check"):
        self.parts.append(part)
        if not part.ok:
            self.ok = False
        return part

    def lines(self, indent=0):
        pad = "  " * indent
        status = "pass" if self.ok else "FAIL"
        extra = ""
        if self.params:
            extra = " [" + ", ".join(f"{k}={v}" for k, v in sorted(self.params.items())) + "]"
        out = [f"{pad}{status}: {self.claim}{extra}"]
        if self.witness is not None and not self.ok:
            out.append(f"{pad}  witness: {self.witness!r}")
        for p in self.parts:
            out.extend(p.lines(indent + 1))
        return out

    def render(self):
        return "\n".join(self.lines())

    def to_obj(self):
        obj = {"claim": self.claim, "ok": self.ok}
        if self.params:
            obj["params"] = {k: repr(v) if not isinstance(v, (int, str, bool, float)) else v
                             for k, v in self.params.items()}
        if self.witness is not None:
            obj["witness"] = repr(self.witness)
        if self.parts:
            obj["parts"] = [p.to_obj() for p in self.parts]
        return obj


def require(cond, claim, witness=None, **params):
    return Check(claim, bool(cond), params=params, witness=None if cond else witness)


def validator(claim):
    """Turns a function that lists the problems it finds into a verifier
    returning a leaf ``Check`` of ``claim``, which fails with the first
    three problems as its witness."""

    def wrap(problems_of):
        @functools.wraps(problems_of)
        def validate(*args):
            problems = problems_of(*args)
            return require(not problems, claim, witness=problems[:3])

        return validate

    return wrap


class InvariantError(Exception):
    """Input breaks an invariant a computation relies on.  Raised where
    an ``assert`` would otherwise stand, so that ``python -O`` keeps it."""


def invariant(cond, claim):
    """Raises InvariantError naming the claim unless cond holds."""
    if not cond:
        raise InvariantError(claim)


def unique_hit(hits, claim):
    """The one entry of ``hits``; raises InvariantError naming the
    claim when there are none or several."""
    if len(hits) != 1:
        raise InvariantError(f"{claim}: {len(hits)} candidates")
    return hits[0]
