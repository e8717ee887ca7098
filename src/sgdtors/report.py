"""Check results with witnesses.

Every verifier in the package returns a ``Check``: a verdict, a short
claim, the parameters that scope the claim (truncation, degree bounds,
cover family), and a witness when the verdict is negative.  Checks nest.
A computation whose input breaks an invariant it relies on raises
``InvariantError`` instead.
"""

from __future__ import annotations

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


class InvariantError(Exception):
    """Input breaks an invariant a computation relies on.  Raised where
    an ``assert`` would otherwise stand, so that ``python -O`` keeps it."""


def unique_hit(hits, claim):
    """The one entry of ``hits``; raises InvariantError naming the
    claim when there are none or several."""
    if len(hits) != 1:
        raise InvariantError(f"{claim}: {len(hits)} candidates")
    return hits[0]
