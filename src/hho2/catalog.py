"""Catalog of classified nondegenerate operators for n = 2, 4, 6, 8.

Low dimensions carry a single entry each (plus one deliberately degenerate
n = 4 example).  For n = 6 the five nondegenerate cases are spelled out with
their determinants.  For n = 8 the classification is too large to enumerate
(132 inequivalent classes); the two parametric families included here are
built from their defining 3-form combinations p = sum(lambda_a p_a) plus a
nilpotent part, which is the authoritative construction, and the metric each
produces is cross-checked against its expected closed form in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from .linalg import PolyMatrix
from .operators import Hho2
from .poly import MultiPoly, rat

__all__ = ["CatalogEntry", "list_entries", "get_entry", "build", "N8_CLASS_COUNT"]

N8_CLASS_COUNT = 132

# Defining triples (0-based) of the four basic n = 8 forms and of the two
# nilpotent parts; every coefficient is 1.
_P1 = ((0, 1, 2), (3, 4, 5), (6, 7, 8))
_P2 = ((0, 3, 6), (1, 4, 7), (2, 5, 8))
_P3 = ((0, 4, 8), (1, 5, 6), (2, 3, 7))
_P4 = ((0, 5, 7), (1, 3, 8), (2, 4, 6))
_E1 = ((0, 5, 7), (1, 3, 8))
_E2 = ((0, 5, 7),)


def _weight(variables: Tuple[str, ...], name: str, sign: int) -> MultiPoly:
    """sign times the parameter `name`, or sign alone for an unnamed summand."""
    if name:
        return MultiPoly.variable(variables, name) * sign
    return MultiPoly.const(variables, sign)


def _unit(*triples) -> tuple:
    """Summands of a fixed entry: one unit-weight summand."""
    return (("", 1, triples),)


@dataclass(frozen=True)
class CatalogEntry:
    """One classified operator: the weighted sum of its summands
    (param name or "" for unit weight, sign, triples), each summand 1 on its
    triples.  The summed table is the operator table: T for k < n and g0 for
    k = n.  Parameters live only here; `build` evaluates them, so every
    operator holds rationals."""

    id: str
    n: int
    params: Tuple[str, ...]
    notes: str
    summands: Tuple[Tuple[str, int, tuple], ...]
    expected_det: Optional[str] = None  # formula in u1..un, or None when unknown
    degenerate: bool = False

    def build(self, params: Optional[Dict[str, Fraction]] = None) -> Hho2:
        """The operator at the given parameter values, each read by `rat`;
        a name the entry does not take is refused."""
        if self.params and not params:
            raise ValueError(f"entry {self.id} needs parameter values for: {', '.join(self.params)}")
        values = {}
        for name, value in (params or {}).items():
            if name not in self.params:
                raise ValueError(f"entry {self.id} takes no parameter {name}")
            try:
                values[name] = rat(value)
            except ValueError as exc:
                raise ValueError(f"parameter {name}: {exc}") from None
        missing = [p for p in self.params if p not in values]
        if missing:
            raise ValueError(f"missing parameter values: {', '.join(missing)}")
        table: dict = {}
        for name, sign, triples in self.summands:
            coeff = _weight(self.params, name, sign)
            for key in triples:
                table[key] = table.get(key, 0) + coeff
        point = [values[p] for p in self.params]
        op = Hho2(self.n, {key: value.eval(point) for key, value in table.items()})
        if self.params and op.is_degenerate and not self.degenerate:
            raise ValueError(f"entry {self.id} is degenerate at the given parameters")
        return op

    def metric(self) -> PolyMatrix:
        """The metric over (u1..un, params): each summand's unit-weight metric
        times its weight, as the metric is linear in the table."""
        vs = tuple(f"u{i + 1}" for i in range(self.n)) + self.params
        parts = [(Hho2(self.n, dict.fromkeys(triples, 1)).metric(), _weight(vs, name, sign))
                 for name, sign, triples in self.summands]
        return PolyMatrix([[sum((g.at(i, j).with_vars(vs) * w for g, w in parts), MultiPoly.zero(vs))
                            for j in range(self.n)] for i in range(self.n)])


_FAM1_PARAMS = ("lambda1", "lambda2", "lambda3", "lambda4")
_FAM2_PARAMS = ("lambda1", "lambda2", "lambda3")

# Each entry's summands give the operator table: T on triples inside range(n),
# g0_ij on the triple (i, j, n).  A fixed entry is one unit-weight summand.
_ENTRIES: List[CatalogEntry] = [
    CatalogEntry(
        id="n2",
        n=2,
        params=(),
        notes="canonical n=2 operator; constant symplectic leading term",
        summands=_unit((0, 1, 2)),
        expected_det="1",
    ),
    CatalogEntry(
        id="n4-open",
        n=4,
        params=(),
        notes="n=4 open-orbit representative; block constant metric",
        summands=_unit((0, 1, 4), (2, 3, 4)),
        expected_det="1",
    ),
    CatalogEntry(
        id="n4-degenerate",
        n=4,
        params=(),
        notes="degenerate n=4 example: Pfaffian vanishes identically",
        summands=_unit((0, 1, 2)),
        expected_det="0",
        degenerate=True,
    ),
    CatalogEntry(
        id="n6-X",
        n=6,
        params=(),
        notes="n=6 case X (open orbit)",
        summands=_unit((0, 1, 2), (3, 4, 5), (0, 3, 6), (1, 4, 6), (2, 5, 6)),
        expected_det="(u1*u4 + u2*u5 + u3*u6 - 1)^2",
    ),
    CatalogEntry(
        id="n6-IX",
        n=6,
        params=(),
        notes="n=6 case IX",
        summands=_unit((0, 1, 2), (3, 4, 5), (0, 3, 6), (1, 4, 6)),
        expected_det="(u1*u4 + u2*u5)^2",
    ),
    CatalogEntry(
        id="n6-VIII",
        n=6,
        params=(),
        notes="n=6 case VIII",
        summands=_unit((0, 1, 2), (3, 4, 5), (0, 3, 6)),
        expected_det="(u1*u4)^2",
    ),
    CatalogEntry(
        id="n6-VII",
        n=6,
        params=(),
        notes="n=6 case VII",
        summands=_unit((3, 4, 5), (0, 3, 6), (1, 4, 6), (2, 5, 6)),
        expected_det="1",
    ),
    CatalogEntry(
        id="n6-VI",
        n=6,
        params=(),
        notes="n=6 case VI; constant metric",
        summands=_unit((0, 3, 6), (1, 4, 6), (2, 5, 6)),
        expected_det="1",
    ),
    CatalogEntry(
        id="n8-fam1",
        n=8,
        params=_FAM1_PARAMS,
        notes=(
            "n=8 family 1 of the classification (132 classes in total): "
            "weighted sum lambda1*p1 + lambda2*p2 + lambda3*p3 + lambda4*p4"
        ),
        summands=(("lambda1", 1, _P1), ("lambda2", 1, _P2), ("lambda3", 1, _P3), ("lambda4", 1, _P4)),
    ),
    CatalogEntry(
        id="n8-fam2-e1",
        n=8,
        params=_FAM2_PARAMS,
        notes=(
            "n=8 family 2 with two-term nilpotent part: "
            "lambda1*p1 + lambda2*p2 - lambda3*p3 + e1"
        ),
        summands=(("lambda1", 1, _P1), ("lambda2", 1, _P2), ("lambda3", -1, _P3), ("", 1, _E1)),
    ),
    CatalogEntry(
        id="n8-fam2-e2",
        n=8,
        params=_FAM2_PARAMS,
        notes=(
            "n=8 family 2 with one-term nilpotent part: "
            "lambda1*p1 + lambda2*p2 - lambda3*p3 + e2"
        ),
        summands=(("lambda1", 1, _P1), ("lambda2", 1, _P2), ("lambda3", -1, _P3), ("", 1, _E2)),
    ),
]

_BY_ID = {entry.id: entry for entry in _ENTRIES}


def list_entries() -> List[CatalogEntry]:
    return list(_ENTRIES)


def get_entry(entry_id: str) -> CatalogEntry:
    try:
        return _BY_ID[entry_id]
    except KeyError:
        known = ", ".join(sorted(_BY_ID))
        raise ValueError(f"unknown catalog id {entry_id!r}; known ids: {known}") from None


def build(entry_id: str, params: Optional[Dict[str, Fraction]] = None) -> Hho2:
    return get_entry(entry_id).build(params)
