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
from functools import partial
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .operators import Hho2
from .poly import MultiPoly

__all__ = ["CatalogEntry", "list_entries", "get_entry", "build", "N8_CLASS_COUNT"]

N8_CLASS_COUNT = 132

# Defining triples (0-based) of the four basic n = 8 forms.
_P1 = (((0, 1, 2), 1), ((3, 4, 5), 1), ((6, 7, 8), 1))
_P2 = (((0, 3, 6), 1), ((1, 4, 7), 1), ((2, 5, 8), 1))
_P3 = (((0, 4, 8), 1), ((1, 5, 6), 1), ((2, 3, 7), 1))
_P4 = (((0, 5, 7), 1), ((1, 3, 8), 1), ((2, 4, 6), 1))
_E1 = (((0, 5, 7), 1), ((1, 3, 8), 1))
_E2 = (((0, 5, 7), 1),)


@dataclass(frozen=True)
class CatalogEntry:
    id: str
    n: int
    params: Tuple[str, ...]
    notes: str
    builder: Callable[[], Hho2]
    expected_det: Optional[str] = None  # formula in u1..un, or None when unknown
    degenerate: bool = False

    def build_symbolic(self) -> Hho2:
        """Operator with parameters left as polynomial symbols (if any)."""
        return self.builder()

    def build(self, params: Optional[Dict[str, Fraction]] = None) -> Hho2:
        op = self.builder()
        if self.params:
            if not params:
                raise ValueError(
                    f"entry {self.id} needs parameter values for: {', '.join(self.params)}"
                )
            values = {name: Fraction(value) for name, value in params.items()}
            op = op.instantiate(values)
            if op.is_degenerate and not self.degenerate:
                raise ValueError(f"entry {self.id} is degenerate at the given parameters")
        elif params:
            raise ValueError(f"entry {self.id} takes no parameters")
        return op


def _combined_form_op(weights: Sequence[Tuple[str, int, tuple]], params: Tuple[str, ...]):
    """Operator whose tensor data are the coefficients of sum(c_a * p_a).

    weights: (param name or empty for unit weight, sign, triples) per summand.
    The summed table is the operator table: T for k < n and g0 for k = n.
    """

    def make() -> Hho2:
        table: dict = {}
        for name, sign, triples in weights:
            if name:
                coeff = MultiPoly.variable(params, name) * sign
            else:
                coeff = MultiPoly.const(params, sign)
            for key, base in triples:
                table[key] = table.get(key, 0) + coeff * base
        return Hho2(8, table, params)

    return make


_FAM1_PARAMS = ("lambda1", "lambda2", "lambda3", "lambda4")
_FAM2_PARAMS = ("lambda1", "lambda2", "lambda3")

# Each builder gives the operator table: T on triples inside range(n), g0_ij
# on the triple (i, j, n).
_ENTRIES: List[CatalogEntry] = [
    CatalogEntry(
        id="n2",
        n=2,
        params=(),
        notes="canonical n=2 operator; constant symplectic leading term",
        builder=partial(Hho2, 2, {(0, 1, 2): 1}),
        expected_det="1",
    ),
    CatalogEntry(
        id="n4-open",
        n=4,
        params=(),
        notes="n=4 open-orbit representative; block constant metric",
        builder=partial(Hho2, 4, {(0, 1, 4): 1, (2, 3, 4): 1}),
        expected_det="1",
    ),
    CatalogEntry(
        id="n4-degenerate",
        n=4,
        params=(),
        notes="degenerate n=4 example: Pfaffian vanishes identically",
        builder=partial(Hho2, 4, {(0, 1, 2): 1}),
        expected_det="0",
        degenerate=True,
    ),
    CatalogEntry(
        id="n6-X",
        n=6,
        params=(),
        notes="n=6 case X (open orbit)",
        builder=partial(Hho2, 6, {(0, 1, 2): 1, (3, 4, 5): 1, (0, 3, 6): 1, (1, 4, 6): 1, (2, 5, 6): 1}),
        expected_det="(u1*u4 + u2*u5 + u3*u6 - 1)^2",
    ),
    CatalogEntry(
        id="n6-IX",
        n=6,
        params=(),
        notes="n=6 case IX",
        builder=partial(Hho2, 6, {(0, 1, 2): 1, (3, 4, 5): 1, (0, 3, 6): 1, (1, 4, 6): 1}),
        expected_det="(u1*u4 + u2*u5)^2",
    ),
    CatalogEntry(
        id="n6-VIII",
        n=6,
        params=(),
        notes="n=6 case VIII",
        builder=partial(Hho2, 6, {(0, 1, 2): 1, (3, 4, 5): 1, (0, 3, 6): 1}),
        expected_det="(u1*u4)^2",
    ),
    CatalogEntry(
        id="n6-VII",
        n=6,
        params=(),
        notes="n=6 case VII",
        builder=partial(Hho2, 6, {(3, 4, 5): 1, (0, 3, 6): 1, (1, 4, 6): 1, (2, 5, 6): 1}),
        expected_det="1",
    ),
    CatalogEntry(
        id="n6-VI",
        n=6,
        params=(),
        notes="n=6 case VI; constant metric",
        builder=partial(Hho2, 6, {(0, 3, 6): 1, (1, 4, 6): 1, (2, 5, 6): 1}),
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
        builder=_combined_form_op(
            [("lambda1", 1, _P1), ("lambda2", 1, _P2), ("lambda3", 1, _P3), ("lambda4", 1, _P4)],
            _FAM1_PARAMS,
        ),
    ),
    CatalogEntry(
        id="n8-fam2-e1",
        n=8,
        params=_FAM2_PARAMS,
        notes=(
            "n=8 family 2 with two-term nilpotent part: "
            "lambda1*p1 + lambda2*p2 - lambda3*p3 + e1"
        ),
        builder=_combined_form_op(
            [("lambda1", 1, _P1), ("lambda2", 1, _P2), ("lambda3", -1, _P3), ("", 1, _E1)],
            _FAM2_PARAMS,
        ),
    ),
    CatalogEntry(
        id="n8-fam2-e2",
        n=8,
        params=_FAM2_PARAMS,
        notes=(
            "n=8 family 2 with one-term nilpotent part: "
            "lambda1*p1 + lambda2*p2 - lambda3*p3 + e2"
        ),
        builder=_combined_form_op(
            [("lambda1", 1, _P1), ("lambda2", 1, _P2), ("lambda3", -1, _P3), ("", 1, _E2)],
            _FAM2_PARAMS,
        ),
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
