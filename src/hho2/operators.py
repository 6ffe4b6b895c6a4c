"""Second-order homogeneous Hamiltonian operators and projective reciprocals.

An operator is determined by a constant fully skew rank-3 tensor T and a
constant skew matrix g0 on n dependent variables (n even): its covariant
metric is g_ij(u) = T_ijk u^k + g0_ij, summed over the full skew range.  Both
are stored as one skew table on the n+1 homogeneous indices (`Hho2.table`),
T on the triples inside range(n) and g0_ij on (i, j, n), so the metric is the
table contracted with (u, 1).  `t_value` reads a signed entry off the table;
the metric and every integer route read `_integer_table`, the table cleared
of denominators as one dense signed array.  The table is three
times the coefficients of the constant 3-form the operator corresponds to;
`embed` and `chart_restrict` apply that factor.  The operator is nondegenerate
when the Pfaffian of g is not the zero polynomial; degenerate operators are
representable and flagged, but excluded from inversion-dependent work.

With x = (u, s) the homogeneous metric G(x) = T(u) + s g0 has Pfaffian
D = Pf G(x) of degree n/2, and its s-free part Pf(T(u)) vanishes, as
T(u) u = 0: s divides Pf G(x), so deg D <= n/2 - 1.  The metric's Pfaffian
minors expand in one of two coefficient rings of `linalg`, chosen by an
observable property of the table: sparse `MultiPoly`s for a sparse table,
as every catalog table is, or dense homogeneous forms in x read straight off
the integer table's rows, forming only the monomials with s on the full
mask, once at least half of the integer metric's coefficients are nonzero,
as after a generic SL move (`_DENSE_SHARE`).

Projective reciprocal transformations act through an invertible matrix on the
n+1 homogeneous coordinates of the table; the induced point map and its
Jacobian live on the affine chart, and the conformal checks evaluate them at a
point in one integer record.  `transform` pulls the operator's own table
back along the inverse matrix: pullback is linear, so the table, three times
the form, pulls back to three times the pulled-back form and the factor 3
never enters.  This makes `conformal_check` the literal conformal identity
J^T gt(ut) J = A(u)^{-3} g(u).  The table is checked by `skew_table` once,
where it enters (the constructor and the document reader); `transform`
builds the pulled-back form and the moved operator without checking again.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Dict, List, Sequence, Tuple

from .linalg import PolyMatrix, _index_pairs, _skew_fill, clear_denominators, homogeneous_expansion, pfaffian, rat_det, rat_mat_mul
from .poly import MultiPoly, _linear, bounded_n, index_entries, json_int
from .threeform import LinearMapN1, ThreeForm, pullback, skew_dense, skew_table

__all__ = [
    "Hho2",
    "ValidationReport",
    "validate",
    "transform",
    "conformal_check",
]

# The least share of nonzero coefficients in an integer metric whose Pfaffian
# minors expand as dense homogeneous forms.  Catalog tables read 0.11 or less
# (n = 2 reads 1/3) and stay in the sparse MultiPoly ring, where n = 8 expands
# 4-5x faster; tables moved by generic SL maps read 0.55-0.76 at n = 8, where
# the dense Pfaffian is 1.3-1.8x faster.  At n = 6 the two rings break even
# near a share of one half.
_DENSE_SHARE = 0.5


class Hho2:
    """Operator data: one skew table of rationals on the n+1 indices.

    The table maps strictly increasing triples in range(n+1) to coefficients,
    stored as in `ThreeForm.coeffs`: T on the triples inside range(n) and g0_ij
    on the triple (i, j, n).
    """

    __slots__ = ("n", "table", "_metric", "_pf", "_integer", "_integer_forms")

    def __init__(self, n: int, table: Dict[Tuple[int, int, int], Fraction]):
        self._check_n(n)
        self._start(n, skew_table(table, n + 1))

    @staticmethod
    def _check_n(n: int) -> None:
        if n < 2 or n % 2 != 0:
            raise ValueError(f"n must be even and at least 2, got {n}")

    @classmethod
    def _of(cls, n: int, table: Dict[Tuple[int, int, int], Fraction]) -> "Hho2":
        # An operator on a table that is already checked (`skew_table`'s
        # output, or `pullback`'s from one), for an even n >= 2.
        obj = object.__new__(cls)
        obj._start(n, table)
        return obj

    def _start(self, n: int, table: Dict[Tuple[int, int, int], Fraction]) -> None:
        self.n, self.table = n, table
        self._metric = self._pf = self._integer = self._integer_forms = None

    # ----- derived data ----------------------------------------------------

    @property
    def vars(self) -> Tuple[str, ...]:
        return tuple(f"u{i + 1}" for i in range(self.n))

    def t_value(self, i: int, j: int, k: int) -> Fraction:
        """Table value at any triple in range(n+1), g0_ij at (i, j, n): the value
        on the sorted triple, negated for an odd permutation; 0 on a repeat."""
        if min(i, j, k) < 0 or max(i, j, k) > self.n:
            raise IndexError(f"triple {(i, j, k)} is not inside range({self.n + 1})")
        value = self.table.get(tuple(sorted((i, j, k))), Fraction(0))
        return -value if (i > j) ^ (i > k) ^ (j > k) else value

    def metric(self) -> PolyMatrix:
        """Covariant metric g_ij(u) = T_ijk u^k + g0_ij: row (i, j) of
        `_integer_table` over L, read as one linear form in u.  An integral
        table (L = 1) is its own metric: the entries are `_integer_metric`.
        A dense table (`_dense`) seeds the metric's Pfaffian expansion in the
        dense homogeneous ring on those rows; its s-free part is Pf(T(u)),
        zero as T(u) u = 0."""
        if self._metric is None:
            big_l, t = self._integer_table()
            metric = PolyMatrix(self._integer_metric() if big_l == 1 else self._linear_rows(big_l))
            if self._dense():
                homogeneous_expansion(metric, big_l, t)
            self._metric = metric
        return self._metric

    def _dense(self) -> bool:
        """Whether the metric's Pfaffian minors expand as dense homogeneous
        forms: at least _DENSE_SHARE of the integer metric's coefficients,
        rows (i, j) of `_integer_table` with i < j, are nonzero."""
        n, t = self.n, self._integer_table()[1]
        nonzero = sum(x != 0 for i, j in _index_pairs(n) for x in t[i][j])
        return nonzero >= _DENSE_SHARE * (n * (n - 1) // 2) * (n + 1)

    def pfaffian_poly(self) -> MultiPoly:
        if self._pf is None:
            self._pf = pfaffian(self.metric())
        return self._pf

    @property
    def is_degenerate(self) -> bool:
        return self.pfaffian_poly().is_zero()

    def _integer_table(self) -> Tuple[int, List[List[List[int]]]]:
        """(L, t): L the lcm of the table's denominators and t the table times
        L as a dense signed array (`skew_dense`) on range(n) x range(n) x
        range(n + 1), column n holding g0; built from the numerators on first
        use and cached.  The metric and every integer route of the operator
        and its systems read it; a product of a row of t with an n-vector
        reads range(n) only."""
        if self._integer is None:
            n = self.n
            big_l, (nums,) = clear_denominators([list(self.table.values())])
            dense = skew_dense(dict(zip(self.table, nums)), n + 1)
            self._integer = big_l, [plane[:n] for plane in dense[:n]]
        return self._integer

    def _linear_rows(self, big_l: int) -> List[List[MultiPoly]]:
        """The n x n skew matrix whose entry (i, j) is row (i, j) of
        `_integer_table` over big_l, read as one linear form in u."""
        vs, n, t = self.vars, self.n, self._integer_table()[1]
        upper = [_linear(vs, t[i][j] if big_l == 1 else [Fraction(x, big_l) for x in t[i][j]]) for i, j in _index_pairs(n)]
        return _skew_fill(n, upper, MultiPoly.zero(vs))

    def _integer_metric(self) -> List[List[MultiPoly]]:
        """L g(u) with integer coefficients, `_linear_rows(1)`, built on first
        use and cached: the integer residuals of the operator's systems read
        it at every L, and it is the metric when L = 1."""
        if self._integer_forms is None:
            self._integer_forms = self._linear_rows(1)
        return self._integer_forms

    def _metric_numerator(self, x: Sequence[int]) -> Tuple[int, List[List[int]]]:
        """(L, G) with g(u) = G / (L s) at the integer vector x = s (u, 1): G is
        x contracted with the integer table t of `_integer_table`."""
        big_l, t = self._integer_table()
        return big_l, [[sum(map(mul, tj, x)) for tj in ti] for ti in t]

    def __eq__(self, other):
        if not isinstance(other, Hho2):
            return NotImplemented
        return self.n == other.n and self.table == other.table

    __hash__ = None

    def __repr__(self):
        return f"Hho2(n={self.n}, entries={len(self.table)})"

    # ----- serialization ----------------------------------------------------

    def to_json(self) -> str:
        t_items = []
        g_items = []
        for (i, j, k), value in sorted(self.table.items()):
            if k < self.n:
                t_items.append([i + 1, j + 1, k + 1, str(value)])
            else:
                g_items.append([i + 1, j + 1, str(value)])
        return json.dumps({"n": self.n, "T": t_items, "g0": g_items, "params": {}}, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "Hho2":
        return cls.from_data(json.loads(text))

    @classmethod
    def from_data(cls, data) -> "Hho2":
        """The operator of a parsed operator document, as `from_json` reads it."""
        if not isinstance(data, dict) or "n" not in data:
            raise ValueError("malformed operator document: missing n")
        n = bounded_n(json_int(data["n"], "n"), "n")
        table = dict(index_entries(data.get("T", []), 3, n, "T"))
        for (i, j), value in index_entries(data.get("g0", []), 2, n, "g0"):
            table[(i, j, n)] = value
        if data.get("params", {}) != {}:
            raise ValueError("params: must be {}; operator documents with unresolved params are not supported")
        return cls(n, table)


@dataclass
class ValidationReport:
    n: int
    pfaffian: MultiPoly
    degenerate: bool


def validate(op: Hho2) -> ValidationReport:
    """Structural report: the metric Pfaffian and the nondegeneracy flag.

    T and g0 are skew by construction: the constructor refuses every table
    key that is not a strictly increasing triple (`skew_table`).
    """
    pf = op.pfaffian_poly()
    return ValidationReport(op.n, pf, pf.is_zero())


def transform(op: Hho2, a: LinearMapN1) -> Hho2:
    """Pull the operator's table back along the inverse matrix.

    The table is read as a 3-form on the n+1 indices; as pullback is linear,
    this equals chart_restrict(pullback(embed(op), a^-1)) with no factor 3
    applied and removed.  The matrix a acts on the n+1 homogeneous
    coordinates, so the point map is ut^i = (a[i][j] u^j + a[i][n]) / A with
    the affine factor A = a[n][j] u^j + a[n][n].  With this orientation the
    output plays the transformed-coordinates role in the conformal identity
    checked by `conformal_check`; compositions satisfy
    transform(transform(op, a), b) = transform(op, b compose a).  The table
    was checked when `op` was built, so neither the form nor the output is
    checked again.
    """
    if a.dim != op.n + 1:
        raise ValueError(f"transformation dimension {a.dim - 1} does not match operator n={op.n}")
    return Hho2._of(op.n, pullback(ThreeForm._of(op.n + 1, op.table), a.inverse()).coeffs)


def _conformal_point(op: Hho2, moved: Hho2, a: LinearMapN1, u: Sequence[Fraction]):
    """The integer record of both conformal identities at u.

    With x = (u, 1) = X/s, a = M/c, y = M X = c s (N, A), and the two metric
    tables W/L of `op` and Wt/Lt of `moved`: g(u) = G/(L s) with G = W X,
    gt(ut) = Gt/(Lt y_n) with Gt = Wt y, J = s K / y_n^2 with
    K_il = y_n M_il - y_i M_nl, and A = y_n/(c s).  Returns (G, Gt, K, y_n,
    L, c^3 Lt); the identities then hold in integers with s cancelled.
    """
    n = op.n
    if len(u) != n:
        raise ValueError(f"point must supply {n} values")
    _, (x,) = clear_denominators([[*u, 1]])
    c, m = a.den, a.num
    y = [sum(map(mul, row, x)) for row in m]
    yn, bottom = y[n], m[n]
    if not yn:
        raise ZeroDivisionError("affine factor vanishes at the sample point")
    big_l, g = op._metric_numerator(x)
    lt, gt = moved._metric_numerator(y)
    k = [[yn * m[i][l] - y[i] * bottom[l] for l in range(n)] for i in range(n)]
    return g, gt, k, yn, big_l, c**3 * lt


def conformal_check(op: Hho2, moved: Hho2, a: LinearMapN1, u: Sequence[Fraction]) -> bool:
    """Exact pointwise conformal identity J^T gt(ut) J == A^{-3} g(u), with gt
    the metric of `moved` (normally transform(op, a), computed once per map).

    Read off the integer record of `_conformal_point` with every denominator
    cleared: L K^T Gt K == c^3 Lt y_n^2 G entrywise.  Holds for every
    invertible map (a -> lambda a scales both sides by lambda^-3); raises
    ZeroDivisionError at poles of the chart.
    """
    g, gt, k, yn, big_l, scale = _conformal_point(op, moved, a, u)
    lhs = rat_mat_mul([list(col) for col in zip(*k)], rat_mat_mul(gt, k))
    rhs = scale * yn * yn
    return all(big_l * x == rhs * y for row, g_row in zip(lhs, g) for x, y in zip(row, g_row))


def conformal_determinant_check(op: Hho2, moved: Hho2, a: LinearMapN1, u: Sequence[Fraction]) -> bool:
    """Determinant consequence of the conformal identity, with gt the metric
    of `moved`: det(gt(ut)) * det(J)^2 == A^{-3n} det(g(u)), read off the
    same integer record as L^n det Gt (det K)^2 == (c^3 Lt)^n y_n^(2n) det G."""
    g, gt, k, yn, big_l, scale = _conformal_point(op, moved, a, u)
    n = op.n
    return big_l**n * rat_det(gt) * rat_det(k) ** 2 == scale**n * yn ** (2 * n) * rat_det(g)
