"""Alternating 3-forms in homogeneous coordinates and the operator chart.

A form of dimension d is stored by its coefficients on strictly increasing
index triples (0-based internally, 1-based in JSON); the stored value is the
value of the totally skew coefficient family on that triple.  `skew_table`
checks and normalises such a table, and `skew_dense` is the one place that
writes a stored value onto the six permutations of its triple, with their
signs, as a dense dim^3 array.  An operator (`Hho2.table`) is a table of the
same kind on n+1 indices: on the affine chart v^{n+1} = 1 a form in dimension
n+1 is the pair (T, g0), with T on the triples inside range(n) and g0 on the
triples that contain the last index.  The conversion factor 3
comes from collapsing the full-skew summation onto increasing triples and is
applied only by `embed` and `chart_restrict`.

Coefficient values are exact rationals, checked by `skew_table`; the
parameters of the catalog's families never reach a form or an operator.

A linear map (`LinearMapN1`) is held as one integer form num / den in lowest
terms, its inverse too; `entries` is a derived `Fraction` view, and
`pullback` and the conformal checks read (den, num) directly.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from itertools import combinations
from typing import Dict, List, Sequence, Tuple

from .linalg import _det_inverse, clear_denominators, rat_mat_mul
from .poly import bounded_n, index_entries, json_int, rat

__all__ = [
    "ThreeForm",
    "LinearMapN1",
    "pullback",
    "chart_restrict",
    "embed",
]


def skew_dense(coeffs: Dict[Tuple[int, int, int], Fraction], dim: int) -> List[List[List[Fraction]]]:
    """Dense dim^3 array of the skew family stored on increasing triples:
    each stored value on its six permutations with their signs, zero where
    an index repeats or nothing is stored."""
    out = [[[0] * dim for _ in range(dim)] for _ in range(dim)]
    for (i, j, k), v in coeffs.items():
        out[i][j][k] = out[j][k][i] = out[k][i][j] = v
        out[j][i][k] = out[i][k][j] = out[k][j][i] = -v
    return out


def skew_table(coeffs: Dict[Tuple[int, int, int], Fraction], dim: int) -> Dict[Tuple[int, int, int], Fraction]:
    """Checked copy of a coefficient table: keys strictly increasing triples
    inside range(dim), zeros dropped.  A `Fraction` value is kept as it is;
    every other value is read by `rat`."""
    clean = {}
    for key, value in coeffs.items():
        i, j, k = key
        if not (0 <= i < j < k < dim):
            raise ValueError(f"triple {key} is not strictly increasing inside range({dim})")
        value = value if type(value) is Fraction else rat(value)
        if value:
            clean[(i, j, k)] = value
    return clean


class ThreeForm:
    """Totally skew rank-3 coefficient family on indices 0..dim-1."""

    __slots__ = ("dim", "coeffs")

    def __init__(self, dim: int, coeffs: Dict[Tuple[int, int, int], Fraction]):
        if dim < 3:
            raise ValueError("a 3-form needs dimension at least 3")
        self.dim = dim
        self.coeffs = skew_table(coeffs, dim)

    def __eq__(self, other):
        if not isinstance(other, ThreeForm):
            return NotImplemented
        return self.dim == other.dim and self.coeffs == other.coeffs

    __hash__ = None

    # ----- serialization -------------------------------------------------

    def to_json(self) -> str:
        coeffs = [[i + 1, j + 1, k + 1, str(value)] for (i, j, k), value in sorted(self.coeffs.items())]
        return json.dumps({"dim": self.dim, "coeffs": coeffs}, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ThreeForm":
        data = json.loads(text)
        if not isinstance(data, dict) or "dim" not in data or "coeffs" not in data:
            raise ValueError("malformed 3-form document: needs dim and coeffs")
        dim = json_int(data["dim"], "dim")
        bounded_n(dim - 1, "dim")
        coeffs = dict(index_entries(data["coeffs"], 3, dim, "coeffs"))
        return cls(dim, coeffs)


def _lowest_terms(den: int, num: List[List[int]]) -> Tuple[int, List[List[int]]]:
    """The integer form num / den divided by its gcd, with den > 0."""
    g = math.gcd(den, *(x for row in num for x in row))
    if den < 0:
        g = -g
    return (den, num) if g == 1 else (den // g, [[x // g for x in row] for row in num])


class LinearMapN1:
    """Invertible rational linear map of the homogeneous coordinate space,
    the matrix num / den with den > 0 coprime to the entries of num."""

    __slots__ = ("dim", "den", "num", "det", "_inverse")

    def __init__(self, entries: Sequence[Sequence]):
        if not isinstance(entries, (list, tuple)):
            raise ValueError(f"entries: expected a list of rows, got {entries!r}")
        for r, row in enumerate(entries):
            if not isinstance(row, (list, tuple)):
                raise ValueError(f"entries[{r}]: expected a list of rationals, got {row!r}")
        self.dim = len(entries)
        if any(len(row) != self.dim for row in entries):
            raise ValueError("linear map matrix must be square")
        rows = []
        for r, row in enumerate(entries):
            parsed = []
            for c, x in enumerate(row):
                try:
                    parsed.append(rat(x))
                except (ValueError, TypeError) as exc:
                    raise ValueError(f"entries[{r}][{c}]: {exc}") from None
            rows.append(parsed)
        self.den, self.num = clear_denominators(rows)
        self._inverse = None
        self.det = self._eliminate()
        if not self.det:
            raise ValueError("linear map must be invertible")

    def _eliminate(self) -> Fraction:
        """The determinant, by one fraction-free elimination of [num | I];
        its right block, last * num^-1, gives the inverse form, kept."""
        det, inverse = _det_inverse(self.num)
        if inverse is not None:
            last, rows = inverse
            self._inverse = _lowest_terms(last, [[self.den * x for x in row] for row in rows])
        return Fraction(det, self.den**self.dim)

    @classmethod
    def _of_form(cls, den: int, num: List[List[int]], det: Fraction, inverse=None) -> "LinearMapN1":
        # A map from an integer form in lowest terms whose determinant is
        # known; the inverse form is eliminated when first asked for.
        obj = object.__new__(cls)
        obj.dim, obj.den, obj.num, obj.det, obj._inverse = len(num), den, num, det, inverse
        return obj

    @property
    def entries(self) -> List[List[Fraction]]:
        return [[Fraction(x, self.den) for x in row] for row in self.num]

    @property
    def is_sl(self) -> bool:
        return self.det == 1

    @classmethod
    def identity(cls, dim: int) -> "LinearMapN1":
        return cls([[1 if i == j else 0 for j in range(dim)] for i in range(dim)])

    @classmethod
    def random_sl(cls, dim: int, rng) -> "LinearMapN1":
        """Product of 2 dim + 2 random elementary shears, each factor c/q with
        |c| <= 3 and q in {1, 2}, on integer rows over a power-of-two
        denominator.  Its determinant is one by construction, so no
        elimination runs.  A shear needs two distinct indices, so dim < 2 is
        refused before any draw."""
        if dim < 2:
            raise ValueError(f"random_sl needs dim at least 2, got {dim}")
        den, m = 1, [[int(i == j) for j in range(dim)] for i in range(dim)]
        for _ in range(2 * dim + 2):
            i = rng.randrange(dim)
            j = rng.randrange(dim)
            while j == i:
                j = rng.randrange(dim)
            c, q = rng.randint(-3, 3), rng.randint(1, 2)
            if not c:
                continue
            # left-multiply by E_{ij}(c/q): row i += (c/q) * row j
            row = m[j]
            if c % q:
                # c/2 in lowest terms: double every row and the denominator
                den *= 2
                m = [[2 * x for x in r] for r in m]
            else:
                c //= q
            m[i] = [a + c * b for a, b in zip(m[i], row)]
        return cls._of_form(*_lowest_terms(den, m), Fraction(1))

    def inverse(self) -> "LinearMapN1":
        if self._inverse is None:
            self._eliminate()
        return LinearMapN1._of_form(*self._inverse, 1 / self.det, (self.den, self.num))

    def compose(self, other: "LinearMapN1") -> "LinearMapN1":
        """Matrix product self * other: one integer product of the
        numerators over the product of the denominators, reduced once."""
        form = _lowest_terms(self.den * other.den, rat_mat_mul(self.num, other.num))
        return LinearMapN1._of_form(*form, self.det * other.det)

    def __eq__(self, other):
        if not isinstance(other, LinearMapN1):
            return NotImplemented
        return self.den == other.den and self.num == other.num

    __hash__ = None

    def to_json(self) -> str:
        return json.dumps(
            {"dim": self.dim, "entries": [[str(x) for x in row] for row in self.entries]},
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "LinearMapN1":
        """Read a document {"dim": d, "entries": rows}, where d is optional
        and must equal the row count, or a bare list of rows."""
        data, dim = json.loads(text), None
        if isinstance(data, dict):
            if "entries" not in data:
                raise ValueError("malformed linear map document: missing entries")
            if "dim" in data:
                dim = json_int(data["dim"], "dim")
            data = data["entries"]
        if isinstance(data, list):
            bounded_n(len(data) - 1, "entries")
            if dim is not None and dim != len(data):
                raise ValueError(f"dim: {dim} does not match the {len(data)} rows of entries")
        return cls(data)


def pullback(form: ThreeForm, a: LinearMapN1) -> ThreeForm:
    """Multilinear pullback: out[l,m,n] = sum omega[p,q,r] a[p][l] a[q][m] a[r][n].

    Over a skew family this is the third exterior power of `a`: out[t] sums
    omega[s] times the 3x3 minor of `a` on rows s and columns t.  It runs in
    integers: a = M / c and omega = W / L.  Minors of M expand along their
    first row from the 2x2 minors of the other two rows, built once per row
    pair; each target is divided by L * c^3 once at the end.
    """
    if a.dim != form.dim:
        raise ValueError(f"map dimension {a.dim} does not match form dimension {form.dim}")
    d = form.dim
    c, m = a.den, a.num
    big_l, (numerators,) = clear_denominators([list(form.coeffs.values())])
    by_pair: Dict[Tuple[int, int], list] = {}
    for (p, q, r), x in zip(form.coeffs, numerators):
        by_pair.setdefault((q, r), []).append((p, x))
    pairs = list(combinations(range(d), 2))
    at = {pair: i for i, pair in enumerate(pairs)}
    targets = list(combinations(range(d), 3))
    layout = [(i, j, k, at[j, k], at[i, k], at[i, j]) for i, j, k in targets]
    totals = [0] * len(targets)
    for (q, r), sources in by_pair.items():
        minors = [m[q][i] * m[r][j] - m[q][j] * m[r][i] for i, j in pairs]
        v = [sum(x * m[p][col] for p, x in sources) for col in range(d)]
        totals = [t + v[i] * minors[jk] - v[j] * minors[ik] + v[k] * minors[ij]
                  for t, (i, j, k, jk, ik, ij) in zip(totals, layout)]
    scale = big_l * c**3
    return ThreeForm(d, {t: Fraction(total, scale) for t, total in zip(targets, totals) if total})


def chart_restrict(form: ThreeForm) -> Dict[Tuple[int, int, int], Fraction]:
    """Operator table of a form in dimension n+1 on the chart v^{n+1} = 1.

    T[i][j][k] = 3*omega[i][j][k] for i,j,k <= n and g0[i][j] = 3*omega[i][j][n+1];
    the table is 3*omega on the same increasing triples.
    """
    return {key: 3 * value for key, value in form.coeffs.items()}


def embed(op) -> ThreeForm:
    """Inverse of chart_restrict: the form omega = table/3 of an operator."""
    third = Fraction(1, 3)
    return ThreeForm(op.n + 1, {key: value * third for key, value in op.table.items()})
