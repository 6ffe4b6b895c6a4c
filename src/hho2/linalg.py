"""Exact linear algebra over polynomial rings and over the rationals.

Polynomial matrices get fraction-free algorithms: one Bareiss elimination
for determinants and rank, a rank first bounded below at a fixed rational
point, a Laplace expansion memoised over column subsets as an independent
determinant, and a skew adjugate assembled from Pfaffian minors, whose entries
over the Pfaffian give the inverse.  One recursive first-row Pfaffian
expansion, memoised over index subsets, serves every coefficient ring: here
sparse integer polynomials, each minor summed in one pass; dense homogeneous
forms, each minor a list of integer coefficients over the degree-k monomials
in the coordinates (u, s), for a skew matrix of linear entries in which most
coefficients are nonzero (`homogeneous_expansion`; on the full mask only the
monomials with s are formed, as the caller vouches the s-free part is zero);
and the integer eigenvalue pencil of `diagnostics`.  A matrix is checked,
cleared of denominators and given its expansion once, on the first Pfaffian
or adjugate asked of it or when `homogeneous_expansion` seeds it, so
`pfaffian(M)` then `pfaffian_adjugate(M)` expand each minor once; an
integral matrix is expanded on its own entries.
Plain rational matrices (lists of lists of Fraction) are cleared of
denominators and row-reduced in integers by fraction-free Gauss-Jordan
elimination (Bareiss, Math. Comp. 22, 1968; Nakos, Turner & Williams, 1997).

Sign conventions are pinned by the small cases: Pf([[0,1],[-1,0]]) = +1 and
the 4x4 Pfaffian is m01*m23 - m02*m13 + m03*m12.  Every two-index skew object
of the package (the metric, the flux matrix A, the adjugate, the torsion
tensors) is laid out in one pair order, `_index_pairs`, and mirrored by one
fill, `_skew_fill`: the upper entries in that order, their negations below
the diagonal.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from itertools import combinations, combinations_with_replacement
from operator import itemgetter, mul
from typing import List, Sequence, Tuple

from .poly import MultiPoly, _pack, _sum_of_products, clear_denominators

__all__ = [
    "PolyMatrix",
    "clear_denominators",
    "det_bareiss",
    "det_laplace",
    "homogeneous_expansion",
    "pfaffian",
    "pfaffian_adjugate",
    "poly_rank",
    "rat_mat_mul",
    "rat_det",
    "rat_inverse",
    "rat_rank",
    "rat_kernel",
]


@functools.lru_cache(maxsize=None)
def _index_pairs(n: int) -> Tuple[Tuple[int, int], ...]:
    """The pairs i < j of range(n) in the order of `combinations`: the one
    order of the upper entries of every skew matrix and pair tensor."""
    return tuple(combinations(range(n), 2))


def _skew_fill(n: int, upper, zero) -> list:
    """The n x n skew matrix with upper[m] at the m-th pair (i, j) of
    `_index_pairs(n)`, its negation at (j, i) and `zero` on the diagonal."""
    out = [[zero] * n for _ in range(n)]
    for (i, j), x in zip(_index_pairs(n), upper):
        out[i][j], out[j][i] = x, -x
    return out


class PolyMatrix:
    """Rectangular matrix of MultiPoly entries sharing one ring.

    Values are immutable in practice, as `MultiPoly` values are: no routine
    writes to `entries` after construction.  The Pfaffian expansion memoised
    in `_expansion` on first use relies on that.
    """

    __slots__ = ("rows", "cols", "entries", "vars", "_expansion")

    def __init__(self, entries: Sequence[Sequence[MultiPoly]]):
        self.entries = [list(row) for row in entries]
        self.rows = len(self.entries)
        self.cols = len(self.entries[0]) if self.rows else 0
        if any(len(row) != self.cols for row in self.entries):
            raise ValueError("ragged matrix")
        vs = None
        for row in self.entries:
            for p in row:
                if not isinstance(p, MultiPoly):
                    raise TypeError(f"entry {p!r} is not a MultiPoly")
                if vs is None:
                    vs = p.vars
                elif p.vars != vs:
                    raise ValueError("mixed variable sets in matrix")
        self.vars = vs if vs is not None else ()
        self._expansion = None

    def at(self, i: int, j: int) -> MultiPoly:
        return self.entries[i][j]

    def is_square(self) -> bool:
        return self.rows == self.cols

    def is_skew(self) -> bool:
        if not self.is_square():
            return False
        for i in range(self.rows):
            if not self.entries[i][i].is_zero():
                return False
            for j in range(i + 1, self.cols):
                upper, lower = self.entries[i][j].terms, self.entries[j][i].terms
                if len(upper) != len(lower) or any(lower.get(key) != -c for key, c in upper.items()):
                    return False
        return True

    def __eq__(self, other):
        if not isinstance(other, PolyMatrix):
            return NotImplemented
        return (
            self.rows == other.rows
            and self.cols == other.cols
            and all(
                self.entries[i][j] == other.entries[i][j]
                for i in range(self.rows)
                for j in range(self.cols)
            )
        )

    __hash__ = None

    def eval_at(self, point) -> List[List[Fraction]]:
        return [[p.eval(point) for p in row] for row in self.entries]

    def __str__(self):
        return "[" + ",\n ".join("[" + ", ".join(str(p) for p in row) + "]" for row in self.entries) + "]"


def _bareiss(matrix: PolyMatrix) -> Tuple[int, MultiPoly]:
    """(rank, signed last pivot) by fraction-free Bareiss elimination.

    Intermediate entries are minors of the input, so every division below is
    exact in the polynomial ring.  For a square matrix of full rank the signed
    last pivot is the determinant.
    """
    m = [row[:] for row in matrix.entries]
    rows, cols, vars_ = matrix.rows, matrix.cols, matrix.vars
    rank, sign = 0, 1
    prev = MultiPoly.const(vars_, 1)
    for col in range(cols):
        if rank == rows:
            break
        pivot = next((i for i in range(rank, rows) if not m[i][col].is_zero()), None)
        if pivot is None:
            continue
        if pivot != rank:
            m[rank], m[pivot] = m[pivot], m[rank]
            sign = -sign
        p, top = m[rank][col], m[rank]
        for i in range(rank + 1, rows):
            row, f = m[i], -m[i][col]
            for j in range(col + 1, cols):
                row[j] = _sum_of_products(vars_, [(p, row[j]), (f, top[j])]).exact_div(prev)
        prev = p
        rank += 1
    return rank, prev if sign > 0 else -prev


def det_bareiss(matrix: PolyMatrix) -> MultiPoly:
    """Exact determinant by fraction-free Bareiss elimination."""
    if not matrix.is_square():
        raise ValueError("determinant of a non-square matrix")
    rank, pivot = _bareiss(matrix)
    return pivot if rank == matrix.rows else MultiPoly.zero(matrix.vars)


def det_laplace(matrix: PolyMatrix) -> MultiPoly:
    """Exact determinant by Laplace expansion memoised over column subsets:
    minors[mask] is the minor on the first popcount(mask) rows and the columns
    in mask, expanded along its last row.  Division-free over 2^n minors, it
    beats Bareiss on entries sparse in many variables, and it shares no step
    with it, so either checks the other."""
    if not matrix.is_square():
        raise ValueError("determinant of a non-square matrix")
    n, vars_, rows = matrix.rows, matrix.vars, matrix.entries
    minors = [MultiPoly.const(vars_, 1)]
    for mask in range(1, 1 << n):
        row = rows[mask.bit_count() - 1]
        sign, pairs = 1, []
        for j in reversed(range(n)):
            if mask >> j & 1:
                pairs.append((row[j] * sign, minors[mask ^ 1 << j]))
                sign = -sign
        minors.append(_sum_of_products(vars_, pairs))
    return minors[-1]


def _pfaffian_expansion(rows, total, one):
    """pf(mask), the Pfaffian of the skew submatrix of `rows` on the indices
    in the bitmask, by recursive first-row expansion memoised over masks.

    `rows` holds both triangles of a skew matrix over any ring, so the entry
    with sign -1 is read from the transposed slot and nothing is negated.
    Pairs with a zero (falsy) entry or sub-Pfaffian are skipped, and
    `total(pairs)` sums the products of the remaining (entry, sub-Pfaffian)
    pairs of one expansion, none at all for a zero minor; `one` is Pf of the
    empty matrix.
    """
    memo = {0: one}

    def pf(mask: int):
        got = memo.get(mask)
        if got is None:
            low = mask & -mask
            first, rest = low.bit_length() - 1, mask ^ low
            row, pairs, todo, odd = rows[first], [], rest, False
            while todo:
                bit = todo & -todo
                j = bit.bit_length() - 1
                entry = rows[j][first] if odd else row[j]
                if entry:
                    sub = pf(rest ^ bit)
                    if sub:
                        pairs.append((entry, sub))
                todo ^= bit
                odd = not odd
            got = memo[mask] = total(pairs)
        return got

    return pf


@functools.lru_cache(maxsize=None)
def _homogeneous_monomials(ncoords: int, degree: int) -> Tuple[Tuple[int, ...], ...]:
    """The degree-k monomials in x_0..x_{c-1} (c = ncoords) as sorted index
    tuples: those without x_{c-1} first, then those with it, each part in the
    order of `combinations_with_replacement`."""
    last = ncoords - 1
    return tuple(sorted(combinations_with_replacement(range(ncoords), degree), key=lambda m: m[-1:] == (last,)))


@functools.lru_cache(maxsize=None)
def _homogeneous_degree(ncoords: int, degree: int, last_only: bool):
    """How the dense homogeneous ring forms one degree.

    A form of degree k is the list of its coefficients on the monomials of
    `_homogeneous_monomials`.  A sum of products of linear forms e_j with
    forms f_j of degree k - 1 has, at a monomial m, the sum over the
    coordinates v dividing m of S[v, m / x_v] = sum_j e_j[v] f_j[m / x_v].
    Returns (cuts, gathers, keys): for each coordinate v the slice of the
    degree k - 1 monomials whose S the degree needs, S being laid out v by v;
    for each output monomial an itemgetter of its S values, padded with the
    zero after the last one so that a single value still gives a tuple; and
    the packed `MultiPoly` key of each output monomial at x_{c-1} = 1.  With
    `last_only` only the monomials that contain x_{c-1} are formed, and so
    only the S of v = c - 1 or of m / x_v containing x_{c-1}."""
    last = ncoords - 1
    below = _homogeneous_monomials(ncoords, degree - 1)
    outs = _homogeneous_monomials(ncoords, degree)
    cuts = [slice(0, len(below))] * ncoords
    if last_only:
        # m -> m x_{c-1} maps the degree k - 1 monomials onto the last ones
        outs = outs[len(outs) - len(below):]
        cut = slice(len(below) - sum(m[-1:] == (last,) for m in below), len(below))
        cuts = [cut] * last + [slice(0, len(below))]
    at, offset = {}, 0
    for v, cut in enumerate(cuts):
        for i in range(cut.start, cut.stop):
            at[v, below[i]] = offset + i - cut.start
        offset += cut.stop - cut.start
    gathers = []
    for m in outs:
        picks = [at[v, m[:i] + m[i + 1:]] for i, v in enumerate(m) if i == m.index(v)]
        gathers.append(itemgetter(*picks, offset) if len(picks) == 1 else itemgetter(*picks))
    keys = [_pack([m.count(v) for v in range(last)], last) for m in outs]
    return cuts, gathers, keys


def homogeneous_expansion(matrix: PolyMatrix, den: int, forms) -> None:
    """Give a skew matrix of linear entries its Pfaffian expansion in the
    dense homogeneous ring, in place of the sparse `MultiPoly` one that the
    first Pfaffian or adjugate would build.

    forms[i][j] lists the integer coefficients of den * matrix[i][j] on the
    coordinates (u_1, ..., u_m, s) of the matrix's m variables, s standing
    for 1: a minor on 2k indices is then a form of degree k in these m + 1
    coordinates, held as a dense list (`_homogeneous_degree`) and converted
    to a `MultiPoly` once, when first asked for.  On the full mask only the
    monomials that contain s are formed: its s-free part is the Pfaffian of
    the matrix at s = 0, which the caller vouches is zero (for the metric of
    an operator, T(u) u = 0).  The matrix is checked as on every first
    expansion."""
    _check_pfaffian_input(matrix)
    vars_, ncoords, top = matrix.vars, len(matrix.vars) + 1, matrix.rows // 2
    plans = {len(_homogeneous_monomials(ncoords, k - 1)): _homogeneous_degree(ncoords, k, k == top)
             for k in range(1, top + 1)}

    def total(pairs):
        if not pairs:
            return ()
        entries, subs = zip(*pairs)
        cuts, gathers, _ = plans[len(subs[0])]
        below = list(zip(*subs))
        s = [sum(map(mul, e, f)) for e, cut in zip(zip(*entries), cuts) for f in below[cut]]
        s.append(0)
        return [sum(g(s)) for g in gathers]

    rows = [[form if any(form) else () for form in row] for row in forms]
    pf = _pfaffian_expansion(rows, total, [1])
    converted = {}

    def minor(mask: int) -> MultiPoly:
        got = converted.get(mask)
        if got is None:
            k = mask.bit_count() // 2
            keys = _homogeneous_degree(ncoords, k, k == top)[2] if k else [0]
            got = converted[mask] = MultiPoly._raw(vars_, {key: c for key, c in zip(keys, pf(mask)) if c})
        return got

    matrix._expansion = den, minor


def _pfaffian_minors(matrix: PolyMatrix, masks):
    """Pfaffians of the skew submatrices indexed by the given bitmasks.

    On first use the matrix is checked by `_check_pfaffian_input` (a refused
    matrix stores nothing, so it is refused again on every call), and the
    entries are multiplied by their coefficients' common denominator den;
    the expansion on those integer entries, memoised over masks, is kept in
    the matrix's `_expansion` slot for every later call.  An integral matrix
    (den = 1) is expanded on its own entries.  A minor on 2k indices is one
    `_sum_of_products` over its (entry, sub-minor) pairs, divided by den^k.
    A matrix seeded by `homogeneous_expansion` reads its dense one instead.
    """
    if matrix._expansion is None:
        _check_pfaffian_input(matrix)
        vars_ = matrix.vars
        den, coeffs = clear_denominators([list(p.terms.values()) for row in matrix.entries for p in row])
        if den == 1:
            m = matrix.entries
        else:
            flat = iter(coeffs)
            m = [[MultiPoly._raw(vars_, dict(zip(p.terms, next(flat)))) for p in row] for row in matrix.entries]
        pf = _pfaffian_expansion(m, lambda pairs: _sum_of_products(vars_, pairs), MultiPoly.const(vars_, 1))
        matrix._expansion = den, pf
    den, pf = matrix._expansion
    if den == 1:
        return [pf(mask) for mask in masks]
    return [pf(mask) * Fraction(1, den ** (mask.bit_count() // 2)) for mask in masks]


def _check_pfaffian_input(matrix: PolyMatrix) -> None:
    """Refuse a matrix that is not square, not even-dimensional or not skew."""
    if not matrix.is_square():
        raise ValueError("pfaffian of a non-square matrix")
    if matrix.rows % 2 != 0:
        raise ValueError("pfaffian needs even dimension")
    if not matrix.is_skew():
        raise ValueError("pfaffian of a non-skew matrix")


def pfaffian(matrix: PolyMatrix) -> MultiPoly:
    """Pfaffian of an even-dimensional skew matrix; Pf^2 = det."""
    return _pfaffian_minors(matrix, [(1 << matrix.rows) - 1])[0]


def pfaffian_adjugate(matrix: PolyMatrix):
    """(P, pf) with matrix^{-1} = P / pf for an invertible skew matrix.

    P[i][j] is, up to the sign (-1)^(i+j) * sgn(j-i), the Pfaffian of the
    submatrix with rows and columns i, j deleted; all entries are polynomials.
    """
    n = matrix.rows
    full = (1 << n) - 1
    pairs = _index_pairs(n)
    pf, *minors = _pfaffian_minors(matrix, [full] + [full ^ (1 << i) ^ (1 << j) for i, j in pairs])
    if pf.is_zero():
        raise ZeroDivisionError("matrix is degenerate (zero Pfaffian)")
    signed = [-minor if (i + j) % 2 else minor for (i, j), minor in zip(pairs, minors)]
    return PolyMatrix(_skew_fill(n, signed, MultiPoly.zero(matrix.vars))), pf


def poly_rank(matrix: PolyMatrix) -> int:
    """Rank over the fraction field of the polynomial ring (exact).

    A specialisation never raises the rank, so full rank at the fixed point
    x_i = (2i + 3) / (i + 2) proves full rank; only a matrix singular there is
    eliminated.
    """
    point = [Fraction(2 * i + 3, i + 2) for i in range(len(matrix.vars))]
    full = min(matrix.rows, matrix.cols)
    if rat_rank(matrix.eval_at(point)) == full:
        return full
    return _bareiss(matrix)[0]


# ----- rational (constant) matrices ------------------------------------------


def rat_mat_mul(a, b):
    """Matrix product of lists of ints or Fractions."""
    cols = list(zip(*b))
    return [[sum(map(mul, row, col)) for col in cols] for row in a]


def _integer_gauss_jordan(m):
    """Fraction-free Gauss-Jordan elimination of an integer matrix, in place:
    (rows, pivot columns, signed last pivot, last pivot), the signed last
    pivot being the determinant when m is square and nonsingular.

    A step maps each row but the pivot row to (p * row - f * pivot row) // prev
    for pivots p and prev, exactly, as every entry is a minor of the input.  At
    the end each pivot row holds the last pivot at its pivot column, so the
    reduced row echelon form is the rows over the last pivot.  Rational
    matrices are cleared of their denominators first."""
    rows = len(m)
    pivots = []
    sign = prev = 1
    for c in range(len(m[0]) if rows else 0):
        r = len(pivots)
        pivot = next((i for i in range(r, rows) if m[i][c]), None)
        if pivot is None:
            continue
        if pivot != r:
            m[r], m[pivot] = m[pivot], m[r]
            sign = -sign
        p, top = m[r][c], m[r]
        for i in range(rows):
            f = m[i][c]
            if i != r and (f or p != prev):
                m[i] = [(p * x - f * y) // prev for x, y in zip(m[i], top)]
        prev = p
        pivots.append(c)
        if r + 1 == rows:
            break
    return m, pivots, sign * prev, prev


def rat_det(matrix) -> Fraction:
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise ValueError("determinant of a non-square matrix")
    den, m = clear_denominators(matrix)
    _, pivots, det, _ = _integer_gauss_jordan(m)
    return Fraction(det, den**n) if len(pivots) == n else Fraction(0)


def rat_rank(matrix) -> int:
    return len(_integer_gauss_jordan(clear_denominators(matrix)[1])[1])


def _det_inverse(m):
    """(det, (last, R)) of a square integer matrix by one elimination of
    [m | I]: the right block R ends as the last pivot times the inverse, so
    the inverse is R / last.  A singular matrix gives (0, None)."""
    n = len(m)
    aug = [[*row, *(int(i == j) for j in range(n))] for i, row in enumerate(m)]
    m, pivots, det, last = _integer_gauss_jordan(aug)
    if pivots[:n] != list(range(n)):
        return 0, None
    return det, (last, [row[n:] for row in m])


def rat_inverse(matrix):
    """Inverse of a square matrix; ZeroDivisionError when it is singular."""
    den, m = clear_denominators(matrix)
    inverse = _det_inverse(m)[1]
    if inverse is None:
        raise ZeroDivisionError("matrix is singular")
    last, rows = inverse
    return [[Fraction(den * x, last) for x in row] for row in rows]


def rat_kernel(matrix):
    """Basis of the right kernel as a list of Fraction vectors."""
    if not matrix:
        return []
    cols = len(matrix[0])
    m, pivots, _, last = _integer_gauss_jordan(clear_denominators(matrix)[1])
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * cols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = Fraction(-m[r][fc], last)
        basis.append(v)
    return basis
