import random
from fractions import Fraction

import pytest

from hho2.linalg import (
    PolyMatrix,
    det_bareiss,
    det_laplace,
    pfaffian,
    pfaffian_adjugate,
    poly_rank,
    rat_det,
    rat_inverse,
    rat_kernel,
    rat_rank,
)
from hho2.poly import MultiPoly

VARS = ("x", "y")
X, Y = MultiPoly.variable(VARS, "x"), MultiPoly.variable(VARS, "y")
ZERO, ONE = MultiPoly.zero(VARS), MultiPoly.const(VARS, 1)
VARS8 = tuple(f"u{k}" for k in range(1, 9))


def rand_poly(rng, max_deg=2, terms=3, bound=5):
    out = {}
    for _ in range(terms):
        exp = tuple(rng.randint(0, max_deg) for _ in VARS)
        out[exp] = out.get(exp, 0) + rng.randint(-bound, bound)
    return MultiPoly(VARS, out)


def rand_matrix(rng, n, **kw):
    return PolyMatrix([[rand_poly(rng, **kw) for _ in range(n)] for _ in range(n)])


def rand_skew(rng, n, **kw):
    rows = [[MultiPoly.zero(VARS) for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            p = rand_poly(rng, **kw)
            rows[i][j] = p
            rows[j][i] = -p
    return PolyMatrix(rows)


def det_minor_expansion(matrix: PolyMatrix) -> MultiPoly:
    """Division-free determinant, the oracle for Bareiss and `det_laplace`:
    Laplace expansion column by column, keeping the minor of every row subset
    of the processed columns.  The sign of row r is (-1) to the number of
    chosen rows below it.
    """
    n = matrix.rows
    minors = {0: MultiPoly.const(matrix.vars, 1)}
    for col in range(n):
        nxt = {}
        for mask, minor in minors.items():
            for r in range(n):
                if mask >> r & 1:
                    continue
                term = minor * matrix.at(r, col)
                if bin(mask >> r).count("1") % 2:
                    term = -term
                key = mask | 1 << r
                nxt[key] = nxt[key] + term if key in nxt else term
        minors = nxt
    return minors[(1 << n) - 1]


def test_det_routes_agree():
    rng = random.Random(2)
    for n in (1, 2, 3, 4):
        for _ in range(6):
            m = rand_matrix(rng, n, max_deg=1, terms=2)
            assert det_bareiss(m) == det_minor_expansion(m) == det_laplace(m)
    with pytest.raises(ValueError):
        det_laplace(PolyMatrix([[MultiPoly.const(VARS, 1)] * 2]))


def test_det_multiplicative_on_numeric_matrices():
    rng = random.Random(9)
    for _ in range(10):
        a = [[Fraction(rng.randint(-5, 5)) for _ in range(3)] for _ in range(3)]
        b = [[Fraction(rng.randint(-5, 5)) for _ in range(3)] for _ in range(3)]
        ab = [[sum(a[i][k] * b[k][j] for k in range(3)) for j in range(3)] for i in range(3)]
        assert rat_det(ab) == rat_det(a) * rat_det(b)


def test_pfaffian_squares_to_det():
    rng = random.Random(4)
    for n in (2, 4, 6):
        for _ in range(5):
            m = rand_skew(rng, n, max_deg=1, terms=2)
            pf = pfaffian(m)
            assert pf * pf == det_bareiss(m)


def test_pfaffian_known_values():
    a12 = X
    b = Y + 1
    zero = MultiPoly.zero(VARS)
    m = PolyMatrix([[zero, a12], [-a12, zero]])
    assert pfaffian(m) == a12
    m4 = PolyMatrix(
        [
            [zero, a12, zero, zero],
            [-a12, zero, zero, zero],
            [zero, zero, zero, b],
            [zero, zero, -b, zero],
        ]
    )
    assert pfaffian(m4) == a12 * b


def test_pfaffian_odd_dimension_rejected():
    zero = MultiPoly.zero(VARS)
    for pf in (pfaffian, pfaffian_adjugate):
        with pytest.raises(ValueError, match="even dimension"):
            pf(PolyMatrix([[zero]]))


def test_pfaffian_rejects_one_unnegated_term():
    """Entries (0, 1) and (1, 0) agree but for the sign of their y term."""
    zero = MultiPoly.zero(VARS)
    upper, lower = X + Y, -X + Y
    for pf in (pfaffian, pfaffian_adjugate):
        with pytest.raises(ValueError, match="non-skew"):
            pf(PolyMatrix([[zero, upper], [lower, zero]]))


def test_pfaffian_adjugate_identity():
    rng = random.Random(8)
    for n in (2, 4, 6):
        m = rand_skew(rng, n, max_deg=1, terms=2)
        adj, pf = pfaffian_adjugate(m)
        assert pf == pfaffian(m)
        for i in range(n):
            for j in range(n):
                acc = MultiPoly.zero(VARS)
                for k in range(n):
                    acc = acc + m.at(i, k) * adj.at(k, j)
                assert acc == (pf if i == j else MultiPoly.zero(VARS))


def test_poly_rank():
    x = MultiPoly.variable(VARS, "x")
    zero = MultiPoly.zero(VARS)
    m = PolyMatrix([[x, x], [x, x]])
    assert poly_rank(m) == 1
    m2 = PolyMatrix([[x, zero], [zero, x * x]])
    assert poly_rank(m2) == 2


def test_poly_rank_falls_back_to_elimination(monkeypatch):
    """A matrix singular at the fixed point (x, y) = (3/2, 5/3) of
    `poly_rank` but of full rank over Q(x, y) gets its exact rank by
    elimination; one of full rank there needs no elimination."""
    calls = []
    exact_div = MultiPoly.exact_div
    monkeypatch.setattr(MultiPoly, "exact_div", lambda self, divisor: calls.append(1) or exact_div(self, divisor))
    x, y = MultiPoly.variable(VARS, "x"), MultiPoly.variable(VARS, "y")
    one = MultiPoly.const(VARS, 1)
    # The first column vanishes at the point.
    singular_there = PolyMatrix([[x * 2 - one * 3, y, x], [y * 3 - one * 5, x, y], [(x * 2 - one * 3) * y, one, x + y]])
    assert rat_det(singular_there.eval_at((Fraction(3, 2), Fraction(5, 3)))) == 0
    assert not det_bareiss(singular_there).is_zero()
    calls.clear()
    assert poly_rank(singular_there) == 3
    assert calls
    calls.clear()
    assert poly_rank(PolyMatrix([[x, y], [one, x]])) == 2
    assert calls == []
    # A rank-deficient matrix: the third row is x times the first plus the second.
    rows = [[x, y, one], [y, one, x]]
    rows.append([a * x + b for a, b in zip(*rows)])
    assert poly_rank(PolyMatrix(rows)) == 2


def test_rat_inverse_and_rank():
    rng = random.Random(12)
    for _ in range(10):
        n = rng.choice((2, 3, 4))
        m = [[Fraction(rng.randint(-6, 6)) for _ in range(n)] for _ in range(n)]
        if rat_det(m) == 0:
            assert rat_rank(m) < n
            continue
        inv = rat_inverse(m)
        for i in range(n):
            for j in range(n):
                s = sum(m[i][k] * inv[k][j] for k in range(n))
                assert s == (1 if i == j else 0)
        assert rat_rank(m) == n


def test_rat_kernel():
    m = [
        [Fraction(1), Fraction(2), Fraction(3)],
        [Fraction(2), Fraction(4), Fraction(6)],
        [Fraction(0), Fraction(0), Fraction(0)],
    ]
    basis = rat_kernel(m)
    assert len(basis) == 2
    for vec in basis:
        for row in m:
            assert sum(row[i] * vec[i] for i in range(3)) == 0


def _reference_rref(matrix):
    """Plain Fraction Gauss-Jordan: (reduced rows, pivot columns, det factor)."""
    m = [[Fraction(x) for x in row] for row in matrix]
    rows, cols = len(m), len(m[0]) if m else 0
    pivots, det = [], Fraction(1)
    for c in range(cols):
        r = len(pivots)
        p = next((i for i in range(r, rows) if m[i][c]), None)
        if p is None:
            continue
        if p != r:
            m[r], m[p] = m[p], m[r]
            det = -det
        det *= m[r][c]
        m[r] = [x / m[r][c] for x in m[r]]
        for i in range(rows):
            if i != r and m[i][c]:
                m[i] = [x - m[i][c] * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        if len(pivots) == rows:
            break
    return m, pivots, det


def _rational_matrices():
    rng = random.Random(31)

    def entry():
        return Fraction(rng.randint(-9, 9), rng.randint(1, 6))

    def rand(rows, cols):
        return [[entry() for _ in range(cols)] for _ in range(rows)]

    cases = [[], [[Fraction(0)]], [[Fraction(3, 7)]], [[Fraction(0), Fraction(0)], [Fraction(0), Fraction(0)]]]
    cases += [rand(n, n) for n in (2, 3, 4, 5, 6, 7, 9) for _ in range(3)]
    for n, k in ((3, 1), (4, 2), (6, 3), (7, 5)):
        left, right = rand(n, k), rand(k, n)
        cases.append([[sum(left[i][t] * right[t][j] for t in range(k)) for j in range(n)] for i in range(n)])
    singular = rand(5, 5)
    singular[3] = [2 * x - y for x, y in zip(singular[0], singular[1])]
    cases.append(singular)
    cases.append(rand(5, 5)[:4] + [[Fraction(0)] * 5])
    cases += [rand(2, 5), rand(5, 2), rand(3, 7), rand(4, 4)[:1]]
    return cases


@pytest.mark.parametrize("m", _rational_matrices(), ids=lambda m: f"{len(m)}x{len(m[0]) if m else 0}")
def test_rat_kernels_match_fraction_gauss_jordan(m):
    rows, cols = len(m), len(m[0]) if m else 0
    rref, pivots, det = _reference_rref(m)
    assert rat_rank(m) == len(pivots)
    basis = rat_kernel(m)
    expected = []
    for fc in (c for c in range(cols) if c not in pivots):
        v = [Fraction(int(c == fc)) for c in range(cols)]
        for r, pc in enumerate(pivots):
            v[pc] = -rref[r][fc]
        expected.append(v)
    assert basis == expected
    assert all(sum(x * y for x, y in zip(row, v)) == 0 for row in m for v in basis)
    if rows != cols:
        return
    assert rat_det(m) == (det if len(pivots) == rows else 0)
    if len(pivots) < rows:
        with pytest.raises(ZeroDivisionError):
            rat_inverse(m)
        return
    identity = [[Fraction(int(i == j)) for j in range(rows)] for i in range(rows)]
    aug_rref, _, _ = _reference_rref([row + ident for row, ident in zip(m, identity)])
    inv = rat_inverse(m)
    assert inv == [row[rows:] for row in aug_rref]
    assert [[sum(m[i][k] * inv[k][j] for k in range(rows)) for j in range(rows)] for i in range(rows)] == identity


def _fraction_skew(rng, n):
    """Skew matrix of polynomials with Fraction coefficients of mixed denominators."""
    rows = [[MultiPoly.zero(VARS) for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            exps = [(rng.randint(0, 1), rng.randint(0, 1)) for _ in range(2)]
            p = MultiPoly(VARS, {e: Fraction(rng.randint(-5, 5), rng.randint(1, 4 + i + j)) for e in exps})
            rows[i][j], rows[j][i] = p, -p
    return PolyMatrix(rows)


def _dense_fraction_skew(rng, n, variables):
    """Skew matrix with every entry above the diagonal nonzero: a constant
    plus a multiple of one of `variables`, both Fractions.  (Entries affine in
    all 8 variables make `det_laplace` take about 30 s at n = 8.)"""
    zero = MultiPoly.zero(variables)
    rows = [[zero for _ in range(n)] for _ in range(n)]
    nv = len(variables)
    for i in range(n):
        for j in range(i + 1, n):
            v = rng.randrange(nv)
            exps = [(0,) * nv, tuple(int(k == v) for k in range(nv))]
            p = MultiPoly(variables, {e: Fraction(rng.choice([-1, 1]) * rng.randint(1, 5), rng.randint(1, 3)) for e in exps})
            rows[i][j], rows[j][i] = p, -p
    return PolyMatrix(rows)


@pytest.mark.parametrize("n", [2, 4, 6, 8])
def test_pfaffian_with_fraction_coefficients(n):
    """Pf^2 = det and adj * m = Pf * I; at n = 8 every entry is nonzero, the
    entries span 8 variables and `det_laplace` is the Pf^2 oracle."""
    rng = random.Random(50 + n)
    fractional = 0
    for _ in range(4 if n < 8 else 2):
        if n < 8:
            m, det = _fraction_skew(rng, n), det_bareiss
        else:
            m, det = _dense_fraction_skew(rng, n, VARS8), det_laplace
        pf = pfaffian(m)
        fractional += any(isinstance(c, Fraction) for c in pf.terms.values())
        assert pf * pf == det(m)
        adj, pf_adj = pfaffian_adjugate(m)
        assert pf_adj == pf
        zero = MultiPoly.zero(m.vars)
        for i in range(n):
            for j in range(n):
                acc = zero
                for k in range(n):
                    acc = acc + adj.at(i, k) * m.at(k, j)
                assert acc == (pf if i == j else zero)
    assert fractional >= 2


def test_pfaffian_with_zero_first_row_is_zero():
    m = _dense_fraction_skew(random.Random(58), 8, VARS8)
    zero = MultiPoly.zero(VARS8)
    rows = [[zero if 0 in (i, j) else m.at(i, j) for j in range(8)] for i in range(8)]
    assert pfaffian(PolyMatrix(rows)).is_zero()
    with pytest.raises(ZeroDivisionError):
        pfaffian_adjugate(PolyMatrix(rows))


def _minors_or_refusal(fn, m):
    try:
        return fn(m)
    except ZeroDivisionError as exc:
        return type(exc)


@pytest.mark.parametrize("adjugate_first", [False, True], ids=["pfaffian-first", "adjugate-first"])
@pytest.mark.parametrize("kind", ["integer", "fraction"])
def test_pfaffian_and_adjugate_share_one_expansion(monkeypatch, kind, adjugate_first):
    """`pfaffian` and `pfaffian_adjugate` on one matrix check, clear and
    expand it once, and in either order give what each gives on a fresh copy;
    an integral matrix is expanded on its own entries."""
    from hho2 import linalg

    rng = random.Random(61 if kind == "integer" else 62)
    expansions = []
    expansion = linalg._pfaffian_expansion
    monkeypatch.setattr(linalg, "_pfaffian_expansion", lambda rows, *rest: expansions.append(rows)
                        or expansion(rows, *rest))
    order = [pfaffian_adjugate, pfaffian] if adjugate_first else [pfaffian, pfaffian_adjugate]
    dens = []
    for n in (2, 4, 6):
        for _ in range(3):
            m = rand_skew(rng, n, max_deg=1, terms=2) if kind == "integer" else _fraction_skew(rng, n)
            before = [[MultiPoly(VARS, dict(p.monomials())) for p in row] for row in m.entries]
            fresh = [_minors_or_refusal(fn, PolyMatrix(m.entries)) for fn in order]
            del expansions[:]
            assert [_minors_or_refusal(fn, m) for fn in order] == fresh
            den = m._expansion[0]
            assert len(expansions) == 1 and (expansions[0] is m.entries) == (den == 1)
            assert m.entries == before
            dens.append(den)
    assert (max(dens) > 1) == (kind == "fraction")


@pytest.mark.parametrize(
    "rows, message",
    [
        ([[X, Y], [Y, ZERO]], "non-skew"),
        ([[ZERO, X, ONE], [-X, ZERO, Y]], "non-square"),
        ([[ZERO, X, ONE], [-X, ZERO, Y], [-ONE, -Y, ZERO]], "even dimension"),
    ],
    ids=["non-skew", "non-square", "odd"],
)
def test_refused_matrix_raises_on_every_call(rows, message):
    """A refused matrix keeps no expansion, so every later call refuses it
    again, through either entry point."""
    m = PolyMatrix([list(row) for row in rows])
    for fn in (pfaffian, pfaffian_adjugate, pfaffian, pfaffian_adjugate):
        with pytest.raises(ValueError, match=message):
            fn(m)
        assert m._expansion is None
