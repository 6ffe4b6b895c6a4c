"""Pointwise structural diagnostics for generated systems.

Everything here works with exact rational arithmetic unless the caller opts
into the floating mode of diag_check, which is clearly labeled as
non-certifying.  The two headline facts being tested:

  * the characteristic polynomial of the flux Jacobian is a perfect square
    (every eigenvalue is at least double), with the square root computable
    as a Pfaffian of a skew pencil divided by a Pfaffian power;
  * the Haantjes tensor of the Jacobian vanishes identically, and away from
    the degeneracy locus the Jacobian is diagonalizable.

Determinant-side quantities are always computed independently of the
Pfaffian-side quantities so that the equalities are genuine cross-checks.

The three torsion tensors (direct and closed-form Nijenhuis, Haantjes) are
skew in their lower indices by the form of each formula, for any flux, so the
two Nijenhuis routes stay independent.  Each is contracted in integers on the
pairs j < k only, in the one pair order of `linalg._index_pairs`, and
returned as a `PairTensor`: one integer row per upper index, one entry per
pair, over one common denominator, in lowest terms.  So `==` is exact
equality of tensors although the two Nijenhuis routes divide by different
denominators, and no `Fraction` is built unless `planes()` is read.
Haantjes goes through A^p = N^p V, which makes its four terms three products
over the pair planes, each row mirrored into its plane by `linalg._skew_fill`.

The exact eigenstructure runs in integers on the Jacobian cleared of its
denominators, Jac(u) = M / c: the characteristic polynomial by the
division-free Berkowitz algorithm, and the geometric multiplicity of the
roots of each rational irreducible factor f of degree d as
(n - rank f(Jac)) / d, from one rational rank.  No extension field is built.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from operator import mul
from typing import List, Optional, Sequence, Tuple

from .linalg import (PolyMatrix, _index_pairs, _pfaffian_expansion, _skew_fill, clear_denominators, det_bareiss,
                     det_laplace, pfaffian, rat_inverse, rat_mat_mul, rat_rank)
from .operators import Hho2
from .poly import MultiPoly, _gcd, _lowest_terms, _primitive, _sum_coeff_products, _trim, rat
from .systems import ConservativeSystem, _residual_quotients

__all__ = [
    "sample_points",
    "PairTensor",
    "nijenhuis",
    "nijenhuis_closed_form",
    "haantjes",
    "tensor_is_zero",
    "tensor_nonzero_count",
    "charpoly_at",
    "sqrt_charpoly_at",
    "charpoly_square_at",
    "CharpolySquareReport",
    "charpoly_square_symbolic",
    "factor_univariate",
    "DiagPointReport",
    "diag_check",
    "DiagnosticsReport",
    "run_diagnostics",
]


def sample_points(
    op: Hho2,
    count: int,
    rng,
    bound: int = 10,
    allow_degenerate: bool = False,
):
    """Integer sample points off the degeneracy locus.

    Points are drawn coordinate-wise from [-bound, bound] and rejected while
    the Pfaffian D vanishes there.  A draw u is tested by the integer
    Pfaffian of the metric numerator G = L g(u) (`Hho2._metric_numerator`),
    which is L^(n/2) D(u); the symbolic Pfaffian is read only to refuse a
    degenerate operator and, for a draw on the locus, to tell whether D is
    identically zero.  With allow_degenerate, an identically zero Pfaffian
    rejects nothing.
    """
    n = op.n
    if not allow_degenerate and op.is_degenerate:
        raise ValueError("operator is degenerate; every point lies on the locus")
    full = (1 << n) - 1
    points = []
    attempts = 0
    while len(points) < count:
        attempts += 1
        if attempts > 200 * count + 200:
            raise RuntimeError("sampling failed to avoid the degeneracy locus")
        x = [rng.randint(-bound, bound) for _ in range(n)]
        g = op._metric_numerator([*x, 1])[1]
        if _pfaffian_expansion(g, lambda pairs: sum(a * b for a, b in pairs), 1)(full) or op.is_degenerate:
            points.append(tuple(map(Fraction, x)))
    return points


# ----- torsion tensors ------------------------------------------------------


@dataclass(frozen=True)
class PairTensor:
    """A tensor t^i_jk skew in its lower indices, stored on the pairs j < k.

    t[i][j][k] = rows[i][m] / den for the m-th pair (j, k) of
    `linalg._index_pairs(n)`.  Stored in lowest terms: den > 0 and
    gcd(den, every entry) == 1, and the zero tensor has den == 1.  So two
    tensors are equal exactly when their (den, rows) are.
    """

    den: int
    rows: Tuple[Tuple[int, ...], ...]

    def planes(self) -> List[List[List[Fraction]]]:
        """The nested tensor t[i][j][k] of Fractions, skew, zero diagonal."""
        n = len(self.rows)
        return [_skew_fill(n, [Fraction(x, self.den) for x in row], Fraction(0)) for row in self.rows]


def _skew_tensor(rows, den: int) -> PairTensor:
    """The `PairTensor` of integer pair rows over a nonzero den, in lowest
    terms."""
    den, rows = _lowest_terms(den, rows)
    return PairTensor(den, tuple(map(tuple, rows)))


def nijenhuis(system: ConservativeSystem, u) -> PairTensor:
    """Nijenhuis torsion of the flux Jacobian at u, from first principles:

    N^i_jk = V^p_j V^i_{kp} - V^p_k V^i_{jp} - V^i_p (V^p_{kj} - V^p_{jk}).

    Second partials commute, so the last bracket is zero: the point record
    stores S_kpl once for both orders of p and l, and the bracket is not
    evaluated.  The contraction runs over the integer numerators R (over D^2)
    and S (over D^3) on the pairs j < k, over the one denominator D^5.
    Swapping j and k negates the formula for any flux, so the pairs j < k
    hold the whole tensor.
    """
    n = system.op.n
    num = system._numerators(u)
    r, s = num.r, num.s
    rows = []
    for i in range(n):
        # a[k][j] = S_ikp R_pj
        a = rat_mat_mul(s[i], r)
        rows.append([a[k][j] - a[j][k] for j, k in _index_pairs(n)])
    return _skew_tensor(rows, num.d ** 5)


def nijenhuis_closed_form(system: ConservativeSystem, u) -> PairTensor:
    """Closed form of the torsion using only first derivatives and the tensor:

    N^i_jk = g^{ia} (T_jal V^l_p V^p_k - T_kal V^l_p V^p_j - 2 T_alp V^l_k V^p_j).

    Contracted in integers from the point record: the Jacobian numerators R,
    the integer tensor t = t_den T and the integer metric G = t_den q g, whose
    inverse is cleared of its denominators.  g^{-1} = t_den q G^{-1}, so t_den
    cancels and the numerator gains the factor q.  The bracket is formed on
    the pairs j < k and contracted with g^{-1} in one product, over the one
    denominator D^4 times that of G^{-1}.  Swapping j and k negates the
    bracket for any flux (V^T T_a V is skew as T is), so the pairs j < k hold
    the whole tensor.
    """
    n = system.op.n
    num = system._numerators(u)
    r, t = num.r, system.op._integer_table()[1]
    g_den, ginv = clear_denominators(rat_inverse(num.g))
    rr = rat_mat_mul(r, r)
    rt = list(zip(*r))
    # inner[a][m] = T_jal RR_lk - T_kal RR_lj - 2 (R^T T_a R)_kj for the m-th pair (j, k)
    inner = []
    for a in range(n):
        x = rat_mat_mul([t[j][a] for j in range(n)], rr)
        y = list(zip(*rat_mat_mul(t[a], r)))
        inner.append([x[j][k] - x[k][j] - 2 * sum(map(mul, rt[k], y[j])) for j, k in _index_pairs(n)])
    rows = rat_mat_mul([[num.q * x for x in row] for row in ginv], inner)
    return _skew_tensor(rows, num.d ** 4 * g_den)


def haantjes(system: ConservativeSystem, u, torsion: Optional[PairTensor] = None) -> PairTensor:
    """Haantjes tensor of the flux Jacobian at u:

    H^i_jk = N^i_pr V^p_j V^r_k - N^p_jr V^i_p V^r_k
             - N^p_rk V^i_p V^r_j + N^p_jk V^i_r V^r_p.

    With A^p = N^p V and N skew in its lower indices, as both Nijenhuis
    routes give it, H^i_jk = V^p_j A^i_pk - V^i_p (A^p_jk - A^p_kj)
    + (V V)^i_p N^p_jk.  Each term is negated by swapping j and k, so the
    pairs j < k are contracted, in integers over R and the torsion's integer
    rows, over D^4 times the torsion's denominator.
    """
    n = system.op.n
    num = system._numerators(u)
    nij = torsion if torsion is not None else nijenhuis(system, u)
    pairs = _index_pairs(n)
    r = num.r
    rt = list(zip(*r))
    # a[p][k][j] = A^p_jk
    a = [list(zip(*rat_mat_mul(_skew_fill(n, row, 0), r))) for row in nij.rows]
    # the last two terms: [R | R R] times the pair rows of A^p_kj - A^p_jk and N^p_jk
    stacked = [[y[j][k] - y[k][j] for j, k in pairs] for y in a] + list(nij.rows)
    out = rat_mat_mul([ri + rri for ri, rri in zip(r, rat_mat_mul(r, r))], stacked)
    for row, ai in zip(out, a):
        for m, (j, k) in enumerate(pairs):
            row[m] += sum(map(mul, rt[j], ai[k]))
    return _skew_tensor(out, num.d ** 4 * nij.den)


def tensor_is_zero(t: PairTensor) -> bool:
    return not any(map(any, t.rows))


def tensor_nonzero_count(t: PairTensor) -> int:
    """Nonzero entries t[i][j][k] over both orders of (j, k)."""
    return 2 * sum(1 for row in t.rows for x in row if x)


# ----- characteristic polynomial --------------------------------------------


def _berkowitz(m: Sequence[Sequence[int]]) -> List[int]:
    """Ascending coefficients of det(mu I - m) for an integer matrix m.

    Division-free (Berkowitz, IPL 18, 1984): the leading block grows by one
    row and column at a time.  With the block A, the new column s, row r and
    corner a, the descending coefficients are multiplied by the lower
    triangular Toeplitz matrix with first column 1, -a, -r s, -r A s, ...,
    -r A^(k-1) s.
    """
    coeffs = [1]
    for k in range(len(m)):
        lead = [row[:k] for row in m[:k]]
        row, col = m[k][:k], [m[i][k] for i in range(k)]
        toeplitz = [1, -m[k][k]]
        for _ in range(k):
            toeplitz.append(-sum(map(mul, row, col)))
            col = [sum(map(mul, block_row, col)) for block_row in lead]
        coeffs = [sum(toeplitz[i - j] * coeffs[j] for j in range(min(i, k) + 1)) for i in range(k + 2)]
    return coeffs[::-1]


def _jacobian_numerators(system: ConservativeSystem, u):
    """(M, c) with Jac(u) = M / c, M in integers and c the least such."""
    c, m = clear_denominators(system.jacobian_at(u))
    return m, c


def _charpoly(m: Sequence[Sequence[int]], c: int) -> List[Fraction]:
    """Ascending coefficients of det(m / c - lam I) for an integer matrix m.

    With det(mu I - m) = sum a_k mu^k, coefficient k is (-1)^n a_k / c^(n-k).
    """
    n = len(m)
    sign = (-1) ** n
    return [Fraction(sign * a, c ** (n - k)) for k, a in enumerate(_berkowitz(m))]


def charpoly_at(system: ConservativeSystem, u) -> List[Fraction]:
    """Coefficients (ascending) of det(Jac(u) - lam I), degree n.

    Determinant route only: the Berkowitz characteristic polynomial of the
    integer Jacobian numerators; no Pfaffians are involved.
    """
    return _charpoly(*_jacobian_numerators(system, u))


def sqrt_charpoly_at(system: ConservativeSystem, u) -> List[Fraction]:
    """Coefficients (ascending) of the Pfaffian square root s(lam) at u:

    s = Pf(T V + Aeff - lam g) / Pf(g), degree n/2, leading term (-1)^{n/2}.

    Read from the point record in integers.  With T = t / t_den,
    V = qv / d, Aeff = A / a_den and g = G / (t_den q), the pencil times
    m = t_den a_den q d is a_den q (t qv) + t_den q d A - lam a_den d G, so
    s = Pf(that) d_scale / (m^(n/2) d), as Pf(g) = d / d_scale.  Its entries
    are ascending lam-coefficient lists, expanded by the `linalg` Pfaffian.
    """
    n = system.op.n
    num = system._numerators(u)
    t_den, t = system.op._integer_table()
    a_den, a = system._affine
    d = num.d
    flux_scale, affine_scale, lam_scale = a_den * num.q, t_den * num.q * d, a_den * d
    pencil = [[0] * n for _ in range(n)]
    for h in range(n):
        for j in range(h + 1, n):
            x = flux_scale * sum(map(mul, t[h][j], num.qv)) + affine_scale * a[h][j]
            y = lam_scale * num.g[h][j]
            # the entries are coefficient lists, so the mirror negates a list, not an entry
            pencil[h][j], pencil[j][h] = _trim([x, -y]), _trim([-x, y])
    pf = _pfaffian_expansion(pencil, _sum_coeff_products, [1])
    den = (t_den * a_den * num.q * d) ** (n // 2) * d
    return [Fraction(x * num.d_scale, den) for x in pf((1 << n) - 1)]


def charpoly_square_at(system: ConservativeSystem, u) -> dict:
    """Exact check at one point that det(Jac - lam I) equals s(lam)^2."""
    det_coeffs = charpoly_at(system, u)
    s_coeffs = sqrt_charpoly_at(system, u)
    square = _sum_coeff_products([(s_coeffs, s_coeffs)])
    equal = det_coeffs == square
    return {
        "det_coeffs": det_coeffs,
        "sqrt_coeffs": s_coeffs,
        "equal": equal,
    }


@dataclass
class CharpolySquareReport:
    n: int
    equal: bool


@functools.lru_cache(maxsize=None)
def _universal_skew_det_is_pfaffian_square(n: int) -> bool:
    """det == Pf^2 for the generic skew matrix with indeterminate entries.

    Verified once per size over the ring with one fresh variable per upper
    entry; every concrete skew matrix is a specialization, so the identity
    transfers by substitution.  The determinant is `det_laplace`: Bareiss
    over 28 variables takes tens of seconds at n = 8.
    """
    names = tuple(f"x{i+1}_{j+1}" for i, j in _index_pairs(n))
    mat = PolyMatrix(_skew_fill(n, [MultiPoly.variable(names, pos) for pos in range(len(names))], MultiPoly.zero(names)))
    pf = pfaffian(mat)
    return det_laplace(mat) == pf * pf


def charpoly_square_symbolic(system: ConservativeSystem) -> CharpolySquareReport:
    """Certificate for det(R - lam D^2 I) = Pf(Dm)^2 D^(n-2) in Q[u, lam].

    R[k][p] is the numerator of dV^k/du^p over D^2 and Dm = C - lam D g is the
    cleared skew pencil, with C = D (T V + Aeff) the lam-free part.
    Three lam-free facts are checked: g R == D C entrywise in Q[u],
    det(g) == D^2 by Bareiss, and det == Pf^2 for the generic skew matrix of
    this size, by a Laplace expansion.  Then g (R - lam D^2 I) = D C -
    lam D^2 g = D Dm, and multiplicativity of det in the polynomial ring (a
    domain, D != 0) gives det(g) det(R - lam D^2 I) = D^n Pf(Dm)^2;
    cancelling det(g) = D^2 yields the identity, with every step exact.

    With W = g V, (g R - D C)_qp / D^2 = dW_q/du^p - Aeff_qp, the derivative
    of the residual P_q / D of the `systems` certificate.  So the first fact
    holds exactly when every quotient P_q / D is a constant, and is read off
    the same division; g R and D C are never formed.

    `equal` is a certificate, not a disproof.  P = 0 holds for every flux the
    constructor builds; g R = D C fails only for numerators `q` edited after
    construction, and such a flux can still satisfy the expanded identity.
    """
    n = system.op.n
    g = system.op.metric()
    w = _residual_quotients(*system._pluecker_residuals())
    match = w is not None and all(x.is_constant() for x in w)
    gram = det_bareiss(g) == system.d * system.d
    universal = _universal_skew_det_is_pfaffian_square(n)
    return CharpolySquareReport(n=n, equal=match and gram and universal)


# ----- univariate factorization over the rationals ----------------------------


def factor_univariate(coeffs: Sequence[Fraction]):
    """Monic irreducible factors over the rationals with multiplicities, for
    a nonzero polynomial of degree at most 4 (the Pfaffian root s(lam) has
    degree n/2 <= 4); anything else raises ValueError.

    Input is an ascending list of exact coefficients, each read by `rat`, so
    a float or bool raises ValueError; output is a list of
    (ascending coefficients of a monic irreducible factor, multiplicity),
    ordered by degree and then by the coefficients' strings.  The rational
    content is dropped.

    Every step is exact.  The primitive integer multiple is split into
    square-free parts by Musser's gcd scheme.  A part h of degree k with
    leading coefficient lead becomes g(y) = lead^(k-1) h(y / lead), monic in
    ZZ[y]; its rational roots are lead times those of h, hence integers, and
    `_integer_roots` finds them.  Once they are divided out, a quadratic or
    cubic left over has no rational root and is irreducible, and a quartic
    is irreducible unless `_quadratic_split` splits it by the resolvent
    cubic test of Kappe and Warren (Amer. Math. Monthly 96 (1989) 133-137).
    """
    coeffs = _trim([rat(c) for c in coeffs])
    if not coeffs:
        raise ValueError("cannot factor the zero polynomial")
    if len(coeffs) > 5:
        raise ValueError(f"degree {len(coeffs) - 1} is above 4")
    if len(coeffs) == 1:
        return []
    _, (ints,) = clear_denominators([coeffs])
    out = []
    for part, mult in _square_free_parts(_primitive(ints)):
        out += [(fc, mult) for fc in _irreducible_factors(part)]
    out.sort(key=lambda item: (len(item[0]), [str(c) for c in item[0]]))
    return out


# Integer polynomials below are ascending coefficient lists with a nonzero
# leading coefficient; [1] is the constant one.


def _horner(f: Sequence[int], x: int) -> int:
    value = 0
    for c in reversed(f):
        value = value * x + c
    return value


def _derivative(f: Sequence[int]) -> List[int]:
    return [k * c for k, c in enumerate(f)][1:]


def _quotient(a: Sequence[int], b: Sequence[int]) -> List[int]:
    """a / b for a primitive b dividing a in Q[x]; integral by Gauss's lemma."""
    a, db = list(a), len(b) - 1
    q = [0] * (len(a) - db)
    for k in range(len(q) - 1, -1, -1):
        q[k] = c = a[k + db] // b[-1]
        for i, y in enumerate(b):
            a[k + i] -= c * y
    return q


def _square_free_parts(f: Sequence[int]) -> List[tuple]:
    """(part, multiplicity) for a primitive f of positive degree: f is the
    product of the part^multiplicity, the parts square-free and coprime."""
    a = _gcd(f, _derivative(f))
    b = _quotient(f, a)
    out, mult = [], 1
    while len(b) > 1:
        g = _gcd(a, b)
        part = _quotient(b, g)
        if len(part) > 1:
            out.append((part, mult))
        a, b = _quotient(a, g), g
        mult += 1
    return out


def _primes():
    p = 2
    while True:
        if all(p % k for k in range(2, math.isqrt(p) + 1)):
            yield p
        p += 1


def _integer_roots(g: Sequence[int]) -> List[int]:
    """The integer roots of a square-free monic integer polynomial g.

    The first prime l whose roots of g mod l are all simple is used; only
    the finitely many primes dividing disc(g) != 0 fail that.  An integer
    root y reduces to one of them, and y mod m is its unique Hensel lift for
    every power m of l (Newton's step, with the inverse of g' lifted along).
    Once m > 2 B, with B the Cauchy bound on |y|, y is the lift's
    representative in (-m/2, m/2], and is kept after one exact evaluation.
    No root mod l means no integer root.
    """
    dg = _derivative(g)
    for ell in _primes():
        g_ell, dg_ell = [c % ell for c in g], [c % ell for c in dg]
        residues = [x for x in range(ell) if not _horner(g_ell, x) % ell]
        if all(_horner(dg_ell, x) % ell for x in residues):
            break
    bound = 1 + max(map(abs, g[:-1]), default=0)
    roots = []
    for y in residues:
        m, inv = ell, pow(_horner(dg, y), -1, ell)
        while m <= 2 * bound:
            m *= m
            y = (y - _horner(g, y) * inv) % m
            inv = inv * (2 - _horner(dg, y) * inv) % m
        if y > m // 2:
            y -= m
        if not _horner(g, y):
            roots.append(y)
    return roots


def _quadratic_split(w: Sequence[int]) -> Optional[List[List[int]]]:
    """Monic integer quadratics (y^2 + p y + q)(y^2 + s y + t) = w for a
    square-free monic integer quartic w = y^4 + a y^3 + b y^2 + c y + d with
    no rational root, or None when w is irreducible.

    The resolvent cubic's roots are the three sums alpha_i alpha_j +
    alpha_k alpha_l of products of the roots of w, and q + t is one of them,
    r; q, t are the roots of z^2 - r z + d and p, s those of
    z^2 - a z + (b - r).  A factor pair over Q is over Z (Gauss), so r is an
    integer and both discriminants are squares of integers of the parity of
    r and a; either pairing of (q, t) with (p, s) then matches all but the
    y coefficient, which decides.  The resolvent's discriminant is disc(w),
    so it is square-free.
    """
    d, c, b, a, _ = w
    resolvent = [4 * b * d - a * a * d - c * c, a * c - 4 * d, -b, 1]
    for r in _integer_roots(resolvent):
        qt, ps = r * r - 4 * d, a * a - 4 * (b - r)
        e, f = math.isqrt(max(qt, 0)), math.isqrt(max(ps, 0))
        if e * e != qt or f * f != ps or (r + e) % 2 or (a + f) % 2:
            continue
        p, s = (a + f) // 2, (a - f) // 2
        for q, t in (((r + e) // 2, (r - e) // 2), ((r - e) // 2, (r + e) // 2)):
            if p * t + q * s == c:
                return [[q, p, 1], [t, s, 1]]
    return None


def _irreducible_factors(h: Sequence[int]) -> List[List[Fraction]]:
    """Monic irreducible factors over Q (ascending Fractions) of a
    square-free primitive integer polynomial h of degree 1 to 4."""
    lead, k = h[-1], len(h) - 1
    # g(y) = lead^(k-1) h(y / lead), monic in y = lead x
    g = [c * lead ** (k - 1 - j) for j, c in enumerate(h[:-1])] + [1]
    roots = _integer_roots(g)
    factors = [[-y, 1] for y in roots]
    for y in roots:
        g = _quotient(g, [-y, 1])
    if len(g) == 5:
        factors += _quadratic_split(g) or [g]
    elif len(g) > 1:
        factors.append(g)
    # back in x: f(lead x) / lead^m is monic for f(y) monic of degree m
    return [[Fraction(c, lead ** (len(f) - 1 - j)) for j, c in enumerate(f)] for f in factors]


# ----- diagonalizability -------------------------------------------------------


def _geometric_multiplicity(m: Sequence[Sequence[int]], c: int, factor: Sequence[Fraction]) -> int:
    """Geometric multiplicity of each root of a monic irreducible factor f
    (ascending coefficients) of the characteristic polynomial of J = m / c.

    The roots of f are distinct and conjugate, so ker f(J) is the direct sum
    of their eigenspaces, which all have the same dimension: each root has
    geometric multiplicity (n - rank f(J)) / deg f.  f(J) is evaluated in
    integers by Horner's rule as F = L c^d f(m / c) = sum L f_k c^(d-k) m^k,
    with L the common denominator of f, so its rank is the rank of f(J).
    """
    n, d = len(m), len(factor) - 1
    _, (ints,) = clear_denominators([factor])
    coeffs = [x * c ** (d - k) for k, x in enumerate(ints)]
    f_m = [[coeffs[d] if i == j else 0 for j in range(n)] for i in range(n)]
    for k in range(d - 1, -1, -1):
        f_m = rat_mat_mul(f_m, m)
        for i in range(n):
            f_m[i][i] += coeffs[k]
    nullity = n - rat_rank(f_m)
    if nullity % d:
        raise ValueError(f"nullity {nullity} of f(J) is not a multiple of deg f = {d}; f is not irreducible")
    return nullity // d


@dataclass
class DiagPointReport:
    point: tuple
    mode: str
    certified: bool
    square_ok: Optional[bool]
    diagonalizable: bool
    eigen_data: List[dict] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "point": [str(x) for x in self.point],
            "mode": self.mode,
            "certified": self.certified,
            "square_ok": self.square_ok,
            "diagonalizable": self.diagonalizable,
            "eigen_data": self.eigen_data,
        }


def _float_diag(system: ConservativeSystem, point, digits: int) -> DiagPointReport:
    import mpmath

    n = system.op.n
    jac = system.jacobian_at(point)
    with mpmath.workdps(digits):
        m = mpmath.matrix([[mpmath.mpf(x.numerator) / mpmath.mpf(x.denominator) for x in row] for row in jac])
        eigvals, _ = mpmath.eig(m)
        tol = mpmath.mpf(10) ** (-(digits // 2))
        clusters: List[List] = []
        for ev in eigvals:
            for cluster in clusters:
                if abs(ev - cluster[0]) < tol:
                    cluster.append(ev)
                    break
            else:
                clusters.append([ev])
        eigen_data = []
        diagonalizable = True
        for cluster in clusters:
            center = sum(cluster) / len(cluster)
            shifted = mpmath.matrix(m)
            for i in range(n):
                shifted[i, i] -= center
            # numeric rank by row elimination with threshold
            rows = [[shifted[i, j] for j in range(n)] for i in range(n)]
            rank = 0
            for col in range(n):
                pivot = None
                best = tol
                for r in range(rank, n):
                    if abs(rows[r][col]) > best:
                        best = abs(rows[r][col])
                        pivot = r
                if pivot is None:
                    continue
                rows[rank], rows[pivot] = rows[pivot], rows[rank]
                pr = rows[rank][col]
                for r in range(rank + 1, n):
                    f = rows[r][col] / pr
                    rows[r] = [x - f * y for x, y in zip(rows[r], rows[rank])]
                rank += 1
            geometric = n - rank
            algebraic = len(cluster)
            eigen_data.append(
                {
                    "eigenvalue": mpmath.nstr(center, min(digits, 20)),
                    "algebraic": algebraic,
                    "geometric": geometric,
                    "ok": geometric == algebraic,
                }
            )
            diagonalizable = diagonalizable and geometric == algebraic
    return DiagPointReport(
        point=tuple(point),
        mode="float",
        certified=False,
        square_ok=None,
        diagonalizable=diagonalizable,
        eigen_data=eigen_data,
    )


def diag_check(system: ConservativeSystem, u, mode: str = "exact", digits: int = 50) -> DiagPointReport:
    """Diagonalizability of the flux Jacobian at a point.

    mode "exact": certified.  The characteristic polynomial is computed by
    the Berkowitz algorithm, its Pfaffian square root independently, and the
    square root is factored over the rationals.  For each monic irreducible
    factor f of degree d, every root has geometric multiplicity
    (n - rank f(Jac)) / d, where f(Jac) is evaluated in integers and its rank
    taken over the rationals; irrational eigenvalues need no extension field.
    mode "float": fast mpmath eigenvalues at the requested precision, NOT a
    certificate.
    """
    point = system._point(u)
    if mode == "float":
        return _float_diag(system, point, digits)
    if mode != "exact":
        raise ValueError(f"unknown mode {mode!r}; use 'exact' or 'float'")
    m, c = _jacobian_numerators(system, point)
    square = charpoly_square_at(system, point)
    factors = factor_univariate(square["sqrt_coeffs"])
    eigen_data = []
    diagonalizable = True
    for fc, mult in factors:
        degree = len(fc) - 1
        algebraic = 2 * mult
        geometric = _geometric_multiplicity(m, c, fc)
        label = str(-fc[0]) if degree == 1 else "root of " + _poly_label(fc)
        ok = geometric == algebraic
        diagonalizable = diagonalizable and ok
        eigen_data.append(
            {
                "eigenvalue": label,
                "factor_degree": degree,
                "algebraic": algebraic,
                "geometric": geometric,
                "ok": ok,
            }
        )
    return DiagPointReport(
        point=point,
        mode="exact",
        certified=True,
        square_ok=square["equal"],
        diagonalizable=diagonalizable,
        eigen_data=eigen_data,
    )


def _poly_label(coeffs) -> str:
    parts = []
    for power, c in enumerate(coeffs):
        if not c:
            continue
        if power == 0:
            parts.append(str(c))
        elif power == 1:
            parts.append(f"{c}*lam" if c != 1 else "lam")
        else:
            parts.append(f"{c}*lam^{power}" if c != 1 else f"lam^{power}")
    return " + ".join(parts) if parts else "0"


# ----- aggregate runner -----------------------------------------------------------


@dataclass
class DiagnosticsReport:
    n: int
    points: List[tuple]
    haantjes_zero: bool
    nijenhuis_nonzero_points: int
    nijenhuis_routes_agree: bool
    charpoly_square_ok: bool
    diag_reports: List[DiagPointReport]

    @property
    def all_diagonalizable(self) -> bool:
        return all(r.diagonalizable for r in self.diag_reports)

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "points": [[str(x) for x in point] for point in self.points],
            "haantjes_zero": self.haantjes_zero,
            "nijenhuis_nonzero_points": self.nijenhuis_nonzero_points,
            "nijenhuis_routes_agree": self.nijenhuis_routes_agree,
            "charpoly_square_ok": self.charpoly_square_ok,
            "all_diagonalizable": self.all_diagonalizable,
            "diag": [r.to_dict() for r in self.diag_reports],
        }


def run_diagnostics(
    system: ConservativeSystem,
    points: Sequence,
    mode: str = "exact",
    digits: int = 50,
) -> DiagnosticsReport:
    """Full pointwise battery: torsion tensors, square identity, eigenstructure.

    An empty point list would certify nothing, so it raises ValueError.
    """
    if not points:
        raise ValueError("run_diagnostics needs a nonempty list of sample points")
    haantjes_zero = True
    nz_points = 0
    routes_agree = True
    square_ok = True
    diag_reports = []
    pts = [system._point(u) for u in points]
    for point in pts:
        torsion = nijenhuis(system, point)
        closed = nijenhuis_closed_form(system, point)
        if torsion != closed:
            routes_agree = False
        if not tensor_is_zero(torsion):
            nz_points += 1
        h = haantjes(system, point, torsion=torsion)
        if not tensor_is_zero(h):
            haantjes_zero = False
        report = diag_check(system, point, mode=mode, digits=digits)
        if report.square_ok is False:
            square_ok = False
        diag_reports.append(report)
    return DiagnosticsReport(
        n=system.op.n,
        points=pts,
        haantjes_zero=haantjes_zero,
        nijenhuis_nonzero_points=nz_points,
        nijenhuis_routes_agree=routes_agree,
        charpoly_square_ok=square_ok,
        diag_reports=diag_reports,
    )
