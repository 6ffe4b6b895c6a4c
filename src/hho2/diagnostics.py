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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from operator import mul
from typing import Dict, List, Optional, Sequence

from .linalg import PolyMatrix, det_bareiss, pfaffian, rat_inverse, rat_rank
from .operators import Hho2
from .poly import MultiPoly
from .systems import ConservativeSystem, _clear_denominators

__all__ = [
    "sample_points",
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
    avoid: Sequence[MultiPoly] = (),
    allow_degenerate: bool = False,
):
    """Integer sample points avoiding the degeneracy locus and extra loci.

    Points are drawn coordinate-wise from [-bound, bound] and rejected while
    the Pfaffian (or any polynomial in avoid) vanishes there.
    """
    n = op.n
    guards: List[MultiPoly] = []
    pf = op.pfaffian_poly()
    if pf.is_zero():
        if not allow_degenerate:
            raise ValueError("operator is degenerate; every point lies on the locus")
    else:
        guards.append(pf)
    guards.extend(avoid)
    points = []
    attempts = 0
    while len(points) < count:
        attempts += 1
        if attempts > 200 * count + 200:
            raise RuntimeError("sampling failed to avoid the excluded loci")
        u = tuple(Fraction(rng.randint(-bound, bound)) for _ in range(n))
        if all(gp.eval(u) != 0 for gp in guards):
            points.append(u)
    return points


# ----- torsion tensors ------------------------------------------------------


def _matmul(a: List[List[int]], b: List[List[int]]) -> List[List[int]]:
    cols = list(zip(*b))
    return [[sum(map(mul, row, col)) for col in cols] for row in a]


def nijenhuis(system: ConservativeSystem, u) -> List[List[List[Fraction]]]:
    """Nijenhuis torsion of the flux Jacobian at u, from first principles:

    N^i_jk = V^p_j V^i_{kp} - V^p_k V^i_{jp} - V^i_p (V^p_{kj} - V^p_{jk}).

    Second partials commute, so the last bracket vanishes pointwise; it is
    kept in the formula for fidelity and costs nothing.  The contraction runs
    over the integer numerators R (over D^2) and S (over D^3) and divides
    once at the end.
    """
    n = system.op.n
    num = system._numerators(u)
    kern = system._kernel()
    r, s = num.r, num.s
    num_scale = kern.den_d ** 2
    den = kern.den_q ** 2 * num.d ** 5
    out = []
    for i in range(n):
        ri = r[i]
        # a[k][j] = S_ikp R_pj
        a = _matmul(s[i], r)
        plane = []
        for j in range(n):
            row = []
            for k in range(n):
                total = a[k][j] - a[j][k]
                total -= sum(ri[p] * (s[p][k][j] - s[p][j][k]) for p in range(n))
                row.append(Fraction(num_scale * total, den))
            plane.append(row)
        out.append(plane)
    return out


def nijenhuis_closed_form(system: ConservativeSystem, u) -> List[List[List[Fraction]]]:
    """Closed form of the torsion using only first derivatives and the tensor:

    N^i_jk = g^{ia} (T_jal V^l_p V^p_k - T_kal V^l_p V^p_j - 2 T_alp V^l_k V^p_j).

    Contracted in integers from the Jacobian numerators R, the dense tensor
    array and g^{-1} cleared of its denominators, divided once at the end.
    """
    n = system.op.n
    point = system._point(u)
    num = system._numerators(point)
    kern = system._kernel()
    r, t = num.r, kern.t
    g_den, ginv = _clear_denominators(rat_inverse(system.op.metric_at(point)))
    rr = _matmul(r, r)
    rt = list(zip(*r))
    # inner[a][j][k] = T_jal RR_lk - T_kal RR_lj - 2 (R^T T_a R)_kj
    inner = []
    for a in range(n):
        x = _matmul([t[j][a] for j in range(n)], rr)
        y = _matmul(rt, _matmul(t[a], r))
        inner.append([[x[j][k] - x[k][j] - 2 * y[k][j] for k in range(n)] for j in range(n)])
    num_scale = kern.den_d ** 2
    den = kern.den_q ** 2 * num.d ** 4 * kern.t_den * g_den
    out = []
    for i in range(n):
        gi = ginv[i]
        plane = []
        for j in range(n):
            sums = [sum(gi[a] * inner[a][j][k] for a in range(n)) for k in range(n)]
            plane.append([Fraction(num_scale * x, den) for x in sums])
        out.append(plane)
    return out


def haantjes(system: ConservativeSystem, u, torsion=None) -> List[List[List[Fraction]]]:
    """Haantjes tensor of the flux Jacobian at u:

    H^i_jk = N^i_pr V^p_j V^r_k - N^p_jr V^i_p V^r_k
             - N^p_rk V^i_p V^r_j + N^p_jk V^i_r V^r_p.

    The contraction runs over integers: the Jacobian numerators R and the
    torsion cleared of its common denominator, divided once at the end.
    """
    n = system.op.n
    num = system._numerators(u)
    kern = system._kernel()
    nij = torsion if torsion is not None else nijenhuis(system, u)
    n_den, rows = _clear_denominators([row for plane in nij for row in plane])
    niji = [rows[i * n : (i + 1) * n] for i in range(n)]
    r = num.r
    rt = list(zip(*r))
    rr = _matmul(r, r)
    # w[p] = -(N^p R + R^T N^p), so that the middle two terms are R_ip w[p]_jk
    w = []
    for plane in niji:
        left, right = _matmul(plane, r), _matmul(rt, plane)
        w.append([[-x - y for x, y in zip(lrow, rrow)] for lrow, rrow in zip(left, right)])
    num_scale = kern.den_d ** 2
    den = kern.den_q ** 2 * num.d ** 4 * n_den
    out = []
    for i in range(n):
        first = _matmul(rt, _matmul(niji[i], r))
        ri, rri = r[i], rr[i]
        plane = []
        for j in range(n):
            row = []
            for k in range(n):
                total = first[j][k]
                for p in range(n):
                    total += ri[p] * w[p][j][k] + rri[p] * niji[p][j][k]
                row.append(Fraction(num_scale * total, den))
            plane.append(row)
        out.append(plane)
    return out


def tensor_is_zero(t) -> bool:
    return all(not x for plane in t for row in plane for x in row)


def tensor_nonzero_count(t) -> int:
    return sum(1 for plane in t for row in plane for x in row if x)


# ----- characteristic polynomial --------------------------------------------


_LAM = ("lam",)


def _univar(value) -> MultiPoly:
    return MultiPoly.const(_LAM, value)


def charpoly_at(system: ConservativeSystem, u) -> List[Fraction]:
    """Coefficients (ascending) of det(Jac(u) - lam I), degree n.

    Determinant route only: quotient-rule Jacobian plus fraction-free
    elimination; no Pfaffians are involved.
    """
    n = system.op.n
    jac = system.jacobian_at(u)
    lam = MultiPoly.variable(_LAM, "lam")
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            entry = _univar(jac[i][j])
            if i == j:
                entry = entry - lam
            row.append(entry)
        rows.append(row)
    det = det_bareiss(PolyMatrix(rows))
    return [det.coeff_of((k,)) for k in range(n + 1)]


def sqrt_charpoly_at(system: ConservativeSystem, u) -> List[Fraction]:
    """Coefficients (ascending) of the Pfaffian square root s(lam) at u:

    s = Pf(T V + Aeff - lam g) / Pf(g), degree n/2, leading term (-1)^{n/2}.
    """
    n = system.op.n
    point = system._point(u)
    d = system.pfaffian_at(point)
    if d == 0:
        raise ZeroDivisionError("point lies on the degeneracy locus")
    vvals = system.flux_at(point)
    gmat = system.op.metric_at(point)
    lam = MultiPoly.variable(_LAM, "lam")
    rows = [[MultiPoly.zero(_LAM) for _ in range(n)] for _ in range(n)]
    for h in range(n):
        for j in range(h + 1, n):
            c = Fraction(system.a_eff[h][j])
            for i in range(n):
                t = system.op.t_value(h, j, i)
                if t:
                    c += t * vvals[i]
            entry = _univar(c) - lam * gmat[h][j]
            rows[h][j] = entry
            rows[j][h] = -entry
    pf = pfaffian(PolyMatrix(rows))
    return [pf.coeff_of((k,)) / d for k in range(n // 2 + 1)]


def _poly_mul_coeffs(a: Sequence[Fraction], b: Sequence[Fraction]) -> List[Fraction]:
    """Product of two ascending coefficient lists, skipping zero coefficients."""
    if not (a and b):
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] += x * y
    return out


def charpoly_square_at(system: ConservativeSystem, u) -> dict:
    """Exact check at one point that det(Jac - lam I) equals s(lam)^2."""
    det_coeffs = charpoly_at(system, u)
    s_coeffs = sqrt_charpoly_at(system, u)
    square = _poly_mul_coeffs(s_coeffs, s_coeffs)
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
    route: str
    det_side_degree_in_lam: int
    pf_side_degree_in_lam: int


_UNIVERSAL_SKEW_OK: Dict[int, bool] = {}


def _universal_skew_det_is_pfaffian_square(n: int) -> bool:
    """det == Pf^2 for the generic skew matrix with indeterminate entries.

    Verified once per size over the ring with one fresh variable per upper
    entry; every concrete skew matrix is a specialization, so the identity
    transfers by substitution.
    """
    cached = _UNIVERSAL_SKEW_OK.get(n)
    if cached is not None:
        return cached
    names = tuple(f"x{i+1}_{j+1}" for i in range(n) for j in range(i + 1, n))
    rows = [[MultiPoly.zero(names) for _ in range(n)] for _ in range(n)]
    pos = 0
    for i in range(n):
        for j in range(i + 1, n):
            x = MultiPoly.variable(names, pos)
            rows[i][j] = x
            rows[j][i] = -x
            pos += 1
    mat = PolyMatrix(rows)
    pf = pfaffian(mat)
    ok = det_bareiss(mat) == pf * pf
    _UNIVERSAL_SKEW_OK[n] = ok
    return ok


def charpoly_square_symbolic(system: ConservativeSystem, det_route: str = "auto") -> CharpolySquareReport:
    """Symbolic identity det(R - lam D^2 I) = Pf(Dm)^2 D^(n-2) in (u, lam).

    R[k][p] is the numerator of dV^k/du^p over D^2 and Dm is the cleared skew
    pencil.  Two routes prove the same polynomial identity:

    - direct: expand both sides and compare literally.  The left side sees
      only the quotient-rule Jacobian numerators and a fraction-free
      determinant, the right side only Pfaffians.  Practical for n <= 4.
    - factored: verify g (R - lam D^2 I) == D Dm entrywise, det(g) == D^2,
      and det == Pf^2 for the generic skew matrix of this size.  Together
      with multiplicativity of det in the polynomial ring (a domain, D != 0)
      these give det(g) det(R - lam D^2 I) = D^n Pf(Dm)^2, and cancelling
      det(g) = D^2 yields the identity, with every step exact.

    det_route: "auto" picks direct for n <= 4 and factored above, "bareiss"
    forces the direct expansion, "factored" forces the other.
    """
    n = system.op.n
    if det_route == "auto":
        det_route = "bareiss" if n <= 4 else "factored"
    elif det_route not in ("bareiss", "factored"):
        raise ValueError(f"unknown det_route {det_route!r}; use 'auto', 'bareiss' or 'factored'")
    rvars = system.vars + ("lam",)
    lam = MultiPoly.variable(rvars, "lam")
    r = system.r_polys()
    d_lift = system.d.with_vars(rvars)
    lam_d2 = lam * d_lift * d_lift
    rows = []
    for k in range(n):
        row = []
        for p in range(n):
            entry = r[k][p].with_vars(rvars)
            if k == p:
                entry = entry - lam_d2
            row.append(entry)
        rows.append(row)
    lam_index = len(rvars) - 1
    if det_route == "factored":
        mt = system.mtilde()
        g = system.op.metric()
        g_lift = [[g.at(i, j).with_vars(rvars) for j in range(n)] for i in range(n)]
        match = True
        for q in range(n):
            for p in range(n):
                lhs = MultiPoly.zero(rvars)
                for j in range(n):
                    if g_lift[q][j].is_zero():
                        continue
                    lhs = lhs + g_lift[q][j] * rows[j][p]
                if lhs != d_lift * mt.at(q, p):
                    match = False
        gram = det_bareiss(g) == system.d * system.d
        universal = _universal_skew_det_is_pfaffian_square(n)
        pf = pfaffian(mt)
        return CharpolySquareReport(
            n=n,
            equal=match and gram and universal,
            route="factored",
            det_side_degree_in_lam=pf.degree_in(lam_index) * 2,
            pf_side_degree_in_lam=pf.degree_in(lam_index) * 2,
        )
    mat = PolyMatrix(rows)
    det_side = det_bareiss(mat)
    pf = pfaffian(system.mtilde())
    pf_side = pf * pf
    if n > 2:
        pf_side = pf_side * d_lift ** (n - 2)
    return CharpolySquareReport(
        n=n,
        equal=det_side == pf_side,
        route=det_route,
        det_side_degree_in_lam=det_side.degree_in(lam_index),
        pf_side_degree_in_lam=pf_side.degree_in(lam_index),
    )


# ----- univariate factorization over the rationals ----------------------------


def factor_univariate(coeffs: Sequence[Fraction]):
    """Monic irreducible factors over the rationals with multiplicities.

    Input is an ascending coefficient list; output is a list of
    (ascending coefficients of a monic irreducible factor, multiplicity).
    The rational content is dropped.
    """
    import sympy

    lam = sympy.Symbol("lam")
    expr = sympy.Integer(0)
    for power, c in enumerate(coeffs):
        c = Fraction(c)
        if c:
            expr += sympy.Rational(c.numerator, c.denominator) * lam ** power
    if expr == 0:
        raise ValueError("cannot factor the zero polynomial")
    poly = sympy.Poly(expr, lam, domain="QQ")
    _, factors = poly.factor_list()
    out = []
    for fac, mult in factors:
        fc = [Fraction(str(c)) for c in reversed(fac.all_coeffs())]
        lead = fc[-1]
        if lead != 1:
            fc = [c / lead for c in fc]
        out.append((fc, int(mult)))
    out.sort(key=lambda item: (len(item[0]), [str(c) for c in item[0]]))
    return out


def _rational_roots(coeffs: Sequence[Fraction]):
    """(root, multiplicity) pairs for the rational roots of the polynomial."""
    roots = []
    for fc, mult in factor_univariate(coeffs):
        if len(fc) == 2:
            roots.append((-fc[0], mult))
    return roots


# ----- arithmetic in a simple algebraic extension ------------------------------


class _QuotientField:
    """Field Q[lam]/(f) for a monic irreducible f of degree >= 1.

    Elements are coefficient tuples of length deg(f); inversion uses the
    extended Euclidean algorithm on coefficient lists.
    """

    def __init__(self, modulus: Sequence[Fraction]):
        self.f = [Fraction(c) for c in modulus]
        if self.f[-1] != 1:
            raise ValueError("modulus must be monic")
        self.deg = len(self.f) - 1
        if self.deg < 1:
            raise ValueError("modulus must have positive degree")

    def const(self, value) -> tuple:
        out = [Fraction(0)] * self.deg
        out[0] = Fraction(value)
        return tuple(out)

    def generator(self) -> tuple:
        if self.deg == 1:
            # lam is congruent to the rational root itself
            return self.const(-self.f[0])
        out = [Fraction(0)] * self.deg
        out[1] = Fraction(1)
        return tuple(out)

    def sub(self, a, b):
        return tuple(x - y for x, y in zip(a, b))

    def is_zero(self, a) -> bool:
        return all(not x for x in a)

    def mul(self, a, b):
        raw = _poly_mul_coeffs(a, b)
        for top in range(len(raw) - 1, self.deg - 1, -1):
            c = raw[top]
            if c:
                raw[top] = Fraction(0)
                for k in range(self.deg):
                    raw[top - self.deg + k] -= c * self.f[k]
        return tuple(raw[: self.deg])

    def inv(self, a):
        if self.is_zero(a):
            raise ZeroDivisionError("inverting zero in the extension field")
        # extended Euclid on (f, a) over Q[lam]
        def trim(p):
            while p and not p[-1]:
                p.pop()
            return p

        def polysub(p, q):
            out = [Fraction(0)] * max(len(p), len(q))
            for i, x in enumerate(p):
                out[i] += x
            for i, y in enumerate(q):
                out[i] -= y
            return trim(out)

        def polydivmod(p, q):
            p = p[:]
            quo = [Fraction(0)] * max(0, len(p) - len(q) + 1)
            while len(p) >= len(q) and p:
                shift = len(p) - len(q)
                factor = p[-1] / q[-1]
                quo[shift] = factor
                for i, y in enumerate(q):
                    p[shift + i] -= factor * y
                trim(p)
            return trim(quo), p

        r0 = list(self.f)
        r1 = trim(list(a))
        s0: List[Fraction] = []
        s1: List[Fraction] = [Fraction(1)]
        while r1:
            quo, rem = polydivmod(r0, r1)
            r0, r1 = r1, rem
            s0, s1 = s1, polysub(s0, trim(_poly_mul_coeffs(quo, s1)))
        if len(r0) != 1:
            raise ZeroDivisionError("element is a zero divisor (modulus not irreducible?)")
        scale = Fraction(1) / r0[0]
        out = [c * scale for c in s0]
        out += [Fraction(0)] * (self.deg - len(out))
        return tuple(out[: self.deg])


def _rank_over_extension(jac, modulus) -> int:
    """Rank of (Jac - lam I) over Q[lam]/(modulus)."""
    field = _QuotientField(modulus)
    n = len(jac)
    lam = field.generator()
    m = []
    for i in range(n):
        row = []
        for j in range(n):
            e = field.const(jac[i][j])
            if i == j:
                e = field.sub(e, lam)
            row.append(e)
        m.append(row)
    rank = 0
    for col in range(n):
        pivot = next((r for r in range(rank, n) if not field.is_zero(m[r][col])), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = field.inv(m[rank][col])
        m[rank] = [field.mul(inv, x) for x in m[rank]]
        for r in range(n):
            if r != rank and not field.is_zero(m[r][col]):
                f = m[r][col]
                m[r] = [field.sub(x, field.mul(f, y)) for x, y in zip(m[r], m[rank])]
        rank += 1
        if rank == n:
            break
    return rank


# ----- diagonalizability -------------------------------------------------------


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
    fraction-free elimination, its Pfaffian square root independently, and
    the geometric multiplicity of every eigenvalue is obtained by exact rank
    computations, in the rationals or in Q[lam]/(f) for irrational
    eigenvalues.  mode "float": fast mpmath eigenvalues at the requested
    precision, NOT a certificate.
    """
    point = system._point(u)
    if mode == "float":
        return _float_diag(system, point, digits)
    if mode != "exact":
        raise ValueError(f"unknown mode {mode!r}; use 'exact' or 'float'")
    n = system.op.n
    jac = system.jacobian_at(point)
    square = charpoly_square_at(system, point)
    factors = factor_univariate(square["sqrt_coeffs"])
    eigen_data = []
    diagonalizable = True
    for fc, mult in factors:
        degree = len(fc) - 1
        algebraic = 2 * mult
        if degree == 1:
            root = -fc[0]
            shifted = [
                [jac[i][j] - (root if i == j else Fraction(0)) for j in range(n)]
                for i in range(n)
            ]
            geometric = n - rat_rank(shifted)
            label = str(root)
        else:
            geometric = n - _rank_over_extension(jac, fc)
            label = "root of " + _poly_label(fc)
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
    """Full pointwise battery: torsion tensors, square identity, eigenstructure."""
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
