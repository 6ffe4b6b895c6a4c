"""Quasilinear conservation-law systems u_t = (V(u))_x generated by operators.

The flux vector is V = g^{-1} W + c with W_j = A_jl u^l + B_j, A constant
skew, B and c constant vectors.  Every component is a rational function whose
denominator divides the Pfaffian D of the metric and whose numerator Q_k has
degree at most n/2.

Compatibility of the pair (metric, flux) is expressed by two families of
polynomial identities obtained by clearing denominators with powers of D:

  first order   (all q <= p):     sum_j g_qj R_jp + g_pj R_jq = 0
  second order  (all q, p <= l):  sum_k g_qk S_kpl
                                   + D (T_pqk R_kl + T_qkl R_kp) = 0

where R_kp = Q_{k,p} D - Q_k D_p is the numerator of dV^k/du^p over D^2 and
S_kpl = R_{kp,l} D - 2 R_kp D_l is the numerator of the second derivative
over D^3, both by the quotient rule.

Both families are derivatives of W = g V.  As dg_qj/du^p = T_qjp
(g = T u + g0) and T_qjp = T_pqj = -T_pjq, dW_q/du^p = T_qjp V^j + (g dV)_qp
with a first term skew in (q, p): the first family over D^2 is
dW_q/du^p + dW_p/du^q, and the second over D^3 is d^2 W_q/du^p du^l.

Lemma: compatibility holds iff W = A u + B with A skew and A, B constant, and
then the second family follows from the first.  Proof: K_qpl =
d^2 W_q/du^p du^l is symmetric in (p, l), and the first family, differentiated,
makes it skew in (q, p); so K_qpl = -K_pql = -K_plq = K_lpq = K_lqp = -K_qlp
= -K_qpl, and K = 0 as rational functions.  Then each dW_q/du^p is a constant,
skew by the first family.  This is the paper's explicit form
V = g^{-1}(A u + B), the constants c absorbed into A and B.

The proof routes check this certificate on the residual of g V = Aeff u + Beff
cleared by D, P_q = sum_k g_qk Q_k - D (Aeff u + Beff)_q: D divides every P_q
with a quotient of degree at most one whose linear part is skew, and the
quotients give the witness (A, B).  Aeff_qp = A_qp + T_qkp c_k and Beff
absorb the constants.  Every flux the constructor builds has P = 0; an edited
one may have P != 0 and still be compatible (adding c_k D to every Q_k keeps
dV).  A failure lists the first family only, as E_qp + E_pq with
E_qp = D dP_q/du^p - D_p P_q = D^2 (dW_q/du^p - Aeff_qp), read off the
quotients P_q / D where D divides every P_q.  With D and the Q_k
scaled by the lcm `scale` of their coefficient denominators, the table by its
own, t_den, and Aeff, Beff by theirs, every coefficient is an integer.  The
pointwise check evaluates R, S and both families: an independent route.

Pointwise evaluation works in integers, through one record per point.  D
and the Q_k are scaled to integers once, by one common denominator, and
differentiated on packed keys; the partials share one monomial table, in
which each monomial is unpacked once and evaluated once at a point U/q,
homogenised to one degree, so the powers of q cancel from V and its
derivatives and D(u) divides by the one power of q left.  The record holds
the integer numerators R_kp (over D^2) and S_kpl (over D^3) and the integer
metric; every pointwise check reads it and divides once per entry at the end.
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from .linalg import _index_pairs, _skew_fill, clear_denominators, pfaffian_adjugate, poly_rank
from .operators import Hho2
from .poly import MultiPoly, _linear, _sum_of_products, _unpack, index_entries, lowest_terms, rat

__all__ = [
    "DegenerateOperatorError",
    "FluxParams",
    "ConservativeSystem",
    "generate_flux",
    "random_flux_params",
    "CompatReport",
    "check_compat",
    "check_compat_rational",
    "PlueckerReport",
    "pluecker_relations",
    "hamiltonian_density",
    "EulerReport",
    "euler_check",
    "CasimirReport",
    "casimir_check",
    "LinearityReport",
    "linearity_report",
    "family_parameter_count",
]


class DegenerateOperatorError(ValueError):
    """Raised when flux generation is attempted on a degenerate operator."""


def family_parameter_count(n: int) -> int:
    """Number of flux parameters (A, B, c) for fixed operator: n(n+3)/2.

    A contributes n(n-1)/2 skew entries, B and c contribute n each.  The map
    (A, B, c) -> V is not injective: shifting c can be absorbed into (A, B).
    """
    return n * (n + 3) // 2


@dataclass(frozen=True)
class FluxParams:
    """Constant data (A, B) of the affine form W = A u + B, with A skew."""

    a: Tuple[Tuple[Fraction, ...], ...]
    b: Tuple[Fraction, ...]

    @staticmethod
    def make(a, b) -> "FluxParams":
        # A string or a mapping of n keys has length n too; neither is a vector.
        lists = (list, tuple)
        if not (isinstance(a, lists) and isinstance(b, lists) and all(isinstance(row, lists) for row in a)):
            raise ValueError("A must be a list of row lists and B a list")
        n = len(b)
        if len(a) != n or any(len(row) != n for row in a):
            raise ValueError("A must be square of size len(B)")
        mat = [[rat(x) for x in row] for row in a]
        for i in range(n):
            if mat[i][i]:
                raise ValueError("A has a nonzero diagonal entry")
            for j in range(i + 1, n):
                if mat[j][i] != -mat[i][j]:
                    raise ValueError(f"A is not skew at ({i}, {j})")
        return FluxParams(tuple(tuple(row) for row in mat), tuple(rat(x) for x in b))

    @property
    def n(self) -> int:
        return len(self.b)


def random_flux_params(n: int, rng, bound: int = 5) -> FluxParams:
    a = _skew_fill(n, [Fraction(rng.randint(-bound, bound)) for _ in _index_pairs(n)], Fraction(0))
    b = [Fraction(rng.randint(-bound, bound)) for _ in range(n)]
    return FluxParams.make(a, b)


class ConservativeSystem:
    """Operator together with a generated flux vector V = g^{-1}(Au + B) + c.

    The flux is held in one form, the numerators Q_k over the Pfaffian D:
    V^k = q[k] / d.  `lowest_terms(q[k], d)` gives a component in lowest
    terms.  The forms read from `q` (the residual P, the point kernel) are
    built once, so `q` may be edited only before the first read.
    """

    def __init__(self, op: Hho2, flux: FluxParams, constants: Optional[Sequence] = None):
        if op.is_degenerate:
            raise DegenerateOperatorError(
                "the metric Pfaffian vanishes identically; no flux vector exists"
            )
        if flux.n != op.n:
            raise ValueError(f"flux parameters are for n={flux.n}, operator has n={op.n}")
        self.op = op
        self.flux = flux
        n = op.n
        if constants is None:
            self.constants: Tuple[Fraction, ...] = tuple(Fraction(0) for _ in range(n))
        else:
            # A string or a mapping of n keys has length n too; neither is a vector.
            if not isinstance(constants, (list, tuple)) or len(constants) != n:
                raise ValueError(f"constants must have length n = {n} as a list or tuple, got {constants!r}")
            self.constants = tuple(rat(c) for c in constants)

        vs = op.vars
        self.vars = vs
        self.d = op.pfaffian_poly()
        cadj, _ = pfaffian_adjugate(op.metric())
        w = [_linear(vs, (*flux.a[j], flux.b[j])) for j in range(n)]
        self.q: List[MultiPoly] = [
            _sum_of_products(vs, [*zip(cadj.entries[k], w), (self.d, self.constants[k])]) for k in range(n)
        ]

        # Effective affine data absorbing the additive constants c, so that
        # g V = Aeff u + Beff; these are what the eigenvalue pencil sees
        # alongside the actual V.  The constants add g(u) c: the table
        # contracted with c in its middle index (column n shifts B), read off
        # the integer table and divided by its L once per entry.
        c = self.constants
        if any(c):
            big_l, t = op._integer_table()
            shift = [[sum((t[h][i][j] * c[i] for i in range(n) if c[i]), Fraction(0)) / big_l for j in range(n + 1)]
                     for h in range(n)]
            self.a_eff = tuple(tuple(flux.a[h][j] + shift[h][j] for j in range(n)) for h in range(n))
            self.b_eff = tuple(flux.b[h] + shift[h][n] for h in range(n))
        else:
            self.a_eff, self.b_eff = flux.a, flux.b
        # (a_den, rows): rows h < n are a_den Aeff, row n is a_den Beff.
        self._affine: Tuple[int, List[List[int]]] = clear_denominators([*self.a_eff, self.b_eff])

        self._residuals: Optional[Tuple[MultiPoly, List[MultiPoly]]] = None
        # Diagnostics evaluate several tensors at one point before moving to
        # the next; memoize the integer numerators of the last few points.
        self._kern: Optional[_PointKernel] = None
        self._num_cache: Dict[tuple, _PointNumerators] = {}

    # ----- integer forms ------------------------------------------------------

    def _pluecker_residuals(self) -> Tuple[MultiPoly, List[MultiPoly]]:
        """`_integer_residuals` of the numerators as they are at the first
        call and of `_affine`.  Built once: `q` is edited only before the
        first read."""
        if self._residuals is None:
            self._residuals = _integer_residuals(self.op, self.d, self.q, self._affine)
        return self._residuals

    # ----- pointwise exact evaluation ----------------------------------------

    def _point(self, u) -> Tuple[Fraction, ...]:
        point = tuple(map(rat, u))
        if len(point) != self.op.n:
            raise ValueError(f"point must have {self.op.n} coordinates")
        return point

    def _kernel(self) -> _PointKernel:
        if self._kern is None:
            self._kern = _PointKernel(self)
        return self._kern

    def _numerators(self, u) -> _PointNumerators:
        """The integer record of u, memoized; refuses a point with D(u) = 0."""
        point = self._point(u)
        num = self._num_cache.get(point)
        if num is None:
            num = self._kernel().evaluate(point)
            if len(self._num_cache) >= 16:
                self._num_cache.pop(next(iter(self._num_cache)))
            self._num_cache[point] = num
        if not num.d:
            raise ZeroDivisionError("point lies on the degeneracy locus")
        return num

    def flux_at(self, u) -> List[Fraction]:
        num = self._numerators(u)
        return [Fraction(x, num.d) for x in num.qv]

    def jacobian_at(self, u) -> List[List[Fraction]]:
        num = self._numerators(u)
        den = num.d ** 2
        return [[Fraction(x, den) for x in row] for row in num.r]

    def hessian_at(self, u) -> List[List[List[Fraction]]]:
        """hess[k][p][l] = d^2 V^k / du^p du^l, exact at the point."""
        num = self._numerators(u)
        den = num.d ** 3
        return [[[Fraction(x, den) for x in row] for row in plane] for plane in num.s]

    # ----- reports ------------------------------------------------------------

    def flux_denominator_report(self) -> dict:
        """Degrees of the flux numerators Q_k against the bound n/2.

        Each denominator of V^k = Q_k / D divides D by construction, so only
        the degree bound is checked.
        """
        n = self.op.n
        rows = []
        ok = True
        for k in range(n):
            ok = ok and self.q[k].degree() <= n // 2
            rows.append(
                {
                    "component": k + 1,
                    "numerator_degree": self.q[k].degree(),
                    "degree_bound": n // 2,
                }
            )
        return {"ok": ok, "pfaffian_degree": self.d.degree(), "components": rows}

    # ----- serialization --------------------------------------------------------

    def to_json(self) -> str:
        a = self.flux.a
        a_items = [[i + 1, j + 1, str(a[i][j])] for i, j in _index_pairs(self.op.n) if a[i][j]]
        doc = {
            "op": json.loads(self.op.to_json()),
            "A": a_items,
            "B": [str(x) for x in self.flux.b],
        }
        if any(self.constants):
            doc["constants"] = [str(x) for x in self.constants]
        return json.dumps(doc, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ConservativeSystem":
        data = json.loads(text)
        if not isinstance(data, dict):
            raise ValueError(f"malformed system document: expected an object, got {type(data).__name__}")
        if "op" not in data:
            raise ValueError("malformed system document: missing op")
        op = Hho2.from_data(data["op"])
        n = op.n
        if not isinstance(data.get("B"), list) or len(data["B"]) != n:
            raise ValueError("malformed system document: B must list n values")
        upper = {pair: rat(value) for pair, value in index_entries(data.get("A", []), 2, n, "A")}
        a = _skew_fill(n, [upper.get(pair, Fraction(0)) for pair in _index_pairs(n)], Fraction(0))
        if "constants" in data and not isinstance(data["constants"], list):
            raise ValueError("malformed system document: constants must list n values")
        # A is skew by construction; the constructor parses the constants.
        flux = FluxParams(tuple(map(tuple, a)), tuple(rat(x) for x in data["B"]))
        return cls(op, flux, data.get("constants"))

    def __repr__(self):
        return f"ConservativeSystem(n={self.op.n})"


class _PointNumerators(NamedTuple):
    """The integer record of the flux data and the metric at a point u = U / q.

    V^k = qv[k] / d,  dV^k/du^p = r[k][p] / d^2,
    d^2 V^k/du^p du^l = s[k][p][l] / d^3,  D(u) = d / d_scale,
    and the metric is G / (t_den q) with G the field g and t_den from
    `op._integer_table`.  r and s are R_kp and S_kpl of the module docstring,
    evaluated at the point.
    """

    d: int
    d_scale: int
    q: int
    qv: List[int]
    r: List[List[int]]
    s: List[List[List[int]]]
    g: List[List[int]]


class _PointKernel:
    """Integer evaluation of D, the Q_k and their partials.

    D and the Q_k are multiplied once by one common denominator `scale`
    (`_denominator_lcm` of D and the Q_k) and differentiated as integer
    polynomials; the partials are kept only compiled, as (monomial ids,
    coefficients) in storage order.  The ids index one table keyed by packed
    monomial key, and each distinct key is unpacked once, at the end.  Each
    monomial of the table is evaluated once, homogenised to the top degree, so
    a point U/q needs only integers.  The metric numerator G is
    `op._metric_numerator` at (U, q).
    """

    def __init__(self, system: ConservativeSystem):
        n = system.op.n
        self.n = n
        self.op = system.op
        self.pairs = [(p, l) for p in range(n) for l in range(p, n)]
        self.scale = _denominator_lcm((system.d, *system.q))
        index: Dict[int, int] = {}
        self.polys = []
        for f in (system.d, *system.q):
            f = f * self.scale
            f1 = [f.diff(p) for p in range(n)]
            for x in (f, *f1, *(f1[p].diff(l) for p, l in self.pairs)):
                self.polys.append(([index.setdefault(key, len(index)) for key in x.terms], list(x.terms.values())))
        exps = [_unpack(key, n) for key in index]
        self.top = max(map(sum, exps), default=0)
        self.monomials = [(self.top - sum(e), [(v, x) for v, x in enumerate(e) if x]) for e in exps]

    def evaluate(self, point: Sequence[Fraction]) -> _PointNumerators:
        n, top = self.n, self.top
        q, (coords,) = clear_denominators([point])

        def powers(base):
            row = [1]
            for _ in range(top):
                row.append(row[-1] * base)
            return row

        upow = [powers(c) for c in coords]
        qpow = powers(q)
        mono = []
        for lift, factors in self.monomials:
            value = qpow[lift]
            for v, x in factors:
                value *= upow[v][x]
            mono.append(value)
        get = mono.__getitem__
        vals = [sum(map(operator.mul, coeffs, map(get, idxs))) for idxs, coeffs in self.polys]

        block = 1 + n + len(self.pairs)
        d, d1 = vals[0], vals[1 : 1 + n]
        d2 = dict(zip(self.pairs, vals[1 + n : block]))
        qv, r = [], []
        s = [[[0] * n for _ in range(n)] for _ in range(n)]
        for k in range(n):
            fam = vals[block * (k + 1) : block * (k + 2)]
            qk, q1 = fam[0], fam[1 : 1 + n]
            q2 = dict(zip(self.pairs, fam[1 + n :]))
            rk = [q1[p] * d - qk * d1[p] for p in range(n)]
            sk = s[k]
            for p, l in self.pairs:
                r_kpl = q2[(p, l)] * d + q1[p] * d1[l] - q1[l] * d1[p] - qk * d2[(p, l)]
                value = r_kpl * d - 2 * rk[p] * d1[l]
                sk[p][l] = value
                sk[l][p] = value
            qv.append(qk)
            r.append(rk)
        g = self.op._metric_numerator(coords + [q])[1]
        return _PointNumerators(d, self.scale * q ** top, q, qv, r, s, g)


def generate_flux(
    op: Hho2, flux: Optional[FluxParams] = None, constants=None, rng=None, bound: int = 5
) -> ConservativeSystem:
    """Build the conservative system for the operator.

    Either pass explicit flux parameters or a seeded rng to draw them.
    """
    if flux is None:
        if rng is None:
            raise ValueError("need either flux parameters or an rng to draw them")
        flux = random_flux_params(op.n, rng, bound)
    return ConservativeSystem(op, flux, constants)


# ----- compatibility checks -----------------------------------------------------


@dataclass
class CompatReport:
    """Failure lists of the two identity families.  A proof route implies the
    second from the first (module docstring): it reports [] and the witness
    (A, B) of g V = A u + B on a pass, None (not evaluated) on a failure."""

    mode: str
    n: int
    first_order_failures: List[tuple] = field(default_factory=list)
    second_order_failures: Optional[List[tuple]] = field(default_factory=list)
    points_checked: Optional[int] = None
    witness: Optional[Tuple[Tuple[Tuple[Fraction, ...], ...], Tuple[Fraction, ...]]] = None

    @property
    def first_order_ok(self) -> bool:
        return not self.first_order_failures

    @property
    def second_order_ok(self) -> Optional[bool]:
        return None if self.second_order_failures is None else not self.second_order_failures

    @property
    def passed(self) -> bool:
        return self.first_order_ok and self.second_order_ok is True

    def summary(self) -> str:
        where = f" at {self.points_checked} points" if self.points_checked is not None else ""
        if self.passed:
            return f"compatible ({self.mode}{where}): both identity families hold"
        second = "" if self.second_order_failures is None else f" and {len(self.second_order_failures)} second-order"
        return f"NOT compatible ({self.mode}{where}): {len(self.first_order_failures)} first-order{second} identities fail"


def _denominator_lcm(polys: Sequence[MultiPoly]) -> int:
    """The lcm `scale` of the coefficient denominators of the polys."""
    return clear_denominators([list(p.terms.values()) for p in polys])[0]


def _integer_residuals(
    op: Hho2, d: MultiPoly, q: Sequence[MultiPoly], affine: Tuple[int, List[List[int]]]
) -> Tuple[MultiPoly, List[MultiPoly]]:
    """(d, P): d = scale D and the residuals P_h = sum_k g_hk Q_k -
    D (Aeff u + Beff)_h in Z[u], each times a_den t_den scale, for numerators
    Q_k over D in the operator's ring.  scale is `_denominator_lcm` of D and
    the Q_k, which also carry a_den; the metric rows are the operator's
    cached integer forms `op._integer_metric()`, so carry t_den.
    affine = (a_den, rows) holds a_den Aeff in rows h < n and a_den Beff in
    row n, as `ConservativeSystem._affine` does; a zero affine part drops out
    of the sums."""
    n, vs = op.n, op.vars
    scale = _denominator_lcm((d, *q))
    t_den = op._integer_table()[0]
    g = op._integer_metric()
    a_den, rows = affine
    q = [x * (scale * a_den) for x in q]
    d = d * scale
    out = []
    for h in range(n):
        affine_row = _linear(vs, [-t_den * x for x in (*rows[h], rows[n][h])])
        out.append(_sum_of_products(vs, [*zip(g[h], q), (d, affine_row)]))
    return d, out


def _residual_table(vs: Tuple[str, ...], d: MultiPoly, res: Sequence[MultiPoly]) -> List[List[MultiPoly]]:
    """E_qp = d dP_q/du^p - d_p P_q for the residuals P = res over d."""
    d1 = [d.diff(p) for p in range(len(res))]
    return [[_sum_of_products(vs, [(d, pq.diff(p)), (pq, -d1[p])]) for p in range(len(res))] for pq in res]


def _residual_quotients(d: MultiPoly, res: Sequence[MultiPoly]) -> Optional[List[MultiPoly]]:
    """The quotients P_h / d, or None when d does not divide some P_h."""
    try:
        return [p.exact_div(d) for p in res]
    except ValueError:
        return None


def _killing_certificate(
    mode: str, op: Hho2, d: MultiPoly, res: Sequence[MultiPoly], affine: Tuple[int, List[List[int]]]
) -> CompatReport:
    """The certificate of the module docstring on the `_integer_residuals`
    (d, res) built on `affine`: each P_h / d is t_den a_den (W - Aeff u -
    Beff)_h.  Only a failure lists the first family, read off E + E^T: where
    d divides every P_h, E_qp + E_pq = d^2 (d_p w_q + d_q w_p) for the
    quotients w, and only otherwise is E built."""
    n = op.n
    w = _residual_quotients(d, res)
    if w is not None and all(x.degree() <= 1 for x in w):
        t_den, (a_den, rows) = op._integer_table()[0], affine
        # ab[h] = t_den a_den (A_h0, ..., A_h(n-1), B_h)
        ab = [[t_den * x for x in (*rows[h], rows[n][h])] for h in range(n)]
        for row, x in zip(ab, w):
            for e, c in x.monomials():
                row[e.index(1) if any(e) else n] += c
        if all(ab[h][p] == -ab[p][h] for h in range(n) for p in range(h, n)):
            den = t_den * a_den
            a = tuple(tuple(Fraction(x, den) for x in row[:n]) for row in ab)
            return CompatReport(mode, n, witness=(a, tuple(Fraction(row[n], den) for row in ab)))
    e = _residual_table(op.vars, d, res) if w is None else [[x.diff(p) for p in range(n)] for x in w]
    first = [(q + 1, p + 1) for q in range(n) for p in range(q, n) if e[q][p] + e[p][q]]
    return CompatReport(mode, n, first, second_order_failures=None)


def _check_compat_symbolic(system: ConservativeSystem) -> CompatReport:
    """The certificate in Z[u] on the system's residual P."""
    return _killing_certificate("symbolic", system.op, *system._pluecker_residuals(), system._affine)


def _check_compat_points(system: ConservativeSystem, points) -> CompatReport:
    """Both identity families at each point, contracted in integers.

    The point record gives dV/du = r / d^2, d^2V/du^2 = s / d^3 and
    g = G / (t_den q), and T = t / t_den.  The first family times
    t_den q d^2 is the sum over j of G_qj r_jp + G_pj r_jq, and the second
    times t_den q d^3 is the sum over k of G_qk s_kpl
    + q d (t_pqk r_kl + t_qkl r_kp): t_den cancels from both.
    """
    n = system.op.n
    t = system.op._integer_table()[1]
    report = CompatReport(mode="points", n=n, points_checked=0)
    fail1 = set()
    fail2 = set()
    for u in points:
        num = system._numerators(u)
        r, s, gmat = num.r, num.s, num.g
        for q in range(n):
            for p in range(q, n):
                total = sum(gmat[q][j] * r[j][p] + gmat[p][j] * r[j][q] for j in range(n))
                if total:
                    fail1.add((q + 1, p + 1))
        qd = num.q * num.d
        for q in range(n):
            gq = gmat[q]
            for p in range(n):
                tpq = t[p][q]
                for l in range(p, n):
                    total = 0
                    for k in range(n):
                        total += gq[k] * s[k][p][l] + qd * (tpq[k] * r[k][l] + t[q][k][l] * r[k][p])
                    if total:
                        fail2.add((q + 1, p + 1, l + 1))
        report.points_checked += 1
    report.first_order_failures = sorted(fail1)
    report.second_order_failures = sorted(fail2)
    return report


def check_compat(system: ConservativeSystem, mode: str = "symbolic", points=None) -> CompatReport:
    """Verify the compatibility identities for a generated system.

    mode "symbolic" proves them in Z[u] by the certificate of the module
    docstring on the residual P, at every n; `sys verify` takes it.  mode
    "points" checks both families exactly at the given sample points,
    evaluating the second-derivative numerators: the independent route.
    """
    if mode == "symbolic":
        return _check_compat_symbolic(system)
    if mode == "points":
        if not points:
            raise ValueError("mode 'points' needs a nonempty list of sample points")
        return _check_compat_points(system, points)
    raise ValueError(f"unknown mode {mode!r}; use 'symbolic' or 'points'")


def check_compat_rational(op: Hho2, fractions: Sequence[Tuple[MultiPoly, MultiPoly]]) -> CompatReport:
    """Compatibility identities for any flux vector V^k = N_k / M_k given as
    (numerator, denominator) pairs of polynomials in u, such as a system's
    (q_k, d) pairs or their `lowest_terms`.

    The pairs are cleared to one denominator D, the product of the distinct
    M_k, so that Q_k = N_k D / M_k; no gcd is taken.  The residual
    P_q = sum_k g_qk Q_k is built in integers by `_integer_residuals`, the
    builder of `sys verify`, with Aeff = Beff = 0, so P_q / D is W_q itself,
    and the symbolic proof's certificate reads it.  The lemma holds for any
    nonzero D.  Tests use it to check foreign vectors.
    """
    n, vs = op.n, op.vars
    if len(fractions) != n:
        raise ValueError("flux vector must have n components")
    pairs = [(num.with_vars(vs), den.with_vars(vs)) for num, den in fractions]
    if any(den.is_zero() for _, den in pairs):
        raise ZeroDivisionError("zero denominator")
    dens: List[MultiPoly] = []
    for _, den in pairs:
        if den not in dens:
            dens.append(den)
    q = [reduce(operator.mul, [x for x in dens if x != den], num) for num, den in pairs]
    zero = (1, [[0] * n] * (n + 1))
    return _killing_certificate("rational", op, *_integer_residuals(op, reduce(operator.mul, dens), q, zero), zero)


# ----- linear line congruence ---------------------------------------------------


@dataclass
class PlueckerReport:
    n: int
    row_ok: List[bool]

    @property
    def passed(self) -> bool:
        return all(self.row_ok)


def pluecker_relations(system: ConservativeSystem) -> PlueckerReport:
    """Check the n linear relations tying the flux to the tensor data:

        (1/2) T_jkl (u^l V^k - u^k V^l) + g0_jk V^k = Aeff_jl u^l + Beff_j

    cleared by D (so V^k is replaced by Q_k and the right side gains a factor
    D).  By the skewness of T the left side is g_jk V^k with the metric
    g = T u + g0, so row j is tested as g_jk Q_k = D (Aeff_jl u^l + Beff_j),
    the residual P_j of `ConservativeSystem._pluecker_residuals` being zero.
    The effective parameters absorb the optional additive constants; with
    constants zero they are the raw (A, B).
    """
    return PlueckerReport(n=system.op.n, row_ok=[not p for p in system._pluecker_residuals()[1]])


# ----- Hamiltonian structure ------------------------------------------------------


def _density_ring(n: int) -> Tuple[str, ...]:
    base = tuple(f"b{i + 1}" for i in range(n))
    first = tuple(f"b{i + 1}x" for i in range(n))
    second = tuple(f"b{i + 1}xx" for i in range(n))
    return base + first + second


def hamiltonian_density(system: ConservativeSystem) -> MultiPoly:
    """First-order density h(b, b_x) = -(A_sl b^l_x / 2 + B_s) b^s.

    The ring carries formal jet variables b, b_x, b_xx so that the total
    x-derivative and the variational derivative stay inside one ring.
    """
    n = system.op.n
    ring = _density_ring(n)
    b = [MultiPoly.variable(ring, i) for i in range(n)]
    bx = [MultiPoly.variable(ring, n + i) for i in range(n)]
    h = MultiPoly.zero(ring)
    for s in range(n):
        inner = MultiPoly.const(ring, system.flux.b[s])
        for l in range(n):
            if system.flux.a[s][l]:
                inner = inner + bx[l] * (system.flux.a[s][l] * Fraction(1, 2))
        h = h - inner * b[s]
    return h


@dataclass
class EulerReport:
    n: int
    component_ok: List[bool]

    @property
    def passed(self) -> bool:
        return all(self.component_ok)


def euler_check(system: ConservativeSystem) -> EulerReport:
    """Variational derivative check: delta h / delta b^k = -A_ks b^s_x - B_k.

    For h = -(A_sl b^l_x / 2 + B_s) b^s of `hamiltonian_density`,
    dh/db^k = -A_kl b^l_x / 2 - B_k and D_x dh/db^k_x = -A_lk b^l_x / 2, so
    component k differs from its target by (A_kl + A_lk) b^l_x / 2, for any
    A: it holds exactly when row k of A + A^T is zero.  The additive
    constants c do not enter: they drop out of the dynamics under the outer
    x-derivative.
    """
    n = system.op.n
    a = system.flux.a
    return EulerReport(n=n, component_ok=[not any(a[k][l] + a[l][k] for l in range(n)) for k in range(n)])


@dataclass
class CasimirReport:
    """Rank of the metric; nonconstant Casimir densities of the bracket
    correspond to the corank, so a nondegenerate operator has none."""

    n: int
    metric_rank: int
    corank: int
    nondegenerate: bool


def casimir_check(op: Hho2) -> CasimirReport:
    rank = poly_rank(op.metric())
    return CasimirReport(
        n=op.n, metric_rank=rank, corank=op.n - rank, nondegenerate=rank == op.n
    )


# ----- linearity --------------------------------------------------------------------


@dataclass
class LinearityReport:
    n: int
    is_linear: bool


def linearity_report(system: ConservativeSystem) -> LinearityReport:
    """Decide exactly whether the flux V is linear.

    V is linear iff each component is a polynomial of degree at most one.
    The components Q_k / D are brought to lowest terms one at a time, in
    order, and the test stops at the first that is not affine, so a nonlinear
    flux usually takes one `poly_gcd`.
    """
    is_linear = all(
        den.is_constant() and num.degree() <= 1
        for num, den in (lowest_terms(qk, system.d) for qk in system.q)
    )
    return LinearityReport(n=system.op.n, is_linear=is_linear)
