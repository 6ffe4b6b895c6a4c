import random
from fractions import Fraction

import pytest
import sympy
from sympy.polys.domains import ZZ
from sympy.polys.factortools import dup_factor_list

from hho2.catalog import build, list_entries
from hho2.diagnostics import (
    _charpoly,
    _geometric_multiplicity,
    charpoly_at,
    charpoly_square_at,
    charpoly_square_symbolic,
    diag_check,
    factor_univariate,
    haantjes,
    nijenhuis,
    nijenhuis_closed_form,
    run_diagnostics,
    sample_points,
    sqrt_charpoly_at,
    tensor_is_zero,
    tensor_nonzero_count,
)
from hho2.linalg import (
    PolyMatrix,
    _pfaffian_expansion,
    clear_denominators,
    det_bareiss,
    det_laplace,
    pfaffian,
    rat_inverse,
    rat_mat_mul,
)
from hho2.poly import MultiPoly, _sum_coeff_products, _trim
from hho2.systems import generate_flux
from test_operators import simple_n4
from test_systems import _EDITS, _ci_moved, _edit_flux, _eigenvalue_pencil, _jacobian_numerators


N8_PARAMS = {
    "lambda1": Fraction(2),
    "lambda2": Fraction(3),
    "lambda3": Fraction(5),
    "lambda4": Fraction(7),
}
N8_FAM2_PARAMS = {name: N8_PARAMS[name] for name in ("lambda1", "lambda2", "lambda3")}


def test_sample_points_deterministic_and_off_locus():
    op = build("n6-X")
    pf = op.pfaffian_poly()
    a = sample_points(op, 5, random.Random(1))
    b = sample_points(op, 5, random.Random(1))
    assert a == b
    for u in a:
        assert pf.eval(u) != 0


def test_sample_points_degenerate_guard():
    op = build("n4-degenerate")
    with pytest.raises(ValueError):
        sample_points(op, 1, random.Random(2))
    pts = sample_points(op, 2, random.Random(2), allow_degenerate=True)
    assert len(pts) == 2


def _sample_points_oracle(op, count, rng, bound, allow_degenerate):
    """The symbolic route: a draw is rejected while the Pfaffian polynomial
    evaluates to zero there, unless it is identically zero.  Returns the
    points and the number of rejected draws."""
    pf = op.pfaffian_poly()
    if pf.is_zero() and not allow_degenerate:
        raise ValueError("degenerate")
    points, rejected = [], 0
    while len(points) < count:
        if len(points) + rejected >= 200 * count + 200:
            raise RuntimeError("sampling failed")
        u = tuple(Fraction(rng.randint(-bound, bound)) for _ in range(op.n))
        if pf.is_zero() or pf.eval(u) != 0:
            points.append(u)
        else:
            rejected += 1
    return points, rejected


def _sampling_cases():
    """Every catalog entry, the n = 8 families at lambda = 2, 3, 5, 7, and
    n4-open, n6-X and n8-fam1 moved by the CI maps."""
    for entry in list_entries():
        op = entry.build({name: N8_PARAMS[name] for name in entry.params})
        yield entry.id, op
        if entry.id in ("n4-open", "n6-X", "n8-fam1"):
            yield entry.id + "-moved", _ci_moved(op)


def test_sample_points_match_the_symbolic_route():
    """The integer Pfaffian of the metric numerator at a draw rejects exactly
    the draws on which the Pfaffian polynomial vanishes, so the points are
    those of the symbolic route, draw for draw; small boxes put draws on the
    locus, and a degenerate entry accepts every draw."""
    rejected = 0
    for name, op in _sampling_cases():
        degenerate = op.pfaffian_poly().is_zero()
        for seed, bound in ((1, 1), (2, 2), (3, 10)):
            expected, skipped = _sample_points_oracle(op, 6, random.Random(seed), bound, degenerate)
            assert sample_points(op, 6, random.Random(seed), bound, allow_degenerate=degenerate) == expected, name
            rejected += skipped
    assert rejected > 0


def test_nijenhuis_routes_agree():
    rng = random.Random(31)
    cases = [("n4-open", None), ("n6-X", None), ("n8-fam1", N8_PARAMS)]
    for name, params in cases:
        system = generate_flux(build(name, params), rng=rng)
        for u in sample_points(system.op, 2, rng):
            direct = nijenhuis(system, u)
            closed = nijenhuis_closed_form(system, u)
            assert direct == closed


def _nijenhuis_oracle(system, u):
    """The full-index contraction of `nijenhuis` over every (j, k)."""
    n = system.op.n
    num = system._numerators(u)
    r, s = num.r, num.s
    den = num.d ** 5
    out = []
    for i in range(n):
        a = rat_mat_mul(s[i], r)
        out.append([[Fraction(a[k][j] - a[j][k], den) for k in range(n)] for j in range(n)])
    return out


def _nijenhuis_closed_form_oracle(system, u):
    """The full-index contraction of `nijenhuis_closed_form`, with one sum
    over the metric index per entry."""
    n = system.op.n
    num = system._numerators(u)
    r, t = num.r, system.op._integer_table()[1]
    g_den, ginv = clear_denominators(rat_inverse(num.g))
    rr = rat_mat_mul(r, r)
    rt = list(zip(*r))
    inner = []
    for a in range(n):
        x = rat_mat_mul([t[j][a] for j in range(n)], rr)
        y = rat_mat_mul(rt, rat_mat_mul(t[a], r))
        inner.append([[x[j][k] - x[k][j] - 2 * y[k][j] for k in range(n)] for j in range(n)])
    den = num.d ** 4 * g_den
    out = []
    for i in range(n):
        gi = ginv[i]
        plane = []
        for j in range(n):
            sums = [sum(gi[a] * inner[a][j][k] for a in range(n)) for k in range(n)]
            plane.append([Fraction(num.q * x, den) for x in sums])
        out.append(plane)
    return out


def _haantjes_oracle(system, u, torsion):
    """The full-index contraction of `haantjes`, all four terms at every
    (j, k), with no use of the torsion's skewness."""
    n = system.op.n
    num = system._numerators(u)
    n_den, rows = clear_denominators([row for plane in torsion for row in plane])
    niji = [rows[i * n : (i + 1) * n] for i in range(n)]
    r = num.r
    rt = list(zip(*r))
    rr = rat_mat_mul(r, r)
    w = []
    for plane in niji:
        left, right = rat_mat_mul(plane, r), rat_mat_mul(rt, plane)
        w.append([[-x - y for x, y in zip(lrow, rrow)] for lrow, rrow in zip(left, right)])
    den = num.d ** 4 * n_den
    out = []
    for i in range(n):
        first = rat_mat_mul(rt, rat_mat_mul(niji[i], r))
        ri, rri = r[i], rr[i]
        plane = []
        for j in range(n):
            row = []
            for k in range(n):
                total = first[j][k]
                for p in range(n):
                    total += ri[p] * w[p][j][k] + rri[p] * niji[p][j][k]
                row.append(Fraction(total, den))
            plane.append(row)
        out.append(plane)
    return out


def _torsion_system(name, moved, edit=False):
    op = build(name, N8_PARAMS if name.startswith("n8") else None)
    if moved:
        op = _ci_moved(op)
    system = generate_flux(op, rng=random.Random(909))
    return _edit_flux(system, "integer-quadratic-q1") if edit else system


def _torsion_points(system):
    """One integer sample point and one rational point off the locus."""
    rng = random.Random(37)
    point = sample_points(system.op, 1, rng)[0]
    while True:
        v = tuple(Fraction(rng.randint(-9, 9), rng.randint(2, 7)) for _ in range(system.op.n))
        if system.d.eval(v):
            return [point, v]


def _assert_skew(tensor):
    n = len(tensor)
    for plane in tensor:
        for j in range(n):
            assert not plane[j][j]
            for k in range(j + 1, n):
                assert plane[j][k] == -plane[k][j]


@pytest.mark.parametrize("moved", [False, True], ids=["catalogued", "moved"])
@pytest.mark.parametrize("name", ["n4-open", "n6-X", "n6-VIII", "n8-fam1"])
def test_torsion_pair_contraction_matches_the_full_index_bodies(name, moved):
    """The pair-contracted tensors equal the full-index contractions entrywise,
    and each is skew in its lower indices.  Moved by a CI map, the table and
    the cleared inverse metric both carry a denominator above 1."""
    system = _torsion_system(name, moved)
    for u in _torsion_points(system):
        if moved:
            assert system.op._integer_table()[0] > 1
            assert clear_denominators(rat_inverse(system._numerators(u).g))[0] > 1
        direct, closed = nijenhuis(system, u), nijenhuis_closed_form(system, u)
        h = haantjes(system, u, torsion=direct)
        assert direct == _nijenhuis_oracle(system, u)
        assert closed == _nijenhuis_closed_form_oracle(system, u)
        assert h == _haantjes_oracle(system, u, direct)
        assert haantjes(system, u) == h
        for tensor in (direct, closed, h):
            _assert_skew(tensor)


@pytest.mark.parametrize("moved", [False, True], ids=["catalogued", "moved"])
@pytest.mark.parametrize("name", ["n4-open", "n6-X", "n6-VIII", "n8-fam1"])
def test_torsion_pair_contraction_on_an_edited_flux(name, moved):
    """With Q_0 edited before the first read the flux is no longer the one the
    operator supports, and its torsion is generic: the direct Nijenhuis and
    the Haantjes tensors still equal the full-index bodies and stay skew."""
    system = _torsion_system(name, moved, edit=True)
    for u in _torsion_points(system):
        direct = nijenhuis(system, u)
        h = haantjes(system, u, torsion=direct)
        assert not tensor_is_zero(direct)
        assert direct == _nijenhuis_oracle(system, u)
        assert h == _haantjes_oracle(system, u, direct)
        _assert_skew(direct)
        _assert_skew(h)


def test_nijenhuis_generically_nonzero():
    rng = random.Random(32)
    system = generate_flux(build("n6-X"), rng=rng)
    u = sample_points(system.op, 1, rng)[0]
    assert not tensor_is_zero(nijenhuis(system, u))


def test_haantjes_vanishes_for_small_dimension():
    rng = random.Random(33)
    for name in ("n2", "n4-open"):
        system = generate_flux(build(name), rng=rng)
        for u in sample_points(system.op, 3, rng):
            assert tensor_is_zero(haantjes(system, u))


def test_haantjes_nonzero_regression_pin():
    # Frozen anchor: the torsion does not vanish for this seeded draw, and
    # the exact value below must never drift under refactoring.
    rng = random.Random(7)
    system = generate_flux(build("n6-X"), rng=rng)
    u = sample_points(system.op, 1, rng)[0]
    assert u == tuple(Fraction(x) for x in (3, -9, 8, -7, -3, 10))
    h = haantjes(system, u)
    assert tensor_nonzero_count(h) == 180
    assert h[0][0][1] == Fraction(-108973296, 887410625)


def test_haantjes_matches_its_definition():
    # Reference: the defining contraction summed term by term in Fractions,
    # at an integer point and at a rational one.
    rng = random.Random(36)
    system = generate_flux(build("n6-X"), rng=rng)
    n = 6
    u = sample_points(system.op, 1, rng)[0]
    v = tuple(Fraction(x) for x in ("1/2", "-2/3", "3", "5/4", "-1", "2/7"))
    assert system.d.eval(v)
    for point in (u, v):
        jac = system.jacobian_at(point)
        nij = nijenhuis(system, point)
        expected = [
            [
                [
                    sum(
                        (
                            nij[i][p][r] * jac[p][j] * jac[r][k]
                            - nij[p][j][r] * jac[i][p] * jac[r][k]
                            - nij[p][r][k] * jac[i][p] * jac[r][j]
                            + nij[p][j][k] * jac[i][r] * jac[r][p]
                            for p in range(n)
                            for r in range(n)
                        ),
                        Fraction(0),
                    )
                    for k in range(n)
                ]
                for j in range(n)
            ]
            for i in range(n)
        ]
        assert not tensor_is_zero(expected)
        assert haantjes(system, point) == expected


def test_haantjes_antisymmetry_in_lower_indices():
    rng = random.Random(34)
    system = generate_flux(build("n6-IX"), rng=rng)
    u = sample_points(system.op, 1, rng)[0]
    h = haantjes(system, u)
    n = 6
    for i in range(n):
        for j in range(n):
            for k in range(n):
                assert h[i][j][k] == -h[i][k][j]


def test_charpoly_is_square_at_points():
    rng = random.Random(35)
    for name, params in (("n4-open", None), ("n6-X", None), ("n8-fam2-e1", N8_FAM2_PARAMS)):
        system = generate_flux(build(name, params), rng=rng)
        for u in sample_points(system.op, 3, rng):
            res = charpoly_square_at(system, u)
            assert res["equal"]
            full = charpoly_at(system, u)
            s = sqrt_charpoly_at(system, u)
            prod = [Fraction(0)] * (len(full))
            for i, ci in enumerate(s):
                for j, cj in enumerate(s):
                    prod[i + j] += ci * cj
            assert prod == full


def _expanded_charpoly_square(system):
    """Oracle: expand det(R - lam D^2 I) and Pf(Dm)^2 D^(n-2) in (u, lam).

    Returns whether the two sides are equal and their degrees in lam.  The
    left side sees only the quotient-rule Jacobian numerators and a
    fraction-free determinant, the right side only the pencil Pfaffian.  The
    matrix is cleared of its denominators L before the elimination, and the
    determinant divided by L^n.
    """
    n = system.op.n
    rvars = system.vars + ("lam",)
    d = system.d.with_vars(rvars)
    lam_d2 = MultiPoly.variable(rvars, "lam") * d * d
    r = _jacobian_numerators(system)
    rows = [[r[k][p].with_vars(rvars) - (lam_d2 if k == p else 0) for p in range(n)] for k in range(n)]
    den = clear_denominators([list(x.terms.values()) for row in rows for x in row])[0]
    det_side = det_bareiss(PolyMatrix([[x * den for x in row] for row in rows])) * Fraction(1, den**n)
    pf = pfaffian(_eigenvalue_pencil(system)[1])
    pf_side = pf * pf * d ** (n - 2)
    return det_side == pf_side, det_side.degree_in(n), pf_side.degree_in(n)


# n = 4 operators whose Pfaffian D is not constant, so that the lam D g term
# of the pencil carries a polynomial factor: D = u1 for simple-n4, and D
# affine in u for n4-open moved by the CI map.
_NONCONSTANT_D = {"simple-n4": simple_n4, "n4-open-moved": lambda: _ci_moved(build("n4-open"))}


def _operator(name):
    return _NONCONSTANT_D[name]() if name in _NONCONSTANT_D else build(name)


@pytest.mark.parametrize("name", ["n2", "n4-open", *_NONCONSTANT_D])
@pytest.mark.parametrize("seed", [36, 908])
def test_charpoly_square_symbolic_agrees_with_the_expanded_identity(name, seed):
    system = generate_flux(_operator(name), rng=random.Random(seed))
    assert system.d.is_constant() == (name not in _NONCONSTANT_D)
    rep = charpoly_square_symbolic(system)
    n = system.op.n
    assert (rep.n, rep.equal) == (n, True)
    assert _expanded_charpoly_square(system) == (True, n, n)


@pytest.mark.parametrize("name", ["n6-X", "n6-IX", "n6-VIII", "n6-VII", "n6-VI"])
def test_charpoly_square_symbolic_n6_report(name):
    """The n=6 report at the flux seed of criterion 08: both sides of
    det(R - lam D^2 I) = Pf(Dm)^2 D^(n-2) have degree n in lam.  Expanding
    them in (u, lam) is too slow at n = 6, so the degrees are read where both
    are specialised, at a sample point."""
    system = generate_flux(build(name), rng=random.Random(908))
    rep = charpoly_square_symbolic(system)
    assert (rep.n, rep.equal) == (6, True)
    u = sample_points(system.op, 1, random.Random(908))[0]
    sqrt_side = sqrt_charpoly_at(system, u)
    assert len(_trim(charpoly_at(system, u))) == len(_trim(_sum_coeff_products([(sqrt_side, sqrt_side)]))) == 7


@pytest.mark.parametrize("name", ["n2", "n4-open", "n6-VIII", *_NONCONSTANT_D])
def test_charpoly_square_factored_rejects_a_perturbed_flux(name):
    """Adding u1 to V^2 keeps det(g) = D^2 and the generic det = Pf^2 true,
    so only the entrywise comparison of the pencil with g R can fail.  At n=2
    the expanded identity still holds for the edited flux: `equal` is a
    certificate, not a disproof.  With D not constant the expanded identity
    fails too."""
    system = generate_flux(_operator(name), rng=random.Random(908))
    u1 = MultiPoly.variable(system.vars, 0)
    system.q[1] = system.q[1] + u1 * system.d
    assert charpoly_square_symbolic(system).equal is False
    if name == "n2":
        assert _expanded_charpoly_square(system)[0] is True
    if name in _NONCONSTANT_D:
        assert not system.d.is_constant()
        assert _expanded_charpoly_square(system)[0] is False


@pytest.mark.parametrize("name", ["n2", "n4-open", "n6-VIII", "n6-X"])
@pytest.mark.parametrize("case", _EDITS)
def test_charpoly_square_symbolic_matches_the_direct_comparison(name, case):
    """`equal` reads g R = D C off the residual P; on every edited flux it
    equals the entrywise comparison itself."""
    system = _edit_flux(generate_flux(build(name), rng=random.Random(908)), case)
    n, vs, d = system.op.n, system.vars, system.d
    g, r, c = system.op.metric(), _jacobian_numerators(system), _eigenvalue_pencil(system)[0]
    direct = all(
        sum((g.at(a, j) * r[j][b] for j in range(n)), MultiPoly.zero(vs)) == d * c[a][b]
        for a in range(n)
        for b in range(n)
    )
    assert direct or case not in ("clean", "b-shift")
    assert charpoly_square_symbolic(system).equal is direct


def test_factor_univariate_known():
    # (x - 1)^2 (x + 2)
    coeffs = [Fraction(c) for c in (2, -3, 0, 1)]
    factors = factor_univariate(coeffs)
    as_set = {(tuple(f), m) for f, m in factors}
    assert ((Fraction(-1), Fraction(1)), 2) in as_set
    assert ((Fraction(2), Fraction(1)), 1) in as_set


def _sympy_factor_list(coeffs):
    """Oracle: sympy's factorization over ZZ of the primitive integer
    multiple, each factor made monic, in the order of `factor_univariate`.
    Unlike `factor_univariate` it takes any degree."""
    coeffs = [Fraction(c) for c in coeffs]
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    _, (ints,) = clear_denominators([coeffs])
    _, factors = dup_factor_list([ZZ(x) for x in reversed(ints)], ZZ)
    out = [([Fraction(int(x), int(fac[0])) for x in reversed(fac)], int(mult)) for fac, mult in factors]
    out.sort(key=lambda item: (len(item[0]), [str(c) for c in item[0]]))
    return out


def _random_factor(rng, degree):
    """A random polynomial of the given degree with rational coefficients and
    leading coefficient; now and then a biquadratic y^4 + b y^2 + d, whose
    Galois group is at most the dihedral group of order 8."""
    bound = rng.choice([1, 3, 10, 1000, 10**12])
    if degree == 4 and rng.random() < 0.25:
        return [Fraction(rng.randint(-bound, bound)), 0, Fraction(rng.randint(-bound, bound)), 0, Fraction(1)]
    coeffs = [Fraction(rng.randint(-bound, bound), rng.randint(1, 5)) for _ in range(degree)]
    return coeffs + [Fraction(rng.choice([1, 2, -3, 7]))]


# Degrees of the random factors; a factor can come out reducible, so the
# patterns seen are those of the oracle's answers.
_FACTOR_SHAPES = [(), (1,), (2,), (3,), (4,), (1, 1), (1, 2), (2, 2), (1, 3), (1, 1, 2), (1, 1, 1, 1)]


def test_factor_univariate_matches_sympy_poly():
    """1,200 seeded polynomials of degree <= 4 with rational content,
    non-monic factors and repeated factors against sympy."""
    rng = random.Random(37)
    patterns, repeated = set(), 0
    for _ in range(1200):
        shape = rng.choice(_FACTOR_SHAPES)
        coeffs = [Fraction(rng.choice([1, -3, 5, Fraction(2, 7)]))]
        factors = [_random_factor(rng, degree) for degree in shape]
        if len(shape) > 1 and shape[0] == shape[1] and rng.random() < 0.4:
            factors[1] = factors[0]
        for factor in factors:
            coeffs = _sum_coeff_products([(coeffs, factor)])
        expected = _sympy_factor_list(coeffs)
        assert factor_univariate(coeffs + [Fraction(0)]) == expected
        patterns.add(tuple(sorted(len(fc) - 1 for fc, mult in expected for _ in range(mult))))
        repeated += any(mult > 1 for _, mult in expected)
    assert {(1, 1, 1, 1), (1, 1, 2), (2, 2), (1, 3), (4,)} <= patterns
    assert repeated >= 50


def _fractions(*coeffs):
    return [Fraction(c) for c in coeffs]


@pytest.mark.parametrize("coeffs, expected", [
    # x^4 + 1 and x^4 - 10 x^2 + 1: Galois group V4, reducible mod every prime
    ((1, 0, 0, 0, 1), [(_fractions(1, 0, 0, 0, 1), 1)]),
    ((1, 0, -10, 0, 1), [(_fractions(1, 0, -10, 0, 1), 1)]),
    ((6, 0, -5, 0, 1), [(_fractions(-2, 0, 1), 1), (_fractions(-3, 0, 1), 1)]),
    ((1, 0, 2, 0, 1), [(_fractions(1, 0, 1), 2)]),
    # x^4 + 4 = (x^2 - 2x + 2)(x^2 + 2x + 2): no rational root, splits
    ((4, 0, 0, 0, 1), [(_fractions(2, -2, 1), 1), (_fractions(2, 2, 1), 1)]),
    ((Fraction(-3, 2), Fraction(-3, 2), 3), [(_fractions(-1, 1), 1), (_fractions(Fraction(1, 2), 1), 1)]),
    ((0, 0, 0, 0, -5), [(_fractions(0, 1), 4)]),
    ((7,), []),
], ids=["x4+1", "x4-10x2+1", "(x2-2)(x2-3)", "(x2+1)^2", "x4+4", "non-monic-roots", "x^4", "constant"])
def test_factor_univariate_fixed_cases(coeffs, expected):
    assert factor_univariate(coeffs) == expected
    assert _sympy_factor_list(coeffs) == expected


def test_factor_univariate_on_a_diagnose_n8_root():
    """s(lam) at one point of the diagnose-n8 benchmark's n8-fam1 system
    (flux seed 909): an irreducible quartic with coefficients of ~70 bits."""
    system = generate_flux(build("n8-fam1", N8_PARAMS), rng=random.Random(909))
    root = sqrt_charpoly_at(system, sample_points(system.op, 1, random.Random(1))[0])
    factors = factor_univariate(root)
    assert factors == _sympy_factor_list(root)
    assert [(len(fc) - 1, mult) for fc, mult in factors] == [(4, 1)]


def test_factor_univariate_rejects_degree_5_and_zero():
    with pytest.raises(ValueError, match="above 4"):
        factor_univariate([1, 0, 0, 0, 0, 1])
    with pytest.raises(ValueError, match="zero polynomial"):
        factor_univariate([Fraction(0), Fraction(0)])
    # Coefficients are read as exact rationals: no float or bool slips in.
    for coeffs in ([0.5, 1], [1, 2.0], [True, 1], [1, False, 1]):
        with pytest.raises(ValueError, match="not an exact rational"):
            factor_univariate(coeffs)


def _pf_of_integer_pencil(a, g):
    """Pf(a - lam g) for integer skew a and g, laid out as sqrt_charpoly_at
    lays out its pencil: ascending lam-coefficient lists in both triangles."""
    n = len(a)
    pencil = [[_trim([a[i][j], -g[i][j]]) for j in range(n)] for i in range(n)]
    return _pfaffian_expansion(pencil, _sum_coeff_products, [1])((1 << n) - 1)


def test_pf_of_the_integer_pencil_squares_to_the_laplace_determinant():
    """Pf^2 against det_laplace of the same pencil over Q[lam], a route that
    shares no step with the Pfaffian expansion; the sign is pinned by the
    closed forms at n = 2 and n = 4."""
    rng = random.Random(38)
    lam_vars = ("lam",)
    lam = MultiPoly.variable(lam_vars, "lam")
    for n in (2, 4, 6, 8):
        for case in range(5):
            a = [[0] * n for _ in range(n)]
            g = [[0] * n for _ in range(n)]
            for i in range(case == 0, n):
                for j in range(i + 1, n):
                    a[i][j] = rng.choice([0, rng.randint(-9, 9)])
                    g[i][j] = rng.choice([0, rng.randint(-9, 9)])
            for i in range(n):
                for j in range(i + 1, n):
                    a[j][i], g[j][i] = -a[i][j], -g[i][j]
            pf = _pf_of_integer_pencil(a, g)
            rows = [[MultiPoly.const(lam_vars, a[i][j]) - lam * g[i][j] for j in range(n)] for i in range(n)]
            det = dict(det_laplace(PolyMatrix(rows)).monomials())
            assert _trim(_sum_coeff_products([(pf, pf)])) == _trim([det.get((k,), 0) for k in range(n + 1)])
            if case == 0:
                assert pf == []
    m = [[0, 2, -3, 5], [-2, 0, 7, -1], [3, -7, 0, 4], [-5, 1, -4, 0]]
    h = [[0, 1, 4, -2], [-1, 0, 3, 6], [-4, -3, 0, -5], [2, -6, 5, 0]]
    assert _pf_of_integer_pencil([r[:2] for r in m[:2]], [r[:2] for r in h[:2]]) == [2, -1]

    def entry(i, j):
        return [m[i][j], -h[i][j]]

    closed = [x - y + z for x, y, z in zip(_sum_coeff_products([(entry(0, 1), entry(2, 3))]),
                                           _sum_coeff_products([(entry(0, 2), entry(1, 3))]),
                                           _sum_coeff_products([(entry(0, 3), entry(1, 2))]))]
    assert _pf_of_integer_pencil(m, h) == closed


def test_sum_coeff_products_adds_in_place_as_the_product_lists_sum():
    """The running sum equals the sum of the products as one-variable
    `MultiPoly`s, padded to the longest product list, len(a) + len(b) - 1:
    same length, so the pencil Pfaffian's coefficient list is unchanged,
    including pairs with an empty list or zero entries."""
    rng = random.Random(41)
    t = ("t",)

    def coeffs():
        return rng.choice([[], [rng.randint(-5, 5) for _ in range(rng.randint(1, 5))]])

    def as_poly(c):
        return MultiPoly(t, {(k,): x for k, x in enumerate(c)})

    for _ in range(300):
        pairs = [(coeffs(), coeffs()) for _ in range(rng.randint(0, 5))]
        total = dict(sum((as_poly(a) * as_poly(b) for a, b in pairs), MultiPoly.zero(t)).monomials())
        width = max((len(a) + len(b) - 1 for a, b in pairs if a and b), default=0)
        assert _sum_coeff_products(pairs) == [total.get((k,), 0) for k in range(width)]


def _bareiss_charpoly(a):
    """Reference: ascending coefficients of det(a - lam I) by univariate Bareiss."""
    lam_vars = ("lam",)
    lam = MultiPoly.variable(lam_vars, "lam")
    rows = [[MultiPoly.const(lam_vars, x) - (lam if i == j else 0) for j, x in enumerate(row)]
            for i, row in enumerate(a)]
    det = det_bareiss(PolyMatrix(rows))
    coeffs = dict(det.monomials())
    return [coeffs.get((k,), 0) for k in range(len(a) + 1)]


@pytest.mark.parametrize("n", range(1, 9))
@pytest.mark.parametrize("rational", [False, True], ids=["int", "rational"])
def test_berkowitz_charpoly_matches_bareiss(n, rational):
    rng = random.Random(100 * n + rational)
    for _ in range(3):
        a = [[Fraction(rng.randint(-9, 9), rng.randint(1, 6) if rational else 1) for _ in range(n)]
             for _ in range(n)]
        c, m = clear_denominators(a)
        assert rational or c == 1
        assert _charpoly(m, c) == _bareiss_charpoly(a)


def _companion(coeffs):
    """Companion matrix of the monic polynomial with ascending coefficients."""
    d = len(coeffs) - 1
    return [[(1 if i == j + 1 else 0) if j < d - 1 else -coeffs[i] for j in range(d)] for i in range(d)]


# Monic irreducible factors (ascending coefficients) of the test spectra:
# rational roots, two quadratics and a cubic.
_LINEAR = ((-3, 1), (2, 1))
_QUADRATIC = ((2, 0, 1), (-1, -1, 1))
_CUBIC = ((-2, 0, 0, 1),)


def _jordan_like(block, size):
    """[[C, I, 0], [0, C, I], ...] with `size` copies of C on the diagonal;
    its geometric multiplicity per root is 1 however many copies it has."""
    d = len(block)
    out = [[0] * (d * size) for _ in range(d * size)]
    for b in range(size):
        for i in range(d):
            out[b * d + i][b * d : (b + 1) * d] = block[i]
            if b + 1 < size:
                out[b * d + i][(b + 1) * d + i] = 1
    return out


def _similar_matrix(rng, blocks, coupling):
    """P B P^-1 for a random invertible rational P, with the blocks on the
    diagonal of B and random entries above them with probability `coupling`."""
    n = sum(len(block) for block in blocks)
    b = [[0] * n for _ in range(n)]
    start = 0
    for block in blocks:
        d = len(block)
        for i in range(d):
            b[start + i][start : start + d] = block[i]
            for j in range(start + d, n):
                if rng.random() < coupling:
                    b[start + i][j] = rng.randint(-2, 2)
        start += d
    while True:
        p = sympy.Matrix(n, n, lambda i, j: sympy.Rational(rng.randint(-3, 3), rng.randint(1, 3)))
        if p.det() != 0:
            return p * sympy.Matrix(b) * p.inv()


def _random_blocks(rng, n):
    blocks = []
    while sum(len(b) for b in blocks) < n:
        room = n - sum(len(b) for b in blocks)
        factor = rng.choice([f for f in _LINEAR + _QUADRATIC + _CUBIC if len(f) - 1 <= room])
        size = 1 if rng.random() < 0.5 else rng.randint(1, room // (len(factor) - 1))
        blocks.append(_jordan_like(_companion(factor), size))
    return blocks


def _eigenstructure(a):
    """(factor, algebraic, geometric) per monic irreducible factor of the
    characteristic polynomial of the sympy matrix a, from the integer kernels."""
    c, m = clear_denominators([[Fraction(int(x.p), int(x.q)) for x in row] for row in a.tolist()])
    return [(f, mult, _geometric_multiplicity(m, c, f)) for f, mult in _sympy_factor_list(_charpoly(m, c))]


def _assert_matches_eigenvects(a, structure):
    x = sympy.Symbol("x")
    eigen = a.eigenvects()
    for f, mult, geometric in structure:
        fx = sympy.Poly([sympy.Rational(k.numerator, k.denominator) for k in reversed(f)], x)
        roots = [(alg, len(vecs)) for value, alg, vecs in eigen if abs(sympy.N(fx.eval(value), 50)) < 1e-30]
        assert roots == [(mult, geometric)] * (len(f) - 1)


@pytest.mark.parametrize("seed", range(12))
def test_geometric_multiplicity_matches_sympy_eigenvects(seed):
    rng = random.Random(seed)
    a = _similar_matrix(rng, _random_blocks(rng, rng.randint(3, 8)), coupling=0.1)
    _assert_matches_eigenvects(a, _eigenstructure(a))


_C2, _C3 = _companion(_QUADRATIC[0]), _companion(_CUBIC[0])


@pytest.mark.parametrize("blocks, expected", [
    # (degree of the factor, algebraic, geometric) in factor order
    ([_C2, _C2, _C3], [(2, 2, 2), (3, 1, 1)]),
    ([_jordan_like(_C2, 2), _C2], [(2, 3, 2)]),
    ([_jordan_like(_C3, 2), _jordan_like([[2]], 2)], [(1, 2, 1), (3, 2, 1)]),
    ([_C2] * 4, [(2, 4, 4)]),
    ([_jordan_like(_companion(_QUADRATIC[1]), 2), [[-3]], [[2]], [[2]]], [(1, 2, 2), (1, 1, 1), (2, 2, 1)]),
], ids=["diagonalizable", "one-jordan-pair", "cubic-and-rational-jordan", "fourfold", "mixed"])
def test_geometric_multiplicity_of_known_jordan_blocks(blocks, expected):
    a = _similar_matrix(random.Random(len(blocks)), blocks, coupling=0)
    structure = _eigenstructure(a)
    assert [(len(f) - 1, alg, geo) for f, alg, geo in structure] == expected
    _assert_matches_eigenvects(a, structure)


def test_geometric_multiplicity_rejects_a_reducible_factor():
    m = [[1, 0, 0], [0, 2, 0], [0, 0, 3]]
    # (lam - 1)(lam - 5) vanishes on one axis: a nullity of 1 for a degree of 2
    with pytest.raises(ValueError, match="not irreducible"):
        _geometric_multiplicity(m, 1, [Fraction(5), Fraction(-6), Fraction(1)])


def test_diag_exact_certifies_n6():
    rng = random.Random(37)
    system = generate_flux(build("n6-X"), rng=rng)
    for u in sample_points(system.op, 2, rng):
        rep = diag_check(system, u, mode="exact")
        assert rep.certified
        assert rep.diagonalizable
        assert rep.square_ok


def test_diag_float_agrees_with_exact():
    rng = random.Random(38)
    system = generate_flux(build("n6-IX"), rng=rng)
    u = sample_points(system.op, 1, rng)[0]
    exact = diag_check(system, u, mode="exact")
    approx = diag_check(system, u, mode="float", digits=50)
    assert exact.diagonalizable == approx.diagonalizable
    assert exact.certified and not approx.certified


def test_diag_constant_jacobian_families():
    rng = random.Random(39)
    for name in ("n2", "n4-open"):
        system = generate_flux(build(name), rng=rng)
        u = sample_points(system.op, 1, rng)[0]
        rep = diag_check(system, u, mode="exact")
        assert rep.diagonalizable


def test_run_diagnostics_summary():
    rng = random.Random(40)
    system = generate_flux(build("n4-open"), rng=rng)
    pts = sample_points(system.op, 3, rng)
    rep = run_diagnostics(system, pts, mode="exact")
    assert rep.n == 4
    assert rep.haantjes_zero
    assert rep.nijenhuis_routes_agree
    assert rep.charpoly_square_ok
    assert rep.all_diagonalizable
    d = rep.to_dict()
    assert d["all_diagonalizable"] is True
    assert len(d["diag"]) == 3


def test_run_diagnostics_flags_nonzero_torsion():
    rng = random.Random(41)
    system = generate_flux(build("n6-X"), rng=rng)
    pts = sample_points(system.op, 2, rng)
    rep = run_diagnostics(system, pts, mode="exact")
    assert not rep.haantjes_zero
    assert rep.nijenhuis_routes_agree
    assert rep.charpoly_square_ok
    assert rep.all_diagonalizable


def test_run_diagnostics_refuses_an_empty_point_list():
    system = generate_flux(build("n4-open"), rng=random.Random(42))
    with pytest.raises(ValueError, match="nonempty"):
        run_diagnostics(system, [])
