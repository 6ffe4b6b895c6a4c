import random
from fractions import Fraction

import pytest

from hho2.catalog import build
from hho2.diagnostics import (
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
from hho2.systems import generate_flux


N8_PARAMS = {
    "lambda1": Fraction(2),
    "lambda2": Fraction(3),
    "lambda3": Fraction(5),
    "lambda4": Fraction(7),
}


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


def test_nijenhuis_routes_agree():
    rng = random.Random(31)
    cases = [("n4-open", None), ("n6-X", None), ("n8-fam1", N8_PARAMS)]
    for name, params in cases:
        system = generate_flux(build(name, params), rng=rng)
        for u in sample_points(system.op, 2, rng):
            direct = nijenhuis(system, u)
            closed = nijenhuis_closed_form(system, u)
            assert direct == closed


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
    for name, params in (("n4-open", None), ("n6-X", None), ("n8-fam2-e1", N8_PARAMS)):
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


def test_charpoly_square_symbolic_routes():
    rng = random.Random(36)
    sys4 = generate_flux(build("n4-open"), rng=rng)
    direct = charpoly_square_symbolic(sys4, det_route="bareiss")
    factored = charpoly_square_symbolic(sys4, det_route="factored")
    assert direct.equal and factored.equal
    assert direct.route == "bareiss"
    assert factored.route == "factored"
    sys6 = generate_flux(build("n6-VIII"), rng=rng)
    rep6 = charpoly_square_symbolic(sys6)
    assert rep6.equal
    assert rep6.route == "factored"


@pytest.mark.parametrize("route", ["minor", "bariess", ""])
def test_charpoly_square_symbolic_rejects_unknown_route(route):
    system = generate_flux(build("n2"), rng=random.Random(37))
    with pytest.raises(ValueError, match=f"unknown det_route {route!r}"):
        charpoly_square_symbolic(system, det_route=route)


def test_factor_univariate_known():
    # (x - 1)^2 (x + 2)
    coeffs = [Fraction(c) for c in (2, -3, 0, 1)]
    factors = factor_univariate(coeffs)
    as_set = {(tuple(f), m) for f, m in factors}
    assert ((Fraction(-1), Fraction(1)), 2) in as_set
    assert ((Fraction(2), Fraction(1)), 1) in as_set


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
