import random
import re
from fractions import Fraction

import pytest

from hho2 import poly, systems
from hho2.catalog import build, list_entries
from hho2.operators import Hho2, transform
from hho2.poly import MultiPoly, lowest_terms
from hho2.systems import (
    ConservativeSystem,
    DegenerateOperatorError,
    FluxParams,
    casimir_check,
    check_compat,
    check_compat_rational,
    euler_check,
    family_parameter_count,
    generate_flux,
    hamiltonian_density,
    linearity_report,
    pluecker_relations,
    random_flux_params,
)
from hho2.diagnostics import nijenhuis, nijenhuis_closed_form, sample_points, sqrt_charpoly_at
from hho2.linalg import PolyMatrix, clear_denominators, pfaffian, pfaffian_adjugate
from hho2.threeform import LinearMapN1


def rotation_flux_n2():
    return FluxParams.make([[0, 1], [-1, 0]], [0, 0])


def _reduced(system):
    """The flux components Q_k / D in lowest terms, as (num, den) pairs."""
    return [lowest_terms(qk, system.d) for qk in system.q]


_ZERO2 = [[0, 0], [0, 0]]
_ZERO4 = [[0] * 4 for _ in range(4)]


@pytest.mark.parametrize("bad", [0.1, 2.0, True])
@pytest.mark.parametrize(
    "make",
    [
        lambda bad: MultiPoly(("x",), {(1,): bad}),
        lambda bad: MultiPoly.const(("x",), bad),
        lambda bad: FluxParams.make([[0, bad], [0, 0]], [0, 0]),
        lambda bad: FluxParams.make(_ZERO2, [bad, 0]),
        lambda bad: ConservativeSystem(build("n2"), FluxParams.make(_ZERO2, [1, 0]), [0, bad]),
        # A string of n characters or a mapping of n keys has length n too;
        # neither is a vector, and neither names a bad element.
        lambda bad: ConservativeSystem(build("n4-open"), FluxParams.make(_ZERO4, [1, 0, 0, 0]), str(bad).ljust(4)),
        lambda bad: ConservativeSystem(build("n2"), FluxParams.make(_ZERO2, [1, 0]), {0: bad, 1: bad}),
        lambda bad: generate_flux(build("n4-open"), rng=random.Random(1), constants=str(bad).ljust(4)),
        lambda bad: generate_flux(build("n2"), rng=random.Random(1), constants={0: bad, 1: bad}),
    ],
    ids=["MultiPoly", "MultiPoly.const", "FluxParams.A", "FluxParams.B", "constants",
         "constants-str", "constants-dict", "generate_flux.constants-str", "generate_flux.constants-dict"],
)
def test_library_constructors_reject_inexact_values(make, bad):
    with pytest.raises(ValueError, match=re.escape(repr(bad))):
        make(bad)


def test_flux_shape_is_checked_before_any_entry():
    # The stray third entry of A is a float: the shape refuses A before any
    # entry is read.
    with pytest.raises(ValueError, match="^A must be square of size len\\(B\\)$"):
        FluxParams.make([[0, 1, 0.5], [-1, 0]], [0, 0])


def test_n2_known_flux_vector():
    """With g0 = e1^e2 and W = (u2, -u1) the flux is the identity field."""
    system = ConservativeSystem(build("n2"), rotation_flux_n2())
    vs = system.vars
    one = MultiPoly.const(vs, 1)
    u1, u2 = MultiPoly.variable(vs, 0), MultiPoly.variable(vs, 1)
    assert _reduced(system) == [(u1, one), (u2, one)]
    assert check_compat(system).passed


def test_n2_foreign_vector_fails_first_order():
    op = build("n2")
    vs = op.vars
    one = MultiPoly.const(vs, 1)
    u1, u2 = MultiPoly.variable(vs, 0), MultiPoly.variable(vs, 1)
    v = [(u2, one), (-u1, one)]
    rep = check_compat_rational(op, v)
    assert not rep.passed
    assert rep.first_order_failures


def test_compat_symbolic_seeded_families():
    rng = random.Random(11)
    for name in ("n2", "n4-open", "n6-X", "n6-VII"):
        op = build(name)
        for _ in range(3):
            system = generate_flux(op, rng=rng)
            rep = check_compat(system, mode="symbolic")
            assert rep.passed, (name, rep.first_order_failures, rep.second_order_failures)


def test_compat_rational_route_agrees_n4():
    rng = random.Random(12)
    system = generate_flux(build("n4-open"), rng=rng)
    rep = check_compat_rational(system.op, _reduced(system))
    assert rep.passed


@pytest.mark.parametrize("name", ["n2", "n4-open"])
def test_compat_rational_distinct_denominators_match_sympy(name):
    """A compatible flux with 1/M1 added to V^1, u1/M2 to V^2 and, at n = 4,
    u2/M1 to V^3, for two distinct nonconstant M1 and M2: the failure lists
    equal those of both families evaluated by sympy.cancel on the
    quotient-rule derivatives.  The proof route leaves the second family
    unevaluated on a failure; sympy's second family fails too."""
    import sympy

    system = generate_flux(build(name), rng=random.Random(3))
    op, vs, n = system.op, system.vars, system.op.n
    u1, u2 = MultiPoly.variable(vs, 0), MultiPoly.variable(vs, 1)
    m1, m2 = u1 + 2, u2 ** 2 - 3 * u1 + 1
    fractions = _reduced(system)
    for k, (m, extra) in enumerate([(m1, 1), (m2, u1), (m1, u2)][:n]):
        num, den = fractions[k]
        fractions[k] = (num * m + den * extra, den * m)
    rep = check_compat_rational(op, fractions)

    symbols = sympy.symbols(vs)
    v = [_sympy_expr(num, symbols) / _sympy_expr(den, symbols) for num, den in fractions]
    g = [[_sympy_expr(op.metric().at(i, j), symbols) for j in range(n)] for i in range(n)]
    jac = [[sympy.diff(v[k], symbols[p]) for p in range(n)] for k in range(n)]
    first, second = [], []
    for q in range(n):
        for p in range(q, n):
            if sympy.cancel(sum(g[q][j] * jac[j][p] + g[p][j] * jac[j][q] for j in range(n))) != 0:
                first.append((q + 1, p + 1))
    t = op.t_value
    for q in range(n):
        for p in range(n):
            for l in range(p, n):
                total = sum(
                    g[q][k] * sympy.diff(jac[k][p], symbols[l])
                    + sympy.Rational(t(p, q, k)) * jac[k][l]
                    + sympy.Rational(t(q, k, l)) * jac[k][p]
                    for k in range(n)
                )
                if sympy.cancel(total) != 0:
                    second.append((q + 1, p + 1, l + 1))
    # Some identities fail, and not all of them.
    assert 0 < len(first) < n * (n + 1) // 2 and 0 < len(second) < n * n * (n + 1) // 2
    assert rep.first_order_failures == first
    assert rep.second_order_failures is None and rep.second_order_ok is None


def test_compat_pointwise_mode():
    rng = random.Random(13)
    system = generate_flux(build("n6-IX"), rng=rng)
    pts = sample_points(system.op, 6, rng)
    rep = check_compat(system, mode="points", points=pts)
    assert rep.passed
    assert rep.points_checked == 6
    # An incompatible flux: Q_1 perturbed before any derivative table is
    # built.  The points must find exactly the first-order identities the
    # proof rejects, and the second-order ones the S-table oracle rejects.
    broken = generate_flux(build("n6-IX"), rng=rng)
    u1, u2, u5 = (MultiPoly.variable(broken.vars, i) for i in (0, 1, 4))
    broken.q[0] = broken.q[0] + u1 * u2 - 3 * u5
    proof = check_compat(broken, mode="symbolic")
    rep = check_compat(broken, mode="points", points=pts)
    assert not rep.passed
    assert rep.first_order_failures == proof.first_order_failures
    assert proof.second_order_failures is None
    assert rep.second_order_failures == _compat_failures_oracle(broken)[1]
    rational = check_compat_rational(broken.op, [(qk, broken.d) for qk in broken.q])
    assert rational.first_order_failures == rep.first_order_failures
    assert rational.second_order_failures is None


def test_flux_evaluation_routes_agree():
    rng = random.Random(14)
    system = generate_flux(build("n4-open"), rng=rng)
    for u in sample_points(system.op, 4, rng):
        direct = [num.eval(u) / den.eval(u) for num, den in _reduced(system)]
        assert system.flux_at(u) == direct


def _fractional_flux(n, rng):
    """Skew A and B with fractional entries."""
    a = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            a[i][j] = Fraction(rng.randint(-5, 5), rng.randint(2, 5))
            a[j][i] = -a[i][j]
    return FluxParams.make(a, [Fraction(rng.randint(-5, 5), rng.randint(2, 7)) for _ in range(n)])


def _fractional_system(rng):
    """A system whose T, g0, A, B and constants are not integers, so that D
    is not constant and D and the Q_k have Fraction coefficients."""
    n = 4
    op = Hho2(n, {(0, 1, 2): 1, (1, 2, 3): Fraction(3, 2), (0, 3, 4): 1, (1, 2, 4): Fraction(-1, 3)})
    flux = _fractional_flux(n, rng)
    consts = [Fraction(rng.randint(-3, 3), rng.randint(2, 4)) for _ in range(n)]
    system = ConservativeSystem(op, flux, consts)
    assert not system.d.is_constant()
    assert any(isinstance(c, Fraction) for qk in system.q for c in qk.terms.values())
    return system


def _add_fractional_points(system, points, rng, count=6):
    """Extend points to count with points p/q off the locus, some q > 1."""
    while len(points) < count:
        u = tuple(Fraction(rng.randint(-9, 9), rng.randint(2, 7)) for _ in range(system.op.n))
        if any(x.denominator != 1 for x in u) and system.d.eval(u):
            points.append(u)
    return points


def _sympy_expr(poly, symbols):
    """A MultiPoly as a sympy expression in the given symbols, exactly."""
    import sympy

    return sum(
        (sympy.Rational(c.numerator, c.denominator) * sympy.Mul(*(x**k for x, k in zip(symbols, e)))
         for e, c in poly.monomials()),
        sympy.Integer(0),
    )


def test_jacobian_and_hessian_match_quotient_rule():
    # Inputs: a catalog system at integer points and at rational points p/q,
    # and the fractional-table system.  The oracle is sympy's derivative of
    # Q_k / D, evaluated at each point in exact rationals.
    import sympy

    rng = random.Random(16)
    n = 4
    catalog = generate_flux(build("n4-open"), rng=rng)
    catalog_points = sample_points(catalog.op, 3, rng)
    fractional = _fractional_system(rng)
    symbols = sympy.symbols(catalog.vars)
    for system, points in ((catalog, catalog_points), (fractional, sample_points(fractional.op, 3, rng))):
        _add_fractional_points(system, points, rng)
        d = _sympy_expr(system.d, symbols)
        v = [_sympy_expr(qk, symbols) / d for qk in system.q]
        jac_fns = [[sympy.diff(v[k], symbols[p]) for p in range(n)] for k in range(n)]
        hess_fns = [[[sympy.diff(jac_fns[k][p], symbols[l]) for l in range(n)] for p in range(n)] for k in range(n)]

        def at(expr, u):
            value = expr.subs({x: sympy.Rational(c.numerator, c.denominator) for x, c in zip(symbols, u)})
            return Fraction(int(value.p), int(value.q))

        for u in points:
            num = system._numerators(u)
            assert Fraction(num.d, num.d_scale) == system.d.eval(u)
            assert system.flux_at(u) == [at(vk, u) for vk in v]
            jac = system.jacobian_at(u)
            hess = system.hessian_at(u)
            for k in range(n):
                for p in range(n):
                    assert jac[k][p] == at(jac_fns[k][p], u)
                    for l in range(n):
                        assert hess[k][p][l] == at(hess_fns[k][p][l], u)


def _sqrt_charpoly_oracle(system, u):
    """Ascending coefficients of Pf(T V + Aeff - lam g) / D(u), in Fractions
    from the reduced flux and the symbolic metric, through `linalg.pfaffian`
    over the ring ("lam",)."""
    n, t = system.op.n, system.op.t_value
    v = [num.eval(u) / den.eval(u) for num, den in _reduced(system)]
    g = system.op.metric().eval_at(u)
    lam = MultiPoly.variable(("lam",), 0)
    rows = [
        [lam * -g[h][j] + (sum(t(h, j, i) * v[i] for i in range(n)) + system.a_eff[h][j]) for j in range(n)]
        for h in range(n)
    ]
    pf = pfaffian(PolyMatrix(rows))
    coeffs = [Fraction(0)] * (n // 2 + 1)
    for (power,), c in pf.monomials():
        coeffs[power] = c
    return [c / system.d.eval(u) for c in coeffs]


def test_pointwise_readers_on_fractional_data():
    """The pointwise compatibility check, both Nijenhuis routes and the
    Pfaffian square root, on the fractional-table system at points p/q."""
    rng = random.Random(30)
    system = _fractional_system(rng)
    points = _add_fractional_points(system, [], rng)
    rep = check_compat(system, mode="points", points=points)
    assert rep.passed and rep.points_checked == len(points)
    for u in points:
        assert nijenhuis(system, u) == nijenhuis_closed_form(system, u)
        assert sqrt_charpoly_at(system, u) == _sqrt_charpoly_oracle(system, u)
    # Q_1 perturbed by a fractional polynomial before any table is built: the
    # points find exactly the first-order identities the proof rejects, and
    # the second-order ones the S-table oracle rejects.
    broken = _fractional_system(random.Random(30))
    u1, u2, u4 = (MultiPoly.variable(broken.vars, i) for i in (0, 1, 3))
    broken.q[0] = broken.q[0] + Fraction(1, 3) * u1 * u2 - Fraction(5, 7) * u4
    proof = check_compat(broken, mode="symbolic")
    rep = check_compat(broken, mode="points", points=points)
    assert not proof.passed and proof.second_order_failures is None
    assert rep.first_order_failures == proof.first_order_failures
    assert rep.second_order_failures == _compat_failures_oracle(broken)[1]


def test_additive_constants_absorb_into_effective_parameters():
    rng = random.Random(17)
    op = build("n6-X")
    flux = random_flux_params(6, rng)
    consts = [Fraction(rng.randint(-4, 4)) for _ in range(6)]
    with_c = ConservativeSystem(op, flux, consts)
    absorbed = ConservativeSystem(op, FluxParams.make(with_c.a_eff, with_c.b_eff))
    assert [str(x) for x in _reduced(with_c)] == [str(x) for x in _reduced(absorbed)]
    for u in sample_points(op, 3, rng):
        assert with_c.jacobian_at(u) == absorbed.jacobian_at(u)


def test_constants_shift_flux_by_metric_kernel_direction():
    # c enters only through W -> W + (T u + g0) c = W + g c, so V shifts by
    # the constant vector c itself.
    rng = random.Random(18)
    op = build("n4-open")
    flux = random_flux_params(4, rng)
    consts = [Fraction(1), Fraction(-2), Fraction(0), Fraction(3)]
    plain = ConservativeSystem(op, flux)
    shifted = ConservativeSystem(op, flux, consts)
    for u in sample_points(op, 3, rng):
        v0 = plain.flux_at(u)
        v1 = shifted.flux_at(u)
        assert [v1[i] - v0[i] for i in range(4)] == consts


def test_flux_denominator_report():
    rng = random.Random(19)
    for name in ("n2", "n4-open", "n6-X", "n6-VIII"):
        system = generate_flux(build(name), rng=rng)
        rep = system.flux_denominator_report()
        assert rep["ok"]
        n = system.op.n
        for comp in rep["components"]:
            assert comp["numerator_degree"] <= n // 2
            assert comp["degree_bound"] == n // 2


def test_degenerate_operator_rejected():
    rng = random.Random(20)
    with pytest.raises(DegenerateOperatorError):
        generate_flux(build("n4-degenerate"), rng=rng)


def test_pluecker_relations_hold():
    rng = random.Random(21)
    for name in ("n2", "n4-open", "n6-X"):
        system = generate_flux(build(name), rng=rng)
        rep = pluecker_relations(system)
        assert rep.passed


def _pluecker_rows_from_the_table(system):
    """Oracle in the paper's form, from the table entries T and g0:

        (1/2) T_jkl (u^l Q_k - u^k Q_l) + g0_jk Q_k == D (Aeff_jl u^l + Beff_j)
    """
    op, n, vs = system.op, system.op.n, system.vars
    gens = [MultiPoly.variable(vs, i) for i in range(n)]
    rows = []
    for j in range(n):
        lhs = MultiPoly.zero(vs)
        for k in range(n):
            for l in range(n):
                t = op.t_value(j, k, l)
                if t:
                    lhs = lhs + (gens[l] * system.q[k] - gens[k] * system.q[l]) * (t * Fraction(1, 2))
            lhs = lhs + system.q[k] * op.t_value(j, k, n)
        rhs = MultiPoly.const(vs, system.b_eff[j])
        for l in range(n):
            rhs = rhs + gens[l] * system.a_eff[j][l]
        rows.append(lhs == rhs * system.d)
    return rows


@pytest.mark.parametrize("name", ["n2", "n4-open", "n6-VIII"])
@pytest.mark.parametrize("case", ["clean", "fractional-constants", "perturbed-q"])
def test_pluecker_relations_match_the_table_form(name, case):
    """The metric form g_jk Q_k of `pluecker_relations` agrees row by row with
    the T/g0 form, also where the relations fail."""
    rng = random.Random(24)
    n = build(name).n
    constants = [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(n)] if case == "fractional-constants" else None
    system = generate_flux(build(name), constants=constants, rng=rng)
    if case == "perturbed-q":
        system.q[1] = system.q[1] + MultiPoly.variable(system.vars, 0) * system.d
    rows = pluecker_relations(system).row_ok
    assert rows == _pluecker_rows_from_the_table(system)
    assert all(rows) == (case != "perturbed-q")


def test_euler_variational_identity():
    rng = random.Random(23)
    for name in ("n2", "n4-open"):
        system = generate_flux(build(name), rng=rng)
        rep = euler_check(system)
        assert rep.passed
        assert rep.component_ok == [r.is_zero() for r in _euler_residuals_oracle(system)]


def _total_x_derivative(f: MultiPoly, n: int) -> MultiPoly:
    """D_x f for f in the jet ring: replaces b -> b_x -> b_xx chains."""
    ring = f.vars
    out = MultiPoly.zero(ring)
    for i in range(n):
        out = out + f.diff(i) * MultiPoly.variable(ring, n + i)
        out = out + f.diff(n + i) * MultiPoly.variable(ring, 2 * n + i)
    return out


def _euler_residuals_oracle(system):
    """delta h / delta b^k - (-A_ks b^s_x - B_k) for each k, by differentiating
    `hamiltonian_density` in its jet ring: the oracle for `euler_check`,
    which reads the rows of A + A^T instead."""
    n = system.op.n
    h = hamiltonian_density(system)
    ring = h.vars
    bx = [MultiPoly.variable(ring, n + i) for i in range(n)]
    residuals = []
    for k in range(n):
        vari = h.diff(k) - _total_x_derivative(h.diff(n + k), n)
        target = MultiPoly.const(ring, -system.flux.b[k])
        for s in range(n):
            if system.flux.a[k][s]:
                target = target - bx[s] * system.flux.a[k][s]
        residuals.append(vari - target)
    return residuals


@pytest.mark.parametrize("name", ["n2", "n4-open", "n6-X"])
def test_euler_closed_form_matches_the_jet_ring_route(name):
    system = generate_flux(build(name), rng=random.Random(909))
    rep = euler_check(system)
    assert rep.component_ok == [r.is_zero() for r in _euler_residuals_oracle(system)] == [True] * system.op.n
    assert rep.passed


def test_euler_closed_form_matches_the_jet_ring_route_for_a_non_skew_a():
    """FluxParams built directly skips the skewness check of `make`: the
    residual (A_kl + A_lk) b^l_x / 2 is nonzero, diagonal included, and
    exactly the components whose row of A + A^T is nonzero fail."""
    q = Fraction
    a = [[q(3), q(1, 2), 0, q(-2)], [q(-1, 2), 0, q(4), 0], [q(1), q(-4), q(-5, 3), q(1)], [q(2), q(7), q(-1), 0]]
    flux = FluxParams(tuple(map(tuple, a)), (q(1), q(-2, 3), q(0), q(5)))
    system = ConservativeSystem(build("n4-open"), flux)
    rep = euler_check(system)
    oracle = _euler_residuals_oracle(system)
    assert rep.component_ok == [r.is_zero() for r in oracle] == [False, False, False, False]
    ring = oracle[0].vars
    assert oracle[0] == MultiPoly.variable(ring, 4) * 3 + MultiPoly.variable(ring, 6) * q(1, 2)
    assert not rep.passed
    # Only A_02 + A_20 is nonzero: components 1 and 3 still hold.
    a = [[0, q(1), q(2), 0], [q(-1), 0, 0, q(3)], [q(-1), 0, 0, 0], [0, q(-3), 0, 0]]
    system = ConservativeSystem(build("n4-open"), FluxParams(tuple(map(tuple, a)), (q(0),) * 4))
    rep = euler_check(system)
    assert rep.component_ok == [r.is_zero() for r in _euler_residuals_oracle(system)] == [False, True, False, True]


def test_euler_constants_do_not_enter():
    rng = random.Random(24)
    op = build("n4-open")
    flux = random_flux_params(4, rng)
    a = euler_check(ConservativeSystem(op, flux))
    b = euler_check(ConservativeSystem(op, flux, [Fraction(5)] * 4))
    assert a.passed and b.passed


def test_casimir_counts():
    rep = casimir_check(build("n4-open"))
    assert rep.nondegenerate and rep.corank == 0
    rep2 = casimir_check(build("n4-degenerate"))
    assert not rep2.nondegenerate
    assert rep2.metric_rank == 2 and rep2.corank == 2


def test_linearity_detection():
    rng = random.Random(25)
    lin = generate_flux(build("n6-VI"), rng=rng)
    assert linearity_report(lin).is_linear
    nonlin = generate_flux(build("n6-X"), rng=rng)
    assert not linearity_report(nonlin).is_linear
    flat = generate_flux(build("n2"), rng=rng)
    assert linearity_report(flat).is_linear


def _nondegenerate_catalog():
    """(entry id, operator) for every nondegenerate entry; the n = 8 families
    at lambda = 2, 3, 5, 7."""
    values = (2, 3, 5, 7)
    for entry in list_entries():
        if not entry.degenerate:
            yield entry.id, entry.build(dict(zip(entry.params, values)))


def test_linearity_short_circuit_agrees_with_every_component():
    seen = set()
    for name, op in _nondegenerate_catalog():
        thirds = [Fraction(k - 2, 3) for k in range(op.n)]
        for seed, constants in ((3, None), (909, None), (3, thirds), (27, thirds)):
            system = generate_flux(op, rng=random.Random(seed), constants=constants)
            got = linearity_report(system).is_linear
            assert got == all(den.is_constant() and num.degree() <= 1 for num, den in _reduced(system)), (name, seed)
            seen.add(got)
    assert seen == {True, False}


@pytest.mark.parametrize("name", ["n6-VIII", "n6-X"])
def test_linearity_stops_at_the_first_non_affine_component(monkeypatch, name):
    # Components other than `bad` are edited to V^k = u_k + k, affine over the
    # nonconstant Pfaffian; V^bad = u_bad^2 is not.  Each component read is
    # brought to lowest terms once.
    calls = []
    reduce = systems.lowest_terms

    def counted(num, den):
        calls.append(num)
        return reduce(num, den)

    monkeypatch.setattr(systems, "lowest_terms", counted)
    op = build(name)
    n = op.n
    for bad in [None, *range(n)]:
        system = generate_flux(op, rng=random.Random(5))
        d, gens = system.d, [MultiPoly.variable(system.vars, k) for k in range(n)]
        for k in range(n):
            system.q[k] = d * gens[k] * gens[k] if k == bad else d * (gens[k] + k)
        calls.clear()
        assert linearity_report(system).is_linear is (bad is None)
        assert calls == system.q[: n if bad is None else bad + 1]


def test_family_parameter_count_formula():
    assert family_parameter_count(2) == 5
    assert family_parameter_count(4) == 14
    assert family_parameter_count(6) == 27
    assert family_parameter_count(8) == 44


def test_system_json_round_trip():
    rng = random.Random(27)
    system = generate_flux(build("n6-IX"), rng=rng, constants=[Fraction(k) for k in range(6)])
    again = ConservativeSystem.from_json(system.to_json())
    assert again.op == system.op
    assert again.flux == system.flux
    assert again.constants == system.constants
    assert again.q == system.q and again.d == system.d


def test_generate_flux_reproducible():
    a = generate_flux(build("n4-open"), rng=random.Random(99))
    b = generate_flux(build("n4-open"), rng=random.Random(99))
    c = generate_flux(build("n4-open"), rng=random.Random(100))
    assert a.flux == b.flux
    assert a.flux != c.flux


def test_flux_params_validation():
    with pytest.raises(ValueError):
        FluxParams.make([[0, 1], [1, 0]], [0, 0])
    with pytest.raises(ValueError):
        FluxParams.make([[1, 0], [0, 0]], [0, 0])
    with pytest.raises(ValueError):
        FluxParams.make([[0, 1], [-1, 0]], [0, 0, 0])


def test_symbolic_operator_needs_values():
    """A family has no operator until its parameters have values, so no
    flux can be generated on it."""
    from hho2.catalog import get_entry

    with pytest.raises(ValueError, match="needs parameter values for: lambda1"):
        get_entry("n8-fam1").build()


@pytest.mark.parametrize("method", ["flux_at", "jacobian_at", "hessian_at"])
@pytest.mark.parametrize("bad", [0.1, True, "1e3"])
def test_pointwise_calls_reject_inexact_coordinates(method, bad):
    """Each coordinate of a point is read by `rat`: a float is not turned
    into the binary Fraction nearest it."""
    system = generate_flux(build("n4-open"), rng=random.Random(28))
    with pytest.raises(ValueError, match=f"{re.escape(repr(bad))} is not an exact rational"):
        getattr(system, method)((bad, Fraction(1, 5), Fraction(3, 10), 2))


def test_n8_system_build_needs_no_sympy_gcd(monkeypatch):
    calls = {"poly_gcd": 0, "sympy": 0}

    def counted(name, fn):
        def wrapper(f, g):
            calls[name] += 1
            return fn(f, g)
        return wrapper

    monkeypatch.setattr(poly, "poly_gcd", counted("poly_gcd", poly.poly_gcd))
    monkeypatch.setattr(poly, "_gcd_via_sympy", counted("sympy", poly._gcd_via_sympy))
    op = build("n8-fam1", {"lambda1": 2, "lambda2": 3, "lambda3": 5, "lambda4": 7})
    system = generate_flux(op, rng=random.Random(909))
    # Construction takes no gcd; reducing each flux fraction takes one.
    assert calls == {"poly_gcd": 0, "sympy": 0}
    v = _reduced(system)
    assert calls == {"poly_gcd": 8, "sympy": 0}
    assert all(den == system.d.monic() for _, den in v)


# The determinant-one maps with fractional entries that the CI smoke test
# applies at each n: the moved table has t_den > 1.
_CI_SL = {
    4: [[1, 0, 0, 0, 0], ["1/2", 1, 0, 0, 0], [0, "-2/3", 1, 0, 0], [0, 0, "3/4", 1, 0], ["1/3", 0, 0, "-1/2", 1]],
    6: [
        [1, 0, 0, 0, 0, 0, 0],
        ["1/2", 1, 0, 0, 0, 0, 0],
        [0, 0, 1, 0, 0, 0, 0],
        [0, "-2/3", 0, 1, 0, 0, 0],
        [0, 0, 0, 0, 1, 0, 0],
        [0, 0, "3/4", 0, 0, 1, 0],
        ["1/3", 0, 0, 0, "-1/2", 0, 1],
    ],
    8: [
        [1, 0, 0, 0, 0, 0, 0, 0, 0],
        ["1/2", 1, 0, 0, 0, 0, 0, 0, 0],
        [0, "-2/3", 1, 0, 0, 0, 0, 0, 0],
        [0, 0, "3/4", 1, 0, 0, 0, 0, 0],
        [0, 0, 0, "-4/5", 1, 0, 0, 0, 0],
        [0, 0, 0, 0, "5/6", 1, 0, 0, 0],
        [0, 0, 0, 0, 0, "-6/7", 1, 0, 0],
        [0, 0, 0, 0, 0, 0, "7/8", 1, 0],
        ["1/3", 0, 0, 0, "-1/2", 0, 0, "-8/9", 1],
    ],
}


def _ci_moved(op):
    """op moved by the CI map of its size."""
    return transform(op, LinearMapN1([[Fraction(x) for x in row] for row in _CI_SL[op.n]]))


def test_point_kernel_tensor_is_the_scaled_dense_view():
    """The operator's one integer table is t_den times `op.t_value` on
    range(n) x range(n) x range(n + 1), column n holding g0, for a table with
    fractional entries; the point record's metric is that table contracted
    with (U, q)."""
    op = _ci_moved(build("n6-X"))
    system = generate_flux(op, rng=random.Random(909))
    t_den, t = op._integer_table()
    assert t_den > 1 and op._integer_table()[1] is t
    n = op.n
    assert t == [[[t_den * op.t_value(i, j, k) for k in range(n + 1)] for j in range(n)] for i in range(n)]
    u = [Fraction(1, 3), Fraction(-2, 5), 1, Fraction(3, 2), 0, 2]
    num = system._numerators(u)
    g = op.metric()
    assert [[Fraction(x, t_den * num.q) for x in row] for row in num.g] == [
        [g.at(i, j).eval(u) for j in range(n)] for i in range(n)
    ]


_N8_PARAMS = {
    "n8-fam1": {"lambda1": 2, "lambda2": 3, "lambda3": 5, "lambda4": 7},
    "n8-fam2-e1": {"lambda1": 2, "lambda2": 3, "lambda3": 5},
    "n8-fam2-e2": {"lambda1": 2, "lambda2": 3, "lambda3": 5},
}


def _record_oracle(system, u, c):
    """(d, qv, r, s) of the point record of u, from R_kp = Q_{k,p} D - Q_k D_p
    and S_kpl = R_{kp,l} D - 2 R_kp D_l, with D, the Q_k and their partials
    taken by `diff` and `eval` of system.d and system.q in their own Fraction
    coefficients, and R_{kp,l} by the product rule at u.  (R and S built as
    polynomials take about a minute at n = 8; the symbolic quotient rule is
    checked at n = 4 by `test_jacobian_and_hessian_match_quotient_rule`.)
    Every polynomial the record evaluates is c times its value at u, c the
    record's d_scale, so d and qv carry c, r c^2 and s c^3."""
    n = system.op.n

    def partials(f):
        f1 = [f.diff(p) for p in range(n)]
        return f.eval(u), [x.eval(u) for x in f1], [[x.diff(l).eval(u) for l in range(n)] for x in f1]

    d0, d1, d2 = partials(system.d)
    qv, r, s = [], [], []
    for qk in system.q:
        q0, q1, q2 = partials(qk)
        rk = [q1[p] * d0 - q0 * d1[p] for p in range(n)]
        rk1 = [[q2[p][l] * d0 + q1[p] * d1[l] - q1[l] * d1[p] - q0 * d2[p][l] for l in range(n)] for p in range(n)]
        qv.append(c * q0)
        r.append([c**2 * x for x in rk])
        s.append([[c**3 * (rk1[p][l] * d0 - 2 * rk[p] * d1[l]) for l in range(n)] for p in range(n)])
    return c * d0, qv, r, s


@pytest.mark.parametrize("name", ["n8-fam1", "n8-fam2-e1", "n8-fam2-e2", "n6-X-moved", "n8-fam1-moved"])
def test_point_record_matches_the_quotient_rule_at_n6_and_n8(name):
    """The point kernel's integer record equals R and S built from the
    numerators by `diff` and `eval`, at an integer point and at a point p/q,
    on the n = 8 catalog systems and on n6-X and n8-fam1 moved by fixed
    determinant-one maps, whose D and Q_k have Fraction coefficients."""
    entry, moved = name.removesuffix("-moved"), name.endswith("-moved")
    op = build(entry, _N8_PARAMS.get(entry, {}))
    if moved:
        op = transform(op, LinearMapN1.random_sl(op.n + 1, random.Random(4)))
    system = generate_flux(op, rng=random.Random(909))
    kernel = system._kernel()
    assert (kernel.scale > 1) == moved
    assert moved == any(isinstance(c, Fraction) for f in (system.d, *system.q) for c in f.terms.values())
    rng = random.Random(39)
    points = _add_fractional_points(system, sample_points(op, 1, rng), rng, count=2)
    for u in points:
        num = system._numerators(u)
        assert (num.d, num.qv, num.r, num.s) == _record_oracle(system, u, num.d_scale)


def test_point_kernel_unpacks_each_monomial_once(monkeypatch):
    """The kernel keys its monomial table by packed key and unpacks each
    distinct monomial once; it never lists a polynomial's exponent tuples."""
    system = generate_flux(build("n8-fam1", _N8_PARAMS["n8-fam1"]), rng=random.Random(909))
    unpacks, listings = [], []
    unpack = poly._unpack
    counting = lambda key, nv: unpacks.append(key) or unpack(key, nv)
    monkeypatch.setattr(poly, "_unpack", counting)
    monkeypatch.setattr(systems, "_unpack", counting)
    monkeypatch.setattr(MultiPoly, "monomials", lambda self: listings.append(self) or iter(()))
    kernel = systems._PointKernel(system)
    assert len(unpacks) == len(kernel.monomials) == len(set(unpacks))
    assert listings == []


def test_casimir_rank_of_a_moved_metric_needs_no_elimination(monkeypatch):
    """Full rank at the fixed rational point proves full rank: the dense
    linear metric of a moved operator is not eliminated over Q[u]."""
    calls = []
    exact_div = MultiPoly.exact_div
    monkeypatch.setattr(MultiPoly, "exact_div", lambda self, divisor: calls.append(1) or exact_div(self, divisor))
    rep = casimir_check(_ci_moved(build("n6-X")))
    assert rep.metric_rank == 6 and rep.corank == 0 and rep.nondegenerate
    assert calls == []


def _jacobian_numerators(system):
    """R[k][p] = Q_{k,p} D - Q_k D_p, the numerator of dV^k/du^p over D^2,
    from the numerators as they are now."""
    n, d, q = system.op.n, system.d, system.q
    return [[q[k].diff(p) * d - q[k] * d.diff(p) for p in range(n)] for k in range(n)]


def _eigenvalue_pencil(system):
    """(C, Dm) from the numerators as they are now: C[h][j] = T_hji Q_i +
    D Aeff_hj, the lam-free part of the pencil, and Dm = C - lam D g over
    (u, lam), whose Pfaffian over D^(n/2 + 1) is the square root of the
    characteristic polynomial of the flux Jacobian.  Every entry is built on
    its own, so `pfaffian(Dm)` also checks that C is skew."""
    n, d, t = system.op.n, system.d, system.op.t_value
    c = [
        [sum((system.q[i] * t(h, j, i) for i in range(n)), d * system.a_eff[h][j]) for j in range(n)]
        for h in range(n)
    ]
    rvars = system.vars + ("lam",)
    lam_d = MultiPoly.variable(rvars, "lam") * d.with_vars(rvars)
    g = system.op.metric()
    rows = [[c[h][j].with_vars(rvars) - lam_d * g.at(h, j).with_vars(rvars) for j in range(n)] for h in range(n)]
    return c, PolyMatrix(rows)


def _compat_failures_oracle(system):
    """Both identity families as the systems module docstring states them,
    with the S table of second derivatives, in the flux's own coefficients:
    (first-order failures, second-order failures)."""
    n, vs = system.op.n, system.vars
    g, t = system.op.metric(), system.op.t_value
    d = system.d
    d1 = [d.diff(p) for p in range(n)]
    r = _jacobian_numerators(system)
    first = [
        (a + 1, b + 1)
        for a in range(n)
        for b in range(a, n)
        if poly._sum_of_products(vs, [pair for j in range(n) for pair in ((g.at(a, j), r[j][b]), (g.at(b, j), r[j][a]))])
    ]
    s = [[[r[k][p].diff(l) * d - r[k][p] * d1[l] * 2 for l in range(n)] for p in range(n)] for k in range(n)]
    second = []
    for a in range(n):
        for p in range(n):
            for l in range(p, n):
                pairs = [(g.at(a, k), s[k][p][l]) for k in range(n)]
                pairs += [(d * r[k][l], t(p, a, k)) for k in range(n)] + [(d * r[k][p], t(a, k, l)) for k in range(n)]
                if poly._sum_of_products(vs, pairs):
                    second.append((a + 1, p + 1, l + 1))
    return first, second


_EDITS = ["clean", "u1-in-v2", "integer-quadratic-q1", "fractional-quadratic-qlast", "v-plus-c", "b-shift"]
# Edits that give the flux of another system of the same operator: V + c, and
# B + kappa, whose numerators gain padj(g) kappa.  Both stay compatible, but
# the residual P reads the unedited Aeff and Beff, so it is nonzero.
_COMPATIBLE_EDITS = ("clean", "v-plus-c", "b-shift")


def _edit_flux(system, case):
    """The system with its numerators Q_k edited after construction, by one
    of `_EDITS`."""
    n, vs, q = system.op.n, system.vars, system.q
    u1, u2, un = MultiPoly.variable(vs, 0), MultiPoly.variable(vs, 1), MultiPoly.variable(vs, n - 1)
    if case == "u1-in-v2":
        q[1] = q[1] + u1 * system.d
    elif case == "integer-quadratic-q1":
        q[0] = q[0] + u1 * un - 3 * u2 + 2
    elif case == "fractional-quadratic-qlast":
        q[-1] = q[-1] + Fraction(1, 3) * u1 * u2 - Fraction(5, 7) * un * un
    elif case == "v-plus-c":
        for k in range(n):
            q[k] = q[k] + system.d * Fraction(2 * k - 3, 2)
    elif case == "b-shift":
        cadj, _ = pfaffian_adjugate(system.op.metric())
        for k in range(n):
            q[k] = q[k] + sum((cadj.at(k, j) * Fraction(j + 1, 3) for j in range(n)), MultiPoly.zero(vs))
    return system


@pytest.mark.parametrize(
    "name, seed", [(name, seed) for name in ("n2", "n4-open", "n6-IX", "n6-VIII") for seed in (3, 909)]
    + [("n4-open-moved", 909)],
)
@pytest.mark.parametrize("case", _EDITS)
def test_compat_proof_matches_the_s_table_oracle(name, seed, case):
    """The proof rejects exactly the first-order identities that the stated
    S-table families reject, clean and with edited numerators, and leaves the
    second family unevaluated on a failure; the compatible edits pass with
    P != 0.  The pointwise route finds both of the oracle's lists, and the
    oracle's second family holds wherever its first does."""
    op = _ci_moved(build("n4-open")) if name == "n4-open-moved" else build(name)
    system = _edit_flux(generate_flux(op, rng=random.Random(seed)), case)
    first, second = _compat_failures_oracle(system)
    assert first or not second
    points = check_compat(system, mode="points", points=sample_points(op, 3, random.Random(5)))
    assert (points.first_order_failures, points.second_order_failures) == (first, second)
    rep = check_compat(system, mode="symbolic")
    assert rep.first_order_failures == first
    assert rep.second_order_failures == ([] if rep.passed else None)
    rational = check_compat_rational(system.op, [(qk, system.d) for qk in system.q])
    assert (rational.first_order_failures, rational.second_order_failures) == (first, rep.second_order_failures)
    assert rep.passed == (case in _COMPATIBLE_EDITS)
    assert pluecker_relations(system).passed == (case == "clean")


@pytest.mark.parametrize(
    "name, params",
    [("n8-fam2-e2", {"lambda1": 2, "lambda2": 3, "lambda3": 5}),
     ("n8-fam1", {"lambda1": 2, "lambda2": 3, "lambda3": 5, "lambda4": 7})],
    ids=["n8-fam2-e2", "n8-fam1"],
)
@pytest.mark.parametrize("case", _EDITS)
def test_n8_compat_proof_matches_the_pointwise_route(name, params, case):
    """At n = 8 the proof that `sys verify` runs rejects exactly the
    first-order identities that the independent pointwise route rejects at
    sampled points, clean and with edited numerators; the pointwise route's
    two failure lists are those of the quotient-rule oracle at the same
    points."""
    op = build(name, params)
    system = _edit_flux(generate_flux(op, rng=random.Random(909)), case)
    points = sample_points(op, 3, random.Random(5))
    proof = check_compat(system, mode="symbolic")
    rep = check_compat(system, mode="points", points=points)
    assert rep.points_checked == len(points)
    assert rep.first_order_failures == proof.first_order_failures
    assert proof.second_order_failures == ([] if proof.passed else None)
    assert rep.passed == proof.passed == (case in _COMPATIBLE_EDITS)
    assert (rep.first_order_failures, rep.second_order_failures) == _pointwise_families_oracle(system, points)
    assert bool(rep.second_order_failures) == (not proof.passed)


def _pointwise_families_oracle(system, points):
    """Both identity families at the points, in Fractions: dV and d^2V by the
    quotient rule on V^k = Q_k / D from `MultiPoly.diff` and `eval`, the
    metric and T through `t_value`; no point record is read.  Returns the
    (first-order, second-order) failure lists, as the pointwise route
    numbers them."""
    n, t, d = system.op.n, system.op.t_value, system.d
    pairs = [(p, l) for p in range(n) for l in range(p, n)]
    d1 = [d.diff(p) for p in range(n)]
    d2 = {(p, l): d1[p].diff(l) for p, l in pairs}
    q1 = [[qk.diff(p) for p in range(n)] for qk in system.q]
    q2 = [{(p, l): q1[k][p].diff(l) for p, l in pairs} for k in range(n)]
    first, second = set(), set()
    for u in points:
        dv, dv1 = d.eval(u), [x.eval(u) for x in d1]
        g = [[sum(t(a, b, k) * u[k] for k in range(n)) + t(a, b, n) for b in range(n)] for a in range(n)]
        jac, hess = [], []
        for k in range(n):
            qv, qv1 = system.q[k].eval(u), [x.eval(u) for x in q1[k]]
            jac.append([(qv1[p] * dv - qv * dv1[p]) / dv**2 for p in range(n)])
            # d_l of R_kp / D^2 with R_kp = Q_k,p D - Q_k D_p.
            hess.append({
                (p, l): (q2[k][p, l].eval(u) * dv + qv1[p] * dv1[l] - qv1[l] * dv1[p] - qv * d2[p, l].eval(u)) / dv**2
                - 2 * jac[k][p] * dv1[l] / dv
                for p, l in pairs
            })
        for a in range(n):
            for b in range(a, n):
                if sum(g[a][j] * jac[j][b] + g[b][j] * jac[j][a] for j in range(n)):
                    first.add((a + 1, b + 1))
            for p, l in pairs:
                if sum(g[a][k] * hess[k][p, l] + t(p, a, k) * jac[k][l] + t(a, k, l) * jac[k][p] for k in range(n)):
                    second.add((a + 1, p + 1, l + 1))
    return sorted(first), sorted(second)


_N8_FAM1 = {"lambda1": 2, "lambda2": 3, "lambda3": 5, "lambda4": 7}


@pytest.mark.parametrize(
    "name, moved",
    [("n2", False)] + [(name, moved) for name in ("n4-open", "n6-IX", "n6-X", "n8-fam1") for moved in (False, True)],
)
@pytest.mark.parametrize("case", _COMPATIBLE_EDITS)
def test_compat_witness_recovers_the_affine_data(name, moved, case):
    """A passing proof returns (A, B) with g V = A u + B: the system's own
    (Aeff, Beff) for the clean flux, Aeff and Beff shifted by the table
    contracted with c for V + c, and B + kappa for the b-shift.  Both proof
    routes recover it, and the system rebuilt from it with zero constants
    has the edited numerators exactly.  n2 is not moved (`_oracle_cases`)."""
    op = build(name, _N8_FAM1) if name == "n8-fam1" else build(name)
    op = _ci_moved(op) if moved else op
    n = op.n
    flux = random_flux_params(n, random.Random(909))
    if case == "v-plus-c":
        shifted = ConservativeSystem(op, flux, [Fraction(2 * k - 3, 2) for k in range(n)])
        expected = (shifted.a_eff, shifted.b_eff)
    else:
        kappa = [Fraction(j + 1, 3) if case == "b-shift" else 0 for j in range(n)]
        expected = (flux.a, tuple(b + k for b, k in zip(flux.b, kappa)))
    system = _edit_flux(ConservativeSystem(op, flux), case)
    rep = check_compat(system, mode="symbolic")
    rational = check_compat_rational(op, [(qk, system.d) for qk in system.q])
    assert rep.passed and rational.passed
    assert rep.witness == rational.witness == expected
    assert ConservativeSystem(op, FluxParams.make(*rep.witness)).q == system.q


@pytest.mark.parametrize("case", ["clean", "b-shift", "u1-in-v2"])
def test_compat_proofs_on_the_moved_n8_table(case):
    """On n8-fam1 moved by the CI map, where the second family of the old
    proof routes took about a minute, both proof routes give the pointwise
    route's verdict and first-order failure list at three points."""
    op = _ci_moved(build("n8-fam1", _N8_FAM1))
    system = _edit_flux(generate_flux(op, rng=random.Random(909)), case)
    points = check_compat(system, mode="points", points=sample_points(op, 3, random.Random(5)))
    assert points.passed == (case != "u1-in-v2")
    for rep in (check_compat(system), check_compat_rational(op, [(qk, system.d) for qk in system.q])):
        assert rep.passed == points.passed
        assert rep.first_order_failures == points.first_order_failures
        assert rep.second_order_failures == ([] if rep.passed else None)


@pytest.mark.parametrize("name", ["n2", "n4-open", "n6-X", "n8-fam1-moved"])
@pytest.mark.parametrize("case", _EDITS)
def test_failing_certificate_reads_the_first_family_off_the_quotients(monkeypatch, name, case):
    """Where D divides every residual row, the certificate lists the first
    family from the quotients w, as E + E^T = d^2 (dw + dw^T), and builds no
    E table; the list is the one read off the E table of the residual.  n8-fam1
    is moved by the CI map."""
    op = _ci_moved(build("n8-fam1", _N8_FAM1)) if name == "n8-fam1-moved" else build(name)
    system = _edit_flux(generate_flux(op, rng=random.Random(909)), case)
    n, (d, res) = op.n, system._pluecker_residuals()
    e = systems._residual_table(op.vars, d, res)
    expected = [(q + 1, p + 1) for q in range(n) for p in range(q, n) if e[q][p] + e[p][q]]
    calls = []
    residual_table = systems._residual_table
    monkeypatch.setattr(systems, "_residual_table", lambda *args: calls.append(1) or residual_table(*args))
    rep = check_compat(system)
    assert rep.first_order_failures == expected
    assert rep.passed == (case in _COMPATIBLE_EDITS)
    assert bool(calls) == (systems._residual_quotients(d, res) is None)


@pytest.mark.parametrize("name", ["n4-open", "n6-VIII", "n6-X"])
@pytest.mark.parametrize("case", _EDITS)
def test_pluecker_residual_lemma(name, case):
    """For any numerators Q, F - D C = E with E_qp = D dP_q/du^p - D_p P_q;
    P is read from its definition, and the helpers' integer P and E are P and
    E times positive integers.  Where D divides P, E is D^2 times the
    gradient of the quotient, which the certificate reads."""
    system = _edit_flux(generate_flux(build(name), rng=random.Random(909)), case)
    n, vs, d = system.op.n, system.vars, system.d
    g = system.op.metric()
    u = [MultiPoly.variable(vs, l) for l in range(n)]
    p = [
        poly._sum_of_products(vs, [(g.at(a, k), system.q[k]) for k in range(n)])
        - d * poly._sum_of_products(vs, [(u[l], system.a_eff[a][l]) for l in range(n)])
        - d * system.b_eff[a]
        for a in range(n)
    ]
    scale, t_den = systems._denominator_lcm((system.d, *system.q)), system.op._integer_table()[0]
    a_den, _ = clear_denominators([*system.a_eff, system.b_eff])
    assert system._pluecker_residuals() == (d * scale, [x * (a_den * t_den * scale) for x in p])
    assert any(p) == (case != "clean")
    d1 = [d.diff(l) for l in range(n)]
    r, c = _jacobian_numerators(system), _eigenvalue_pencil(system)[0]
    f = [[poly._sum_of_products(vs, [(g.at(a, k), r[k][b]) for k in range(n)]) for b in range(n)] for a in range(n)]
    e = [[d * p[a].diff(b) - d1[b] * p[a] for b in range(n)] for a in range(n)]
    e_scale = a_den * t_den * scale * scale
    assert systems._residual_table(vs, *system._pluecker_residuals()) == [[x * e_scale for x in row] for row in e]
    quotients = systems._residual_quotients(d, p)
    assert (quotients is None) == any(not d.divides(x) for x in p)
    for a in range(n):
        for b in range(n):
            assert f[a][b] - d * c[a][b] == e[a][b]
            if quotients is not None:
                assert e[a][b] == d * d * quotients[a].diff(b)


def test_compat_proof_on_a_moved_table_runs_on_integers(monkeypatch):
    """On the fractional table of a moved n6-X the proof multiplies integer
    polynomials only, and still rejects a perturbed flux."""
    seen = []
    sum_of_products = systems._sum_of_products

    def recorded(variables, pairs):
        pairs = list(pairs)
        for a, b in pairs:
            seen.extend(a.terms.values())
            seen.extend(b.terms.values() if isinstance(b, MultiPoly) else [b])
        return sum_of_products(variables, pairs)

    op = _ci_moved(build("n6-X"))
    system = generate_flux(op, rng=random.Random(909))
    broken = generate_flux(op, rng=random.Random(909))
    u1, u2, u5 = (MultiPoly.variable(broken.vars, i) for i in (0, 1, 4))
    broken.q[0] = broken.q[0] + u1 * u2 - 3 * u5
    assert any(type(c) is Fraction for p in (system.d, *system.q) for c in p.terms.values())
    monkeypatch.setattr(systems, "_sum_of_products", recorded)
    assert check_compat(system, mode="symbolic").passed
    assert seen and all(type(c) is int for c in seen)
    assert not check_compat(broken, mode="symbolic").passed



@pytest.mark.parametrize("case", _EDITS)
def test_rational_route_on_a_moved_table_runs_on_integers(monkeypatch, case):
    """On the fractional table of a moved n6-X, `check_compat_rational`
    builds its residual with the integer builder of the symbolic proof: the
    residual it hands to the certificate has int coefficients only, and its
    report is the proof's, clean and with edited numerators."""
    seen = []
    certificate = systems._killing_certificate

    def recorded(mode, op, d, res, affine):
        seen.extend(c for p in (d, *res) for c in p.terms.values())
        return certificate(mode, op, d, res, affine)

    system = _edit_flux(generate_flux(_ci_moved(build("n6-X")), rng=random.Random(909)), case)
    proof = check_compat(system, mode="symbolic")
    monkeypatch.setattr(systems, "_killing_certificate", recorded)
    rational = check_compat_rational(system.op, [(qk, system.d) for qk in system.q])
    assert seen and all(type(c) is int for c in seen)
    assert rational.passed == proof.passed == (case in _COMPATIBLE_EDITS)
    assert rational.first_order_failures == proof.first_order_failures
    assert rational.second_order_failures == proof.second_order_failures


# ----- the chained sums that construction replaced, kept as oracles ------------


def _chained_metric(op):
    """g_ij = T_ijk u^k + g0_ij, one term added at a time, each table value
    lifted to a constant polynomial first."""
    vs, n = op.vars, op.n
    zero = MultiPoly.zero(vs)
    rows = [[zero for _ in range(n)] for _ in range(n)]
    coords = [MultiPoly.variable(vs, k) for k in range(n)] + [MultiPoly.const(vs, 1)]
    for i in range(n):
        for j in range(i + 1, n):
            entry = zero
            for tv, coord in zip((op.t_value(i, j, k) for k in range(n + 1)), coords):
                if tv:
                    lifted = tv.with_vars(vs) if isinstance(tv, MultiPoly) else MultiPoly.const(vs, tv)
                    entry = entry + lifted * coord
            rows[i][j], rows[j][i] = entry, -entry
    return PolyMatrix(rows)


def _chained_construction(op, flux, constants):
    """(w, Q, Aeff, Beff) summed one term at a time from the adjugate of the
    metric: w_j = A_j u + B_j, Q_k = sum_j P_kj w_j + c_k D and the affine
    data shifted by the table contracted with c, constants zero or not."""
    n, vs = op.n, op.vars
    d = op.pfaffian_poly()
    cadj, _ = pfaffian_adjugate(op.metric())
    w = []
    for j in range(n):
        expr = MultiPoly.const(vs, flux.b[j])
        for l in range(n):
            if flux.a[j][l]:
                expr = expr + MultiPoly.variable(vs, l) * flux.a[j][l]
        w.append(expr)
    q = []
    for k in range(n):
        acc = MultiPoly.zero(vs)
        for j in range(n):
            if not cadj.at(k, j).is_zero() and not w[j].is_zero():
                acc = acc + cadj.at(k, j) * w[j]
        if constants[k]:
            acc = acc + d * constants[k]
        q.append(acc)
    t = op.t_value
    shift = [[sum((t(h, i, j) * constants[i] for i in range(n) if constants[i]), Fraction(0)) for j in range(n + 1)]
             for h in range(n)]
    a_eff = tuple(tuple(flux.a[h][j] + shift[h][j] for j in range(n)) for h in range(n))
    b_eff = tuple(flux.b[h] + shift[h][n] for h in range(n))
    return w, q, a_eff, b_eff


def _chained_residuals(system):
    """(d, P) as `_pluecker_residuals` defines them, with every metric entry
    scaled by a_den t_den and the D (Aeff u + Beff) term summed over
    D u^l."""
    n, vs = system.op.n, system.vars
    scale, t_den = systems._denominator_lcm((system.d, *system.q)), system.op._integer_table()[0]
    a_den, rows = clear_denominators([*system.a_eff, system.b_eff])
    metric = system.op.metric()
    q = [x * scale for x in system.q]
    d = system.d * scale
    du = [d * MultiPoly.variable(vs, l) for l in range(n)]
    out = []
    for h in range(n):
        pairs = [(metric.at(h, k) * (a_den * t_den), q[k]) for k in range(n)]
        pairs += [(du[l], -t_den * rows[h][l]) for l in range(n)]
        pairs.append((d, -t_den * rows[n][h]))
        out.append(poly._sum_of_products(vs, pairs))
    return d, out


def _oracle_cases():
    """Every nondegenerate catalog entry as catalogued and moved by the CI map
    of its size.  n2 is not moved: an SL(3) map fixes the only 3-form on
    three coordinates, so its table stays integral."""
    for name, op in _nondegenerate_catalog():
        yield name, op
        if op.n > 2:
            yield f"{name}-moved", _ci_moved(op)


_ORACLE_CASES = dict(_oracle_cases())


@pytest.mark.parametrize("constants", ["none", "fractional"])
@pytest.mark.parametrize("name", list(_ORACLE_CASES))
def test_one_pass_construction_matches_the_chained_sums(name, constants):
    """The metric, w, Q, Aeff, Beff and the residual P, each summed in one
    accumulator, equal the chained sums term for term, on integral and
    fractional tables, with no constants and with fractional ones."""
    op = _ORACLE_CASES[name]
    n, vs = op.n, op.vars
    if name.endswith("-moved"):
        assert op._integer_table()[0] > 1
    flux = _fractional_flux(n, random.Random(909))
    consts = [Fraction((-1) ** k * (k + 1), k + 2) if k % 3 != 1 else Fraction(0) for k in range(n)]
    consts = consts if constants == "fractional" else [Fraction(0)] * n
    system = ConservativeSystem(op, flux, consts)
    assert op.metric() == _chained_metric(op)
    w, q, a_eff, b_eff = _chained_construction(op, flux, consts)
    assert [poly._linear(vs, (*flux.a[j], flux.b[j])) for j in range(n)] == w
    assert (system.q, system.a_eff, system.b_eff) == (q, a_eff, b_eff)
    assert system._pluecker_residuals() == _chained_residuals(system)
    assert not any(system._pluecker_residuals()[1])


# ----- one checked Pfaffian expansion per metric --------------------------------


@pytest.mark.parametrize("name", ["n6-VIII", "n6-X-moved"])
def test_one_build_from_json_checks_and_expands_the_metric_once(monkeypatch, name):
    """A system read from its document takes D from `pfaffian` and the
    adjugate from `pfaffian_adjugate` on the operator's one metric: the metric
    is checked for skewness once and expanded once, on an integral table and
    on the fractional table of a moved one."""
    from hho2 import linalg

    op = _ORACLE_CASES[name]
    text = generate_flux(op, rng=random.Random(909)).to_json()
    skew_checks, expansions = [], []
    is_skew, expansion = PolyMatrix.is_skew, linalg._pfaffian_expansion
    monkeypatch.setattr(PolyMatrix, "is_skew", lambda self: skew_checks.append(1) or is_skew(self))
    monkeypatch.setattr(linalg, "_pfaffian_expansion", lambda *args: expansions.append(1) or expansion(*args))
    system = ConservativeSystem.from_json(text)
    assert (len(skew_checks), len(expansions)) == (1, 1)
    assert system.d == pfaffian(PolyMatrix(system.op.metric().entries))
    assert (system.op._integer_table()[0] > 1) == name.endswith("-moved")


@pytest.mark.parametrize("name", ["n6-VIII", "n6-X-moved"])
def test_residuals_read_the_cached_integer_metric(monkeypatch, name):
    """The residual builder reads the operator's integer metric forms, built
    once per operator, and builds only the n affine rows itself; the forms
    hold ints at every L, and over L they are the metric."""
    op = _ORACLE_CASES[name]
    system = generate_flux(op, rng=random.Random(909))
    forms = op._integer_metric()
    assert forms is op._integer_metric()
    assert all(type(c) is int for row in forms for p in row for c in p.terms.values())
    big_l = op._integer_table()[0]
    assert op.metric() == PolyMatrix([[p * Fraction(1, big_l) for p in row] for row in forms])
    built = []
    linear = systems._linear
    monkeypatch.setattr(systems, "_linear", lambda *args: built.append(1) or linear(*args))
    assert check_compat(system, mode="symbolic").passed
    assert len(built) == op.n


def test_compat_summary_lines():
    """One line per report: both modes, passing and failing.  A failing proof
    leaves the second family unevaluated, so its line names the first only."""
    system = ConservativeSystem(build("n2"), rotation_flux_n2())
    points = sample_points(system.op, 3, random.Random(1))
    assert check_compat(system).summary() == "compatible (symbolic): both identity families hold"
    assert check_compat(system, mode="points", points=points).summary() == (
        "compatible (points at 3 points): both identity families hold")
    broken = ConservativeSystem(build("n2"), rotation_flux_n2())
    broken.q[0] = broken.q[0] + MultiPoly.variable(broken.vars, 0) ** 2
    proof = check_compat(broken)
    assert proof.second_order_failures is None
    assert proof.summary() == "NOT compatible (symbolic): 1 first-order identities fail"
    assert check_compat(broken, mode="points", points=points).summary() == (
        "NOT compatible (points at 3 points): 1 first-order and 1 second-order identities fail")


def test_compat_refusals():
    system = ConservativeSystem(build("n2"), rotation_flux_n2())
    with pytest.raises(ValueError, match="^unknown mode 'bogus'; use 'symbolic' or 'points'$"):
        check_compat(system, mode="bogus")
    with pytest.raises(ValueError, match="^mode 'points' needs a nonempty list of sample points$"):
        check_compat(system, mode="points")
    with pytest.raises(ValueError, match="^flux vector must have n components$"):
        check_compat_rational(system.op, [(system.q[0], system.d)])
    with pytest.raises(ZeroDivisionError, match="^zero denominator$"):
        check_compat_rational(system.op, [(system.q[0], system.d), (system.q[1], MultiPoly.zero(system.vars))])
