import random
import re
from fractions import Fraction

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st
from sympy.parsing.sympy_parser import convert_xor, parse_expr, standard_transformations

from hho2.poly import (
    _RATIONAL,
    MultiPoly,
    _coprime_on_a_line,
    _gcd,
    _gcd_via_sympy,
    _proof_lines,
    _restrict_to_line,
    index_entries,
    json_int,
    lowest_terms,
    poly_gcd,
    rat,
)

VARS = ("x", "y", "z")


def from_text(variables, text):
    """The polynomial `text` in the ring `variables`, read by sympy with `^`
    as the power: every ring name is a plain variable, E and I included."""
    names = {name: sympy.Symbol(name) for name in variables}
    expr = parse_expr(text, local_dict=names, transformations=standard_transformations + (convert_xor,))
    terms = sympy.Poly(expr, *names.values(), domain="QQ").as_dict()
    return MultiPoly(variables, {exp: Fraction(int(c.p), int(c.q)) for exp, c in terms.items()})


def random_poly(rng, variables=VARS, max_deg=3, terms=4, bound=6):
    out = {}
    for _ in range(terms):
        exp = tuple(rng.randint(0, max_deg) for _ in variables)
        num = rng.randint(-bound, bound)
        den = rng.randint(1, 3)
        out[exp] = out.get(exp, Fraction(0)) + Fraction(num, den)
    return MultiPoly(variables, out)


@st.composite
def polys(draw):
    n_terms = draw(st.integers(0, 4))
    terms = {}
    for _ in range(n_terms):
        exp = tuple(draw(st.integers(0, 3)) for _ in VARS)
        terms[exp] = Fraction(draw(st.integers(-8, 8)), draw(st.integers(1, 4)))
    return MultiPoly(VARS, terms)


@given(polys(), polys(), polys())
@settings(max_examples=60, deadline=None)
def test_ring_laws(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    zero = MultiPoly.zero(VARS)
    one = MultiPoly.const(VARS, 1)
    assert a + zero == a
    assert a * one == a
    assert a - a == zero


@given(polys(), polys())
@settings(max_examples=40, deadline=None)
def test_eval_is_homomorphism(a, b):
    point = (Fraction(2), Fraction(-1, 2), Fraction(3))
    assert (a + b).eval(point) == a.eval(point) + b.eval(point)
    assert (a * b).eval(point) == a.eval(point) * b.eval(point)


def test_construction_drops_zeros_and_checks_arity():
    p = MultiPoly(VARS, {(1, 0, 0): Fraction(0), (0, 1, 0): 2})
    assert list(p.monomials()) == [((0, 1, 0), 2)]
    with pytest.raises(ValueError):
        MultiPoly(VARS, {(1, 0): 1})
    with pytest.raises(ValueError):
        MultiPoly(VARS, {(-1, 0, 0): 1})


def test_diff_product_rule():
    rng = random.Random(5)
    for _ in range(25):
        a = random_poly(rng)
        b = random_poly(rng)
        for i in range(len(VARS)):
            assert (a * b).diff(i) == a.diff(i) * b + a * b.diff(i)


def test_diff_known_values():
    x = MultiPoly.variable(VARS, "x")
    y = MultiPoly.variable(VARS, "y")
    p = x * x * y + y * 3
    assert p.diff(0) == x * y * 2
    assert p.diff(1) == x * x + MultiPoly.const(VARS, 3)
    assert p.diff(2).is_zero()


def test_with_vars_extends_ring():
    x, y = MultiPoly.variable(("x", "y"), 0), MultiPoly.variable(("x", "y"), 1)
    p = x ** 2 * y - 3
    q = p.with_vars(("x", "y", "w"))
    assert q.vars == ("x", "y", "w")
    assert q.eval((2, 5, 99)) == p.eval((2, 5))


def test_parse_round_trip():
    # `str` writes what sympy reads back; E and I are variables, not constants.
    x, y, z = (MultiPoly.variable(VARS, i) for i in range(3))
    p = 2 * x ** 2 * y - z + Fraction(1, 2)
    assert p.eval((1, 1, 1)) == Fraction(2) - 1 + Fraction(1, 2)
    assert str(p) == "2*x^2*y - z + 1/2"
    assert from_text(VARS, str(p)) == p
    q = MultiPoly(("E", "I"), {(2, 0): Fraction(-3, 4), (1, 1): 1, (0, 0): 5})
    assert from_text(q.vars, str(q)) == q


def test_exact_div_and_divides():
    rng = random.Random(3)
    for _ in range(25):
        a = random_poly(rng, terms=3)
        b = random_poly(rng, terms=3)
        if b.is_zero():
            continue
        prod = a * b
        assert b.divides(prod)
        assert prod.exact_div(b) == a
    x = MultiPoly.variable(VARS, "x")
    one = MultiPoly.const(VARS, 1)
    assert not x.divides(x + one)
    with pytest.raises(ValueError):
        (x + one).exact_div(x)


def _int_coefficients(p):
    return [type(c) is int for c in p.terms.values()]


def test_exact_div_keeps_integral_quotients_in_int():
    """Integer quotients stay ints, by a polynomial, a constant polynomial or
    a scalar divisor, negative ones included; a quotient that is not
    integral is a Fraction, never floored."""
    x, y = MultiPoly.variable(VARS, "x"), MultiPoly.variable(VARS, "y")
    a = 3 * x * x - 6 * x * y + 9
    for divisor in (2 * x - 4 * y, -2 * x + 4 * y + 6, MultiPoly.const(VARS, -3), -3, Fraction(-6, 2)):
        q = (a * divisor).exact_div(divisor)
        assert q == a and all(_int_coefficients(q))
    assert a.exact_div(-3) == -x * x + 2 * x * y - 3 and all(_int_coefficients(a.exact_div(-3)))
    half = (2 * x + 1).exact_div(2)
    assert half == x + Fraction(1, 2) and _int_coefficients(half) == [True, False]
    assert (2 * x + 1).exact_div(MultiPoly.const(VARS, 2)) == half
    mixed = ((2 * x + 1) * (2 * y - 3)).exact_div(2 * y - 3)
    assert mixed == 2 * x + 1 and all(_int_coefficients(mixed))
    assert (x * x + x).exact_div(2 * x + 2) == x * Fraction(1, 2)
    with pytest.raises(ValueError, match="not exact"):
        (x * x + 1).exact_div(2 * x + 2)
    with pytest.raises(ValueError, match="not exact"):
        (3 * x * y + 5).exact_div(-2 * x)


def test_degree_and_leading_term():
    x, y, z = (MultiPoly.variable(VARS, i) for i in range(3))
    p = x * y * z ** 2 + x ** 3
    assert p.degree() == 4
    assert p.degree_in(2) == 2
    exp, coeff = p.leading_term()
    assert exp == (1, 1, 2)
    assert coeff == 1


def test_gcd_small_ring():
    x = MultiPoly.variable(("x", "y"), "x")
    y = MultiPoly.variable(("x", "y"), "y")
    one = MultiPoly.const(("x", "y"), 1)
    g = poly_gcd((x + y) * (x - y), (x + y) * (x + one))
    assert g == (x + y).monic()


def test_gcd_many_variables_uses_common_factor():
    variables = ("u1", "u2", "u3", "u4", "u5", "u6")
    u1, u2, u3, u4, u5, u6 = (MultiPoly.variable(variables, i) for i in range(6))
    f = u1 * u4 + u2 * u5 + u3 * u6 - 1
    a = u1 ** 2 * u2 - u3 + 2
    b = u5 * u6 - u4
    g = poly_gcd(f * a, f * b)
    assert g == f.monic()
    assert poly_gcd(a, b).is_constant()


def test_gcd_random_products_agree_with_construction():
    rng = random.Random(17)
    variables = ("a", "b", "c", "d")
    for _ in range(10):
        common = random_poly(rng, variables, max_deg=1, terms=2)
        if common.is_zero() or common.is_constant():
            continue
        p = random_poly(rng, variables, max_deg=1, terms=2)
        q = random_poly(rng, variables, max_deg=1, terms=2)
        g = poly_gcd(common * p, common * q)
        assert common.monic().divides(g) or poly_gcd(p, q).degree() > 0 or (common * p).is_zero() or (common * q).is_zero()


def _random_total_degree(rng, variables, degree, terms):
    out = {}
    for _ in range(terms):
        exp = [0] * len(variables)
        for _ in range(rng.randint(0, degree)):
            exp[rng.randrange(len(variables))] += 1
        out[tuple(exp)] = Fraction(rng.randint(-6, 6), rng.randint(1, 3))
    return MultiPoly(variables, out)


def test_gcd_matches_sympy_route_in_one_to_eight_variables():
    rng = random.Random(2024)
    proved = 0
    planted = set()
    for trial in range(48):
        variables = tuple(f"u{i}" for i in range(trial // 6 + 1))
        f = _random_total_degree(rng, variables, 3, 5)
        g = _random_total_degree(rng, variables, 3, 5)
        common = None
        if trial % 2:
            common = _random_total_degree(rng, variables, 2, 3)
            f, g = f * common, g * common
        if f.is_constant() or g.is_constant():
            continue
        result = poly_gcd(f, g)
        assert result == _gcd_via_sympy(f, g)
        if common is None:
            proved += _coprime_on_a_line(f, g)
        elif not common.is_constant():
            planted.add(len(variables))
            assert common.monic().divides(result)
            assert not _coprime_on_a_line(f, g)
    # Most random pairs are coprime, and the line proof settles them; every
    # ring size, the one- and two-variable rings included, gets a planted factor.
    assert proved >= 20 and planted == set(range(1, 9))


def test_line_proof_skips_lines_where_the_top_part_vanishes():
    variables = ("u1", "u2", "u3", "u4")
    a, c = next(_proof_lines(len(variables)))
    assert c[0] or c[1]
    # h's top part c1*u1 - c0*u2 vanishes on the direction of the first line
    # tried, so h is the constant 1 along that line.
    top = {(1, 0, 0, 0): c[1], (0, 1, 0, 0): -c[0]}
    h = MultiPoly(variables, {**top, (0, 0, 0, 0): 1 - c[1] * a[0] + c[0] * a[1]})
    assert _restrict_to_line(h, a, c) == [1]
    u1, u3, u4 = (MultiPoly.variable(variables, i) for i in (0, 2, 3))
    p = u3 ** 2 + u4 + 1
    q = u3 * u4 - 2 * u1 + 5
    f, g = h * p, h * q
    # Without the f_top(c) != 0 guard the first line would call f, g coprime.
    assert _gcd(_restrict_to_line(f, a, c), _restrict_to_line(g, a, c)) == [1]
    assert poly_gcd(f, g) == h.monic()


def _monomial_rule_only(monkeypatch):
    """Make poly_gcd refuse the line proof and sympy; return the sympy route."""
    from hho2 import poly

    def refused(f, g):
        raise AssertionError("a monomial pair left the monomial rule")

    oracle = poly._gcd_via_sympy
    monkeypatch.setattr(poly, "_coprime_on_a_line", refused)
    monkeypatch.setattr(poly, "_gcd_via_sympy", refused)
    return oracle


def _random_monomial(rng, variables, top=3):
    coeff = Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 4))
    return MultiPoly(variables, {tuple(rng.randint(0, top) for _ in variables): coeff})


def test_monomial_gcd_matches_sympy_route_in_one_to_eight_variables(monkeypatch):
    oracle = _monomial_rule_only(monkeypatch)
    rng = random.Random(22)
    nontrivial = set()
    for trial in range(96):
        variables = tuple(f"u{i}" for i in range(trial // 12 + 1))
        mono = _random_monomial(rng, variables)
        if trial % 3 == 0:
            other = _random_monomial(rng, variables)
        else:
            other = _random_total_degree(rng, variables, 3, 5)
            if trial % 3 == 2:
                other = other * _random_monomial(rng, variables, top=2)
        if other.is_zero():
            continue
        expected = oracle(mono, other)
        assert poly_gcd(mono, other) == expected
        assert poly_gcd(other, mono) == expected
        if not expected.is_constant():
            nontrivial.add(len(variables))
    assert nontrivial == set(range(1, 9))


def test_monomial_gcd_fixed_cases(monkeypatch):
    oracle = _monomial_rule_only(monkeypatch)
    x, y, z = (MultiPoly.variable(VARS, i) for i in range(3))
    one = MultiPoly.const(VARS, 1)
    cases = [
        # a coefficient other than +-1 on either side
        (Fraction(-7, 3) * x ** 2 * y, x ** 3 * y ** 2 + 5 * x * y * z, x * y),
        (6 * x ** 2 * y ** 3, Fraction(4, 5) * x * y ** 5 * z, x * y ** 3),
        # a constant term in the other argument leaves gcd 1
        (x ** 3 * y, x ** 2 + y + 1, one),
        (2 * z, x * y, one),
        (x ** 4, x ** 2 * y - 3 * x ** 3, x ** 2),
    ]
    for mono, other, expected in cases:
        assert oracle(mono, other) == expected
        assert poly_gcd(mono, other) == expected
        assert poly_gcd(other, mono) == expected


def _n6_viii_systems():
    from hho2.catalog import build
    from hho2.systems import generate_flux

    op = build("n6-VIII")
    for seed in (1, 3, 909):
        yield generate_flux(op, rng=random.Random(seed))
        yield generate_flux(op, rng=random.Random(seed), constants=[1, -2, 0, 3, 1, 5])


def test_monomial_gcd_on_the_n6_viii_flux(monkeypatch):
    # D = Pf g = u1*u4: the pairs (Q_k, D) that used to fall through the
    # line proof into sympy.
    oracle = _monomial_rule_only(monkeypatch)
    nontrivial = 0
    for system in _n6_viii_systems():
        assert system.d == MultiPoly.variable(system.vars, 0) * MultiPoly.variable(system.vars, 3)
        for qk in system.q:
            expected = oracle(qk, system.d)
            assert poly_gcd(qk, system.d) == expected
            assert poly_gcd(system.d, qk) == expected
            nontrivial += not expected.is_constant()
    assert nontrivial > 0


def test_lowest_terms_on_the_n6_viii_flux_is_unchanged(monkeypatch):
    from hho2 import poly

    def line_or_sympy(f, g):
        # The gcd route without the monomial rule.
        if f.is_constant() or g.is_constant() or _coprime_on_a_line(f, g):
            return MultiPoly.const(f.vars, 1)
        return _gcd_via_sympy(f, g)

    systems = list(_n6_viii_systems())
    with monkeypatch.context() as patch:
        patch.setattr(poly, "poly_gcd", line_or_sympy)
        expected = [[lowest_terms(qk, s.d) for qk in s.q] for s in systems]
    _monomial_rule_only(monkeypatch)
    got = [[lowest_terms(qk, s.d) for qk in s.q] for s in systems]
    assert got == expected
    assert any(den != s.d for pairs, s in zip(got, systems) for _, den in pairs)


def test_index_entries_accept_only_integer_indices():
    assert list(index_entries([[1, 3, "2"]], 2, 4, "A")) == [((0, 2), "2")]
    assert json_int(6, "n") == 6
    for bad in (True, 1.0, "6", None):
        with pytest.raises(ValueError, match=r"^n: "):
            json_int(bad, "n")
        with pytest.raises(ValueError, match=r"^A\[0\]: "):
            list(index_entries([[bad, 2, "1"]], 2, 4, "A"))
    for items in ([[1, 2]], [[2, 1, "1"]], [[1, 5, "1"]], [5], [[1, 2, "1"], [1, 2, "3"]]):
        with pytest.raises(ValueError, match=r"^A\[\d\]: "):
            list(index_entries(items, 2, 4, "A"))
    with pytest.raises(ValueError, match=r"^A: "):
        list(index_entries({"1": 2}, 2, 4, "A"))


def test_rat_parse():
    assert rat("3/4") == Fraction(3, 4)
    assert rat("-2") == Fraction(-2)
    assert rat(5) == Fraction(5)


@pytest.mark.parametrize("value", [0.1, 2.0, True, False])
def test_rat_rejects_floats_and_bools(value):
    with pytest.raises(ValueError, match=repr(value)):
        rat(value)


def test_eval_reads_coordinates_as_exact_rationals():
    u1, u2 = MultiPoly.variable(("u1", "u2"), 0), MultiPoly.variable(("u1", "u2"), 1)
    p = u1 * u2 + 1
    for point in ([0.5, 2], [1, 2.0], [True, 2], [1, False]):
        with pytest.raises(ValueError, match="not an exact rational"):
            p.eval(point)
    assert p.eval([3, 2]) == 7 and type(p.eval([3, 2])) is Fraction
    assert p.eval([Fraction(1, 2), 2]) == p.eval(["1/2", "2"]) == 2


@pytest.mark.parametrize("op", [
    lambda p: p + True,
    lambda p: p * True,
    lambda p: True * p,
    lambda p: p.exact_div(True),
], ids=["add", "mul", "rmul", "exact_div"])
def test_bool_scalars_are_refused(op):
    u1, u2 = MultiPoly.variable(("u1", "u2"), 0), MultiPoly.variable(("u1", "u2"), 1)
    p = u1 * u2 + 1
    with pytest.raises((TypeError, ValueError), match="True"):
        op(p)


@pytest.mark.parametrize("value", ["1/0", "-3/00", "1e4300", "1e3000000", "0.5", " 1", "1_000", "3/-4", "", "\u0661"])
def test_rat_refuses_strings_outside_the_contract(value):
    # Only [+-]digits[/digits] with a nonzero denominator; a zero denominator
    # is a ValueError too, not a ZeroDivisionError.
    with pytest.raises(ValueError, match=re.escape(repr(value))):
        rat(value)


_DIGITS = st.text("0123456789", min_size=1, max_size=40)


@given(st.one_of(
    st.from_regex(_RATIONAL, fullmatch=True),
    st.builds(lambda sign, p, q: sign + p + ("/" + q if q else ""), st.sampled_from(["", "+", "-"]), _DIGITS,
              st.none() | _DIGITS),
))
@example("+007")
@example("-0012/0034")
@example("1234567890123456789012345678901234567890/9876543210987654321098765432109876543210")
@example("1/0")
@settings(max_examples=300, deadline=None)
def test_rat_reads_every_contract_string_as_fraction_does(text):
    # Leading signs, leading zeros and 40-digit parts, read by `int` in `rat`
    # and by `Fraction`'s own parser here.
    assert _RATIONAL.fullmatch(text)
    try:
        expected = Fraction(text)
    except ZeroDivisionError:
        with pytest.raises(ValueError, match="zero denominator"):
            rat(text)
    else:
        got = rat(text)
        assert type(got) is Fraction and got == expected


def test_rat_round_trips_every_fraction_string():
    rng = random.Random(5)
    for _ in range(200):
        x = Fraction(rng.randint(-10**30, 10**30), rng.randint(1, 10**12))
        assert rat(str(x)) == x
    assert rat("+7/14") == Fraction(1, 2)


class TestLowestTerms:
    def test_reduction(self):
        x = MultiPoly.variable(("x", "y"), "x")
        y = MultiPoly.variable(("x", "y"), "y")
        assert lowest_terms(x * x - y * y, x - y) == (x + y, MultiPoly.const(("x", "y"), 1))

    def test_den_normalised_monic(self):
        x = MultiPoly.variable(("x", "y"), "x")
        y = MultiPoly.variable(("x", "y"), "y")
        num, den = lowest_terms(y, x * 2)
        assert den.leading_term()[1] == 1
        assert (num, den) == (y * Fraction(1, 2), x)

    def test_zero_numerator_and_constant_denominator_take_no_gcd(self, monkeypatch):
        from hho2 import poly

        def refused(f, g):
            raise AssertionError("poly_gcd called")

        monkeypatch.setattr(poly, "poly_gcd", refused)
        x = MultiPoly.variable(("x",), "x")
        one = MultiPoly.const(("x",), 1)
        assert lowest_terms(MultiPoly.zero(("x",)), x) == (MultiPoly.zero(("x",)), one)
        assert lowest_terms(x, MultiPoly.const(("x",), 3)) == (x * Fraction(1, 3), one)

    def test_zero_denominator_rejected(self):
        x = MultiPoly.variable(("x",), "x")
        with pytest.raises(ZeroDivisionError):
            lowest_terms(x, MultiPoly.zero(("x",)))


def test_comparison_with_scalars_and_constant_value():
    vs = ("x", "y")
    x = MultiPoly.variable(vs, 0)
    assert MultiPoly.zero(vs) == 0
    assert MultiPoly.const(vs, 3) == 3
    assert not x == 3
    with pytest.raises(ValueError, match="^not a constant: x \\+ 1$"):
        (x + 1).constant_value()
    assert 3 - x == MultiPoly.const(vs, 3) - x
    assert str(3 - x) == "-x + 3"
