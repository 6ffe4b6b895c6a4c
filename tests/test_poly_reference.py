"""MultiPoly against a plain reference on exponent-tuple dicts.

MultiPoly keys each monomial by one packed int.  The reference below keeps
exponent tuples in a dict and does everything the textbook way, so every
operation of the packed representation is checked against an independent
computation, in rings of 1, 6 and 12 variables (12 = n=8 plus four
parameters).
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hho2.poly import MultiPoly
from test_poly import from_text

RINGS = [
    ("x",),
    tuple(f"u{i}" for i in range(1, 7)),
    tuple(f"u{i}" for i in range(1, 9)) + tuple(f"lambda{i}" for i in range(1, 5)),
]


def deglex(exp):
    return (sum(exp), exp)


def ref_clean(terms):
    return {e: c for e, c in terms.items() if c}


def ref_add(a, b):
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + c
    return ref_clean(out)


def ref_neg(a):
    return {e: -c for e, c in a.items()}


def ref_mul(a, b):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out.get(e, 0) + ca * cb
    return ref_clean(out)


def ref_pow(a, k, nv):
    out = {(0,) * nv: Fraction(1)}
    for _ in range(k):
        out = ref_mul(out, a)
    return out


def ref_diff(a, i):
    out = {}
    for e, c in a.items():
        if e[i]:
            e2 = e[:i] + (e[i] - 1,) + e[i + 1:]
            out[e2] = out.get(e2, 0) + c * e[i]
    return ref_clean(out)


def ref_eval(a, point):
    total = Fraction(0)
    for e, c in a.items():
        term = Fraction(c)
        for v, x in zip(point, e):
            term *= Fraction(v) ** x
        total += term
    return total


def ref_exact_div(a, b):
    """Quotient by deglex-leading-term division, or None if it is not exact."""
    lead = max(b, key=deglex)
    q, r = {}, dict(a)
    while r:
        top = max(r, key=deglex)
        qe = tuple(x - y for x, y in zip(top, lead))
        if min(qe) < 0:
            return None
        qc = Fraction(r[top]) / b[lead]
        q[qe] = qc
        r = ref_add(r, ref_neg(ref_mul({qe: qc}, b)))
    return q


def ref_str(variables, a):
    """The rendering `MultiPoly.__str__` gave before it built its terms in one
    join: each coefficient through Fraction, the parts joined pairwise."""
    if not a:
        return "0"
    parts = []
    for e in sorted(a, key=deglex, reverse=True):
        body = "*".join(v if x == 1 else f"{v}^{x}" for v, x in zip(variables, e) if x)
        c = Fraction(a[e])
        if not body:
            parts.append(str(c))
        elif c == 1:
            parts.append(body)
        elif c == -1:
            parts.append("-" + body)
        else:
            parts.append(f"{c}*{body}")
    out = parts[0]
    for p in parts[1:]:
        out += " - " + p[1:] if p.startswith("-") else " + " + p
    return out


def as_ref(p):
    return dict(p.monomials())


def same(p, terms):
    """p has the reference terms, under the same packed keys as a freshly
    built MultiPoly, with every coefficient in canonical form."""
    assert as_ref(p) == terms
    assert p == MultiPoly(p.vars, terms)
    assert all(type(c) is int or Fraction(c).denominator != 1 for _, c in p.monomials())


@st.composite
def ring_and_polys(draw, count=2):
    variables = draw(st.sampled_from(RINGS))
    nv = len(variables)

    def one():
        terms = {}
        for _ in range(draw(st.integers(0, 4))):
            exp = tuple(draw(st.integers(0, 3)) if draw(st.booleans()) else 0 for _ in range(nv))
            terms[exp] = Fraction(draw(st.integers(-6, 6)), draw(st.integers(1, 3)))
        return ref_clean(terms)

    return variables, [one() for _ in range(count)]


@given(ring_and_polys())
@settings(max_examples=120, deadline=None)
def test_ring_operations_match_reference(data):
    variables, (a, b) = data
    pa, pb = MultiPoly(variables, a), MultiPoly(variables, b)
    same(pa, a)
    same(pa + pb, ref_add(a, b))
    same(pa - pb, ref_add(a, ref_neg(b)))
    same(-pa, ref_neg(a))
    same(pa * pb, ref_mul(a, b))
    same(pa * Fraction(3, 2), ref_mul(a, {(0,) * len(variables): Fraction(3, 2)}))
    same(pa ** 3, ref_pow(a, 3, len(variables)))
    for i in range(len(variables)):
        same(pa.diff(i), ref_diff(a, i))
        assert pa.degree_in(i) == max((e[i] for e in a), default=-1)
    assert pa.degree() == max((sum(e) for e in a), default=-1)
    assert str(pa) == ref_str(variables, a)
    if a:
        lead = max(a, key=deglex)
        assert pa.leading_term() == (lead, a[lead])


@given(ring_and_polys(), st.lists(st.fractions(max_denominator=5).map(lambda f: f.limit_denominator(5)),
                                  min_size=12, max_size=12))
@settings(max_examples=80, deadline=None)
def test_eval_matches_reference(data, values):
    variables, (a, b) = data
    point = values[: len(variables)]
    assert MultiPoly(variables, a).eval(point) == ref_eval(a, point)
    assert (MultiPoly(variables, a) * MultiPoly(variables, b)).eval(point) == ref_eval(ref_mul(a, b), point)


@given(ring_and_polys())
@settings(max_examples=80, deadline=None)
def test_exact_div_matches_reference(data):
    variables, (a, b) = data
    if not b:
        return
    pa, pb = MultiPoly(variables, a), MultiPoly(variables, b)
    same((pa * pb).exact_div(pb), a)
    expected = ref_exact_div(a, b)
    if expected is None:
        with pytest.raises(ValueError):
            pa.exact_div(pb)
    else:
        same(pa.exact_div(pb), ref_clean(expected))


@given(ring_and_polys(), st.integers(-12, 12).filter(bool), st.booleans())
@settings(max_examples=80, deadline=None)
def test_exact_div_by_integers_matches_reference(data, k, scale_up):
    """Integer divisors: a constant int, as a scalar and as a constant
    polynomial, and a non-monic integer polynomial, the numerators of the
    drawn polynomial times k.  Quotients are exact over Q, so they match the
    reference whether or not they are integral."""
    variables, (a, b) = data
    nv = len(variables)
    pa = MultiPoly(variables, a) * (k if scale_up else 1)
    expected = ref_mul(dict(pa.monomials()), {(0,) * nv: Fraction(1, k)})
    same(pa.exact_div(k), expected)
    same(pa.exact_div(MultiPoly.const(variables, k)), expected)
    den = math.lcm(1, *(c.denominator for c in b.values()))
    ib = {e: int(c * den) * k for e, c in b.items()}
    if not any(map(sum, ib)):
        return
    pb = MultiPoly(variables, ib)
    same((pa * pb).exact_div(pb), dict(pa.monomials()))
    quotient = ref_exact_div(dict(pa.monomials()), ib)
    if quotient is None:
        with pytest.raises(ValueError):
            pa.exact_div(pb)
    else:
        same(pa.exact_div(pb), ref_clean(quotient))


@given(ring_and_polys(count=1), st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_with_vars_matches_reference(data, rnd):
    variables, (a,) = data
    bigger = list(variables) + ["w1", "w2"]
    rnd.shuffle(bigger)
    bigger = tuple(bigger)
    pos = [bigger.index(v) for v in variables]
    expected = {}
    for e, c in a.items():
        e2 = [0] * len(bigger)
        for i, x in enumerate(e):
            e2[pos[i]] = x
        expected[tuple(e2)] = c
    moved = MultiPoly(variables, a).with_vars(bigger)
    assert moved.vars == bigger
    same(moved, expected)
    assert str(moved) == ref_str(bigger, expected)


@given(ring_and_polys(count=1), st.fractions(max_denominator=7), st.fractions(max_denominator=7))
@settings(max_examples=150, deadline=None)
def test_str_matches_the_previous_rendering_and_parses_back(data, lead, constant):
    # A leading term of either sign (degree 40 is above every drawn term),
    # fractional and negative coefficients and a constant term.
    variables, (a,) = data
    terms = ref_add(ref_add(a, {(40,) + (0,) * (len(variables) - 1): lead}), {(0,) * len(variables): constant})
    p = MultiPoly(variables, terms)
    assert str(p) == ref_str(variables, terms)
    assert from_text(variables, str(p)) == p


def test_degree_guard():
    xyz = ("x", "y", "z")
    cap = 2 ** 16
    low = MultiPoly(xyz, {(30000, 0, 0): 1})
    high = MultiPoly(xyz, {(cap - 1 - 30000, 0, 0): 2})
    assert (low * high).leading_term() == ((cap - 1, 0, 0), 2)
    with pytest.raises(ValueError):
        low * MultiPoly(xyz, {(cap - 30000, 0, 0): 1})
    # Every variable's exponent fits its field; the total degree does not.
    with pytest.raises(ValueError):
        MultiPoly(xyz, {(30000, 20000, 0): 1}) * MultiPoly(xyz, {(0, 10000, 6000): 1})
    with pytest.raises(ValueError):
        MultiPoly(xyz, {(cap, 0, 0): 1})
    with pytest.raises(ValueError):
        MultiPoly(("x",), {(cap // 2,): 1}) ** 2
