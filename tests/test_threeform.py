import hashlib
import itertools
import math
import random
from fractions import Fraction

import pytest

from hho2.linalg import clear_denominators, rat_det, rat_inverse, rat_mat_mul
from hho2.operators import Hho2
from hho2.threeform import (
    LinearMapN1,
    ThreeForm,
    chart_restrict,
    embed,
    pullback,
    skew_dense,
)


def rand_form(rng, dim, entries=4, bound=5):
    coeffs = {}
    for _ in range(entries):
        idx = tuple(sorted(rng.sample(range(dim), 3)))
        coeffs[idx] = Fraction(rng.randint(-bound, bound))
    return ThreeForm(dim, {k: v for k, v in coeffs.items() if v})


def perm_sign(perm):
    sign = 1
    p = list(perm)
    for i in range(len(p)):
        for j in range(i + 1, len(p)):
            if p[i] > p[j]:
                sign = -sign
    return sign


def full_coeff(form, i, j, k):
    """Value of the fully skew coefficient array at an arbitrary index triple."""
    if len({i, j, k}) < 3:
        return Fraction(0)
    base = tuple(sorted((i, j, k)))
    value = form.coeffs.get(base, Fraction(0))
    order = {v: n for n, v in enumerate(base)}
    return perm_sign((order[i], order[j], order[k])) * value


def pullback_oracle(form, a):
    """Direct triple-sum transformation: w'_{lmn} = w_{abc} A^a_l A^b_m A^c_n."""
    d = form.dim
    rows = a.entries
    out = {}
    for tri in itertools.combinations(range(d), 3):
        acc = Fraction(0)
        for abc in itertools.product(range(d), repeat=3):
            w = full_coeff(form, *abc)
            if w:
                acc += w * rows[abc[0]][tri[0]] * rows[abc[1]][tri[1]] * rows[abc[2]][tri[2]]
        if acc:
            out[tri] = acc
    return ThreeForm(d, out)


def test_pullback_matches_brute_force_oracle():
    rng = random.Random(21)
    for dim in (3, 5, 7):
        for _ in range(4):
            form = rand_form(rng, dim)
            a = LinearMapN1.random_sl(dim, rng)
            assert pullback(form, a) == pullback_oracle(form, a)


def test_pullback_functorial():
    rng = random.Random(33)
    dim = 5
    form = rand_form(rng, dim)
    a = LinearMapN1.random_sl(dim, rng)
    b = LinearMapN1.random_sl(dim, rng)
    assert pullback(pullback(form, a), b) == pullback(form, a.compose(b))


def test_pullback_identity():
    rng = random.Random(1)
    form = rand_form(rng, 7)
    assert pullback(form, LinearMapN1.identity(7)) == form


def test_random_sl_is_unimodular():
    rng = random.Random(10)
    for dim in (3, 5, 7, 9):
        for _ in range(5):
            a = LinearMapN1.random_sl(dim, rng)
            assert rat_det(a.entries) == 1
            inv = a.inverse()
            assert a.compose(inv) == LinearMapN1.identity(dim)


def test_random_sl_draws_are_pinned():
    """Seeded SL draws are part of every seeded report that moves an
    operator, so the shear count and the factor range stay fixed."""
    assert LinearMapN1.random_sl(4, random.Random(3)).to_json() == (
        '{"dim": 4, "entries": [["1", "0", "0", "-1"], ["-1", "1", "1/2", "3/2"], '
        '["11/2", "-11/2", "-7/4", "-25/4"], ["3", "-3", "-3/2", "-7/2"]]}'
    )
    rng = random.Random(11)
    text = "".join(LinearMapN1.random_sl(dim, rng).to_json() for dim in range(3, 10))
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "d6b3ff98226a9c239d6a189e20d9d103af00d67714c18a0348fdb9379dde558a"
    )


@pytest.mark.parametrize("dim", [1, 0, -1])
def test_random_sl_refuses_dims_below_two(dim):
    """A shear needs two distinct indices: dim 1 would redraw j forever and
    dim 0 has no index at all.  The refusal names the dim and comes before
    any draw."""
    rng = random.Random(5)
    state = rng.getstate()
    with pytest.raises(ValueError, match=f"random_sl needs dim at least 2, got {dim}$"):
        LinearMapN1.random_sl(dim, rng)
    assert rng.getstate() == state


def _assert_lowest_terms(a):
    """The map's one integer form is in lowest terms and is the cleared
    Fraction view."""
    assert a.den > 0 and math.gcd(a.den, *(x for row in a.num for x in row)) == 1
    assert all(type(x) is int for row in a.num for x in row)
    assert (a.den, a.num) == clear_denominators(a.entries)
    assert a.dim == len(a.num)


def test_map_integer_forms_are_in_lowest_terms():
    """Maps from parsing, random_sl, compose and inverse() at dims 3-9,
    including products whose denominators cancel."""
    rng = random.Random(19)
    for dim in range(3, 10):
        a, b, r = LinearMapN1.random_sl(dim, rng), LinearMapN1.random_sl(dim, rng), _rational_map(rng, dim)
        parsed = [r, LinearMapN1.from_json(a.to_json()), LinearMapN1([[str(2 * x) for x in row] for row in r.entries])]
        made = [a, b, a.compose(b), r.compose(a), a.compose(a.inverse()), r.compose(r.inverse())]
        for m in parsed + made:
            _assert_lowest_terms(m)
            _assert_lowest_terms(m.inverse())
            _assert_lowest_terms(m.inverse().inverse())
        assert a.compose(a.inverse()) == r.compose(r.inverse()) == LinearMapN1.identity(dim)
        assert a.compose(a.inverse()).den == 1


def test_compose_and_inverse_digests_are_pinned():
    """Seeded products and inverses of shear products and of parsed rational
    maps, as JSON: the digests were recorded on the Fraction implementation
    of the maps."""
    rng = random.Random(41)
    parts = []
    for dim in range(3, 10):
        a, b, r = LinearMapN1.random_sl(dim, rng), LinearMapN1.random_sl(dim, rng), _rational_map(rng, dim)
        parts += [a.compose(b).to_json(), b.compose(r).to_json(), r.compose(a).to_json()]
    assert hashlib.sha256("".join(parts).encode()).hexdigest() == (
        "61c086863e41fbdba095ad3cb74aa58909f83b2d2f9c0741a164d3213b609329"
    )
    rng = random.Random(43)
    parts = []
    for dim in range(3, 10):
        a, r = LinearMapN1.random_sl(dim, rng), _rational_map(rng, dim)
        parts += [a.inverse().to_json(), r.inverse().to_json(), a.compose(r).inverse().to_json()]
    assert hashlib.sha256("".join(parts).encode()).hexdigest() == (
        "4990ad00ecb811540bf1b41d95724b762682035cd82359a04b4bc9505432bbe3"
    )


def test_compose_matches_fraction_product():
    rng = random.Random(11)
    for dim in (3, 5, 9):
        a = LinearMapN1.random_sl(dim, rng)
        b = LinearMapN1([[Fraction(rng.randint(-4, 4), rng.randint(1, 5)) + (i == j) * dim for j in range(dim)]
                         for i in range(dim)])
        for x, y in ((a, b), (b, a)):
            both = x.compose(y)
            assert both.entries == rat_mat_mul(x.entries, y.entries)
            assert both.det == rat_det(both.entries) == x.det * y.det


def test_linear_map_requires_invertible():
    # Singular maps whose elimination of [M | I] runs out of pivots at
    # different columns, one with fractional entries: one message for all.
    for rows in ([[1, 1], [1, 1]], [[0]], [[1, 0, 1], [0, 1, 1], [1, 1, 2]], [["1/2", "1/3"], ["3/2", 1]],
                 [[0, 1, 2], [0, 3, 4], [0, 5, 6]]):
        with pytest.raises(ValueError, match="^linear map must be invertible$"):
            LinearMapN1(rows)
    # The shape is checked before any entry is read, so a stray float entry
    # is refused by the shape.
    for rows in ([[1, 0], [1]], [[1, 0, 0, 0.5], [0, 1, 0], [0, 0, 1]]):
        with pytest.raises(ValueError, match="^linear map matrix must be square$"):
            LinearMapN1(rows)


def test_map_det_and_inverse_match_the_rational_routes():
    """The constructor's one elimination of [M | I] gives rat_det's
    determinant and rat_inverse's inverse; maps built without it (random_sl,
    compose) run the same elimination when first inverted, and an inverse
    inverts back to the map it came from."""
    rng = random.Random(31)
    for dim in range(1, 10):
        for a in [_rational_map(rng, dim) for _ in range(3)] + [LinearMapN1.identity(dim)]:
            assert a.det == rat_det(a.entries)
            inverse = a.inverse()
            assert inverse.entries == rat_inverse(a.entries)
            assert inverse.det == 1 / a.det == rat_det(inverse.entries)
            assert inverse.inverse() == a
    for dim in range(2, 10):
        a = LinearMapN1.random_sl(dim, rng)
        b = LinearMapN1.from_json(a.to_json())
        assert a.inverse() == b.inverse()
        assert a.inverse().entries == rat_inverse(a.entries)
        assert a.compose(b).inverse() == LinearMapN1.from_json(a.compose(b).to_json()).inverse()


def test_chart_restrict_embed_round_trip():
    rng = random.Random(7)
    for n in (2, 4, 6, 8):
        form = rand_form(rng, n + 1, entries=6)
        op = Hho2(n, chart_restrict(form))
        assert embed(op) == form
        form2 = embed(op)
        back = Hho2(n, chart_restrict(form2))
        assert {key: v for key, v in back.table.items() if key[2] < n} == {
            key: v for key, v in op.table.items() if key[2] < n
        }
        assert all(back.t_value(i, j, n) == op.t_value(i, j, n) for i in range(n) for j in range(n))


def test_constructors_reject_inexact_values():
    with pytest.raises(ValueError, match="0.5"):
        ThreeForm(3, {(0, 1, 2): 0.5})
    with pytest.raises(ValueError, match="True"):
        LinearMapN1([[1, True], [0, 1]])


def test_form_json_round_trip():
    rng = random.Random(14)
    form = rand_form(rng, 7, entries=5)
    again = ThreeForm.from_json(form.to_json())
    assert again == form


def test_form_json_rejects_bad_triples():
    with pytest.raises(ValueError):
        ThreeForm.from_json('{"dim": 5, "coeffs": [[2, 1, 3, "1"]]}')
    with pytest.raises(ValueError):
        ThreeForm.from_json('{"dim": 5, "coeffs": [[1, 1, 3, "1"]]}')
    with pytest.raises(ValueError):
        ThreeForm.from_json('{"dim": 5, "coeffs": [[1, 2, 9, "1"]]}')


def _contracted_pullback(form, a):
    """out[l,m,n] = sum over all ordered (p, q, r) of omega[p,q,r] a[p][l] a[q][m] a[r][n],
    the defining full contraction; only nonzero omega entries contribute."""
    dense = skew_dense(form.coeffs, form.dim)
    terms = [((p, q, r), dense[p][q][r]) for p, q, r in itertools.permutations(range(form.dim), 3)]
    terms = [(idx, w) for idx, w in terms if w]
    e = a.entries
    out = {}
    for l, m, n in itertools.combinations(range(form.dim), 3):
        total = 0
        for (p, q, r), w in terms:
            product = e[p][l] * e[q][m] * e[r][n]
            if product:
                total = w * product + total
        out[(l, m, n)] = total
    return ThreeForm(form.dim, out)


def _rational_map(rng, dim):
    while True:
        rows = [[Fraction(rng.randint(-4, 4), rng.randint(1, 5)) for _ in range(dim)] for _ in range(dim)]
        try:
            return LinearMapN1(rows)
        except ValueError:
            continue


@pytest.mark.parametrize("dim", range(3, 10))
def test_pullback_matches_full_contraction(dim):
    rng = random.Random(700 + dim)
    for _ in range(2):
        a = _rational_map(rng, dim)
        triples = list(itertools.combinations(range(dim), 3))
        picked = rng.sample(triples, min(12, len(triples)))
        form = ThreeForm(dim, {t: Fraction(rng.randint(-7, 7), rng.randint(1, 6)) for t in picked})
        assert pullback(form, a) == _contracted_pullback(form, a)
        zero = ThreeForm(dim, {})
        assert pullback(zero, a) == zero
