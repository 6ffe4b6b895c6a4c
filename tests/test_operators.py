import json
import math
import random
from fractions import Fraction
from itertools import combinations, product

import pytest

from hho2.catalog import build, list_entries
from hho2.linalg import PolyMatrix, clear_denominators, pfaffian, pfaffian_adjugate, rat_det, rat_mat_mul
from hho2.operators import (
    Hho2,
    conformal_check,
    conformal_determinant_check,
    transform,
    validate,
)
from hho2.poly import MultiPoly
from hho2.threeform import LinearMapN1, chart_restrict, embed, pullback, skew_dense
from hho2.diagnostics import sample_points


def simple_n4():
    return Hho2(4, {(0, 1, 2): Fraction(1), (0, 3, 4): Fraction(1)})


def test_metric_layout():
    op = simple_n4()
    g = op.metric()
    u = ("u1", "u2", "u3", "u4")
    u1, u2, u3 = (MultiPoly.variable(u, i) for i in range(3))
    assert g.at(0, 1) == u3
    assert g.at(0, 2) == -u2
    assert g.at(1, 2) == u1
    assert g.at(0, 3) == MultiPoly.const(u, 1)
    for i in range(4):
        assert g.at(i, i).is_zero()
        for j in range(4):
            assert g.at(i, j) == -g.at(j, i)


def test_pfaffian_of_simple_n4():
    op = simple_n4()
    assert str(op.pfaffian_poly()) == "u1"
    assert not op.is_degenerate


def _inversion_sign(seq):
    sign = 1
    for a in range(len(seq)):
        for b in range(a + 1, len(seq)):
            if seq[a] > seq[b]:
                sign = -sign
    return sign


def _skew_oracle(table, i, j, k):
    """Value at (i, j, k) of the skew family stored on increasing triples,
    with the sign counted by inversions rather than looked up."""
    if len({i, j, k}) < 3:
        return 0
    return _inversion_sign((i, j, k)) * table.get(tuple(sorted((i, j, k))), 0)


def test_sign_table_views_agree():
    """t_value, skew_dense, the dense form of `embed`, the integer table over
    its L and the metric entries all match the inversion-count oracle on
    every triple of range(n+1), g0 included, on tables with fractional
    entries."""
    rng = random.Random(41)

    def draw():
        return Fraction(rng.choice([-1, 1]) * rng.randint(1, 7), rng.randint(1, 4))

    for n in (4, 6):
        for _ in range(4):
            table = {tri: draw() for tri in rng.sample(list(combinations(range(n), 3)), 4)}
            # g0_ij is the entry on the triple (i, j, n).
            for i, j in rng.sample(list(combinations(range(n), 2)), 3):
                table[(i, j, n)] = draw()
            op = Hho2(n, table)
            assert op.table == table
            dense = skew_dense(table, n + 1)
            form = skew_dense(embed(op).coeffs, n + 1)
            for i, j, k in product(range(n + 1), repeat=3):
                want = _skew_oracle(table, i, j, k)
                assert op.t_value(i, j, k) == want
                assert dense[i][j][k] == want
                assert 3 * form[i][j][k] == want
            # The integer table is the table over the lcm of its denominators,
            # on range(n) x range(n) x range(n + 1).
            big_l, t = op._integer_table()
            assert big_l == math.lcm(*(v.denominator for v in table.values())) > 1
            g, unit = op.metric(), [tuple(int(l == k) for l in range(n)) for k in range(n)] + [(0,) * n]
            for i, j in product(range(n), repeat=2):
                row = [_skew_oracle(table, i, j, k) for k in range(n + 1)]
                assert all(type(x) is int for x in t[i][j])
                assert [Fraction(x, big_l) for x in t[i][j]] == row
                assert g.at(i, j) == MultiPoly(op.vars, dict(zip(unit, row)))


def test_constructor_rejects_inexact_values():
    with pytest.raises(ValueError, match="0.5"):
        Hho2(2, {(0, 1, 2): 0.5})
    with pytest.raises(ValueError, match="True"):
        Hho2(4, {(0, 1, 2): True})
    with pytest.raises(ValueError, match="0.25"):
        Hho2(4, {(0, 1, 4): -0.25})


def test_t_value_signs():
    op = simple_n4()
    assert op.t_value(0, 1, 2) == 1
    assert op.t_value(1, 0, 2) == -1
    assert op.t_value(2, 0, 1) == 1
    assert op.t_value(0, 0, 2) == 0
    assert op.t_value(1, 2, 3) == 0
    # An index outside range(n + 1) is refused, not read as a missing entry.
    for triple in ((0, 1, 5), (-1, 0, 1)):
        with pytest.raises(IndexError, match="range"):
            op.t_value(*triple)


def test_validate_reports():
    rep = validate(simple_n4())
    assert not rep.degenerate
    assert rep.pfaffian == simple_n4().pfaffian_poly()
    rep2 = validate(build("n4-degenerate"))
    assert rep2.degenerate


def test_json_round_trip_all_catalog():
    for entry in list_entries():
        if entry.params:
            values = {name: Fraction(k + 2) for k, name in enumerate(entry.params)}
            op = entry.build(values)
        else:
            op = entry.build()
        again = Hho2.from_json(op.to_json())
        assert again == op


def test_json_rejects_malformed():
    with pytest.raises(ValueError):
        Hho2.from_json('{"n": 4, "T": [[1, 1, 2, "1"]], "g0": []}')
    with pytest.raises(ValueError):
        Hho2.from_json('{"n": 4, "T": [], "g0": [[2, 1, "1"]]}')
    with pytest.raises(ValueError):
        Hho2.from_json('{"n": 3, "T": [], "g0": []}')


def test_extend_split_round_trip():
    op = simple_n4()
    ext = op.table
    assert ext[(0, 1, 2)] == Fraction(1)
    assert ext[(0, 3, 4)] == Fraction(1)
    back = Hho2(4, chart_restrict(embed(op)))
    assert {key: v for key, v in back.table.items() if key[2] < 4} == {(0, 1, 2): Fraction(1)}
    assert {(i, j): back.t_value(i, j, 4) for i in range(4) for j in range(i + 1, 4) if back.t_value(i, j, 4)} == {
        (0, 3): Fraction(1)
    }
    assert all(back.t_value(i, j, 4) == op.t_value(i, j, 4) for i in range(4) for j in range(4))
    assert back == op


def test_transform_identity_is_identity():
    for name in ("n2", "n4-open", "n6-X"):
        op = build(name)
        moved = transform(op, LinearMapN1.identity(op.n + 1))
        assert moved == op


def test_transform_composition():
    rng = random.Random(3)
    op = build("n4-open")
    a = LinearMapN1.random_sl(5, rng)
    b = LinearMapN1.random_sl(5, rng)
    once = transform(transform(op, a), b)
    both = transform(op, b.compose(a))
    assert once == both


def test_transform_preserves_validity_and_degeneracy_split():
    rng = random.Random(15)
    for name in ("n2", "n4-open", "n4-degenerate", "n6-IX"):
        op = build(name)
        a = LinearMapN1.random_sl(op.n + 1, rng)
        moved = transform(op, a)
        assert validate(moved).degenerate == op.is_degenerate


def test_conformal_identities_hold_at_points():
    rng = random.Random(77)
    for name in ("n2", "n4-open", "n6-X", "n6-VII"):
        op = build(name)
        a = LinearMapN1.random_sl(op.n + 1, rng)
        moved = transform(op, a)
        done = 0
        while done < 5:
            u = sample_points(op, 1, rng, bound=9, allow_degenerate=True)[0]
            if not _affine_factor(a, u):
                continue
            assert conformal_check(op, moved, a, u)
            assert conformal_determinant_check(op, moved, a, u)
            done += 1


def test_conformal_identity_has_teeth():
    # Check the identity with a deliberately wrong source metric and make
    # sure the comparison actually fails somewhere.
    rng = random.Random(78)
    op = build("n4-open")
    # n4-open has no T; keep its g0 and add one T entry.
    wrong = Hho2(4, {**op.table, (0, 1, 2): Fraction(1)})
    a = LinearMapN1.random_sl(5, rng)
    moved = transform(op, a)
    violations = 0
    done = 0
    while done < 5:
        u = sample_points(op, 1, rng, bound=9, allow_degenerate=True)[0]
        if not _affine_factor(a, u):
            continue
        done += 1
        if not conformal_check(wrong, moved, a, u):
            violations += 1
    assert violations > 0


def test_instantiate_and_is_numeric():
    """A family built at parameter values holds rationals only."""
    entry_op = build("n8-fam1", {
        "lambda1": Fraction(1),
        "lambda2": Fraction(2),
        "lambda3": Fraction(3),
        "lambda4": Fraction(5),
    })
    assert all(type(v) is Fraction for v in entry_op.table.values())
    assert not entry_op.is_degenerate
    with pytest.raises(ValueError):
        build("n8-fam1", {"lambda1": Fraction(1)})


def test_metric_at_matches_symbolic_eval():
    """The integer metric of the conformal record, over its denominator, is
    the symbolic metric at u."""
    rng = random.Random(5)
    for name in ("n6-VIII", "n4-open"):
        op = build(name)
        if name == "n4-open":
            op = transform(op, _fractional_sl(5))
        g = op.metric()
        for _ in range(5):
            u = tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(op.n))
            s = clear_denominators([u])[0]
            big_l, vals = op._metric_numerator([int(x * s) for x in u] + [s])
            assert [[Fraction(v, big_l * s) for v in row] for row in vals] == g.eval_at(u)
        assert name == "n6-VIII" or big_l > 1


# ----- Fraction oracle of the conformal identities ----------------------------


def _affine_factor(a, u):
    """A(u) = a_nj u^j + a_nn, the denominator of the point map."""
    n = len(u)
    return sum((a.entries[n][j] * u[j] for j in range(n)), a.entries[n][n])


def _chart_oracle(a, u):
    """(ut, A) of the point map ut^i = (a_ij u^j + a_in) / A in Fractions."""
    n = len(u)
    e = a.entries
    big_a = _affine_factor(a, u)
    if not big_a:
        raise ZeroDivisionError("chart pole")
    return [sum((e[i][j] * u[j] for j in range(n)), e[i][n]) / big_a for i in range(n)], big_a


def _jacobian_oracle(a, u):
    """J_il = (A a_il - N_i a_nl) / A^2 with N_i = A ut^i, in Fractions."""
    n = len(u)
    e = a.entries
    ut, big_a = _chart_oracle(a, u)
    return [[(big_a * e[i][l] - big_a * ut[i] * e[n][l]) / big_a**2 for l in range(n)] for i in range(n)]


def _conformal_oracle(op, moved, a, u):
    """(metric identity, determinant identity) at u as the identities are
    written: J^T gt(ut) J == A^-3 g(u) and det gt * det(J)^2 == A^-3n det g,
    with both metrics evaluated symbolically."""
    n = op.n
    ut, big_a = _chart_oracle(a, u)
    jac = _jacobian_oracle(a, u)
    gt = moved.metric().eval_at(ut)
    g = op.metric().eval_at(u)
    lhs = rat_mat_mul([list(col) for col in zip(*jac)], rat_mat_mul(gt, jac))
    metric_ok = all(lhs[i][j] == g[i][j] / big_a**3 for i in range(n) for j in range(n))
    det_ok = rat_det(gt) * rat_det(jac) ** 2 == rat_det(g) / big_a ** (3 * n)
    return metric_ok, det_ok


def _fractional_sl(dim):
    """Unit lower-triangular map with fractional entries: determinant one,
    with a common denominator above 1."""
    rows = [[Fraction(int(i == j)) for j in range(dim)] for i in range(dim)]
    for i in range(1, dim):
        rows[i][i - 1] = Fraction((-1) ** i, i + 1)
    rows[dim - 1][0] += Fraction(1, 3)
    return LinearMapN1(rows)


def _points(rng, n, count):
    """Rational points whose coordinates have denominators 2 and 3."""
    return [tuple(Fraction(rng.randint(-9, 9), rng.choice((2, 3))) for _ in range(n)) for _ in range(count)]


N8_FAM1 = {"lambda1": Fraction(2), "lambda2": Fraction(3), "lambda3": Fraction(5), "lambda4": Fraction(7)}


def test_conformal_record_matches_fraction_oracle():
    """Both integer checks give the oracle's verdict at points with
    denominators 2 and 3: on maps with fractional entries (c > 1, moved
    table denominator Lt > 1), on n8-fam1, on a determinant-two map, on a
    doubled source operator where both identities fail, and on the wrong
    source operator of `test_conformal_identity_has_teeth`.

    The identities hold for the determinant-two map too: a -> lambda a
    scales both sides by lambda^-3, and n+1 is odd, so every invertible real
    map is a real multiple of a determinant-one map."""
    rng = random.Random(79)
    op4 = build("n4-open")
    wrong = Hho2(4, {**op4.table, (0, 1, 2): Fraction(1)})
    doubled = Hho2(4, {key: 2 * v for key, v in op4.table.items()})
    det2 = LinearMapN1([[*row[:4], 2 * row[4]] for row in _fractional_sl(5).entries])
    assert det2.det == 2
    n8 = build("n8-fam1", N8_FAM1)
    cases = [
        (op4, op4, _fractional_sl(5), True),
        (build("n6-X"), build("n6-X"), _fractional_sl(7), True),
        (n8, n8, _fractional_sl(9), True),
        (op4, op4, LinearMapN1.random_sl(5, rng), True),
        (op4, op4, det2, True),
        (doubled, op4, _fractional_sl(5), False),
        (wrong, op4, _fractional_sl(5), None),
    ]
    for op, _, a, _ in cases[:3]:
        assert clear_denominators(a.entries)[0] > 1
        assert transform(op, a)._metric_numerator([1] * (op.n + 1))[0] > 1
    wrong_verdicts = []
    for op, source, a, expected in cases:
        moved = transform(source, a)
        for u in _points(rng, op.n, 3):
            if not _affine_factor(a, u):
                continue
            want = _conformal_oracle(op, moved, a, u)
            got = (conformal_check(op, moved, a, u), conformal_determinant_check(op, moved, a, u))
            assert got == want
            if expected is None:
                wrong_verdicts.append(got[0])
            else:
                assert got == (expected, expected)
    assert False in wrong_verdicts


def test_conformal_checks_raise_at_poles_and_on_parameters():
    a = _fractional_sl(5)
    op = build("n4-open")
    moved = transform(op, a)
    pole = (Fraction(-6), Fraction(1), Fraction(2), Fraction(5))
    assert _affine_factor(a, pole) == 0
    for check in (conformal_check, conformal_determinant_check):
        with pytest.raises(ZeroDivisionError):
            check(op, moved, a, pole)


def _transform_by_embedding(op, a):
    """`transform` as the composition it was before it pulled the table back
    directly: the form table/3 of `embed`, pulled back along the inverse map,
    then times 3 on the chart."""
    return Hho2(op.n, chart_restrict(pullback(embed(op), a.inverse())))


# The determinant-one maps with fractional entries of the CI smoke test
# (.github/workflows/tests.yml), SL5, SL7 and SL9, by dimension n + 1.
_CI_SL = {
    5: '[[1,0,0,0,0],["1/2",1,0,0,0],[0,"-2/3",1,0,0],[0,0,"3/4",1,0],["1/3",0,0,"-1/2",1]]',
    7: '[["1","0","2","-1/2","1","-1","0"],["1","1","1","-1/2","2","-2","1/2"],'
       '["1/2","1","1","1/4","-1/2","-3/2","5/2"],["0","1/2","1/2","3/2","-2","1/2","5/4"],'
       '["-1/2","0","-1/2","3/2","-1","5/2","-1"],["1","-1/2","5/2","0","5/4","2","-7/4"],'
       '["1/2","1","-1/2","-1/2","3","0","0"]]',
    9: '[[1,0,0,0,0,0,0,0,0],["1/2",1,0,0,0,0,0,0,0],[0,"-2/3",1,0,0,0,0,0,0],[0,0,"3/4",1,0,0,0,0,0],'
       '[0,0,0,"-4/5",1,0,0,0,0],[0,0,0,0,"5/6",1,0,0,0],[0,0,0,0,0,"-6/7",1,0,0],'
       '[0,0,0,0,0,0,"7/8",1,0],["1/3",0,0,0,"-1/2",0,0,"-8/9",1]]',
}


@pytest.mark.parametrize("entry", list_entries(), ids=lambda e: e.id)
def test_transform_equals_the_embedded_pullback(entry):
    """Pullback is linear, so pulling the table (three times the form) back
    gives three times the pulled-back form: `transform` equals the old
    composition on every catalog entry, under random determinant-one shear
    products and the fractional CI map of its size."""
    op = entry.build({name: Fraction(k + 2) for k, name in enumerate(entry.params)} if entry.params else None)
    rng = random.Random(83)
    maps = [LinearMapN1.random_sl(op.n + 1, rng) for _ in range(3)]
    if op.n + 1 in _CI_SL:
        maps.append(LinearMapN1.from_json(_CI_SL[op.n + 1]))
    for a in maps:
        moved, oracle = transform(op, a), _transform_by_embedding(op, a)
        assert moved == oracle and moved.to_json() == oracle.to_json()


# ----- the metric Pfaffian in two coefficient rings -----------------------------


def _with_two_moves(entry):
    """The entry's operator, its families at fixed parameters, and two
    `random_sl` moves of it, each flagged moved or not."""
    op = entry.build({name: Fraction(k + 2) for k, name in enumerate(entry.params)} if entry.params else None)
    rng = random.Random(404)
    return [(op, False)] + [(transform(op, LinearMapN1.random_sl(op.n + 1, rng)), True) for _ in range(2)]


@pytest.mark.parametrize("entry", list_entries(), ids=lambda e: e.id)
def test_pfaffian_degree_bound(entry):
    """deg D <= n/2 - 1: the homogeneous Pfaffian Pf G(x) of degree n/2 is
    divisible by s, as its s-free part Pf(T(u)) vanishes (T(u) u = 0).  The
    dense ring forms only the monomials with s on the full mask on this."""
    for op, _ in _with_two_moves(entry):
        assert op.pfaffian_poly().degree() <= op.n // 2 - 1


@pytest.mark.parametrize("entry", list_entries(), ids=lambda e: e.id)
def test_dense_ring_matches_the_multipoly_ring(entry):
    """The metric's Pfaffian and adjugate equal those of the same entries in
    a fresh `PolyMatrix`, which expands them in the sparse MultiPoly ring.
    Catalog tables take the MultiPoly ring, and tables moved at n = 8 the
    dense one; the metric of a dense table is seeded with its expansion
    before any Pfaffian is asked of it."""
    for op, moved in _with_two_moves(entry):
        fresh = Hho2(op.n, op.table)
        metric = fresh.metric()
        assert (metric._expansion is not None) == fresh._dense()
        if not moved:
            assert not fresh._dense()
        elif op.n == 8:
            assert fresh._dense()
        oracle = PolyMatrix(metric.entries)
        assert pfaffian(metric) == pfaffian(oracle)
        if entry.degenerate:
            with pytest.raises(ZeroDivisionError):
                pfaffian_adjugate(metric)
        else:
            assert pfaffian_adjugate(metric) == pfaffian_adjugate(oracle)


@pytest.mark.parametrize("name", ["n6-X", "n8-fam1"])
def test_rings_of_the_ci_maps(name):
    """Moved by the fractional CI map of its size, a catalog table leaves
    the MultiPoly ring for the dense one; its Pfaffian and adjugate match
    the MultiPoly oracle and D has degree n/2 - 1 at most."""
    op = build(name, {"lambda1": 2, "lambda2": 3, "lambda3": 5, "lambda4": 7} if name == "n8-fam1" else None)
    moved = transform(op, LinearMapN1.from_json(_CI_SL[op.n + 1]))
    assert not op._dense() and moved._dense()
    metric, oracle = moved.metric(), PolyMatrix(moved.metric().entries)
    assert pfaffian(metric) == pfaffian(oracle)
    assert pfaffian_adjugate(metric) == pfaffian_adjugate(oracle)
    assert moved.pfaffian_poly().degree() <= op.n // 2 - 1


def test_transform_refuses_a_map_of_the_wrong_dimension():
    with pytest.raises(ValueError, match="^transformation dimension 3 does not match operator n=2$"):
        transform(build("n2"), LinearMapN1.identity(4))


def test_table_keys_must_be_increasing_triples():
    with pytest.raises(ValueError, match=r"^triple \(1, 0, 2\) is not strictly increasing inside range\(3\)$"):
        Hho2(2, {(1, 0, 2): 1})
