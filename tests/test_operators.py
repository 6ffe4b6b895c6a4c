import json
import random
from fractions import Fraction
from itertools import combinations, product

import pytest

from hho2.catalog import build, list_entries
from hho2.operators import (
    Hho2,
    ProjReciprocal,
    conformal_check,
    conformal_determinant_check,
    transform,
    validate,
)
from hho2.poly import MultiPoly
from hho2.threeform import LinearMapN1, chart_restrict, embed, skew_dense
from hho2.diagnostics import sample_points


def simple_n4():
    return Hho2(4, {(0, 1, 2): Fraction(1), (0, 3, 4): Fraction(1)})


def test_metric_layout():
    op = simple_n4()
    g = op.metric()
    u = ("u1", "u2", "u3", "u4")
    assert g.at(0, 1) == MultiPoly.parse(u, "u3")
    assert g.at(0, 2) == MultiPoly.parse(u, "-u2")
    assert g.at(1, 2) == MultiPoly.parse(u, "u1")
    assert g.at(0, 3) == MultiPoly.parse(u, "1")
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


@pytest.mark.parametrize("params", [(), ("s", "t")])
def test_sign_table_views_agree(params):
    """t_value, skew_dense and the dense form of `embed` all match the
    inversion-count oracle on every triple of range(n+1), g0 included."""
    rng = random.Random(41 + len(params))

    def draw():
        value = Fraction(rng.choice([-1, 1]) * rng.randint(1, 7), rng.randint(1, 4))
        if not params:
            return value
        s, t = (MultiPoly.variable(params, name) for name in params)
        return s * value + t * rng.randint(-3, 3) + rng.randint(-2, 2)

    for n in (4, 6):
        for _ in range(4):
            table = {tri: draw() for tri in rng.sample(list(combinations(range(n), 3)), 4)}
            # g0_ij is the entry on the triple (i, j, n).
            for i, j in rng.sample(list(combinations(range(n), 2)), 3):
                table[(i, j, n)] = draw()
            op = Hho2(n, table, params)
            assert op.table == table
            dense = skew_dense(table, n + 1)
            form = skew_dense(embed(op).coeffs, n + 1)
            for i, j, k in product(range(n + 1), repeat=3):
                want = _skew_oracle(table, i, j, k)
                assert op.t_value(i, j, k) == want
                assert dense[i][j][k] == want
                assert 3 * form[i][j][k] == want


def test_constructor_rejects_inexact_values():
    with pytest.raises(ValueError, match="0.5"):
        Hho2(2, {(0, 1, 2): 0.5})
    with pytest.raises(ValueError, match="True"):
        Hho2(4, {(0, 1, 2): True})
    with pytest.raises(ValueError, match="0.25"):
        Hho2(4, {(0, 1, 4): -0.25})
    with pytest.raises(ValueError, match="0.5"):
        Hho2(4, {(0, 1, 2): 0.5}, ("s",))


def test_t_value_signs():
    op = simple_n4()
    assert op.t_value(0, 1, 2) == 1
    assert op.t_value(1, 0, 2) == -1
    assert op.t_value(2, 0, 1) == 1
    assert op.t_value(0, 0, 2) == 0
    assert op.t_value(1, 2, 3) == 0


def test_validate_reports():
    rep = validate(simple_n4())
    assert rep.ok
    assert not rep.degenerate
    rep2 = validate(build("n4-degenerate"))
    assert rep2.ok
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
        moved = transform(op, ProjReciprocal.identity(op.n))
        assert moved == op


def test_transform_composition():
    rng = random.Random(3)
    op = build("n4-open")
    a = LinearMapN1.random_sl(5, rng)
    b = LinearMapN1.random_sl(5, rng)
    once = transform(transform(op, ProjReciprocal(a)), ProjReciprocal(b))
    both = transform(op, ProjReciprocal(b.compose(a)))
    assert once == both


def test_transform_preserves_validity_and_degeneracy_split():
    rng = random.Random(15)
    for name in ("n2", "n4-open", "n4-degenerate", "n6-IX"):
        op = build(name)
        a = LinearMapN1.random_sl(op.n + 1, rng)
        moved = transform(op, ProjReciprocal(a))
        rep = validate(moved)
        assert rep.ok
        assert rep.degenerate == op.is_degenerate


def test_conformal_identities_hold_at_points():
    rng = random.Random(77)
    for name in ("n2", "n4-open", "n6-X", "n6-VII"):
        op = build(name)
        a = LinearMapN1.random_sl(op.n + 1, rng)
        r = ProjReciprocal(a)
        moved = transform(op, r)
        done = 0
        while done < 5:
            u = sample_points(op, 1, rng, bound=9, allow_degenerate=True)[0]
            if not r.affine_factor(u):
                continue
            assert conformal_check(op, moved, r, u)
            assert conformal_determinant_check(op, moved, r, u)
            done += 1


def test_conformal_identity_has_teeth():
    # Check the identity with a deliberately wrong source metric and make
    # sure the comparison actually fails somewhere.
    rng = random.Random(78)
    op = build("n4-open")
    # n4-open has no T; keep its g0 and add one T entry.
    wrong = Hho2(4, {**op.table, (0, 1, 2): Fraction(1)})
    a = LinearMapN1.random_sl(5, rng)
    r = ProjReciprocal(a)
    moved = transform(op, r)
    violations = 0
    done = 0
    while done < 5:
        u = sample_points(op, 1, rng, bound=9, allow_degenerate=True)[0]
        if not r.affine_factor(u):
            continue
        done += 1
        if not conformal_check(wrong, moved, r, u):
            violations += 1
    assert violations > 0


def test_instantiate_and_is_numeric():
    entry_op = build("n8-fam1", {
        "lambda1": Fraction(1),
        "lambda2": Fraction(2),
        "lambda3": Fraction(3),
        "lambda4": Fraction(5),
    })
    assert entry_op.is_numeric()
    assert not entry_op.is_degenerate
    with pytest.raises(ValueError):
        build("n8-fam1", {"lambda1": Fraction(1)})


def test_metric_at_matches_symbolic_eval():
    rng = random.Random(5)
    op = build("n6-VIII")
    g = op.metric()
    for _ in range(5):
        u = tuple(Fraction(rng.randint(-6, 6)) for _ in range(6))
        vals = op.metric_at(u)
        for i in range(6):
            for j in range(6):
                assert vals[i][j] == g.at(i, j).eval(u)
