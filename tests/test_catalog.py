import random
import re
from fractions import Fraction

import pytest

from hho2.catalog import N8_CLASS_COUNT, build, get_entry, list_entries
from hho2.linalg import det_bareiss
from hho2.poly import MultiPoly
from hho2.threeform import chart_restrict, embed, skew_dense
from test_poly import from_text


N8_PARAMS = {
    "lambda1": Fraction(2),
    "lambda2": Fraction(3),
    "lambda3": Fraction(5),
    "lambda4": Fraction(7),
}


def n8_params(entry_id):
    """The values of N8_PARAMS for the names the entry takes, or None."""
    return {name: N8_PARAMS[name] for name in get_entry(entry_id).params} or None


# Hand-transcribed metric tables for the five nondegenerate n = 6 entries.
# Kept independent of the builder code on purpose: they pin the exact
# coefficient layout, not just structural invariants.
N6_TABLES = {
    "n6-X": [
        ["0", "u3", "-u2", "1", "0", "0"],
        ["-u3", "0", "u1", "0", "1", "0"],
        ["u2", "-u1", "0", "0", "0", "1"],
        ["-1", "0", "0", "0", "u6", "-u5"],
        ["0", "-1", "0", "-u6", "0", "u4"],
        ["0", "0", "-1", "u5", "-u4", "0"],
    ],
    "n6-IX": [
        ["0", "u3", "-u2", "1", "0", "0"],
        ["-u3", "0", "u1", "0", "1", "0"],
        ["u2", "-u1", "0", "0", "0", "0"],
        ["-1", "0", "0", "0", "u6", "-u5"],
        ["0", "-1", "0", "-u6", "0", "u4"],
        ["0", "0", "0", "u5", "-u4", "0"],
    ],
    "n6-VIII": [
        ["0", "u3", "-u2", "1", "0", "0"],
        ["-u3", "0", "u1", "0", "0", "0"],
        ["u2", "-u1", "0", "0", "0", "0"],
        ["-1", "0", "0", "0", "u6", "-u5"],
        ["0", "0", "0", "-u6", "0", "u4"],
        ["0", "0", "0", "u5", "-u4", "0"],
    ],
    "n6-VII": [
        ["0", "0", "0", "1", "0", "0"],
        ["0", "0", "0", "0", "1", "0"],
        ["0", "0", "0", "0", "0", "1"],
        ["-1", "0", "0", "0", "u6", "-u5"],
        ["0", "-1", "0", "-u6", "0", "u4"],
        ["0", "0", "-1", "u5", "-u4", "0"],
    ],
    "n6-VI": [
        ["0", "0", "0", "1", "0", "0"],
        ["0", "0", "0", "0", "1", "0"],
        ["0", "0", "0", "0", "0", "1"],
        ["-1", "0", "0", "0", "0", "0"],
        ["0", "-1", "0", "0", "0", "0"],
        ["0", "0", "-1", "0", "0", "0"],
    ],
}

# Upper triangle of the first n = 8 family metric at
# (lambda1, lambda2, lambda3, lambda4) = (2, 3, 5, 7), transcribed by hand
# from the known closed form of that family.
N8_FAM1_UPPER = {
    (0, 1): "2*u3", (0, 2): "-2*u2", (0, 3): "3*u7", (0, 4): "5",
    (0, 5): "7*u8", (0, 6): "-3*u4", (0, 7): "-7*u6",
    (1, 2): "2*u1", (1, 3): "7", (1, 4): "3*u8", (1, 5): "5*u7",
    (1, 6): "-5*u6", (1, 7): "-3*u5",
    (2, 3): "5*u8", (2, 4): "7*u7", (2, 5): "3", (2, 6): "-7*u5",
    (2, 7): "-5*u4",
    (3, 4): "2*u6", (3, 5): "-2*u5", (3, 6): "3*u1", (3, 7): "5*u3",
    (4, 5): "2*u4", (4, 6): "7*u3", (4, 7): "3*u2",
    (5, 6): "5*u2", (5, 7): "7*u1",
    (6, 7): "2",
}


def test_catalog_inventory():
    entries = list_entries()
    ids = [e.id for e in entries]
    assert len(ids) == 11
    assert len(set(ids)) == 11
    dims = [e.n for e in entries]
    assert dims == sorted(dims)
    assert {e.n for e in entries} == {2, 4, 6, 8}
    assert sum(1 for e in entries if e.degenerate) == 1
    assert N8_CLASS_COUNT == 132


def test_unknown_id_raises():
    with pytest.raises(ValueError, match="unknown catalog id"):
        get_entry("n6-XYZ")


def test_n6_metric_tables():
    for name, table in N6_TABLES.items():
        op = build(name)
        g = op.metric()
        for i in range(6):
            for j in range(6):
                want = from_text(op.vars, table[i][j])
                assert g.at(i, j) == want, (name, i, j)


def test_expected_determinants():
    for entry in list_entries():
        if entry.expected_det is None:
            continue
        op = entry.build()
        det = det_bareiss(op.metric())
        want = from_text(op.vars, entry.expected_det)
        assert det == want, entry.id
        pf = op.pfaffian_poly()
        assert pf * pf == det, entry.id


def test_n8_family1_metric_known_entries():
    op = build("n8-fam1", N8_PARAMS)
    g = op.metric()
    for (i, j), text in N8_FAM1_UPPER.items():
        want = from_text(op.vars, text)
        assert g.at(i, j) == want, (i, j)
        assert g.at(j, i) == -want, (j, i)
    for i in range(8):
        assert g.at(i, i).is_zero()


def test_n8_families_nondegenerate_at_generic_values():
    for name in ("n8-fam1", "n8-fam2-e1", "n8-fam2-e2"):
        op = build(name, n8_params(name))
        assert not op.is_degenerate
        assert op.pfaffian_poly().degree() <= 4


def test_n8_fam2_differ_by_nilpotent_part():
    # Both nilpotent parts share the triple that lands in T; the larger one
    # adds a second triple whose last index is the extension slot, so the two
    # entries differ exactly in one constant g0 coefficient.
    a = build("n8-fam2-e1", n8_params("n8-fam2-e1"))
    b = build("n8-fam2-e2", n8_params("n8-fam2-e2"))
    assert {key: v for key, v in a.table.items() if key[2] < 8} == {
        key: v for key, v in b.table.items() if key[2] < 8
    }
    g0_diff = {(i, j) for i in range(8) for j in range(8)
               if a.t_value(i, j, 8) != b.t_value(i, j, 8)}
    assert g0_diff == {(1, 3), (3, 1)}
    assert a.t_value(1, 3, 8) - b.t_value(1, 3, 8) == Fraction(1)


def test_parameter_validation():
    with pytest.raises(ValueError):
        build("n8-fam1")
    with pytest.raises(ValueError):
        build("n8-fam1", {"lambda1": Fraction(1)})
    with pytest.raises(ValueError):
        build("n6-X", {"lambda1": Fraction(1)})
    with pytest.raises(ValueError):
        build("n8-fam1", {name: Fraction(0) for name in N8_PARAMS})
    # A name the entry does not take is refused, not dropped.
    with pytest.raises(ValueError, match="entry n8-fam1 takes no parameter lambda5$"):
        build("n8-fam1", {**N8_PARAMS, "lambda5": Fraction(1)})
    with pytest.raises(ValueError, match="entry n8-fam2-e2 takes no parameter lamda3$"):
        build("n8-fam2-e2", {"lambda1": Fraction(2), "lambda2": Fraction(3), "lamda3": Fraction(5)})


@pytest.mark.parametrize("bad", [0.5, True, 2.0, None, "1e3"])
def test_parameter_values_must_be_exact(bad):
    """Family parameters are read by `rat`: a float, a bool or any other
    inexact value is refused with its value named, not stored as 1/2 or 1."""
    values = {**N8_PARAMS, "lambda2": bad}
    with pytest.raises(ValueError, match=f"lambda2: {re.escape(repr(bad))} is not an exact rational"):
        build("n8-fam1", values)
    with pytest.raises(ValueError, match="is not an exact rational"):
        build("n8-fam2-e1", {"lambda1": 1, "lambda2": bad, "lambda3": Fraction(-3, 2)})


# Three parameter draws per family, fractional and negative values included;
# a family with three parameters reads the first three.
LAMBDA_DRAWS = [
    (2, 3, 5, 7),
    (Fraction(-1, 2), Fraction(3, 4), -5, Fraction(2, 3)),
    (-3, Fraction(-2, 7), Fraction(1, 3), -4),
]


def _at_params(p, n, values):
    """p over (u1..un, params) with the params set to values, in u alone."""
    terms = {}
    for e, c in p.monomials():
        for x, k in zip(values, e[n:]):
            c *= Fraction(x) ** k
        terms[e[:n]] = terms.get(e[:n], 0) + c
    return MultiPoly(p.vars[:n], terms)


@pytest.mark.parametrize("entry_id", [entry.id for entry in list_entries()])
def test_entry_metric_matches_built_operators(entry_id):
    """The metric over (u, lambda) that `catalog show` prints is, at each
    parameter draw, the metric of the operator built at that draw; a fixed
    entry has the one empty draw."""
    entry = get_entry(entry_id)
    g = entry.metric()
    assert g.vars == tuple(f"u{i + 1}" for i in range(entry.n)) + entry.params
    for draw in LAMBDA_DRAWS if entry.params else [()]:
        values = draw[:len(entry.params)]
        built = entry.build(dict(zip(entry.params, values)) or None).metric()
        for i in range(entry.n):
            for j in range(entry.n):
                assert _at_params(g.at(i, j), entry.n, values) == built.at(i, j), (entry_id, draw, i, j)


def test_defining_form_round_trip():
    for entry in list_entries():
        op = entry.build(n8_params(entry.id))
        form = embed(op)
        table = chart_restrict(form)
        assert form.dim == op.n + 1
        got = {k: v for k, v in table.items() if k[2] < op.n}
        want = {k: v for k, v in op.table.items() if k[2] < op.n}
        assert got == want, entry.id
        dense = skew_dense(table, op.n + 1)
        for i in range(op.n):
            for j in range(op.n):
                assert dense[i][j][op.n] == op.t_value(i, j, op.n), (entry.id, i, j)


def test_degenerate_entry_flag():
    entry = get_entry("n4-degenerate")
    assert entry.degenerate
    op = entry.build()
    assert op.is_degenerate
    assert op.pfaffian_poly().is_zero()


def test_catalog_notes_nonempty():
    for entry in list_entries():
        assert entry.notes.strip()


def test_deterministic_rebuild():
    rng = random.Random(0)
    del rng
    a = build("n6-X")
    b = build("n6-X")
    assert a == b and a is not b
