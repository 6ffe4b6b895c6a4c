"""Acceptance gate: twelve numbered criteria, one test and one printed
pass/fail line each (run with -v -s to see the lines).

Every check is exact rational arithmetic with zero tolerance.  Criterion 9
asserts that the Haantjes tensor vanishes for every n = 6 and n = 8 catalog
system; the implementation is faithful to that claim and the claim itself
fails for n >= 6 (the tensor is generically nonzero there), so that single
test is expected to fail.  See README for the analysis summary.
"""

import random
import time
from fractions import Fraction

import pytest

from hho2.catalog import build, get_entry, list_entries
from hho2.diagnostics import (
    charpoly_square_symbolic,
    diag_check,
    haantjes,
    nijenhuis,
    nijenhuis_closed_form,
    sample_points,
    tensor_is_zero,
)
from hho2.linalg import PolyMatrix, det_bareiss, pfaffian
from hho2.operators import (
    Hho2,
    conformal_check,
    conformal_determinant_check,
    transform,
)
from hho2.poly import MultiPoly, lowest_terms
from hho2.systems import (
    ConservativeSystem,
    DegenerateOperatorError,
    casimir_check,
    check_compat,
    euler_check,
    family_parameter_count,
    generate_flux,
    linearity_report,
    random_flux_params,
)
from hho2.threeform import LinearMapN1, chart_restrict, embed, skew_dense
from test_poly import from_text


N8_PARAMS = {
    "lambda1": Fraction(2),
    "lambda2": Fraction(3),
    "lambda3": Fraction(5),
    "lambda4": Fraction(7),
}

N6_IDS = ["n6-X", "n6-IX", "n6-VIII", "n6-VII", "n6-VI"]
N8_IDS = ["n8-fam1", "n8-fam2-e1", "n8-fam2-e2"]
NONDEGENERATE_SMALL = ["n2", "n4-open"] + N6_IDS  # flux-bearing entries, n <= 6


def announce(num: int, name: str, ok: bool, elapsed: float, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    extra = f" [{detail}]" if detail else ""
    print(f"criterion {num:02d} {name}: {status} ({elapsed:.1f}s){extra}")


def build_any(entry_id: str) -> Hho2:
    entry = get_entry(entry_id)
    return entry.build({name: N8_PARAMS[name] for name in entry.params} or None)


def seeded_system(entry_id: str, seed: int) -> ConservativeSystem:
    return generate_flux(build_any(entry_id), rng=random.Random(seed))


def test_criterion_01_determinant_reproduction():
    start = time.perf_counter()
    base_x = "u1*u4+u2*u5+u3*u6-1"
    base_ix = "u1*u4+u2*u5"
    base_viii = "u1*u4"
    expected = {
        "n6-X": base_x,
        "n6-IX": base_ix,
        "n6-VIII": base_viii,
        "n6-VII": "1",
        "n6-VI": "1",
    }
    ok = True
    for entry_id, base_text in expected.items():
        op = build(entry_id)
        base = from_text(op.vars, base_text)
        if det_bareiss(op.metric()) != base * base:
            ok = False
    elapsed = time.perf_counter() - start
    announce(1, "determinant reproduction", ok, elapsed)
    assert ok
    assert elapsed < 5


def random_skew_matrix(dim: int, rng) -> PolyMatrix:
    vs = ("x1", "x2", "x3")
    rows = [[MultiPoly.zero(vs) for _ in range(dim)] for _ in range(dim)]
    for i in range(dim):
        for j in range(i + 1, dim):
            terms = {}
            if rng.random() < 0.8:
                terms[(0, 0, 0)] = Fraction(rng.randint(-5, 5))
            for v in rng.sample(range(3), k=rng.randint(0, 2)):
                exp = [0, 0, 0]
                exp[v] = 1
                terms[tuple(exp)] = Fraction(rng.randint(-5, 5))
            p = MultiPoly(vs, terms)
            rows[i][j] = p
            rows[j][i] = p * -1
    return PolyMatrix(rows)


def test_criterion_02_pfaffian_squares_to_determinant():
    start = time.perf_counter()
    rng = random.Random(902)
    checked = 0
    ok = True
    for dim in (2, 4, 6, 8):
        for _ in range(25):
            m = random_skew_matrix(dim, rng)
            pf = pfaffian(m)
            if pf * pf != det_bareiss(m):
                ok = False
            checked += 1
    elapsed = time.perf_counter() - start
    announce(2, "pfaffian squares to determinant", ok, elapsed, f"{checked} matrices")
    assert ok and checked == 100
    assert elapsed < 30


def random_operator(n: int, rng) -> Hho2:
    table = {}
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                if rng.random() < 0.5:
                    table[(i, j, k)] = Fraction(rng.randint(-9, 9))
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.5:
                table[(i, j, n)] = Fraction(rng.randint(-9, 9))
    return Hho2(n, table)


def test_criterion_03_correspondence_round_trip():
    start = time.perf_counter()
    rng = random.Random(903)
    ok = True
    checked = 0
    for n in (2, 4, 6, 8):
        for _ in range(25):
            op = random_operator(n, rng)
            form = embed(op)
            table = chart_restrict(form)
            tensor = {key: v for key, v in op.table.items() if key[2] < n}
            if {key: v for key, v in table.items() if key[2] < n} != tensor:
                ok = False
            dense = skew_dense(table, n + 1)
            for i in range(n):
                for j in range(n):
                    if dense[i][j][n] != op.t_value(i, j, n):
                        ok = False
            ext = op.table
            keys = set(ext) | set(form.coeffs)
            for key in keys:
                if ext.get(key, Fraction(0)) != 3 * form.coeffs.get(key, Fraction(0)):
                    ok = False
            checked += 1
    elapsed = time.perf_counter() - start
    announce(3, "correspondence round trip", ok, elapsed, f"{checked} operators")
    assert ok and checked == 100
    assert elapsed < 10


def test_criterion_04_group_action():
    start = time.perf_counter()
    ok = True
    pairs = 0
    by_n = {
        2: ["n2"],
        4: ["n4-open", "n4-degenerate"],
        6: N6_IDS,
    }
    for n, ids in by_n.items():
        rng = random.Random(904 + n)
        for entry_id in ids:
            op = build(entry_id)
            if transform(op, LinearMapN1.identity(n + 1)) != op:
                ok = False
        for count in range(50):
            op = build(ids[count % len(ids)])
            a = LinearMapN1.random_sl(n + 1, rng)
            b = LinearMapN1.random_sl(n + 1, rng)
            step = transform(transform(op, a), b)
            joint = transform(op, b.compose(a))
            if step != joint:
                ok = False
            if step.is_degenerate != op.is_degenerate:
                ok = False
            pairs += 1
    elapsed = time.perf_counter() - start
    announce(4, "group action and composition", ok, elapsed, f"{pairs} SL pairs")
    assert ok and pairs == 150
    assert elapsed < 60


def test_criterion_05_conformal_invariance():
    start = time.perf_counter()
    ok = True
    checked_points = 0
    cases = [(entry.id, 20) for entry in list_entries() if entry.n <= 6]
    cases += [(entry_id, 5) for entry_id in N8_IDS]
    for entry_id, count in cases:
        rng = random.Random(905)
        op = build_any(entry_id)
        a = LinearMapN1.random_sl(op.n + 1, rng)
        moved = transform(op, a)
        done = 0
        attempts = 0
        while done < count:
            attempts += 1
            if attempts > 100 * count:
                ok = False
                break
            u = sample_points(op, 1, rng, allow_degenerate=True)[0]
            try:
                metric_ok = conformal_check(op, moved, a, u)
            except ZeroDivisionError:  # a pole of the chart
                continue
            if not metric_ok:
                ok = False
            if not op.is_degenerate and not conformal_determinant_check(op, moved, a, u):
                ok = False
            done += 1
            checked_points += 1
    elapsed = time.perf_counter() - start
    announce(5, "conformal invariance", ok, elapsed, f"{checked_points} points")
    assert ok
    assert elapsed < 120


def test_criterion_06_compatibility():
    start = time.perf_counter()
    ok = True
    symbolic_runs = 0
    for entry_id in NONDEGENERATE_SMALL:
        rng = random.Random(906)
        op = build(entry_id)
        for _ in range(5):
            system = generate_flux(op, rng=rng)
            rep = check_compat(system, mode="symbolic")
            if not rep.passed:
                ok = False
            symbolic_runs += 1
    with pytest.raises(DegenerateOperatorError):
        generate_flux(build("n4-degenerate"), rng=random.Random(906))
    point_runs = 0
    for entry_id in N8_IDS:
        rng = random.Random(906)
        system = generate_flux(build_any(entry_id), rng=rng)
        pts = sample_points(system.op, 20, rng)
        rep = check_compat(system, mode="points", points=pts)
        if not rep.passed or rep.points_checked != 20:
            ok = False
        point_runs += 1
        if not check_compat(system, mode="symbolic").passed:
            ok = False
        symbolic_runs += 1
    elapsed = time.perf_counter() - start
    announce(
        6, "compatibility identities", ok, elapsed,
        f"{symbolic_runs} symbolic systems, {point_runs} pointwise systems",
    )
    assert ok and symbolic_runs == 38
    assert elapsed < 180


def test_criterion_07_flux_structure():
    start = time.perf_counter()
    ok = True
    systems = 0
    for entry_id in NONDEGENERATE_SMALL + N8_IDS:
        system = seeded_system(entry_id, 907)
        rep = system.flux_denominator_report()
        if not rep["ok"]:
            ok = False
        n = system.op.n
        pf = system.op.pfaffian_poly()
        for k in range(n):
            num, den = lowest_terms(system.q[k], system.d)
            if not den.divides(pf):
                ok = False
            if num.degree() > n // 2:
                ok = False
        systems += 1
    elapsed = time.perf_counter() - start
    announce(7, "flux denominators and degrees", ok, elapsed, f"{systems} systems")
    assert ok and systems == 10
    assert elapsed < 60


def test_criterion_08_characteristic_polynomial_square():
    start = time.perf_counter()
    ok = True
    runs = 0
    for entry_id in NONDEGENERATE_SMALL + N8_IDS:
        system = seeded_system(entry_id, 908)
        rep = charpoly_square_symbolic(system)
        if not rep.equal:
            ok = False
        runs += 1
    elapsed = time.perf_counter() - start
    announce(8, "characteristic polynomial is a perfect square", ok, elapsed, f"{runs} systems")
    assert ok and runs == 10
    assert elapsed < 120


def test_criterion_09_haantjes_vanishing():
    start = time.perf_counter()
    nij_ok = True
    zero_points = 0
    total_points = 0
    nonzero_cases = []
    for entry_id in N6_IDS + N8_IDS:
        op = build_any(entry_id)
        for draw in range(3):
            rng = random.Random(909 + draw)
            system = generate_flux(op, rng=rng)
            for u in sample_points(system.op, 20, rng):
                direct = nijenhuis(system, u)
                closed = nijenhuis_closed_form(system, u)
                if direct != closed:
                    nij_ok = False
                h = haantjes(system, u, torsion=direct)
                total_points += 1
                if tensor_is_zero(h):
                    zero_points += 1
                elif len(nonzero_cases) < 8:
                    nonzero_cases.append(f"{entry_id}#{draw}")
    haantjes_ok = zero_points == total_points
    ok = haantjes_ok and nij_ok
    elapsed = time.perf_counter() - start
    announce(
        9, "haantjes vanishing", ok, elapsed,
        f"zero at {zero_points}/{total_points} points; nijenhuis routes agree: {nij_ok}",
    )
    assert nij_ok, "nijenhuis direct and closed forms disagree"
    assert haantjes_ok, (
        f"haantjes tensor nonzero at {total_points - zero_points} of {total_points} "
        f"sampled points (first cases: {sorted(set(nonzero_cases))}); the vanishing "
        "claim does not hold for n >= 6"
    )
    assert elapsed < 180


def test_criterion_10_diagonalizability():
    start = time.perf_counter()
    ok = True
    diag_points = 0
    for entry_id in N6_IDS:
        rng = random.Random(910)
        system = generate_flux(build(entry_id), rng=rng)
        for u in sample_points(system.op, 20, rng):
            rep = diag_check(system, u, mode="exact")
            if not (rep.certified and rep.diagonalizable and rep.square_ok):
                ok = False
            for eig in rep.eigen_data:
                if eig["algebraic"] != 2 or eig["geometric"] != 2:
                    ok = False
            diag_points += 1
    for entry_id in ("n2", "n4-open"):
        rng = random.Random(910)
        for _ in range(5):
            system = generate_flux(build(entry_id), rng=rng)
            if not linearity_report(system).is_linear:
                ok = False
    elapsed = time.perf_counter() - start
    announce(10, "diagonalizability experiments", ok, elapsed, f"{diag_points} exact points")
    assert ok and diag_points == 100
    assert elapsed < 180


def test_criterion_11_hamiltonian_density():
    start = time.perf_counter()
    ok = True
    runs = 0
    for entry_id in NONDEGENERATE_SMALL:
        rng = random.Random(911)
        op = build(entry_id)
        for _ in range(2):
            system = generate_flux(op, rng=rng)
            if not euler_check(system).passed:
                ok = False
            runs += 1
        cas = casimir_check(op)
        if not cas.nondegenerate or cas.corank != 0:
            ok = False
    if casimir_check(build("n4-degenerate")).corank != 2:
        ok = False
    elapsed = time.perf_counter() - start
    announce(11, "hamiltonian density and casimirs", ok, elapsed, f"{runs} systems")
    assert ok and runs == 14
    assert elapsed < 30


def test_criterion_12_parameter_count():
    start = time.perf_counter()
    ok = True
    for n in (2, 4, 6, 8):
        free_a = n * (n - 1) // 2
        free_b = n
        free_c = n
        if family_parameter_count(n) != n * (n + 3) // 2:
            ok = False
        if family_parameter_count(n) != free_a + free_b + free_c:
            ok = False
    rng = random.Random(912)
    flux = random_flux_params(4, rng)
    drawn = sum(1 for i in range(4) for j in range(i + 1, 4)) + len(flux.b) + 4
    if drawn != family_parameter_count(4):
        ok = False
    elapsed = time.perf_counter() - start
    announce(12, "family parameter count", ok, elapsed)
    assert ok
