import hashlib
import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction

import pytest

import hho2
from hho2 import cli
from hho2.cli import main
from hho2.poly import MAX_N


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_catalog_list(capsys):
    code, out, err = run(capsys, "catalog", "list")
    assert code == 0
    lines = [line for line in out.splitlines() if line.strip().startswith("n")]
    assert sum(1 for line in lines if line.strip().split()[0].startswith("n")) >= 11
    assert "n6-X" in out
    assert "132" in out


def test_catalog_list_json(capsys):
    code, out, err = run(capsys, "--output", "json", "catalog", "list")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["entries"]) == 11


def test_catalog_show(capsys):
    code, out, err = run(capsys, "catalog", "show", "n6-X")
    assert code == 0
    assert "u3" in out and "det" in out.lower()


def test_catalog_show_unknown_exits_2(capsys):
    code, out, err = run(capsys, "catalog", "show", "n6-nope")
    assert code == 2
    assert "unknown catalog id" in err


def test_export_validate_round_trip(tmp_path, capsys):
    dest = str(tmp_path / "op.json")
    code, out, err = run(capsys, "catalog", "export", "n4-open", "--out", dest)
    assert code == 0
    doc = json.loads(open(dest).read())
    assert doc["n"] == 4
    code, out, err = run(capsys, "op", "validate", dest)
    assert code == 0


def test_export_parametric_requires_params(tmp_path, capsys):
    code, out, err = run(capsys, "catalog", "export", "n8-fam1")
    assert code == 2
    dest = str(tmp_path / "n8.json")
    code, out, err = run(
        capsys, "catalog", "export", "n8-fam1",
        "--params", "lambda1=2", "lambda2=3", "lambda3=5", "lambda4=7",
        "--out", dest,
    )
    assert code == 0
    doc = json.loads(open(dest).read())
    assert doc["n"] == 8


@pytest.mark.parametrize(
    "entry, params, name",
    [
        ("n8-fam1", ["lambda1=2", "lambda2=3", "lambda3=5", "lambda4=7", "lambda5=1"], "lambda5"),
        ("n8-fam2-e1", ["lambda1=2", "lambda2=3", "lambda3=5", "lambda4=7"], "lambda4"),
        ("n6-X", ["lambda1=2"], "lambda1"),
    ],
    ids=["surplus", "fam2-takes-three", "fixed-entry"],
)
def test_export_refuses_unknown_parameter_names(tmp_path, capsys, entry, params, name):
    """A --params name the entry does not take exits 2 and writes nothing."""
    dest = tmp_path / "op.json"
    code, out, err = run(capsys, "catalog", "export", entry, "--params", *params, "--out", str(dest))
    assert code == 2
    assert f"error: entry {entry} takes no parameter {name}" in err
    assert not dest.exists()


def test_validate_malformed_json_exits_2(tmp_path, capsys):
    bad = write(tmp_path, "bad.json", "{ this is not json")
    code, out, err = run(capsys, "op", "validate", bad)
    assert code == 2
    assert err.strip()


def test_three_form_round_trip_byte_identical(tmp_path, capsys):
    op_path = str(tmp_path / "op.json")
    run(capsys, "catalog", "export", "n6-IX", "--out", op_path)
    form_path = str(tmp_path / "form.json")
    code, out, err = run(capsys, "op", "to-3form", op_path, "--out", form_path)
    assert code == 0
    back_path = str(tmp_path / "back.json")
    code, out, err = run(capsys, "op", "from-3form", form_path, "--out", back_path)
    assert code == 0
    assert open(back_path).read() == open(op_path).read()


def test_transform_identity_is_byte_identical(tmp_path, capsys):
    op_path = str(tmp_path / "op.json")
    run(capsys, "catalog", "export", "n4-open", "--out", op_path)
    ident = json.dumps([[1 if i == j else 0 for j in range(5)] for i in range(5)])
    out_path = str(tmp_path / "moved.json")
    code, out, err = run(capsys, "op", "transform", op_path, "--sl", ident, "--out", out_path)
    assert code == 0
    assert open(out_path).read() == open(op_path).read()


def test_transform_rejects_wrong_shape(tmp_path, capsys):
    op_path = str(tmp_path / "op.json")
    run(capsys, "catalog", "export", "n4-open", "--out", op_path)
    small = json.dumps([[1, 0], [0, 1]])
    code, out, err = run(capsys, "op", "transform", op_path, "--sl", small)
    assert code == 2


def test_conformal_check_passes(tmp_path, capsys):
    op_path = str(tmp_path / "op.json")
    run(capsys, "catalog", "export", "n4-open", "--out", op_path)
    shear = [[1, 0, 0, 0, 0],
             [2, 1, 0, 0, 0],
             [0, 0, 1, 0, 0],
             [0, -1, 0, 1, 0],
             [3, 0, 0, 0, 1]]
    code, out, err = run(
        capsys, "--seed", "5", "op", "conformal-check", op_path,
        "--sl", json.dumps(shear), "--points", "4",
    )
    assert code == 0
    assert "all conformal identities hold" in out


@pytest.mark.parametrize("entry, params", [
    ("n6-X", []),
    ("n8-fam1", ["--params", "lambda1=2", "lambda2=3", "lambda3=5", "lambda4=7"]),
])
def test_conformal_check_never_builds_the_symbolic_pfaffian(tmp_path, capsys, monkeypatch, entry, params):
    """Sample points are tested by the integer Pfaffian of the metric at the
    point: on a nondegenerate operator whose draws miss the locus, neither
    the operator nor its moved copy builds its Pfaffian polynomial."""
    op_path = str(tmp_path / "op.json")
    run(capsys, "catalog", "export", entry, *params, "--out", op_path)
    calls = []
    pfaffian_poly = hho2.Hho2.pfaffian_poly
    monkeypatch.setattr(hho2.Hho2, "pfaffian_poly", lambda self: calls.append(1) or pfaffian_poly(self))
    dim = json.loads(open(op_path).read())["n"] + 1
    sl = hho2.LinearMapN1.random_sl(dim, random.Random(4)).to_json()
    code, out, err = run(capsys, "--seed", "7", "op", "conformal-check", op_path, "--sl", sl, "--points", "6")
    assert code == 0, err
    assert "all conformal identities hold" in out
    assert calls == []


def test_conformal_check_skips_poles(tmp_path, capsys):
    """The map swapping u1 with the homogeneous coordinate has affine factor
    A(u) = u1, so a drawn point with u1 = 0 is a pole of the chart.  n4-open
    has Pfaffian 1, so poles are the only points skipped: the checked points
    are the identity map's points of the same seed with u1 = 0 removed."""
    op_path = str(tmp_path / "op.json")
    run(capsys, "catalog", "export", "n4-open", "--out", op_path)
    swap = [[int(j == {0: 4, 4: 0}.get(i, i)) for j in range(5)] for i in range(5)]

    def checked(sl, count):
        code, out, err = run(capsys, "--seed", "3", "--coefficient-range", "1", "--output", "json",
                             "op", "conformal-check", op_path, "--sl", sl, "--points", str(count))
        assert code == 0, err
        report = json.loads(out)
        assert report["points_checked"] == count and report["ok"]
        return [point["point"] for point in report["points"]]

    moved = checked(json.dumps(swap), 10)
    drawn = checked(_identity(5), 30)
    off_poles = [point for point in drawn if point[0] != "0"]
    assert moved == off_poles[:10]
    assert moved != drawn[:10]


def test_one_parser_serves_every_run(tmp_path, capsys):
    """The parser is built once per process; rerunning different subcommands,
    bad arguments included, gives the same exit code and output every time."""
    op_path = str(tmp_path / "op.json")
    run(capsys, "catalog", "export", "n4-open", "--out", op_path)
    shear = json.dumps([[1, 0, 0, 0, 0], [2, 1, 0, 0, 0], [0, 0, 1, 0, 0], [0, -1, 0, 1, 0], [3, 0, 0, 0, 1]])
    commands = [
        ["catalog", "list"],
        ["--output", "json", "op", "validate", op_path],
        ["--seed", "4", "op", "conformal-check", op_path, "--sl", shear, "--points", "2"],
        ["op", "transform", op_path, "--sl", shear],
        ["catalog", "show", "n6-nope"],
        ["op", "transform", op_path],
        ["--coefficient-range", "0", "catalog", "list"],
    ]

    def outcome(argv):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    first = [outcome(argv) for argv in commands]
    assert [code for code, _, _ in first] == [0, 0, 0, 0, 2, 2, 2]
    assert "required: --sl" in first[5][2] and "--coefficient-range must be at least 1" in first[6][2]
    for _ in range(2):
        assert [outcome(argv) for argv in reversed(commands)] == first[::-1]
    assert cli._build_parser() is cli._build_parser()


def _parser_exit(capsys, *argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    return exc.value.code, capsys.readouterr().err


def _identity(dim):
    return json.dumps([[int(i == j) for j in range(dim)] for i in range(dim)])


_EVERY_COMMAND = (
    ["catalog", "list"], ["catalog", "show", "n2"], ["catalog", "export", "n2"],
    ["op", "validate", "op.json"], ["op", "transform", "op.json", "--sl", "[[1]]"],
    ["op", "conformal-check", "op.json", "--sl", "[[1]]"], ["op", "to-3form", "op.json"],
    ["op", "from-3form", "form.json"], ["sys", "generate", "op.json", "--random"],
    ["sys", "verify", "sys.json"], ["sys", "diagnose", "sys.json"],
)


@pytest.mark.parametrize("option", [["--samples", "2"], ["--mode", "float"], ["--digits", "30"]],
                         ids=["samples", "mode", "digits"])
def test_command_options_before_the_group_exit_2(capsys, option):
    """Only --seed, --coefficient-range and --output are global: an option of
    one command, or the retired --samples, is refused before the group."""
    for command in _EVERY_COMMAND:
        assert _parser_exit(capsys, *option, *command)[0] == 2, command


@pytest.mark.parametrize(
    "argv, message",
    [
        (["sys", "diagnose", "{sys}", "--points", "0"], "--points must be at least 1"),
        (["sys", "diagnose", "{sys}", "--points", "-3"], "--points must be at least 1"),
        (["op", "conformal-check", "{op}", "--sl", _identity(5), "--points", "0"], "--points must be at least 1"),
        (["--coefficient-range", "-1", "sys", "generate", "{op}", "--random"], "--coefficient-range must be at least 1"),
        (["--coefficient-range", "-1", "sys", "diagnose", "{sys}"], "--coefficient-range must be at least 1"),
        (["--coefficient-range", "0", "op", "conformal-check", "{op}", "--sl", _identity(5)],
         "--coefficient-range must be at least 1"),
        (["sys", "diagnose", "{sys}", "--mode", "float", "--points", "1", "--digits", "0"], "--digits must be at least 1"),
        (["sys", "diagnose", "{sys}", "--mode", "float", "--points", "1", "--digits", "-5"],
         "--digits must be at least 1"),
        (["sys", "diagnose", "{sys}", "--points", "1", "--digits", "7"], "--digits needs --mode float"),
    ],
    ids=["diagnose-points-0", "diagnose-points-neg", "conformal-points-0",
         "generate-range-neg", "diagnose-range-neg", "conformal-range-0",
         "diagnose-digits-0", "diagnose-digits-neg", "diagnose-digits-exact"],
)
def test_counts_and_ranges_below_one_exit_2(tmp_path, capsys, argv, message):
    """A count below 1 would check nothing, a range below 1 leaves no sample
    box, and fewer than 1 digit leaves mpmath no precision, while digits
    outside the float mode would be read by nothing: all are refused before
    any work."""
    op_path = str(tmp_path / "op.json")
    run(capsys, "catalog", "export", "n4-open", "--out", op_path)
    sys_path = str(tmp_path / "sys.json")
    run(capsys, "--seed", "3", "sys", "generate", op_path, "--random", "--out", sys_path)
    code, err = _parser_exit(capsys, *(arg.format(op=op_path, sys=sys_path) for arg in argv))
    assert code == 2
    assert message in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["sys", "diagnose", "{sys}", "--points", str(cli.MAX_POINTS + 1)], "--points"),
        (["op", "conformal-check", "{op}", "--sl", _identity(5), "--points", str(10 ** 9)], "--points"),
    ],
    ids=["diagnose-points", "conformal-points"],
)
def test_counts_above_the_cap_exit_2(tmp_path, capsys, argv, message):
    """Point counts are bounded before any point is drawn or any report
    allocated; the cap itself is accepted."""
    op_path = str(tmp_path / "op.json")
    run(capsys, "catalog", "export", "n4-open", "--out", op_path)
    sys_path = str(tmp_path / "sys.json")
    run(capsys, "--seed", "3", "sys", "generate", op_path, "--random", "--out", sys_path)
    code, err = _parser_exit(capsys, *(arg.format(op=op_path, sys=sys_path) for arg in argv))
    assert code == 2
    assert f"{message} must be at most {cli.MAX_POINTS}" in err
    assert cli._build_parser().parse_args(["sys", "diagnose", sys_path, "--points", str(cli.MAX_POINTS)]).points \
        == cli.MAX_POINTS


def test_digits_above_the_cap_exit_2(tmp_path, capsys):
    """The float precision is bounded before any point is evaluated; the cap
    itself is accepted."""
    op_path = str(tmp_path / "op.json")
    run(capsys, "catalog", "export", "n2", "--out", op_path)
    sys_path = str(tmp_path / "sys.json")
    run(capsys, "--seed", "3", "sys", "generate", op_path, "--random", "--out", sys_path)
    float_diagnose = ["sys", "diagnose", sys_path, "--mode", "float", "--points", "1"]
    code, err = _parser_exit(capsys, *float_diagnose, "--digits", str(cli.MAX_DIGITS + 1))
    assert code == 2
    assert f"--digits must be at most {cli.MAX_DIGITS}" in err
    assert run(capsys, *float_diagnose, "--digits", str(cli.MAX_DIGITS))[0] == 0


@pytest.mark.parametrize("value", [str(cli.MAX_COEFFICIENT_RANGE + 1), "1" + "0" * 1500, "1" + "0" * 5000],
                         ids=["cap-plus-1", "1500-digits", "above-int-str-limit"])
@pytest.mark.parametrize(
    "argv",
    [
        ["sys", "generate", "{op}", "--random"],
        ["sys", "diagnose", "{sys}", "--points", "1"],
        ["op", "conformal-check", "{op}", "--sl", _identity(5), "--points", "1"],
    ],
    ids=["generate", "diagnose", "conformal-check"],
)
def test_coefficient_range_above_the_cap_exits_2(tmp_path, capsys, argv, value):
    """The coefficient range is bounded before any coefficient is drawn, so a
    huge bound never reaches the 4300-digit string limit inside a report."""
    op_path = str(tmp_path / "op.json")
    run(capsys, "catalog", "export", "n4-open", "--out", op_path)
    sys_path = str(tmp_path / "sys.json")
    run(capsys, "--seed", "3", "sys", "generate", op_path, "--random", "--out", sys_path)
    args = [arg.format(op=op_path, sys=sys_path) for arg in argv]
    code, err = _parser_exit(capsys, "--coefficient-range", value, *args)
    assert code == 2
    assert "argument --coefficient-range" in err and "Traceback" not in err
    if value == str(cli.MAX_COEFFICIENT_RANGE + 1):
        assert f"--coefficient-range must be at most {cli.MAX_COEFFICIENT_RANGE}" in err
    if len(value) > 4300:
        # Past Python's int string limit the bound answers, and the value is not echoed.
        assert len(err) < 400 and f"--coefficient-range must be at most {cli.MAX_COEFFICIENT_RANGE}" in err


def test_coefficient_range_at_the_cap_diagnoses_n8(tmp_path, capsys):
    """At the cap, an n=8 flux drawn from the whole range diagnoses at a point
    drawn from it and the report prints: the factors of its characteristic
    polynomial stay below the 4300-digit string limit."""
    cap = str(cli.MAX_COEFFICIENT_RANGE)
    op_path = str(tmp_path / "n8.json")
    run(capsys, "catalog", "export", "n8-fam1", "--params", "lambda1=2", "lambda2=3", "lambda3=5", "lambda4=7",
        "--out", op_path)
    sys_path = str(tmp_path / "sys.json")
    assert run(capsys, "--seed", "1", "--coefficient-range", cap, "sys", "generate", op_path, "--random",
               "--out", sys_path)[0] == 0
    code, out, err = run(capsys, "--seed", "1", "--coefficient-range", cap, "--output", "json",
                         "sys", "diagnose", sys_path, "--points", "1")
    # Exit 1 is the known Haantjes failure at n = 8 (README, "Known red").
    assert code == 1, err
    report = json.loads(out)["report"]
    assert report["charpoly_square_ok"] and report["all_diagonalizable"]
    assert max(len(x) for x in report["diag"][0]["point"]) > 90


# Pf(g) = u1^3 - u1 vanishes wherever u1 is -1, 0 or 1: with
# --coefficient-range 1 every sample point lies on the degeneracy locus.
_LOCUS_COVERS_BOX = {
    "n": 8,
    "T": [[1, 3, 4, "1"], [1, 5, 6, "1"], [1, 7, 8, "1"]],
    "g0": [[1, 2, "1"], [5, 6, "1"], [7, 8, "-1"]],
    "params": {},
}


@pytest.mark.parametrize(
    "argv",
    [
        ["sys", "diagnose", "{sys}"],
        ["op", "conformal-check", "{op}", "--sl", _identity(9)],
    ],
    ids=["diagnose", "conformal-check"],
)
def test_sampling_failure_exits_2(tmp_path, capsys, argv):
    op_path = write(tmp_path, "op.json", json.dumps(_LOCUS_COVERS_BOX))
    sys_path = str(tmp_path / "sys.json")
    assert run(capsys, "--seed", "1", "sys", "generate", op_path, "--random", "--out", sys_path)[0] == 0
    code, out, err = run(capsys, "--coefficient-range", "1", *(arg.format(op=op_path, sys=sys_path) for arg in argv))
    assert code == 2
    assert "sampling failed to avoid the degeneracy locus" in err


def test_verify_draws_no_points(tmp_path, capsys):
    """`sys verify` proves compatibility in Z[u] at every n, so a system whose
    whole coefficient box lies on the degeneracy locus still verifies."""
    op_path = write(tmp_path, "op.json", json.dumps(_LOCUS_COVERS_BOX))
    sys_path = str(tmp_path / "sys.json")
    assert run(capsys, "--seed", "1", "sys", "generate", op_path, "--random", "--out", sys_path)[0] == 0
    code, out, err = run(capsys, "--coefficient-range", "1", "--output", "json", "sys", "verify", sys_path)
    assert code == 0, err
    doc = json.loads(out)
    assert doc["compatibility"] == {
        "mode": "symbolic", "first_order_ok": True, "second_order_ok": True, "points_checked": None,
    }
    assert doc["ok"] is True


def test_generate_verify_diagnose_pipeline(tmp_path, capsys):
    op_path = str(tmp_path / "op.json")
    run(capsys, "catalog", "export", "n4-open", "--out", op_path)
    sys_path = str(tmp_path / "sys.json")
    code, out, err = run(capsys, "--seed", "3", "sys", "generate", op_path,
                         "--random", "--out", sys_path)
    assert code == 0
    doc = json.loads(open(sys_path).read())
    assert doc["op"]["n"] == 4 and len(doc["B"]) == 4
    code, out, err = run(capsys, "sys", "verify", sys_path)
    assert code == 0
    code, out, err = run(capsys, "sys", "diagnose", sys_path, "--points", "4")
    assert code == 0
    code, out, err = run(capsys, "--output", "json", "sys", "diagnose", sys_path,
                         "--mode", "float", "--digits", "30", "--points", "1")
    assert code == 0, err
    assert [point["mode"] for point in json.loads(out)["report"]["diag"]] == ["float"]


# Runs in a fresh interpreter: exact `sys diagnose` on n4-open and n8-fam1
# (exit 1 there: its Haantjes tensor is nonzero, README "Known red"), then
# `diag_check` at one n6-X point, and fails if any of it imported sympy.
_NO_SYMPY_SCRIPT = """
import random, sys
from hho2 import ConservativeSystem, cli
from hho2.diagnostics import diag_check, sample_points
folder = sys.argv[1]
assert cli.main(["sys", "diagnose", folder + "/n4-open.sys.json", "--points", "2"]) == 0
assert cli.main(["sys", "diagnose", folder + "/n8-fam1.sys.json", "--points", "2"]) == 1
system = ConservativeSystem.from_json(open(folder + "/n6-X.sys.json").read())
assert diag_check(system, sample_points(system.op, 1, random.Random(5))[0]).certified
assert "sympy" not in sys.modules, "the exact diagnose path imported sympy"
"""


def test_exact_diagnose_never_imports_sympy(tmp_path, capsys):
    n8 = ["--params", "lambda1=2", "lambda2=3", "lambda3=5", "lambda4=7"]
    for entry, params in (("n4-open", []), ("n8-fam1", n8), ("n6-X", [])):
        op_path, sys_path = str(tmp_path / f"{entry}.json"), str(tmp_path / f"{entry}.sys.json")
        assert run(capsys, "catalog", "export", entry, *params, "--out", op_path)[0] == 0
        assert run(capsys, "--seed", "909", "sys", "generate", op_path, "--random", "--out", sys_path)[0] == 0
    src = os.path.dirname(os.path.dirname(os.path.abspath(hho2.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    result = subprocess.run([sys.executable, "-c", _NO_SYMPY_SCRIPT, str(tmp_path)],
                            capture_output=True, text=True, env=env, timeout=120)
    assert result.returncode == 0, result.stderr


# Runs in a fresh interpreter: `sys generate --random` and `sys verify` on
# every nondegenerate catalog entry, the n = 8 families at lambda = 2, 3, 5, 7,
# and fails if any of it imported sympy.  n6-VIII has the Pfaffian u1*u4, and
# some of its flux components share a factor with it.
_GENERATE_VERIFY_NO_SYMPY_SCRIPT = """
import json
import sys
from hho2 import catalog, cli
folder = sys.argv[1]
for entry in catalog.list_entries():
    if entry.degenerate:
        continue
    values = [f"{name}={value}" for name, value in zip(entry.params, (2, 3, 5, 7))]
    op, system = f"{folder}/{entry.id}.json", f"{folder}/{entry.id}.sys.json"
    assert cli.main(["catalog", "export", entry.id, *(["--params", *values] if values else []), "--out", op]) == 0
    for seed in ("3", "909"):
        assert cli.main(["--seed", seed, "sys", "generate", op, "--random", "--out", system]) == 0
        assert cli.main(["sys", "verify", system]) == 0
# A constant flux on n6-X: each numerator Q_k is D c_k, a multiple of the Pfaffian.
op, system = f"{folder}/n6-X.json", f"{folder}/n6-X.constant.sys.json"
assert cli.main(["sys", "generate", op, "--A", json.dumps([[0] * 6] * 6), "--B", json.dumps([0] * 6),
                 "--constants", "1,1,1,1,1,1", "--out", system]) == 0
assert cli.main(["sys", "verify", system]) == 0
assert "sympy" not in sys.modules, "sys generate or sys verify imported sympy"
"""


def test_generate_and_verify_never_import_sympy(tmp_path):
    src = os.path.dirname(os.path.dirname(os.path.abspath(hho2.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    result = subprocess.run([sys.executable, "-c", _GENERATE_VERIFY_NO_SYMPY_SCRIPT, str(tmp_path)],
                            capture_output=True, text=True, env=env, timeout=120)
    assert result.returncode == 0, result.stderr


def test_diagnose_reports_nonzero_torsion(tmp_path, capsys):
    op_path = str(tmp_path / "op.json")
    run(capsys, "catalog", "export", "n6-X", "--out", op_path)
    sys_path = str(tmp_path / "sys.json")
    code, out, err = run(capsys, "--seed", "3", "sys", "generate", op_path,
                         "--random", "--out", sys_path)
    assert code == 0
    code, out, err = run(capsys, "--output", "json", "sys", "diagnose", sys_path, "--points", "2")
    assert code == 1
    doc = json.loads(out)
    body = doc["report"]
    assert body["haantjes_zero"] is False
    assert body["nijenhuis_routes_agree"] is True
    assert body["all_diagonalizable"] is True
    assert doc["ok"] is False


def test_generate_explicit_flux_and_constants(tmp_path, capsys):
    op_path = str(tmp_path / "op.json")
    run(capsys, "catalog", "export", "n2", "--out", op_path)
    a = json.dumps([["0", "1"], ["-1", "0"]])
    b = json.dumps(["0", "0"])
    sys_path = str(tmp_path / "sys.json")
    code, out, err = run(capsys, "sys", "generate", op_path, "--A", a, "--B", b,
                         "--constants", "1,2", "--out", sys_path)
    assert code == 0
    doc = json.loads(open(sys_path).read())
    assert doc["constants"] == ["1", "2"]
    code, out, err = run(capsys, "sys", "verify", sys_path)
    assert code == 0


def test_generate_flux_of_the_wrong_size_exits_2(tmp_path, capsys):
    """A and B that fit each other but not the operator are bad input."""
    op_path = str(tmp_path / "op.json")
    run(capsys, "catalog", "export", "n2", "--out", op_path)
    code, out, err = run(capsys, "sys", "generate", op_path,
                         "--A", "[[0,1,0],[-1,0,0],[0,0,0]]", "--B", "[1,2,3]")
    assert code == 2
    assert err == "error: bad flux data: A and B are for n=3, the operator has n=2\n"


@pytest.mark.parametrize("constants, message", [(None, "constants must list n values"),
                                                (["1", 2.5], "not an exact rational"),
                                                (["1"], "constants must have length n")])
def test_system_with_bad_constants_exits_2(tmp_path, capsys, constants, message):
    op_path = str(tmp_path / "op.json")
    run(capsys, "catalog", "export", "n2", "--out", op_path)
    sys_path = str(tmp_path / "sys.json")
    assert run(capsys, "--seed", "3", "sys", "generate", op_path, "--random", "--out", sys_path)[0] == 0
    doc = json.loads(open(sys_path).read())
    doc["constants"] = constants
    bad = write(tmp_path, "bad.json", json.dumps(doc))
    code, out, err = run(capsys, "sys", "verify", bad)
    assert code == 2
    assert err.startswith("error:") and message in err
    assert "Traceback" not in err


@pytest.mark.parametrize("key, value", [("B", "12"), ("constants", "34"), ("B", {"1": 0, "2": 0}),
                                        ("constants", {"3": 0, "4": 0})])
def test_system_flux_vectors_must_be_lists(tmp_path, capsys, key, value):
    # A string or an object of n keys has length n too; neither is a list.
    op_path = str(tmp_path / "op.json")
    run(capsys, "catalog", "export", "n2", "--out", op_path)
    sys_path = str(tmp_path / "sys.json")
    assert run(capsys, "--seed", "3", "sys", "generate", op_path, "--random", "--out", sys_path)[0] == 0
    doc = json.loads(open(sys_path).read())
    doc[key] = value
    code, out, err = run(capsys, "sys", "verify", write(tmp_path, "bad.json", json.dumps(doc)))
    assert code == 2
    assert err.startswith("error:") and f"{key} must list n values" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("a, b", [
    ('["00","00"]', "[1,2]"),
    ('{"01": 0, "10": 0}', "[1,2]"),
    ("[[0,1],[-1,0]]", '{"1": 0, "2": 0}'),
    ("[[0,1],[-1,0]]", '"12"'),
])
def test_generate_flux_data_must_be_lists(tmp_path, capsys, a, b):
    op_path = str(tmp_path / "op.json")
    run(capsys, "catalog", "export", "n2", "--out", op_path)
    b_arg = b if b.startswith(("[", "{")) else write(tmp_path, "b.json", b)
    code, out, err = run(capsys, "sys", "generate", op_path, "--A", a, "--B", b_arg)
    assert code == 2
    assert err == "error: bad flux data: A must be a list of row lists and B a list\n"
    assert "Traceback" not in err


@pytest.mark.parametrize("flags", [["--A", "garbage"], ["--B", "[1,2]"], ["--A", "[[0,1],[-1,0]]", "--B", "[1,2]"]],
                         ids=["A", "B", "A-and-B"])
def test_generate_random_with_flux_data_exits_2(tmp_path, capsys, flags):
    """--random draws A and B itself, so --A or --B beside it would be
    ignored: refused, well-formed or not."""
    op_path = str(tmp_path / "op.json")
    run(capsys, "catalog", "export", "n2", "--out", op_path)
    code, out, err = run(capsys, "sys", "generate", op_path, "--random", *flags)
    assert code == 2
    assert err == "error: --random draws A and B; it cannot be combined with --A or --B\n"
    assert out == ""


def test_generate_degenerate_operator_exits_2(tmp_path, capsys):
    op_path = str(tmp_path / "op.json")
    run(capsys, "catalog", "export", "n4-degenerate", "--out", op_path)
    code, out, err = run(capsys, "--seed", "1", "sys", "generate", op_path, "--random")
    assert code == 2
    assert "pfaffian" in err.lower() or "degenerate" in err.lower()


def test_seeded_reports_are_byte_reproducible(tmp_path, capsys):
    op_path = str(tmp_path / "op.json")
    run(capsys, "catalog", "export", "n4-open", "--out", op_path)
    first = str(tmp_path / "a.json")
    second = str(tmp_path / "b.json")
    third = str(tmp_path / "c.json")
    run(capsys, "--seed", "11", "sys", "generate", op_path, "--random", "--out", first)
    run(capsys, "--seed", "11", "sys", "generate", op_path, "--random", "--out", second)
    run(capsys, "--seed", "12", "sys", "generate", op_path, "--random", "--out", third)
    assert open(first).read() == open(second).read()
    assert open(first).read() != open(third).read()


def test_json_output_parses_for_verify(tmp_path, capsys):
    op_path = str(tmp_path / "op.json")
    run(capsys, "catalog", "export", "n4-open", "--out", op_path)
    sys_path = str(tmp_path / "sys.json")
    run(capsys, "--seed", "7", "sys", "generate", op_path, "--random", "--out", sys_path)
    code, out, err = run(capsys, "--output", "json", "sys", "verify", sys_path)
    assert code == 0
    # No option before the group reaches the proof, and no report echoes one.
    assert run(capsys, "--seed", "5", "--coefficient-range", "3", "--output", "json", "sys", "verify", sys_path)[1] == out
    doc = json.loads(out)
    assert doc["ok"] is True
    assert doc["compatibility"]["first_order_ok"] is True
    assert doc["compatibility"]["second_order_ok"] is True
    assert doc["denominators_ok"] is True
    assert doc["pluecker_ok"] is True
    assert doc["euler_ok"] is True
    assert doc["casimir_corank"] == 0


@pytest.mark.parametrize("params", [[], 0, None, False, "", "x"],
                         ids=["list", "zero", "null", "false", "empty-string", "string"])
def test_operator_params_must_be_empty_object(tmp_path, capsys, params):
    op_path = write(tmp_path, "op.json", json.dumps({"n": 2, "T": [], "g0": [[1, 2, "1"]], "params": params}))
    code, out, err = run(capsys, "op", "validate", op_path)
    assert code == 2
    assert f"{op_path}: params: " in err


def test_missing_file_exits_2(capsys):
    code, out, err = run(capsys, "op", "validate", "/nonexistent/op.json")
    assert code == 2


# An operator document nested far past Python's recursion limit.
_DEEP = '{"n": 2, "T": ' + "[" * 5000 + "]" * 5000 + "}"


@pytest.mark.parametrize("document", ["deep", "not-utf-8"])
@pytest.mark.parametrize("command", ["op-validate", "sys-verify", "op-from-3form", "op-transform-sl", "sys-generate-A"])
def test_unreadable_documents_exit_2(tmp_path, capsys, document, command):
    """A document nested too deeply for the JSON reader, or one that is not
    UTF-8, is bad input: one error line naming the source, exit 2.  The
    deep --A of sys generate is given inline, the other one as a file."""
    good_op = write(tmp_path, "good.json", json.dumps({"n": 2, "T": [], "g0": [[1, 2, "1"]]}))
    path = tmp_path / "doc.json"
    if document == "deep":
        path.write_text(_DEEP)
    else:
        path.write_bytes(b"\xff\xfe{}")
    source = _DEEP if command == "sys-generate-A" and document == "deep" else str(path)
    argv = {
        "op-validate": ("op", "validate", source),
        "sys-verify": ("sys", "verify", source),
        "op-from-3form": ("op", "from-3form", source),
        "op-transform-sl": ("op", "transform", good_op, "--sl", source),
        "sys-generate-A": ("sys", "generate", good_op, "--A", source, "--B", "[0, 0]"),
    }[command]
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith(f"error: {source}: " if document == "deep" else f"error: cannot read {source}: ")
    assert err.count("\n") == 1 and "Traceback" not in err


def _system_doc(a_value, b_value):
    op = {"n": 2, "T": [], "g0": [[1, 2, "1"]], "params": {}}
    return json.dumps({"op": op, "A": [[1, 2, a_value]], "B": [b_value, "0"]})


@pytest.mark.parametrize("bad", [0.1, 2.0, True])
def test_inexact_values_exit_2(tmp_path, capsys, bad):
    def assert_rejected(*argv):
        code, out, err = run(capsys, *argv)
        assert code == 2, argv
        assert err.startswith("error: ") and repr(bad) in err
        assert "Traceback" not in err

    op_doc = {"n": 2, "T": [], "g0": [[1, 2, bad]]}
    assert_rejected("op", "validate", write(tmp_path, "op.json", json.dumps(op_doc)))
    op_t = {"n": 4, "T": [[1, 2, 3, bad]], "g0": [[1, 4, "1"], [2, 3, "1"]]}
    assert_rejected("op", "validate", write(tmp_path, "op_t.json", json.dumps(op_t)))
    assert_rejected("sys", "verify", write(tmp_path, "sys_a.json", _system_doc(bad, "0")))
    assert_rejected("sys", "verify", write(tmp_path, "sys_b.json", _system_doc("1", bad)))
    good_op = write(tmp_path, "good.json", json.dumps({"n": 2, "T": [], "g0": [[1, 2, "1"]]}))
    assert_rejected("sys", "generate", good_op, "--A", json.dumps([["0", bad], ["-1", "0"]]),
                    "--B", json.dumps(["0", "0"]))
    assert_rejected("sys", "generate", good_op, "--A", json.dumps([["0", "1"], ["-1", "0"]]),
                    "--B", json.dumps([bad, "0"]))
    form = {"dim": 3, "coeffs": [[1, 2, 3, bad]]}
    assert_rejected("op", "from-3form", write(tmp_path, "form.json", json.dumps(form)))
    rows = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    rows[0][1] = bad
    assert_rejected("op", "transform", good_op, "--sl", json.dumps(rows))
    assert_rejected("op", "transform", good_op, "--sl", json.dumps({"entries": rows}))


def _bad_rational_argv(case, bad, tmp_path):
    """argv of one command that reads `bad` as a rational, per input kind."""
    good_op = write(tmp_path, "good.json", json.dumps({"n": 2, "T": [], "g0": [[1, 2, "1"]]}))
    if case == "op-g0":
        return "op", "validate", write(tmp_path, "op.json", json.dumps({"n": 2, "T": [], "g0": [[1, 2, bad]]}))
    if case == "op-T":
        doc = {"n": 4, "T": [[1, 2, 3, bad]], "g0": [[1, 4, "1"], [2, 3, "1"]]}
        return "op", "validate", write(tmp_path, "op.json", json.dumps(doc))
    if case == "sys-A":
        return "sys", "verify", write(tmp_path, "sys.json", _system_doc(bad, "0"))
    if case == "sys-B":
        return "sys", "verify", write(tmp_path, "sys.json", _system_doc("1", bad))
    if case == "sys-constants":
        doc = json.loads(_system_doc("1", "0"))
        doc["constants"] = [bad, "0"]
        return "sys", "verify", write(tmp_path, "sys.json", json.dumps(doc))
    if case == "3form":
        return "op", "from-3form", write(tmp_path, "form.json", json.dumps({"dim": 3, "coeffs": [[1, 2, 3, bad]]}))
    if case == "linear-map":
        return "op", "transform", good_op, "--sl", json.dumps([[1, bad, 0], [0, 1, 0], [0, 0, 1]])
    if case == "--params":
        return ("catalog", "export", "n8-fam1", "--params", f"lambda1={bad}", "lambda2=3", "lambda3=5",
                "lambda4=7")
    if case == "--constants":
        return "sys", "generate", good_op, "--random", "--constants", f"{bad},0"
    if case == "--A":
        return "sys", "generate", good_op, "--A", json.dumps([["0", bad], ["-1", "0"]]), "--B", '["0", "0"]'
    assert case == "--B"
    return "sys", "generate", good_op, "--A", '[["0", "1"], ["-1", "0"]]', "--B", json.dumps([bad, "0"])


@pytest.mark.parametrize("bad", ["1/0", "1e4300"])
@pytest.mark.parametrize("case", ["op-g0", "op-T", "sys-A", "sys-B", "sys-constants", "3form", "linear-map",
                                  "--params", "--constants", "--A", "--B"])
def test_bad_rational_strings_exit_2(tmp_path, capsys, case, bad):
    # A zero denominator used to raise ZeroDivisionError, and "1e4300" was
    # read as a 4301-digit integer that no report could print.
    code, out, err = run(capsys, *_bad_rational_argv(case, bad, tmp_path))
    assert code == 2
    assert err.startswith("error: ") and repr(bad) in err, err
    assert "Traceback" not in err


@pytest.mark.parametrize("bad", [[1], None])
@pytest.mark.parametrize("case", ["sys-A", "sys-B", "sys-constants"])
def test_non_scalar_rationals_exit_2(tmp_path, capsys, case, bad):
    # A list or null used to reach Fraction() and exit with its message,
    # "argument should be a string or a Rational instance".
    code, out, err = run(capsys, *_bad_rational_argv(case, bad, tmp_path))
    assert code == 2
    assert err.startswith("error: ") and f"{bad!r} is not an exact rational" in err, err
    assert "Traceback" not in err


@pytest.mark.parametrize("doc", ['"op"', "5", "[1, 2]", "null"])
def test_system_document_must_be_an_object(tmp_path, capsys, doc):
    # A string or a number used to be indexed or searched for "op" and exit
    # with a Python message such as "string indices must be integers".
    code, out, err = run(capsys, "sys", "verify", write(tmp_path, "sys.json", doc))
    assert code == 2
    assert err.startswith("error: ") and "malformed system document: expected an object" in err, err
    assert "Traceback" not in err


def _assert_exit_2_at(capsys, where, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 2, argv
    assert err.startswith("error: ") and f": {where}: " in err, err
    assert "Traceback" not in err
    return err


_NOT_INTEGERS = [True, 1.0, "6", None, [1]]


@pytest.mark.parametrize("bad", _NOT_INTEGERS)
def test_operator_reader_accepts_only_integer_n_and_indices(tmp_path, capsys, bad):
    good = {"n": 4, "T": [[1, 2, 3, "1"]], "g0": [[1, 4, "1"], [2, 3, "1"]]}
    for where, edit in (("n", lambda d: d.update(n=bad)),
                        ("T[0]", lambda d: d["T"][0].__setitem__(0, bad)),
                        ("g0[1]", lambda d: d["g0"][1].__setitem__(1, bad))):
        doc = json.loads(json.dumps(good))
        edit(doc)
        path = write(tmp_path, "op.json", json.dumps(doc))
        _assert_exit_2_at(capsys, where, "op", "validate", path)


@pytest.mark.parametrize("bad", _NOT_INTEGERS)
def test_system_reader_accepts_only_integer_indices(tmp_path, capsys, bad):
    doc = json.loads(_system_doc("1", "0"))
    doc["A"][0][0] = bad
    path = write(tmp_path, "sys.json", json.dumps(doc))
    _assert_exit_2_at(capsys, "A[0]", "sys", "verify", path)


@pytest.mark.parametrize("bad", _NOT_INTEGERS)
def test_3form_reader_accepts_only_integer_dim_and_indices(tmp_path, capsys, bad):
    for where, doc in (("dim", {"dim": bad, "coeffs": [[1, 2, 3, "1"]]}),
                       ("coeffs[0]", {"dim": 3, "coeffs": [[1, bad, 3, "1"]]})):
        path = write(tmp_path, "form.json", json.dumps(doc))
        _assert_exit_2_at(capsys, where, "op", "from-3form", path)


@pytest.mark.parametrize("bad", [True, 0.5, None, [1], "x"])
def test_linear_map_reader_names_the_bad_entry(tmp_path, capsys, bad):
    good_op = write(tmp_path, "good.json", json.dumps({"n": 2, "T": [], "g0": [[1, 2, "1"]]}))
    rows = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    rows[2][1] = bad
    for sl in (rows, {"entries": rows}):
        _assert_exit_2_at(capsys, "entries[2][1]", "op", "transform", good_op, "--sl", json.dumps(sl))
    for sl, where in (([[1, 0, 0], "010", [0, 0, 1]], "entries[1]"), ({"entries": 5}, "entries")):
        _assert_exit_2_at(capsys, where, "op", "transform", good_op, "--sl", json.dumps(sl))


@pytest.mark.parametrize("dim", [9, "x", True, 5.0, 5])
def test_linear_map_dim_must_be_the_integer_row_count(tmp_path, capsys, dim):
    op_path = str(tmp_path / "op.json")
    run(capsys, "catalog", "export", "n4-open", "--out", op_path)
    sl = write(tmp_path, "sl.json", json.dumps({"dim": dim, "entries": json.loads(_identity(5))}))
    if type(dim) is int and dim == 5:
        assert run(capsys, "op", "transform", op_path, "--sl", sl)[0] == 0
    else:
        _assert_exit_2_at(capsys, "dim", "op", "transform", op_path, "--sl", sl)


def _assert_over_cap(capsys, where, n, *argv):
    assert f"n = {n} is above the cap n <= {MAX_N}" in _assert_exit_2_at(capsys, where, *argv)


def test_readers_refuse_n_above_the_cap_before_building(tmp_path, capsys):
    big = {"n": 5000, "T": [], "g0": []}
    path = write(tmp_path, "big.json", json.dumps(big))
    start = time.perf_counter()
    _assert_over_cap(capsys, "n", 5000, "op", "validate", path)
    assert time.perf_counter() - start < 1
    over = {"n": MAX_N + 2, "T": [], "g0": []}
    _assert_over_cap(capsys, "n", MAX_N + 2, "op", "validate", write(tmp_path, "over.json", json.dumps(over)))
    system = write(tmp_path, "sys.json", json.dumps({"op": big, "A": [], "B": []}))
    _assert_over_cap(capsys, "n", 5000, "sys", "verify", system)
    form = write(tmp_path, "form.json", json.dumps({"dim": 5001, "coeffs": []}))
    _assert_over_cap(capsys, "dim", 5000, "op", "from-3form", form)
    good_op = write(tmp_path, "good.json", json.dumps({"n": 2, "T": [], "g0": [[1, 2, "1"]]}))
    rows = [[int(i == j) for j in range(MAX_N + 2)] for i in range(MAX_N + 2)]
    for sl in (rows, {"entries": rows}):
        _assert_over_cap(capsys, "entries", MAX_N + 1, "op", "transform", good_op, "--sl", json.dumps(sl))


def test_largest_n_is_accepted(tmp_path, capsys):
    op_path = str(tmp_path / "op.json")
    code, out, err = run(capsys, "catalog", "export", "n8-fam2-e1",
                         "--params", "lambda1=2", "lambda2=3", "lambda3=5", "--out", op_path)
    assert code == 0, err
    assert json.loads(open(op_path).read())["n"] == MAX_N
    ident = json.dumps([[int(i == j) for j in range(MAX_N + 1)] for i in range(MAX_N + 1)])
    moved = str(tmp_path / "moved.json")
    code, out, err = run(capsys, "op", "transform", op_path, "--sl", ident, "--out", moved)
    assert code == 0, err
    assert open(moved).read() == open(op_path).read()


def test_from_3form_rejects_dimension_2(tmp_path, capsys):
    path = write(tmp_path, "form.json", json.dumps({"dim": 2, "coeffs": []}))
    code, out, err = run(capsys, "op", "from-3form", path)
    assert code == 2
    assert "a 3-form needs dimension at least 3" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("output", ["text", "json"])
def test_generate_stdout_without_out(tmp_path, capsys, output):
    op_path = str(tmp_path / "op.json")
    run(capsys, "catalog", "export", "n4-open", "--out", op_path)
    sys_path = str(tmp_path / "sys.json")
    argv = ["--seed", "5", "--output", output, "sys", "generate", op_path, "--random"]
    code, out, err = run(capsys, *argv, "--out", sys_path)
    assert code == 0
    written = open(sys_path).read()
    code, out, err = run(capsys, *argv)
    assert code == 0
    if output == "text":
        lines = out.splitlines()
        assert lines[0] == "generated conservative system on n=4"
        assert lines[-1] + "\n" == written
    else:
        doc = json.loads(out)
        assert doc["command"] == "sys generate"
        assert doc["system"] == json.loads(written)


_GOLDEN_ENTRIES = (
    ("n2", []),
    ("n4-open", []),
    ("n6-X", []),
    ("n8-fam1", ["--params", "lambda1=2", "lambda2=3", "lambda3=5", "lambda4=7"]),
)


# Entries whose generated system also goes through `sys diagnose`, which pins
# the exact eigenstructure (charpoly, factors and multiplicities) byte for
# byte, with the expected exit status: the Haantjes tensor is nonzero for
# n >= 6 (see README, "Known red: criterion 09").
_GOLDEN_DIAGNOSE = {"n4-open": 0, "n6-X": 1, "n8-fam1": 1}


def _fixed_sl(dim):
    """A fixed determinant-one map with a non-constant affine factor: a unit
    lower triangular matrix times a unit upper triangular one."""
    lower = [[Fraction(int(i == j)) if j >= i else Fraction((3 * i + j) % 4 - 1, 2) for j in range(dim)]
             for i in range(dim)]
    upper = [[Fraction(int(i == j)) if j <= i else Fraction((i + 2 * j) % 5 - 2, 1 + (i + j) % 2) for j in range(dim)]
             for i in range(dim)]
    rows = [[sum(lower[i][k] * upper[k][j] for k in range(dim)) for j in range(dim)] for i in range(dim)]
    return json.dumps([[str(x) for x in row] for row in rows])


def _second_sl(dim):
    """Another fixed determinant-one map with fractional entries: the
    transpose of `_fixed_sl`."""
    rows = json.loads(_fixed_sl(dim))
    return json.dumps([list(col) for col in zip(*rows)])


# Entries whose document moved by `_fixed_sl` (a table with fractional
# entries, so a Pfaffian with Fraction coefficients) is validated, moved again
# and conformally checked.
_GOLDEN_MOVED = ("n6-X", "n8-fam1")


def _golden_digests(tmp_path, capsys):
    digests = {}

    def digest(name, *argv, expect=0):
        code, out, err = run(capsys, *argv)
        assert code == expect, (name, err)
        assert not out.startswith("{") or "config" not in json.loads(out), name  # reports echo no options
        digests[name] = hashlib.sha256(out.encode()).hexdigest()
        return out

    for entry, params in _GOLDEN_ENTRIES:
        op_path = str(tmp_path / f"{entry}.json")
        assert run(capsys, "catalog", "export", entry, *params, "--out", op_path)[0] == 0
        n = json.loads(open(op_path).read())["n"]
        digest(f"{entry} show", "--output", "json", "catalog", "show", entry)
        digest(f"{entry} validate", "op", "validate", op_path)
        form = digest(f"{entry} to-3form", "op", "to-3form", op_path)
        digest(f"{entry} from-3form", "op", "from-3form", write(tmp_path, f"{entry}.form.json", form))
        moved = digest(f"{entry} transform", "op", "transform", op_path, "--sl", _fixed_sl(n + 1))
        if entry in _GOLDEN_MOVED:
            moved_path = write(tmp_path, f"{entry}.moved.json", moved)
            digest(f"{entry} moved validate", "op", "validate", moved_path)
            digest(f"{entry} moved transform", "op", "transform", moved_path, "--sl", _second_sl(n + 1))
            digest(f"{entry} moved conformal-check", "--seed", "909", "--output", "json", "op", "conformal-check",
                   moved_path, "--sl", _second_sl(n + 1), "--points", "2")
            # A system on a table with fractional entries: the pointwise
            # record carries a metric denominator t_den > 1.
            moved_sys = digest(f"{entry} moved generate", "--seed", "909", "--output", "json", "sys", "generate",
                               moved_path, "--random")
            moved_sys_path = write(tmp_path, f"{entry}.moved.sys.json", json.dumps(json.loads(moved_sys)["system"]))
            digest(f"{entry} moved diagnose", "--seed", "909", "--output", "json", "sys", "diagnose",
                   moved_sys_path, "--points", "3", expect=1)
            if n == 8:
                # The compatibility proof and the Casimir rank of a dense
                # linear metric on a moved n = 8 table.
                digest(f"{entry} moved verify", "--seed", "909", "--output", "json", "sys", "verify", moved_sys_path)
        generated = digest(f"{entry} generate", "--seed", "909", "--output", "json", "sys", "generate", op_path, "--random")
        if entry in _GOLDEN_DIAGNOSE:
            sys_path = write(tmp_path, f"{entry}.sys.json", json.dumps(json.loads(generated)["system"]))
            # Symbolic compatibility at every n: verify draws no points.
            digest(f"{entry} verify", "--seed", "909", "--output", "json", "sys", "verify", sys_path)
            digest(f"{entry} diagnose", "--seed", "909", "--output", "json", "sys", "diagnose", sys_path, "--points", "3",
                   expect=_GOLDEN_DIAGNOSE[entry])
    return digests


# SHA-256 of the stdout of each command in `_golden_digests`.  A change to how
# operators are stored or converted must leave every seeded output byte as it
# is; a digest changes only with an intended change of output.
_GOLDEN = {
    "n2 show": "b7770678f275d87eb9da8e7c67d801a10cb394d6d9bf7db60b11585a4f15e2ae",
    "n2 validate": "78fbe5a060f831b129aa8f8066fb915dfb72995d1d46a8e24e2e69f43c4fbf4e",
    "n2 to-3form": "24def14cad883bbf36d08947e9ce63549e0aae2cf3d05de7d48fb2242f741ecf",
    "n2 from-3form": "ef44458d8d3ce36cfd4429d9e655e5d4b16d53636daa40689e7286b5960113db",
    "n2 transform": "ef44458d8d3ce36cfd4429d9e655e5d4b16d53636daa40689e7286b5960113db",
    "n2 generate": "3233dee1fb769f9db8e57c557fa020ab36c0888a85bf45d63fdbab9dcb7fe78d",
    "n4-open show": "a5ce237aba7ac5eb028923b447a6eed9fe1bc8def42d2bef35a991cee2034533",
    "n4-open validate": "3a22209e84ac911810e3179ff4602787d0442c859a7455e71f2cc748e90f2911",
    "n4-open to-3form": "3789db1f9c34965966b8dad04c40b00938246d6bae5ea2025dac67b8151dee1a",
    "n4-open from-3form": "bb003bf5db48544aed13b0f824baa18c85f7d1c70878ba4824f97da9335be7db",
    "n4-open transform": "d46e1107192866bfffd74fec240c07d94ce9b183f6615426857e1260a43a558f",
    "n4-open generate": "fbb2b875e1de842674f94b7874e825a14b282de525254fa76b8659c5a2d2d781",
    "n4-open verify": "f4d88e465c1ef3893aab2491e8d0ef7d3f0e58cbebb30e2adbb0b05987a2d5e2",
    "n4-open diagnose": "923b2782615f4cb1c204aa34be2af03dca26cb996f15c99e6487e68322df86a6",
    "n6-X show": "bb45916ba028ba1769e0a1d02dc6abcb766050e118f2593d449f3d7329c09c0c",
    "n6-X validate": "18abe4275f58a3b52eb012228e3257524540c4ae98e87d8e12dfbe18a1969fab",
    "n6-X to-3form": "7032fd721ffbac30b69f852829b0484c517df3a21ba60ee6f8b6d83cacbe9f4a",
    "n6-X from-3form": "47b0cc3b573f084e4ad420892d004a40c2056ed25fcb637ceeec75612fb72e2d",
    "n6-X transform": "40d92caaa0d89c3427463971ccd8a3040aa6f1aaa24de138645a39fd73d00340",
    "n6-X moved validate": "ec140610f013bb735e64639aa31f07284f5aea627c167b0d23acff3d7c307ecb",
    "n6-X moved transform": "8aac4091cb36ccfbb5366fcda7a596db1419d9ab32ced5f0078d89cb534a1fd2",
    "n6-X moved conformal-check": "864cf7b9351dc5b13d4577fc092eca56808fac96e9e084874d255f9a7d22ffec",
    "n6-X moved generate": "13d1e02aa2f4041fc4364b829a509b4f9c294cea54168778f96034482e7bc2f7",
    "n6-X moved diagnose": "66fe80fc62f7ff34b316f6e6d918758dff4bde4a26e891d620c72c8337383814",
    "n6-X generate": "e4fc5e2fb013182cc9b698550788361bc5ebe4e62673bbca60989ab146415042",
    "n6-X verify": "02d77f41bbf62fb1fa6d3109088cd6e4095c03abb8ac011256d38fc3b396d437",
    "n6-X diagnose": "5d2c83d3092d79f4b228418ea4aa39249dbd76c82d02dbf87e604921de2eec6a",
    "n8-fam1 show": "94b58c9e2286f14ec4fb99044d34647e2e084b08d528df2b60c5efca0bc201c7",
    "n8-fam1 validate": "87a9a870840344501415b9f219e474b7d306f6c4a26f38876be3646eb9532226",
    "n8-fam1 to-3form": "cc2e00c999b7ca146b6a7a3763edcd5da06f776d66bb8601e403b72f0b5c9f93",
    "n8-fam1 from-3form": "f6f2383bb0ee403482c758ec4384279b944abb102644796e2e8fb6fcf06031d3",
    "n8-fam1 transform": "f596b7d6dc4e17d919aeb0a1fab23f7522b8a992ea96a27cda6811cf9bc269d4",
    "n8-fam1 moved validate": "5e42cd794642e44947653dbc0acdf71f5845fa6312eddb6d227477e6cc213f1b",
    "n8-fam1 moved transform": "62317f633e2b2e8a1d54b0ae9169982ded320aa062e56e403fb8d7e572b4cb58",
    "n8-fam1 moved conformal-check": "07119b792051cb2c5ca8e8390cc18e4bf39b7638133e0804c1d1b88ced9cf511",
    "n8-fam1 moved generate": "a9f5c132ba880675eca0c024bc03a5cd985aab929ef4e77a6673feaa5b0cf61c",
    "n8-fam1 moved diagnose": "f6bdf94b3ec375460f53c0875a1635ff1f6e7894a487fc821f753252980a2785",
    "n8-fam1 moved verify": "d97d41085dfe1e35b7aca2368e725c1355b4eda4a99333bc1b33abf682f879e9",
    "n8-fam1 generate": "ebb3d9048652ecd0aea70d55c46dcb834a7742d9583d2c6876796aecdbe409e6",
    "n8-fam1 verify": "d97d41085dfe1e35b7aca2368e725c1355b4eda4a99333bc1b33abf682f879e9",
    "n8-fam1 diagnose": "f758f18ed776a3c7c5d96c1f406c5af512a2887919b9dc5e13ad95a14aa4d1ab",
}


# SHA-256 of `catalog show` for each parametric entry, text and JSON, but
# the JSON of n8-fam1, which `_GOLDEN` holds: the metric is printed with the
# parameters left as symbols.
_PARAMETRIC_SHOW = {
    ("n8-fam1", "text"): "30595d916a6a9a81d266aeca0da890f4d090a38f63f645993865e2b0bda38781",
    ("n8-fam2-e1", "text"): "f798d5324c7c7ed235b282fbbd1a172fb91734ca2f181ae8feae6627d9cb8f70",
    ("n8-fam2-e1", "json"): "d8ec4361e7958ad322d29f95c8ac3fec692064f693e9b0f8f4569bbcc6ff8671",
    ("n8-fam2-e2", "text"): "563728dca32a1ffd54eff26fbc7651a07881dcb22a5dc59bf4d9e7bcedbaf9c3",
    ("n8-fam2-e2", "json"): "f81aa3147811b6a91771c3dce98152c3a1a7131df03ec76351a3b478be922b2e",
}


@pytest.mark.parametrize("entry, output", list(_PARAMETRIC_SHOW))
def test_parametric_show_matches_recorded_digests(capsys, entry, output):
    code, out, err = run(capsys, "--output", output, "catalog", "show", entry)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == _PARAMETRIC_SHOW[(entry, output)]


def test_seeded_outputs_match_recorded_digests(tmp_path, capsys):
    assert _golden_digests(tmp_path, capsys) == _GOLDEN
