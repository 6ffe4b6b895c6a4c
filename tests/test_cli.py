import json

import pytest

from hho2.cli import main


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
    code, out, err = run(capsys, "--samples", "4", "sys", "diagnose", sys_path)
    assert code == 0


def test_diagnose_reports_nonzero_torsion(tmp_path, capsys):
    op_path = str(tmp_path / "op.json")
    run(capsys, "catalog", "export", "n6-X", "--out", op_path)
    sys_path = str(tmp_path / "sys.json")
    code, out, err = run(capsys, "--seed", "3", "sys", "generate", op_path,
                         "--random", "--out", sys_path)
    assert code == 0
    code, out, err = run(capsys, "--samples", "2", "--output", "json",
                         "sys", "diagnose", sys_path)
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
    doc = json.loads(out)
    assert doc["ok"] is True
    assert doc["compatibility"]["first_order_ok"] is True
    assert doc["compatibility"]["second_order_ok"] is True
    assert doc["denominators_ok"] is True
    assert doc["pluecker_ok"] is True
    assert doc["euler_ok"] is True
    assert doc["casimir_corank"] == 0


def test_missing_file_exits_2(capsys):
    code, out, err = run(capsys, "op", "validate", "/nonexistent/op.json")
    assert code == 2


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
