"""Command line behavior: exit codes, output stability, JSON shape."""

import json
import subprocess
import sys

import pytest

from qminkowski.cli import main
from qminkowski.instance import builtin, instance_to_dict


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_validate_classical(capsys):
    code, out, err = run(capsys, "validate", "--builtin", "classical")
    assert code == 0
    assert "overall: pass" in out


def test_pbw_prints_profile(capsys):
    code, out, _ = run(capsys, "pbw", "--builtin", "classical")
    assert code == 0
    assert "[1, 4, 10, 20, 35]" in out


def test_requires_exactly_one_source(capsys, tmp_path):
    f = tmp_path / "c.json"
    f.write_text(json.dumps(instance_to_dict(builtin("classical"))))
    code, _, err = run(capsys, "pbw", str(f), "--builtin", "classical")
    assert code == 2 and err
    code, _, err = run(capsys, "pbw")
    assert code == 2 and err


def test_instance_file_errors(capsys, tmp_path):
    code, _, err = run(capsys, "validate", str(tmp_path / "nope.json"))
    assert code == 2 and err
    bad = tmp_path / "bad.json"
    bad.write_text("{]")
    code, _, err = run(capsys, "validate", str(bad))
    assert code == 2 and err
    d = instance_to_dict(builtin("classical"))
    d["q"] = [2, 1, 0, 1]
    hard = tmp_path / "hard.json"
    hard.write_text(json.dumps(d))
    code, _, err = run(capsys, "validate", str(hard))
    assert code == 2 and err
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes(b'{"name": "caf\xe9"}')   # not UTF-8
    code, _, err = run(capsys, "validate", str(latin1))
    assert code == 2 and err
    huge = tmp_path / "huge.json"
    huge.write_text('{"name": ' + "9" * 5000 + "}")   # int over 4,300 digits
    code, _, err = run(capsys, "validate", str(huge))
    assert code == 2 and err


def test_unknown_builtin(capsys):
    code, _, err = run(capsys, "pbw", "--builtin", "nope")
    assert code == 2 and err


def test_flag_validation(capsys):
    code, _, err = run(capsys, "fock", "--builtin", "classical", "--n", "9")
    assert code == 2 and err
    code, _, err = run(capsys, "pbw", "--builtin", "classical",
                       "--degree", "1")
    assert code == 2 and err
    code, _, err = run(capsys, "braiding", "--builtin", "classical",
                       "--b", "zz")
    assert code == 2 and err
    code, _, err = run(capsys, "braiding", "--builtin", "classical",
                       "--k", "2")
    assert code == 2 and err


def test_braiding_b_gates_exit_code(capsys):
    code, out, _ = run(capsys, "braiding", "--builtin", "classical",
                       "--b", "1")
    assert code == 0
    assert "info cotriangular: no" in out
    code, out, _ = run(capsys, "braiding", "--builtin", "classical",
                       "--b", "i")
    assert code == 1
    assert "FAIL star-compatible" in out


def test_fock_braid_relation_needs_three(capsys):
    code, out, _ = run(capsys, "fock", "--builtin", "classical")
    assert code == 0
    assert "skipped" in out
    code, out, _ = run(capsys, "fock", "--builtin", "classical", "--n", "3")
    assert code == 0
    assert "braid-relation" in out and "skipped" not in out


def test_report_json_schema(capsys, tmp_path):
    path = tmp_path / "report.json"
    code, out, _ = run(capsys, "report", "--builtin", "classical",
                       "--json", str(path))
    assert code == 0
    doc = json.loads(path.read_text())
    assert set(doc) == {"instance", "suites", "pass"}
    assert doc["pass"] is True
    names = [s["name"] for s in doc["suites"]]
    assert names == ["validate", "pbw", "calculus", "dirac", "lorentz",
                     "braiding", "fock"]
    for s in doc["suites"]:
        assert set(s) == {"name", "pass", "details"}


def test_report_runs_are_identical(capsys):
    code1, out1, _ = run(capsys, "report", "--builtin", "classical")
    code2, out2, _ = run(capsys, "report", "--builtin", "classical")
    assert code1 == code2 == 0
    assert out1 == out2


def test_entry_point_subprocess():
    cmd = [sys.executable, "-m", "qminkowski", "validate",
           "--builtin", "classical"]
    proc = subprocess.run(cmd, capture_output=True)
    assert proc.returncode == 0
    assert b"overall: pass" in proc.stdout


def test_file_input_round_trip(capsys, tmp_path):
    from qminkowski.instance import write_instance
    path = tmp_path / "c.json"
    write_instance(builtin("classical"), str(path))
    code, out, _ = run(capsys, "dirac", str(path))
    assert code == 0
    assert "clifford" in out
