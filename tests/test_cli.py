"""Command line behavior: exit codes, output stability, JSON shape."""

import dataclasses
import hashlib
import json
import subprocess
import sys

import pytest

from qminkowski.cli import main, run_suites
from qminkowski.exact import Mat, ONE
from qminkowski.instance import builtin, instance_to_dict, write_instance

from test_calculus import shifted, z_perturbed

# sha256 of `report --builtin classical ARGS` stdout and of its --json file.
REPORT_PINS = [
    ((), "abd24a79fff32f0dec27de79efa82c66f7c3dbc01a627cf2a47e88c4d716bcf8",
     "40162857b17242029a7663fcd29833f56ea37bf917ae1eebcf8b0279eb17bc49"),
    (("--b", "1", "--n", "3"),
     "1ee36f11c21a2a109ef614fc475dfbaf5dd11d51f7cbabcb6465d44c5a48cfa9",
     "d35ca04d656ff100336d1595beb15198b0323a984c30476cf180eb3989e077cd"),
]

# Exit code and stdout sha256 of each other subcommand, on `--builtin
# classical` and on twisted_tshift().
SUBCOMMAND_PINS = [
    (("validate",),
     (0, "d03329ebf85aff831f282303ebe03c65544de4a24d5a98c9969b37d87c189fb7"),
     (0, "370a37ad0c2641f062fd4a24a2b62e2ae517d75d9706f729c17299c0e5e3af4b")),
    (("pbw", "--degree", "6"),
     (0, "760967df217f861a22229f56708e9a4cea9ea7362c3b859da7fb198ec6940028"),
     (1, "992e2853491606928c54de05a12bd34cafc12c8a3f2038019fcbdf4a7cd708e2")),
    (("calculus", "--degree", "5"),
     (0, "7432054c806787e4ed2f96358c7b8ffb09d83e2e861e389f7e3480b6c5b5cf3c"),
     (1, "0102e5cd36c98c4479ec5bc1885c2114c93241c145e4034e0cb2850705ddc368")),
    (("dirac", "--degree", "4"),
     (0, "201a0b15a3ae13d0833c731c9effb836a24f47d65f58369badec2a574be4bbe4"),
     (1, "e6530ee668ed0880e8008777ec993b8b0c42092b2c6fcd45149e973bce1e8fae")),
    (("braiding", "--b", "1", "--k", "-1"),
     (0, "21d5065adca083bded8a49475738428cc2f1ff60ebf71ebf7b14eed0850512b1"),
     (1, "bb325a4bee1b11810a7329cad72f7c0e9bfffed007fe4727b61fd23cf7ed4637")),
    (("fock", "--n", "4"),
     (0, "1de59bd6c80b4e23791f1e7928ac4aef78c3432fe21240da1ecb4da904ffa041"),
     (0, "5d88131686fb92560e81073484e5fd4ec9f92c493d0191581a71fb7e26b55a65")),
]


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


def test_pbw_at_degree_8(capsys):
    code, out, _ = run(capsys, "pbw", "--builtin", "classical", "--degree",
                       "8")
    assert code == 0
    (profile,) = [line for line in out.splitlines() if "profile" in line]
    assert profile.endswith("120, 165]")


def test_negative_b_as_separate_argument(capsys):
    for command in ("braiding", "report"):
        spaced = run(capsys, command, "--builtin", "classical", "--b",
                     "-1/2")
        joined = run(capsys, command, "--builtin", "classical",
                     "--b=-1/2")
        assert spaced == joined
        assert spaced[0] in (0, 1)


def test_report_help_states_lorentz_degree(capsys):
    code, out, _ = run(capsys, "report", "--help")
    assert code == 0
    assert "lorentz suite always runs at degree 4" in " ".join(out.split())


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
    # fock has no spinor-block sign: nothing it checks depends on k
    code, _, err = run(capsys, "fock", "--builtin", "classical", "--k", "-1")
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


def test_calculus_at_degree_6(capsys, tmp_path):
    path = tmp_path / "tshift.json"
    write_instance(shifted("tshift", {1: ONE}), str(path))   # T[(0,1)] = 1
    for source in (("--builtin", "classical"), (str(path),)):
        code, out, _ = run(capsys, "calculus", *source, "--degree", "6")
        assert code == 0
        checks = out.splitlines()[2:-1]
        assert [line.split()[:2] for line in checks] == [
            ["pass", name + ":"] for name in (
                "obstruction", "differential", "leibniz",
                "partial-exchange", "box-commutes")]
        assert all(line.endswith("degree <= 6") for line in checks[1:])


def test_fock_braid_relation_needs_three(capsys):
    code, out, _ = run(capsys, "fock", "--builtin", "classical")
    assert code == 0
    assert "skipped" in out
    code, out, _ = run(capsys, "fock", "--builtin", "classical", "--n", "3")
    assert code == 0
    assert "braid-relation" in out and "skipped" not in out


def test_report_json_schema(capsys, tmp_path):
    path = tmp_path / "report.json"
    for args, _, json_sha in REPORT_PINS:
        code, out, _ = run(capsys, "report", "--builtin", "classical",
                           *args, "--json", str(path))
        assert code == 0
        assert hashlib.sha256(path.read_bytes()).hexdigest() == json_sha
        doc = json.loads(path.read_text())
        assert set(doc) == {"instance", "suites", "pass"}
        assert doc["pass"] is True
        names = [s["name"] for s in doc["suites"]]
        assert names == ["validate", "pbw", "calculus", "dirac", "lorentz",
                         "braiding", "fock"]
        for s in doc["suites"]:
            assert set(s) == {"name", "pass", "details"}


def test_report_runs_are_identical(capsys):
    for args, out_sha, _ in REPORT_PINS:
        code1, out1, _ = run(capsys, "report", "--builtin", "classical",
                             *args)
        code2, out2, _ = run(capsys, "report", "--builtin", "classical",
                             *args)
        assert code1 == code2 == 0
        assert out1 == out2
        assert hashlib.sha256(out1.encode()).hexdigest() == out_sha


def twisted_tshift():
    """Flip R with sigma_02 = sigma_20 = -1, and T[(0,1)] = 1.

    The calculus obstructs, and x_2 reduces to 0 in the cap-4 quotient
    (profile [1, 3, 6, 20, 35]).
    """
    r = Mat.zeros(16, 16)
    for a in range(4):
        for b in range(4):
            sign = -ONE if {a, b} == {0, 2} else ONE
            r.data[16 * (4 * b + a) + 4 * a + b] = sign
    t = Mat.zeros(16, 1)
    t.data[1] = ONE
    return dataclasses.replace(builtin("classical"), name="twisted-tshift",
                               R=r, T=t)


def suite_blocks(out):
    """[(suite, verdict, [line tags])] read from report stdout."""
    blocks = []
    for line in out.splitlines():
        if line.startswith("suite "):
            name, verdict = line[len("suite "):].split(": ")
            blocks.append((name, verdict, []))
        elif line.startswith("  "):
            blocks[-1][2].append(line.split()[0])
    return blocks


def test_one_gating_rule(capsys, tmp_path):
    inst = tmp_path / "twisted.json"
    write_instance(twisted_tshift(), str(inst))
    path = tmp_path / "report.json"
    for source in (("--builtin", "classical", "--b", "i"), (str(inst),)):
        code, out, _ = run(capsys, "report", *source, "--json", str(path))
        blocks = suite_blocks(out)
        # a suite fails exactly when one of its lines is FAIL; info lines,
        # whatever they report, never change a verdict
        for name, verdict, tags in blocks:
            assert set(tags) <= {"pass", "FAIL", "info"}, name
            assert verdict == ("FAIL" if "FAIL" in tags else "pass"), name
        assert any(v == "pass" and "info" in tags for _, v, tags in blocks)
        failed = any(v == "FAIL" for _, v, _ in blocks)
        assert failed and code == 1
        assert out.endswith("overall: FAIL\n")
        doc = json.loads(path.read_text())
        assert doc["pass"] is False
        assert [(s["name"], "pass" if s["pass"] else "FAIL",
                 [d.split()[0] for d in s["details"]])
                for s in doc["suites"]] == blocks
    # an advisory check that did not pass still lets its suite pass
    rep = run_suites(twisted_tshift(), ("validate",))
    (validate,) = rep.suites
    assert validate.passed and rep.passed
    assert [c.name for c in validate.checks if not c.passed] == \
        ["calculus-obstruction"]


# sha256 of `report FILE` stdout and of its --json file, off the classical
# point: they take the FAIL paths (obstruction witness, Clifford residual,
# star-closed, and for twisted_tshift a profile mismatch).
OFF_CLASSICAL_PINS = [
    (twisted_tshift,
     "74743452a2a71d216d412c34a91bb097d1e30640bf3b90e31515c0ca5c9effff",
     "d31ec025973fdda08bb0ffc853ac15bcef91a06b70c8a08408c369f44f0872c4"),
    (z_perturbed,
     "9f974737baaa7fa11c9f92b8734c2f954049e2ca3539388e7baa6089afe7cb8a",
     "382462c2cc4bcd1a136913863d5bb8349acff20ebfe5ea72592d8edf7ebf5e31"),
]


def test_off_classical_reports_are_pinned(capsys, tmp_path):
    inst = tmp_path / "inst.json"
    path = tmp_path / "report.json"
    for make, out_sha, json_sha in OFF_CLASSICAL_PINS:
        write_instance(make(), str(inst))
        code, out, _ = run(capsys, "report", str(inst), "--json", str(path))
        assert code == 1
        assert hashlib.sha256(out.encode()).hexdigest() == out_sha
        assert hashlib.sha256(path.read_bytes()).hexdigest() == json_sha


def test_subcommands_are_pinned(capsys, tmp_path):
    twisted = tmp_path / "twisted.json"
    write_instance(twisted_tshift(), str(twisted))
    for args, classical, off in SUBCOMMAND_PINS:
        for source, want in ((("--builtin", "classical"), classical),
                             ((str(twisted),), off)):
            code, out, _ = run(capsys, *args, *source)
            got = (code, hashlib.sha256(out.encode()).hexdigest())
            assert got == want, args + source


def test_report_json_unwritable_path(capsys, tmp_path):
    for target in (tmp_path / "missing" / "out.json", tmp_path):
        code, out, err = run(capsys, "report", "--builtin", "classical",
                             "--json", str(target))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1


def test_fock_counit_compares_normal_forms(capsys, tmp_path):
    inst = tmp_path / "twisted.json"
    write_instance(twisted_tshift(), str(inst))
    code, out, _ = run(capsys, "fock", str(inst))
    assert "pass coaction-counit" in out
    assert code == 0


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
