"""Command line behavior: exit codes, flags, errors and what one run builds."""

import collections
import dataclasses
import json
import subprocess
import sys

import qminkowski.braiding as braiding
import qminkowski.calculus as calculus
import qminkowski.dirac as dirac
import qminkowski.fock as fock
import qminkowski.lorentz as lorentz
import qminkowski.minkowski as minkowski
from qminkowski.cli import _SUITES, run_suites
from qminkowski.exact import Mat, Scalar, ZERO
from qminkowski.instance import builtin, instance_to_dict, write_instance

from shared import ROOT, leibniz_breaking, run, tshift, twisted_tshift, \
    z_perturbed


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
    text = " ".join(out.split())
    assert "lorentz suite always runs at degree 4" in text
    assert "dirac suite at degree 3 and the fock suite at cap 4" in text


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
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200000 + "]" * 200000)   # deeper than json recurses
    code, out, err = run(capsys, "validate", str(deep))
    assert code == 2 and out == ""
    assert err.startswith("error: invalid JSON") and err.count("\n") == 1


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
    write_instance(tshift(), str(path))   # T[(0,1)] = 1
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


def test_moved_twisted_box_commutes_names_its_witness(capsys):
    # the metric frame does not move with the coordinates; ROADMAP item 15
    # (frame covariance) re-pins the calculus row of tests/test_pins.py
    _, out, _ = run(capsys, "calculus",
                    str(ROOT / "instances" / "moved-twisted.json"),
                    "--degree", "5")
    assert "  FAIL box-commutes: degree <= 5; fails at w=(0, 0, 1), i=0" \
        in out.splitlines()


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


def test_singular_rq_is_not_cotriangular(capsys, tmp_path):
    # R = 0 makes R_Q singular; cotriangularity has one rule, which reads
    # that as "no" in braiding and in fock, and fock skips its braided checks
    inst = tmp_path / "singular.json"
    write_instance(dataclasses.replace(builtin("classical"), name="zero-r",
                                       R=Mat.zeros(16, 16)), str(inst))
    code, out, err = run(capsys, "report", str(inst))
    assert (code, err) == (1, "")
    braiding, fock = out.split("suite braiding: FAIL\n")[1] \
        .split("suite fock: pass\n")
    assert "  FAIL rq-invertible: 25x25 extended matrix\n" in braiding
    assert "  info cotriangular: no\n" in braiding
    assert fock == ("  pass coaction-counit: (counit (x) id) after coaction "
                    "is the identity\n"
                    "  info cotriangular: no\n"
                    "  info braided-checks: skipped: evaluator is not "
                    "cotriangular\n"
                    "overall: FAIL\n")
    code, out, err = run(capsys, "fock", str(inst))
    assert (code, err) == (0, "")


def test_entry_point_subprocess():
    cmd = [sys.executable, "-m", "qminkowski", "validate",
           "--builtin", "classical"]
    proc = subprocess.run(cmd, capture_output=True)
    assert proc.returncode == 0
    assert b"overall: pass" in proc.stdout


# Calls main once per argv in a fresh interpreter; prints [exit code,
# stdout, stderr] for each call as one JSON list.
MAIN_IN_SEQUENCE = """
import contextlib, io, json, sys
from qminkowski.cli import main
runs = []
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    runs.append([code, out.getvalue(), err.getvalue()])
print(json.dumps(runs))
"""


def main_in_one_process(argvs):
    cmd = [sys.executable, "-c", MAIN_IN_SEQUENCE, json.dumps(argvs)]
    proc = subprocess.run(cmd, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def test_parser_reuse_keeps_every_byte_and_exit_code():
    # the parser is built on the first main call of a process and reused:
    # help, a usage error and a run, one after another, give what each
    # gives in a process of its own
    argvs = [["--help"], ["validate", "--builtin", "classical", "--bogus"],
             ["validate", "--builtin", "classical"]]
    alone = [main_in_one_process([argv])[0] for argv in argvs]
    assert main_in_one_process(argvs) == alone
    assert [code for code, _, _ in alone] == [0, 2, 0]
    assert alone[0][1].startswith("usage: qminkowski")
    assert "unrecognized arguments: --bogus" in alone[1][2]
    assert alone[2][1].endswith("overall: pass\n")


def test_huge_witness_prints_without_traceback(tmp_path):
    # Z[(0,1),0] has 4,000 digits, so the obstruction witness has about
    # 8,000: more than str() gives an int by default
    z = [ZERO] * 64
    z[4] = Scalar(10 ** 3999 + 7)
    path = tmp_path / "big.json"
    write_instance(dataclasses.replace(builtin("classical"), name="big-z",
                                       Z=Mat(16, 4, z)), str(path))
    cmd = [sys.executable, "-m", "qminkowski", "calculus", str(path)]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    assert proc.returncode == 1
    assert "  FAIL obstruction: obstruction entry (5, 0) = " in proc.stdout
    assert "Traceback" not in proc.stdout + proc.stderr


def test_file_input_round_trip(capsys, tmp_path):
    path = tmp_path / "c.json"
    write_instance(builtin("classical"), str(path))
    code, out, _ = run(capsys, "dirac", str(path))
    assert code == 0
    assert "clifford" in out


def count_calls(monkeypatch, calls, module, name, key, label=None):
    """Wrap module.name so that each call appends key(*args) to
    calls[label], which defaults to name."""
    real = getattr(module, name)

    def counted(*args):
        calls[label or name].append(key(*args))
        return real(*args)

    monkeypatch.setattr(module, name, counted)


def test_one_run_builds_each_shared_object_once(monkeypatch, capsys,
                                                 tmp_path):
    """A report whose quotient has only t-exponent-0 rules builds one
    Minkowski quotient, at the largest cap a suite reads, and one calculus
    over it, at every --degree: the dirac suite reads the calculus suite's
    calculus, and pbw and fock share its quotient.  A positive t-exponent
    (leibniz_breaking) keeps a quotient and calculus of its own per smaller
    cap; f_tilde runs once per report, and an obstruction builds
    nothing."""
    calls = collections.defaultdict(list)
    for module, name, key in (
            (braiding, "build_rq", lambda inst, b: b),
            (braiding, "ct_check", lambda ev: None),
            (minkowski, "build_quotient", lambda gens, rels, cap: cap),
            (minkowski, "pbw_check", lambda alg, n: alg.cap),
            (calculus, "FirstOrderCalculus", lambda inst, alg: alg.cap),
            (calculus, "f_tilde", lambda inst: None),
            (dirac, "dirac_square_check",
             lambda calc, gs, n: (calc.alg.cap, n)),
            (fock, "coaction", lambda alg, p: alg.cap)):
        count_calls(monkeypatch, calls, module, name, key)
    # minkowski.build_quotient already counts under "build_quotient"
    count_calls(monkeypatch, calls, lorentz, "build_quotient",
                lambda gens, rels, cap: cap, label="lorentz_quotient")
    rep = run_suites(builtin("classical"), tuple(_SUITES))
    assert rep.passed
    assert calls["build_rq"] == [Scalar(0)] and calls["ct_check"] == [None]
    assert calls["build_quotient"] == [4]
    assert calls["lorentz_quotient"] == [4]
    assert calls["FirstOrderCalculus"] == [4]
    assert calls["f_tilde"] == [None]
    assert calls["dirac_square_check"] == [(4, 3)]
    # report --degree 6 moves only the pbw and calculus suites; the dirac
    # suite reads the cap-6 calculus at degree 3, fock the cap-6 quotient
    calls.clear()
    code, _, _ = run(capsys, "report", "--builtin", "classical", "--degree",
                     "6")
    assert code == 0
    assert calls["pbw_check"] == [6]
    assert calls["build_quotient"] == [6]
    assert calls["FirstOrderCalculus"] == [6]
    assert calls["f_tilde"] == [None]
    assert calls["dirac_square_check"] == [(6, 3)]
    assert set(calls["coaction"]) == {6}
    assert calls["lorentz_quotient"] == [4]
    # a rule with t-exponent 3 at cap 4: the dirac suite builds its own
    # cap-3 calculus over a cap-3 quotient
    calls.clear()
    run_suites(leibniz_breaking(), tuple(_SUITES))
    assert calls["FirstOrderCalculus"] == [4, 3]
    assert calls["f_tilde"] == [None]
    assert calls["build_quotient"] == [4, 3]
    assert calls["dirac_square_check"] == [(3, 3)]
    # an obstructed instance: one f_tilde call, no calculus
    calls.clear()
    run_suites(z_perturbed(), tuple(_SUITES))
    assert calls["f_tilde"] == [None]
    assert calls["FirstOrderCalculus"] == []
    assert calls["build_quotient"] == [4]
    assert calls["dirac_square_check"] == []
    # report --degree 2 and 3 build the cap-4 quotient fock reads first,
    # and it serves pbw, calculus and dirac at their smaller caps; at
    # --degree 5 the calculus suite sets the cap
    for degree, cap in (("2", 4), ("3", 4), ("5", 5)):
        calls.clear()
        code, _, _ = run(capsys, "report", "--builtin", "classical",
                         "--degree", degree)
        assert code == 0
        assert calls["build_quotient"] == [cap]
        assert calls["FirstOrderCalculus"] == [cap]
        assert calls["f_tilde"] == [None]
        assert calls["pbw_check"] == [cap]
        assert calls["dirac_square_check"] == [(cap, 3)]
    # with a positive t-exponent no quotient serves a smaller cap, so
    # pbw and calculus (cap 2), dirac (cap 3) and fock (cap 4) each build
    calls.clear()
    run_suites(leibniz_breaking(), tuple(_SUITES), degree=2)
    assert len(calls["build_quotient"]) == 3
    assert set(calls["build_quotient"]) == {2, 3, 4}
    assert calls["FirstOrderCalculus"] == [2, 3]
    assert calls["f_tilde"] == [None]
    assert calls["dirac_square_check"] == [(3, 3)]
    # an obstructed calculus or dirac subcommand builds no quotient at all
    path = tmp_path / "z.json"
    write_instance(z_perturbed(), str(path))
    for argv in (("calculus", "--degree", "5"), ("dirac", "--degree", "4")):
        calls.clear()
        code, _, _ = run(capsys, *argv, str(path))
        assert code == 1
        assert calls["build_quotient"] == []
        assert calls["FirstOrderCalculus"] == []
        assert calls["f_tilde"] == [None]
