"""Command line behavior: exit codes, output stability, JSON shape."""

import collections
import dataclasses
import hashlib
import importlib.util
import json
import random
import subprocess
import sys

import qminkowski.braiding as braiding
import qminkowski.calculus as calculus
import qminkowski.dirac as dirac
import qminkowski.fock as fock
import qminkowski.lorentz as lorentz
import qminkowski.minkowski as minkowski
from qminkowski.cli import _SUITES, main, run_suites
from qminkowski.exact import Mat, ONE, Scalar
from qminkowski.instance import builtin, instance_to_dict, write_instance

from test_acceptance import sign_twisted_flip
from test_calculus import leibniz_breaking, shifted, z_perturbed
from test_quotient_oracle import ROOT

# sha256 of `report --builtin classical ARGS` stdout and of its --json file.
REPORT_PINS = [
    ((), "abd24a79fff32f0dec27de79efa82c66f7c3dbc01a627cf2a47e88c4d716bcf8",
     "40162857b17242029a7663fcd29833f56ea37bf917ae1eebcf8b0279eb17bc49"),
    (("--b", "1", "--n", "3"),
     "1ee36f11c21a2a109ef614fc475dfbaf5dd11d51f7cbabcb6465d44c5a48cfa9",
     "d35ca04d656ff100336d1595beb15198b0323a984c30476cf180eb3989e077cd"),
    (("--n", "3"),
     "624af5468c874b751499c35caca7c272fbb378f6d645b2430338bce884eba911",
     "138462c4cbf6f365ff87d25f548754c17c11412b9c579e6d703d461385eed586"),
    (("--n", "4"),
     "64b38cb4ebc4188d40065f36e2d17fa61477df4ea2055275c6c4fd2e984d97cc",
     "830fb20a2149072660bc9d3f14124431089fdeef9eaacd83b5fccb55eba8a6fc"),
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
    return dataclasses.replace(shifted("twisted-tshift", {1: ONE}),
                               R=sign_twisted_flip())


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


def test_fock_on_the_sign_twisted_flip_is_pinned(capsys, tmp_path):
    # With T = 0 the sign-twisted flip is cotriangular, so every braided
    # check runs off the plain flip, up to four slots.
    path = tmp_path / "twisted.json"
    write_instance(dataclasses.replace(builtin("classical"), name="twisted",
                                       R=sign_twisted_flip()), str(path))
    code, out, _ = run(capsys, "fock", "--n", "4", str(path))
    assert "info cotriangular: yes" in out
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == (
        0, "96399fbcb158353cccb3a164f9ed5a58b7b1e7f9eef8d8bbc44c4efa04c0d145")


def test_moved_twisted_report_is_pinned(capsys):
    # The one report whose left action, Yang-Baxter check and braided Fock
    # path (cotriangular: yes) run on a dense R with a non-collapsing
    # quotient.  box-commutes, clifford and dirac-square FAIL because the
    # metric frame does not move with the coordinates; ROADMAP item 15
    # (frame covariance) re-pins this hash.
    code, out, _ = run(capsys, "report",
                       str(ROOT / "instances" / "moved-twisted.json"),
                       "--n", "3")
    assert "info cotriangular: yes" in out
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == (
        1, "8ed0391e1983c04e259e865c52fb550b5205b45c9ff10d3c200bdb0af486a0e8")


# Exit code and stdout sha256 of the calculus and dirac suites on
# instances/moved-twisted.json: a dense R whose left action, partials and
# second partials all run, and whose FAILs name their witnesses.  CI pins
# each through the installed script.
MOVED_CALCULUS_PINS = [
    (("calculus", "--degree", "5"),
     "4b10fc5dc6ca5f5649fbaa981cdcdbb69e61082e61613b0023cd98b5e9c7dd69"),
    (("calculus", "--degree", "6"),
     "272c10f51721049fa5d5e5b77f3a32c4e331e63f5df5160ad8fd920bed246c70"),
    (("dirac", "--degree", "4"),
     "e59d026de6a202de2d61c2fb7bcd731dd7ddf143071ad501c542bbd8e290a8bc"),
]


def test_moved_twisted_calculus_and_dirac_are_pinned(capsys):
    path = str(ROOT / "instances" / "moved-twisted.json")
    for (suite, *args), sha in MOVED_CALCULUS_PINS:
        code, out, _ = run(capsys, suite, path, *args)
        assert (code, hashlib.sha256(out.encode()).hexdigest()) == (1, sha)
    code, out, _ = run(capsys, "calculus", path, "--degree", "5")
    assert "  FAIL box-commutes: degree <= 5; fails at w=(0, 0, 1), i=0" \
        in out.splitlines()


# Exit code and stdout sha256 of the classical calculus and dirac suites
# past the report's degree; CI pins both through the installed script.
CLASSICAL_CALCULUS_PINS = [
    (("calculus", str(ROOT / "instances" / "classical.json"), "--degree",
      "6"), "ed246c153ff32580488db217f8f8555d78034d5d432273b4e5730173330f8827"),
    (("dirac", "--builtin", "classical", "--degree", "5"),
     "862b10bd5b11958538869be083136cf106def7b64ed9884b6fbb059a13ee9787"),
]


def test_classical_calculus_and_dirac_are_pinned(capsys):
    for args, sha in CLASSICAL_CALCULUS_PINS:
        code, out, _ = run(capsys, *args)
        assert (code, hashlib.sha256(out.encode()).hexdigest()) == (0, sha)


# Exit code and stdout sha256 of `report --builtin classical --degree D`
# and, on the dense seed-11 instance that CI writes from
# perfbench/instances.py, of `pbw --degree 5` and `report`.  CI pins
# degrees 2 and 5 and both dense runs through the installed script.
CLASSICAL_DEGREE_PINS = [
    ("2", "d0f9521497dcbf304107242e59d22736cbe07bfa388d44c444daeaabd22be2dd"),
    ("3", "785dbb62c24dce7a7d2ff78634b99ba27b2f3de278edbb79c5665f778f924514"),
    ("5", "272840147f4134666f353eb28d943e9ebdbf1196430d72998c5fc89c9a76b608"),
]
DENSE_PINS = [
    (("pbw", "--degree", "5"),
     "1def4445c0af1746b343db4f523ca84b05b6ab9a155ee55de732de24339b0029"),
    (("report",),
     "6d85f51223d1182e7ac0fddae55353f2262fd35c3ce557148adf079ed0f62205"),
]


def test_classical_reports_at_other_degrees_are_pinned(capsys):
    for degree, sha in CLASSICAL_DEGREE_PINS:
        code, out, _ = run(capsys, "report", "--builtin", "classical",
                           "--degree", degree)
        assert (code, hashlib.sha256(out.encode()).hexdigest()) == (0, sha)


def test_dense_pbw_and_report_are_pinned(capsys, tmp_path):
    spec = importlib.util.spec_from_file_location(
        "perfbench_instances", ROOT / "perfbench" / "instances.py")
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    path = tmp_path / "dense.json"
    path.write_text(json.dumps(gen.dense("dense", random.Random(11), 0.3)))
    for args, sha in DENSE_PINS:
        code, out, _ = run(capsys, *args, str(path))
        assert (code, hashlib.sha256(out.encode()).hexdigest()) == (1, sha)


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
    z = Mat.zeros(16, 4)
    z.data[4] = Scalar(10 ** 3999 + 7)
    path = tmp_path / "big.json"
    write_instance(dataclasses.replace(builtin("classical"), name="big-z",
                                       Z=z), str(path))
    cmd = [sys.executable, "-m", "qminkowski", "calculus", str(path)]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    assert proc.returncode == 1
    assert "  FAIL obstruction: obstruction entry (5, 0) = " in proc.stdout
    assert "Traceback" not in proc.stdout + proc.stderr


def test_file_input_round_trip(capsys, tmp_path):
    from qminkowski.instance import write_instance
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
