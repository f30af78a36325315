"""Every pinned CLI byte, one row per command.

A row gives the argv, the instance source, the exit code, the sha256 of
stdout, the sha256 of the --json file where one is pinned, and stderr.
test_pin runs each row through cli.main, so it checks whichever
qminkowski the interpreter imports: src/ under tier-1, the installed
package in CI.  A change that moves a pin re-pins its row here and the
matching one in perfbench/workloads.py, and records the old and new hash
and the reason in CHANGES.md.  The tests after test_pin read the table
too: the --json schema and stability of the classical reports, and two
rows run again.
"""

import hashlib
import json
import random
from typing import NamedTuple

import pytest

from qminkowski.cli import main
from qminkowski.instance import instance_to_dict, write_instance

from shared import ROOT, imag, leibniz_breaking, perfbench_generators, \
    run, tshift, twisted, twisted_tshift, z_perturbed

EMPTY = hashlib.sha256(b"").hexdigest()

# A source is "--builtin classical", a file under instances/, or a
# function returning an instance or a document, written to a file first.
CLASSICAL = "--builtin classical"


def dense11():
    """perfbench/instances.py's dense seed-11 document at density 0.3."""
    return perfbench_generators().dense("dense", random.Random(11), 0.3)


def zbent7():
    """perfbench/instances.py's Z-bent seed-7 document; its calculus is
    obstructed, so the obstruction is read before any quotient is built."""
    return perfbench_generators().zbent("zbent", random.Random(7), True)


def classical_doc():
    return json.loads((ROOT / "instances" / "classical.json").read_text())


def q_out_of_range():
    doc = classical_doc()
    doc["q"] = [2, 1, 0, 1]
    return doc


def bool_literal():
    """The loader reads a repeated literal once; true == 1 must not match."""
    doc = classical_doc()
    doc["R"]["entries"][17] = [0, True, 0, 1]
    return doc


class Pin(NamedTuple):
    argv: tuple
    source: object
    code: int
    out_sha: str        # sha256 of stdout
    json_sha: str = None  # sha256 of the --json file, where one is pinned
    err: str = ""


PINS = [
    # report --builtin classical, every suite at the default degree
    Pin(("report",), CLASSICAL, 0,
        "abd24a79fff32f0dec27de79efa82c66f7c3dbc01a627cf2a47e88c4d716bcf8",
        "40162857b17242029a7663fcd29833f56ea37bf917ae1eebcf8b0279eb17bc49"),
    Pin(("report", "--b", "1", "--n", "3"), CLASSICAL, 0,
        "1ee36f11c21a2a109ef614fc475dfbaf5dd11d51f7cbabcb6465d44c5a48cfa9",
        "d35ca04d656ff100336d1595beb15198b0323a984c30476cf180eb3989e077cd"),
    Pin(("report", "--n", "3"), CLASSICAL, 0,
        "624af5468c874b751499c35caca7c272fbb378f6d645b2430338bce884eba911",
        "138462c4cbf6f365ff87d25f548754c17c11412b9c579e6d703d461385eed586"),
    Pin(("report", "--n", "4"), CLASSICAL, 0,
        "64b38cb4ebc4188d40065f36e2d17fa61477df4ea2055275c6c4fd2e984d97cc",
        "830fb20a2149072660bc9d3f14124431089fdeef9eaacd83b5fccb55eba8a6fc"),
    # degree 2 and 3 read the cap-4 quotient and calculus that fock's cap
    # sets; degree 5 lends its cap-5 calculus to the dirac suite
    Pin(("report", "--degree", "2"), CLASSICAL, 0,
        "d0f9521497dcbf304107242e59d22736cbe07bfa388d44c444daeaabd22be2dd"),
    Pin(("report", "--degree", "3"), CLASSICAL, 0,
        "785dbb62c24dce7a7d2ff78634b99ba27b2f3de278edbb79c5665f778f924514"),
    Pin(("report", "--degree", "5"), CLASSICAL, 0,
        "272840147f4134666f353eb28d943e9ebdbf1196430d72998c5fc89c9a76b608"),
    # each other subcommand, on the classical point and on twisted_tshift()
    Pin(("validate",), CLASSICAL, 0,
        "d03329ebf85aff831f282303ebe03c65544de4a24d5a98c9969b37d87c189fb7"),
    Pin(("validate",), twisted_tshift, 0,
        "370a37ad0c2641f062fd4a24a2b62e2ae517d75d9706f729c17299c0e5e3af4b"),
    Pin(("pbw", "--degree", "6"), CLASSICAL, 0,
        "760967df217f861a22229f56708e9a4cea9ea7362c3b859da7fb198ec6940028"),
    Pin(("pbw", "--degree", "6"), twisted_tshift, 1,
        "992e2853491606928c54de05a12bd34cafc12c8a3f2038019fcbdf4a7cd708e2"),
    Pin(("calculus", "--degree", "5"), CLASSICAL, 0,
        "7432054c806787e4ed2f96358c7b8ffb09d83e2e861e389f7e3480b6c5b5cf3c"),
    Pin(("calculus", "--degree", "5"), twisted_tshift, 1,
        "0102e5cd36c98c4479ec5bc1885c2114c93241c145e4034e0cb2850705ddc368"),
    Pin(("dirac", "--degree", "4"), CLASSICAL, 0,
        "201a0b15a3ae13d0833c731c9effb836a24f47d65f58369badec2a574be4bbe4"),
    Pin(("dirac", "--degree", "4"), twisted_tshift, 1,
        "e6530ee668ed0880e8008777ec993b8b0c42092b2c6fcd45149e973bce1e8fae"),
    Pin(("braiding", "--b", "1", "--k", "-1"), CLASSICAL, 0,
        "21d5065adca083bded8a49475738428cc2f1ff60ebf71ebf7b14eed0850512b1"),
    Pin(("braiding", "--b", "1", "--k", "-1"), twisted_tshift, 1,
        "bb325a4bee1b11810a7329cad72f7c0e9bfffed007fe4727b61fd23cf7ed4637"),
    Pin(("fock", "--n", "4"), CLASSICAL, 0,
        "1de59bd6c80b4e23791f1e7928ac4aef78c3432fe21240da1ecb4da904ffa041"),
    Pin(("fock", "--n", "4"), twisted_tshift, 0,
        "5d88131686fb92560e81073484e5fd4ec9f92c493d0191581a71fb7e26b55a65"),
    # the classical calculus and dirac suites past the report's degree
    Pin(("calculus", "--degree", "6"), "classical.json", 0,
        "ed246c153ff32580488db217f8f8555d78034d5d432273b4e5730173330f8827"),
    Pin(("dirac", "--degree", "5"), CLASSICAL, 0,
        "862b10bd5b11958538869be083136cf106def7b64ed9884b6fbb059a13ee9787"),
    # off the classical point the reports take the FAIL paths: obstruction
    # witness, Clifford residual, star-closed, and for twisted_tshift a
    # profile mismatch
    Pin(("report",), twisted_tshift, 1,
        "74743452a2a71d216d412c34a91bb097d1e30640bf3b90e31515c0ca5c9effff",
        "d31ec025973fdda08bb0ffc853ac15bcef91a06b70c8a08408c369f44f0872c4"),
    Pin(("report",), z_perturbed, 1,
        "9f974737baaa7fa11c9f92b8734c2f954049e2ca3539388e7baa6089afe7cb8a",
        "382462c2cc4bcd1a136913863d5bb8349acff20ebfe5ea72592d8edf7ebf5e31"),
    # with T = 0 the sign-twisted flip is cotriangular, so every braided
    # check runs off the plain flip, up to four slots
    Pin(("fock", "--n", "4"), twisted, 0,
        "96399fbcb158353cccb3a164f9ed5a58b7b1e7f9eef8d8bbc44c4efa04c0d145"),
    # the other named instances of tests/shared.py: twisted FAILs clifford
    # and dirac-square, tshift star-closed and star-compatible, imag
    # passes, and zt-bent (nonzero Z and T, zero obstruction) FAILs
    # profile, leibniz, yang-baxter and star-compatible, the verdict of
    # its cap-4 quotient, where 1 = 0; ROADMAP item 3 revisits it
    Pin(("report", "--n", "3"), twisted, 1,
        "f0b6378433afbb5e2414dfbbf8f1f6f99b734c297333ee48ff9bcc3067efe410"),
    Pin(("report", "--n", "3"), tshift, 1,
        "11d3c7ca8ba125d805fcccb7dff234b6b42e0cdb01a106ddf0c705628420cdd0"),
    Pin(("report", "--n", "3"), imag, 0,
        "5e49d3ba22871d4f2758271011a5e2b7a77cfae43f49f324b02372b133c9a14e"),
    Pin(("report", "--n", "3"), leibniz_breaking, 1,
        "039aa282e88c33cdfbc08bd260326ad1ef6994d1489e9641ee48c7a2522b4762"),
    # a dense R with a non-collapsing quotient, whose left action,
    # partials, second partials, Yang-Baxter check and braided Fock path
    # all run.  box-commutes, clifford and dirac-square FAIL because the
    # metric frame does not move with the coordinates; ROADMAP item 15
    # (frame covariance) re-pins these.
    Pin(("report", "--n", "3"), "moved-twisted.json", 1,
        "8ed0391e1983c04e259e865c52fb550b5205b45c9ff10d3c200bdb0af486a0e8"),
    Pin(("pbw", "--degree", "6"), "moved-twisted.json", 0,
        "58bdf36e8c1430a736e0f2010636141115d06c4e2b664024a1b871b0296e54e9"),
    Pin(("calculus", "--degree", "5"), "moved-twisted.json", 1,
        "4b10fc5dc6ca5f5649fbaa981cdcdbb69e61082e61613b0023cd98b5e9c7dd69"),
    Pin(("calculus", "--degree", "6"), "moved-twisted.json", 1,
        "272c10f51721049fa5d5e5b77f3a32c4e331e63f5df5160ad8fd920bed246c70"),
    Pin(("dirac", "--degree", "4"), "moved-twisted.json", 1,
        "e59d026de6a202de2d61c2fb7bcd731dd7ddf143071ad501c542bbd8e290a8bc"),
    # a dense random document: its quotient collapses and Yang-Baxter fails
    Pin(("pbw", "--degree", "5"), dense11, 1,
        "1def4445c0af1746b343db4f523ca84b05b6ab9a155ee55de732de24339b0029"),
    Pin(("report",), dense11, 1,
        "6d85f51223d1182e7ac0fddae55353f2262fd35c3ce557148adf079ed0f62205"),
    Pin(("braiding", "--b=1"), dense11, 1,
        "8c4c7c957cc99954c2a8c6bd156ed75dce1127340d02cca61df7351a1a7fbd4d"),
    Pin(("calculus", "--degree", "5"), zbent7, 1,
        "294bbfc7d901785f5fefe5cff18da79ca536ae0e59c624a507bbefafe5205201"),
    Pin(("dirac", "--degree", "4"), zbent7, 1,
        "873fd1aff16a6408450b9e65e94cc0bd616d94328d8c9bd54351104067654b2a"),
    # a bad document exits 2 with one error line and no traceback
    Pin(("validate",), q_out_of_range, 2, EMPTY,
        err="error: q must be +1 or -1\n"),
    Pin(("validate",), bool_literal, 2, EMPTY,
        err="error: R[17]: scalar must be four integers\n"),
]


# the classical report argv of each row that pins a --json file
CLASSICAL_REPORTS = [pin.argv for pin in PINS
                     if pin.source == CLASSICAL and pin.json_sha]


def source_name(source):
    if source == CLASSICAL:
        return "builtin"
    return source if isinstance(source, str) else source.__name__


def source_argv(source, tmp_path):
    if source == CLASSICAL:
        return source.split()
    if isinstance(source, str):
        return [str(ROOT / "instances" / source)]
    doc = source()
    if not isinstance(doc, dict):
        doc = instance_to_dict(doc)
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(doc))
    return [str(path)]


def sha256(data):
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize(
    "pin", PINS,
    ids=["%s:%s" % (source_name(p.source), "_".join(p.argv)) for p in PINS])
def test_pin(capsys, tmp_path, pin):
    argv = [*pin.argv, *source_argv(pin.source, tmp_path)]
    report = tmp_path / "report.json"
    if pin.json_sha:
        argv += ["--json", str(report)]
    code = main(argv)
    out, err = capsys.readouterr()
    assert (code, sha256(out.encode()), err) == (pin.code, pin.out_sha,
                                                 pin.err)
    if pin.json_sha:
        assert sha256(report.read_bytes()) == pin.json_sha


def test_report_json_schema(capsys, tmp_path):
    path = tmp_path / "report.json"
    for argv in CLASSICAL_REPORTS:
        code, out, _ = run(capsys, *argv, "--builtin", "classical",
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
    for argv in CLASSICAL_REPORTS:
        code1, out1, _ = run(capsys, *argv, "--builtin", "classical")
        code2, out2, _ = run(capsys, *argv, "--builtin", "classical")
        assert code1 == code2 == 0
        assert out1 == out2


def pinned(argv, source):
    """The (exit code, stdout sha256) that PINS pins for argv and source."""
    (pin,) = [p for p in PINS if (p.argv, p.source) == (argv, source)]
    return pin.code, pin.out_sha


def test_fock_on_the_sign_twisted_flip_is_pinned(capsys, tmp_path):
    # With T = 0 the sign-twisted flip is cotriangular, so every braided
    # check runs off the plain flip, up to four slots.
    path = tmp_path / "twisted.json"
    write_instance(twisted(), str(path))
    code, out, _ = run(capsys, "fock", "--n", "4", str(path))
    assert "info cotriangular: yes" in out
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == \
        pinned(("fock", "--n", "4"), twisted)


def test_moved_twisted_report_is_pinned(capsys):
    # The dense R of instances/moved-twisted.json is cotriangular too, and
    # its quotient does not collapse.
    code, out, _ = run(capsys, "report",
                       str(ROOT / "instances" / "moved-twisted.json"),
                       "--n", "3")
    assert "info cotriangular: yes" in out
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == \
        pinned(("report", "--n", "3"), "moved-twisted.json")
