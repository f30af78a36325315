"""Acceptance gate: the nine primary checks.

Every check runs at zero tolerance on exact scalars and prints one
summary line.  Timed checks assert their budget after passing.
"""

import itertools
import subprocess
import sys
import time

from qminkowski.braiding import build_rq, ct_check, make_evaluator, \
    star_cqt_check, yang_baxter_check
from qminkowski.calculus import f_tilde, make_calculus
from qminkowski.dirac import clifford_check, clifford_ok, \
    dirac_square_check, gamma, metric
from qminkowski.errors import CalculusObstruction
from qminkowski.exact import I, Mat, ONE, PAULI, Scalar, ZERO
from qminkowski.fock import braid_action, interchange_k, lift_operator, \
    symmetrize, tensor
from qminkowski.instance import builtin
from qminkowski.lorentz import lambda_invariance_check, make_lorentz
from qminkowski.minkowski import make_minkowski, pbw_check
from qminkowski.qalgebra import NCPoly, accumulate

from shared import rescaled, tshift, twisted, twisted_tshift, x


def report(num, ok, detail):
    print("criterion %d: %s (%s)" % (num, "PASS" if ok else "FAIL", detail))
    assert ok, "criterion %d failed: %s" % (num, detail)


def test_criterion_1_pbw_profile():
    t0 = time.monotonic()
    alg = make_minkowski(builtin("classical"), cap=4)
    ok, prof = pbw_check(alg, 4)
    dt = time.monotonic() - t0
    good = ok and prof == [1, 4, 10, 20, 35] and dt < 10.0
    report(1, good, "profile %s in %.2fs" % (prof, dt))


def gate_witness(inst):
    """The CalculusObstruction message, or None if the calculus builds."""
    try:
        make_calculus(inst, 2)
    except CalculusObstruction as exc:
        return str(exc)
    return None


def test_criterion_2_calculus_gate():
    classical = builtin("classical")
    clean = f_tilde(classical).is_zero()

    # Flip R: (1 x P)(P x 1)(1 x T) = T x 1, so the T-terms cancel and
    # the calculus exists for every T; here T[(0,1)] = 1.
    shift = tshift()
    flip_open = f_tilde(shift).is_zero() and gate_witness(shift) is None

    # The sign-twisted flip is still triangular, and with T = 0 its
    # obstruction vanishes, so the trip below comes from T alone.
    sign = twisted()
    r = sign.R
    triangular = yang_baxter_check(r) and r * r == Mat.identity(16)
    twisted_open = f_tilde(sign).is_zero()

    bent = twisted_tshift()      # the same T on the sign-twisted flip
    ft = f_tilde(bent)
    entries = {(i, j): ft[i, j]
               for i in range(64) for j in range(4) if ft[i, j]}
    witness = gate_witness(bent)
    tripped = entries == {(6, 2): Scalar(-2), (18, 2): Scalar(2)} \
        and witness == "obstruction entry (6, 2) = -2"

    good = clean and flip_open and triangular and twisted_open and tripped
    report(2, good,
           "classical zero: %s; flip R + T open: %s; twisted R triangular: "
           "%s, T = 0 zero: %s; twisted R + T entries %s, raised: %s"
           % (clean, flip_open, triangular, twisted_open, entries, witness))


def test_criterion_3_calculus_identities():
    t0 = time.monotonic()
    calc = make_calculus(builtin("classical"), 4)
    results = (calc.check_differential_consistency(4),
               calc.check_leibniz(4),
               calc.check_partial_exchange(4),
               calc.check_box_commutes(4))
    dt = time.monotonic() - t0
    good = all(r is None for r in results) and dt < 30.0
    report(3, good, "differential/leibniz/exchange/box %s in %.2fs"
           % (list(results), dt))


def test_criterion_4_metric_and_gammas():
    inst = builtin("classical")
    g = metric(inst)
    eta = Mat.zeros(4, 4)
    for k, sgn in enumerate((ONE, -ONE, -ONE, -ONE)):
        eta.data[4 * k + k] = sgn
    metric_ok = g == eta

    gs = gamma(inst)
    signs = (ONE, -ONE, -ONE, -ONE)
    # A_i is the upper-right 2x2 block of gamma_i
    blocks_ok = all(
        Mat(2, 2, [gs[i][r, 2 + c] for r in range(2) for c in range(2)])
        == PAULI[i].scale(signs[i]) for i in range(4))

    residuals = clifford_check(inst, gs, g)
    clifford_zero = all(m.is_zero() for m in residuals.values())

    calc = make_calculus(inst, 4)
    square_ok = dirac_square_check(calc, gs, 3) is None

    bad = rescaled(gs, Scalar(2), ONE)          # a b = 2
    bad_clifford = clifford_ok(inst, bad, g)
    bad_square = dirac_square_check(calc, bad, 2) is None
    control_ok = (not bad_clifford) and (not bad_square)

    good = metric_ok and blocks_ok and clifford_zero and square_ok \
        and control_ok
    report(4, good,
           "metric %s, blocks %s, clifford %s, square %s, ab!=1 fails %s"
           % (metric_ok, blocks_ok, clifford_zero, square_ok, control_ok))


def test_criterion_5_yang_baxter():
    inst = builtin("classical")
    sweep = all(yang_baxter_check(build_rq(inst, b))
                for b in (ZERO, ONE, -ONE, I))
    corrupted = build_rq(inst, ZERO)
    corrupted.data[3] = Scalar(3)
    negative = not yang_baxter_check(corrupted)
    good = sweep and negative
    report(5, good, "b sweep %s, corrupted fails %s" % (sweep, negative))


def test_criterion_6_lorentz_invariance():
    inst = builtin("classical")
    alg = make_lorentz(inst, 4)
    with_g = lambda_invariance_check(alg, metric(inst)) is None
    with_id = lambda_invariance_check(alg, Mat.identity(4)) is None
    good = with_g and not with_id
    report(6, good, "module metric %s, identity metric %s"
           % (with_g, with_id))


def test_criterion_7_cqt_ct_conditions():
    inst = builtin("classical")
    star_pat = [star_cqt_check(make_evaluator(inst, b=b))
                for b in (ZERO, ONE, -ONE, I)]
    ct_pat = [ct_check(make_evaluator(inst, b=b))
              for b in (ZERO, ONE, -ONE, I)]
    good = star_pat == [True, True, True, False] \
        and ct_pat == [True, False, False, False]
    report(7, good, "star %s, ct %s" % (star_pat, ct_pat))


def test_criterion_8_fock_sector():
    t0 = time.monotonic()
    inst = builtin("classical")
    alg = make_minkowski(inst, cap=4)
    ev = make_evaluator(inst, b=0)
    one = NCPoly.one()

    flip_ok = True
    invol_ok = True
    for i in range(4):
        for j in range(4):
            t = tensor(alg, [x(i), x(j)])
            k1 = interchange_k(ev, alg, t)
            flip_ok &= k1 == tensor(alg, [x(j), x(i)])
            invol_ok &= interchange_k(ev, alg, k1) == t

    s0, s1 = (1, 0, 2), (0, 2, 1)
    braid_ok = True
    for i, j, k in itertools.product(range(4), repeat=3):
        t = tensor(alg, [x(i), x(j), x(k)])
        lhs = braid_action(ev, alg, s0,
                           braid_action(ev, alg, s1,
                                        braid_action(ev, alg, s0, t)))
        rhs = braid_action(ev, alg, s1,
                           braid_action(ev, alg, s0,
                                        braid_action(ev, alg, s1, t)))
        braid_ok &= lhs == rhs

    proj_ok = True
    for slots in ([x(0), x(1)], [x(2), x(2)], [x(0), x(1), x(3)]):
        s = symmetrize(ev, alg, tensor(alg, slots))
        proj_ok &= symmetrize(ev, alg, s) == s

    calc = make_calculus(inst, 4)
    state = symmetrize(ev, alg, tensor(alg, [x(0), x(0)]))
    lifted = lift_operator(ev, alg, lambda p: calc.partial(0, p), state)
    want = accumulate({}, symmetrize(ev, alg, tensor(alg, [one, x(0)])),
                      Scalar(2))
    lift_ok = lifted == want

    dt = time.monotonic() - t0
    good = flip_ok and invol_ok and braid_ok and proj_ok and lift_ok \
        and dt < 60.0
    report(8, good,
           "K=flip %s, K^2=id %s, braid %s, projector %s, lift %s in %.2fs"
           % (flip_ok, invol_ok, braid_ok, proj_ok, lift_ok, dt))


def test_criterion_9_determinism():
    cmd = [sys.executable, "-m", "qminkowski", "report",
           "--builtin", "classical"]
    first = subprocess.run(cmd, capture_output=True)
    second = subprocess.run(cmd, capture_output=True)
    good = (first.returncode == second.returncode == 0
            and first.stdout == second.stdout
            and first.stdout)
    report(9, bool(good), "exit %d, %d bytes, identical %s"
           % (first.returncode, len(first.stdout),
              first.stdout == second.stdout))
