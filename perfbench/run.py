"""Run one benchmark workload against the package in ``src/``.

    python3 perfbench/run.py --workload report-mix --seed 1 --seconds 12 \
        --trace 0

One client calls ``qminkowski.cli.main`` in this single-threaded process,
in a closed loop: the next op starts when the previous one has returned.
The run repeats whole cycles of its workload until ``--seconds`` have
passed and at least its ``min_cycles`` are done (one in a traced run),
and checks every answer.  ``--trace 0`` prints the end-to-end metrics,
``--trace 1`` the per-layer metrics of a traced run (see spantrace.py).
The end-to-end timings are paced: scaled to a nominal machine speed
sampled while they run (see pace.py), because the speed of a shared host
drifts by more than the bounds.  The last line of stdout is one JSON
object; everything above it is for people.
"""

from __future__ import annotations

import time

START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

import pace  # noqa: E402
import spantrace  # noqa: E402
import workloads  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")

SETUPS = 5          # set-ups per run; setup_s is their median
OP_LIMIT_S = 30.0   # an op running longer has failed
RUN_LIMIT_S = 170.0  # no op starts or runs past this, from process start


class OpTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise OpTimeout()


def tail_percentile(n):
    """Highest whole percentile with at least ten of n samples above it."""
    return max(0, 100 * (n - 10) // n)


def percentile(values, p):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(p / 100 * len(ordered))) - 1]


def load_package():
    """Import the package afresh from SRC and return its cli module."""
    package = spantrace.PACKAGE
    for name in [n for n in sys.modules
                 if n == package or n.startswith(package + ".")]:
        del sys.modules[name]
    cli = importlib.import_module(package + ".cli")
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise ImportError("%s was imported from %s, not from %s"
                          % (package, cli.__file__, SRC))
    return cli


def run_op(call, op, deadline, pacer=None):
    """Time one op; return (seconds, answer correct), the seconds paced
    if a pacer is given.  An op that raises, exits 2, prints to stderr,
    gives a wrong answer or outlives its time limit is not correct."""
    limit = min(OP_LIMIT_S, deadline - time.perf_counter())
    if limit <= 0:
        return 0.0, False
    gc.collect()
    out, err = io.StringIO(), io.StringIO()
    rc = None
    if pacer:
        pacer.start()
    t0 = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, limit)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = call(list(op.argv))
    except Exception:  # OpTimeout too: a failed op, and the loop goes on
        pass
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        elapsed = time.perf_counter() - t0
        seconds = pacer.stop(elapsed) if pacer else elapsed
    ok = (rc is not None and elapsed < limit and not err.getvalue()
          and op.check(rc, out.getvalue()))
    if not ok:
        print("failed op: %s (exit %s, %.2f s)" % (op.label, rc, elapsed))
    return seconds, ok


def run_cycles(call, cycles, count, deadline, seconds=0.0):
    """Run whole cycles until ``count`` are done and ``seconds`` have
    passed; ``call(op index, op)`` runs one op.  Returns (op times,
    failures, wall seconds)."""
    times, failed = [], 0
    t0 = time.perf_counter()
    c = 0
    while c < count or time.perf_counter() - t0 < seconds:
        for op in cycles[c % len(cycles)]:
            if time.perf_counter() >= deadline:
                return times, failed, time.perf_counter() - t0
            dt, ok = call(len(times), op)
            times.append(dt)
            failed += not ok
        c += 1
    return times, failed, time.perf_counter() - t0


def setup(workload, seed, workdir, deadline, pacer=None):
    """SETUPS times: fresh import, instance pool, one untimed warm-up op.
    The first set-up counts from process start.  Returns (cli module,
    cycles, median set-up seconds, failed warm-ups); the seconds are paced
    if a pacer is given."""
    times, failed = [], 0
    for i in range(SETUPS):
        if pacer:
            pacer.start()
        t0 = START if i == 0 else time.perf_counter()
        cli = load_package()
        os.makedirs(workdir, exist_ok=True)
        warm, cycles = workload.build(seed, workdir)
        failed += not run_op(cli.main, warm, deadline)[1]
        elapsed = time.perf_counter() - t0
        times.append(pacer.stop(elapsed) if pacer else elapsed)
    print("set-ups: %s s" % ", ".join("%.4f" % t for t in times))
    return cli, cycles, statistics.median(times), failed


def traced_metrics(cli, cycles, args, deadline, lines):
    """Per-layer metrics.  Each op runs untraced and then traced, back to
    back, so the tracing overhead is measured on the same ops in the same
    stretch of machine time.  A last cycle counts Scalar operations only;
    a wrapper on each of them would swamp every span's self time."""
    tracer = spantrace.Tracer()
    base, traced, failures = [], [], []

    def paired(index, op):
        t0, ok0 = run_op(cli.main, op, deadline)
        tracer.install()
        try:
            t1, ok1 = run_op(lambda argv: tracer.root(index, cli.main, argv),
                             op, deadline)
        finally:
            tracer.restore()
        base.append(t0)
        traced.append(t1)
        failures.append(2 - ok0 - ok1)
        return t0 + t1, True

    run_cycles(paired, cycles, 1, deadline, args.seconds)
    counter = spantrace.Tracer()
    counter.install_scalar_counters()
    try:
        counted, cfailed, _ = run_cycles(
            lambda index, op: run_op(cli.main, op, deadline), cycles, 1,
            deadline)
    finally:
        counter.restore()
    metrics = {k: (v, "s/op" if k.endswith("_s") or "_s." in k
                   else "count/op")
               for k, v in tracer.layer_metrics(len(traced)).items()}
    for _, _, name in spantrace.SCALAR_COUNTERS:
        metrics[name] = (counter.counts.get(name, 0) / len(counted),
                         "count/op")
    metrics["trace.overhead_s"] = (
        statistics.median(traced) - statistics.median(base), "s")
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, "trace-%s-%d.json.gz" % (args.workload,
                                                      args.seed))
    tracer.write(path)
    lines.append("%d spans written to %s" % (len(tracer.spans), path))
    lines.append("trace.overhead_s = traced op_s.p50 %.4f s - untraced "
                 "op_s.p50 %.4f s, over the same %d ops"
                 % (statistics.median(traced), statistics.median(base),
                    len(base)))
    return base + traced + counted, sum(failures) + cfailed, metrics


def end_to_end_metrics(cli, cycles, min_cycles, args, deadline, setup_s,
                       pacer, lines):
    walls, slowness = [], []

    def paced(index, op):
        result = run_op(cli.main, op, deadline, pacer)
        walls.append(pacer.wall)
        slowness.append(pacer.slowness())
        return result

    times, failed, wall = run_cycles(paced, cycles, min_cycles, deadline,
                                     args.seconds)
    n = len(times)
    p = tail_percentile(min(n, min_cycles * len(cycles[0])))
    lines.append("op_s.tail is p%d of %d samples" % (p, n))
    lines.append("paced: %.1f s of op time at nominal speed in %.1f s of "
                 "wall time; median probe time %.2f x nominal; unpaced "
                 "op_s.p50 %.4f s"
                 % (sum(times), wall, statistics.median(slowness),
                    statistics.median(walls)))
    lines.append("failed_ops_ratio = %.4f (%d of %d ops)"
                 % (failed / n, failed, n))
    return times, failed, {
        "setup_s": (setup_s, "s"),
        "op_s.p50": (statistics.median(times), "s"),
        "op_s.tail": (percentile(times, p), "s"),
        "ops_per_s": ((n - failed) / sum(times), "1/s"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                         / 1024, "MiB"),
    }


def measure(args, workload, workdir):
    deadline = START + RUN_LIMIT_S
    lines = []
    if args.trace:
        cli, cycles, _, warm_failed = setup(workload, args.seed, workdir,
                                            deadline)
        times, failed, metrics = traced_metrics(cli, cycles, args, deadline,
                                                lines)
    else:
        pacer = pace.Pacer()
        try:
            cli, cycles, setup_s, warm_failed = setup(
                workload, args.seed, workdir, deadline, pacer)
            times, failed, metrics = end_to_end_metrics(
                cli, cycles, workload.min_cycles, args, deadline, setup_s,
                pacer, lines)
        finally:
            pacer.close()
    # The warm-ups are checked ops too.
    attempted, failed = len(times) + SETUPS, failed + warm_failed
    for name, (value, unit) in metrics.items():
        lines.append("%s = %.6g %s" % (name, value, unit))
    print("workload %s, seed %d: %d ops, %d failed; closed loop, 1 client"
          % (args.workload, args.seed, attempted, failed))
    print("\n".join(lines))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(SRC, spantrace.PACKAGE, "__init__.py")):
        sys.stderr.write("error: no package source under %s\n" % SRC)
        return 2
    sys.path.insert(0, SRC)
    signal.signal(signal.SIGALRM, _alarm)
    workdir = os.path.join(OUT, "%s-%d-%d" % (args.workload, args.seed,
                                             os.getpid()))
    try:
        measure(args, workloads.WORKLOADS[args.workload], workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
