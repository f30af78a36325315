"""Time the quotient layer: the best CPU time of N in-process builds.

    PYTHONPATH=src python3 bench/layers.py --reps 7 [--case NAME ...]

The cases are the Minkowski quotient of the perfbench dense instances
(``perfbench/instances.py``, seeds 11-13, entry density 0.3) at caps 3-5,
named ``mink-dense<seed>-cap<c>``, and the classical Lorentz quotient at
caps 2, 4, 5 and 6, named ``lorentz-cap<c>``.  The relations are computed
once per case, outside the timing.  One JSON line goes to stdout: the
Python version, N, and each case's seconds.  The package is imported from
PYTHONPATH, so pointing it at another checkout's ``src`` times that
checkout on the same cases.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import random
import sys
import time

from qminkowski.instance import builtin, instance_from_dict
from qminkowski.lorentz import lorentz_relations
from qminkowski.minkowski import mink_relations
from qminkowski.qalgebra import TruncatedQuotient

PERFBENCH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         os.pardir, "perfbench", "instances.py")
DENSE_SEEDS = (11, 12, 13)
DENSE_DENSITY = 0.3     # perfbench's dense-random entry density


def dense_relations(seed):
    spec = importlib.util.spec_from_file_location("perfbench_instances",
                                                  PERFBENCH)
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    doc = gen.dense("dense%d" % seed, random.Random(seed), DENSE_DENSITY)
    return mink_relations(instance_from_dict(doc))


def cases():
    """{name: (gens, relations thunk, cap)} in a fixed order."""
    out = {}
    for seed in DENSE_SEEDS:
        for cap in (3, 4, 5):
            out["mink-dense%d-cap%d" % (seed, cap)] = (
                4, lambda seed=seed: dense_relations(seed), cap)
    for cap in (2, 4, 5, 6):
        out["lorentz-cap%d" % cap] = (
            8, lambda: lorentz_relations(builtin("classical")), cap)
    return out


def best_build(gens, relations, cap, reps):
    times = []
    for _ in range(reps):
        start = time.process_time()
        TruncatedQuotient(gens, relations, cap)
        times.append(time.process_time() - start)
    return min(times)


def main(argv=None):
    known = cases()
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--reps", type=int, default=7)
    ap.add_argument("--case", action="append", choices=sorted(known),
                    help="time only this case (repeatable; default all)")
    args = ap.parse_args(argv)
    if args.reps < 1:
        ap.error("--reps must be at least 1")
    seconds = {}
    for name in args.case or known:
        gens, relations, cap = known[name]
        seconds[name] = round(best_build(gens, relations(), cap, args.reps),
                              6)
    print(json.dumps({"python": sys.version.split()[0], "reps": args.reps,
                      "cpu_s": seconds}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
