"""Compare two checkouts with alternating paired runs of perfbench/run.py.

    python3 bench/pairs.py --parent DIR --change DIR \
        --workload report-mix --seeds 101-110 --out BENCH_4.json

Pair k runs both checkouts on seed k, the parent first on even k and the
change first on odd k, each as ``perfbench/run.py --trace 0`` in its own
directory, so both sides use their own benchmark code and source.  The
run length is the parent's BENCHMARK.json ``run_seconds``.  Traced runs
(``--trace 1``) on the first three seeds follow the pairs, in the same
alternating order.  The output file gathers, per workload, this script's
command line, the seeds, every run's result line and, per end-to-end
metric of BENCHMARK.json, each side's median and quartiles and the
number of pairs the change won, and per per-layer metric each side's
median and range over its traced runs; the command line names the two
checkouts PARENT and CHANGE.  The machine, the Python, the parent's git
commit with where it was read (parent_commit) and each side's ``report
--builtin classical`` stdout sha256 are recorded once.  Runs are
appended to an existing output file, one workload at a time.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys

TRACED_SEEDS = 3


def run(checkout, workload, seed, seconds, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=checkout, check=True, text=True,
                         stdout=subprocess.PIPE).stdout
    return json.loads(out.strip().splitlines()[-1])


def commit(checkout):
    """(short HEAD commit, whether tracked files have uncommitted changes)
    when checkout is the top of a git work tree, else None (a directory
    made by git archive, even one that sits inside another work tree)."""
    def git(*args):
        out = subprocess.run(["git", *args], cwd=checkout, text=True,
                             stdout=subprocess.PIPE,
                             stderr=subprocess.DEVNULL, check=False)
        return out.stdout if out.returncode == 0 else None

    top = git("rev-parse", "--show-toplevel")
    if top is None or os.path.realpath(top.strip()) != \
            os.path.realpath(checkout):
        return None
    return (git("rev-parse", "--short", "HEAD").strip(),
            bool(git("status", "--porcelain", "--untracked-files=no")))


def parent_commit(sides):
    """The parent's commit and where it was read: the parent checkout's
    HEAD; for a parent that is no git checkout, the HEAD of a change
    checkout whose tracked files have uncommitted changes, since the
    change is then the work on top of that commit; else (None, None)."""
    parent = commit(sides["parent"])
    if parent is not None:
        return parent[0], "parent HEAD" + (", uncommitted changes"
                                           if parent[1] else "")
    change = commit(sides["change"])
    if change is not None and change[1]:
        return change[0], "change HEAD, under its uncommitted changes"
    return None, None


def placeholders(argv):
    """argv with the values of --parent and --change written PARENT and
    CHANGE, so the record names no directory of the machine it ran on."""
    out = []
    for tok in argv:
        flag, eq, _ = tok.partition("=")
        if out and out[-1] in ("--parent", "--change"):
            tok = out[-1][2:].upper()
        elif eq and flag in ("--parent", "--change"):
            tok = "%s=%s" % (flag, flag[2:].upper())
        out.append(tok)
    return out


def report_sha(checkout):
    env = dict(os.environ, PYTHONPATH=os.path.join(checkout, "src"))
    out = subprocess.run(
        [sys.executable, "-m", "qminkowski", "report", "--builtin",
         "classical"], cwd=checkout, env=env, stdout=subprocess.PIPE,
        check=False).stdout
    return hashlib.sha256(out).hexdigest()


def machine():
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"platform": platform.platform(), "cpu": cpu,
            "cpus": os.cpu_count(), "python": sys.version.split()[0],
            "implementation": platform.python_implementation()}


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": q2, "q3": q3}


def summarise(pairs, better):
    """Per end-to-end metric: each side's quartiles and the change's wins;
    better maps a metric to "lower" or "higher", as BENCHMARK.json does."""
    out = {}
    for name, direction in better.items():
        par = [p["parent"]["metrics"][name]["value"] for p in pairs]
        chg = [p["change"]["metrics"][name]["value"] for p in pairs]
        lower = direction == "lower"
        wins = sum((c < p) if lower else (c > p) for p, c in zip(par, chg))
        out[name] = {"unit": pairs[0]["parent"]["metrics"][name]["unit"],
                     "better": direction,
                     "parent": quartiles(par), "change": quartiles(chg),
                     "change_wins": wins, "pairs": len(pairs)}
    return out


def layer_spread(runs, names):
    """Per per-layer metric in names: the median, min and max over runs."""
    out = {}
    for name in names:
        values = [r["metrics"][name]["value"] for r in runs]
        out[name] = {"unit": runs[0]["metrics"][name]["unit"],
                     "median": statistics.median(values),
                     "min": min(values), "max": max(values)}
    return out


def sides_in_order(k):
    """The parent first on even k, the change first on odd k."""
    return ("parent", "change") if k % 2 == 0 else ("change", "parent")


def seed_range(text):
    """LO-HI, both included; quartiles take at least two seeds."""
    lo, _, hi = text.partition("-")
    seeds = list(range(int(lo), int(hi or lo) + 1))
    if len(seeds) < 2:
        raise argparse.ArgumentTypeError(
            "%r names %d seeds; quartiles need at least 2"
            % (text, len(seeds)))
    return seeds


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent", required=True)
    ap.add_argument("--change", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seed_range, required=True)
    ap.add_argument("--out", required=True)
    argv = sys.argv[1:] if argv is None else argv
    args = ap.parse_args(argv)
    sides = {"parent": os.path.abspath(args.parent),
             "change": os.path.abspath(args.change)}
    with open(os.path.join(sides["parent"], "BENCHMARK.json"),
              encoding="utf-8") as fh:
        bench = json.load(fh)
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    layers = [m["name"] for m in bench["per_layer"]]
    seconds = bench["run_seconds"]
    doc = {}
    if os.path.exists(args.out):
        with open(args.out, encoding="utf-8") as fh:
            doc = json.load(fh)
    doc["machine"] = machine()
    doc["parent_commit"], doc["parent_commit_source"] = parent_commit(sides)
    doc["report_sha256"] = {k: report_sha(v) for k, v in sides.items()}
    doc["run_command"] = ("perfbench/run.py --workload W --seed S "
                          "--seconds %g --trace 0 (pairs) or --trace 1 "
                          "(traced, first %d seeds)"
                          % (seconds, TRACED_SEEDS))
    pairs = []
    for k, seed in enumerate(args.seeds):
        order = sides_in_order(k)
        pair = {"seed": seed, "first": order[0]}
        for side in order:
            pair[side] = run(sides[side], args.workload, seed, seconds, 0)
        print(json.dumps(pair), flush=True)
        pairs.append(pair)
    traced = {side: [] for side in sides}
    for k, seed in enumerate(args.seeds[:TRACED_SEEDS]):
        for side in sides_in_order(k):
            traced[side].append(run(sides[side], args.workload, seed,
                                    seconds, 1))
    entry = {"argv": ["bench/pairs.py"] + placeholders(argv),
             "seeds": args.seeds, "pairs": pairs,
             "summary": summarise(pairs, better),
             "traced": {side: {"runs": runs,
                               "layers": layer_spread(runs, layers)}
                        for side, runs in traced.items()}}
    doc.setdefault("workloads", {})[args.workload] = entry
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
