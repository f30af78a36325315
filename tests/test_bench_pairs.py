"""bench/pairs.py refuses a seed range it could not summarise, and
summarises each per-layer metric over several traced runs per side."""

import json
import subprocess
import sys
from pathlib import Path

from shared import ROOT, load_module

PAIRS = ROOT / "bench" / "pairs.py"


def test_fewer_than_two_seeds_is_a_usage_error(tmp_path):
    out = tmp_path / "out.json"
    for seeds in ("101", "102-101"):
        cmd = [sys.executable, str(PAIRS), "--parent", str(tmp_path),
               "--change", str(tmp_path), "--workload", "report-mix",
               "--seeds", seeds, "--out", str(out)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        assert proc.returncode == 2
        assert "quartiles need at least 2" in proc.stderr
        assert not out.exists()


def load_pairs():
    return load_module("bench_pairs", "bench/pairs.py")


def test_traced_runs_give_each_layer_a_median_and_range(tmp_path,
                                                         monkeypatch):
    mod = load_pairs()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    sides = {"parent": tmp_path / "parent", "change": tmp_path / "change"}
    for path in sides.values():
        path.mkdir()
    (sides["parent"] / "BENCHMARK.json").write_text(json.dumps(bench))
    names = ([m["name"] for m in bench["end_to_end"]]
             + [m["name"] for m in bench["per_layer"]])
    calls = []

    def fake_run(checkout, workload, seed, seconds, trace):
        side = Path(checkout).name
        calls.append((side, seed, trace))
        # the change reads 1 lower; the value grows with the seed
        value = seed - 100 - (side == "change")
        return {"metrics": {n: {"unit": "s", "value": value}
                            for n in names}}

    monkeypatch.setattr(mod, "run", fake_run)
    monkeypatch.setattr(mod, "commit", lambda checkout: None)
    monkeypatch.setattr(mod, "report_sha", lambda checkout: "0")
    out = tmp_path / "out.json"
    assert mod.main(["--parent", str(sides["parent"]),
                     "--change", str(sides["change"]),
                     "--workload", "dense-random", "--seeds", "101-105",
                     "--out", str(out)]) == 0
    traced_calls = [c[:2] for c in calls if c[2] == 1]
    assert traced_calls == [("parent", 101), ("change", 101),
                            ("change", 102), ("parent", 102),
                            ("parent", 103), ("change", 103)]
    assert sum(c[2] == 0 for c in calls) == 10
    entry = json.loads(out.read_text())["workloads"]["dense-random"]
    for side, low in (("parent", 1), ("change", 0)):
        assert len(entry["traced"][side]["runs"]) == 3
        layers = entry["traced"][side]["layers"]
        assert set(layers) == {m["name"] for m in bench["per_layer"]}
        assert layers["exact.echelon_s"] == {
            "unit": "s", "median": low + 1, "min": low, "max": low + 2}


def test_the_record_names_no_checkout_and_finds_the_parent_commit(
        tmp_path, monkeypatch):
    """argv names the checkouts PARENT and CHANGE.  The parent commit is
    the parent checkout's HEAD, or, for a parent made by git archive, the
    HEAD of a change checkout with uncommitted changes."""
    mod = load_pairs()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    sides = {"parent": tmp_path / "parent", "change": tmp_path / "change"}
    for path in sides.values():
        path.mkdir()
    (sides["parent"] / "BENCHMARK.json").write_text(json.dumps(bench))
    names = ([m["name"] for m in bench["end_to_end"]]
             + [m["name"] for m in bench["per_layer"]])
    monkeypatch.setattr(mod, "run", lambda *args: {
        "metrics": {n: {"unit": "s", "value": 1} for n in names}})
    monkeypatch.setattr(mod, "report_sha", lambda checkout: "0")
    heads = {"parent": ("abc1234", False), "change": ("def5678", True)}
    monkeypatch.setattr(mod, "commit",
                        lambda checkout: heads[Path(checkout).name])
    out = tmp_path / "out.json"
    argv = ["--parent", str(sides["parent"]),
            "--change=%s" % sides["change"], "--workload", "report-mix",
            "--seeds", "1-2", "--out", str(out)]
    found = []
    for parent_head in (("abc1234", False), None):
        heads["parent"] = parent_head
        assert mod.main(argv) == 0
        doc = json.loads(out.read_text())
        found.append((doc["parent_commit"], doc["parent_commit_source"]))
        assert doc["workloads"]["report-mix"]["argv"] == [
            "bench/pairs.py", "--parent", "PARENT", "--change=CHANGE",
            "--workload", "report-mix", "--seeds", "1-2", "--out", str(out)]
    assert found == [("abc1234", "parent HEAD"),
                     ("def5678",
                      "change HEAD, under its uncommitted changes")]
    heads["change"] = ("def5678", False)   # a committed change: no guess
    assert mod.parent_commit(sides) == (None, None)
