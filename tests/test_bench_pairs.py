"""bench/pairs.py refuses a seed range it could not summarise."""

import subprocess
import sys
from pathlib import Path

PAIRS = Path(__file__).resolve().parent.parent / "bench" / "pairs.py"


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
