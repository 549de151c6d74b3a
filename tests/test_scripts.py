"""The scripts run against the bundled sample corpus."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_sms_benchmark_runs_on_sample_corpus():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    result = subprocess.run(
        [sys.executable, "scripts/sms_benchmark.py",
         "--corpus", "tests/data/sample_messages.tsv", "--stem", "--stop-top", "5"],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert any(line.startswith("accuracy:") for line in result.stdout.splitlines())
