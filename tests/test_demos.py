"""The demo scripts run start to finish against the package's public API."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_demos_run_in_order(tmp_path):
    # The demos write their csv files to the working directory, and later
    # ones may read what earlier ones wrote, so they share one directory.
    scripts = sorted((ROOT / "demos").glob("0*.py"))
    assert len(scripts) == 5
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    env = dict(os.environ, PYTHONPATH=path)
    for script in scripts:
        proc = subprocess.run([sys.executable, str(script)], cwd=tmp_path, env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, f"{script.name} exited {proc.returncode}:\n{proc.stderr[-2000:]}"
