"""The scripts under scripts/ run end to end against the sources in src/."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_script(name, *args):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    return subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", name), *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_demo_and_audit_scripts_run(tmp_path):
    demo = run_script("demo_case_study.py", "-o", str(tmp_path / "demo"))
    assert demo.returncode == 0, demo.stderr
    assert demo.stdout.count("reproduced all artifacts byte for byte") == 2, demo.stdout

    audit = run_script("audit_reachability.py", "--graphs", "50")
    assert audit.returncode == 0, audit.stderr
