"""Run the steps of the tier-1 CI workflow on this machine.

Usage: python3 tools/run_tier1.py

Reads the ``run`` steps of ``.github/workflows/tier1.yml`` with PyYAML and
runs each with ``bash -e`` from the repository root, in file order, until
one fails. ``RUNNER_TEMP`` is a fresh temporary directory, removed afterwards.
``dialret`` and ``python`` on the ``PATH`` are shims over this
interpreter, and ``dialret`` calls ``dialret.cli.main`` from ``src/``, so
nothing is installed; the step that installs the package is skipped.
Exits 0 when every step passed, else 1.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import yaml

ROOT = Path(__file__).resolve().parent.parent
WORKFLOW = ROOT / ".github" / "workflows" / "tier1.yml"
# Installing needs the network; the shims stand in for the installed package.
SKIPPED = {"Install with test extras"}


def write_shims(bin_dir: Path) -> None:
    shims = {
        "python": f'exec "{sys.executable}" "$@"\n',
        "dialret": (f'exec "{sys.executable}" -c '
                    "'import sys; from dialret.cli import main; sys.exit(main())' "
                    '"$@"\n'),
    }
    for name, body in shims.items():
        path = bin_dir / name
        path.write_text("#!/bin/bash\n" + body)
        path.chmod(0o755)


def main() -> int:
    workflow = yaml.safe_load(WORKFLOW.read_text(encoding="utf-8"))
    steps = [
        step for job in workflow["jobs"].values() for step in job["steps"]
        if "run" in step and step.get("name") not in SKIPPED
    ]
    with tempfile.TemporaryDirectory(prefix="tier1-") as temp:
        temp = Path(temp)
        (temp / "bin").mkdir()
        (temp / "runner").mkdir()
        write_shims(temp / "bin")
        env = dict(
            os.environ,
            RUNNER_TEMP=str(temp / "runner"),
            PATH=f"{temp / 'bin'}{os.pathsep}{os.environ.get('PATH', '')}",
            PYTHONPATH=os.pathsep.join(
                filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])
            ),
        )
        for step in steps:
            name = step.get("name", step["run"].splitlines()[0])
            script = temp / "step.sh"
            script.write_text(step["run"])
            print(f"=== {name}", flush=True)
            start = time.monotonic()
            code = subprocess.run(["bash", "-e", str(script)], cwd=ROOT, env=env).returncode
            print(f"=== {'passed' if code == 0 else f'FAILED (exit {code})'} in "
                  f"{time.monotonic() - start:.1f} s: {name}", flush=True)
            if code:
                return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
