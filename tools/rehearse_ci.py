"""Rehearse the CI workflow's shell steps in a fresh clone of HEAD.

    python tools/rehearse_ci.py

Clones the committed HEAD of this repository into a temporary directory
and runs each ``run:`` step of ``.github/workflows/tests.yml`` there, in
order, under ``bash -e`` with that step's ``env``, on this machine's
Python. Prints one ok, FAIL or SKIP line per step with its time, and the
tail of a failing step's output. ``uses:`` steps and ``pip install``
steps are skipped, and say so; a step that calls the installed
``dnumbers`` console script calls ``dnumbers.cli.main()`` from the clone's
``src`` instead, with no argv as pip's entry point does, and is marked
emulated. The matrix rows for other Python versions are listed as
unverified. Exits 1 if any step fails.

Needs PyYAML to read the workflow; the project does not depend on it, and
without it the script exits 2 and says so.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKFLOW = Path(".github/workflows/tests.yml")
#: stands in for the console script that ``pip install .`` would put on PATH
CONSOLE_SCRIPT = ('dnumbers() { python -c "import sys; from dnumbers.cli import main; '
                  'sys.exit(main())" "$@"; }\n')
TAIL = 20


def run_step(step: dict, clone: Path, runner_temp: Path) -> tuple[str, str]:
    """Run one ``run:`` step in ``clone``; its status and a note."""
    script, note = step["run"], ""
    # the steps' python is the one running this script, as setup-python's would be
    path = os.pathsep.join([str(Path(sys.executable).parent), os.environ["PATH"]])
    env = {**os.environ, "PATH": path, "RUNNER_TEMP": str(runner_temp),
           **{key: str(value) for key, value in step.get("env", {}).items()}}
    if re.search(r"^\s*dnumbers\s", script, re.MULTILINE):
        script = CONSOLE_SCRIPT + script
        env["PYTHONPATH"] = str(clone / "src")
        note = "emulated: dnumbers runs as python -c 'from dnumbers.cli import main'"
    result = subprocess.run(["bash", "-e", "-c", script], cwd=clone, env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                            text=True, encoding="utf-8", errors="replace")
    if result.returncode:
        tail = result.stdout.splitlines()[-TAIL:]
        return "FAIL", "\n".join([f"exit {result.returncode}; last lines:", *tail])
    return "ok", note


def main() -> int:
    try:
        import yaml
    except ImportError:
        print("error: PyYAML is needed to read the workflow and is not installed "
              "(pip install pyyaml); the project itself does not depend on it",
              file=sys.stderr)
        return 2
    failed = False
    with tempfile.TemporaryDirectory(prefix="rehearse-ci-") as tmp:
        clone, runner_temp = Path(tmp) / "clone", Path(tmp) / "runner-temp"
        runner_temp.mkdir()
        subprocess.run(["git", "clone", "--quiet", str(ROOT), str(clone)], check=True)
        head = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=clone,
                              check=True, capture_output=True, text=True).stdout.strip()
        workflow = yaml.safe_load((clone / WORKFLOW).read_text(encoding="utf-8"))
        print(f"rehearsing {WORKFLOW} at {head} on Python "
              f"{sys.version_info.major}.{sys.version_info.minor}")
        for job_name, job in workflow["jobs"].items():
            versions = [str(v) for v in
                        job.get("strategy", {}).get("matrix", {}).get("python-version", [])]
            for step in job["steps"]:
                name = step.get("name") or step.get("uses") or step["run"].splitlines()[0]
                if "uses" in step:
                    status, note = "SKIP", "an action, not a shell step"
                elif re.search(r"\bpip install\b", step["run"]):
                    status, note = "SKIP", "pip install needs the network"
                else:
                    start = time.perf_counter()
                    status, note = run_step(step, clone, runner_temp)
                    note = f"{time.perf_counter() - start:.1f} s" + (
                        f"; {note}" if note else "")
                    failed = failed or status == "FAIL"
                print(f"{status:4} {job_name} / {name}: {note}")
            here = f"{sys.version_info.major}.{sys.version_info.minor}"
            unverified = [v for v in versions if v != here]
            if unverified:
                print(f"unverified: the {', '.join(unverified)} rows of {job_name}'s "
                      f"matrix; only {here} ran")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
