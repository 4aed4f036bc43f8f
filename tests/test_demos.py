"""Smoke test: every script in demos/ runs to completion without warnings."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import crowdpolicy

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _environment():
    """This process's environment, with each PYTHONPATH entry made absolute.

    The demos run in a temporary directory, so a relative entry such as
    ``src`` is resolved first; without PYTHONPATH they import the installed
    package, as this suite does.
    """
    env = dict(os.environ)
    if env.get("PYTHONPATH"):
        entries = env["PYTHONPATH"].split(os.pathsep)
        env["PYTHONPATH"] = os.pathsep.join(map(os.path.abspath, entries))
    return env


def test_the_demos_import_the_copy_this_suite_imports(tmp_path):
    result = subprocess.run(
        [sys.executable, "-c", "import crowdpolicy; print(crowdpolicy.__file__)"],
        cwd=tmp_path, env=_environment(), capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert Path(result.stdout.strip()).resolve() == Path(crowdpolicy.__file__).resolve()


@pytest.mark.parametrize("script", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_script_runs(script, tmp_path):
    result = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", str(script)],
        cwd=tmp_path, env=_environment(), capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
