"""Every walkthrough in ``demos/`` and the README's quick start run to
completion against the package, and importing it loads no numpy, logging,
statistics or dataclasses.

Each runs as its own process in a fresh directory, because the demos
write ``demo_output/`` into the working directory and a fresh interpreter
shows what the package itself imports.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def run_python(args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)


def test_demos_are_found():
    assert DEMOS, "no demos/*.py found"


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_exits_cleanly(demo, tmp_path):
    done = run_python([str(demo)], tmp_path)
    assert done.returncode == 0, done.stderr


def test_readme_quick_start_runs(tmp_path):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Quick start", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    done = run_python(["-c", block], tmp_path)
    assert done.returncode == 0, done.stderr


def test_the_package_imports_no_numpy(tmp_path):
    # numpy is not a dependency; logging and statistics serve only the
    # penetration-clamp warning and ``validate --historical``; the records
    # are not generated code, so neither dataclasses nor the inspect module
    # it pulls in is needed. Start-up loads none of these unless the
    # interpreter itself does
    probe = ("import sys; {}print(sorted(name for name in "
             "('numpy', 'logging', 'statistics', 'dataclasses', 'inspect') "
             "if name in sys.modules))")
    bare = run_python(["-c", probe.format("")], tmp_path)
    package = run_python(["-c", probe.format("import fitsim, fitsim.cli; ")],
                         tmp_path)
    assert package.returncode == 0, package.stderr
    assert package.stdout == bare.stdout
