"""Every walkthrough in ``demos/`` and the README's quick start run to
completion against the package, importing it loads no numpy, logging,
statistics, dataclasses or importlib.resources, and it runs from a zip.

Each runs as its own process in a fresh directory, because the demos
write ``demo_output/`` into the working directory and a fresh interpreter
shows what the package itself imports.
"""

import os
import subprocess
import sys
import zipfile
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
    # without site, whose .pth files may load them anyway, the packaged
    # config is read through the package's own loader: no
    # importlib.resources, and none of the file-system modules it pulls in
    probe = ("import sys; {}print(sorted(name for name in "
             "('importlib.resources', 'pathlib', 'tempfile', 'zipfile') "
             "if name in sys.modules))")
    bare = run_python(["-S", "-c", probe.format("")], tmp_path)
    package = run_python(["-S", "-c", probe.format(
        "import fitsim, fitsim.cli; fitsim.load_default_config(); ")],
        tmp_path)
    assert package.returncode == 0, package.stderr
    assert package.stdout == bare.stdout


def test_the_packaged_config_reads_from_a_zip_import(tmp_path):
    archive = tmp_path / "fitsim.zip"
    with zipfile.ZipFile(archive, "w") as bundle:
        for path in (ROOT / "src" / "fitsim").rglob("*"):
            if path.is_file() and "__pycache__" not in path.parts:
                bundle.write(path, path.relative_to(ROOT / "src"))
    env = dict(os.environ, PYTHONPATH=str(archive))
    done = subprocess.run(
        [sys.executable, "-c",
         "import fitsim; print(fitsim.__file__); "
         "print(fitsim.default_config_text(), end='')"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    where, text = done.stdout.split("\n", 1)
    assert where.startswith(str(archive))
    assert text == (ROOT / "src" / "fitsim" / "data" / "default.cfg"
                    ).read_text(encoding="utf-8")
