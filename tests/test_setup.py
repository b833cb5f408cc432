"""``setup.py`` describes the ``repro`` package it installs."""

import subprocess
import sys
from pathlib import Path

import repro

ROOT = Path(__file__).resolve().parents[1]


def test_setup_reports_name_and_package_version():
    completed = subprocess.run(
        [sys.executable, "setup.py", "--name", "--version"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    )
    assert completed.stdout.split() == ["repro", repro.__version__]


def test_build_ships_every_package_and_imports_outside_the_checkout(tmp_path):
    subprocess.run(
        [sys.executable, "setup.py", "-q", "build", "--build-base", str(tmp_path / "build")],
        cwd=ROOT,
        capture_output=True,
        check=True,
        timeout=120,
    )
    lib = tmp_path / "build" / "lib"
    assert _packages_under(lib) == _packages_under(ROOT / "src")
    completed = subprocess.run(
        [sys.executable, "-c",
         "import repro, repro.cli, repro.campaign; print(repro.__file__, repro.__version__)"],
        cwd=tmp_path,
        env={"PYTHONPATH": str(lib), "PATH": ""},
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    )
    location, version = completed.stdout.split()
    assert Path(location).is_relative_to(lib) and version == repro.__version__


def _packages_under(root):
    return sorted(".".join(init.parent.relative_to(root).parts)
                  for init in root.rglob("__init__.py"))
