"""Packaging for the ``repro`` package (``pip install .``).

The package lives under ``src/``; the version is read from
``src/repro/__init__.py`` as text, so packaging never imports the package.
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

INIT = Path(__file__).resolve().parent / "src" / "repro" / "__init__.py"
VERSION = re.search(r'^__version__ = "([^"]+)"', INIT.read_text(encoding="utf-8"), re.M).group(1)

setup(
    name="repro",
    version=VERSION,
    description="Anonymous Gossip (ICDCS 2001) reproduction: a deterministic "
                "MANET multicast simulator",
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.9",
)
