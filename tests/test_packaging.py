"""Package metadata: one name, the version written once, in the package,
and every third-party module the tests import declared as a test extra."""

import ast
import sys
import warnings
from pathlib import Path

from setuptools.config.pyprojecttoml import read_configuration

import quadricops

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
TESTS = Path(__file__).resolve().parent


def _project() -> dict:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # [tool.setuptools] is marked beta
        return read_configuration(PYPROJECT)["project"]


def test_metadata_names_the_package_and_reads_its_version():
    project = _project()
    assert project["name"] == "quadricops"
    assert project["version"] == quadricops.__version__


def test_test_extra_declares_every_third_party_import_of_the_tests():
    imported = set()
    for path in TESTS.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported |= {alias.name.split(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    local = {"quadricops"} | {path.stem for path in TESTS.glob("*.py")}
    third_party = imported - local - set(sys.stdlib_module_names)
    assert third_party <= set(_project()["optional-dependencies"]["test"])
