"""Package metadata: one name, and the version written once, in the package."""

import warnings
from pathlib import Path

from setuptools.config.pyprojecttoml import read_configuration

import quadricops

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_metadata_names_the_package_and_reads_its_version():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # [tool.setuptools] is marked beta
        project = read_configuration(PYPROJECT)["project"]
    assert project["name"] == "quadricops"
    assert project["version"] == quadricops.__version__
