"""Package metadata for ``repro`` (``src/`` layout).

The only packaging file: there is no ``pyproject.toml``.  Offline
workspaces without the ``wheel`` package install it with
``python setup.py develop`` rather than a PEP 660 editable install.
``networkx`` is a runtime dependency: ``repro.topologies.generators``
imports it at module level, and through it so do ``repro.cli``,
``repro.scenarios`` and the service daemon's ``load`` verb."""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.9",
    install_requires=["numpy", "networkx"],
)
