"""Setup shim so `pip install -e .` works without the `wheel` package.

The environment is offline and has no `wheel` distribution, so PEP 660
editable installs (which build an editable wheel) fail.  With a
`setup.py` present and no `[build-system]` table in pyproject.toml, pip
falls back to the legacy `setup.py develop` editable path, which needs
only setuptools.  Package metadata lives here for that reason.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=(
        "Logical Memory Pools: a simulator-backed reproduction of the "
        "HotNets '23 paper"
    ),
    license="Apache-2.0",
    python_requires=">=3.10",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    install_requires=["numpy", "scipy", "networkx"],
    extras_require={"dev": ["pytest", "hypothesis"]},
)
