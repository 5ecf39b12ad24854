"""Setuptools entry point (``pip install -e .`` works offline with it)."""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="0.1.0",
    description=(
        "Reproduction of 'A Flexible Network Approach to Privacy of "
        "Blockchain Transactions' (Moedinger et al., ICDCS 2018)"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    # dataclass(slots=True) on the hot-path records needs 3.10 (also the
    # oldest version CI tests).
    python_requires=">=3.10",
    install_requires=["networkx>=2.6", "numpy>=1.21"],
)
