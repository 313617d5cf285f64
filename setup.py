"""Build script for the optional compiled record scanner.

The extension is built from the hand-written C file _scan.c. The package is
fully functional without it: ifcaudit.spf.backend falls back to the
pure-Python scanner when the compiled one is missing.
Package metadata lives in pyproject.toml; the src layout is repeated here so
legacy setup.py code paths resolve it too.
"""

from setuptools import Extension, find_packages, setup

setup(
    name="ifcaudit",
    version="0.1.0",
    python_requires=">=3.10",
    install_requires=["numpy>=1.24"],
    package_dir={"": "src"},
    packages=find_packages("src"),
    package_data={"ifcaudit.schema_data": ["*.txt"]},
    entry_points={"console_scripts": ["ifcaudit = ifcaudit.cli:main"]},
    ext_modules=[
        Extension("ifcaudit.spf._scan", ["src/ifcaudit/spf/_scan.c"], extra_compile_args=["-O3"])
    ],
)
