"""Build script for the optional compiled record scanner.

The extension is built from the hand-written C file _scan.c. The package is
fully functional without it: ifcaudit.spf.backend falls back to the
pure-Python scanner when the compiled one is missing. Package metadata and
the package layout live in pyproject.toml.
"""

from setuptools import Extension, setup

setup(
    ext_modules=[
        Extension("ifcaudit.spf._scan", ["src/ifcaudit/spf/_scan.c"], extra_compile_args=["-O3"])
    ],
)
