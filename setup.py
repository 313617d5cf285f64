"""Build script for the optional compiled record scanner.

The extension is cythonized from _scan.pyx when Cython is installed and built
from the shipped, generated _scan.c otherwise. The package is fully
functional without it: ifcaudit.spf.backend falls back to the pure-Python
scanner when the compiled one is missing.
Package metadata lives in pyproject.toml; the src layout is repeated here so
legacy setup.py code paths resolve it too.
"""

from setuptools import Extension, find_packages, setup

try:
    from Cython.Build import cythonize
except ImportError:  # build the shipped C file instead
    ext_modules = [
        Extension(
            "ifcaudit.spf._scan",
            ["src/ifcaudit/spf/_scan.c"],
            extra_compile_args=["-O3"],
        )
    ]
else:
    ext_modules = cythonize(
        [
            Extension(
                "ifcaudit.spf._scan",
                ["src/ifcaudit/spf/_scan.pyx"],
                extra_compile_args=["-O3"],
            )
        ],
        compiler_directives={"language_level": "3"},
    )

setup(
    name="ifcaudit",
    version="0.1.0",
    python_requires=">=3.10",
    install_requires=["numpy>=1.24"],
    package_dir={"": "src"},
    packages=find_packages("src"),
    package_data={"ifcaudit.schema_data": ["*.txt"]},
    entry_points={"console_scripts": ["ifcaudit = ifcaudit.cli:main"]},
    ext_modules=ext_modules,
)
