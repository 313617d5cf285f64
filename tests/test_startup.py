"""Start-up: only ``check`` loads numpy.

The geometry modules bind ``np`` to a lazily loaded numpy, so every other
command starts and finishes without it. The test modules import numpy
themselves, so these checks run in a fresh interpreter.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy  # noqa: F401  loaded on purpose: the in-process check below is the eager side

import ifcaudit
from ifcaudit.cli import main

SRC = Path(ifcaudit.__file__).resolve().parents[1]

#: the modules perfbench's tracer patches by name after ``import ifcaudit.cli``
TRACED_MODULES = [
    "ifcaudit.spf.parser",
    "ifcaudit.spf.attrparse",
    "ifcaudit.spf.writer",
    "ifcaudit.schema",
    "ifcaudit.census",
    "ifcaudit.georef",
    "ifcaudit.geomgen.generate",
    "ifcaudit.geomcheck.validity",
    "ifcaudit.geomcheck.evaluate",
    "ifcaudit.geomcheck.tessellate",
    "ifcaudit.benchkit.roundtrip",
    "ifcaudit.benchkit.answers",
    "ifcaudit.benchkit.metrics",
]

ANSWERS = (
    "#answers-schema: 1\n"
    "software,version,expertise,dataset,category,question,value,slot\n"
    "X,1,2,house,Georeferencing,georef,1,\n"
    "X,1,2,house,Timing,import,immediate,\n"
    "Y,1,1,house,Georeferencing,georef,0,\n"
    "X,1,2,geometries,GeometryItem,displayed,yes,A1\n"
    "Y,1,1,geometries,GeometryItem,displayed,no,A1\n"
)


def fresh(script: str, cwd: Path) -> str:
    """Run ``script`` in a new interpreter that imports ifcaudit from this
    tree; its stdout."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(script)],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_read_paths_load_no_numpy(tmp_path):
    (tmp_path / "answers.csv").write_text(ANSWERS, encoding="utf-8")
    out = fresh(
        """
        import json, sys
        from ifcaudit.cli import main

        def loaded():
            return sorted(m for m in sys.modules if m.startswith("numpy."))

        runs = [
            ["generate", "--schema", "ifc2x3", "--out", "a.ifc"],
            ["generate", "--schema", "ifc4", "--out", "b.ifc"],
            ["parse", "a.ifc", "--out", "parse.json"],
            ["census", "a.ifc", "--out", "census.json"],
            ["diff", "a.ifc", "b.ifc", "--out", "diff.json"],
            ["georef", "b.ifc", "--out", "georef.json"],
            ["report", "roundtrip", "a.ifc", "b.ifc", "--out", "roundtrip.json"],
            ["report", "answers", "answers.csv", "--out", "report"],
        ]
        seen = {}
        try:
            main(["--version"])
        except SystemExit:
            pass
        seen["--version"] = [0, loaded()]
        for argv in runs:
            seen[" ".join(argv)] = [main(argv), loaded()]
        print(json.dumps(seen))
        """,
        tmp_path,
    )
    version, report = out.splitlines()
    assert version == f"ifcaudit {ifcaudit.__version__}"
    seen = json.loads(report)
    assert len(seen) == 9
    assert {command: code for command, (code, _) in seen.items()} == dict.fromkeys(seen, 0)
    assert {command: mods for command, (_, mods) in seen.items() if mods} == {}


def test_cli_import_keeps_traced_modules(tmp_path):
    out = fresh(
        """
        import json, sys
        import ifcaudit.cli
        print(json.dumps(sorted(m for m in sys.modules if m.startswith("ifcaudit"))))
        """,
        tmp_path,
    )
    assert set(TRACED_MODULES) <= set(json.loads(out))


def test_lazy_numpy_check_matches_eager(tmp_path):
    assert "numpy.linalg" in sys.modules  # in process, numpy is loaded before check runs
    suite, manifest = tmp_path / "suite.ifc", tmp_path / "suite.json"
    assert main(["generate", "--schema", "ifc2x3", "--out", str(suite),
                 "--manifest", str(manifest)]) == 0
    argv = ["check", str(suite), "--manifest", str(manifest), "--segments", "64"]
    assert main(argv + ["--out", str(tmp_path / "eager.json")]) == 0
    out = fresh(
        f"""
        import json, sys
        from ifcaudit.cli import main
        before = sorted(m for m in sys.modules if m.startswith("numpy."))
        lazy = type(sys.modules["numpy"]).__name__
        code = main({argv + ["--out", str(tmp_path / "lazy.json")]!r})
        after = any(m.startswith("numpy.") for m in sys.modules)
        print(json.dumps([before, lazy, code, after]))
        """,
        tmp_path,
    )
    assert json.loads(out) == [[], "_LazyModule", 0, True]
    assert (tmp_path / "lazy.json").read_bytes() == (tmp_path / "eager.json").read_bytes()
