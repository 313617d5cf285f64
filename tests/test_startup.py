"""Start-up: each command loads only the modules it calls.

``ifcaudit.cli`` binds the package's heavier modules, and the geometry
modules bind numpy, through ``ifcaudit._lazy``: each loads on its first
attribute access, so only ``check`` loads numpy and the geometry code, and
the read commands load neither the generator, the writer nor the answer
code, nor ``dataclasses``. The test modules import all of these themselves,
so these checks run in a fresh interpreter.
"""

import importlib
import json
import os
import pkgutil
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy  # noqa: F401  loaded on purpose: the in-process check below is the eager side
import pytest

import ifcaudit
from ifcaudit.cli import main
from test_scan_backends import build_compiled

SRC = Path(ifcaudit.__file__).resolve().parents[1]
TRACECLI = Path(__file__).resolve().parents[1] / "perfbench" / "tracecli.py"

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
        absent = "numpy" not in sys.modules
        code = main({argv + ["--out", str(tmp_path / "lazy.json")]!r})
        after = any(m.startswith("numpy.") for m in sys.modules)
        print(json.dumps([before, absent, code, after]))
        """,
        tmp_path,
    )
    assert json.loads(out) == [[], True, 0, True]
    assert (tmp_path / "lazy.json").read_bytes() == (tmp_path / "eager.json").read_bytes()


#: the modules ``import ifcaudit.cli`` registers without running them
LAZY_MODULES = {
    "census", "schema", "georef", "spf.writer", "cli_suite",
    "geomcheck.evaluate", "geomcheck.mesh", "geomcheck.tessellate", "geomcheck.validity",
    "geomgen.generate", "geomgen.suite",
    "benchkit.answers", "benchkit.metrics", "benchkit.roundtrip",
}
GEOMETRY = {"geomcheck.evaluate", "geomcheck.mesh", "geomcheck.tessellate", "geomcheck.validity"}

#: command -> the lazily registered modules it loads (names without ``ifcaudit.``)
FOOTPRINT = {
    "--version": set(),
    "parse a.ifc": set(),
    "census a.ifc": {"census", "schema"},
    "diff a.ifc b.ifc": {"census", "schema"},
    "georef b.ifc": {"georef", "schema"},
    "report roundtrip a.ifc b.ifc": {"benchkit.roundtrip", "census", "georef", "schema"},
    "report answers answers.csv --out report": {
        "benchkit.answers", "benchkit.metrics", "cli_suite"},
    "generate --schema ifc4 --out c.ifc": {
        "cli_suite", "geomgen.generate", "geomgen.suite", "schema", "spf.writer"},
    "check a.ifc --segments 16": GEOMETRY | {"cli_suite", "geomgen.suite", "schema"},
}
#: the commands that read files, and ``--version``: none loads these
#: standard modules, which the others load for their dataclasses
READ_COMMANDS = [c for c in FOOTPRINT if not c.startswith(("generate", "check", "report answers"))]
HEAVY_STDLIB = ["dataclasses", "inspect"]


def test_each_command_loads_only_its_modules(tmp_path):
    (tmp_path / "answers.csv").write_text(ANSWERS, encoding="utf-8")
    for schema, name in (("ifc2x3", "a.ifc"), ("ifc4", "b.ifc")):
        assert main(["generate", "--schema", schema, "--out", str(tmp_path / name)]) == 0
    seen = {}
    for command in FOOTPRINT:
        out = fresh(
            f"""
            import importlib.util, json, sys
            from ifcaudit.cli import main

            def lazy():
                return {{m.removeprefix("ifcaudit.") for m, module in sys.modules.items()
                        if isinstance(module, importlib.util._LazyModule)}}

            before = lazy()
            try:
                code = main({command.split()!r})
            except SystemExit as exc:  # --version
                code = exc.code
            stdlib = [m for m in {HEAVY_STDLIB!r} if m in sys.modules]
            print(json.dumps([sorted(before), code, sorted(before - lazy()), stdlib]))
            """,
            tmp_path,
        )
        before, code, loaded, stdlib = json.loads(out.splitlines()[-1])
        assert set(before) == LAZY_MODULES, command
        seen[command] = (code, set(loaded), stdlib)
    assert seen == {
        command: (0, loaded, [] if command in READ_COMMANDS else HEAVY_STDLIB)
        for command, loaded in FOOTPRINT.items()
    }


def test_compiled_scanner_leaves_pure_patterns_uncompiled(tmp_path, monkeypatch):
    """With the compiled scanner active, the read commands never import the
    pure scanner, so its record patterns are not compiled; asking for both
    backends still reaches it, and the outputs are the pure path's."""
    build_compiled(tmp_path)
    extension = next(tmp_path.glob("_scan*"))
    monkeypatch.chdir(tmp_path)
    for schema, name in (("ifc2x3", "a.ifc"), ("ifc4", "b.ifc")):
        assert main(["generate", "--schema", schema, "--out", str(tmp_path / name)]) == 0
    commands = [c.split() for c in READ_COMMANDS if c != "--version"]
    for i, argv in enumerate(commands):
        assert main(argv + ["--out", str(tmp_path / f"pure{i}.out")]) == 0
    out = fresh(
        f"""
        import importlib.util, json, sys
        spec = importlib.util.spec_from_file_location("ifcaudit.spf._scan", {str(extension)!r})
        sys.modules[spec.name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules[spec.name])
        from ifcaudit.cli import main
        from ifcaudit.spf.backend import active_backend, available_backends

        codes = [main(argv + ["--out", f"compiled{{i}}.out"])
                 for i, argv in enumerate({commands!r})]
        pure_before = "ifcaudit.spf._scan_py" in sys.modules
        backends = sorted(available_backends())
        pure_after = "ifcaudit.spf._scan_py" in sys.modules
        print(json.dumps([active_backend()[0], codes, pure_before, backends, pure_after]))
        """,
        tmp_path,
    )
    assert json.loads(out) == ["compiled", [0] * len(commands), False, ["compiled", "python"], True]
    for i in range(len(commands)):
        compiled = (tmp_path / f"compiled{i}.out").read_bytes()
        assert compiled == (tmp_path / f"pure{i}.out").read_bytes(), commands[i]


PACKAGES = ["ifcaudit.spf", "ifcaudit.geomcheck", "ifcaudit.geomgen", "ifcaudit.benchkit"]


@pytest.mark.parametrize("name", PACKAGES)
def test_package_api(name):
    package = importlib.import_module(name)
    submodules = [
        importlib.import_module(f"{name}.{info.name}")
        for info in pkgutil.iter_modules(package.__path__)
    ]
    for attr in package.__all__:
        value = getattr(package, attr)
        homes = [m for m in submodules if attr in vars(m)]
        assert homes, attr
        assert all(vars(m)[attr] is value for m in homes), attr
    star = {}
    exec(f"from {name} import *", star)
    assert {attr: star[attr] for attr in package.__all__} == {
        attr: getattr(package, attr) for attr in package.__all__
    }
    with pytest.raises(AttributeError, match=rf"module '{name}' has no attribute 'no_such_name'"):
        package.no_such_name


def test_geomgen_suite_submodule_import():
    from ifcaudit.geomgen import suite

    assert suite is sys.modules["ifcaudit.geomgen.suite"]
    assert suite.SUITE_ITEMS is ifcaudit.geomgen.SUITE_ITEMS


def test_tracer_wraps_lazy_modules(tmp_path):
    """perfbench's tracer wraps functions on the modules after ``import
    ifcaudit.cli``; the commands must call those wrappers."""
    (tmp_path / "answers.csv").write_text(ANSWERS, encoding="utf-8")
    assert main(["generate", "--schema", "ifc4", "--out", str(tmp_path / "b.ifc")]) == 0
    env = dict(os.environ, PYTHONPATH=str(SRC))
    spans, ear_clips = set(), 0
    for i, argv in enumerate([
        ["census", "b.ifc"],
        ["georef", "b.ifc"],
        ["check", "b.ifc", "--segments", "16"],
        ["report", "answers", "answers.csv", "--out", "report"],
    ]):
        trace = tmp_path / f"trace{i}.json"
        done = subprocess.run(
            [sys.executable, str(TRACECLI), str(trace), *argv],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        recorded = json.loads(trace.read_text(encoding="utf-8"))
        spans |= {span[0] for span in recorded["spans"]}
        ear_clips += recorded["counted"].get("geomcheck.ear_clip", [0])[0]
    assert {"spf.parse", "census.census", "georef.detect", "geomcheck.evaluate",
            "benchkit.answers"} <= spans
    assert ear_clips > 0
