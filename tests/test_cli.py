import json
import math
import re
from pathlib import Path

import pytest

from ifcaudit.cli import main
from ifcaudit.spf import ListValue
from ifcaudit.spf.values import text


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def suite_file(tmp_path):
    out = tmp_path / "suite.ifc"
    manifest = tmp_path / "suite.json"
    code = main(
        [
            "generate", "--schema", "ifc2x3", "--out", str(out),
            "--manifest", str(manifest),
        ]
    )
    assert code == 0
    return out, manifest


def test_generate_then_census(capsys, suite_file):
    out, _ = suite_file
    code, stdout, _ = run(capsys, "census", str(out))
    assert code == 0
    payload = json.loads(stdout)
    assert payload["counts"]["IFCBUILDINGELEMENTPROXY"] == 30
    assert payload["schema"] == "IFC2X3"


def test_census_csv_format(capsys, suite_file):
    out, _ = suite_file
    code, stdout, _ = run(capsys, "census", str(out), "--format", "csv")
    assert code == 0
    assert "IFCBUILDINGELEMENTPROXY,30" in stdout


def test_diff_expect_unchanged_identical(capsys, suite_file):
    out, _ = suite_file
    code, *_ = run(capsys, "diff", str(out), str(out), "--expect-unchanged")
    assert code == 0


def test_diff_expect_unchanged_fails_on_change(capsys, tmp_path, suite_file):
    out, _ = suite_file
    other = tmp_path / "other.ifc"
    code = main(["generate", "--schema", "ifc4", "--out", str(other)])
    assert code == 0
    code, _, err = run(capsys, "diff", str(out), str(other), "--expect-unchanged")
    assert code == 1
    assert "expect-unchanged" in err


def test_check_reports_seven_invalid(capsys, suite_file):
    out, manifest = suite_file
    code, stdout, _ = run(
        capsys, "check", str(out), "--manifest", str(manifest), "--expect-match"
    )
    assert code == 0  # findings are data, not errors
    payload = json.loads(stdout)
    invalid = [i["slot"] for i in payload["items"] if i["validity"] == "Invalid"]
    assert sorted(invalid) == ["B3", "B4", "C1", "C5", "D4", "E3", "F5"]
    assert all(i.get("matches_manifest", True) for i in payload["items"])


def test_check_json_sorted_keys(capsys, suite_file):
    out, manifest = suite_file
    _, stdout, _ = run(capsys, "check", str(out), "--manifest", str(manifest))
    parsed = json.dumps(json.loads(stdout), indent=2, sort_keys=True) + "\n"
    assert stdout == parsed


def test_parse_summary(capsys, suite_file):
    out, _ = suite_file
    code, stdout, _ = run(capsys, "parse", str(out))
    assert code == 0
    payload = json.loads(stdout)
    assert payload["instances"] == 619
    assert payload["schema"] == "IFC2X3"


def test_georef_empty_for_suite(capsys, suite_file):
    out, _ = suite_file
    code, stdout, _ = run(capsys, "georef", str(out))
    assert code == 0
    payload = json.loads(stdout)
    assert payload["levels"] == []


def test_missing_file_is_exit_2(capsys):
    code, _, err = run(capsys, "census", "/nonexistent/nope.ifc")
    assert code == 2
    assert "error" in err


def test_malformed_file_is_exit_2(capsys, tmp_path):
    bad = tmp_path / "bad.ifc"
    bad.write_bytes(b"not a step file")
    code, _, err = run(capsys, "parse", str(bad))
    assert code == 2


def test_inputs_never_modified(capsys, suite_file):
    out, manifest = suite_file
    before = out.read_bytes()
    run(capsys, "census", str(out))
    run(capsys, "check", str(out), "--manifest", str(manifest))
    run(capsys, "georef", str(out))
    assert out.read_bytes() == before


def test_report_roundtrip(capsys, suite_file, tmp_path):
    out, _ = suite_file
    code, stdout, _ = run(capsys, "report", "roundtrip", str(out), str(out))
    assert code == 0
    payload = json.loads(stdout)
    assert payload["unchanged"] is True


def test_report_roundtrip_expectation(capsys, suite_file, tmp_path):
    out, _ = suite_file
    other = tmp_path / "ifc4.ifc"
    main(["generate", "--schema", "ifc4", "--out", str(other)])
    code, *_ = run(
        capsys, "report", "roundtrip", str(out), str(other), "--expect-unchanged"
    )
    assert code == 1


def test_report_roundtrip_holds_one_graph_at_a_time(capsys, monkeypatch, suite_file, tmp_path):
    import gc
    import weakref

    import ifcaudit.cli

    out, _ = suite_file
    other = tmp_path / "ifc4.ifc"
    main(["generate", "--schema", "ifc4", "--out", str(other)])
    load, graphs, alive_at_load = ifcaudit.cli._load, [], []

    def tracked(path, **options):
        alive_at_load.append([ref() is not None for ref in graphs])
        graph = load(path, **options)
        graphs.append(weakref.ref(graph))
        return graph

    monkeypatch.setattr(ifcaudit.cli, "_load", tracked)
    gc.disable()  # only reference counts may free the reference graph
    try:
        code, *_ = run(capsys, "report", "roundtrip", str(out), str(other))
    finally:
        gc.enable()
    assert code == 0
    assert alive_at_load == [[], [False]]


def test_report_answers(capsys, tmp_path):
    records = tmp_path / "answers.csv"
    records.write_text(
        "#answers-schema: 1\n"
        "software,version,expertise,dataset,category,question,value,slot\n"
        "X,1,2,house,Georeferencing,georef,1,\n"
        "X,1,2,house,Timing,import,immediate,\n"
        "Y,1,1,house,Georeferencing,georef,0,\n"
        "X,1,2,geometries,GeometryItem,displayed,yes,A1\n"
        "Y,1,1,geometries,GeometryItem,displayed,no,A1\n",
        encoding="utf-8",
    )
    out_dir = tmp_path / "report"
    code, _, err = run(capsys, "report", "answers", str(records), "--out", str(out_dir))
    assert code == 0
    metrics = json.loads((out_dir / "metrics.json").read_text())
    assert metrics["visibility_ratio"]["A1"] == 0.5
    assert (out_dir / "synthesis.md").exists()
    assert (out_dir / "scores.csv").exists()


def test_generate_deterministic_with_env(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("IFCAUDIT_TIMESTAMP", "2020-06-01T12:00:00")
    a = tmp_path / "a.ifc"
    b = tmp_path / "b.ifc"
    main(["generate", "--schema", "ifc2x3", "--out", str(a)])
    main(["generate", "--schema", "ifc2x3", "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_mesh_dump(capsys, tmp_path, suite_file):
    out, manifest = suite_file
    dump_dir = tmp_path / "meshes"
    code, *_ = run(
        capsys, "check", str(out), "--manifest", str(manifest),
        "--mesh-dump", str(dump_dir),
    )
    assert code == 0
    assert (dump_dir / "B2.tris").exists()
    line = (dump_dir / "B2.tris").read_text().splitlines()[0]
    assert len(line.split()) == 9


def test_check_without_manifest_uses_context_precision(capsys, suite_file):
    out, _ = suite_file
    code, stdout, _ = run(capsys, "check", str(out))
    assert code == 0
    payload = json.loads(stdout)
    assert len(payload["items"]) == 30
    invalid = [i["slot"] for i in payload["items"] if i["validity"] == "Invalid"]
    assert sorted(invalid) == ["B3", "B4", "C1", "C5", "D4", "E3", "F5"]


def write_with_record(path, graph, record: bytes):
    from ifcaudit.spf import write_spf

    head, tail = write_spf(graph).rsplit(b"ENDSEC;", 1)
    path.write_bytes(head + record + b"\nENDSEC;" + tail)
    return str(path)


@pytest.fixture()
def deep_file(tmp_path):
    from tests_helpers import georef_fixture_l20

    deep = b"(" * 5000 + b"IFCINTEGER(1)" + b")" * 5000
    record = b"#900=IFCPROPERTYLISTVALUE('Deep',$," + deep + b",$);"
    return write_with_record(tmp_path / "deep.ifc", georef_fixture_l20(), record)


def test_parse_rejects_deep_nesting(capsys, deep_file):
    code, stdout, err = run(capsys, "parse", deep_file)
    assert code == 2
    assert stdout == ""
    assert "Traceback" not in err
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")


def test_georef_reads_around_deep_nesting(capsys, deep_file):
    code, stdout, _ = run(capsys, "georef", deep_file)
    assert code == 0
    assert json.loads(stdout)["levels"] == [20]


LONG_DIGITS = b"9" * 5000  # past Python's default int-string limit of 4300 digits


#: where the number stands, the command, and its error; ``None`` where the
#: command never reads the number, so it succeeds
UNREADABLE_NUMBERS = [
    ("id", "census", "instance id too long to read"),
    ("id", "parse", "instance id too long to read"),
    ("reference", "census", None), ("reference", "parse", "reference too long to read"),
    ("integer", "georef", "too long to read"), ("integer", "parse", "too long to read"),
    ("real", "georef", "real out of range"), ("real", "parse", "real out of range"),
]


@pytest.mark.parametrize(
    "where, command, reason",
    UNREADABLE_NUMBERS,
    ids=[f"{where}-{command}" for where, command, _ in UNREADABLE_NUMBERS],
)
def test_overlong_integer_is_malformed(capsys, tmp_path, where, command, reason):
    from tests_helpers import georef_fixture_l20

    from ifcaudit.spf import write_spf

    graph = georef_fixture_l20()
    path = tmp_path / "long.ifc"
    if where == "id":
        write_with_record(path, graph, b"#" + LONG_DIGITS + b"=IFCWALL($);")
    elif where == "reference":
        write_with_record(path, graph, b"#900=IFCWALL(#" + LONG_DIGITS + b");")
    else:  # the site's latitude degrees or its elevation
        old, new = {
            "integer": (b"(52,0,0,0)", b"(" + LONG_DIGITS + b",0,0,0)"),
            "real": (b",2.5,", b",1.E999,"),
        }[where]
        data = write_spf(graph)
        assert data.count(old) == 1
        path.write_bytes(data.replace(old, new))
    code, stdout, err = run(capsys, command, str(path))
    if reason is None:
        assert (code, err) == (0, "")
        assert json.loads(stdout)["counts"]["IFCWALL"] == 1
        return
    assert code == 2
    assert stdout == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {path}: ")
    assert reason in lines[0]
    if where in ("id", "reference"):  # the offset of the '#' before the digits
        offset = path.read_bytes().index(b"#" + LONG_DIGITS)
        assert lines[0].endswith(f" (at byte {offset})")


def test_parse_reports_unknown_escape(capsys, tmp_path):
    from tests_helpers import minimal_building

    record = b"#900=IFCPROPERTYSINGLEVALUE('Note',$,IFCLABEL('vendor \\Q note'),$);"
    path = write_with_record(tmp_path / "escape.ifc", minimal_building(), record)
    code, stdout, err = run(capsys, "parse", path)
    assert code == 0
    assert "[unknown-escape]" in err
    assert any(d.startswith("[unknown-escape]") for d in json.loads(stdout)["diagnostics"])


def test_only_parse_materializes(capsys, monkeypatch, suite_file):
    import ifcaudit.cli
    import ifcaudit.spf
    import ifcaudit.spf.parser

    def refuse(graph):
        raise AssertionError("materialize called")

    for module in (ifcaudit.spf.parser, ifcaudit.spf, ifcaudit.cli):
        monkeypatch.setattr(module, "materialize", refuse)
    out, manifest = suite_file
    for argv in (
        ["georef", str(out)],
        ["check", str(out), "--manifest", str(manifest)],
        ["report", "roundtrip", str(out), str(out)],
    ):
        code, *_ = run(capsys, *argv)
        assert code == 0, argv
    with pytest.raises(AssertionError, match="materialize called"):
        main(["parse", str(out)])


#: an ignored header record, a dangling #99 in a kept record, an overwritten
#: definition that holds the only #77, and an unknown escape
DIAGNOSED = b"""ISO-10303-21;
HEADER;
FILE_DESCRIPTION((''),'2;1');
FILE_NAME('order','2020-01-01T00:00:00',(''),(''),'','','');
FILE_SCHEMA(('IFC2X3'));
FILE_POPULATION('IFC2X3','','');
ENDSEC;
DATA;
#1=IFCBUILDING($,$,'B',$,$,$,$,$,$,$,$,$);
#3=IFCWALL('w',$,$,$,$,#99,#1,$);
#2=IFCWALL('old',$,$,$,$,#77,$,$);
#2=IFCWALL('new \\Q note',$,$,$,$,#1,$,$);
ENDSEC;
END-ISO-10303-21;
"""


def test_parse_lists_diagnostics_in_order(capsys, tmp_path):
    path = tmp_path / "diagnosed.ifc"
    path.write_bytes(DIAGNOSED)
    code, stdout, err = run(capsys, "parse", str(path))
    expected = [
        "[ignored-header-record] header record FILE_POPULATION ignored",
        "[duplicate-id] instance #2 defined twice; last kept",
        "[dangling-reference] reference to missing instance #77",
        "[dangling-reference] reference to missing instance #99",
        "[unknown-escape] escape sequence passed through verbatim: '\\\\Q'",
    ]
    assert code == 0
    assert json.loads(stdout)["diagnostics"] == expected
    assert err.splitlines() == expected


#: seven records, one a complex instance, which is skipped (ROADMAP item 9)
SEVEN_RECORDS = b"""ISO-10303-21;
HEADER;
FILE_DESCRIPTION((''),'2;1');
FILE_NAME('seven','2020-01-01T00:00:00',(''),(''),'','','');
FILE_SCHEMA(('IFC2X3'));
ENDSEC;
DATA;
#1=IFCBUILDING($,$,'B',$,$,$,$,$,$,$,$,$);
#2=IFCWALL('w',$,$,$,$,#3,#1,$);
#3=(IFCA(1)IFCB(2));
#4=IFCWALL('v',$,$,$,$,#99,#1,$);
#5=IFCWALL('u',$,$,$,$,$,#1,$);
#6=IFCWALL('t',$,$,$,$,$,#1,$);
#7=IFCWALL('s',$,$,$,$,$,#1,$);
ENDSEC;
END-ISO-10303-21;
"""


@pytest.mark.parametrize("command", ["census", "georef", "check", "diff", "report roundtrip"])
def test_every_command_reports_load_diagnostics(capsys, tmp_path, command):
    path = tmp_path / "seven.ifc"
    path.write_bytes(SEVEN_RECORDS)
    two_files = command in ("diff", "report roundtrip")
    code, stdout, err = run(capsys, *command.split(), str(path), *[str(path)] * two_files)
    line = "[complex-instance] unsupported complex entity instance #3 skipped"
    assert code == 0 and stdout
    # a command that reads two files names the file of each line
    assert err.splitlines() == ([f"{path}: {line}"] * 2 if two_files else [line])


def test_diagnostics_of_one_code_are_counted_past_the_limit(capsys, tmp_path):
    from ifcaudit._commands import DIAGNOSTIC_LINES

    path = tmp_path / "repeated.ifc"
    record = b"#1=IFCBUILDING($,$,'B',$,$,$,$,$,$,$,$,$);\n"
    path.write_bytes(SEVEN_RECORDS.replace(b"#1=IFCBUILDING", record * 10_000 + b"#1=IFCBUILDING"))
    shown = ["[duplicate-id] instance #1 defined twice; last kept"] * DIAGNOSTIC_LINES
    counted = f"[duplicate-id] {10_000 - DIAGNOSTIC_LINES} more not shown"
    complex_ = "[complex-instance] unsupported complex entity instance #3 skipped"
    code, _, err = run(capsys, "census", str(path))
    assert code == 0
    assert err.splitlines() == [complex_, *shown, counted]
    # parse prints the same, and its JSON still lists every diagnostic
    code, stdout, err = run(capsys, "parse", str(path))
    dangling = [f"[dangling-reference] reference to missing instance #{i}" for i in (3, 99)]
    assert err.splitlines() == [complex_, *shown, *dangling, counted]
    diagnostics = json.loads(stdout)["diagnostics"]
    assert diagnostics.count(shown[0]) == 10_000 and complex_ in diagnostics


@pytest.mark.parametrize("command", ["georef", "parse", "report roundtrip"])
def test_a_failed_command_prints_no_load_diagnostics(capsys, tmp_path, command):
    from tests_helpers import georef_fixture_l30

    from ifcaudit.spf import write_spf

    # a duplicated record is diagnosed on load; the site's out-of-range
    # RefElevation is found only when the command reads it
    data = write_spf(georef_fixture_l30())
    unit = data[data.index(b"#1=") : data.index(b"#2=")]
    data = data.replace(b"#2=", unit + b"#2=", 1)
    data = data.replace(b".ELEMENT.,$,$,$,$,$", b".ELEMENT.,$,$,1.E999,$,$")
    path = tmp_path / "site.ifc"
    path.write_bytes(data)
    two_files = command == "report roundtrip"
    code, _, err = run(capsys, *command.split(), str(path), *[str(path)] * two_files)
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1, err
    # the same file without the bad real succeeds and reports the duplicate
    path.write_bytes(data.replace(b"1.E999", b"$"))
    code, _, err = run(capsys, "georef", str(path))
    assert (code, err) == (0, "[duplicate-id] instance #1 defined twice; last kept\n")


def test_only_parse_reads_references(capsys, monkeypatch, suite_file, tmp_path):
    from tests_helpers import georef_fixture_l30

    from ifcaudit.spf import write_spf
    from ifcaudit.spf.model import References

    def refuse(self):
        raise AssertionError("references read")

    monkeypatch.setattr(References, "__iter__", refuse)
    out, manifest = suite_file
    site = tmp_path / "site.ifc"
    site.write_bytes(write_spf(georef_fixture_l30()))
    for argv in (
        ["census", str(out)],
        ["census", str(site)],
        ["diff", str(out), str(site)],
        ["georef", str(out)],
        ["georef", str(site)],
        ["check", str(out), "--manifest", str(manifest)],
        ["report", "roundtrip", str(out), str(site)],
        ["report", "roundtrip", str(site), str(site)],
    ):
        code, *_ = run(capsys, *argv)
        assert code == 0, argv
    for path in (out, site):
        with pytest.raises(AssertionError, match="references read"):
            main(["parse", str(path)])


def rewrite_once(path, pattern: str, replacement: str) -> None:
    text_ = path.read_text(encoding="latin-1")
    text_, count = re.subn(pattern, replacement, text_)
    assert count == 1, pattern
    path.write_text(text_, encoding="latin-1")


def dangling_direction(graph, proxy, root):
    return rf"(#{root.id}=IFCEXTRUDEDAREASOLID\(#\d+,#\d+,)#\d+", r"\g<1>#999999"


def unset_swept_area(graph, proxy, root):
    return rf"(#{root.id}=IFCEXTRUDEDAREASOLID\()#\d+", r"\1$"


def repeated_directrix_point(graph, proxy, root):
    polyline = root.attr(0).id
    return rf"(#{polyline}=IFCPOLYLINE\(\((#\d+)),#\d+", r"\1,\2"


def self_parent_placement(graph, proxy, root):
    placement = proxy.attr(5).id
    return rf"#{placement}=IFCLOCALPLACEMENT\(#\d+", f"#{placement}=IFCLOCALPLACEMENT(#{placement}"


def unreadable_proxy(graph, proxy, root):
    return rf"(#{proxy.id}=IFCBUILDINGELEMENTPROXY\('[^']*')", r"\1 'x'"


def empty_shell(graph, proxy, root):
    if root.type_name == "IFCBOOLEANRESULT":
        root = graph.deref(root.attr(1))  # the first operand, a faceted brep
    shells = root.attr(0)  # a brep's shell or a surface model's shell list
    shell = graph.deref(shells.items[0] if isinstance(shells, ListValue) else shells)
    return rf"(#{shell.id}=IFC\w*SHELL\()\([^)]*\)", r"\1()"


def no_shells(graph, proxy, root):
    return rf"(#{root.id}=IFCSHELLBASEDSURFACEMODEL\()\([^)]*\)", r"\1()"


@pytest.mark.parametrize(
    "slot, breakage, error",
    [
        ("B2", dangling_direction, "no instance #999999"),
        ("B2", unset_swept_area, "not a reference: UNSET"),
        ("F4", repeated_directrix_point, None),
        ("B2", self_parent_placement, "is its own ancestor"),
        ("B2", unreadable_proxy, "expected end of parameters"),
        ("B1", empty_shell, "has no triangles"),
        ("A5", empty_shell, "has no triangles"),
        ("A1", empty_shell, "has no triangles"),
        ("A5", no_shells, "surface model without shells"),
    ],
)
def test_check_survives_broken_item(capsys, suite_file, slot, breakage, error):
    from ifcaudit.geomcheck import shape_roots, suite_proxies
    from ifcaudit.spf import load
    from ifcaudit.spf.values import text

    out, manifest = suite_file
    argv = ["check", str(out), "--manifest", str(manifest), "--expect-match"]
    _, stdout, _ = run(capsys, *argv)
    intact = {i["slot"]: i for i in json.loads(stdout)["items"]}
    graph = load(out)
    proxy = next(p for p in suite_proxies(graph) if text(p.attr(3)) == slot)
    rewrite_once(out, *breakage(graph, proxy, shape_roots(graph, proxy)[0]))

    code, stdout, err = run(capsys, *argv)
    items = {i["slot"]: i for i in json.loads(stdout)["items"]}
    # an item whose proxy record cannot be read is named by the proxy's id
    label = f"#{proxy.id}" if breakage is unreadable_proxy else slot
    assert "Traceback" not in err
    assert items.keys() == intact.keys() - {slot} | {label}
    assert {s: i for s, i in items.items() if s != label} == {
        s: i for s, i in intact.items() if s != slot
    }
    if error is None:  # a zero-length directrix is valid, but nothing is shown
        assert code == 0
        assert items[slot]["displayed"] is False and items[slot]["volume"] is None
        assert items[slot]["matches_manifest"] is True
        assert "zero-length directrix" in items[slot]["warnings"][0]
        return
    assert error in items[label].pop("error")
    definition = "" if label != slot else intact[slot]["definition"]
    lines = err.splitlines()
    assert lines[0].startswith(f"{label}: error: ") and error in lines[0]
    if breakage in (unset_swept_area, self_parent_placement, empty_shell, no_shells):
        # only the mesh fails: the verdict is kept, and it is what the manifest checks
        assert code == 0
        assert items[label] == {
            "slot": label, "definition": definition, **verdict_of(intact[slot]),
            "matches_manifest": True,
        }
        assert lines[1:] == []
        return
    assert code == 1  # the failed item counts as a manifest mismatch
    assert items[label] == {"slot": label, "definition": definition, "matches_manifest": False}
    assert lines[1:] == ["1 item(s) disagree with the manifest"]


def test_sweep_that_rounds_to_zero_length_is_not_displayed(capsys, suite_file):
    """F4's directrix from the origin to the smallest subnormal, swept over
    [0.1, 0.2]: both ends round to the origin, so no disk is built (its
    axis would be divided by a length of 0)."""
    from ifcaudit.geomcheck import shape_roots, suite_proxies
    from ifcaudit.spf import load

    out, manifest = suite_file
    argv = ["check", str(out), "--manifest", str(manifest), "--expect-match"]
    _, stdout, _ = run(capsys, *argv)
    intact = {i["slot"]: i for i in json.loads(stdout)["items"]}
    graph = load(out)
    (root,) = shape_roots(graph, next(p for p in suite_proxies(graph) if text(p.attr(3)) == "F4"))
    end = graph.deref(root.attr(0)).attr(0).items[1].id
    rewrite_once(out, rf"(#{end}=IFCCARTESIANPOINT\(\()[^)]*", r"\g<1>5.E-324,0.,0.")
    rewrite_once(out, rf"(#{root.id}=IFCSWEPTDISKSOLID\([^$]*\$,)0\.,1\.", r"\g<1>0.1,0.2")

    code, stdout, err = run(capsys, *argv)
    items = {i["slot"]: i for i in json.loads(stdout)["items"]}
    assert (code, err) == (0, "")
    f4 = items.pop("F4")
    assert (f4["displayed"], f4["volume"], f4["matches_manifest"]) == (False, None, True)
    assert f4["warnings"] == ["zero-length sweep; nothing to evaluate"]
    assert items == {s: i for s, i in intact.items() if s != "F4"}


def verdict_of(item):
    return {key: item[key] for key in ("validity", "reasons", "validity_warnings")}


def test_directrix_past_the_float_range_is_an_item_error(capsys, suite_file):
    """F4's directrix from (-1.E308,0.,0.) to (1.E308,0.,0.): its length is
    past the float range, so F4 is an item error that names the directrix,
    with no numpy warning, and every other item is as before."""
    import warnings

    from ifcaudit.geomcheck import shape_roots, suite_proxies
    from ifcaudit.spf import load

    out, _ = suite_file
    capsys.readouterr()
    _, stdout, _ = run(capsys, "check", str(out), "--segments", "8")
    intact = {i["slot"]: i for i in json.loads(stdout)["items"]}
    graph = load(out)
    (root,) = shape_roots(graph, next(p for p in suite_proxies(graph) if text(p.attr(3)) == "F4"))
    directrix = graph.deref(root.attr(0))
    for point, x in zip(directrix.attr(0).items, ("-1.E308", "1.E308")):
        rewrite_once(out, rf"(#{point.id}=IFCCARTESIANPOINT\(\()[^)]*", rf"\g<1>{x},0.,0.")

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, stdout, err = run(capsys, "check", str(out), "--segments", "8")
    error = f"directrix #{directrix.id} has length inf"
    assert (code, caught, err) == (0, [], f"F4: error: {error}\n")
    items = {i["slot"]: i for i in json.loads(stdout)["items"]}
    assert items.pop("F4") == {
        "slot": "F4", "definition": intact["F4"]["definition"], **verdict_of(intact["F4"]),
        "error": error,
    }
    assert items == {s: i for s, i in intact.items() if s != "F4"}


def test_check_far_from_the_origin(capsys, suite_file):
    from ifcaudit.geomcheck import suite_proxies
    from ifcaudit.spf import load

    out, manifest = suite_file
    graph = load(out)
    proxy = next(p for p in suite_proxies(graph) if text(p.attr(3)) == "A4")
    point = graph.deref(graph.deref(graph.deref(proxy.attr(5)).attr(1)).attr(0))
    # at precision 1e-5, the weld's grid keys reach 1e20
    rewrite_once(out, rf"(#{point.id}=IFCCARTESIANPOINT\(\()[^,]*", r"\g<1>1.E15")
    capsys.readouterr()
    code, stdout, err = run(capsys, "check", str(out), "--manifest", str(manifest), "--expect-match")
    assert (code, err) == (0, "")
    a4 = next(i for i in json.loads(stdout)["items"] if i["slot"] == "A4")
    assert a4["displayed"] is True
    assert (a4["volume"], a4["area"]) == (pytest.approx(0.5), pytest.approx(4.0))


def test_overflowing_weld_is_an_item_error(capsys, suite_file):
    import warnings

    out, _ = suite_file
    capsys.readouterr()
    _, stdout, _ = run(capsys, "check", str(out), "--segments", "8")
    meshed = {i["slot"] for i in json.loads(stdout)["items"] if i["volume"] is not None}
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        # at 1e-320 a coordinate of 1 already has a grid key past the float range
        code, stdout, err = run(
            capsys, "check", str(out), "--segments", "8", "--precision", "1e-320"
        )
    assert code == 0
    assert caught == [] and "RuntimeWarning" not in err
    items = {i["slot"]: i for i in json.loads(stdout)["items"]}
    failed = {slot for slot, item in items.items() if "error" in item}
    assert failed == meshed and len(meshed) > 20
    assert all(items[slot]["error"].startswith("weld grid overflows") for slot in failed)
    assert err.splitlines() == [f"{slot}: error: {items[slot]['error']}" for slot in sorted(failed)]


def test_check_keeps_verdicts_when_meshes_fail(capsys, suite_file):
    # the weld overflows for every mesh, but the verdicts do not depend on it
    out, manifest = suite_file
    capsys.readouterr()
    _, stdout, _ = run(capsys, "check", str(out), "--manifest", str(manifest))
    intact = {i["slot"]: i for i in json.loads(stdout)["items"]}
    meshed = {slot for slot, item in intact.items() if item["volume"] is not None}
    code, stdout, err = run(
        capsys, "check", str(out), "--manifest", str(manifest), "--expect-match",
        "--precision", "1e-320",
    )
    assert code == 0
    items = json.loads(stdout)["items"]
    failed = [item for item in items if "error" in item]
    assert {item["slot"] for item in failed} == meshed and len(meshed) > 20
    for item in failed:
        assert item["error"].startswith("weld grid overflows")
        assert item == {
            "slot": item["slot"], "definition": intact[item["slot"]]["definition"],
            **verdict_of(intact[item["slot"]]), "error": item["error"],
            "matches_manifest": True,
        }
    assert err.splitlines() == [f"{i['slot']}: error: {i['error']}" for i in failed]


def test_items_over_the_triangle_budget_are_item_errors(capsys, monkeypatch, suite_file):
    import ifcaudit.geomcheck.evaluate

    out, _ = suite_file
    capsys.readouterr()
    argv = ["check", str(out), "--segments", "64"]
    _, stdout, _ = run(capsys, *argv)
    intact = {i["slot"]: i for i in json.loads(stdout)["items"]}
    monkeypatch.setattr(ifcaudit.geomcheck.evaluate, "TRIANGLE_BUDGET", 4096)
    code, stdout, err = run(capsys, *argv)
    assert code == 0
    items = {i["slot"]: i for i in json.loads(stdout)["items"]}
    # F1 revolves a 64-point ellipse, F2 a 76-point I-shape, 64 steps each
    errors = {"F1": 8192, "F2": 9728}
    for slot, triangles in errors.items():
        message = f"{triangles} triangles exceed the budget of 4096 per item"
        assert items.pop(slot) == {
            "slot": slot, "definition": intact[slot]["definition"],
            **verdict_of(intact[slot]), "error": message,
        }
    assert items == {s: i for s, i in intact.items() if s not in errors}
    assert err.splitlines() == [
        f"{slot}: error: {n} triangles exceed the budget of 4096 per item"
        for slot, n in errors.items()
    ]


def test_faces_over_the_triangle_budget_are_item_errors(capsys, monkeypatch, tmp_path):
    import ifcaudit.geomcheck.evaluate
    from tests_helpers import face_model, holed_face_items

    from ifcaudit.spf import write_spf

    path = tmp_path / "faces.ifc"
    path.write_bytes(write_spf(face_model(holed_face_items())))
    _, stdout, _ = run(capsys, "check", str(path))
    intact = {i["slot"]: i for i in json.loads(stdout)["items"]}
    # the wall's one face has 12 points in three loops: 12 + 2 * 2 - 2
    # triangles. No face of the two prisms has more than 8, but their faces
    # count together: the U prism's two 8-point caps and 8 sides make 28
    # triangles, the holed prism's two caps of 4 + 4 points and 8 sides 32
    monkeypatch.setattr(ifcaudit.geomcheck.evaluate, "TRIANGLE_BUDGET", 13)
    code, stdout, err = run(capsys, "check", str(path))
    assert code == 0
    items = {i["slot"]: i for i in json.loads(stdout)["items"]}
    errors = {"H": 32, "U": 28, "W": 14}
    assert items.keys() == errors.keys()
    for slot, triangles in errors.items():
        assert items[slot] == {
            "slot": slot, "definition": intact[slot]["definition"],
            **verdict_of(intact[slot]),
            "error": f"{triangles} triangles exceed the budget of 13 per item",
        }
    assert err.splitlines() == [f"{slot}: error: {items[slot]['error']}" for slot in errors]


def _limit_address_space():
    """Cap a child's address space at 1.5 GB, in the child alone."""
    import resource

    resource.setrlimit(resource.RLIMIT_AS, (3 << 29, 3 << 29))


def test_fine_revolutions_are_refused_before_they_are_built(suite_file, tmp_path):
    # without the budget, each revolution would need several GB at 4096 segments
    import os
    import subprocess
    import sys

    from ifcaudit.errors import UnsupportedShape
    from ifcaudit.geomcheck import evaluate_item, suite_proxies
    from ifcaudit.spf import load

    out, _ = suite_file
    graph = load(out)
    f1 = next(p for p in suite_proxies(graph) if text(p.attr(3)) == "F1")
    with pytest.raises(UnsupportedShape):  # refused in process first: the child cannot blow up
        evaluate_item(graph, f1, segments=4096)
    ifc4 = tmp_path / "ifc4.ifc"
    assert main(["generate", "--schema", "ifc4", "--out", str(ifc4)]) == 0
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    for path in (out, ifc4):
        result_path = tmp_path / "check.json"
        argv = ["check", str(path), "--segments", "4096", "--out", str(result_path)]
        done = subprocess.run(
            [sys.executable, "-m", "ifcaudit.cli", *argv], env=env, capture_output=True,
            text=True, timeout=120, preexec_fn=_limit_address_space,
        )
        assert done.returncode == 0, done.stderr
        items = json.loads(result_path.read_text())["items"]
        errors = {i["slot"]: i["error"] for i in items if "error" in i}
        assert errors == {
            "F1": "33554432 triangles exceed the budget of 16777216 per item",
            "F2": "33652736 triangles exceed the budget of 16777216 per item",
        }, path.name
        assert done.stderr.splitlines() == [f"{s}: error: {e}" for s, e in errors.items()]


def _ifc4_check_child(tmp_path, *options):
    """Peak RSS in MB of a ``check`` child on the IFC4 suite, and its items."""
    import os
    import subprocess
    import sys

    from tests_helpers import PEAK_RSS

    path, result_path = tmp_path / "ifc4.ifc", tmp_path / "check.json"
    assert main(["generate", "--schema", "ifc4", "--out", str(path)]) == 0
    command = [
        sys.executable, "-m", "ifcaudit.cli", "check", str(path), *options,
        "--out", str(result_path),
    ]
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    spawner = subprocess.run(
        [sys.executable, "-c", PEAK_RSS, *command], env=env, capture_output=True, text=True,
        check=True, timeout=120,
    )
    code, peak_kb = map(int, spawner.stdout.split())
    assert code == 0, spawner.stderr
    items = json.loads(result_path.read_text())["items"]
    assert not any("error" in i for i in items)
    return peak_kb / 1024, items


def test_fine_check_child_peaks_under_108_mb(tmp_path):
    # a 1024-segment revolution of the IFC4 suite meshes 2.1 M triangles;
    # building, measuring and welding it must not hold many corner-sized
    # arrays at once (about 100 MB with the weld's ranks searched in a sorted
    # copy, 113 MB with argsort permutations, 129 MB with a new array from
    # every transform, 153 MB with two meshes alive)
    peak_mb, _ = _ifc4_check_child(tmp_path, "--segments", "1024")
    assert peak_mb < 108, f"check child peaked at {peak_mb:.0f} MB"


def test_mesh_dump_child_peaks_under_60_mb(tmp_path):
    # the dump of a 512-segment revolution is about 48 MB of text: written
    # a block at a time, with only the block's vertices formatted, it is
    # never held whole, nor encoded whole (about 52 MB, against 103 MB with
    # every vertex formatted at once and 175 MB with the text and its bytes
    # held)
    dump_dir = tmp_path / "meshes"
    peak_mb, items = _ifc4_check_child(tmp_path, "--segments", "512", "--mesh-dump", str(dump_dir))
    assert peak_mb < 60, f"check child peaked at {peak_mb:.0f} MB"
    assert len(list(dump_dir.glob("*.tris"))) == sum(i["volume"] is not None for i in items)


@pytest.mark.parametrize(
    "command",
    ["georef", "parse", "report roundtrip GOOD BAD", "report roundtrip BAD GOOD"],
)
def test_lazy_attribute_error_names_file_and_record(capsys, tmp_path, command):
    from tests_helpers import georef_fixture_l20

    from ifcaudit.spf import write_spf

    graph = georef_fixture_l20()
    site = graph.by_type("IFCSITE")[0]
    good = write_spf(graph)
    data = good.replace(b"'siteguid',", b"'siteguid' 'x',", 1)
    path = tmp_path / "bad_site.ifc"
    path.write_bytes(data)
    (tmp_path / "good_site.ifc").write_bytes(good)
    argv = command.split() if " " in command else [command, "BAD"]
    paths = {"GOOD": str(tmp_path / "good_site.ifc"), "BAD": str(path)}
    code, stdout, err = run(capsys, *(paths.get(arg, arg) for arg in argv))
    assert code == 2
    assert stdout == ""
    offset = data.index(b"'x'")
    assert err.splitlines() == [
        f"error: {path}: #{site.id}: expected end of parameters near "
        f"{data[offset:offset + 20].decode()!r} (at byte {offset})"
    ]


@pytest.mark.parametrize(
    "raised, line",
    [
        (MemoryError(), "error: out of memory"),
        (MemoryError("no 384 MiB"), "error: out of memory: no 384 MiB"),
    ],
)
def test_out_of_memory_is_exit_2(capsys, monkeypatch, suite_file, raised, line):
    import ifcaudit.census

    def exhausted(graph):
        raise raised

    monkeypatch.setattr(ifcaudit.census, "census", exhausted)
    out, _ = suite_file
    capsys.readouterr()
    code, stdout, err = run(capsys, "census", str(out))
    assert (code, stdout, err.splitlines()) == (2, "", [line])


@pytest.mark.parametrize("segments", ["0", "2", "-5"])
def test_check_segments_below_three_is_usage_error(capsys, suite_file, segments):
    out, _ = suite_file
    capsys.readouterr()
    code, stdout, err = run(capsys, "check", str(out), "--segments", segments)
    assert code == 2
    assert stdout == ""
    assert err.splitlines() == [f"error: --segments must be at least 3, not {segments}"]


@pytest.mark.parametrize("value", ["-1", "0", "nan", "inf", "1e999"])
@pytest.mark.parametrize(
    "command, option",
    [("generate", "--spacing"), ("generate", "--precision"), ("check", "--precision")],
)
def test_numeric_option_must_be_finite_and_positive(
    capsys, tmp_path, suite_file, command, option, value
):
    out, _ = suite_file
    written = tmp_path / "written.ifc"
    argv = ["check", str(out)]
    if command == "generate":
        argv = ["generate", "--schema", "ifc2x3", "--out", str(written)]
    capsys.readouterr()
    code, stdout, err = run(capsys, *argv, option, value)
    assert code == 2
    assert stdout == ""
    rule = "above 0 and at most 5e+102" if command == "check" else "a finite number above 0"
    assert err.splitlines() == [f"error: {option} must be {rule}, not {float(value)}"]
    assert not written.exists()


@pytest.mark.parametrize("source", ["option", "manifest", "context 1.E103", "context 1.E308"])
def test_precision_whose_cube_overflows(capsys, suite_file, source):
    """A precision above 5e102 has a cube, the least volume a displayed
    solid has, past the float range. ``check`` refuses it as an option or
    in a manifest, exit 2 with one error line, and passes over it in the
    file's context for the default precision, as it does a precision of 0."""
    out, manifest = suite_file
    capsys.readouterr()
    code, intact, err = run(capsys, "check", str(out), "--segments", "8")
    assert (code, err) == (0, "")
    argv = ["check", str(out), "--segments", "8"]
    if source == "option":
        argv += ["--precision", "1e103"]
    elif source == "manifest":
        data = json.loads(manifest.read_text())
        manifest.write_text(json.dumps({**data, "precision": 1e300}))
        argv += ["--manifest", str(manifest)]
    else:
        value = source.split()[-1]
        rewrite_once(out, r"(IFCGEOMETRICREPRESENTATIONCONTEXT\([^,]*,[^,]*,3,)[^,]*", rf"\g<1>{value}")
    code, stdout, err = run(capsys, *argv)
    if source.startswith("context"):
        assert (code, stdout, err) == (0, intact, "")
        return
    reason = {
        "option": "--precision must be above 0 and at most 5e+102, not 1e+103",
        "manifest": f"{manifest}: not a suite manifest (ValueError: precision 1e+300 is not "
        "above 0 and at most 5e+102)",
    }[source]
    assert (code, stdout, err) == (2, "", f"error: {reason}\n")


@pytest.mark.parametrize("value", ["1e102", "5e102"])
def test_largest_precisions_still_check(capsys, suite_file, value):
    # a unit cube is not displayed at a precision this coarse, and nothing overflows
    out, _ = suite_file
    capsys.readouterr()
    code, stdout, err = run(capsys, "check", str(out), "--segments", "8", "--precision", value)
    assert (code, err) == (0, "")
    assert not any(item["displayed"] for item in json.loads(stdout)["items"])


@pytest.mark.parametrize(
    "value, extra", [("1e308", []), ("3e307", ["--extra-below-precision"])]
)
def test_spacing_past_the_float_range_is_usage_error(capsys, tmp_path, value, extra):
    # the grid's far corner, 5 or 6 spacings out, would be written as inf
    written = tmp_path / "written.ifc"
    argv = ["generate", "--schema", "ifc2x3", "--out", str(written), "--spacing", value]
    code, stdout, err = run(capsys, *argv, *extra)
    assert code == 2
    assert stdout == ""
    assert err.splitlines() == [
        f"error: --spacing {float(value)} puts the suite's grid past the float range"
    ]
    assert not written.exists()


@pytest.mark.parametrize("value", [-1.0, 0.0, math.nan, math.inf])
@pytest.mark.parametrize("option", ["spacing", "precision"])
def test_suite_options_must_be_finite_and_positive(option, value):
    from ifcaudit.geomgen import generate_geometry_suite
    from ifcaudit.schema import SchemaVersion

    with pytest.raises(ValueError, match=f"{option} must be finite and positive"):
        generate_geometry_suite(SchemaVersion.IFC2X3, **{option: value})


def trailing_comma_in_site(path):
    """Writes a site record whose parameters end in a comma; returns the
    offset where a value is missing."""
    from tests_helpers import georef_fixture_l10

    from ifcaudit.spf import write_spf

    data, count = re.subn(rb"(#\d+=IFCSITE\(.*,#\d+)\);", rb"\1,);", write_spf(georef_fixture_l10()))
    assert count == 1
    path.write_bytes(data)
    return data.index(b",);") + 1


def header_cut_short(path):
    from tests_helpers import minimal_building

    from ifcaudit.spf import write_spf

    data = write_spf(minimal_building("IFC4"))
    data = data[: data.index(b"FILE_SCHEMA(('IFC4')") + len(b"FILE_SCHEMA(('IFC4')")] + b","
    path.write_bytes(data)
    return len(data)


@pytest.mark.parametrize(
    "breakage, command",
    [
        (trailing_comma_in_site, "georef"),
        (trailing_comma_in_site, "parse"),
        (header_cut_short, "census"),
    ],
)
def test_early_end_of_parameters_is_malformed(capsys, tmp_path, breakage, command):
    path = tmp_path / "early_end.ifc"
    offset = breakage(path)
    code, stdout, err = run(capsys, command, str(path))
    assert code == 2
    assert stdout == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {path}: ")
    assert lines[0].endswith(f"expected attribute value near '' (at byte {offset})")


# raw STEP text of a slot; "ABS" stands for an absolute path outside the dump directory,
# and "#1" would be the fallback name of another proxy's dump
ESCAPING_SLOTS = [
    "../../escaped", "ABS", "\\X\\00", "x\\X\\00y", "", ".", "..", "a\\\\b", "c/d", "L" * 300,
    "#1", "#x",
]


@pytest.mark.parametrize(
    "raw",
    ESCAPING_SLOTS,
    ids=["parent", "absolute", "nul", "inner-nul", "empty", "dot", "dotdot", "backslash", "slash",
         "too-long", "hash-id", "hash"],
)
def test_mesh_dump_stays_in_its_directory(capsys, tmp_path, suite_file, raw):
    from ifcaudit.spf.strings import decode_step_string

    out, manifest = suite_file
    argv = ["check", str(out), "--manifest", str(manifest), "--expect-match"]
    _, stdout, _ = run(capsys, *argv, "--mesh-dump", str(tmp_path / "intact"))
    intact = {i["slot"]: i for i in json.loads(stdout)["items"]}
    raw = raw.replace("ABS", str(tmp_path / "abs_escape"))
    data = out.read_text(encoding="latin-1")
    m = re.search(r"#(\d+)=IFCBUILDINGELEMENTPROXY\('[^']*',#\d+,'[^']*',('B2')", data)
    out.write_text(data[: m.start(2)] + f"'{raw}'" + data[m.end(2) :], encoding="latin-1")
    proxy_id, slot = m.group(1), decode_step_string(raw)[0]

    before = set(tmp_path.rglob("*"))
    dump_dir = tmp_path / "nested" / "meshes"
    code, stdout, err = run(capsys, *argv, "--mesh-dump", str(dump_dir))
    assert code == 0
    assert "Traceback" not in err
    created = set(tmp_path.rglob("*")) - before
    assert created == {tmp_path / "nested", dump_dir} | set(dump_dir.iterdir())
    items = {i["slot"]: i for i in json.loads(stdout)["items"]}
    assert items.keys() == intact.keys() - {"B2"} | {slot}
    assert {s: i for s, i in items.items() if s != slot} == {
        s: i for s, i in intact.items() if s != "B2"
    }
    dumps = {p.name for p in dump_dir.iterdir()}
    assert dumps == {p.name for p in (tmp_path / "intact").iterdir()} - {"B2.tris"} | {
        f"#{proxy_id}.tris"
    }


def test_mesh_dump_keeps_each_item_of_a_repeated_slot(capsys, tmp_path, suite_file):
    out, _ = suite_file
    data = out.read_text(encoding="latin-1")
    m = re.search(r"#(\d+)=IFCBUILDINGELEMENTPROXY\('[^']*',#\d+,'[^']*','(B2)'", data)
    out.write_text(data[: m.start(2)] + "B1" + data[m.end(2) :], encoding="latin-1")
    dump_dir = tmp_path / "meshes"
    code, stdout, _ = run(capsys, "check", str(out), "--mesh-dump", str(dump_dir))
    assert code == 0
    items = json.loads(stdout)["items"]
    assert [i["slot"] for i in items].count("B1") == 2
    meshes = sum(i.get("volume") is not None for i in items)
    dumps = {p.name for p in dump_dir.iterdir()}
    assert meshes == len(dumps) == 25
    assert {"B1.tris", f"#{m.group(1)}.tris"} <= dumps and "B2.tris" not in dumps


@pytest.mark.parametrize(
    "content",
    [
        b"{",
        b"\xff\xfe",
        b'{"items": []}',
        b"[]",
        b'{"precision": 1e-05, "items": [{"expected_validity": {"valid": true, "reasons": []}}]}',
        b'{"precision": 1e-05, "items": [{"slot": "A1", "expected_validity": true}]}',
        b'{"precision": null, "items": []}',
        b'{"precision": NaN, "items": []}',
        b'{"precision": -1e-05, "items": []}',
    ],
    ids=["truncated", "not-utf8", "no-precision", "list", "no-slot", "bare-validity",
         "null-precision", "nan-precision", "negative-precision"],
)
def test_malformed_manifest_is_usage_error(capsys, tmp_path, suite_file, content):
    out, _ = suite_file
    capsys.readouterr()
    manifest = tmp_path / "broken.json"
    manifest.write_bytes(content)
    code, stdout, err = run(capsys, "check", str(out), "--manifest", str(manifest))
    assert code == 2
    assert stdout == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {manifest}: not a suite manifest (")


@pytest.mark.parametrize(
    "name, content, reason",
    [
        ("a.csv", "garbage\n1,2\n", "line 2: missing field 'software'"),
        ("a.jsonl", '{"x":1}\n', "line 1: missing field 'software'"),
        ("a.jsonl", "not json\n", "line 1: not JSON ("),
        ("a.csv", "#answers-schema: 99\nsoftware\n", "unsupported answers schema header"),
        ("a.jsonl", '{"answers_schema": 99}\n', "line 1: unsupported answers schema 99"),
        ("a.csv", "software,category,question,value\nX,bogus,q,1\n",
         "line 2: 'bogus' is not a valid Category"),
        ("a.csv", "software,category,question,value\nX,Semantics,q\n",
         "line 2: missing field 'value'"),
        ("a.jsonl", "[1]\n", "line 1: not an object: [1]"),
        ("a.csv", "\udcff\n", "'utf-8' codec can't decode"),
        ("a.jsonl",
         '{"software":"a","category":"GeometryItem","question":"q","value":"1","slot":"A1"}\n'
         '{"software":"b","category":"GeometryItem","question":"q","value":"1","slot":5}\n',
         "line 2: field 'slot' is not text: 5"),
        ("a.jsonl", '{"software":["a"],"category":"Semantics","question":"q","value":"1"}\n',
         "line 1: field 'software' is not text: ['a']"),
    ],
    ids=["csv-no-columns", "jsonl-no-fields", "not-json", "csv-schema-99", "jsonl-schema-99",
         "bad-category", "short-row", "jsonl-list", "not-utf8", "jsonl-int-slot",
         "jsonl-list-software"],
)
def test_malformed_answers_is_usage_error(capsys, tmp_path, name, content, reason):
    records = tmp_path / name
    records.write_bytes(content.encode("utf-8", "surrogateescape"))
    code, stdout, err = run(capsys, "report", "answers", str(records), "--out",
                            str(tmp_path / "report"))
    assert code == 2
    assert stdout == ""
    assert len(err.splitlines()) == 1
    assert err.startswith(f"error: {records}: {reason}")
    assert not (tmp_path / "report").exists()


# Mutations of one face's loops (outer bound first), as ``prism_faces`` and
# ``wall_face`` give them.
def two_point_loop(loops):
    loops[0] = loops[0][:2]


def repeated_closing_point(loops):
    loops[0] = loops[0] + loops[0][:1]


def collinear_loop(loops):
    x, y, z = loops[0][0]
    loops[0] = [(x + t, y, z) for t in (0.0, 1.0, 2.0, 3.0)]


def hole_outside(loops):
    loops[1] = [(x + 10.0, y, z) for x, y, z in loops[1]]


def hole_on_edge(loops):
    loops[1] = [(x - 1.0, y, z) for x, y, z in loops[1]]


def hole_across_edge(loops):
    loops[1] = [(x - 1.5, y, z) for x, y, z in loops[1]]


def bow_tie(loops):
    # corners 0, 1, 3, then 2 moved out so that the two lobes differ in area
    p0, p1, p2, p3 = loops[0]
    loops[0] = [p0, p1, p3, tuple(c + (c - d) / 2 for c, d in zip(p2, p3))]


def hole_same_winding(loops):
    loops[1] = loops[1][::-1]


@pytest.mark.parametrize(
    "mutation, error",
    [
        (two_point_loop, "bound has 2 point(s), fewer than 3"),
        (repeated_closing_point, None),
        (collinear_loop, "bound has zero projected area"),
        (hole_outside, "inner bound lies outside the outer bound"),
        (hole_on_edge, "bounds touch"),
        (hole_across_edge, "bound edges cross"),
        (bow_tie, "bound edges cross"),
        (hole_same_winding, None),
    ],
)
@pytest.mark.parametrize("slot", ["H", "W"])  # a brep's top face, a surface model's wall
def test_check_reports_broken_faces(capsys, tmp_path, slot, mutation, error):
    from tests_helpers import face_model, holed_face_items

    from ifcaudit.spf import write_spf

    path = tmp_path / "faces.ifc"

    def check(items):
        path.write_bytes(write_spf(face_model(items)))
        code, stdout, err = run(capsys, "check", str(path))
        assert code == 0
        assert "Traceback" not in err
        return {i["slot"]: i for i in json.loads(stdout)["items"]}, err

    items = holed_face_items()
    intact, err = check(items)
    assert err == ""
    faces = next(faces for s, _, faces in items if s == slot)
    mutation(faces[0])
    mutated, err = check(items)
    assert {s: i for s, i in mutated.items() if s != slot} == {
        s: i for s, i in intact.items() if s != slot
    }
    if error is None:  # tolerated: the same shape
        assert err == ""
        for key in ("area", "volume"):
            assert mutated[slot][key] == pytest.approx(intact[slot][key], rel=1e-9, abs=1e-12)
        assert mutated[slot]["centroid"] == pytest.approx(intact[slot]["centroid"], rel=1e-9)
        return
    (line,) = err.splitlines()
    assert re.fullmatch(rf"{slot}: error: face #\d+: {re.escape(error)}", line)
    assert mutated[slot] == {
        "slot": slot, "definition": slot, **verdict_of(intact[slot]),
        "error": line.split(": error: ")[1],
    }


def repoint(source, path, record, index, new_record: str):
    """Write ``source`` to ``path`` with the ``index``-th comma-separated
    field of ``record``'s parameters (an attribute, or a list's first or last
    item) naming a new instance #99999 of ``new_record``; return ``path``."""

    def point_at_new(match):
        args = match[2].split(",")
        args[index] = re.sub(r"[^()]+", "#99999", args[index], count=1)
        return f"{match[1]}({','.join(args)});"

    data = re.sub(rf"^(#{record.id}=\w+)\((.*)\);$", point_at_new, source.read_text(), flags=re.M)
    data = data.replace("ENDSEC;\nEND-ISO", f"#99999={new_record};\nENDSEC;\nEND-ISO")
    path.write_text(data)
    return path


def _zero_direction_target(graph, case):
    """(slot, record, attribute index, dimension) of the direction to zero."""
    from ifcaudit.geomcheck import shape_roots

    proxies = {text(p.attr(3)): p for p in graph.by_type("IFCBUILDINGELEMENTPROXY")}
    if case == "placement axis":  # the Axis of A4's IfcAxis2Placement3D
        return "A4", graph.deref(graph.deref(proxies["A4"].attr(5)).attr(1)), 1, 3
    if case == "profile reference direction":  # of A4's extruded operand
        operand = graph.deref(shape_roots(graph, proxies["A4"])[0].attr(1))
        return "A4", graph.deref(graph.deref(operand.attr(0)).attr(2)), 1, 2
    (revolution,) = shape_roots(graph, proxies["E5"])  # its IfcAxis1Placement
    return "E5", graph.deref(revolution.attr(2)), 1, 3


@pytest.mark.parametrize(
    "case", ["placement axis", "profile reference direction", "revolution axis"]
)
def test_zero_length_direction_is_an_item_error(capsys, tmp_path, suite_file, case):
    # scaled by a zero length, such a direction would give a NaN centroid
    # (invalid JSON), a volume of 0 or an empty boolean result
    from ifcaudit.spf import load

    out, _ = suite_file
    capsys.readouterr()  # what generate printed
    code, stdout, err = run(capsys, "check", str(out))
    assert code == 0 and err == ""
    intact = {i["slot"]: i for i in json.loads(stdout)["items"]}

    slot, record, index, dim = _zero_direction_target(load(out), case)
    zero = ",".join(["0."] * dim)
    path = repoint(out, tmp_path / "zero.ifc", record, index, f"IFCDIRECTION(({zero}))")

    code, stdout, err = run(capsys, "check", str(path))
    assert code == 0
    assert err == f"{slot}: error: direction #99999 has length 0\n"

    def no_constant(name):
        raise AssertionError(f"{name} in JSON output")

    items = {i["slot"]: i for i in json.loads(stdout, parse_constant=no_constant)["items"]}
    assert items.pop(slot) == {
        "slot": slot, "definition": intact[slot]["definition"], **verdict_of(intact[slot]),
        "error": "direction #99999 has length 0",
    }
    assert items == {s: i for s, i in intact.items() if s != slot}


def _wrong_type_target(graph, read):
    """(slot, record, attribute index) of the reference a strict read follows."""
    from ifcaudit.geomcheck import shape_roots

    proxies = {text(p.attr(3)): p for p in graph.by_type("IFCBUILDINGELEMENTPROXY")}

    def root(slot):
        return shape_roots(graph, proxies[slot])[0]

    if read == "placement":  # the RelativePlacement of B2's IfcLocalPlacement
        return "B2", graph.deref(proxies["B2"].attr(5)), 1
    if read in ("point", "direction"):  # the Location or the Axis of B2's placement
        axis = graph.deref(graph.deref(proxies["B2"].attr(5)).attr(1))
        return "B2", axis, 0 if read == "point" else 1
    if read == "object placement":
        return "B2", proxies["B2"], 5
    if read == "profile":
        return "B2", root("B2"), 0
    if read == "profile position":  # of B2's rectangle profile
        return "B2", graph.deref(root("B2").attr(0)), 2
    if read == "product representation":
        return "B2", proxies["B2"], 6
    if read == "shape representation":  # the first of B2's definition shape
        return "B2", graph.deref(proxies["B2"].attr(6)), 2
    if read == "brep shell":  # B1's Outer
        return "B1", root("B1"), 0
    if read == "surface model shell":  # the first of A5's SbsmBoundary
        return "A5", root("A5"), 0
    if read == "revolution axis":
        return "E5", root("E5"), 2
    if read == "directrix":
        return "F4", root("F4"), 0
    shell = graph.deref(root("B1").attr(0))
    if read == "face":  # the first of B1's shell
        return "B1", shell, 0
    face = graph.deref(shell.attr(0).items[0])
    if read == "face bound":  # the first of B1's first face
        return "B1", face, 0
    if read == "face bound loop":  # of B1's first face's first bound
        return "B1", graph.deref(face.attr(0).items[0]), 0
    if read == "second operand":  # A4's half space
        return "A4", root("A4"), 2
    return "A4", graph.deref(root("A4").attr(2)), 0  # the half space's surface


@pytest.mark.parametrize(
    "read, error",
    [
        ("placement", "unsupported placement IFCDIRECTION"),
        ("point", "point IFCDIRECTION"),
        ("direction", "direction IFCCARTESIANPOINT"),
        ("object placement", "unsupported object placement IFCDIRECTION"),
        ("profile", "unsupported profile IFCDIRECTION"),
        ("profile position", "profile position IFCDIRECTION"),
        ("product representation", "product representation IFCDIRECTION"),
        ("shape representation", "shape representation IFCDIRECTION"),
        ("revolution axis", "revolution axis IFCDIRECTION"),
        ("directrix", "directrix IFCDIRECTION"),
        ("face", "face IFCDIRECTION"),
        ("face bound", "face bound IFCDIRECTION"),
        ("face bound loop", "face bound loop IFCDIRECTION"),
        ("brep shell", "shell IFCDIRECTION"),
        ("surface model shell", "shell IFCDIRECTION"),
        # the boolean reads its second operand as a box unless it is a half space
        ("second operand", "unsupported boolean operand IFCDIRECTION"),
        ("half space surface", "half space surface IFCDIRECTION"),
    ],
)
def test_reference_of_the_wrong_type_is_an_item_error(capsys, tmp_path, suite_file, read, error):
    from ifcaudit.spf import load

    out, _ = suite_file
    capsys.readouterr()  # what generate printed
    code, stdout, err = run(capsys, "check", str(out))
    assert code == 0 and err == ""
    intact = {i["slot"]: i for i in json.loads(stdout)["items"]}

    slot, record, index = _wrong_type_target(load(out), read)
    wrong = error.split()[-1]  # the type the reference names instead
    path = repoint(out, tmp_path / "wrong.ifc", record, index, f"{wrong}((1.,0.,0.))")
    code, stdout, err = run(capsys, "check", str(path))
    assert code == 0
    assert err == f"{slot}: error: {error}\n"
    items = {i["slot"]: i for i in json.loads(stdout)["items"]}
    # the representations are read to find the item, before its validity
    verdict = {} if "representation" in read else verdict_of(intact[slot])
    assert items.pop(slot) == {
        "slot": slot, "definition": intact[slot]["definition"], **verdict, "error": error,
    }
    assert items == {s: i for s, i in intact.items() if s != slot}


@pytest.mark.parametrize("operator", ["NOSUCHOP", None, "DIFFERENCE", "INTERSECTION", "UNION"])
def test_boolean_of_identical_operands(capsys, suite_file, operator):
    """A1 with its first operand, a unit cube, as both operands: DIFFERENCE
    gives an empty result, INTERSECTION and UNION the cube, and any other
    operator, or none, is an item error."""
    from ifcaudit.geomcheck import shape_roots, suite_proxies
    from ifcaudit.spf import load

    out, _ = suite_file
    graph = load(out)
    (root,) = shape_roots(graph, next(p for p in suite_proxies(graph) if text(p.attr(3)) == "A1"))
    written = "$" if operator is None else f".{operator}."
    rewrite_once(out, rf"(#{root.id}=IFCBOOLEANRESULT\()[^,]*,(#\d+),#\d+", rf"\g<1>{written},\2,\2")
    capsys.readouterr()  # what generate printed
    code, stdout, err = run(capsys, "check", str(out))
    assert code == 0
    a1 = next(i for i in json.loads(stdout)["items"] if i["slot"] == "A1")
    if operator in ("NOSUCHOP", None):
        error = f"unsupported boolean operator {operator or '$'}"  # named as written
        assert err == f"A1: error: {error}\n"
        assert a1["error"] == error and "displayed" not in a1
        return
    assert err == ""
    if operator == "DIFFERENCE":
        assert (a1["displayed"], a1["volume"], a1["warnings"]) == (
            False, None, ["boolean result is empty"]
        )
    else:
        assert (a1["displayed"], a1["warnings"]) == (True, [])
        assert (a1["volume"], a1["area"]) == (pytest.approx(1.0), pytest.approx(6.0))
