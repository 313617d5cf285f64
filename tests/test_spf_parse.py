import time

import pytest

from ifcaudit.errors import MalformedFile, NotFound
from ifcaudit.spf import (
    Integer,
    ListValue,
    Real,
    Reference,
    Text,
    TypedValue,
    UNSET,
    materialize,
    parse_spf,
)
from ifcaudit.spf.attrparse import MAX_NESTING, parse_attributes

MINIMAL = b"""ISO-10303-21;
HEADER;
FILE_DESCRIPTION((''),'2;1');
FILE_NAME('mini','2020-01-01T00:00:00',(''),(''),'','','');
FILE_SCHEMA(('IFC2X3'));
ENDSEC;
DATA;
#1=IFCBUILDING($,$,'B',$,$,$,$,$,$,$,$,$);
ENDSEC;
END-ISO-10303-21;
"""


def test_minimal_file():
    graph = parse_spf(MINIMAL)
    assert len(graph) == 1
    inst = graph.resolve(1)
    assert inst.type_name == "IFCBUILDING"
    assert inst.attributes[2] == Text("B", "B")
    assert graph.header.file_schema == ["IFC2X3"]


def test_zero_point():
    data = MINIMAL.replace(
        b"ENDSEC;\nEND-ISO", b"#2=IFCCARTESIANPOINT((0.,0.,0.));\nENDSEC;\nEND-ISO"
    )
    graph = parse_spf(data)
    attrs = graph.resolve(2).attributes
    assert attrs == (ListValue((Real(0.0, "0."),) * 3),)


def test_resolve_not_found():
    graph = parse_spf(MINIMAL)
    with pytest.raises(NotFound):
        graph.resolve(999)


def test_missing_sentinel():
    with pytest.raises(MalformedFile):
        parse_spf(b"HELLO;")


def test_missing_endsec():
    broken = MINIMAL.replace(b"ENDSEC;\nEND-ISO-10303-21;\n", b"")
    with pytest.raises(MalformedFile):
        parse_spf(broken)


def test_unterminated_string():
    broken = MINIMAL.replace(b"'B'", b"'B")
    with pytest.raises(MalformedFile):
        parse_spf(broken)


def test_duplicate_id_last_wins():
    data = MINIMAL.replace(
        b"ENDSEC;\nEND-ISO",
        b"#2=IFCWALL('w',$,$,$,$,$,$,$);\n"
        b"#1=IFCWALL('x',$,$,$,$,$,$,$);\nENDSEC;\nEND-ISO",
    )
    graph = parse_spf(data)
    # a duplicate id keeps its first position and its last definition
    assert len(graph) == 2
    assert [i.id for i in graph] == [1, 2]
    assert graph.resolve(1).type_name == "IFCWALL"
    assert graph.resolve(1).attributes[0] == Text("x", "x")
    assert [i.id for i in graph.by_type("IfcWall")] == [1, 2]
    assert graph.by_type("IFCBUILDING") == []
    assert any(d.code == "duplicate-id" for d in graph.diagnostics)


def test_dangling_reference_diagnosed():
    data = MINIMAL.replace(b"'B',$", b"'B',#42")
    graph = parse_spf(data)
    materialize(graph)
    assert any(
        d.code == "dangling-reference" and "#42" in d.message
        for d in graph.diagnostics
    )


def test_reference_inside_string_is_not_a_reference():
    data = MINIMAL.replace(b"'B'", b"'see #42; ok'")
    graph = parse_spf(data)
    materialize(graph)
    assert not any(d.code == "dangling-reference" for d in graph.diagnostics)


def test_comments_discarded():
    data = MINIMAL.replace(
        b"#1=IFCBUILDING", b"/* hello; #9 */\n#1=IFCBUILDING"
    )
    graph = parse_spf(data)
    assert len(graph) == 1
    materialize(graph)
    assert not any(d.code == "dangling-reference" for d in graph.diagnostics)


def test_complex_instance_skipped_with_diagnostic():
    data = MINIMAL.replace(
        b"ENDSEC;\nEND-ISO", b"#7=(IFCA(1)IFCB(2));\nENDSEC;\nEND-ISO"
    )
    graph = parse_spf(data)
    assert 7 not in graph
    assert any(d.code == "complex-instance" for d in graph.diagnostics)


def test_attribute_grammar():
    attrs, escapes = parse_attributes(
        b"$,*,#5,12,-3.5E-2,'a''b',.TRUE.,(1,(2.,$)),IFCLABEL('x')"
    )
    assert escapes == []
    assert attrs[0] is UNSET
    assert attrs[2] == Reference(5)
    assert attrs[3] == Integer(12)
    assert attrs[4] == Real(-0.035, "-3.5E-2")
    assert attrs[5].value == "a'b"
    assert attrs[6].name == "TRUE"
    assert attrs[7] == ListValue((Integer(1), ListValue((Real(2.0, "2."), UNSET))))
    assert attrs[8] == TypedValue("IFCLABEL", Text("x", "x"))


def test_enumerations_fold_case_in_ascii_only():
    # as type names do: a latin-1 letter keeps its case, so the value writes back
    from ifcaudit.spf import write_spf

    record = b"#9=IFCX(.\xffa.,.\xdf.,.\xb5.);\nENDSEC;\nEND-ISO"
    graph = parse_spf(MINIMAL.replace(b"ENDSEC;\nEND-ISO", record))
    assert [value.name for value in graph.resolve(9).attributes] == ["\xffA", "\xdf", "\xb5"]
    assert parse_spf(write_spf(graph)).structurally_equal(graph)


@pytest.mark.parametrize(
    "lexeme, reason",
    [
        ("1E", "malformed real"), ("1.E+", "malformed real"), ("+.", "malformed real"),
        ("1.E999", "real out of range"), ("-1.E999", "real out of range"),
    ],
)
def test_unreadable_real_is_malformed(lexeme, reason):
    with pytest.raises(MalformedFile, match=reason):
        parse_attributes(f"$,{lexeme},$".encode())


def test_binary_token():
    from ifcaudit.spf import Binary

    attrs, _ = parse_attributes(b'"0FF",$')
    assert attrs[0] == Binary("0FF")

    from ifcaudit.spf import format_value

    assert format_value(Binary("0FF")) == '"0FF"'


def test_real_lexeme_preserved():
    data = MINIMAL.replace(
        b"ENDSEC;\nEND-ISO",
        b"#3=IFCQUANTITYLENGTH('q',$,$,1.0E-5);\nENDSEC;\nEND-ISO",
    )
    graph = parse_spf(data)
    value = graph.resolve(3).attributes[3]
    assert value == Real(1e-5, "1.0E-5")

    from ifcaudit.spf import write_spf

    assert b"1.0E-5" in write_spf(graph)


def test_count_conservation(suite_2x3):
    # instances reported == "#<n>=" records in the DATA section (text scan)
    from ifcaudit.spf import write_spf
    import re

    graph, _ = suite_2x3
    text = write_spf(graph).decode("latin-1")
    body = text.split("DATA;", 1)[1].rsplit("ENDSEC;", 1)[0]
    assert len(re.findall(r"#\d+=", body)) == len(graph)


@pytest.mark.parametrize(
    "deep",
    [b"(" * 5000 + b"1" + b")" * 5000, b"IFCA(" * 5000 + b"1" + b")" * 5000],
    ids=["list", "typed"],
)
def test_deep_nesting_is_malformed(deep):
    record = b"#2=IFCPROPERTYLISTVALUE('Deep',$," + deep + b",$);\nENDSEC;\nEND-ISO"
    graph = parse_spf(MINIMAL.replace(b"ENDSEC;\nEND-ISO", record))
    with pytest.raises(MalformedFile):
        materialize(graph)


def test_nesting_bound_is_exact():
    deepest = b"(" * MAX_NESTING + b"1" + b")" * MAX_NESTING
    assert len(parse_attributes(deepest)[0]) == 1
    with pytest.raises(MalformedFile):
        parse_attributes(b"(" + deepest + b")")


def test_header_record_diagnostics():
    data = MINIMAL.replace(
        b"FILE_SCHEMA(('IFC2X3'));",
        b"FILE_POPULATION('IFC2X3','x',$);\nFILE_NAME('again','',(),(),'','','');",
    )
    graph = parse_spf(data)
    messages = {d.code: d.message for d in graph.diagnostics}
    assert messages["ignored-header-record"] == "header record FILE_POPULATION ignored"
    assert messages["duplicate-header-record"] == "FILE_NAME appears twice"
    assert messages["missing-header-record"] == "FILE_SCHEMA not present"
    assert len(graph.diagnostics) == 3
    assert graph.header.file_name.name == "again"


def test_header_strings_and_comments():
    data = MINIMAL.replace(
        b"FILE_NAME('mini',", b"FILE_NAME \t('a;b) /* c */ d''e ENDSEC;' /* x; ) */ ,"
    )
    data = data.replace(b"FILE_SCHEMA(('IFC2X3'));", b"FILE_SCHEMA (('IFC2X3'))\n ;")
    graph = parse_spf(data)
    assert graph.header.file_name.name == "a;b) /* c */ d'e ENDSEC;"
    assert graph.header.file_name.timestamp == "2020-01-01T00:00:00"
    assert graph.header.file_schema == ["IFC2X3"]
    assert graph.diagnostics == []


def test_header_comment_before_parameters_rejected():
    # as in DATA records, only blanks may separate a keyword from its '('
    with pytest.raises(MalformedFile):
        parse_spf(MINIMAL.replace(b"FILE_NAME(", b"FILE_NAME/* c */("))


@pytest.mark.parametrize("unit", [b"/*/", b"''"])
def test_unterminated_header_record_fails_fast(unit):
    data = MINIMAL.replace(b"FILE_SCHEMA(('IFC2X3'));", b"FILE_SCHEMA(" + unit * 40)
    start = time.perf_counter()
    with pytest.raises(MalformedFile):
        parse_spf(data)
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("params", [b"1,", b"(1,", b"IFCX(", b"(", b"$,(#1,(", b"'a', /* c */ "])
def test_early_end_is_malformed(params):
    with pytest.raises(MalformedFile, match="expected attribute value near ''") as caught:
        parse_attributes(params)
    assert caught.value.offset == len(params)


def test_materialize_checks_without_keeping_values():
    graph = parse_spf(MINIMAL.replace(b"'B'", b"'B \\Q'"))
    materialize(graph)
    assert [d.code for d in graph.diagnostics] == ["unknown-escape"]
    inst = graph.resolve(1)
    assert inst._attrs is None  # checked, not kept
    assert inst.attributes[2] == Text("B \\Q", "B \\Q")


def test_header_unknown_escapes_are_reported():
    data = MINIMAL.replace(b"(('')", b"(('a\\Q\\b')").replace(b"'mini'", b"'n\\Q\\x'")
    graph = parse_spf(data.replace(b"'B'", b"'w\\Q\\y'"))
    assert graph.header.description == ["a\\Q\\b"]
    assert graph.header.file_name.name == "n\\Q\\x"
    escapes = ["\\Q", "\\b", "\\Q", "\\x"]
    expected = [f"escape sequence passed through verbatim: {e!r}" for e in escapes]
    assert [(d.code, d.message) for d in graph.diagnostics] == [
        ("unknown-escape", message) for message in expected
    ]
    materialize(graph)  # then the data record's, in the same words
    assert [d.message for d in graph.diagnostics[4:]] == [
        f"escape sequence passed through verbatim: {e!r}" for e in ("\\Q", "\\y")
    ]
