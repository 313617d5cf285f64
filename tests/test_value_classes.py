"""The value and report classes of the read path behave as frozen or plain
dataclasses would: construction by position and by keyword, defaults,
equality within one class only, hashes over the field tuple, reprs,
immutability where frozen, ``__slots__`` where slotted, copy and pickle."""

import copy
import pickle

import pytest

from ifcaudit.benchkit.roundtrip import InteropReport
from ifcaudit.census import Census, CensusDiff
from ifcaudit.georef import GeoParams, LoGeoRefLevel, LoGeoRefReport
from ifcaudit.schema import ReportGroup, SchemaVersion, TypeEntry
from ifcaudit.spf.model import (
    Binary,
    Diagnostic,
    EnumToken,
    FileName,
    Integer,
    ListValue,
    Real,
    Reference,
    Source,
    SpfHeader,
    Text,
    TypedValue,
)

IFC4 = SchemaVersion.IFC4
L10 = LoGeoRefLevel.L10
FILE_NAME = FileName("m.ifc", "2020", ["a"], ["o"], "p", "s", "z")
CENSUS = Census({"IFCWALL": 2}, 2, 10, IFC4)
DIFF = CensusDiff({"IFCWALL": -1}, frozenset(), frozenset(), {ReportGroup.BUILDING_ELEMENTS: -1}, 3)
REPORT = LoGeoRefReport({L10: GeoParams(L10, {"a": 1})}, ["d"])
ENTRY_REPR = (
    "TypeEntry(name='IFCWALL', group=<ReportGroup.BUILDING_ELEMENTS: 'BuildingElements'>,"
    " versions=frozenset({<SchemaVersion.IFC4: 'IFC4'>}), attributes=('GlobalId', 'Name'),"
    " ifc4_attributes=('PredefinedType',))"
)
FILE_NAME_REPR = (
    "FileName(name='m.ifc', timestamp='2020', authors=['a'], organizations=['o'],"
    " preprocessor_version='p', originating_system='s', authorization='z')"
)
CENSUS_REPR = "Census(counts={'IFCWALL': 2}, total=2, byte_size=10, schema=<SchemaVersion.IFC4: 'IFC4'>)"
DIFF_REPR = (
    "CensusDiff(deltas={'IFCWALL': -1}, lost_types=frozenset(), gained_types=frozenset(),"
    " grouped_deltas={<ReportGroup.BUILDING_ELEMENTS: 'BuildingElements'>: -1},"
    " size_delta_bytes=3, diagnostics=[])"
)
REPORT_REPR = (
    "LoGeoRefReport(detected={<LoGeoRefLevel.L10: 10>: GeoParams(level=<LoGeoRefLevel.L10: 10>,"
    " payload={'a': 1})}, diagnostics=['d'])"
)

#: class, field names, field values, another instance, repr, hashable,
#: frozen, ``__slots__`` (None when the class has a ``__dict__``)
CASES = [
    (Integer, ("value",), (7,), Integer(8), "Integer(7)", True, True, ("value",)),
    (Real, ("value", "lexeme"), (1.5, "1.50"), Real(1.5, "1.5"), "Real(1.50)", True, True,
     ("value", "lexeme")),
    (Text, ("value", "raw"), ("it's", "it''s"), Text("its", "its"), 'Text("it\'s")', True, True,
     ("value", "raw")),
    (EnumToken, ("name",), ("T",), EnumToken("F"), ".T.", True, True, ("name",)),
    (Reference, ("id",), (7,), Reference(8), "#7", True, True, ("id",)),
    (TypedValue, ("name", "value"), ("IFCLABEL", Text("a", "a")), TypedValue("IFCTEXT", Text("a", "a")),
     "IFCLABEL(Text('a'))", True, True, ("name", "value")),
    (ListValue, ("items",), ((Integer(1), Reference(2)),), ListValue(()), "(Integer(1),#2)", True,
     True, ("items",)),
    (Binary, ("text",), ("0FF",), Binary("1"), "Binary(text='0FF')", True, True, ("text",)),
    (Diagnostic, ("code", "message"), ("c", "m"), Diagnostic("c", "n"),
     "Diagnostic(code='c', message='m')", True, True, ("code", "message")),
    (Source, ("data", "path"), (b"abc", "f.ifc"), Source(b"abc"),
     "Source(data=b'abc', path='f.ifc')", True, True, ("data", "path")),
    (FileName, ("name", "timestamp", "authors", "organizations", "preprocessor_version",
                "originating_system", "authorization"),
     ("m.ifc", "2020", ["a"], ["o"], "p", "s", "z"), FileName(), FILE_NAME_REPR, False, False, None),
    (SpfHeader, ("description", "implementation_level", "file_name", "file_schema"),
     (["d"], "2;1", FILE_NAME, ["IFC4"]), SpfHeader(),
     f"SpfHeader(description=['d'], implementation_level='2;1', file_name={FILE_NAME_REPR},"
     " file_schema=['IFC4'])", False, False, None),
    (Census, ("counts", "total", "byte_size", "schema"), ({"IFCWALL": 2}, 2, 10, IFC4),
     Census({"IFCWALL": 2}, 2, 11, IFC4), CENSUS_REPR, False, True, None),
    (CensusDiff, ("deltas", "lost_types", "gained_types", "grouped_deltas", "size_delta_bytes",
                  "diagnostics"),
     ({"IFCWALL": -1}, frozenset(), frozenset(), {ReportGroup.BUILDING_ELEMENTS: -1}, 3, []),
     CensusDiff({}, frozenset(), frozenset(), {}, 3), DIFF_REPR, False, False, None),
    (GeoParams, ("level", "payload"), (L10, {"a": 1}), GeoParams(L10, {"a": 2}),
     "GeoParams(level=<LoGeoRefLevel.L10: 10>, payload={'a': 1})", False, True, None),
    (LoGeoRefReport, ("detected", "diagnostics"), ({L10: GeoParams(L10, {"a": 1})}, ["d"]),
     LoGeoRefReport(), REPORT_REPR, False, False, None),
    (TypeEntry, ("name", "group", "versions", "attributes", "ifc4_attributes"),
     ("IFCWALL", ReportGroup.BUILDING_ELEMENTS, frozenset({IFC4}), ("GlobalId", "Name"),
      ("PredefinedType",)),
     TypeEntry("IFCWALL", ReportGroup.OTHER, frozenset({IFC4})), ENTRY_REPR, True, True, None),
    (InteropReport, ("reference_census", "export_census", "diff", "family_balances", "unchanged",
                     "georef_before", "georef_after", "size_ratio", "diagnostics"),
     (CENSUS, CENSUS, DIFF, {"wall": 0}, True, REPORT, REPORT, 1.0, ["x"]),
     InteropReport(CENSUS, CENSUS, DIFF, {"wall": 0}, False, REPORT, REPORT, 1.0),
     f"InteropReport(reference_census={CENSUS_REPR}, export_census={CENSUS_REPR},"
     f" diff={DIFF_REPR}, family_balances={{'wall': 0}}, unchanged=True,"
     f" georef_before={REPORT_REPR}, georef_after={REPORT_REPR}, size_ratio=1.0,"
     " diagnostics=['x'])", False, False, None),
]
IDS = [case[0].__name__ for case in CASES]
DIFF_ARGS = (frozenset(), frozenset(), {}, 0)


@pytest.mark.parametrize("cls, names, values, other, text, hashable, frozen, slots", CASES, ids=IDS)
def test_value_class(cls, names, values, other, text, hashable, frozen, slots):
    by_position = cls(*values)
    by_keyword = cls(**dict(zip(names, values)))
    assert [getattr(by_keyword, name) for name in names] == list(values)
    with pytest.raises(TypeError):
        cls(*values, None)
    assert by_position == by_keyword and not by_position != by_keyword
    assert by_position != other and not by_position == other
    assert repr(by_position) == text
    assert copy.copy(by_position) == by_position
    assert pickle.loads(pickle.dumps(by_position)) == by_position
    if hashable:
        assert hash(by_position) == hash(by_keyword) == hash(values)
    else:
        with pytest.raises(TypeError):
            hash(by_position)
    assert vars(cls).get("__slots__") == slots
    assert hasattr(by_position, "__dict__") == (slots is None)
    if frozen:
        for name in names:
            with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
                setattr(by_position, name, values[0])
        with pytest.raises(AttributeError, match=f"cannot delete field '{names[0]}'"):
            delattr(by_position, names[0])
        assert by_position == by_keyword
    else:
        setattr(by_position, names[0], getattr(other, names[0]))
        assert getattr(by_position, names[0]) == getattr(other, names[0])


def test_equality_needs_the_same_class():
    pairs = [
        (Integer(1), Reference(1)),
        (Text("a", "a"), Real("a", "a")),
        (EnumToken("T"), Binary("T")),
        (Diagnostic("a", "b"), Source("a", "b")),
        (CensusDiff({}, *DIFF_ARGS), LoGeoRefReport()),
    ]
    for a, b in pairs:
        assert a != b and b != a and not a == b
        assert a.__eq__(b) is NotImplemented
    assert Integer(1) != 1 and ListValue((Integer(1),)) != (Integer(1),)
    assert Integer(1) == Integer(True) and hash(Integer(1)) == hash(Integer(True))
    assert {Integer(1): "i", Reference(1): "r"} == {Reference(1): "r", Integer(1): "i"}


def test_defaults_are_fresh():
    assert Source("t").path is None
    a, b = FileName(), FileName()
    assert [getattr(a, n) for n in ("name", "timestamp", "preprocessor_version",
                                    "originating_system", "authorization")] == [""] * 5
    assert a.authors == a.organizations == [] and a.authors is not b.authors
    assert a.organizations is not b.organizations
    h, g = SpfHeader(), SpfHeader()
    assert (h.description, h.implementation_level, h.file_name, h.file_schema) == (
        [], "2;1", FileName(), [])
    assert h.description is not g.description and h.file_schema is not g.file_schema
    assert h.file_name is not g.file_name
    d = CensusDiff({}, *DIFF_ARGS)
    assert d.diagnostics == [] and d.diagnostics is not CensusDiff({}, *DIFF_ARGS).diagnostics
    r, s = LoGeoRefReport(), LoGeoRefReport()
    assert (r.detected, r.diagnostics) == ({}, [])
    assert r.detected is not s.detected and r.diagnostics is not s.diagnostics
    i = InteropReport(CENSUS, CENSUS, DIFF, {}, True, REPORT, REPORT, 1.0)
    assert i.diagnostics == [] and i.diagnostics is not InteropReport(
        CENSUS, CENSUS, DIFF, {}, True, REPORT, REPORT, 1.0).diagnostics
