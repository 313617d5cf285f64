import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ifcaudit.census import (
    Census,
    STAIR_FAMILY,
    WALL_FAMILY,
    census,
    diff,
    diff_csv,
    diff_markdown,
    family_balance,
)
from ifcaudit.schema import SchemaVersion
from tests_helpers import record_lines, with_record_lines

TYPE_POOL = [
    "IFCWALL", "IFCWALLSTANDARDCASE", "IFCWALLTYPE", "IFCSTAIR", "IFCDOOR",
    "IFCCARTESIANPOINT", "IFCUNITASSIGNMENT", "IFCRELAGGREGATES", "IFCWIDGET",
]


def make_census(counts: dict[str, int], size: int = 1000) -> Census:
    counts = {t: n for t, n in counts.items() if n > 0}
    return Census(counts, sum(counts.values()), size, SchemaVersion.IFC2X3)


censuses = st.builds(
    make_census,
    st.dictionaries(st.sampled_from(TYPE_POOL), st.integers(0, 50), max_size=9),
    st.integers(100, 10_000),
)


def test_minimal_census():
    from tests_helpers import minimal_building  # local helper below

    graph = minimal_building()
    c = census(graph)
    assert c.counts == {"IFCBUILDING": 1}
    assert c.total == 1


def test_suite_counts(suite_2x3, suite_ifc4):
    c3 = census(suite_2x3[0])
    c4 = census(suite_ifc4[0])
    assert c3.count("IFCBUILDINGELEMENTPROXY") == 30
    assert c4.count("IFCBUILDINGELEMENTPROXY") == 23


def test_census_order_insensitive(suite_2x3):
    graph, _ = suite_2x3
    reversed_graph = with_record_lines(graph, record_lines(graph)[::-1])
    assert [i.id for i in reversed_graph] == [i.id for i in graph][::-1]
    assert census(reversed_graph).counts == census(graph).counts


def test_diff_identity():
    c = make_census({"IFCWALL": 10})
    d = diff(c, c)
    assert d.empty and not d.lost_types and not d.gained_types
    assert d.size_delta_bytes == 0


def test_wall_retyping_pattern():
    ref = make_census({"IFCWALL": 10})
    exp = make_census({"IFCWALL": 4, "IFCWALLSTANDARDCASE": 6})
    d = diff(ref, exp)
    assert d.deltas == {"IFCWALL": -6, "IFCWALLSTANDARDCASE": +6}
    assert family_balance(d, WALL_FAMILY) == 0


def test_lost_types():
    ref = make_census({"IFCMEMBERTYPE": 3})
    exp = make_census({})
    d = diff(ref, exp)
    assert d.lost_types == {"IFCMEMBERTYPE"}


def test_stair_gain():
    ref = make_census({"IFCSTAIR": 0})
    exp = make_census({"IFCSTAIR": 19})
    d = diff(ref, exp)
    assert family_balance(d, STAIR_FAMILY) == 19


def test_family_balance_empty_diff():
    c = make_census({"IFCWALL": 3})
    assert family_balance(diff(c, c), WALL_FAMILY) == 0


def test_family_balance_rejects_empty_family():
    c = make_census({"IFCWALL": 3})
    with pytest.raises(ValueError):
        family_balance(diff(c, c), frozenset())


@settings(max_examples=300, deadline=None)
@given(censuses, censuses)
def test_diff_antisymmetry(a, b):
    forward = diff(a, b)
    backward = diff(b, a)
    assert set(forward.deltas) == set(backward.deltas)
    for name, delta in forward.deltas.items():
        assert backward.deltas[name] == -delta
    assert forward.lost_types == backward.gained_types
    assert forward.size_delta_bytes == -backward.size_delta_bytes


@settings(max_examples=300, deadline=None)
@given(censuses, censuses)
def test_grouped_delta_conservation(a, b):
    d = diff(a, b)
    assert sum(d.grouped_deltas.values()) == sum(d.deltas.values())


def test_cross_schema_diff_diagnosed():
    a = make_census({"IFCWALL": 1})
    b = Census({"IFCWALL": 1}, 1, 1000, SchemaVersion.IFC4)
    assert diff(a, b).diagnostics


def test_report_formats():
    ref = make_census({"IFCWALL": 10, "IFCCARTESIANPOINT": 5})
    exp = make_census({"IFCWALL": 8, "IFCCARTESIANPOINT": 9})
    d = diff(ref, exp)
    csv_text = diff_csv(ref, exp, d)
    assert "type,reference,exported,delta,group" in csv_text
    assert "IFCWALL,10,8,-2,BuildingElements" in csv_text
    md = diff_markdown(ref, exp, d)
    assert "| IFCWALL | 10 | 8 | -2 | BuildingElements |" in md
