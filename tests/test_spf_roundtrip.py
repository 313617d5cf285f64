from hypothesis import given, settings
from hypothesis import strategies as st

from ifcaudit.census import census
from ifcaudit.errors import MalformedFile
from ifcaudit.spf import (
    DERIVED,
    UNSET,
    Binary,
    EnumToken,
    Integer,
    ListValue,
    Real,
    Reference,
    Text,
    TypedValue,
    format_value,
    materialize,
    parse_spf,
    write_spf,
)
from ifcaudit.spf.attrparse import MAX_NESTING, parse_attributes
from ifcaudit.spf.build import GraphBuilder, enum, typed, value_of


def test_roundtrip_suite_2x3(suite_2x3):
    graph, _ = suite_2x3
    data = write_spf(graph)
    reparsed = parse_spf(data)
    assert graph.structurally_equal(reparsed)
    assert reparsed.diagnostics == []


def test_roundtrip_suite_ifc4(suite_ifc4):
    graph, _ = suite_ifc4
    reparsed = parse_spf(write_spf(graph))
    assert graph.structurally_equal(reparsed)


def test_write_idempotent(suite_2x3):
    graph, _ = suite_2x3
    first = write_spf(graph)
    second = write_spf(parse_spf(first))
    third = write_spf(parse_spf(second))
    assert first == second == third


def test_census_stable_across_roundtrip(suite_2x3):
    graph, _ = suite_2x3
    before = census(graph)
    after = census(parse_spf(write_spf(graph)))
    assert before.counts == after.counts
    assert before.total == after.total


def test_reference_closure(suite_2x3):
    graph, _ = suite_2x3
    reparsed = parse_spf(write_spf(graph))
    assert reparsed.dangling() == []


def test_every_reference_resolves(suite_2x3):
    # exhaustive walk: resolve each reference in each attribute tree
    from ifcaudit.spf import Reference
    from ifcaudit.spf.values import walk

    graph, _ = suite_2x3
    reparsed = parse_spf(write_spf(graph))

    resolved = 0
    for inst in reparsed:
        for attr in inst.attributes:
            for value in walk(attr):
                if isinstance(value, Reference):
                    reparsed.resolve(value.id)  # raises NotFound on failure
                    resolved += 1
    assert resolved > 500


@settings(max_examples=300, deadline=None)
@given(st.binary(max_size=400))
def test_parser_total_on_garbage(data):
    # terminates with either a graph or a fatal diagnostic, never hangs/crashes
    try:
        materialize(parse_spf(data))
    except MalformedFile:
        pass


@settings(max_examples=150, deadline=None)
@given(st.text(alphabet="#=();'/*$,.ABC0123 \n", max_size=120))
def test_parser_total_on_adversarial_text(body):
    data = (
        b"ISO-10303-21;HEADER;FILE_DESCRIPTION((''),'2;1');"
        b"FILE_NAME('','',(),(),'','','');FILE_SCHEMA(('IFC4'));ENDSEC;DATA;"
        + body.encode("latin-1")
        + b"ENDSEC;END-ISO-10303-21;"
    )
    try:
        materialize(parse_spf(data))
    except MalformedFile:
        pass


def _depth(value) -> int:
    if isinstance(value, ListValue):
        return 1 + max(map(_depth, value.items), default=0)
    if isinstance(value, TypedValue):
        return 1 + _depth(value.value)
    return 0


TYPE_NAMES = st.from_regex(r"[A-Z_][A-Z0-9_]{0,20}", fullmatch=True)
LEAVES = st.one_of(
    st.just(UNSET),
    st.just(DERIVED),
    st.builds(Integer, st.integers()),
    st.builds(Real.of, st.floats(allow_nan=False, allow_infinity=False)),
    st.builds(Text.of, st.text()),
    st.builds(EnumToken, TYPE_NAMES),
    st.builds(Reference, st.integers(min_value=0)),
    st.builds(Binary, st.from_regex(r"[0-9A-F]*", fullmatch=True)),
)
TREES = st.recursive(
    LEAVES,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4).map(lambda items: ListValue(tuple(items))),
        st.builds(TypedValue, TYPE_NAMES, inner),
    ),
    max_leaves=12,
)


@st.composite
def parameter_trees(draw):
    """Parameter values whose deepest one is wrapped up to MAX_NESTING deep."""
    values = draw(st.lists(TREES.filter(lambda v: _depth(v) <= MAX_NESTING), max_size=6))
    if values:
        i = draw(st.integers(0, len(values) - 1))
        wraps = draw(st.integers(0, MAX_NESTING - _depth(values[i])))
        typed, name = draw(st.integers(0, 2**wraps - 1)), draw(TYPE_NAMES)  # bit k: typed
        for k in range(wraps):
            wrapped = values[i]
            values[i] = TypedValue(name, wrapped) if typed >> k & 1 else ListValue((wrapped,))
    return tuple(values)


@settings(max_examples=200, deadline=None)
@given(parameter_trees())
def test_written_values_parse_back(values):
    written = ",".join(map(format_value, values)).encode("latin-1")
    assert parse_attributes(written) == (values, [])


def test_builder_takes_every_attribute_value():
    b = GraphBuilder("IFC4")
    b.add("IFCSIUNIT", DERIVED, enum("LENGTHUNIT"), None, enum("METRE"))
    b.add("IFCPIXELTEXTURE", True, False, None, None, None, 2, 1, 8, [Binary("0FF"), Binary("3AB")])
    graph = b.graph()
    assert graph.resolve(1).attr(0) is DERIVED
    assert graph.resolve(2).attr(8) == ListValue((Binary("0FF"), Binary("3AB")))
    assert graph.structurally_equal(parse_spf(write_spf(graph)))


#: plain Python values as ``GraphBuilder.add`` takes them
PLAIN_LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.just(DERIVED),
    st.integers(),
    st.integers(2**63, 2**200),
    st.integers(-(2**200), -(2**63) - 1),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 1e16, -1e16, 5e-324, 2.225073858507201e-308]),
    st.text(),
    st.text(alphabet="'\\\n aé\u0416\u20ac\U0001f600"),
    st.builds(Binary, st.from_regex(r"[0-3][0-9A-F]*", fullmatch=True)),
    st.builds(enum, TYPE_NAMES),
)
PLAIN_TREES = st.recursive(
    PLAIN_LEAVES,
    lambda inner: st.one_of(st.lists(inner, max_size=4), st.builds(typed, TYPE_NAMES, inner)),
    max_leaves=12,
)


@settings(max_examples=300, deadline=None)
@given(st.lists(PLAIN_TREES, max_size=6))
def test_builder_values_round_trip_through_text(values):
    # the builder writes each value as text and the graph parses it back
    b = GraphBuilder("IFC4")
    b.add("IFCPROXY", *values)
    graph = b.graph()
    materialize(graph)
    assert graph.resolve(1).attributes == tuple(map(value_of, values))
    assert graph.diagnostics == []
