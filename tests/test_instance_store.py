"""The instance graph's one store: a record table, an id -> row index and
the instances built so far.

A parsed record becomes an ``EntityInstance`` only when it is resolved,
listed by type or iterated over; ``census`` counts type codes and builds
none. These tests hold that laziness, the identity of the instances that are
built, and the memory a census of a 10 MB file needs.
"""

import gc
import tracemalloc

import pytest

from ifcaudit.census import census
from ifcaudit.cli import main
from ifcaudit.spf import (
    EntityInstance,
    InstanceGraph,
    SpfHeader,
    Text,
    materialize,
    parse_spf,
    write_spf,
)
from ifcaudit.spf.backend import active_backend
from ifcaudit.spf.model import Source
from test_acceptance import _build_big_file
from test_spf_parse import MINIMAL


def with_records(records: bytes) -> bytes:
    return MINIMAL.replace(b"ENDSEC;\nEND-ISO", records + b"ENDSEC;\nEND-ISO")


@pytest.fixture
def built(monkeypatch):
    """A list that gains every ``EntityInstance`` built from now on."""
    seen = []
    init = EntityInstance.__init__

    def counting(self, *args, **kwargs):
        seen.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(EntityInstance, "__init__", counting)
    return seen


def test_census_and_diff_build_no_instance(tmp_path, capsys, built):
    for schema, name in (("ifc2x3", "a.ifc"), ("ifc4", "b.ifc")):
        assert main(["generate", "--schema", schema, "--out", str(tmp_path / name)]) == 0
    built.clear()
    assert main(["census", str(tmp_path / "a.ifc")]) == 0
    assert main(["diff", str(tmp_path / "a.ifc"), str(tmp_path / "b.ifc")]) == 0
    assert main(["parse", str(tmp_path / "b.ifc")]) == 0  # materialize reads spans
    assert built == []
    capsys.readouterr()


def test_instances_are_built_once_and_kept(built):
    data = with_records(b"#2=IFCWALL('w');\n#3=IFCWALL(#2);\n#4=IFCSLAB($);\n")
    graph = parse_spf(data)
    assert built == []
    wall = graph.resolve(2)
    assert graph.resolve(2) is wall and len(built) == 1
    instances = list(graph)
    assert [inst.id for inst in instances] == [1, 2, 3, 4]
    assert instances[1] is wall
    assert list(graph) == instances and all(a is b for a, b in zip(graph, instances))
    assert graph.by_type("IFCWALL") == [wall, graph.resolve(3)]
    assert graph.by_type("ifcwall")[1] is instances[2]
    assert len(built) == 4  # one per record, however it was reached
    attributes = wall.attributes
    assert graph.resolve(2).attributes is attributes
    assert wall._src is None  # the span is dropped once read


def test_census_counts_codes_without_instances(built):
    graph = parse_spf(with_records(b"#2=IFCWALL('w');\n#3=ifcWall(#2);\n#4=IFCSLAB($);\n"))
    counts = census(graph).counts
    assert counts == {"IFCBUILDING": 1, "IFCWALL": 2, "IFCSLAB": 1}
    assert list(counts) == ["IFCBUILDING", "IFCWALL", "IFCSLAB"]  # first appearance
    assert built == []


def test_duplicate_id_keeps_first_position_and_last_definition():
    records = b"#2=IFCWALL('a');\n#3=IFCSLAB($);\n#2=IFCDOOR('b');\n#2=IFCDOOR('c');\n"
    graph = parse_spf(with_records(records))
    assert [inst.id for inst in graph] == [1, 2, 3]
    assert 2 in graph and 3 in graph and 4 not in graph
    assert graph.resolve(2).type_name == "IFCDOOR"
    assert graph.resolve(2).attributes == (Text("c", "c"),)
    assert census(graph).counts == {"IFCBUILDING": 1, "IFCDOOR": 1, "IFCSLAB": 1}
    assert graph.by_type("IFCWALL") == []
    assert [inst.id for inst in graph.by_type("IfcDoor")] == [2]
    assert [d.message for d in graph.diagnostics if d.code == "duplicate-id"] == [
        "instance #2 defined twice; last kept"
    ] * 2


def test_materialize_reads_the_last_definition():
    graph = parse_spf(with_records(b"#2=IFCWALL('a\\Q');\n#2=IFCWALL('b\\X');\n"))
    materialize(graph)
    assert [d.message for d in graph.diagnostics if d.code == "unknown-escape"] == [
        "escape sequence passed through verbatim: '\\\\X'"
    ]


def test_ids_and_references_past_64_bits():
    big = 2**64 + 1
    graph = parse_spf(with_records(b"#%d=IFCWALL(#1,#%d,#%d);\n" % (big, big, big + 1)))
    assert big in graph and graph.resolve(big).type_name == "IFCWALL"
    materialize(graph)
    assert [d.message for d in graph.diagnostics] == [f"reference to missing instance #{big + 1}"]


def test_graph_keeps_the_diagnostics_list_it_is_given():
    data = with_records(b"#2=IFCWALL('w');\n")
    records, references, _, _ = active_backend()[1](data, data.index(b"DATA;") + 5)
    diagnostics = []
    graph = InstanceGraph(SpfHeader(), diagnostics, Source(data), records, references)
    assert graph.diagnostics is diagnostics
    assert graph.byte_size == len(data)


def test_type_name_is_fixed_when_the_instance_is_built():
    graph = parse_spf(with_records(b"#2=IFCWALL('w');\n"))
    with pytest.raises(AttributeError):
        graph.resolve(2).type_name = "IFCSLAB"
    assert census(graph).counts == {"IFCBUILDING": 1, "IFCWALL": 1}


def test_graphs_round_trip_through_the_store(suite_2x3):
    graph, _ = suite_2x3
    parsed = parse_spf(write_spf(graph))
    assert census(parsed).counts == census(graph).counts
    assert parsed.structurally_equal(graph)


#: Bound on the tracemalloc peak of parse_spf + census on the 10 MB
#: repeated-suite file, as a multiple of the file's size (which is held
#: before the peak is traced). Measured: 3.43x with the pure scanner and 3.49x
#: with the compiled one, against 6.50x and 6.64x when every record became an
#: instance; the bound leaves about 15 % headroom.
PEAK_PER_INPUT_BYTE = 4.0


def test_census_memory_on_a_10_mb_file():
    data, copies, per_copy = _build_big_file(10 * 1024 * 1024)
    gc.collect()
    tracemalloc.start()
    try:
        graph = parse_spf(data)
        counts = census(graph)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert counts.total == copies * per_copy
    assert peak < PEAK_PER_INPUT_BYTE * len(data), (
        f"peak {peak / 1e6:.1f} MB for {len(data) / 1e6:.1f} MB of input"
    )
