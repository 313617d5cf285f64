"""Entity census and census diffs.

Counts are by exact type name; family roll-ups are explicit via
:func:`family_balance` so type-level churn (walls becoming wall standard
cases and so on) stays visible in the raw numbers.
"""

from __future__ import annotations

import io

from ._record import FrozenRecord, Record, set_field
from .schema import ReportGroup, SchemaVersion, default_registry
from .spf.model import InstanceGraph

#: Families of alternative representations discussed in round-trip analysis.
WALL_FAMILY = frozenset({"IFCWALL", "IFCWALLSTANDARDCASE", "IFCWALLTYPE"})
STAIR_FAMILY = frozenset({"IFCSTAIR", "IFCSTAIRFLIGHT", "IFCSTAIRFLIGHTTYPE"})
MEMBER_FAMILY = frozenset({"IFCMEMBER", "IFCMEMBERTYPE"})
PROXY_FAMILY = frozenset({"IFCBUILDINGELEMENTPROXY", "IFCBUILDINGELEMENTPROXYTYPE"})

FAMILIES: dict[str, frozenset[str]] = {
    "wall": WALL_FAMILY,
    "stair": STAIR_FAMILY,
    "member": MEMBER_FAMILY,
    "proxy": PROXY_FAMILY,
}


class Census(FrozenRecord):
    _fields = ("counts", "total", "byte_size", "schema")

    def __init__(
        self, counts: dict[str, int], total: int, byte_size: int, schema: SchemaVersion | None
    ):
        set_field(self, "counts", counts)
        set_field(self, "total", total)
        set_field(self, "byte_size", byte_size)
        set_field(self, "schema", schema)

    def count(self, type_name: str) -> int:
        return self.counts.get(type_name.upper(), 0)


class CensusDiff(Record):
    """Signed per-type differences, exported minus reference."""

    _fields = ("deltas", "lost_types", "gained_types", "grouped_deltas", "size_delta_bytes",
               "diagnostics")

    def __init__(
        self,
        deltas: dict[str, int],
        lost_types: frozenset[str],
        gained_types: frozenset[str],
        grouped_deltas: dict[ReportGroup, int],
        size_delta_bytes: int,
        diagnostics: list[str] | None = None,
    ):
        self.deltas = deltas
        self.lost_types = lost_types
        self.gained_types = gained_types
        self.grouped_deltas = grouped_deltas
        self.size_delta_bytes = size_delta_bytes
        self.diagnostics = [] if diagnostics is None else diagnostics

    @property
    def empty(self) -> bool:
        return not self.deltas


def census(graph: InstanceGraph) -> Census:
    """Count instances per exact type name (zero entries omitted)."""
    counts: dict[str, int] = {}
    for inst in graph:
        name = inst.type_name
        counts[name] = counts.get(name, 0) + 1
    return Census(
        counts=counts,
        total=len(graph),
        byte_size=graph.byte_size,
        schema=SchemaVersion.from_name(graph.schema_name()),
    )


def diff(reference: Census, exported: Census) -> CensusDiff:
    registry = default_registry()
    diagnostics: list[str] = []
    if reference.schema != exported.schema:
        diagnostics.append(
            f"cross-schema diff: reference {reference.schema and reference.schema.value}"
            f" vs exported {exported.schema and exported.schema.value}"
        )
    deltas: dict[str, int] = {}
    for name in reference.counts.keys() | exported.counts.keys():
        d = exported.counts.get(name, 0) - reference.counts.get(name, 0)
        if d != 0:
            deltas[name] = d
    lost = frozenset(
        name
        for name, n in reference.counts.items()
        if n > 0 and exported.counts.get(name, 0) == 0
    )
    gained = frozenset(
        name
        for name, n in exported.counts.items()
        if n > 0 and reference.counts.get(name, 0) == 0
    )
    grouped: dict[ReportGroup, int] = {}
    for name, d in deltas.items():
        group = registry.group_of(name)
        grouped[group] = grouped.get(group, 0) + d
    grouped = {g: d for g, d in grouped.items() if d != 0}
    return CensusDiff(
        deltas=deltas,
        lost_types=lost,
        gained_types=gained,
        grouped_deltas=grouped,
        size_delta_bytes=exported.byte_size - reference.byte_size,
        diagnostics=diagnostics,
    )


def family_balance(d: CensusDiff, family: frozenset[str] | set[str]) -> int:
    """Net delta over a family of alternative types; zero means the churn is
    pure reclassification."""
    if not family:
        raise ValueError("family must be non-empty")
    return sum(d.deltas.get(name.upper(), 0) for name in family)


def diff_as_dict(d: CensusDiff) -> dict:
    """The deltas, lost and gained types and group deltas of ``d`` as JSON
    values, each sorted."""
    return {
        "deltas": dict(sorted(d.deltas.items())),
        "lost_types": sorted(d.lost_types),
        "gained_types": sorted(d.gained_types),
        "grouped_deltas": {
            g.value: n for g, n in sorted(d.grouped_deltas.items(), key=lambda kv: kv[0].value)
        },
    }


def diff_rows(
    reference: Census, exported: Census, d: CensusDiff
) -> list[tuple[str, int, int, int, str]]:
    """(type, reference, exported, delta, group) rows sorted by group then
    name."""
    group_of = default_registry().group_of
    rows = [
        (t, reference.counts.get(t, 0), exported.counts.get(t, 0), delta, group_of(t).value)
        for t, delta in d.deltas.items()
    ]
    rows.sort(key=lambda row: (row[4], row[0]))
    return rows


def diff_csv(reference: Census, exported: Census, d: CensusDiff) -> str:
    out = io.StringIO()
    out.write("type,reference,exported,delta,group\n")
    for t, ref, exp, delta, group in diff_rows(reference, exported, d):
        out.write(f"{t},{ref},{exp},{delta:+d},{group}\n")
    return out.getvalue()


def diff_markdown(reference: Census, exported: Census, d: CensusDiff) -> str:
    lines = [
        "| Type | Reference | Exported | Delta | Group |",
        "| --- | ---: | ---: | ---: | --- |",
    ]
    for t, ref, exp, delta, group in diff_rows(reference, exported, d):
        lines.append(f"| {t} | {ref} | {exp} | {delta:+d} | {group} |")
    if not d.deltas:
        lines.append("| (no differences) | | | | |")
    return "\n".join(lines) + "\n"
