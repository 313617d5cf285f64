"""Round-trip interoperability report: census diff, family balances and
georeferencing before/after for a reference model and its re-export."""

from __future__ import annotations

from typing import Any

from .._record import Record
from ..census import FAMILIES, Census, CensusDiff, diff, diff_as_dict, family_balance
from ..georef import LoGeoRefReport, report_as_dict

#: Size band treated as "unchanged"; growth or shrinkage beyond it is an
#: interoperability signal even when the census matches.
SIZE_RATIO_BAND = (0.98, 1.02)


class InteropReport(Record):
    _fields = ("reference_census", "export_census", "diff", "family_balances", "unchanged",
               "georef_before", "georef_after", "size_ratio", "diagnostics")

    def __init__(
        self,
        reference_census: Census,
        export_census: Census,
        diff: CensusDiff,
        family_balances: dict[str, int],
        unchanged: bool,
        georef_before: LoGeoRefReport,
        georef_after: LoGeoRefReport,
        size_ratio: float,
        diagnostics: list[str] | None = None,
    ):
        self.reference_census = reference_census
        self.export_census = export_census
        self.diff = diff
        self.family_balances = family_balances
        self.unchanged = unchanged
        self.georef_before = georef_before
        self.georef_after = georef_after
        self.size_ratio = size_ratio
        self.diagnostics = [] if diagnostics is None else diagnostics


def roundtrip_report(
    reference: tuple[Census, LoGeoRefReport], exported: tuple[Census, LoGeoRefReport]
) -> InteropReport:
    """Compare two files by their summaries, ``(census, georef report)`` each."""
    (ref_census, before), (exp_census, after) = reference, exported
    d = diff(ref_census, exp_census)
    balances = {name: family_balance(d, family) for name, family in FAMILIES.items()}
    diagnostics = list(d.diagnostics)
    if set(before.levels) != set(after.levels):
        diagnostics.append(
            f"georeferencing changed: levels {before.levels} -> {after.levels}"
        )
    size_ratio = (
        exp_census.byte_size / ref_census.byte_size if ref_census.byte_size else 1.0
    )
    unchanged = d.empty and SIZE_RATIO_BAND[0] <= size_ratio <= SIZE_RATIO_BAND[1]
    return InteropReport(
        reference_census=ref_census,
        export_census=exp_census,
        diff=d,
        family_balances=balances,
        unchanged=unchanged,
        georef_before=before,
        georef_after=after,
        size_ratio=size_ratio,
        diagnostics=diagnostics,
    )


def report_as_json(report: InteropReport) -> dict[str, Any]:
    return {
        "unchanged": report.unchanged,
        "size_ratio": report.size_ratio,
        "total_reference": report.reference_census.total,
        "total_exported": report.export_census.total,
        **diff_as_dict(report.diff),
        "family_balances": report.family_balances,
        "georef_before": report_as_dict(report.georef_before),
        "georef_after": report_as_dict(report.georef_after),
        "diagnostics": report.diagnostics,
    }
