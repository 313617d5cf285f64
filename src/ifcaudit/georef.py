"""Detection of georeferencing levels (LoGeoRef10..50) and their payloads.

Level 10 is a postal address on the site or building, 20 the WGS84 latitude,
longitude and elevation on the site, 30 a non-zero site placement (an ad-hoc
convention, reported best-effort), 40 the world coordinate system or true
north of the geometric representation context, and 50 (IFC4 only) a map
conversion with a projected CRS.
"""

from __future__ import annotations

import enum
import math
from typing import Any

from ._record import FrozenRecord, Record, set_field
from .errors import BadLength, MixedSign
from .schema import SchemaVersion
from .spf.model import UNSET, EntityInstance, EnumToken, InstanceGraph, Reference
from .spf.values import integers, number, ratios, target, text, texts

#: Location magnitude below which a placement counts as "at the origin".
ORIGIN_TOLERANCE = 1e-9


class LoGeoRefLevel(enum.IntEnum):
    L10 = 10
    L20 = 20
    L30 = 30
    L40 = 40
    L50 = 50


class GeoParams(FrozenRecord):
    _fields = ("level", "payload")

    def __init__(self, level: LoGeoRefLevel, payload: dict[str, Any]):
        set_field(self, "level", level)
        set_field(self, "payload", payload)


class LoGeoRefReport(Record):
    _fields = ("detected", "diagnostics")

    def __init__(
        self,
        detected: dict[LoGeoRefLevel, GeoParams] | None = None,
        diagnostics: list[str] | None = None,
    ):
        self.detected = {} if detected is None else detected
        self.diagnostics = [] if diagnostics is None else diagnostics

    @property
    def levels(self) -> list[int]:
        return sorted(p.level.value for p in self.detected.values())


def compound_angle_to_degrees(measure: list[int] | tuple[int, ...]) -> float:
    """Convert an IFC compound plane angle (degrees, minutes, seconds and
    optional millionth-seconds) to decimal degrees."""
    if len(measure) not in (3, 4):
        raise BadLength(f"compound angle needs 3 or 4 components, got {len(measure)}")
    sign = 0
    for component in measure:
        if component == 0:
            continue
        s = 1 if component > 0 else -1
        if sign == 0:
            sign = s
        elif s != sign:
            raise MixedSign(f"components disagree in sign: {measure}")
    if sign == 0:
        return 0.0
    parts = [abs(c) for c in measure] + [0] * (4 - len(measure))
    magnitude = parts[0] + parts[1] / 60.0 + parts[2] / 3600.0 + parts[3] / 3.6e9
    return sign * magnitude


def length_unit(graph: InstanceGraph) -> tuple[str, float]:
    """Name of the project length unit and its scale to meters."""
    prefixes = {
        "EXA": 1e18, "PETA": 1e15, "TERA": 1e12, "GIGA": 1e9, "MEGA": 1e6,
        "KILO": 1e3, "HECTO": 1e2, "DECA": 1e1, "DECI": 1e-1, "CENTI": 1e-2,
        "MILLI": 1e-3, "MICRO": 1e-6, "NANO": 1e-9, "PICO": 1e-12,
        "FEMTO": 1e-15, "ATTO": 1e-18,
    }
    for unit in graph.by_type("IFCSIUNIT"):
        unit_type = unit.attr(1)
        if isinstance(unit_type, EnumToken) and unit_type.name == "LENGTHUNIT":
            prefix = unit.attr(2)
            name = unit.attr(3)
            if isinstance(name, EnumToken) and name.name == "METRE":
                if isinstance(prefix, EnumToken):
                    scale = prefixes.get(prefix.name, 1.0)
                    return f"{prefix.name.lower()}metre", scale
                return "metre", 1.0
    return "unknown", 1.0


def detect_georef(graph: InstanceGraph) -> LoGeoRefReport:
    """Inspect a parsed model for each georeferencing level; read-only."""
    report = LoGeoRefReport()
    schema = SchemaVersion.from_name(graph.schema_name())
    unit_name, unit_scale = length_unit(graph)

    sites = graph.by_type("IFCSITE")
    buildings = graph.by_type("IFCBUILDING")
    if not sites:
        report.diagnostics.append("no IfcSite instance present")

    _detect_l10(graph, sites, buildings, report)
    if sites:
        _detect_l20(graph, sites[0], unit_name, unit_scale, report)
        _detect_l30(graph, sites[0], unit_name, report)
    _detect_l40(graph, unit_name, report)
    _detect_l50(graph, schema, report)
    return report


def _detect_l10(
    graph: InstanceGraph,
    sites: list[EntityInstance],
    buildings: list[EntityInstance],
    report: LoGeoRefReport,
) -> None:
    hosts = [("site", s, 13) for s in sites] + [("building", b, 11) for b in buildings]
    for host_kind, host, address_index in hosts:
        ref = host.attr(address_index)
        if isinstance(ref, Reference) and ref.id not in graph:
            report.diagnostics.append(f"{host_kind} address reference #{ref.id} dangling")
        address = target(graph, ref, "IFCPOSTALADDRESS")
        if address is None:
            continue
        fields = {
            "address_lines": texts(address.attr(4)),
            "postal_box": text(address.attr(5)),
            "town": text(address.attr(6)),
            "region": text(address.attr(7)),
            "postal_code": text(address.attr(8)),
            "country": text(address.attr(9)),
        }
        report.detected[LoGeoRefLevel.L10] = GeoParams(
            LoGeoRefLevel.L10,
            {"host": host_kind, **{k: v for k, v in fields.items() if v}},
        )
        return


def _detect_l20(
    graph: InstanceGraph,
    site: EntityInstance,
    unit_name: str,
    unit_scale: float,
    report: LoGeoRefReport,
) -> None:
    lat_attr, lon_attr, ele_attr = site.attr(9), site.attr(10), site.attr(11)
    lat_parts = integers(lat_attr)
    lon_parts = integers(lon_attr)
    if lat_parts is None or lon_parts is None:
        return
    try:
        lat = compound_angle_to_degrees(lat_parts)
        lon = compound_angle_to_degrees(lon_parts)
    except (MixedSign, BadLength) as exc:
        report.diagnostics.append(f"unusable RefLatitude/RefLongitude: {exc}")
        return
    if not (-90.0 <= lat <= 90.0 and -180.0 <= lon <= 180.0):
        report.diagnostics.append(
            f"latitude/longitude out of range after conversion: {lat}, {lon}"
        )
        return
    payload: dict[str, Any] = {"latitude": lat, "longitude": lon}
    elevation = number(ele_attr)
    if elevation is not None:
        payload["elevation_m"] = elevation * unit_scale
        payload["elevation_unit"] = unit_name
    report.detected[LoGeoRefLevel.L20] = GeoParams(LoGeoRefLevel.L20, payload)


def _detect_l30(
    graph: InstanceGraph, site: EntityInstance, unit_name: str, report: LoGeoRefReport
) -> None:
    placement_ref = site.attr(5)
    if isinstance(placement_ref, Reference) and placement_ref.id not in graph:
        report.diagnostics.append(f"site placement #{placement_ref.id} dangling")
    placement = target(graph, placement_ref, "IFCLOCALPLACEMENT")
    axis = None if placement is None else target(graph, placement.attr(1), "IFCAXIS2PLACEMENT3D")
    if axis is None:
        return
    location = ratios(graph, axis.attr(0), "IFCCARTESIANPOINT")
    axis_dir = ratios(graph, axis.attr(1), "IFCDIRECTION")
    ref_dir = ratios(graph, axis.attr(2), "IFCDIRECTION")
    nonzero = location is not None and any(abs(c) > ORIGIN_TOLERANCE for c in location)
    if not nonzero and axis_dir is None and ref_dir is None:
        return
    payload: dict[str, Any] = {
        "reference_point": location,
        "unit": unit_name,
    }
    if axis_dir is not None:
        payload["axis"] = axis_dir
    if ref_dir is not None:
        payload["ref_direction"] = ref_dir
    report.detected[LoGeoRefLevel.L30] = GeoParams(LoGeoRefLevel.L30, payload)


def _detect_l40(graph: InstanceGraph, unit_name: str, report: LoGeoRefReport) -> None:
    for context in graph.by_type("IFCGEOMETRICREPRESENTATIONCONTEXT"):
        wcs = context.attr(4)
        if isinstance(wcs, Reference) and wcs.id not in graph:
            report.diagnostics.append(
                f"representation context world coordinate system #{wcs.id} dangling"
            )
        axis = target(graph, wcs, "IFCAXIS2PLACEMENT3D")
        origin = None if axis is None else ratios(graph, axis.attr(0), "IFCCARTESIANPOINT")
        axes_set = axis is not None and (axis.attr(1) is not UNSET or axis.attr(2) is not UNSET)
        north = ratios(graph, context.attr(5), "IFCDIRECTION")
        origin_nonzero = origin is not None and any(
            abs(c) > ORIGIN_TOLERANCE for c in origin
        )
        if not origin_nonzero and not axes_set and north is None:
            continue
        payload: dict[str, Any] = {"origin": origin, "unit": unit_name}
        if north is not None:
            payload["true_north"] = north[:2]
        report.detected[LoGeoRefLevel.L40] = GeoParams(LoGeoRefLevel.L40, payload)
        return


def _detect_l50(
    graph: InstanceGraph, schema: SchemaVersion | None, report: LoGeoRefReport
) -> None:
    conversions = graph.by_type("IFCMAPCONVERSION")
    if not conversions:
        return
    if schema is not SchemaVersion.IFC4:
        report.diagnostics.append(
            "IfcMapConversion present but file schema is not IFC4; level 50 not reported"
        )
        return
    conversion = conversions[0]
    crs = target(graph, conversion.attr(1), "IFCPROJECTEDCRS")
    crs_name = None if crs is None else text(crs.attr(0))
    if crs_name is None:
        report.diagnostics.append("IfcMapConversion without IfcProjectedCRS target")
        return
    abscissa = number(conversion.attr(5))
    ordinate = number(conversion.attr(6))
    if abscissa is None and ordinate is None:
        rotation = (1.0, 0.0)
    else:
        rotation = (abscissa or 0.0, ordinate or 0.0)
        if math.hypot(*rotation) == 0.0:
            report.diagnostics.append(
                "XAxisAbscissa/XAxisOrdinate both zero; identity rotation assumed"
            )
            rotation = (1.0, 0.0)
    report.detected[LoGeoRefLevel.L50] = GeoParams(
        LoGeoRefLevel.L50,
        {
            "eastings": number(conversion.attr(2)),
            "northings": number(conversion.attr(3)),
            "orthogonal_height": number(conversion.attr(4)),
            "rotation": rotation,
            "crs_name": crs_name,
        },
    )


def report_as_dict(report: LoGeoRefReport) -> dict[str, Any]:
    """JSON-friendly form of a report."""
    return {
        "levels": report.levels,
        "params": {
            str(p.level.value): p.payload for p in report.detected.values()
        },
        "diagnostics": list(report.diagnostics),
    }
