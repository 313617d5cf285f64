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
from .errors import BadLength, MixedSign, NotAReference, NotFound, WrongType
from .schema import SchemaVersion, layout
from .spf.model import UNSET, EntityInstance, EnumToken, InstanceGraph
from .spf.values import follow, integers, number, numbers, text, texts

#: Location magnitude below which a placement counts as "at the origin".
ORIGIN_TOLERANCE = 1e-9

#: Attribute positions, by name, of the entities read here.
UNIT, SITE, BUILDING = layout("IFCSIUNIT"), layout("IFCSITE"), layout("IFCBUILDING")
ADDRESS, LOCAL = layout("IFCPOSTALADDRESS"), layout("IFCLOCALPLACEMENT")
AXIS, CONTEXT = layout("IFCAXIS2PLACEMENT3D"), layout("IFCGEOMETRICREPRESENTATIONCONTEXT")
CONVERSION, CRS = layout("IFCMAPCONVERSION"), layout("IFCPROJECTEDCRS")


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
        unit_type = unit.attr(UNIT.UnitType)
        if isinstance(unit_type, EnumToken) and unit_type.name == "LENGTHUNIT":
            prefix = unit.attr(UNIT.Prefix)
            name = unit.attr(UNIT.Name)
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


def _follow(
    graph: InstanceGraph, value, what: str, type_name: str, report: LoGeoRefReport
) -> EntityInstance | None:
    """The ``type_name`` instance that ``value`` references, else ``None``
    and, unless ``value`` is unset, a diagnostic that names the read ``what``."""
    try:
        return follow(graph, value, type_name)
    except NotFound:
        report.diagnostics.append(f"{what} #{value.id} dangling")
    except WrongType as exc:
        report.diagnostics.append(f"{what} #{value.id} is {exc}")
    except NotAReference:
        pass
    return None


def _ratios(
    graph: InstanceGraph, value, what: str, type_name: str, report: LoGeoRefReport
) -> list[float] | None:
    """The numbers of the point or direction that :func:`_follow` reads: its
    first attribute, the Coordinates or the DirectionRatios."""
    inst = _follow(graph, value, what, type_name, report)
    return None if inst is None else numbers(inst.attr(0))


def _detect_l10(
    graph: InstanceGraph,
    sites: list[EntityInstance],
    buildings: list[EntityInstance],
    report: LoGeoRefReport,
) -> None:
    hosts = [("site", s, SITE.SiteAddress) for s in sites]
    hosts += [("building", b, BUILDING.BuildingAddress) for b in buildings]
    for host_kind, host, address_index in hosts:
        what = f"{host_kind} address reference"
        address = _follow(graph, host.attr(address_index), what, "IFCPOSTALADDRESS", report)
        if address is None or LoGeoRefLevel.L10 in report.detected:
            continue  # the first address is the payload
        fields = {
            "address_lines": texts(address.attr(ADDRESS.AddressLines)),
            "postal_box": text(address.attr(ADDRESS.PostalBox)),
            "town": text(address.attr(ADDRESS.Town)),
            "region": text(address.attr(ADDRESS.Region)),
            "postal_code": text(address.attr(ADDRESS.PostalCode)),
            "country": text(address.attr(ADDRESS.Country)),
        }
        report.detected[LoGeoRefLevel.L10] = GeoParams(
            LoGeoRefLevel.L10,
            {"host": host_kind, **{k: v for k, v in fields.items() if v}},
        )


def _detect_l20(
    graph: InstanceGraph,
    site: EntityInstance,
    unit_name: str,
    unit_scale: float,
    report: LoGeoRefReport,
) -> None:
    lat_parts = integers(site.attr(SITE.RefLatitude))
    lon_parts = integers(site.attr(SITE.RefLongitude))
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
    elevation = number(site.attr(SITE.RefElevation))
    if elevation is not None:
        payload["elevation_m"] = elevation * unit_scale
        payload["elevation_unit"] = unit_name
    report.detected[LoGeoRefLevel.L20] = GeoParams(LoGeoRefLevel.L20, payload)


def _detect_l30(
    graph: InstanceGraph, site: EntityInstance, unit_name: str, report: LoGeoRefReport
) -> None:
    what = "site placement"
    placement = _follow(graph, site.attr(SITE.ObjectPlacement), what, "IFCLOCALPLACEMENT", report)
    relative = UNSET if placement is None else placement.attr(LOCAL.RelativePlacement)
    axis = _follow(graph, relative, "site relative placement", "IFCAXIS2PLACEMENT3D", report)
    if axis is None:
        return
    read = axis.attr
    location = _ratios(graph, read(AXIS.Location), f"{what} location", "IFCCARTESIANPOINT", report)
    axis_dir = _ratios(graph, read(AXIS.Axis), f"{what} axis", "IFCDIRECTION", report)
    ref_dir = _ratios(
        graph, read(AXIS.RefDirection), f"{what} ref direction", "IFCDIRECTION", report
    )
    nonzero = location is not None and any(abs(c) > ORIGIN_TOLERANCE for c in location)
    if not nonzero and axis_dir is None and ref_dir is None:
        return
    payload: dict[str, Any] = {"reference_point": location, "unit": unit_name}
    if axis_dir is not None:
        payload["axis"] = axis_dir
    if ref_dir is not None:
        payload["ref_direction"] = ref_dir
    report.detected[LoGeoRefLevel.L30] = GeoParams(LoGeoRefLevel.L30, payload)


def _detect_l40(graph: InstanceGraph, unit_name: str, report: LoGeoRefReport) -> None:
    for context in graph.by_type("IFCGEOMETRICREPRESENTATIONCONTEXT"):
        what = "representation context"
        wcs = context.attr(CONTEXT.WorldCoordinateSystem)
        axis = _follow(graph, wcs, f"{what} world coordinate system", "IFCAXIS2PLACEMENT3D", report)
        read = (lambda _: UNSET) if axis is None else axis.attr  # no axis: all unset
        origin = _ratios(graph, read(AXIS.Location), f"{what} origin", "IFCCARTESIANPOINT", report)
        axes_set = read(AXIS.Axis) is not UNSET or read(AXIS.RefDirection) is not UNSET
        north = context.attr(CONTEXT.TrueNorth)
        north = _ratios(graph, north, f"{what} true north", "IFCDIRECTION", report)
        origin_nonzero = origin is not None and any(abs(c) > ORIGIN_TOLERANCE for c in origin)
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
    what = "map conversion target CRS"
    crs = _follow(graph, conversion.attr(CONVERSION.TargetCRS), what, "IFCPROJECTEDCRS", report)
    crs_name = None if crs is None else text(crs.attr(CRS.Name))
    if crs_name is None:
        report.diagnostics.append("IfcMapConversion without IfcProjectedCRS target")
        return
    abscissa = number(conversion.attr(CONVERSION.XAxisAbscissa))
    ordinate = number(conversion.attr(CONVERSION.XAxisOrdinate))
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
            "eastings": number(conversion.attr(CONVERSION.Eastings)),
            "northings": number(conversion.attr(CONVERSION.Northings)),
            "orthogonal_height": number(conversion.attr(CONVERSION.OrthogonalHeight)),
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
