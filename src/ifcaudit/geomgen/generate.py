"""Emission of the geometry suite as a valid SPF instance graph."""

from __future__ import annotations

import hashlib
import math
import os
from datetime import datetime, timezone

from ..errors import UnavailableItem
from ..schema import SchemaVersion, arity, layout
from ..spf.build import GraphBuilder, enum, typed
from ..spf.model import DERIVED, EntityInstance, InstanceGraph, Reference
from .suite import (
    BELOW_PRECISION_ITEM,
    CLIP_PLANE_Z,
    CUBE_EDGE,
    CUBE_OVERLAP,
    DEFAULT_PRECISION,
    DEFAULT_SPACING,
    DIRECTRIX_LENGTH,
    DISK_RADIUS,
    EXTRUSION_DEPTH,
    PROFILE_LAYOUTS,
    REVOLVE_AXIS_OFFSET,
    SLANT_COMPONENT,
    GeometryTestItem,
    Profile,
    ShapeKind,
    SuiteManifest,
    Variant,
    items_for,
)

TIMESTAMP_ENV = "IFCAUDIT_TIMESTAMP"
FULL_SWEEP_RADIANS = 6.283185307179586

_GUID_ALPHABET = (
    "0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_$"
)


def deterministic_guid(*parts: str) -> str:
    """22-character IFC GlobalId derived from a stable hash of the parts."""
    digest = hashlib.md5(":".join(parts).encode("utf-8")).digest()
    value = int.from_bytes(digest, "big")
    chars = []
    for _ in range(21):
        chars.append(_GUID_ALPHABET[value & 0x3F])
        value >>= 6
    chars.append(_GUID_ALPHABET[value & 0x03])
    return "".join(reversed(chars))


def _timestamp(explicit: str | None) -> str:
    if explicit is not None:
        return explicit
    injected = os.environ.get(TIMESTAMP_ENV)
    if injected:
        return injected
    return datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%S")


class _SuiteWriter:
    """Tracks the spine instances while items are appended."""

    def __init__(self, schema: SchemaVersion, builder: GraphBuilder, seed: str):
        self.schema = schema
        self.b = builder
        self._seed = seed

    def spine(self, precision: float) -> None:
        """Add the project, its units and context, and the site, building
        and storey that hold the items."""
        b = self.b
        person = b.add("IFCPERSON", None, "benchmark", None, None, None, None, None, None)
        org = b.add("IFCORGANIZATION", None, "ifcaudit", None, None, None)
        pao = b.add("IFCPERSONANDORGANIZATION", person, org, None)
        app = b.add("IFCAPPLICATION", org, "0.1.0", "ifcaudit", "ifcaudit")
        self.history = b.add(
            "IFCOWNERHISTORY", pao, app, None, enum("ADDED"), None, None, None, 0
        )
        length = b.add("IFCSIUNIT", DERIVED, enum("LENGTHUNIT"), None, enum("METRE"))
        angle = b.add("IFCSIUNIT", DERIVED, enum("PLANEANGLEUNIT"), None, enum("RADIAN"))
        area = b.add("IFCSIUNIT", DERIVED, enum("AREAUNIT"), None, enum("SQUARE_METRE"))
        volume = b.add("IFCSIUNIT", DERIVED, enum("VOLUMEUNIT"), None, enum("CUBIC_METRE"))
        units = b.add("IFCUNITASSIGNMENT", [length, angle, area, volume])
        wcs = b.add("IFCAXIS2PLACEMENT3D", self.point(0.0, 0.0, 0.0), None, None)
        self.context = b.add(
            "IFCGEOMETRICREPRESENTATIONCONTEXT", None, "Model", 3, precision, wcs, None
        )
        project = b.add(
            "IFCPROJECT", self.guid("project"), self.history, "IFC geometries",
            None, None, None, None, [self.context], units,
        )
        site_placement = b.add("IFCLOCALPLACEMENT", None, self.axis3())
        site = b.add(
            "IFCSITE", self.guid("site"), self.history, "Site", None, None,
            site_placement, None, None, enum("ELEMENT"), None, None, None, None, None,
        )
        building_placement = b.add("IFCLOCALPLACEMENT", site_placement, self.axis3())
        building = b.add(
            "IFCBUILDING", self.guid("building"), self.history, "Building", None,
            None, building_placement, None, None, enum("ELEMENT"), None, None, None,
        )
        self.storey_placement = b.add(
            "IFCLOCALPLACEMENT", building_placement, self.axis3()
        )
        storey = b.add(
            "IFCBUILDINGSTOREY", self.guid("storey"), self.history, "Storey", None,
            None, self.storey_placement, None, None, enum("ELEMENT"), 0.0,
        )
        b.add(
            "IFCRELAGGREGATES", self.guid("rel-project"), self.history, None, None,
            project, [site],
        )
        b.add(
            "IFCRELAGGREGATES", self.guid("rel-site"), self.history, None, None,
            site, [building],
        )
        b.add(
            "IFCRELAGGREGATES", self.guid("rel-building"), self.history, None, None,
            building, [storey],
        )
        self.storey = storey
        self.proxies: list[Reference] = []

    def guid(self, role: str) -> str:
        return deterministic_guid(self._seed, role)

    def point(self, *coords: float) -> Reference:
        return self.b.add("IFCCARTESIANPOINT", tuple(float(c) for c in coords))

    def direction(self, *ratios: float) -> Reference:
        return self.b.add("IFCDIRECTION", tuple(float(r) for r in ratios))

    def axis3(
        self, origin: tuple[float, float, float] = (0.0, 0.0, 0.0)
    ) -> Reference:
        return self.b.add("IFCAXIS2PLACEMENT3D", self.point(*origin), None, None)

    def axis2d(self, x: float = 0.0, y: float = 0.0) -> Reference:
        return self.b.add("IFCAXIS2PLACEMENT2D", self.point(x, y), None)

    def add_item(self, item: GeometryTestItem, spacing: float, precision: float) -> None:
        b = self.b
        x, y = item.position(spacing)
        placement = b.add(
            "IFCLOCALPLACEMENT", self.storey_placement, self.axis3((x, y, 0.0))
        )
        root, representation_type = build_geometry(self, item, precision)
        shape = b.add(
            "IFCSHAPEREPRESENTATION", self.context, "Body", representation_type, [root]
        )
        product_shape = b.add("IFCPRODUCTDEFINITIONSHAPE", None, None, [shape])
        proxy = b.add(
            "IFCBUILDINGELEMENTPROXY", self.guid(item.definition_name), self.history,
            item.definition_name, item.slot, None, placement, product_shape, None, None,
        )
        self.proxies.append(proxy)

    def finish(self) -> InstanceGraph:
        self.b.add(
            "IFCRELCONTAINEDINSPATIALSTRUCTURE", self.guid("rel-storey"),
            self.history, None, None, self.proxies, self.storey,
        )
        return self.b.graph()


def _positive_length(value: float):
    return typed("IFCPOSITIVELENGTHMEASURE", float(value))


def _profile(w: _SuiteWriter, profile: Profile, cx: float = 0.0, cy: float = 0.0,
             dimensions: dict[str, float] | None = None) -> Reference:
    """A profile at (cx, cy) laid out by ``PROFILE_LAYOUTS``; ``dimensions`` replace its own."""
    type_name, own = PROFILE_LAYOUTS[profile]
    at = layout(type_name)
    attrs = [None] * arity(type_name, w.schema)
    attrs[at.ProfileType], attrs[at.Position] = enum("AREA"), w.axis2d(cx, cy)
    for name, value in (dimensions or own).items():
        attrs[getattr(at, name)] = _positive_length(value)
    return w.b.add(type_name, *attrs)


def _brep_cube(w: _SuiteWriter, x0: float, y0: float, z0: float,
               edge: float = CUBE_EDGE) -> Reference:
    b = w.b
    x1, y1, z1 = x0 + edge, y0 + edge, z0 + edge
    p = [
        w.point(x0, y0, z0), w.point(x1, y0, z0), w.point(x1, y1, z0),
        w.point(x0, y1, z0), w.point(x0, y0, z1), w.point(x1, y0, z1),
        w.point(x1, y1, z1), w.point(x0, y1, z1),
    ]
    quads = [
        (0, 3, 2, 1), (4, 5, 6, 7), (0, 1, 5, 4),
        (1, 2, 6, 5), (2, 3, 7, 6), (3, 0, 4, 7),
    ]
    faces = []
    for quad in quads:
        loop = b.add("IFCPOLYLOOP", [p[i] for i in quad])
        bound = b.add("IFCFACEOUTERBOUND", loop, True)
        faces.append(b.add("IFCFACE", [bound]))
    return b.add("IFCCLOSEDSHELL", faces)


def _extruded_cube(w: _SuiteWriter) -> Reference:
    # unit cube [0,1]^3 as an extrusion (clipping operands must be swept solids)
    cube_face = {"XDim": CUBE_EDGE, "YDim": CUBE_EDGE}
    profile = _profile(w, Profile.RECTANGLE, CUBE_EDGE / 2, CUBE_EDGE / 2, cube_face)
    return w.b.add(
        "IFCEXTRUDEDAREASOLID", profile, w.axis3(), w.direction(0.0, 0.0, 1.0),
        _positive_length(CUBE_EDGE),
    )


_EXTRUSION_DIRECTIONS = {
    Variant.NOMINAL: (0.0, 0.0, 1.0),
    Variant.NEGATIVE_DEPTH: (0.0, 0.0, 1.0),
    Variant.ZERO_DEPTH: (0.0, 0.0, 1.0),
    Variant.BELOW_PRECISION_DEPTH: (0.0, 0.0, 1.0),
    Variant.NON_NORMALIZED_DIRECTION: (0.0, 0.0, 2.0),
    Variant.DIRECTION_PARALLEL_TO_PROFILE: (1.0, 0.0, 0.0),
    Variant.SLANTED: (SLANT_COMPONENT, 0.0, SLANT_COMPONENT),
}


def build_geometry(
    w: _SuiteWriter, item: GeometryTestItem, precision: float
) -> tuple[Reference, str]:
    """Emit the geometry instances for one item; returns the root reference
    and the shape representation type label."""
    b = w.b
    kind = item.kind

    if kind is ShapeKind.BOOLEAN_RESULT:
        first = b.add("IFCFACETEDBREP", _brep_cube(w, 0.0, 0.0, 0.0))
        second = b.add("IFCFACETEDBREP", _brep_cube(w, CUBE_OVERLAP, 0.0, 0.0))
        operator = {
            Variant.SUBTRACTION: "DIFFERENCE",
            Variant.INTERSECTION: "INTERSECTION",
            Variant.UNION: "UNION",
        }[item.variant]
        root = b.add("IFCBOOLEANRESULT", enum(operator), first, second)
        return root, "CSG"

    if kind is ShapeKind.BOOLEAN_CLIPPING_RESULT:
        cube = _extruded_cube(w)
        plane = b.add("IFCPLANE", w.axis3((0.0, 0.0, CLIP_PLANE_Z)))
        half_space = b.add("IFCHALFSPACESOLID", plane, True)
        root = b.add(
            "IFCBOOLEANCLIPPINGRESULT", enum("DIFFERENCE"), cube, half_space
        )
        return root, "Clipping"

    if kind is ShapeKind.SHELL_BASED_SURFACE_MODEL:
        shell = _brep_cube(w, 0.0, 0.0, 0.0)
        return b.add("IFCSHELLBASEDSURFACEMODEL", [shell]), "SurfaceModel"

    if kind is ShapeKind.FACETED_BREP:
        return b.add("IFCFACETEDBREP", _brep_cube(w, 0.0, 0.0, 0.0)), "Brep"

    if kind is ShapeKind.EXTRUDED_AREA_SOLID:
        profile = _profile(w, item.profile)
        depth = EXTRUSION_DEPTH
        if item.variant is Variant.NEGATIVE_DEPTH:
            depth = -EXTRUSION_DEPTH
        elif item.variant is Variant.ZERO_DEPTH:
            depth = 0.0
        elif item.variant is Variant.BELOW_PRECISION_DEPTH:
            depth = precision / 2.0
        direction = _EXTRUSION_DIRECTIONS[item.variant]
        root = b.add(
            "IFCEXTRUDEDAREASOLID", profile, w.axis3(), w.direction(*direction),
            _positive_length(depth),
        )
        return root, "SweptSolid"

    if kind is ShapeKind.REVOLVED_AREA_SOLID:
        profile = _profile(w, item.profile, cx=REVOLVE_AXIS_OFFSET)
        axis = b.add(
            "IFCAXIS1PLACEMENT", w.point(0.0, 0.0, 0.0), w.direction(0.0, 1.0, 0.0)
        )
        root = b.add(
            "IFCREVOLVEDAREASOLID", profile, w.axis3(), axis, FULL_SWEEP_RADIANS
        )
        return root, "SweptSolid"

    if kind is ShapeKind.SWEPT_DISK_SOLID:
        directrix = b.add(
            "IFCPOLYLINE",
            [w.point(0.0, 0.0, 0.0), w.point(DIRECTRIX_LENGTH, 0.0, 0.0)],
        )
        end_param = 2.0 if item.variant is Variant.PARAM_RANGE_OUTSIDE_CURVE else 1.0
        root = b.add(
            "IFCSWEPTDISKSOLID", directrix, _positive_length(DISK_RADIUS), None,
            0.0, end_param,
        )
        return root, "SolidModel"

    raise ValueError(f"unhandled kind {kind}")


def generate_geometry_suite(
    schema: SchemaVersion,
    spacing: float = DEFAULT_SPACING,
    precision: float = DEFAULT_PRECISION,
    timestamp: str | None = None,
    include_below_precision_item: bool = False,
) -> tuple[InstanceGraph, SuiteManifest]:
    """Build the conformance suite for one schema version.

    Identical arguments produce byte-identical files; the timestamp can be
    pinned explicitly or through the IFCAUDIT_TIMESTAMP environment variable.
    """
    if not (math.isfinite(spacing) and spacing > 0):
        raise ValueError(f"spacing must be finite and positive, not {spacing}")
    if not (math.isfinite(precision) and precision > 0):
        raise ValueError(f"precision must be finite and positive, not {precision}")
    builder = GraphBuilder(schema.value, "IFC geometries", _timestamp(timestamp))
    writer = _SuiteWriter(schema, builder, f"ifcaudit:{schema.value}")
    writer.spine(precision)
    items = list(items_for(schema))
    if include_below_precision_item:
        items.append(BELOW_PRECISION_ITEM)
    if not math.isfinite(max(max(item.position(spacing)) for item in items)):
        raise ValueError(f"spacing {spacing} puts the suite's grid past the float range")
    for item in items:
        writer.add_item(item, spacing, precision)
    graph = writer.finish()

    notes = []
    if schema is SchemaVersion.IFC4:
        notes.append(
            "F4/F5 (IfcSweptDiskSolid) excluded from the IFC4 item list even "
            "though the entity exists in IFC4; the exclusion follows the "
            "published item table."
        )
    manifest = SuiteManifest(
        schema=schema,
        items=items,
        grid_spacing=spacing,
        precision=precision,
        notes=notes,
    )
    return graph, manifest


def generate_item(
    item: GeometryTestItem,
    schema: SchemaVersion,
    precision: float = DEFAULT_PRECISION,
) -> list[EntityInstance]:
    """Self-contained instance fragment for a single item (fresh ids from 1).

    The fragment carries only what the shape needs: no spatial spine, no
    proxy. Raises UnavailableItem when the item does not exist in ``schema``.
    """
    if schema not in item.available_in:
        raise UnavailableItem(f"{item.slot} ({item.definition_name}) not in {schema.value}")
    seed = f"ifcaudit:{schema.value}:{item.slot}"
    writer = _SuiteWriter(schema, GraphBuilder(schema.value), seed)
    root, _ = build_geometry(writer, item, precision)
    graph = writer.b.graph()
    assert root.id in graph
    return list(graph)
