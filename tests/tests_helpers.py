"""Fixture builders shared across test modules."""

from __future__ import annotations

from ifcaudit.spf.build import GraphBuilder, enum
from ifcaudit.spf.model import DERIVED, InstanceGraph, Reference


def minimal_building(schema: str = "IFC2X3") -> InstanceGraph:
    b = GraphBuilder(schema, model_name="mini")
    b.add("IFCBUILDING", *([None] * 12))
    return b.graph


def _site_skeleton(b: GraphBuilder, *, lat=None, lon=None, elevation=None,
                   site_location=(0.0, 0.0, 0.0), address: Reference | None = None):
    origin = b.add("IFCCARTESIANPOINT", tuple(float(c) for c in site_location))
    axis = b.add("IFCAXIS2PLACEMENT3D", origin, None, None)
    placement = b.add("IFCLOCALPLACEMENT", None, axis)
    return b.add(
        "IFCSITE", "siteguid", None, "Site", None, None, placement, None, None,
        enum("ELEMENT"), lat, lon, elevation, None, address,
    )


def _length_unit(b: GraphBuilder) -> Reference:
    metre = b.add("IFCSIUNIT", DERIVED, enum("LENGTHUNIT"), None, enum("METRE"))
    return b.add("IFCUNITASSIGNMENT", [metre])


def georef_fixture_l10(schema: str = "IFC2X3", host: str = "site") -> InstanceGraph:
    """A postal address on the site, or on a building when ``host`` is
    ``"building"``."""
    b = GraphBuilder(schema)
    _length_unit(b)
    address = b.add(
        "IFCPOSTALADDRESS", None, None, None, None, ["Main Street 1"], None,
        "Delft", None, "2628", "NL",
    )
    if host == "building":
        b.add("IFCBUILDING", *([None] * 11), address)
        _site_skeleton(b)
    else:
        _site_skeleton(b, address=address)
    return b.graph


def georef_fixture_l20(schema: str = "IFC2X3",
                       lat=(52, 0, 0, 0), lon=(4, 30, 0, 0),
                       elevation=2.5) -> InstanceGraph:
    b = GraphBuilder(schema)
    _length_unit(b)
    _site_skeleton(b, lat=list(lat), lon=list(lon), elevation=elevation)
    return b.graph


def georef_fixture_l30(schema: str = "IFC2X3",
                       location=(85321.25, 446714.5, 1.75)) -> InstanceGraph:
    b = GraphBuilder(schema)
    _length_unit(b)
    _site_skeleton(b, site_location=location)
    return b.graph


def georef_fixture_l40(schema: str = "IFC2X3",
                       origin=(85321.25, 446714.5, 0.0),
                       true_north=(0.1, 0.9949874371066199)) -> InstanceGraph:
    b = GraphBuilder(schema)
    units = _length_unit(b)
    wcs_origin = b.add("IFCCARTESIANPOINT", tuple(float(c) for c in origin))
    wcs = b.add("IFCAXIS2PLACEMENT3D", wcs_origin, None, None)
    north = b.add("IFCDIRECTION", tuple(float(c) for c in true_north))
    ctx = b.add(
        "IFCGEOMETRICREPRESENTATIONCONTEXT", None, "Model", 3, 1e-5, wcs, north
    )
    b.add(
        "IFCPROJECT", "projguid", None, "P", None, None, None, None, [ctx], units
    )
    _site_skeleton(b)
    return b.graph


def georef_fixture_l50(schema: str = "IFC4",
                       eastings=333780.622, northings=6246775.891,
                       height=19.7, rotation=(1.0, 0.0),
                       crs_name="EPSG:28355") -> InstanceGraph:
    b = GraphBuilder(schema)
    units = _length_unit(b)
    wcs_origin = b.add("IFCCARTESIANPOINT", (0.0, 0.0, 0.0))
    wcs = b.add("IFCAXIS2PLACEMENT3D", wcs_origin, None, None)
    ctx = b.add(
        "IFCGEOMETRICREPRESENTATIONCONTEXT", None, "Model", 3, 1e-5, wcs, None
    )
    b.add(
        "IFCPROJECT", "projguid", None, "P", None, None, None, None, [ctx], units
    )
    crs = b.add(
        "IFCPROJECTEDCRS", crs_name, None, None, None, None, None, None
    )
    b.add(
        "IFCMAPCONVERSION", ctx, crs, eastings, northings, height,
        rotation[0], rotation[1], None,
    )
    _site_skeleton(b)
    return b.graph


def prism_faces(outline, holes=(), height=1.0):
    """Faces of a right prism over a counter-clockwise ``outline`` in z=0,
    less the prisms over the counter-clockwise ``holes``. Each face is a
    list of xyz loops, outer bound first, wound counter-clockwise seen from
    outside the solid; inner bounds run the other way."""

    def ring(points, z):
        return [(float(x), float(y), float(z)) for x, y in points]

    outline = list(outline)
    holes = [list(hole) for hole in holes]
    faces = [
        [ring(outline, height)] + [ring(hole[::-1], height) for hole in holes],
        [ring(outline[::-1], 0.0)] + [ring(hole, 0.0) for hole in holes],
    ]
    # outline walls face out, hole walls face into the hole
    for loop in [outline] + [hole[::-1] for hole in holes]:
        for (x0, y0), (x1, y1) in zip(loop, loop[1:] + loop[:1]):
            faces.append([ring([(x0, y0), (x1, y1)], 0.0) + ring([(x1, y1), (x0, y0)], height)])
    return faces


def face_model(items, schema: str = "IFC2X3") -> InstanceGraph:
    """A file that ``check`` evaluates: one proxy, at the origin, per
    ``(slot, root_type, faces)``, where ``root_type`` is IFCFACETEDBREP or
    IFCSHELLBASEDSURFACEMODEL and ``faces`` is as ``prism_faces`` gives it.
    Each face's first loop is its IFCFACEOUTERBOUND, the others are
    IFCFACEBOUNDs; every bound's orientation is TRUE."""
    b = GraphBuilder(schema, model_name="faces")
    wcs = b.add("IFCAXIS2PLACEMENT3D", b.add("IFCCARTESIANPOINT", (0.0, 0.0, 0.0)), None, None)
    context = b.add("IFCGEOMETRICREPRESENTATIONCONTEXT", None, "Model", 3, 1e-5, wcs, None)
    placement = b.add("IFCLOCALPLACEMENT", None, wcs)
    for slot, root_type, faces in items:
        face_refs = []
        for loops in faces:
            bounds = [
                b.add(
                    "IFCFACEBOUND" if k else "IFCFACEOUTERBOUND",
                    b.add("IFCPOLYLOOP", [b.add("IFCCARTESIANPOINT", p) for p in loop]),
                    True,
                )
                for k, loop in enumerate(loops)
            ]
            face_refs.append(b.add("IFCFACE", bounds))
        if root_type == "IFCFACETEDBREP":
            root = b.add(root_type, b.add("IFCCLOSEDSHELL", face_refs))
        else:
            root = b.add(root_type, [b.add("IFCOPENSHELL", face_refs)])
        shape = b.add("IFCSHAPEREPRESENTATION", context, "Body", "Brep", [root])
        product_shape = b.add("IFCPRODUCTDEFINITIONSHAPE", None, None, [shape])
        b.add(
            "IFCBUILDINGELEMENTPROXY", f"proxy-{slot}", None, slot, slot, None,
            placement, product_shape, None, None,
        )
    return b.graph


#: outline of a U, area 7: a prism of height 1 over it has area 30
U_OUTLINE = [(0, 0), (3, 0), (3, 3), (2, 3), (2, 1), (1, 1), (1, 3), (0, 3)]
#: a 3x3 square with a centred 1x1 hole, area 8: its prism has area 32
HOLED_SQUARE = ([(0, 0), (3, 0), (3, 3), (0, 3)], [[(1, 1), (2, 1), (2, 2), (1, 2)]])


def wall_face():
    """A 6x3 wall face in the xz-plane, facing -y, with windows at x in
    [1, 2], z in [1, 2] and x in [3.5, 5], z in [0.5, 2.5]: area 14."""
    outer = [(0, 0), (6, 0), (6, 3), (0, 3)]
    windows = [[(1, 1), (2, 1), (2, 2), (1, 2)], [(3.5, 0.5), (5, 0.5), (5, 2.5), (3.5, 2.5)]]
    return [[(float(x), 0.0, float(z)) for x, z in loop] for loop in [outer, *windows]]


def holed_face_items():
    """``face_model`` items: the U prism, the holed prism and the wall."""
    return [
        ("U", "IFCFACETEDBREP", prism_faces(U_OUTLINE)),
        ("H", "IFCFACETEDBREP", prism_faces(*HOLED_SQUARE)),
        ("W", "IFCSHELLBASEDSURFACEMODEL", [wall_face()]),
    ]
