"""Shape evaluation: from IFC definitions to triangle meshes and the
benchmark template's follow-up answers (displayed, Z=0 relation, shape)."""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

from .. import spf  # its writer loads only to name a value in an error
from .._lazy import lazy
from ..errors import MalformedFile, NotAReference, NotFound, UnsupportedShape, WrongType
from ..geomgen.suite import DEFAULT_PRECISION, PROFILE_LAYOUTS, Profile, ShapeKind
from ..schema import layout
from ..spf.model import (
    AttributeValue,
    EntityInstance,
    EnumToken,
    InstanceGraph,
    ListValue,
    Reference,
)
from ..spf.values import follow, number, numbers, text, walk
from .mesh import TriMesh, cross3
from .tessellate import (
    crane_rail_polygon,
    ellipse_polygon,
    extrude_polygon,
    ishape_polygon,
    rectangle_polygon,
    revolve_polygon,
    triangulate_face,
)

np = lazy("numpy")  # only evaluating geometry loads numpy

DEFAULT_SEGMENTS = 64
SMOOTH_SEGMENT_THRESHOLD = 32
#: |z ratio| of an extrusion direction at or below which it lies in the
#: profile plane, so no solid exists (the schema's direction rule).
DIRECTION_DOT_TOLERANCE = 1e-12
#: Most triangles one item may tessellate into. A finer item is unsupported,
#: so it gets an error of its own instead of exhausting memory for the file;
#: a 1024-segment revolution of the suite makes about 2.1 M.
TRIANGLE_BUDGET = 2**24
#: Largest usable precision. A solid is displayed when its volume exceeds
#: the precision cubed, and 5e102 cubed, 1.25e308, is still a float.
MAX_PRECISION = 5e102

#: Attribute positions, by name, of the entities read here.
POINT, DIRECTION, PLANE = layout("IFCCARTESIANPOINT"), layout("IFCDIRECTION"), layout("IFCPLANE")
AXIS1, AXIS2D = layout("IFCAXIS1PLACEMENT"), layout("IFCAXIS2PLACEMENT2D")
AXIS3, LOCAL = layout("IFCAXIS2PLACEMENT3D"), layout("IFCLOCALPLACEMENT")
CONTEXT, PRODUCT = layout("IFCGEOMETRICREPRESENTATIONCONTEXT"), layout("IFCPRODUCT")
PRODUCT_SHAPE, SHAPE = layout("IFCPRODUCTDEFINITIONSHAPE"), layout("IFCSHAPEREPRESENTATION")
EXTRUSION, REVOLUTION = layout("IFCEXTRUDEDAREASOLID"), layout("IFCREVOLVEDAREASOLID")
DISK, POLYLINE, LOOP = layout("IFCSWEPTDISKSOLID"), layout("IFCPOLYLINE"), layout("IFCPOLYLOOP")
SURFACE_MODEL, BREP = layout("IFCSHELLBASEDSURFACEMODEL"), layout("IFCFACETEDBREP")
SHELL, FACE, BOUND = layout("IFCCLOSEDSHELL"), layout("IFCFACE"), layout("IFCFACEBOUND")
BOOLEAN, HALF_SPACE = layout("IFCBOOLEANRESULT"), layout("IFCHALFSPACESOLID")

#: Supported profiles: IFC type -> (shape-class label, outline builder, the
#: profile's layout, the names of the builder's dimensions in its parameter
#: order, curved). A curved builder also takes the segment count.
_PROFILES = {
    type_name: (profile.value, outline, layout(type_name), list(dimensions), curved)
    for profile, outline, curved in (
        (Profile.RECTANGLE, rectangle_polygon, False),
        (Profile.ELLIPSE, ellipse_polygon, True),
        (Profile.I_SHAPE, ishape_polygon, True),
        (Profile.CRANE_RAIL_A_SHAPE, crane_rail_polygon, False),
    )
    for type_name, dimensions in [PROFILE_LAYOUTS[profile]]
}


class ZRelation(enum.Enum):
    ABOVE = "AboveZ0"
    BELOW = "BelowZ0"
    STRADDLES = "StraddlesZ0"
    ON = "OnZ0"


@dataclass
class EvaluationOutcome:
    shape_class: str
    mesh: TriMesh | None = None
    smooth_curves: bool = False
    warnings: list[str] = field(default_factory=list)
    is_surface_model: bool = False
    # set by evaluate_item from the world-space mesh
    displayed: bool = False
    z_relation: ZRelation | None = None


def classify_z(zmin: float, zmax: float, band: float) -> ZRelation:
    if abs(zmin) <= band and abs(zmax) <= band:
        return ZRelation.ON
    if zmin >= -band:
        return ZRelation.ABOVE
    if zmax <= band:
        return ZRelation.BELOW
    return ZRelation.STRADDLES


# --- placements ---------------------------------------------------------------


def _expect(graph: InstanceGraph, ref: AttributeValue, what: str, *types: str) -> EntityInstance:
    """The instance ``ref`` names; any type but ``types`` is unsupported."""
    try:
        return follow(graph, ref, *types)
    except WrongType as exc:
        raise UnsupportedShape(f"{what} {exc}") from None


def _point(graph: InstanceGraph, ref: AttributeValue, dim: int = 3) -> np.ndarray:
    point = _expect(graph, ref, "point", "IFCCARTESIANPOINT")
    coords = numbers(point.attr(POINT.Coordinates)) or []
    coords = coords + [0.0] * (dim - len(coords))
    return np.array(coords[:dim])


def _direction(
    graph: InstanceGraph, ref: AttributeValue, default: tuple[float, ...]
) -> np.ndarray:
    if not isinstance(ref, Reference):
        return np.array(default, dtype=np.float64)
    direction = _expect(graph, ref, "direction", "IFCDIRECTION")
    ratios = numbers(direction.attr(DIRECTION.DirectionRatios)) or list(default)
    ratios = ratios + [0.0] * (len(default) - len(ratios))
    return np.array(ratios[: len(default)], dtype=np.float64)


def _unit(ref: AttributeValue, direction: np.ndarray) -> np.ndarray:
    """``direction``, read from ``ref``, scaled to length 1. A direction
    without a finite, nonzero length is an error of its item: dividing by
    it would give NaN coordinates."""
    norm = np.linalg.norm(direction)
    if not 0.0 < norm < math.inf:
        raise UnsupportedShape(f"direction #{ref.id} has length {norm:g}")
    return direction / norm


def axis2_matrix(graph: InstanceGraph, ref: AttributeValue) -> np.ndarray:
    """4x4 matrix of an IfcAxis2Placement3D (identity when unset)."""
    if not isinstance(ref, Reference):
        return np.eye(4)
    inst = _expect(graph, ref, "unsupported placement", "IFCAXIS2PLACEMENT3D")
    location_ref, axis_ref = inst.attr(AXIS3.Location), inst.attr(AXIS3.Axis)
    location = _point(graph, location_ref) if isinstance(location_ref, Reference) else np.zeros(3)
    z = _unit(axis_ref, _direction(graph, axis_ref, (0.0, 0.0, 1.0)))
    x_hint = _direction(graph, inst.attr(AXIS3.RefDirection), (1.0, 0.0, 0.0))
    return _frame(location, z, x_hint)


def _frame(location: np.ndarray, z: np.ndarray, x_hint: np.ndarray) -> np.ndarray:
    """4x4 matrix of the right-handed frame at ``location`` whose z axis is
    the unit vector ``z`` and whose x axis is ``x_hint`` made perpendicular
    to it; a hint along ``z`` gives way to the x axis, or to the y axis when
    ``z`` is near the x axis."""
    x = x_hint - (x_hint @ z) * z
    norm = np.linalg.norm(x)
    if norm < 1e-12:
        x = np.array([1.0, 0.0, 0.0]) if abs(z[0]) < 0.9 else np.array([0.0, 1.0, 0.0])
        x = x - (x @ z) * z
        norm = np.linalg.norm(x)
    x = x / norm
    m = np.eye(4)
    m[:3, 0], m[:3, 1], m[:3, 2], m[:3, 3] = x, cross3(z, x), z, location
    return m


def placement_matrix(graph: InstanceGraph, ref: AttributeValue) -> np.ndarray:
    """Composed matrix of an IfcLocalPlacement chain."""
    chain: list[np.ndarray] = []
    seen: set[int] = set()
    while isinstance(ref, Reference):
        if ref.id in seen:
            raise UnsupportedShape(f"placement #{ref.id} is its own ancestor")
        seen.add(ref.id)
        inst = _expect(graph, ref, "unsupported object placement", "IFCLOCALPLACEMENT")
        chain.append(axis2_matrix(graph, inst.attr(LOCAL.RelativePlacement)))
        ref = inst.attr(LOCAL.PlacementRelTo)
    matrix = np.eye(4)
    for local in reversed(chain):  # outermost parent first
        matrix = matrix @ local
    return matrix


def _profile_polygon(
    graph: InstanceGraph, ref: AttributeValue, segments: int
) -> tuple[np.ndarray, str, bool]:
    """Outline of a profile, its shape-class label and whether it is curved."""
    profile = _expect(graph, ref, "unsupported profile", *_PROFILES)
    label, outline, at, names, curved = _PROFILES[profile.type_name]
    dimensions = [number(profile.attr(getattr(at, name))) or 0.0 for name in names]
    poly = outline(*dimensions, segments) if curved else outline(*dimensions)
    # apply the 2D profile position (offset plus optional rotation)
    position = profile.attr(at.Position)
    if isinstance(position, Reference):
        a2d = _expect(graph, position, "profile position", "IFCAXIS2PLACEMENT2D")
        location, ref_dir_ref = a2d.attr(AXIS2D.Location), a2d.attr(AXIS2D.RefDirection)
        offset = _point(graph, location, dim=2) if isinstance(location, Reference) else np.zeros(2)
        ref_dir = _unit(ref_dir_ref, _direction(graph, ref_dir_ref, (1.0, 0.0)))
        rot = np.array([[ref_dir[0], -ref_dir[1]], [ref_dir[1], ref_dir[0]]])
        poly = np.einsum("ij,kj->ik", poly, rot) + offset
    return poly, label, curved


# --- item collection ---------------------------------------------------------


def usable_precision(value: float) -> bool:
    """Whether ``value`` can be the point-equality tolerance: above 0 and at
    most :data:`MAX_PRECISION` (NaN is neither)."""
    return 0 < value <= MAX_PRECISION


def context_precision(graph: InstanceGraph) -> float | None:
    """The first usable point-equality tolerance declared in a geometric
    representation context, if any."""
    for context in graph.by_type("IFCGEOMETRICREPRESENTATIONCONTEXT"):
        value = number(context.attr(CONTEXT.Precision))
        if value is not None and usable_precision(value):
            return value
    return None


def suite_proxies(graph: InstanceGraph) -> list[EntityInstance]:
    """Suite proxies ordered by their slot label (stored in Description);
    proxies whose record cannot be read come first, in file order."""

    def slot(proxy: EntityInstance) -> str:
        try:
            return text(proxy.attr(PRODUCT.Description)) or ""
        except MalformedFile:
            return ""

    return sorted(graph.by_type("IFCBUILDINGELEMENTPROXY"), key=slot)


def shape_roots(graph: InstanceGraph, product: EntityInstance) -> list[EntityInstance]:
    """Items of every shape representation under a product's product
    definition shape."""
    rep_ref = product.attr(PRODUCT.Representation)
    if not isinstance(rep_ref, Reference):
        return []
    pds = _expect(graph, rep_ref, "product representation", "IFCPRODUCTDEFINITIONSHAPE")
    roots = []
    reps = pds.attr(PRODUCT_SHAPE.Representations)
    if isinstance(reps, ListValue):
        for rep in reps.items:
            if not isinstance(rep, Reference):
                continue
            shape = _expect(graph, rep, "shape representation", "IFCSHAPEREPRESENTATION")
            items = shape.attr(SHAPE.Items)
            if isinstance(items, ListValue):
                roots.extend(graph.resolve(r.id) for r in items.items if isinstance(r, Reference))
    return roots


def item_fragment(graph: InstanceGraph, product: EntityInstance) -> list[EntityInstance]:
    """Closure of geometry instances under a product's shape representation,
    excluding the shared representation context."""
    seen: set[int] = set()
    out: list[EntityInstance] = []
    stack = shape_roots(graph, product)
    while stack:
        inst = stack.pop()
        if inst.id in seen:
            continue
        seen.add(inst.id)
        out.append(inst)
        for attr in inst.attributes:
            for value in walk(attr):
                if isinstance(value, Reference) and value.id not in seen:
                    stack.append(graph.resolve(value.id))
    out.sort(key=lambda i: i.id)
    return out


# --- evaluation --------------------------------------------------------------


def evaluate_item(
    graph: InstanceGraph,
    product: EntityInstance,
    segments: int = DEFAULT_SEGMENTS,
    precision: float = DEFAULT_PRECISION,
) -> EvaluationOutcome:
    """Evaluate one suite item to a mesh in world coordinates."""
    roots = shape_roots(graph, product)
    if not roots:
        raise UnsupportedShape(f"proxy #{product.id} has no shape representation items")
    root = roots[0]
    world = placement_matrix(graph, product.attr(PRODUCT.ObjectPlacement))
    outcome = _evaluate_root(graph, root, segments)
    if outcome.mesh is not None:
        mesh = outcome.mesh
        mesh.transform(world)
        mesh.weld(precision)
        zmin, zmax = mesh.bbox[0][2], mesh.bbox[1][2]
        outcome.z_relation = classify_z(zmin, zmax, precision)
        if outcome.is_surface_model:
            outcome.displayed = mesh.surface_area > precision**2
        else:
            outcome.displayed = mesh.volume > precision**3
    return outcome


def _evaluate_root(
    graph: InstanceGraph, root: EntityInstance, segments: int
) -> EvaluationOutcome:
    if root.type_name not in SHAPES:
        raise UnsupportedShape(f"unsupported geometry root {root.type_name}")
    evaluator, kind = SHAPES[root.type_name]
    return evaluator(graph, root, segments, kind)


def _not_displayed(shape_class: str, warning: str) -> EvaluationOutcome:
    return EvaluationOutcome(shape_class, warnings=[warning])


def _within_budget(triangles: int) -> None:
    """Refuse an item before its mesh is built when it would be too fine."""
    if triangles > TRIANGLE_BUDGET:
        raise UnsupportedShape(
            f"{triangles} triangles exceed the budget of {TRIANGLE_BUDGET} per item"
        )


def _eval_extrusion(
    graph: InstanceGraph, root: EntityInstance, segments: int, kind: str
) -> EvaluationOutcome:
    polygon, label, curved = _profile_polygon(graph, root.attr(EXTRUSION.SweptArea), segments)
    shape_class = f"{kind}/{label}"
    warnings: list[str] = []
    direction = _direction(graph, root.attr(EXTRUSION.ExtrudedDirection), (0.0, 0.0, 1.0))
    depth = number(root.attr(EXTRUSION.Depth)) or 0.0
    if depth == 0.0:
        return _not_displayed(shape_class, "zero extrusion depth; nothing to evaluate")
    if abs(direction[2]) <= DIRECTION_DOT_TOLERANCE:
        return _not_displayed(
            shape_class,
            "extrusion direction parallel to profile plane; no solid exists",
        )
    norm = np.linalg.norm(direction)
    if abs(norm - 1.0) > 1e-9:
        warnings.append(
            f"NonNormalizedDirection: |direction| = {norm:.9g}; normalized before sweeping"
        )
    unit = direction / norm
    if depth < 0:
        warnings.append(
            "negative extrusion depth evaluated as sweep along the reversed direction"
        )
    _within_budget(4 * len(polygon) - 4)  # two caps of n - 2, two per side
    mesh = extrude_polygon(polygon, unit * depth)
    mesh.transform(axis2_matrix(graph, root.attr(EXTRUSION.Position)))
    smooth = curved and segments >= SMOOTH_SEGMENT_THRESHOLD
    return EvaluationOutcome(shape_class, mesh, smooth_curves=smooth, warnings=warnings)


def _eval_revolution(
    graph: InstanceGraph, root: EntityInstance, segments: int, kind: str
) -> EvaluationOutcome:
    polygon, label, _ = _profile_polygon(graph, root.attr(REVOLUTION.SweptArea), segments)
    shape_class = f"{kind}/{label}"
    axis = _expect(graph, root.attr(REVOLUTION.Axis), "revolution axis", "IFCAXIS1PLACEMENT")
    location, axis_ref = axis.attr(AXIS1.Location), axis.attr(AXIS1.Axis)
    axis_point = _point(graph, location) if isinstance(location, Reference) else np.zeros(3)
    axis_dir = _direction(graph, axis_ref, (0.0, 0.0, 1.0))
    if abs(axis_dir[2]) > 1e-9 or abs(axis_point[2]) > 1e-9:
        raise UnsupportedShape("revolution axis must lie in the profile plane")
    angle = number(root.attr(REVOLUTION.Angle)) or 0.0
    if abs(angle - 2.0 * math.pi) > 1e-6:
        raise UnsupportedShape("only full-sweep revolutions are supported")
    _within_budget(2 * segments * len(polygon))  # two per side, per step
    mesh = revolve_polygon(polygon, axis_point, _unit(axis_ref, axis_dir), segments)
    mesh.transform(axis2_matrix(graph, root.attr(REVOLUTION.Position)))
    return EvaluationOutcome(
        shape_class, mesh, smooth_curves=segments >= SMOOTH_SEGMENT_THRESHOLD
    )


def _eval_swept_disk(
    graph: InstanceGraph, root: EntityInstance, segments: int, kind: str
) -> EvaluationOutcome:
    shape_class = f"{kind}/Disk"
    warnings: list[str] = []
    directrix = _expect(graph, root.attr(DISK.Directrix), "directrix", "IFCPOLYLINE")
    point_refs = directrix.attr(POLYLINE.Points)
    if not isinstance(point_refs, ListValue) or len(point_refs.items) != 2:
        raise UnsupportedShape("only straight two-point directrices are supported")
    p0 = _point(graph, point_refs.items[0])
    p1 = _point(graph, point_refs.items[1])
    span = math.dist(p0, p1)  # in Python floats: past the float range it is inf, and no warning
    if not math.isfinite(span):
        raise UnsupportedShape(f"directrix #{directrix.id} has length {span:g}")
    if span == 0:
        return _not_displayed(shape_class, "zero-length directrix; nothing to evaluate")
    radius = number(root.attr(DISK.Radius)) or 0.0
    start = number(root.attr(DISK.StartParam))
    end = number(root.attr(DISK.EndParam))
    low, high = 0.0, 1.0  # the range of a two-point polyline
    if start is None:
        start = low
    if end is None:
        end = high
    if start < low or end > high:
        warnings.append(
            f"sweep parameters [{start:g}, {end:g}] outside directrix range "
            f"[{low:g}, {high:g}]; clamped"
        )
        start, end = max(start, low), min(end, high)
    if end <= start or radius <= 0:
        return _not_displayed(shape_class, "empty sweep after clamping")
    a = p0 + (p1 - p0) * start
    axis = p0 + (p1 - p0) * end - a
    length = math.hypot(*axis)  # finite, as the span is; numpy's norm squares first and can overflow
    if length == 0:  # the clamped parameters meet at one point
        return _not_displayed(shape_class, "zero-length sweep; nothing to evaluate")
    _within_budget(4 * segments - 4)  # two caps of n - 2, two per side
    # a disk extruded along the z axis of a frame that runs along the sweep
    mesh = extrude_polygon(ellipse_polygon(radius, radius, segments), (0.0, 0.0, length))
    mesh.transform(_frame(a, axis / length, np.array([1.0, 0.0, 0.0])))
    smooth = segments >= SMOOTH_SEGMENT_THRESHOLD
    return EvaluationOutcome(shape_class, mesh, smooth_curves=smooth, warnings=warnings)


def directrix_range(
    graph: InstanceGraph, ref: AttributeValue
) -> tuple[float, float] | None:
    """Parameter range of a polyline directrix: 0 to its segment count."""
    try:
        points = follow(graph, ref, "IFCPOLYLINE").attr(POLYLINE.Points)
    except (NotAReference, NotFound, WrongType):
        return None
    if not isinstance(points, ListValue):
        return None
    return 0.0, float(len(points.items) - 1)


def _shell_faces(
    graph: InstanceGraph, shell: EntityInstance
) -> list[tuple[EntityInstance, list[np.ndarray], int | None]]:
    """Each face of a shell: the face, its loops' points in their own
    winding, and the index of its outer bound, if it has one."""
    faces = shell.attr(SHELL.CfsFaces)
    if not isinstance(faces, ListValue):
        raise UnsupportedShape("shell without face list")
    if not faces.items:
        raise UnsupportedShape(f"shell #{shell.id} has no triangles")
    out = []
    for face_ref in faces.items:
        face = _expect(graph, face_ref, "face", "IFCFACE")
        bounds = face.attr(FACE.Bounds)
        loops: list[np.ndarray] = []
        outer = None
        for bound_ref in bounds.items if isinstance(bounds, ListValue) else ():
            bound = _expect(graph, bound_ref, "face bound", "IFCFACEBOUND", "IFCFACEOUTERBOUND")
            loop = _expect(graph, bound.attr(BOUND.Bound), "face bound loop", "IFCPOLYLOOP")
            pts = loop.attr(LOOP.Polygon)
            coords = [_point(graph, p) for p in pts.items] if isinstance(pts, ListValue) else []
            orientation = bound.attr(BOUND.Orientation)
            if isinstance(orientation, EnumToken) and orientation.name == "F":
                coords = coords[::-1]
            if outer is None and bound.type_name == "IFCFACEOUTERBOUND":
                outer = len(loops)
            loops.append(np.array(coords).reshape(-1, 3))
        out.append((face, loops, outer))
    return out


def _face_mesh(graph: InstanceGraph, shells: list[EntityInstance]) -> TriMesh:
    """One mesh of the faces of ``shells``, all of them read and counted
    against the budget before any is triangulated."""
    faces = [face for shell in shells for face in _shell_faces(graph, shell)]
    # ear clipping makes n - 2 triangles of a ring of n points, and each
    # inner bound's bridge adds two points to the ring. A face whose count
    # would be negative (no bound, or one of fewer than 2 points) cannot be
    # triangulated: it counts 0, so that it cannot offset the other faces
    _within_budget(
        sum(max(0, sum(map(len, loops)) + 2 * len(loops) - 4) for _, loops, _ in faces)
    )
    vertices: list[np.ndarray] = []
    tris: list[np.ndarray] = []
    base = 0  # index of the face's first vertex
    for face, loops, outer in faces:
        try:
            face_tris = triangulate_face(loops, outer)
        except ValueError as exc:
            raise UnsupportedShape(f"face #{face.id}: {exc}") from None
        tris.append(face_tris + base)
        vertices.extend(loops)
        base += sum(map(len, loops))
    return TriMesh(np.vstack(vertices), np.vstack(tris))


def _eval_faces(
    graph: InstanceGraph, root: EntityInstance, segments: int, kind: str
) -> EvaluationOutcome:
    is_surface = root.type_name != "IFCFACETEDBREP"
    if is_surface:
        refs = root.attr(SURFACE_MODEL.SbsmBoundary)
        if not isinstance(refs, ListValue) or not refs.items:
            raise UnsupportedShape("surface model without shells")
        shells = [_expect(graph, r, "shell", "IFCCLOSEDSHELL", "IFCOPENSHELL") for r in refs.items]
    else:
        shells = [_expect(graph, root.attr(BREP.Outer), "shell", "IFCCLOSEDSHELL")]
    return EvaluationOutcome(kind, _face_mesh(graph, shells), is_surface_model=is_surface)


# --- axis-aligned boolean results ---------------------------------------------


#: Boolean operands read as boxes: IFC type -> the name errors give it.
_BOX_OPERANDS = {"IFCFACETEDBREP": "brep", "IFCEXTRUDEDAREASOLID": "extrusion"}


def _box_of_operand(graph: InstanceGraph, inst: EntityInstance) -> tuple[np.ndarray, np.ndarray]:
    operand, mesh = _BOX_OPERANDS[inst.type_name], _evaluate_root(graph, inst, segments=4).mesh
    if mesh is None:
        raise UnsupportedShape("degenerate extrusion operand")
    lo, hi = mesh.bbox
    if abs(mesh.volume - float(np.prod(hi - lo))) > 1e-9 * max(1.0, mesh.volume):
        raise UnsupportedShape(f"{operand} operand is not an axis-aligned box")
    return lo, hi


def _half_space_region(
    graph: InstanceGraph, inst: EntityInstance
) -> tuple[int, float, bool]:
    """(axis index, bound, material_below) of an axis-aligned half space."""
    plane = _expect(graph, inst.attr(HALF_SPACE.BaseSurface), "half space surface", "IFCPLANE")
    m = axis2_matrix(graph, plane.attr(PLANE.Position))
    normal = m[:3, 2]
    location = m[:3, 3]
    axis = int(np.argmax(np.abs(normal)))
    if abs(abs(normal[axis]) - 1.0) > 1e-9:
        raise UnsupportedShape("half space plane is not axis-aligned")
    agreement = inst.attr(HALF_SPACE.AgreementFlag)
    flag = isinstance(agreement, EnumToken) and agreement.name == "T"
    # agreement TRUE: the normal points away from the material
    material_below = flag == (normal[axis] > 0)
    return axis, float(location[axis]), material_below


def _boxes_to_outcome(
    boxes: list[tuple[np.ndarray, np.ndarray]], shape_class: str
) -> EvaluationOutcome:
    boxes = [(lo, hi) for lo, hi in boxes if (np.asarray(hi) > np.asarray(lo)).all()]
    if not boxes:
        return _not_displayed(shape_class, "boolean result is empty")
    meshes = []
    for (x0, y0, z0), (x1, y1, z1) in boxes:
        # a rectangle extruded by the box's height, with its two rings set at
        # z0 and z1 themselves: lifting by z0 can miss z1 by an ulp
        prism = extrude_polygon([(x0, y0), (x1, y0), (x1, y1), (x0, y1)], (0.0, 0.0, z1 - z0))
        z = np.where(prism.vertices[:, 2] > 0, z1, z0)
        meshes.append(TriMesh(np.column_stack([prism.vertices[:, :2], z]), prism.triangles))
    return EvaluationOutcome(shape_class, TriMesh.concat(meshes))


def _eval_boolean(
    graph: InstanceGraph, root: EntityInstance, segments: int, shape_class: str
) -> EvaluationOutcome:
    operator = root.attr(BOOLEAN.Operator)
    # any other value is named as written, "$" when unset
    op = operator.name if isinstance(operator, EnumToken) else spf.format_value(operator)

    box = ("unsupported boolean operand", *_BOX_OPERANDS)
    first = _expect(graph, root.attr(BOOLEAN.FirstOperand), *box)
    second = _expect(graph, root.attr(BOOLEAN.SecondOperand), *box, "IFCHALFSPACESOLID")
    first_box = _box_of_operand(graph, first)

    if second.type_name == "IFCHALFSPACESOLID":
        axis, bound, material_below = _half_space_region(graph, second)
        if op != "DIFFERENCE":
            raise UnsupportedShape(f"half-space operand with operator {op}")
        lo, hi = first_box[0].copy(), first_box[1].copy()
        if material_below:
            lo[axis] = max(lo[axis], bound)  # removing z <= bound keeps the top
        else:
            hi[axis] = min(hi[axis], bound)
        return _boxes_to_outcome([(lo, hi)], shape_class)

    (alo, ahi), (blo, bhi) = first_box, _box_of_operand(graph, second)
    diffs = [
        k
        for k in range(3)
        if abs(alo[k] - blo[k]) > 1e-12 or abs(ahi[k] - bhi[k]) > 1e-12
    ]
    if len(diffs) > 1:
        raise UnsupportedShape(
            "cube operands must be offset along a single axis"
        )
    k = diffs[0] if diffs else 0  # identical operands differ along no axis
    a0, a1, b0, b1 = alo[k], ahi[k], blo[k], bhi[k]
    boxes: list[tuple[np.ndarray, np.ndarray]] = []

    def interval_boxes(intervals: list[tuple[float, float]]):
        for lo_k, hi_k in intervals:
            if hi_k - lo_k <= 1e-12:
                continue
            lo, hi = alo.copy(), ahi.copy()
            lo[k], hi[k] = lo_k, hi_k
            boxes.append((lo, hi))

    if op == "DIFFERENCE":
        intervals = []
        if b0 > a0:
            intervals.append((a0, min(b0, a1)))
        if b1 < a1:
            intervals.append((max(b1, a0), a1))
        interval_boxes(intervals)
    elif op == "INTERSECTION":
        interval_boxes([(max(a0, b0), min(a1, b1))])
    elif op == "UNION":
        if max(a0, b0) > min(a1, b1):
            interval_boxes([(a0, a1), (b0, b1)])  # disjoint
        else:
            interval_boxes([(min(a0, b0), max(a1, b1))])
    else:
        raise UnsupportedShape(f"unsupported boolean operator {op}")
    return _boxes_to_outcome(boxes, shape_class)


#: Supported geometry roots: IFC type -> (evaluator, shape-class label).
SHAPES = {
    kind.root_type: (evaluator, kind.value)
    for kind, evaluator in (
        (ShapeKind.BOOLEAN_RESULT, _eval_boolean),
        (ShapeKind.BOOLEAN_CLIPPING_RESULT, _eval_boolean),
        (ShapeKind.SHELL_BASED_SURFACE_MODEL, _eval_faces),
        (ShapeKind.FACETED_BREP, _eval_faces),
        (ShapeKind.EXTRUDED_AREA_SOLID, _eval_extrusion),
        (ShapeKind.REVOLVED_AREA_SOLID, _eval_revolution),
        (ShapeKind.SWEPT_DISK_SOLID, _eval_swept_disk),
    )
}


# --- validity/import/export tuple --------------------------------------------


class Observation(enum.Enum):
    YES = "Y"
    NO = "N"
    UNKNOWN = "Unknown"


class TupleFlag(enum.Enum):
    NEVER_EXPORTED = "NeverExported"
    LOOSEN_CANDIDATE = "LoosenCandidate"
    PRACTITIONER_PROBLEM = "PractitionerProblem"


@dataclass(frozen=True)
class TupleClassification:
    exported: Observation
    imported: Observation
    valid: Observation
    flags: frozenset[TupleFlag]

    def as_tuple(self) -> tuple[str, str, str]:
        return (self.exported.value, self.imported.value, self.valid.value)


def classify_tuple(
    valid: bool,
    displayed: bool,
    exported: bool | None = None,
) -> TupleClassification:
    """Place one shape in the exported/imported/valid cube and attach the
    three flag states of interest."""
    exported_obs = (
        Observation.UNKNOWN
        if exported is None
        else (Observation.YES if exported else Observation.NO)
    )
    imported_obs = Observation.YES if displayed else Observation.NO
    valid_obs = Observation.YES if valid else Observation.NO
    flags: set[TupleFlag] = set()
    if exported_obs is Observation.NO:
        flags.add(TupleFlag.NEVER_EXPORTED)
    if exported_obs is Observation.YES and displayed and not valid:
        flags.add(TupleFlag.LOOSEN_CANDIDATE)
    if exported_obs is Observation.YES and not displayed:
        flags.add(TupleFlag.PRACTITIONER_PROBLEM)
    return TupleClassification(exported_obs, imported_obs, valid_obs, frozenset(flags))
