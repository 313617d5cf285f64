"""Shape evaluation: from IFC definitions to triangle meshes and the
benchmark template's follow-up answers (displayed, Z=0 relation, shape)."""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

from .._lazy import lazy
from ..errors import MalformedFile, UnsupportedShape
from ..geomgen.suite import ShapeKind
from ..spf.model import (
    AttributeValue,
    EntityInstance,
    EnumToken,
    InstanceGraph,
    ListValue,
    Reference,
)
from ..spf.values import number, numbers, text, walk
from .mesh import TriMesh, cross3
from .tessellate import (
    box_mesh,
    crane_rail_polygon,
    ellipse_polygon,
    extrude_polygon,
    ishape_polygon,
    rectangle_polygon,
    revolve_polygon,
    triangulate_face,
    tube_mesh,
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

#: Supported profiles: IFC type -> (shape-class label, outline builder, the
#: attribute indices of the builder's dimensions in its parameter order,
#: curved). A curved builder also takes the segment count.
_PROFILES = {
    "IFCRECTANGLEPROFILEDEF": ("Rectangle", rectangle_polygon, (3, 4), False),
    "IFCELLIPSEPROFILEDEF": ("Ellipse", ellipse_polygon, (3, 4), True),
    "IFCISHAPEPROFILEDEF": ("IShape", ishape_polygon, (3, 4, 5, 6, 7), True),
    "IFCCRANERAILASHAPEPROFILEDEF": (
        "CraneRailAShape", crane_rail_polygon, (3, 4, 6, 7, 8, 9, 10, 11, 12, 13), False
    ),
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


def _point(graph: InstanceGraph, ref: AttributeValue, dim: int = 3) -> np.ndarray:
    coords = numbers(graph.deref(ref).attr(0)) or []
    coords = coords + [0.0] * (dim - len(coords))
    return np.array(coords[:dim])


def _direction(
    graph: InstanceGraph, ref: AttributeValue, default: tuple[float, ...]
) -> np.ndarray:
    if not isinstance(ref, Reference):
        return np.array(default, dtype=np.float64)
    ratios = numbers(graph.deref(ref).attr(0)) or list(default)
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
    m = np.eye(4)
    if not isinstance(ref, Reference):
        return m
    inst = graph.deref(ref)
    if inst.type_name != "IFCAXIS2PLACEMENT3D":
        raise UnsupportedShape(f"unsupported placement {inst.type_name}")
    location = _point(graph, inst.attr(0)) if isinstance(inst.attr(0), Reference) else np.zeros(3)
    z = _unit(inst.attr(1), _direction(graph, inst.attr(1), (0.0, 0.0, 1.0)))
    x_hint = _direction(graph, inst.attr(2), (1.0, 0.0, 0.0))
    x = x_hint - (x_hint @ z) * z
    norm = np.linalg.norm(x)
    if norm < 1e-12:
        x = np.array([1.0, 0.0, 0.0]) if abs(z[0]) < 0.9 else np.array([0.0, 1.0, 0.0])
        x = x - (x @ z) * z
        norm = np.linalg.norm(x)
    x = x / norm
    y = cross3(z, x)
    m[:3, 0], m[:3, 1], m[:3, 2], m[:3, 3] = x, y, z, location
    return m


def placement_matrix(graph: InstanceGraph, ref: AttributeValue) -> np.ndarray:
    """Composed matrix of an IfcLocalPlacement chain."""
    chain: list[np.ndarray] = []
    seen: set[int] = set()
    while isinstance(ref, Reference):
        if ref.id in seen:
            raise UnsupportedShape(f"placement #{ref.id} is its own ancestor")
        seen.add(ref.id)
        inst = graph.deref(ref)
        if inst.type_name != "IFCLOCALPLACEMENT":
            raise UnsupportedShape(f"unsupported object placement {inst.type_name}")
        chain.append(axis2_matrix(graph, inst.attr(1)))
        ref = inst.attr(0)
    matrix = np.eye(4)
    for local in reversed(chain):  # outermost parent first
        matrix = matrix @ local
    return matrix


def _profile_polygon(
    graph: InstanceGraph, ref: AttributeValue, segments: int
) -> tuple[np.ndarray, str, bool]:
    """Outline of a profile, its shape-class label and whether it is curved."""
    profile = graph.deref(ref)
    if profile.type_name not in _PROFILES:
        raise UnsupportedShape(f"unsupported profile {profile.type_name}")
    label, outline, indices, curved = _PROFILES[profile.type_name]
    dimensions = [number(profile.attr(i)) or 0.0 for i in indices]
    poly = outline(*dimensions, segments) if curved else outline(*dimensions)
    # apply the 2D profile position (offset plus optional rotation)
    position = profile.attr(2)
    if isinstance(position, Reference):
        a2d = graph.deref(position)
        offset = (
            _point(graph, a2d.attr(0), dim=2)
            if isinstance(a2d.attr(0), Reference)
            else np.zeros(2)
        )
        ref_dir = _unit(a2d.attr(1), _direction(graph, a2d.attr(1), (1.0, 0.0)))
        rot = np.array([[ref_dir[0], -ref_dir[1]], [ref_dir[1], ref_dir[0]]])
        poly = np.einsum("ij,kj->ik", poly, rot) + offset
    return poly, label, curved


# --- item collection ---------------------------------------------------------


def context_precision(graph: InstanceGraph) -> float | None:
    """Point-equality tolerance declared in the geometric representation
    context, if any."""
    for context in graph.by_type("IFCGEOMETRICREPRESENTATIONCONTEXT"):
        value = number(context.attr(3))
        if value is not None and 0 < value < math.inf:
            return value
    return None


def suite_proxies(graph: InstanceGraph) -> list[EntityInstance]:
    """Suite proxies ordered by their slot label (stored in Description);
    proxies whose record cannot be read come first, in file order."""

    def slot(proxy: EntityInstance) -> str:
        try:
            return text(proxy.attr(3)) or ""
        except MalformedFile:
            return ""

    return sorted(graph.by_type("IFCBUILDINGELEMENTPROXY"), key=slot)


def shape_roots(graph: InstanceGraph, proxy: EntityInstance) -> list[EntityInstance]:
    """Items of every shape representation under a proxy's product
    definition shape."""
    rep_ref = proxy.attr(6)
    if not isinstance(rep_ref, Reference):
        return []
    pds = graph.deref(rep_ref)
    roots = []
    reps = pds.attr(2)
    if isinstance(reps, ListValue):
        for rep in reps.items:
            if not isinstance(rep, Reference):
                continue
            shape = graph.deref(rep)
            items = shape.attr(3)
            if isinstance(items, ListValue):
                roots.extend(graph.resolve(r.id) for r in items.items if isinstance(r, Reference))
    return roots


def item_fragment(graph: InstanceGraph, proxy: EntityInstance) -> list[EntityInstance]:
    """Closure of geometry instances under a proxy's shape representation,
    excluding the shared representation context."""
    seen: set[int] = set()
    out: list[EntityInstance] = []
    stack = shape_roots(graph, proxy)
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
    proxy: EntityInstance,
    segments: int = DEFAULT_SEGMENTS,
    precision: float = 1e-5,
) -> EvaluationOutcome:
    """Evaluate one suite item to a mesh in world coordinates."""
    roots = shape_roots(graph, proxy)
    if not roots:
        raise UnsupportedShape(f"proxy #{proxy.id} has no shape representation items")
    root = roots[0]
    world = placement_matrix(graph, proxy.attr(5))
    outcome = _evaluate_root(graph, root, segments)
    if outcome.mesh is not None:
        mesh = outcome.mesh.transformed(world).welded(precision)
        outcome.mesh = mesh
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
    polygon, label, curved = _profile_polygon(graph, root.attr(0), segments)
    shape_class = f"{kind}/{label}"
    warnings: list[str] = []
    direction = _direction(graph, root.attr(2), (0.0, 0.0, 1.0))
    depth = number(root.attr(3)) or 0.0
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
    mesh = mesh.transformed(axis2_matrix(graph, root.attr(1)))
    smooth = curved and segments >= SMOOTH_SEGMENT_THRESHOLD
    return EvaluationOutcome(shape_class, mesh, smooth_curves=smooth, warnings=warnings)


def _eval_revolution(
    graph: InstanceGraph, root: EntityInstance, segments: int, kind: str
) -> EvaluationOutcome:
    polygon, label, _ = _profile_polygon(graph, root.attr(0), segments)
    shape_class = f"{kind}/{label}"
    axis = graph.deref(root.attr(2))
    if axis.type_name != "IFCAXIS1PLACEMENT":
        raise UnsupportedShape(f"revolution axis {axis.type_name}")
    axis_point = (
        _point(graph, axis.attr(0)) if isinstance(axis.attr(0), Reference) else np.zeros(3)
    )
    axis_dir = _direction(graph, axis.attr(1), (0.0, 0.0, 1.0))
    if abs(axis_dir[2]) > 1e-9 or abs(axis_point[2]) > 1e-9:
        raise UnsupportedShape("revolution axis must lie in the profile plane")
    angle = number(root.attr(3)) or 0.0
    if abs(angle - 2.0 * math.pi) > 1e-6:
        raise UnsupportedShape("only full-sweep revolutions are supported")
    _within_budget(2 * segments * len(polygon))  # two per side, per step
    mesh = revolve_polygon(polygon, axis_point, _unit(axis.attr(1), axis_dir), segments)
    mesh = mesh.transformed(axis2_matrix(graph, root.attr(1)))
    return EvaluationOutcome(
        shape_class, mesh, smooth_curves=segments >= SMOOTH_SEGMENT_THRESHOLD
    )


def _eval_swept_disk(
    graph: InstanceGraph, root: EntityInstance, segments: int, kind: str
) -> EvaluationOutcome:
    shape_class = f"{kind}/Disk"
    warnings: list[str] = []
    directrix = graph.deref(root.attr(0))
    if directrix.type_name != "IFCPOLYLINE":
        raise UnsupportedShape(f"directrix {directrix.type_name}")
    point_refs = directrix.attr(0)
    if not isinstance(point_refs, ListValue) or len(point_refs.items) != 2:
        raise UnsupportedShape("only straight two-point directrices are supported")
    p0 = _point(graph, point_refs.items[0])
    p1 = _point(graph, point_refs.items[1])
    if not (p1 - p0).any():
        return _not_displayed(shape_class, "zero-length directrix; nothing to evaluate")
    radius = number(root.attr(1)) or 0.0
    start = number(root.attr(3))
    end = number(root.attr(4))
    low, high = directrix_range(graph, root.attr(0))
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
    b = p0 + (p1 - p0) * end
    _within_budget(4 * segments)  # two per side, one per cap
    mesh = tube_mesh(a, b, radius, segments)
    smooth = segments >= SMOOTH_SEGMENT_THRESHOLD
    return EvaluationOutcome(shape_class, mesh, smooth_curves=smooth, warnings=warnings)


def directrix_range(
    graph: InstanceGraph, ref: AttributeValue
) -> tuple[float, float] | None:
    """Parameter range of a polyline directrix: 0 to its segment count."""
    if not isinstance(ref, Reference):
        return None
    curve = graph.resolve(ref.id)
    if curve.type_name != "IFCPOLYLINE":
        return None
    points = curve.attr(0)
    if not isinstance(points, ListValue):
        return None
    return 0.0, float(len(points.items) - 1)


def _face_mesh(graph: InstanceGraph, shell: EntityInstance) -> TriMesh:
    vertices: list[np.ndarray] = []
    tris: list[np.ndarray] = []
    base = 0  # index of the face's first vertex
    faces = shell.attr(0)
    if not isinstance(faces, ListValue):
        raise UnsupportedShape("shell without face list")
    for face_ref in faces.items:
        face = graph.deref(face_ref)
        bounds = face.attr(0)
        loops: list[np.ndarray] = []
        outer = None
        for bound_ref in bounds.items if isinstance(bounds, ListValue) else ():
            bound = graph.deref(bound_ref)
            loop = graph.deref(bound.attr(0))
            if loop.type_name != "IFCPOLYLOOP":
                raise UnsupportedShape(f"face bound loop {loop.type_name}")
            pts = loop.attr(0)
            coords = [_point(graph, p) for p in pts.items] if isinstance(pts, ListValue) else []
            orientation = bound.attr(1)
            if isinstance(orientation, EnumToken) and orientation.name == "F":
                coords = coords[::-1]
            if outer is None and bound.type_name == "IFCFACEOUTERBOUND":
                outer = len(loops)
            loops.append(np.array(coords).reshape(-1, 3))
        try:
            face_tris = triangulate_face(loops, outer)
        except ValueError as exc:
            raise UnsupportedShape(f"face #{face.id}: {exc}") from None
        tris.append(face_tris + base)
        vertices.extend(loops)
        base += sum(map(len, loops))
    if not tris:
        raise UnsupportedShape(f"shell #{shell.id} has no triangles")
    return TriMesh(np.vstack(vertices), np.vstack(tris))


def _eval_faces(
    graph: InstanceGraph, root: EntityInstance, segments: int, kind: str
) -> EvaluationOutcome:
    is_surface = root.type_name != "IFCFACETEDBREP"
    if is_surface:
        refs = root.attr(0)
        if not isinstance(refs, ListValue):
            raise UnsupportedShape("surface model without shells")
        shells = [graph.deref(r) for r in refs.items]
    else:
        shells = [graph.deref(root.attr(0))]
    mesh = TriMesh.concat([_face_mesh(graph, s) for s in shells])
    return EvaluationOutcome(kind, mesh, is_surface_model=is_surface)


# --- axis-aligned boolean results ---------------------------------------------


def _box_of_operand(graph: InstanceGraph, ref: AttributeValue) -> tuple[np.ndarray, np.ndarray]:
    inst = graph.deref(ref)
    if inst.type_name == "IFCFACETEDBREP":
        operand, mesh = "brep", _face_mesh(graph, graph.deref(inst.attr(0)))
    elif inst.type_name == "IFCEXTRUDEDAREASOLID":
        operand, mesh = "extrusion", _evaluate_root(graph, inst, segments=4).mesh
        if mesh is None:
            raise UnsupportedShape("degenerate extrusion operand")
    else:
        raise UnsupportedShape(f"unsupported boolean operand {inst.type_name}")
    lo, hi = mesh.bbox
    if abs(mesh.volume - float(np.prod(hi - lo))) > 1e-9 * max(1.0, mesh.volume):
        raise UnsupportedShape(f"{operand} operand is not an axis-aligned box")
    return lo, hi


def _half_space_region(
    graph: InstanceGraph, ref: AttributeValue
) -> tuple[int, float, bool]:
    """(axis index, bound, material_below) of an axis-aligned half space."""
    inst = graph.deref(ref)
    if inst.type_name != "IFCHALFSPACESOLID":
        raise UnsupportedShape(f"unsupported second operand {inst.type_name}")
    plane = graph.deref(inst.attr(0))
    if plane.type_name != "IFCPLANE":
        raise UnsupportedShape(f"half space surface {plane.type_name}")
    m = axis2_matrix(graph, plane.attr(0))
    normal = m[:3, 2]
    location = m[:3, 3]
    axis = int(np.argmax(np.abs(normal)))
    if abs(abs(normal[axis]) - 1.0) > 1e-9:
        raise UnsupportedShape("half space plane is not axis-aligned")
    agreement = inst.attr(1)
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
    return EvaluationOutcome(shape_class, TriMesh.concat([box_mesh(lo, hi) for lo, hi in boxes]))


def _eval_boolean(
    graph: InstanceGraph, root: EntityInstance, segments: int, shape_class: str
) -> EvaluationOutcome:
    operator = root.attr(0)
    op = operator.name if isinstance(operator, EnumToken) else ""

    second_inst = graph.deref(root.attr(2))
    first_box = _box_of_operand(graph, root.attr(1))

    if second_inst.type_name == "IFCHALFSPACESOLID":
        axis, bound, material_below = _half_space_region(graph, root.attr(2))
        if op != "DIFFERENCE":
            raise UnsupportedShape(f"half-space operand with operator {op}")
        lo, hi = first_box[0].copy(), first_box[1].copy()
        if material_below:
            lo[axis] = max(lo[axis], bound)  # removing z <= bound keeps the top
        else:
            hi[axis] = min(hi[axis], bound)
        return _boxes_to_outcome([(lo, hi)], shape_class)

    second_box = _box_of_operand(graph, root.attr(2))
    (alo, ahi), (blo, bhi) = first_box, second_box
    diffs = [
        k
        for k in range(3)
        if abs(alo[k] - blo[k]) > 1e-12 or abs(ahi[k] - bhi[k]) > 1e-12
    ]
    if len(diffs) > 1:
        raise UnsupportedShape(
            "cube operands must be offset along a single axis"
        )
    if not diffs:
        # identical operands
        if op == "DIFFERENCE":
            return _boxes_to_outcome([], shape_class)
        return _boxes_to_outcome([(alo, ahi)], shape_class)
    k = diffs[0]
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
