"""Schema-rule validity checks for the suite's shape recipes.

Three rule families are implemented: positive length measures (depth and
friends must be strictly positive), the extrusion-direction rule (the
direction must not lie in the profile plane) and the swept-disk parameter
range. A positive depth below the context precision is flagged as a warning,
not a violation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import NotAReference, NotFound, UnsupportedShape, WrongType
from ..geomgen.suite import InvalidReason
from ..spf.model import EntityInstance, InstanceGraph, TypedValue
from ..spf.values import follow, number, numbers, walk
from .evaluate import DIRECTION, DIRECTION_DOT_TOLERANCE, DISK, EXTRUSION, SHAPES, directrix_range


@dataclass
class ValidityVerdict:
    valid: bool
    reasons: frozenset[InvalidReason]
    warnings: frozenset[InvalidReason] = frozenset()
    details: list[str] = field(default_factory=list)

    @property
    def status(self) -> str:
        return "Valid" if self.valid else "Invalid"


def check_validity(
    graph: InstanceGraph,
    instances: list[EntityInstance],
    precision: float,
) -> ValidityVerdict:
    """Apply the supported rules over one item's instance fragment."""
    roots = [i for i in instances if i.type_name in SHAPES]
    if not roots:
        present = sorted({i.type_name for i in instances})
        raise UnsupportedShape(f"no supported geometry root among {present}")

    reasons: set[InvalidReason] = set()
    warnings: set[InvalidReason] = set()
    details: list[str] = []

    for inst in instances:
        for attr in inst.attributes:
            for value in walk(attr):
                if (
                    isinstance(value, TypedValue)
                    and value.name == "IFCPOSITIVELENGTHMEASURE"
                ):
                    magnitude = number(value.value)
                    if magnitude is None:
                        continue
                    if magnitude <= 0.0:
                        reasons.add(InvalidReason.POSITIVE_LENGTH)
                        details.append(
                            f"#{inst.id} {inst.type_name}: positive length measure "
                            f"is {magnitude}"
                        )
                    elif magnitude < precision:
                        warnings.add(InvalidReason.BELOW_PRECISION)
                        details.append(
                            f"#{inst.id} {inst.type_name}: length {magnitude} below "
                            f"precision {precision}"
                        )

    for inst in instances:
        if inst.type_name == "IFCEXTRUDEDAREASOLID":
            try:
                record = follow(graph, inst.attr(EXTRUSION.ExtrudedDirection), "IFCDIRECTION")
                direction = numbers(record.attr(DIRECTION.DirectionRatios)) or []
            except (NotAReference, NotFound, WrongType):
                direction = []
            if len(direction) < 3:
                details.append(f"#{inst.id}: extrusion direction unreadable")
                continue
            # the profile lies in the XY plane of the solid's position, so the
            # plane normal there is (0,0,1) and the rule reduces to the z ratio
            if abs(direction[2]) <= DIRECTION_DOT_TOLERANCE:
                reasons.add(InvalidReason.VALID_EXTRUSION_DIRECTION)
                details.append(
                    f"#{inst.id}: extrusion direction {tuple(direction)} parallel to profile"
                )

    for inst in instances:
        if inst.type_name == "IFCSWEPTDISKSOLID":
            start = number(inst.attr(DISK.StartParam))
            end = number(inst.attr(DISK.EndParam))
            param_range = directrix_range(graph, inst.attr(DISK.Directrix))
            if param_range is None or start is None or end is None:
                continue
            low, high = param_range
            if start < low - 1e-12 or end > high + 1e-12 or end <= start:
                reasons.add(InvalidReason.PARAM_RANGE)
                details.append(
                    f"#{inst.id}: sweep parameters [{start}, {end}] outside "
                    f"directrix range [{low}, {high}]"
                )

    return ValidityVerdict(
        valid=not reasons,
        reasons=frozenset(reasons),
        warnings=frozenset(warnings),
        details=details,
    )
