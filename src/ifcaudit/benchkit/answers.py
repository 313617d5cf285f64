"""Benchmark answer records and their CSV / JSON-lines ingestion."""

from __future__ import annotations

import csv
import enum
import io
import json
from dataclasses import dataclass

ANSWERS_SCHEMA_VERSION = 1


class SupportScore(enum.Enum):
    FULL = 1.0
    PARTIAL = 0.5
    NONE = 0.0
    NOT_APPLICABLE = "n/a"

    @classmethod
    def from_value(cls, raw: str) -> "SupportScore":
        normalized = raw.strip().lower()
        aliases = {
            "1": cls.FULL, "1.0": cls.FULL, "full": cls.FULL,
            "0.5": cls.PARTIAL, "partial": cls.PARTIAL,
            "0": cls.NONE, "0.0": cls.NONE, "none": cls.NONE, "no": cls.NONE,
            "n/a": cls.NOT_APPLICABLE, "na": cls.NOT_APPLICABLE,
        }
        if normalized in aliases:
            return aliases[normalized]
        raise ValueError(f"not a support score: {raw!r}")


class TimingBucket(enum.Enum):
    IMMEDIATE = "immediate"
    UNDER_MINUTE = "under_minute"
    ONE_TO_FIVE = "1_to_5_min"
    FIVE_TO_TWENTY = "5_to_20_min"
    TWENTY_TO_HOUR = "20_min_to_1_hour"
    OVER_HOUR = "over_1_hour"
    CRASHED = "crashed"
    NOT_POSSIBLE = "not_possible"
    NO_RESULT = "no_result"

    @property
    def successful(self) -> bool:
        return self not in (
            TimingBucket.CRASHED, TimingBucket.NOT_POSSIBLE, TimingBucket.NO_RESULT
        )


#: Buckets in increasing-duration order for distribution reports.
TIMING_ORDER = [
    TimingBucket.IMMEDIATE,
    TimingBucket.UNDER_MINUTE,
    TimingBucket.ONE_TO_FIVE,
    TimingBucket.FIVE_TO_TWENTY,
    TimingBucket.TWENTY_TO_HOUR,
    TimingBucket.OVER_HOUR,
]


class Category(enum.Enum):
    GEOREFERENCING = "Georeferencing"
    SEMANTICS = "Semantics"
    GEOMETRY = "Geometry"
    VISUALIZATION = "Visualization"
    EDITING = "Editing"
    QUERY = "Query"
    ANALYSIS_TYPE_1 = "AnalysisType1"
    ANALYSIS_TYPE_2 = "AnalysisType2"
    EXPORT = "Export"
    TIMING = "Timing"
    GEOMETRY_ITEM = "GeometryItem"


@dataclass(frozen=True)
class AnswerRecord:
    software: str
    version: str
    tester_expertise: int
    dataset: str
    question_id: str
    category: Category
    value: str | SupportScore | TimingBucket
    item_slot: str | None = None

    def __post_init__(self):
        if not 1 <= self.tester_expertise <= 4:
            raise ValueError(f"expertise must be 1..4, got {self.tester_expertise}")
        if self.category is Category.GEOMETRY_ITEM and not self.item_slot:
            raise ValueError("geometry item answers need an item slot")

    @property
    def respondent(self) -> tuple[str, str, int]:
        return (self.software, self.version, self.tester_expertise)


_CSV_COLUMNS = [
    "software", "version", "expertise", "dataset", "category", "question",
    "value", "slot",
]


def _parse_value(category: Category, raw: str):
    if category is Category.TIMING:
        return TimingBucket(raw.strip().lower())
    if category is Category.GEOMETRY_ITEM:
        return raw
    try:
        return SupportScore.from_value(raw)
    except ValueError:
        return raw


_REQUIRED = ("software", "category", "question", "value")
#: Fields read as text; JSON lines may hold any value in them.
_TEXT = ("software", "version", "dataset", "question", "value", "slot")


def _record_from_mapping(row: dict[str, str]) -> AnswerRecord:
    if not isinstance(row, dict):
        raise ValueError(f"not an object: {row!r}")
    for name in _REQUIRED:
        if row.get(name) is None:  # absent, null, or a short CSV row
            raise ValueError(f"missing field {name!r}")
    for name in _TEXT:
        if row.get(name) is not None and not isinstance(row[name], str):
            raise ValueError(f"field {name!r} is not text: {row[name]!r}")
    category = Category(row["category"])
    return AnswerRecord(
        software=row["software"],
        version=row.get("version", ""),
        tester_expertise=int(row.get("expertise", 1)),
        dataset=row.get("dataset", ""),
        question_id=row["question"],
        category=category,
        value=_parse_value(category, row["value"]),
        item_slot=row.get("slot") or None,
    )


def read_answers_csv(text: str) -> list[AnswerRecord]:
    """Read records from CSV with a '#answers-schema: N' header row; a row
    that is not a record is a ValueError naming its line."""
    lines = text.splitlines()
    if not lines:
        return []
    start = 0
    if lines[0].startswith("#"):
        if f"answers-schema: {ANSWERS_SCHEMA_VERSION}" not in lines[0]:
            raise ValueError(f"unsupported answers schema header: {lines[0]!r}")
        start = 1
    reader = csv.DictReader(io.StringIO("\n".join(lines[start:])))
    records = []
    try:
        for row in reader:
            records.append(_record_from_mapping(row))
    except (csv.Error, TypeError, ValueError) as exc:
        raise ValueError(f"line {start + reader.line_num}: {exc}") from None
    return records


def read_answers_jsonl(text: str) -> list[AnswerRecord]:
    """Read records from JSON lines; a first object with 'answers_schema'
    declares the version. A line that is not a record is a ValueError naming
    it."""
    records = []
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
            if isinstance(obj, dict) and "answers_schema" in obj:
                if obj["answers_schema"] != ANSWERS_SCHEMA_VERSION:
                    raise ValueError(f"unsupported answers schema {obj['answers_schema']}")
                continue
            records.append(_record_from_mapping(obj))
        except json.JSONDecodeError as exc:
            raise ValueError(f"line {lineno}: not JSON ({exc.msg})") from None
        except (TypeError, ValueError) as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
    return records


def write_answers_csv(records: list[AnswerRecord]) -> str:
    out = io.StringIO()
    out.write(f"#answers-schema: {ANSWERS_SCHEMA_VERSION}\n")
    writer = csv.writer(out)
    writer.writerow(_CSV_COLUMNS)
    for r in records:
        if isinstance(r.value, SupportScore):
            value = "n/a" if r.value is SupportScore.NOT_APPLICABLE else str(r.value.value)
        elif isinstance(r.value, TimingBucket):
            value = r.value.value
        else:
            value = str(r.value)
        writer.writerow(
            [
                r.software, r.version, r.tester_expertise, r.dataset,
                r.category.value, r.question_id, value, r.item_slot or "",
            ]
        )
    return out.getvalue()
