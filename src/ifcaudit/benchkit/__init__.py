"""Benchmark answer aggregation and round-trip interoperability reporting.

The submodules load on first use (see ``ifcaudit._lazy``).
"""

from .._lazy import lazy_exports

#: public name -> the submodule that defines it
_EXPORTS = {
    "ANSWERS_SCHEMA_VERSION": "answers",
    "AnswerRecord": "answers",
    "Category": "answers",
    "FOLLOW_UP_QUESTIONS": "metrics",
    "InteropReport": "roundtrip",
    "SIZE_RATIO_BAND": "roundtrip",
    "SupportScore": "answers",
    "SynthesisMatrix": "metrics",
    "TimingBucket": "answers",
    "consistency": "metrics",
    "pairwise_equality": "metrics",
    "read_answers_csv": "answers",
    "read_answers_jsonl": "answers",
    "reduce_scores": "metrics",
    "report_as_json": "roundtrip",
    "roundtrip_report": "roundtrip",
    "synthesis_csv": "metrics",
    "synthesis_markdown": "metrics",
    "synthesis_matrix": "metrics",
    "visibility_ratio": "metrics",
    "write_answers_csv": "answers",
}
__all__ = list(_EXPORTS)
__getattr__ = lazy_exports(__name__, ("answers", "metrics", "roundtrip"), _EXPORTS)
