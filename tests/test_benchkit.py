import itertools
import random

import pytest

from ifcaudit.benchkit import (
    AnswerRecord,
    Category,
    SupportScore,
    TimingBucket,
    consistency,
    pairwise_equality,
    read_answers_csv,
    read_answers_jsonl,
    reduce_scores,
    report_as_json,
    roundtrip_report,
    synthesis_csv,
    synthesis_markdown,
    synthesis_matrix,
    visibility_ratio,
    write_answers_csv,
)
from ifcaudit.census import census
from ifcaudit.errors import NoAnswers, TooFewRespondents
from ifcaudit.georef import detect_georef
from ifcaudit.spf import parse_spf, write_spf
from oracles import brute_force_pair_equality
from tests_helpers import record_lines, with_record_lines


def geometry_answer(software, slot, question, value, version="1", expertise=1):
    return AnswerRecord(
        software=software,
        version=version,
        tester_expertise=expertise,
        dataset="geometries",
        question_id=question,
        category=Category.GEOMETRY_ITEM,
        value=value,
        item_slot=slot,
    )


def respondent_answers(software, slot, displayed, position="above", shading="smooth",
                       shape="box"):
    records = [geometry_answer(software, slot, "displayed", "yes" if displayed else "no")]
    if displayed:
        records += [
            geometry_answer(software, slot, "position", position),
            geometry_answer(software, slot, "shading", shading),
            geometry_answer(software, slot, "shape", shape),
        ]
    return records


# --- pairwise equality and consistency -----------------------------------------


def test_pairwise_equality_endpoints():
    assert pairwise_equality(["a", "a", "a"]) == 1.0
    assert pairwise_equality(["a", "b", "c"]) == 0.0


def test_pairwise_equality_partial():
    assert pairwise_equality(["a", "a", "b"]) == pytest.approx(1 / 3)


def test_pairwise_equality_matches_brute_force_exhaustively():
    # all multisets of size <= 6 over a 3-symbol alphabet
    for n in range(2, 7):
        for values in itertools.product("abc", repeat=n):
            assert pairwise_equality(values) == pytest.approx(
                brute_force_pair_equality(values)
            )


def test_pairwise_equality_needs_two():
    with pytest.raises(TooFewRespondents):
        pairwise_equality(["a"])


def test_consistency_all_equal_is_one():
    answers = []
    for software in ("S1", "S2", "S3"):
        answers += respondent_answers(software, "B2", True)
    assert consistency(answers, "B2") == 1.0


def test_consistency_all_distinct_is_zero():
    answers = []
    for i, software in enumerate(("S1", "S2", "S3")):
        answers += respondent_answers(
            software, "B2", True,
            position=f"p{i}", shading=f"h{i}", shape=f"s{i}",
        )
    assert consistency(answers, "B2") == 0.0


def test_consistency_single_question_third():
    answers = []
    for software, shape in (("S1", "a"), ("S2", "a"), ("S3", "b")):
        answers += respondent_answers(software, "B2", True, shape=shape)
    # two questions fully agree, one scores 1/3
    assert consistency(answers, "B2") == pytest.approx((1.0 + 1.0 + 1 / 3) / 3)


def test_consistency_excludes_not_displayed():
    answers = []
    answers += respondent_answers("S1", "B2", True, shape="a")
    answers += respondent_answers("S2", "B2", True, shape="a")
    answers += respondent_answers("S3", "B2", False)  # excluded
    assert consistency(answers, "B2") == 1.0


def test_consistency_permutation_invariant():
    answers = []
    for software, shape in (("S1", "a"), ("S2", "b"), ("S3", "a"), ("S4", "b")):
        answers += respondent_answers(software, "B2", True, shape=shape)
    rng = random.Random(7)
    baseline = consistency(answers, "B2")
    for _ in range(5):
        shuffled = answers[:]
        rng.shuffle(shuffled)
        assert consistency(shuffled, "B2") == pytest.approx(baseline)


def test_consistency_too_few():
    answers = respondent_answers("S1", "B2", True)
    with pytest.raises(TooFewRespondents):
        consistency(answers, "B2")


# --- visibility -----------------------------------------------------------------


def test_visibility_ratio():
    answers = []
    for i in range(4):
        answers += respondent_answers(f"S{i}", "A1", True)
    answers += respondent_answers("S4", "A1", False)
    assert visibility_ratio(answers, "A1") == pytest.approx(0.8)


def test_visibility_all_displayed():
    answers = []
    for i in range(3):
        answers += respondent_answers(f"S{i}", "A1", True)
    assert visibility_ratio(answers, "A1") == 1.0


def test_visibility_never_decreases_when_adding_displayed():
    answers = []
    answers += respondent_answers("S0", "A1", False)
    previous = visibility_ratio(answers, "A1")
    for i in range(1, 6):
        answers += respondent_answers(f"S{i}", "A1", True)
        current = visibility_ratio(answers, "A1")
        assert current >= previous
        previous = current


def test_visibility_tally_over_slots():
    rng = random.Random(11)
    answers = []
    tally = {}
    for slot in [f"{r}{c}" for r in "ABCDEF" for c in range(1, 6)]:
        seen = 0
        n = rng.randint(1, 5)
        for i in range(n):
            displayed = rng.random() < 0.7
            seen += displayed
            answers += respondent_answers(f"S{i}", slot, displayed)
        tally[slot] = seen / n
    for slot, expected in tally.items():
        assert visibility_ratio(answers, slot) == pytest.approx(expected)


def test_visibility_no_answers():
    with pytest.raises(NoAnswers):
        visibility_ratio([], "A1")


# --- synthesis matrix -------------------------------------------------------------


def score_record(software, category, score, dataset="house"):
    return AnswerRecord(
        software=software,
        version="1",
        tester_expertise=2,
        dataset=dataset,
        question_id=category.value.lower(),
        category=category,
        value=score,
    )


def test_single_record_cell():
    matrix = synthesis_matrix(
        [score_record("X", Category.GEOREFERENCING, SupportScore.FULL)]
    )
    cell = matrix.cells[("X", "Georeferencing")]
    assert cell.score is SupportScore.FULL and not cell.conflict


def test_conflicting_records_reduce_to_partial():
    matrix = synthesis_matrix(
        [
            score_record("X", Category.GEOREFERENCING, SupportScore.FULL),
            score_record("X", Category.GEOREFERENCING, SupportScore.NONE),
        ]
    )
    cell = matrix.cells[("X", "Georeferencing")]
    assert cell.score is SupportScore.PARTIAL
    assert cell.conflict
    assert matrix.diagnostics


def test_reduction_ties_round_down():
    score, _ = reduce_scores([SupportScore.PARTIAL, SupportScore.NONE])  # mean 0.25
    assert score is SupportScore.NONE
    score, _ = reduce_scores([SupportScore.FULL, SupportScore.PARTIAL])  # mean 0.75
    assert score is SupportScore.PARTIAL


def test_reduction_order_invariant():
    scores = [SupportScore.FULL, SupportScore.NONE, SupportScore.PARTIAL,
              SupportScore.FULL]
    rng = random.Random(3)
    baseline = reduce_scores(scores)
    for _ in range(10):
        shuffled = scores[:]
        rng.shuffle(shuffled)
        assert reduce_scores(shuffled) == baseline


def test_not_applicable_excluded():
    score, conflict = reduce_scores([SupportScore.NOT_APPLICABLE, SupportScore.FULL])
    assert score is SupportScore.FULL and not conflict
    score, _ = reduce_scores([SupportScore.NOT_APPLICABLE])
    assert score is SupportScore.NOT_APPLICABLE


def timing_record(software, dataset, bucket):
    return AnswerRecord(
        software=software,
        version="1",
        tester_expertise=1,
        dataset=dataset,
        question_id="import",
        category=Category.TIMING,
        value=bucket,
    )


def test_timing_tally():
    records = [
        timing_record("A", "house", TimingBucket.IMMEDIATE),
        timing_record("B", "house", TimingBucket.IMMEDIATE),
        timing_record("C", "house", TimingBucket.ONE_TO_FIVE),
        timing_record("D", "house", TimingBucket.CRASHED),
        timing_record("A", "tower", TimingBucket.OVER_HOUR),
        timing_record("B", "tower", TimingBucket.NOT_POSSIBLE),
    ]
    matrix = synthesis_matrix(records)
    house = matrix.timing_distribution["house"]
    assert house[TimingBucket.IMMEDIATE] == 2
    assert house[TimingBucket.ONE_TO_FIVE] == 1
    assert TimingBucket.CRASHED not in house  # excluded from distribution
    assert matrix.success_rates["house"] == pytest.approx(3 / 4)
    assert matrix.success_rates["tower"] == pytest.approx(1 / 2)


def test_synthesis_outputs():
    matrix = synthesis_matrix(
        [
            score_record("X", Category.GEOREFERENCING, SupportScore.FULL),
            score_record("X", Category.EXPORT, SupportScore.PARTIAL),
            score_record("Y", Category.GEOREFERENCING, SupportScore.NONE),
        ]
    )
    md = synthesis_markdown(matrix)
    assert "| Software |" in md and "| X |" in md
    csv_text = synthesis_csv(matrix)
    assert "X,Export,0.5,1,0" in csv_text


# --- answers IO ------------------------------------------------------------------


def test_answers_csv_roundtrip():
    records = [
        score_record("X", Category.SEMANTICS, SupportScore.PARTIAL),
        timing_record("X", "house", TimingBucket.UNDER_MINUTE),
        geometry_answer("X", "A1", "displayed", "yes"),
    ]
    text = write_answers_csv(records)
    assert text.startswith("#answers-schema: 1")
    back = read_answers_csv(text)
    assert back == records


def test_answers_bad_schema_header():
    with pytest.raises(ValueError):
        read_answers_csv("#answers-schema: 99\nsoftware,...\n")


def test_answers_jsonl():
    text = "\n".join(
        [
            '{"answers_schema": 1}',
            '{"software": "X", "version": "1", "expertise": 2, "dataset": "d",'
            ' "category": "Semantics", "question": "q", "value": "0.5"}',
        ]
    )
    records = read_answers_jsonl(text)
    assert records[0].value is SupportScore.PARTIAL


def test_expertise_bounds():
    with pytest.raises(ValueError):
        AnswerRecord("X", "1", 5, "d", "q", Category.SEMANTICS, SupportScore.FULL)


def test_geometry_answer_requires_slot():
    with pytest.raises(ValueError):
        AnswerRecord("X", "1", 1, "d", "q", Category.GEOMETRY_ITEM, "yes")


# --- round-trip report -------------------------------------------------------------


def summary(graph):
    return census(graph), detect_georef(graph)


def test_roundtrip_identity(suite_2x3):
    graph, _ = suite_2x3
    copy = parse_spf(write_spf(graph))
    report = roundtrip_report(summary(graph), summary(copy))
    assert report.unchanged
    assert report.diff.empty
    assert all(v == 0 for v in report.family_balances.values())


def test_roundtrip_detects_removed_units(suite_2x3):
    graph, _ = suite_2x3
    kept = [line for line in record_lines(graph) if "=IFCSIUNIT(" not in line]
    copy = with_record_lines(graph, kept)
    report = roundtrip_report(summary(graph), summary(copy))
    assert not report.unchanged
    assert "IFCSIUNIT" in report.diff.lost_types


def test_roundtrip_loses_derived_units():
    from ifcaudit.spf.build import GraphBuilder
    from ifcaudit.spf.model import DERIVED
    from ifcaudit.spf.build import enum

    def model(with_derived: bool):
        b = GraphBuilder("IFC2X3")
        metre = b.add("IFCSIUNIT", DERIVED, enum("LENGTHUNIT"), None, enum("METRE"))
        units = [metre]
        if with_derived:
            element = b.add("IFCDERIVEDUNITELEMENT", metre, 3)
            units.append(b.add("IFCDERIVEDUNIT", [element], enum("VOLUMEUNIT"), None))
        b.add("IFCUNITASSIGNMENT", units)
        b.add("IFCBUILDING", *([None] * 12))
        graph = b.graph()
        graph.byte_size = 1000
        return graph

    report = roundtrip_report(summary(model(True)), summary(model(False)))
    assert "IFCDERIVEDUNIT" in report.diff.lost_types
    assert "IFCDERIVEDUNITELEMENT" in report.diff.lost_types
    assert not report.unchanged


def test_roundtrip_retyping_balance(suite_2x3):
    graph, _ = suite_2x3
    # retype every proxy as a proxy type: per-type deltas move, the family
    # balance does not
    retyped = [
        line.replace("=IFCBUILDINGELEMENTPROXY(", "=IFCBUILDINGELEMENTPROXYTYPE(")
        for line in record_lines(graph)
    ]
    copy = with_record_lines(graph, retyped)
    report = roundtrip_report(summary(graph), summary(copy))
    assert report.diff.deltas["IFCBUILDINGELEMENTPROXY"] == -30
    assert report.diff.deltas["IFCBUILDINGELEMENTPROXYTYPE"] == 30
    assert report.family_balances["proxy"] == 0
    assert not report.unchanged


def test_roundtrip_size_band():
    from tests_helpers import minimal_building

    a = minimal_building()
    b = minimal_building()
    a.byte_size = 1000
    b.byte_size = 1500  # census equal but size grew 50%
    report = roundtrip_report(summary(a), summary(b))
    assert report.diff.empty
    assert not report.unchanged


def test_roundtrip_json_payload(suite_2x3):
    graph, _ = suite_2x3
    report = roundtrip_report(summary(graph), summary(graph))
    payload = report_as_json(report)
    assert payload["unchanged"] is True
    assert payload["deltas"] == {}
