"""Tests for study-file parsing, the analysis pipeline, forests, and sentences."""

import io
import math
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from replimeta import report as report_module
from replimeta.forest import AnnotatedForest, render_forest
from replimeta.meta import StudySummary, fixed_effect_meta, random_effects_meta
from replimeta.replicability import ReplicabilityReport, classify_consistency
from replimeta.report import (
    AnalysisRequest,
    StudyFileError,
    analyze,
    directional_pvalues,
    parse_studies,
    partial_conjunction_summary,
    summary_sentence,
)


def studies_from(*pairs):
    return tuple(StudySummary(f"s{i}", theta, se) for i, (theta, se) in enumerate(pairs))


STRONG_POSITIVE = studies_from((0.52, 0.12), (0.61, 0.15), (0.44, 0.11), (0.70, 0.2), (0.55, 0.14))
CONFLICTING = studies_from((0.9, 0.08), (-0.85, 0.09), (0.1, 0.5), (0.05, 0.6), (-0.02, 0.55))
WEAK = studies_from((0.3, 0.4), (0.1, 0.5), (-0.2, 0.45), (0.25, 0.5))


class TestParseStudies:
    def test_three_column_file(self, tmp_path):
        path = tmp_path / "raw.csv"
        path.write_text(
            "label,estimate,se\nA,0.5,0.2\nB,0.6,0.25\nC,0.4,0.18\nD,0.7,0.3\nE,0.5,0.2\n"
        )
        studies = parse_studies(str(path))
        assert len(studies) == 5
        assert studies[0] == StudySummary("A", 0.5, 0.2)
        assert [s.label for s in studies] == list("ABCDE")

    def test_byte_order_mark(self, tmp_path):
        # Excel writes UTF-8 CSV with a leading byte-order mark.
        path = tmp_path / "excel.csv"
        path.write_text("\ufefflabel,estimate,se\nA,0.5,0.2\nB,0.6,0.25\n", encoding="utf-8")
        studies = parse_studies(str(path))
        assert studies == [StudySummary("A", 0.5, 0.2), StudySummary("B", 0.6, 0.25)]

    def test_binary_file_with_zero_cell(self):
        text = (
            "label,events_t,total_t,events_c,total_c\n"
            "T1,30,120,18,115\n"
            "T2,0,45,4,44\n"
        )
        studies = parse_studies(io.StringIO(text), "odds_ratio")
        assert len(studies) == 2
        assert all(math.isfinite(s.theta_hat) and s.se > 0 for s in studies)

    def test_binary_needs_ratio_measure(self):
        text = "label,events_t,total_t,events_c,total_c\nT1,3,12,1,11\n"
        with pytest.raises(StudyFileError, match="ratio measure"):
            parse_studies(io.StringIO(text), "raw")

    def test_zero_se_names_row(self):
        text = "label,estimate,se\nA,0.5,0.2\nB,0.6,0.25\nC,0.4,0\nD,0.7,0.3\n"
        with pytest.raises(StudyFileError, match="row 4"):
            parse_studies(io.StringIO(text))

    def test_non_numeric_names_row(self):
        text = "label,estimate,se\nA,0.5,0.2\nB,oops,0.25\n"
        with pytest.raises(StudyFileError, match="row 3"):
            parse_studies(io.StringIO(text))

    def test_wrong_header(self):
        with pytest.raises(StudyFileError, match="header"):
            parse_studies(io.StringIO("name,beta,sigma\nA,1,1\n"))

    def test_missing_column_names_row(self):
        text = "label,estimate,se\nA,0.5\n"
        with pytest.raises(StudyFileError, match="row 2"):
            parse_studies(io.StringIO(text))

    def test_empty_file(self):
        with pytest.raises(StudyFileError, match="empty"):
            parse_studies(io.StringIO(""))


class TestAnalyze:
    def test_replicable_fixture(self):
        request = AnalysisRequest(studies=STRONG_POSITIVE)
        meta_result, report, forest = analyze(request)
        assert report.r_value <= 0.05
        assert report.u_max_right >= 2
        assert report.consistency == "supports_consistency"
        sentence = summary_sentence(report)
        assert "replicable" in sentence
        assert "at least" in sentence

    def test_conflicting_fixture(self):
        request = AnalysisRequest(studies=CONFLICTING, model="random")
        _, report, _ = analyze(request)
        assert report.u_max_left >= 1 and report.u_max_right >= 1
        assert report.consistency == "inconsistent"
        sentence = summary_sentence(report)
        assert "inconsistent" in sentence

    def test_weak_fixture(self):
        request = AnalysisRequest(studies=WEAK)
        _, report, _ = analyze(request)
        assert report.consistency == "insufficient_evidence"
        sentence = summary_sentence(report)
        assert "single study" in sentence
        assert "replicable" not in sentence

    def test_many_study_mixed_fixture(self):
        """A large meta-analysis with solid signal in both directions."""
        rng = np.random.default_rng(64)
        pairs = [(0.8 + rng.uniform(0, 0.3), 0.12) for _ in range(12)]
        pairs += [(-0.7 - rng.uniform(0, 0.3), 0.15) for _ in range(4)]
        pairs += [(float(rng.normal(0, 0.05)), 0.5) for _ in range(12)]
        request = AnalysisRequest(studies=studies_from(*pairs), model="random")
        _, report, _ = analyze(request)
        assert report.u_max_right >= 10
        assert report.u_max_left >= 3
        sentence = summary_sentence(report)
        assert f"at least {report.u_max_right} studies" in sentence
        assert f"at least {report.u_max_left} studies" in sentence

    def test_auto_model_selection(self):
        homogeneous = studies_from((0.5, 0.2), (0.5, 0.2), (0.5, 0.2))
        hetero = studies_from((0.9, 0.1), (-0.2, 0.1), (0.5, 0.1))
        meta_h, _, _ = analyze(AnalysisRequest(studies=homogeneous, model="auto"))
        meta_x, _, _ = analyze(AnalysisRequest(studies=hetero, model="auto"))
        assert meta_h.model == "fixed"
        assert meta_x.model == "random"

    def test_auto_model_is_the_chosen_fit(self):
        homogeneous = studies_from((0.5, 0.2), (0.5, 0.2), (0.5, 0.2))
        hetero = studies_from((0.9, 0.1), (-0.2, 0.1), (0.5, 0.1))
        auto_h = analyze(AnalysisRequest(studies=homogeneous, model="auto"))[0]
        auto_x = analyze(AnalysisRequest(studies=hetero, model="auto"))[0]
        assert auto_h == fixed_effect_meta(homogeneous)
        assert auto_x == random_effects_meta(hetero)

    def test_confidence_matches_alpha(self):
        _, report, _ = analyze(AnalysisRequest(studies=WEAK, alpha=0.10))
        assert report.confidence == 0.90

    def test_two_studies_minimum(self):
        with pytest.raises(ValueError):
            AnalysisRequest(studies=studies_from((0.5, 0.2)))

    def test_conditional_threshold_filters_and_rescales(self):
        request = AnalysisRequest(studies=STRONG_POSITIVE, conditional_threshold=0.05)
        left, right = directional_pvalues(request)
        raw_right = [p for _, p in _raw_pairs(STRONG_POSITIVE)]
        survivors = [p / 0.05 for p in raw_right if p <= 0.05]
        assert right == pytest.approx(survivors)
        assert left == []  # no study points left at this threshold
        _, report, _ = analyze(request)
        assert report.u_max_left == 0
        assert 0.0 <= report.r_value <= 1.0

    def test_conditional_threshold_caps_bounds(self):
        request = AnalysisRequest(studies=STRONG_POSITIVE, conditional_threshold=0.0001)
        _, report, _ = analyze(request)
        left, right = directional_pvalues(request)
        assert report.u_max_right <= len(right)
        assert report.u_max_left <= len(left)


class TestRequestProfile:
    def test_analyze_then_summary_transforms_each_study_once(self, monkeypatch):
        transformed = []
        rows = report_module._one_sided_rows
        monkeypatch.setattr(
            report_module,
            "_one_sided_rows",
            lambda theta, *args: transformed.extend(theta.tolist()) or rows(theta, *args),
        )
        request = AnalysisRequest(studies=CONFLICTING)
        _, report, _ = analyze(request)
        summary = partial_conjunction_summary(request, 2)
        assert transformed == [s.theta_hat for s in CONFLICTING]
        assert summary["r"] == report.r_value


def _raw_pairs(studies):
    from replimeta.statkernels import one_sided_p

    return [one_sided_p(s.theta_hat, s.se) for s in studies]


class TestSentenceInvariants:
    def test_never_claims_replicability_when_r_large(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            n = int(rng.integers(2, 10))
            pairs = [(float(rng.normal(0, 0.8)), float(rng.uniform(0.1, 0.6))) for _ in range(n)]
            _, report, _ = analyze(AnalysisRequest(studies=studies_from(*pairs)))
            sentence = summary_sentence(report)
            if report.r_value > 0.05:
                assert "was replicable" not in sentence
            if "inconsistent" in sentence:
                assert report.u_max_left >= 1 and report.u_max_right >= 1

    def test_ratio_wording(self):
        report = ReplicabilityReport(0, 3, 0.001, alpha=0.05)
        assert "increased" in summary_sentence(report, measure="odds_ratio")
        assert "positive" in summary_sentence(report, measure="raw")

    def test_unknown_measure_names_the_allowed_ones(self):
        report = ReplicabilityReport(0, 3, 0.001, alpha=0.05)
        with pytest.raises(ValueError, match=r"'raw', 'odds_ratio', 'risk_ratio'.*'log_odds'"):
            summary_sentence(report, "log_odds")

    def test_r_value_formatting(self):
        tiny = ReplicabilityReport(0, 3, 5e-5, alpha=0.05)
        assert "<0.0001" in summary_sentence(tiny)

    def test_no_replicability_claim_above_the_report_alpha(self):
        # r(2) = 0.036 lies between the report's alpha of 0.01 and 0.05.
        studies = studies_from((2.4, 1.0), (2.4, 1.0), (0.0, 1.0))
        _, report, _ = analyze(AnalysisRequest(studies=studies, alpha=0.01))
        assert 0.01 < report.r_value <= 0.05 and report.u_max_right == 1
        sentence = summary_sentence(report)
        assert "was replicable" not in sentence
        assert "99% confidence" not in sentence
        assert "single study" in sentence

    @settings(max_examples=200, deadline=None)
    @given(
        u_left=st.integers(0, 8),
        u_right=st.integers(0, 8),
        r=st.floats(0.0, 1.0),
        alpha=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    )
    def test_no_report_contradicts_its_bounds(self, u_left, u_right, r, alpha):
        report = ReplicabilityReport(u_left, u_right, r, alpha=alpha)
        consistency = classify_consistency(u_left, u_right)
        assert report.consistency == consistency
        sentence = summary_sentence(report)
        assert ("inconsistent evidence" in sentence) == (u_left >= 1 and u_right >= 1)
        if "no indication of inconsistency" in sentence:
            assert consistency == "supports_consistency"
        studies = (StudySummary("a", 0.5, 0.2), StudySummary("b", 0.4, 0.2))
        forest = AnnotatedForest(studies, fixed_effect_meta(studies), report)
        footer = render_forest(forest, "text").splitlines()[-1]
        assert footer.endswith(f", consistency={consistency}")

    def test_alpha_is_keyword_only_and_checked(self):
        with pytest.raises(TypeError):
            ReplicabilityReport(0, 3, 0.001, 0.95)
        with pytest.raises(ValueError, match=r"alpha must be in \(0, 1\)"):
            ReplicabilityReport(0, 3, 0.001, alpha=1.0)
        assert ReplicabilityReport(0, 3, 0.001, alpha=0.1).confidence == 0.9


class TestForest:
    def _forest(self, measure="raw"):
        request = AnalysisRequest(studies=STRONG_POSITIVE, effect_measure=measure)
        return analyze(request)[2]

    def test_weights_sum_to_one(self):
        forest = self._forest()
        assert abs(sum(row.weight for row in forest.rows) - 1.0) < 1e-9

    @pytest.mark.parametrize("model", ["fixed", "random"])
    def test_weights_are_the_pooling_weights_over_their_ordered_total(self, model):
        # Python 3.12 compensates the builtin float sum; the pooling kernel
        # adds in study order on every version.
        studies = [StudySummary(f"s{i}", x, se) for i, (x, se) in enumerate(
            [(0.31, 0.1), (1.7, 0.37), (-0.2, 0.05), (0.9, 0.93), (2.2, 0.21)]
        )]
        result, _, forest = analyze(AnalysisRequest(studies=studies, model=model))
        assert result.model == model and (model == "fixed" or result.tau_squared > 0.0)
        weights = [1.0 / (s.se**2 + result.tau_squared) for s in studies]
        total = 0.0
        for w in weights:
            total += w
        assert [row.weight.hex() for row in forest.rows] == [(w / total).hex() for w in weights]

    def test_text_footer_always_complete(self):
        text = render_forest(self._forest(), "text")
        footer = [line for line in text.splitlines() if line.startswith("replicability:")]
        assert len(footer) == 1
        for fragment in ("r-value=", "u_max(left)=", "u_max(right)=", "confidence=", "consistency="):
            assert fragment in footer[0]

    def test_text_is_deterministic(self):
        forest = self._forest()
        assert render_forest(forest, "text") == render_forest(forest, "text")

    def test_svg_parses_and_has_ratio_ticks(self):
        svg = render_forest(self._forest("odds_ratio"), "svg")
        root = ET.fromstring(svg)
        assert root.tag.endswith("svg")
        texts = [el.text for el in root.iter() if el.tag.endswith("text")]
        for tick in ("0.25", "0.5", "1", "2", "4"):
            assert tick in texts
        assert svg == render_forest(self._forest("odds_ratio"), "svg")

    def test_svg_labels_escape_as_saxutils_does(self):
        from xml.sax.saxutils import escape

        label = "A&B <2019> \"x\" 'y' &amp;"
        studies = (StudySummary(label, 0.5, 0.2),) + tuple(STRONG_POSITIVE[1:])
        svg = render_forest(analyze(AnalysisRequest(studies=studies))[2], "svg")
        assert f">{escape(label)}</text>" in svg
        assert [el.text for el in ET.fromstring(svg).iter() if el.text == label] == [label]

    def test_svg_has_squares_and_diamond(self):
        svg = render_forest(self._forest(), "svg")
        assert svg.count("<rect") == len(STRONG_POSITIVE)
        assert "<polygon" in svg

    def test_single_study_forest_rejected(self):
        report = ReplicabilityReport(0, 0, 1.0, alpha=0.05)
        studies = (StudySummary("only", 0.5, 0.2),)
        with pytest.raises(ValueError, match="at least two"):
            AnnotatedForest(studies, fixed_effect_meta(studies), report, measure="raw")

    def test_bad_format_rejected(self):
        with pytest.raises(ValueError):
            render_forest(self._forest(), "pdf")

    def test_ratio_display_exponentiates(self):
        text = render_forest(self._forest("odds_ratio"), "text")
        # log effect 0.52 should display near exp(0.52) = 1.68
        assert "1.682" in text


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: AnalysisRequest(STRONG_POSITIVE, model="mixed"), ValueError,
         "model must be 'fixed', 'random' or 'auto', got 'mixed'"),
        (lambda: AnalysisRequest(STRONG_POSITIVE, effect_measure="hazard"), ValueError,
         "effect_measure must be one of ('raw', 'odds_ratio', 'risk_ratio'), got 'hazard'"),
        (lambda: AnalysisRequest(STRONG_POSITIVE, conditional_threshold=1.0), ValueError,
         "conditional_threshold must be in (0, 1)"),
        (lambda: parse_studies(io.StringIO("label,estimate,se\na,1,1\n"), measure="hazard"),
         StudyFileError, "measure must be one of ('raw', 'odds_ratio', 'risk_ratio'), got 'hazard'"),
        (lambda: parse_studies(
            io.StringIO("label,events_t,total_t,events_c,total_c\na,10.5,20,3,20\n"), measure="odds_ratio"),
         StudyFileError, "row 2: counts must be integers"),
        (lambda: parse_studies(io.StringIO("label,estimate,se\n")), StudyFileError,
         "study file has a header but no data rows"),
    ],
    ids=["model", "effect-measure", "conditional-threshold", "parse-measure", "non-integer-counts",
         "header-only"],
)
def test_invalid_requests_and_study_files_are_named_errors(build, error, message):
    with pytest.raises(error) as caught:
        build()
    assert str(caught.value) == message


def test_a_forest_with_an_unknown_measure_is_a_named_error():
    report = ReplicabilityReport(0, 0, 0.5, alpha=0.05)
    with pytest.raises(ValueError) as caught:
        AnnotatedForest(STRONG_POSITIVE, fixed_effect_meta(STRONG_POSITIVE), report, measure="hazard")
    assert str(caught.value) == "measure must be one of ('raw', 'odds_ratio', 'risk_ratio'), got 'hazard'"
