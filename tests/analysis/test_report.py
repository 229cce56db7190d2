"""Unit tests for the reproduction-report generator."""

import pytest

from repro.analysis.report import (
    FIGURE_CLAIMS,
    generate_report,
    read_series_csv,
)


@pytest.fixture
def results(tmp_path):
    (tmp_path / "fig8.csv").write_text(
        "m,Idl,I1,F1,I2,F2\n"
        "2,0.74,3.33,2.78,1.75,1.41\n"
        "4,0.99,1.53,1.42,1.11,1.05\n"
        "12,1.0,1.0,1.0,1.0,1.0\n"
    )
    return tmp_path


class TestReadCsv:
    def test_columns(self, results):
        series = read_series_csv(results / "fig8.csv")
        assert series["m"] == [2.0, 4.0, 12.0]
        assert series["F2"] == [1.41, 1.05, 1.0]


class TestClaims:
    def test_fig8_claims_pass_on_good_data(self, results):
        series = read_series_csv(results / "fig8.csv")
        for claim in FIGURE_CLAIMS["fig8"]:
            assert claim.check(series), claim.text

    def test_fig8_claim_fails_on_bad_data(self, tmp_path):
        series = {"F2": [1.0, 1.5, 2.0]}  # worst at many cores: wrong shape
        worst_claim = FIGURE_CLAIMS["fig8"][0]
        assert not worst_claim.check(series)

    def test_all_figures_have_claims(self):
        for fig in ("fig6", "fig7", "fig8", "fig9", "fig10", "fig11"):
            assert FIGURE_CLAIMS[fig]


class TestGenerate:
    def test_report_structure(self, results):
        report = generate_report(results)
        assert report.startswith("# Reproduction report")
        assert "## fig8" in report
        assert "✅" in report
        assert "Claims passed:" in report

    def test_missing_figures_skipped(self, results):
        report = generate_report(results)
        assert "SKIPPED" in report  # fig6 etc. have no CSV here

    def test_failures_marked(self, tmp_path):
        (tmp_path / "fig8.csv").write_text(
            "m,Idl,I1,F1,I2,F2\n2,1,1,1,1,1.0\n12,1,1,1,1,1.5\n"
        )
        report = generate_report(tmp_path)
        assert "❌" in report

    def test_missing_column_reported(self, tmp_path):
        (tmp_path / "fig11.csv").write_text("n,F1,F2\n5,1.1,1.0\n")
        report = generate_report(tmp_path)
        assert "missing column" in report

    def test_full_archive_passes(self):
        """The repository's own archived results must satisfy every claim."""
        from pathlib import Path

        results = Path(__file__).resolve().parent.parent.parent / "results"
        if not (results / "fig6.csv").exists():
            pytest.skip("no archived results in this checkout")
        report = generate_report(results)
        assert "❌" not in report
