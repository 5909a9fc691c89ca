"""Tests for statistics helpers and the experiment command-line runner."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.run import main as run_main
from repro.sim import Counter, Samples, safe_ratio


class TestCounter:
    def test_add_and_get(self):
        counter = Counter()
        counter.add("x")
        counter.add("x", 4)
        assert counter.get("x") == 5
        assert counter["x"] == 5
        assert counter.get("missing") == 0

    def test_as_dict_and_reset(self):
        counter = Counter()
        counter.add("a", 2)
        assert counter.as_dict() == {"a": 2}
        counter.reset()
        assert counter.as_dict() == {}


class TestSamples:
    def test_summary_statistics(self):
        samples = Samples()
        samples.extend([1, 2, 3, 4])
        assert samples.count == 4
        assert samples.total == 10
        assert samples.mean == 2.5
        assert samples.minimum == 1
        assert samples.maximum == 4
        assert samples.stddev == pytest.approx(1.29099, rel=1e-4)

    def test_empty_samples_are_safe(self):
        samples = Samples()
        assert samples.mean == 0.0
        assert samples.stddev == 0.0
        assert samples.percentile(0.5) == 0.0

    def test_percentile_bounds(self):
        samples = Samples()
        samples.extend(range(1, 11))
        assert samples.percentile(0.0) == 1
        assert samples.percentile(1.0) == 10
        with pytest.raises(ValueError):
            samples.percentile(1.5)

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), min_size=1, max_size=50))
    @settings(max_examples=100, deadline=None)
    def test_percentile_within_range_and_mean_bounded(self, values):
        samples = Samples()
        samples.extend(values)
        tolerance = 1e-6 * (abs(samples.minimum) + abs(samples.maximum) + 1.0)
        assert samples.minimum <= samples.percentile(0.5) <= samples.maximum
        assert samples.minimum - tolerance <= samples.mean <= samples.maximum + tolerance

    def test_reset(self):
        samples = Samples()
        samples.record(3)
        samples.reset()
        assert samples.count == 0


class TestStatsRegistry:
    def test_safe_ratio(self):
        assert safe_ratio(4, 2) == 2
        assert safe_ratio(1, 0) == 0.0
        assert safe_ratio(1, 0, default=-1) == -1


class TestExperimentCli:
    def test_tables_subcommand(self, capsys):
        assert run_main(["tables"]) == 0
        output = capsys.readouterr().out
        assert "Table 1" in output
        assert "Table 4" in output
        assert "CNI16Qm" in output

    def test_unknown_subcommand_rejected(self):
        with pytest.raises(SystemExit):
            run_main(["figure99"])
