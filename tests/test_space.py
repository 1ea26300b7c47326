"""Unit tests for the SpaceMeter."""

import pytest

from repro.common.space import SpaceMeter


class TestGauges:
    def test_initial_state(self):
        m = SpaceMeter()
        assert m.current_bits == 0
        assert m.peak_bits == 0
        assert m.random_bits == 0

    def test_set_gauge_tracks_peak(self):
        m = SpaceMeter()
        m.set_gauge("a", 100)
        m.set_gauge("a", 10)
        assert m.current_bits == 10
        assert m.peak_bits == 100

    def test_peak_is_sum_of_gauges(self):
        m = SpaceMeter()
        m.set_gauge("a", 60)
        m.set_gauge("b", 50)
        m.set_gauge("a", 0)
        assert m.peak_bits == 110
        assert m.current_bits == 50

    def test_negative_gauge_rejected(self):
        m = SpaceMeter()
        with pytest.raises(ValueError):
            m.set_gauge("a", -1)

    def test_clear_gauge(self):
        m = SpaceMeter()
        m.set_gauge("a", 42)
        m.clear_gauge("a")
        assert m.current_bits == 0
        assert m.peak_bits == 42

    def test_unknown_gauge_reads_zero(self):
        assert SpaceMeter().gauge("nope") == 0


class TestRandomBits:
    def test_random_bits_accumulate(self):
        m = SpaceMeter()
        m.charge_random_bits(8)
        m.charge_random_bits(8)
        assert m.random_bits == 16

    def test_random_bits_not_in_peak(self):
        m = SpaceMeter()
        m.set_gauge("a", 5)
        m.charge_random_bits(1000)
        assert m.peak_bits == 5
        assert m.peak_bits_with_randomness == 1005

    def test_negative_random_rejected(self):
        with pytest.raises(ValueError):
            SpaceMeter().charge_random_bits(-1)


class TestReport:
    def test_report_contents(self):
        m = SpaceMeter()
        m.set_gauge("buf", 7)
        m.charge_random_bits(3)
        rep = m.report()
        assert rep["buf"] == 7
        assert rep["__peak__"] == 7
        assert rep["__random__"] == 3

    def test_repr(self):
        assert "SpaceMeter" in repr(SpaceMeter())
