"""Unit tests for time-varying request-rate traces."""

import pytest

from repro.sim.traces import (
    Epoch,
    RateTrace,
    diurnal_trace,
    surge_trace,
)


class TestEpochAndTrace:
    def test_epoch_validation(self):
        with pytest.raises(ValueError):
            Epoch(-1.0, 10.0)
        with pytest.raises(ValueError):
            Epoch(0.0, -1.0)

    def test_trace_needs_epochs(self):
        with pytest.raises(ValueError):
            RateTrace("svc", ())

    def test_trace_must_start_at_zero(self):
        with pytest.raises(ValueError):
            RateTrace("svc", (Epoch(5.0, 10.0),))

    def test_trace_monotone_starts(self):
        with pytest.raises(ValueError):
            RateTrace("svc", (Epoch(0.0, 1.0), Epoch(10.0, 2.0), Epoch(5.0, 3.0)))
        with pytest.raises(ValueError):
            RateTrace("svc", (Epoch(0.0, 1.0), Epoch(0.0, 2.0)))

    def test_rate_at_steps(self):
        trace = RateTrace(
            "svc", (Epoch(0.0, 100.0), Epoch(10.0, 200.0), Epoch(20.0, 50.0))
        )
        assert trace.rate_at(0.0) == 100.0
        assert trace.rate_at(9.99) == 100.0
        assert trace.rate_at(10.0) == 200.0
        assert trace.rate_at(25.0) == 50.0

    def test_rate_at_negative_time(self):
        trace = RateTrace("svc", (Epoch(0.0, 1.0),))
        with pytest.raises(ValueError):
            trace.rate_at(-1.0)

    def test_rate_at_boundary_is_inclusive(self):
        # Pins the epoch-start semantics the bisect lookup must keep:
        # an epoch's start belongs to that epoch, the instant before it
        # to the previous one, and times past the last start stay there.
        trace = RateTrace(
            "svc", (Epoch(0.0, 10.0), Epoch(5.0, 20.0), Epoch(7.5, 30.0))
        )
        assert trace.rate_at(5.0) == 20.0  # start inclusive
        assert trace.rate_at(4.999999) == 10.0
        assert trace.rate_at(7.5) == 30.0
        assert trace.rate_at(1e9) == 30.0  # beyond the last epoch

    def test_rate_at_matches_linear_scan(self):
        # The bisect lookup agrees with the reference linear scan on a
        # dense probe grid.
        trace = diurnal_trace("svc", base_rate=500.0, epochs=48)

        def linear(t):
            current = trace.epochs[0].rate
            for epoch in trace.epochs:
                if epoch.start_s <= t:
                    current = epoch.rate
                else:
                    break
            return current

        for k in range(200):
            t = k * 86_400.0 / 199
            assert trace.rate_at(t) == linear(t)

    def test_peak_and_mean(self):
        trace = RateTrace("svc", (Epoch(0.0, 100.0), Epoch(10.0, 300.0)))
        assert trace.peak_rate() == 300.0
        assert trace.mean_rate(20.0) == pytest.approx(200.0)
        with pytest.raises(ValueError):
            trace.mean_rate(0.0)


class TestGenerators:
    def test_diurnal_shape(self):
        trace = diurnal_trace("svc", base_rate=1000, amplitude=0.5, epochs=24)
        assert len(trace.epochs) == 24
        rates = [e.rate for e in trace.epochs]
        assert max(rates) <= 1500 + 1e-9
        assert min(rates) >= 500 - 1e-9

    def test_diurnal_validation(self):
        with pytest.raises(ValueError):
            diurnal_trace("svc", 100, amplitude=1.5)
        with pytest.raises(ValueError):
            diurnal_trace("svc", 100, epochs=0)

    def test_surge_shape(self):
        trace = surge_trace("svc", 100.0, 3.0, 10.0, 20.0)
        assert trace.rate_at(5.0) == 100.0
        assert trace.rate_at(15.0) == 300.0
        assert trace.rate_at(25.0) == 100.0

    def test_surge_validation(self):
        with pytest.raises(ValueError):
            surge_trace("svc", 100.0, 2.0, 20.0, 10.0)
