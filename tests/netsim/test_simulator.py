"""Tests for repro.netsim.simulator."""

import pytest

from repro.errors import SimulationError
from repro.netsim.simulator import Simulator


class TestScheduling:
    def test_runs_events_in_order(self):
        sim = Simulator()
        seen = []
        sim.schedule_at(2.0, lambda: seen.append(2))
        sim.schedule_at(1.0, lambda: seen.append(1))
        sim.run()
        assert seen == [1, 2]
        assert sim.now == 2.0

    def test_ties_broken_by_scheduling_order(self):
        sim = Simulator()
        seen = []
        sim.schedule_at(1.0, lambda: seen.append("a"))
        sim.schedule_call(1.0, seen.append, "b")
        sim.schedule_after(1.0, lambda: seen.append("c"))
        sim.schedule_call(1.0, lambda x, y: seen.append(x + y), "d", "")
        sim.run()
        assert seen == ["a", "b", "c", "d"]

    @pytest.mark.parametrize("args", [(), (1,), (1, 2), (1, 2, 3)])
    def test_schedule_call_passes_every_argument(self, args):
        sim = Simulator()
        calls = []
        sim.schedule_call(0.5, lambda *got: calls.append((sim.now, got)), *args)
        sim.run()
        assert calls == [(0.5, args)]

    def test_schedule_call_in_the_past_rejected(self):
        sim = Simulator()
        sim.schedule_at(2.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_call(1.0, print, "a", "b")

    def test_pending_events_tracks_the_queue(self):
        sim = Simulator()
        assert sim.pending_events == 0
        sim.schedule_at(2.0, lambda: None)
        sim.schedule_call(1.0, lambda a, b: None, 0, 0)
        assert sim.pending_events == 2
        sim.run()
        assert sim.pending_events == 0

    def test_schedule_after_is_relative(self):
        sim = Simulator()
        times = []
        sim.schedule_after(1.0, lambda: times.append(sim.now))
        sim.run()
        assert times == [1.0]

    def test_callbacks_can_schedule_more_events(self):
        sim = Simulator()
        seen = []

        def first():
            seen.append("first")
            sim.schedule_after(1.0, lambda: seen.append("second"))

        sim.schedule_at(1.0, first)
        sim.run()
        assert seen == ["first", "second"]
        assert sim.now == 2.0

    def test_run_until_stops_early(self):
        sim = Simulator()
        seen = []
        sim.schedule_at(1.0, lambda: seen.append(1))
        sim.schedule_at(5.0, lambda: seen.append(5))
        sim.run(until=2.0)
        assert seen == [1]
        assert sim.now == 2.0
        assert sim.pending_events == 1

    def test_scheduling_in_the_past_rejected(self):
        sim = Simulator()
        sim.schedule_at(3.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(1.0, lambda: None)

    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            Simulator().schedule_after(-1.0, lambda: None)

    def test_ulp_rounding_error_tolerated_at_large_times(self):
        """A single-ulp-in-the-past time must not raise once the clock is large.

        The guard's tolerance is relative to ``now``: with the old absolute
        1e-18 tolerance, one ulp of rounding (~8.7e-19 at 4 ms, growing with
        the clock) in a callback's computed time raised a spurious error.
        """
        import math

        sim = Simulator()
        sim.schedule_at(0.0084, lambda: None)  # past the ~4 ms ulp crossover
        sim.run()
        seen = []
        sim.schedule_at(math.nextafter(sim.now, 0.0), lambda: seen.append(sim.now))
        sim.run()
        assert seen == [0.0084], "the clamped event must still fire at now"

    def test_relative_tolerance_tracks_clock_magnitude(self):
        import math

        sim = Simulator()
        sim.schedule_at(1000.0, lambda: None)
        sim.run()
        sim.schedule_at(math.nextafter(1000.0, 0.0), lambda: None)  # 1 ulp: tolerated
        with pytest.raises(SimulationError):
            sim.schedule_at(1000.0 * (1.0 - 1e-12), lambda: None)  # thousands of ulps: past

    def test_near_zero_clock_keeps_absolute_floor(self):
        sim = Simulator()
        sim.schedule_at(0.0, lambda: None)  # exactly now is fine at t=0
        with pytest.raises(SimulationError):
            sim.schedule_at(-1e-9, lambda: None)

    def test_event_counter(self):
        sim = Simulator()
        for i in range(5):
            sim.schedule_at(float(i), lambda: None)
        sim.run()
        assert sim.events_processed == 5

    def test_max_events_guard(self):
        sim = Simulator(max_events=10)

        def rescheduler():
            sim.schedule_after(1.0, rescheduler)

        sim.schedule_at(0.0, rescheduler)
        with pytest.raises(SimulationError, match="exceeded"):
            sim.run()

    def test_reset(self):
        sim = Simulator()
        sim.schedule_at(1.0, lambda: None)
        sim.run()
        sim.reset()
        assert sim.now == 0.0
        assert sim.pending_events == 0
        assert sim.events_processed == 0

    def test_reentrant_run_rejected(self):
        sim = Simulator()
        errors = []

        def nested():
            try:
                sim.run()
            except SimulationError as exc:
                errors.append(exc)

        sim.schedule_at(0.0, nested)
        sim.run()
        assert len(errors) == 1
