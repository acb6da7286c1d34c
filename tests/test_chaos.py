"""Unit tests for the fault-injection layer (repro.chaos): the seeded
forkable RNG, the deterministic virtual-time scheduler, and the fuel
fault plan.  The chaos *driver* built on these is covered by
tests/test_corona_chaos.py."""

import pytest

from repro.chaos import Rng, SimEvent, SimLoop, parse_fuel_plan


class TestRng:
    def test_deterministic_stream(self):
        a = [Rng(42).randrange(1000) for _ in range(1)]
        assert [Rng(42).randrange(1000)] == a
        xs = Rng(42)
        ys = Rng(42)
        assert [xs.randrange(10**9) for _ in range(50)] == [
            ys.randrange(10**9) for _ in range(50)
        ]

    def test_fork_is_keyed_by_seed_not_state(self):
        r = Rng(7)
        before = r.fork("child").randrange(10**9)
        r.randrange(100)  # advance parent state
        after = r.fork("child").randrange(10**9)
        assert before == after

    def test_forks_with_distinct_labels_are_independent(self):
        r = Rng(7)
        assert r.fork("a").randrange(10**9) != r.fork("b").randrange(10**9)

    def test_random_unit_interval(self):
        r = Rng(3)
        values = [r.random() for _ in range(200)]
        assert all(0.0 <= v < 1.0 for v in values)
        assert len(set(values)) > 190  # not degenerate


class TestSimLoop:
    def test_virtual_sleep_orders_by_deadline_not_creation(self):
        loop = SimLoop()
        wake = []

        async def sleeper(tag, delay):
            await loop.sleep(delay)
            wake.append((tag, loop.now))

        loop.create_task(sleeper("late", 30))
        loop.create_task(sleeper("early", 10))
        loop.run()
        assert wake == [("early", 10.0), ("late", 30.0)]

    def test_event_gate_fifo(self):
        loop = SimLoop()
        gate = SimEvent(False)
        order = []

        async def waiter(tag):
            await gate.wait()
            order.append(tag)

        async def opener():
            await loop.sleep(5)
            gate.set()

        for tag in ("a", "b", "c"):
            loop.create_task(waiter(tag))
        loop.create_task(opener())
        loop.run()
        assert order == ["a", "b", "c"]

    def test_task_join_returns_result(self):
        loop = SimLoop()

        async def child():
            await loop.sleep(1)
            return 99

        async def parent():
            return await loop.create_task(child())

        assert loop.run(loop.create_task(parent())) == 99

    def test_unawaited_failure_is_loud(self):
        loop = SimLoop()

        async def boom():
            raise ValueError("lost in the background")

        loop.create_task(boom())
        with pytest.raises(ValueError, match="lost in the background"):
            loop.run()

    def test_virtual_time_costs_no_wall_time(self):
        import time

        loop = SimLoop()

        async def long_nap():
            await loop.sleep(10**7)  # ~2.8 virtual hours

        t0 = time.perf_counter()
        loop.create_task(long_nap())
        loop.run()
        assert loop.now == 10**7
        assert time.perf_counter() - t0 < 1.0


class TestFaultPlan:
    def test_dsl_parse(self):
        assert parse_fuel_plan("fuel:77, fuel:33") == {33, 77}

    def test_empty_plan_is_falsy(self):
        assert parse_fuel_plan("") == frozenset()
        assert not parse_fuel_plan(" , ")
        assert parse_fuel_plan("fuel:1")

    @pytest.mark.parametrize(
        "spec",
        [
            "crash:1@120+150",
            "drop:0.02",
            "delay:0.05@6",
            "fuel:77,drop:0.02",
            '{"faults": []}',
            "fuel:x",
            "fuel:@33",
            "none",
            "fuel",
        ],
    )
    def test_unmodelled_or_malformed_faults_are_rejected(self, spec):
        """Plans naming a fault kind the harness does not model (or a
        malformed fuel spec) fail loudly instead of being ignored."""
        with pytest.raises(ValueError, match="bad fault spec"):
            parse_fuel_plan(spec)
