"""Self-time arithmetic of the span shim, on synthetic nested spans."""

import spans


class FakeClock:
    def __init__(self) -> None:
        self.now = 0

    def __call__(self) -> int:
        return self.now


def test_self_time_is_duration_minus_child_spans():
    clock = FakeClock()
    tracer = spans.Tracer(clock_ns=clock)

    def leaf():
        clock.now += 5

    leaf = tracer.span("leaf", leaf)

    def middle():
        clock.now += 2
        leaf()
        leaf()
        clock.now += 1

    middle = tracer.span("middle", middle)

    def root():
        clock.now += 10
        middle()
        leaf()

    root = tracer.span("root", root, keep=lambda: "tag")
    tracer.round = 7
    root()

    totals = spans.span_totals(tracer.agg)
    assert totals["leaf"] == (3, 15 / 1e6)
    assert totals["middle"] == (1, 3 / 1e6)  # 13 ns long, 10 of them in leaves
    assert totals["root"] == (1, 10 / 1e6)  # 28 ns long, 13 in middle, 5 in leaf
    # Self times add up to the root's duration: nothing counted twice.
    assert sum(self_ns for _calls, self_ns in tracer.agg.values()) == 28
    # Aggregated per (span, parent, round).
    assert tracer.agg[("leaf", "middle", 7)] == [2, 10]
    assert tracer.agg[("leaf", "root", 7)] == [1, 5]
    # Only the span asked to be kept whole is.
    assert tracer.whole == [("root", 7, "tag", 0, 28)]
    assert tracer.stack == []


def test_a_raising_span_still_closes():
    clock = FakeClock()
    tracer = spans.Tracer(clock_ns=clock)

    def boom():
        clock.now += 3
        raise KeyError("x")

    shim = tracer.span("boom", boom)
    try:
        shim()
    except KeyError:
        pass
    assert tracer.stack == []
    assert tracer.agg[("boom", "", -1)] == [1, 3]


def test_merge_adds_times_and_keeps_first_rounds():
    one, two = spans.Tracer(), spans.Tracer()
    one.agg[("a", "", 1)] = [2, 100]
    two.agg[("a", "", 1)] = [1, 50]
    two.agg[("b", "a", 1)] = [4, 10]
    one.admitted[9] = 5
    two.admitted[9] = 3
    one.counters["chain.tx_id.calls"] = 7
    two.counters["chain.tx_id.calls"] = 1
    merged = spans.merge([one.dump(), two.dump()])
    assert merged["agg"][("a", "", 1)] == [3, 150]
    assert merged["agg"][("b", "a", 1)] == [4, 10]
    assert merged["admitted"] == {9: 3}
    assert merged["counters"]["chain.tx_id.calls"] == 8
