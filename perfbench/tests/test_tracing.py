"""Self time and span recording on hand-built span trees."""

import types

import pytest

import tracing
from tracing import Recorder, Span, nest, self_by_layer, self_by_name, self_times


def tree():
    # root [0, 10]
    #   a.pack [1, 6]
    #     b.propagate [2, 3]
    #     b.propagate [4, 5.5]
    #   a.pack [7, 9]
    return [
        Span("cli.invocation", 0.0, 10.0, None),
        Span("a.pack", 1.0, 6.0, 0),
        Span("b.propagate", 2.0, 3.0, 1),
        Span("b.propagate", 4.0, 5.5, 1),
        Span("a.pack", 7.0, 9.0, 0),
    ]


def test_self_time_subtracts_direct_children_only():
    assert self_times(tree()) == pytest.approx([3.0, 2.5, 1.0, 1.5, 2.0])


def test_self_times_add_up_to_the_root():
    spans = tree()
    assert sum(self_times(spans)) == pytest.approx(spans[0].duration)
    assert self_by_name(spans) == pytest.approx(
        {"cli.invocation": 3.0, "a.pack": 4.5, "b.propagate": 2.5}
    )
    assert self_by_layer(spans) == pytest.approx({"cli": 3.0, "a": 4.5, "b": 2.5})


def test_nest_rederives_parents_after_a_merge():
    # A program phase span [1.5, 5.8] is merged in without a parent: it
    # belongs under a.pack and takes both propagate spans as its children.
    spans = tree() + [Span("c.scan", 1.5, 5.8, None)]
    for item in spans:
        item.parent = None
    ordered = nest(spans)
    names = [item.name for item in ordered]
    parents = [None if item.parent is None else names[item.parent] for item in ordered]
    assert list(zip(names, parents)) == [
        ("cli.invocation", None),
        ("a.pack", "cli.invocation"),
        ("c.scan", "a.pack"),
        ("b.propagate", "c.scan"),
        ("b.propagate", "c.scan"),
        ("a.pack", "cli.invocation"),
    ]
    own = self_by_name(ordered)
    assert own["a.pack"] == pytest.approx(5.0 - 4.3 + 2.0)
    assert own["c.scan"] == pytest.approx(4.3 - 2.5)
    assert sum(own.values()) == pytest.approx(10.0)


def test_nest_keeps_the_longer_span_outside_on_equal_starts():
    ordered = nest([Span("x.inner", 0.0, 1.0, None), Span("x.outer", 0.0, 2.0, None)])
    assert [item.name for item in ordered] == ["x.outer", "x.inner"]
    assert ordered[1].parent == 0


def test_recorder_records_nesting_and_counts():
    ticks = iter(range(100))
    recorder = Recorder(clock=lambda: float(next(ticks)))

    def inner(values):
        return len(values)

    def count(rec, args, result):
        rec.counts["inner.items"] += result

    wrapped_inner = recorder.wrap("x.inner", inner, count)
    wrapped_outer = recorder.wrap("x.outer", lambda: wrapped_inner([1, 2]) + wrapped_inner([3]))
    assert wrapped_outer() == 3
    names = [(item.name, item.parent) for item in recorder.spans]
    assert names == [("x.outer", None), ("x.inner", 0), ("x.inner", 0)]
    assert recorder.counts["inner.items"] == 3
    assert all(item.end > item.start for item in recorder.spans)


def test_recorder_closes_the_span_when_the_call_raises():
    recorder = Recorder()

    def boom():
        raise RuntimeError("no")

    with pytest.raises(RuntimeError):
        recorder.wrap("x.boom", boom)()
    assert recorder.spans[0].end >= recorder.spans[0].start
    assert recorder._stack == []


def test_patch_lists_missing_targets_and_wraps_classmethods(monkeypatch):
    module = types.ModuleType("repro_fake_layer")

    class Query:
        @classmethod
        def build(cls, n):
            return n * 2

    module.Query = Query
    monkeypatch.setitem(__import__("sys").modules, "repro_fake_layer", module)
    recorder = Recorder()
    assert recorder.patch("repro_fake_layer:Query.build", "fake.build")
    assert recorder.patch("repro_fake_layer:Query.build", "fake.build")  # idempotent
    assert not recorder.patch("repro_fake_layer:Query.gone", "fake.gone")
    assert not recorder.patch("repro_no_such_module:f", "fake.f")
    assert Query.build(4) == 8
    assert [item.name for item in recorder.spans] == ["fake.build"]
    assert recorder.absent == ["repro_fake_layer:Query.gone", "repro_no_such_module:f"]


def test_layer_metrics_read_self_times_counts_and_program_counters():
    spans = nest([
        Span("cli.invocation", 0.0, 10.0, None),
        Span("cli.import", 0.0, 1.0, None),
        Span("experiments.fig2", 2.0, 8.0, None),
        Span("runner.collect", 2.5, 7.5, None),
        Span("runner.spawn", 2.6, 2.8, None),
        Span("runner.wait", 3.0, 7.0, None),
        Span("cli.teardown", 9.0, 10.0, None),
    ])
    program = {
        "counters": {"runner.runs": 40, "runner.pool.spawned": 1, "runner.pool.reused": 3},
        "stats": {"runner.run.fig2": {"total_s": 7.5}},
    }
    metrics = tracing.layer_metrics(spans, {}, {}, program, {"windows": 50}, 100)
    assert metrics["runner.overhead_s"] == pytest.approx(5.0 - 0.2 - 4.0)
    assert metrics["runner.wait_s"] == pytest.approx(4.0)
    assert metrics["runner.kernel_s"] == pytest.approx(7.5)
    assert metrics["runner.pool_reuse_ratio"] == pytest.approx(0.75)
    assert metrics["intervals.pass_recall"] == pytest.approx(0.5)
    assert metrics["experiments.fig2_s"] == pytest.approx(6.0)
    assert metrics["cli.import_s"] == pytest.approx(1.0)
    assert metrics["obs.unattributed_s"] == pytest.approx(10.0 - 1.0 - 6.0 - 1.0)
    assert metrics["obs.traced_total_s"] == pytest.approx(10.0)
