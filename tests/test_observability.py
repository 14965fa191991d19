"""Tests for repro.observability: spans, tracer, collector, ledger.

Covers the PR's acceptance criteria directly:

* tracing disabled → forecaster/engine outputs bit-identical to untraced runs;
* the ``forecast`` root span's duration equals ``wall_seconds`` exactly, and
  per-stage span durations reproduce the ``timings`` dict;
* ``wall_seconds == sum(timings)`` holds under tracing (regression for the
  StageClock/span unification);
* a batch run writes one ledger record per request (cache hits and failures
  included) whose summary matches the engine's MetricsRegistry snapshot.
"""

import json
import threading

import numpy as np
import pytest

from repro.core import (
    ForecastSpec,
    MultiCastConfig,
    MultiCastForecaster,
    SaxConfig,
)
from repro.core.output import ForecastOutput
from repro.data import synthetic_multivariate
from repro.exceptions import ConfigError, DataError, GenerationError
from repro.llm import ModelSpec, TokenCostModel, register_model
from repro.llm.ppm import PPMLanguageModel
from repro.observability import (
    NULL_SPAN,
    NULL_TRACER,
    NullTracer,
    RunLedger,
    Span,
    SpanCollector,
    Tracer,
    read_ledger,
    render_span_tree,
    stage_timings,
    summarize_ledger,
)
from repro.serving import ForecastEngine, ForecastRequest, forecast_digest

HISTORY = synthetic_multivariate(n=80, num_dims=2, seed=3).values
CONFIG = MultiCastConfig(num_samples=2, seed=0)


def _spec(config, history, horizon):
    return ForecastSpec.from_config(config, series=history, horizon=horizon)


class _FlakyPPM(PPMLanguageModel):
    """Fails the first ``fail_first`` reset() calls (shared counter), then works."""

    failures = {"remaining": 0}
    lock = threading.Lock()

    def reset(self, context):
        with self.lock:
            if self.failures["remaining"] > 0:
                self.failures["remaining"] -= 1
                raise GenerationError("transient upstream failure")
        super().reset(context)


class TestSpan:
    def test_duration_and_idempotent_finish(self):
        span = Span("work")
        span.finish()
        first = span.end_time
        span.finish()
        assert span.end_time == first
        assert span.finished
        assert span.duration >= 0.0

    def test_finish_at_overrides_even_after_finish(self):
        span = Span("work")
        span.finish()
        span.finish(at=span.start_time + 2.5)
        assert span.duration == pytest.approx(2.5)

    def test_walk_and_find_depth_first(self):
        root = Span("root")
        a, b, c = Span("a"), Span("b"), Span("c")
        root.children.extend([a, b])
        a.children.append(c)
        assert [s.name for s in root.walk()] == ["root", "a", "c", "b"]
        assert root.find("c") is c
        assert root.find("missing") is None

    def test_to_dict_round_trips_through_json(self):
        root = Span("root", {"k": 1})
        child = Span("child")
        child.finish(at=child.start_time + 0.25)
        root.children.append(child)
        root.finish(at=root.start_time + 1.0)
        data = json.loads(json.dumps(root.to_dict()))
        assert data["name"] == "root"
        assert data["attributes"] == {"k": 1}
        assert data["children"][0]["duration_seconds"] == pytest.approx(0.25)

    def test_null_span_is_inert(self):
        assert not NULL_SPAN.is_recording
        NULL_SPAN.set_attribute("k", 1)  # discarded, no error
        NULL_SPAN.finish()
        assert NULL_SPAN.duration == 0.0
        assert NULL_SPAN.attributes == {}
        assert NULL_SPAN.children == ()


class TestTracer:
    def test_ambient_nesting_builds_tree(self):
        collector = SpanCollector()
        tracer = Tracer(collector)
        with tracer.span("outer") as outer:
            assert tracer.current_span() is outer
            with tracer.span("inner", depth=2) as inner:
                assert tracer.current_span() is inner
        assert tracer.current_span() is None
        roots = collector.drain()
        assert len(roots) == 1
        assert [s.name for s in roots[0].walk()] == ["outer", "inner"]
        assert roots[0].children[0].attributes == {"depth": 2}

    def test_explicit_parent_attaches_across_threads(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:

            def worker():
                with tracer.span("task", parent=outer):
                    pass

            thread = threading.Thread(target=worker)
            thread.start()
            thread.join()
        assert [c.name for c in outer.children] == ["task"]

    def test_parent_none_forces_new_root(self):
        collector = SpanCollector()
        tracer = Tracer(collector)
        with tracer.span("outer"):
            with tracer.span("detached", parent=None):
                pass
        assert sorted(s.name for s in collector.drain()) == ["detached", "outer"]

    def test_null_tracer_yields_shared_null_span(self):
        with NULL_TRACER.span("anything", key="value") as span:
            assert span is NULL_SPAN
        assert NULL_TRACER.current_span() is None
        assert not NullTracer().enabled

    def test_collector_bounds_and_drops_oldest(self):
        collector = SpanCollector(max_spans=2)
        for name in ("a", "b", "c"):
            span = Span(name)
            span.finish()
            collector.add(span)
        assert [s.name for s in collector.roots] == ["b", "c"]
        assert collector.dropped == 1
        assert len(collector) == 2
        assert collector.drain() and len(collector) == 0

    def test_stage_timings_sums_repeated_stages(self):
        root = Span("forecast")
        for elapsed in (0.1, 0.2):
            stage = Span("stage:deseasonalize")
            stage.finish(at=stage.start_time + elapsed)
            root.children.append(stage)
        other = Span("stage:scale")
        other.finish(at=other.start_time + 0.5)
        root.children.append(other)
        timings = stage_timings(root)
        assert timings["deseasonalize"] == pytest.approx(0.3)
        assert timings["scale"] == pytest.approx(0.5)

    def test_render_span_tree_shows_names_durations_attributes(self):
        root = Span("request", {"outcome": "ok"})
        child = Span("forecast", {"scheme": "vi"})
        child.finish(at=child.start_time + 0.005)
        root.children.append(child)
        root.finish(at=root.start_time + 0.010)
        text = render_span_tree(root)
        assert "request" in text and "└─ forecast" in text
        assert "[outcome=ok]" in text and "[scheme=vi]" in text
        assert "10.00ms" in text and "5.00ms" in text
        seconds = render_span_tree(root, unit="s")
        assert "0.01s" in seconds


class TestForecastTracing:
    def test_traced_output_bit_identical_to_untraced(self):
        untraced = MultiCastForecaster().forecast(_spec(CONFIG, HISTORY, 5))
        traced = MultiCastForecaster(tracer=Tracer()).forecast(
            _spec(CONFIG, HISTORY, 5)
        )
        assert np.array_equal(untraced.values, traced.values)
        assert np.array_equal(untraced.samples, traced.samples)
        assert untraced.generated_tokens == traced.generated_tokens

    @pytest.mark.parametrize(
        "config",
        [
            CONFIG,
            MultiCastConfig(num_samples=2, sax=SaxConfig(), seed=0),
            MultiCastConfig(num_samples=2, deseasonalize="auto", seed=0),
        ],
        ids=["raw", "sax", "deseasonalized"],
    )
    def test_root_duration_equals_wall_seconds_exactly(self, config):
        collector = SpanCollector()
        output = MultiCastForecaster(tracer=Tracer(collector)).forecast(
            _spec(config, HISTORY, 4)
        )
        (root,) = collector.drain()
        assert root.name == "forecast"
        # Exact equality, not approx: the root's end time is *defined* as
        # start + sum(stage spans), and wall_seconds is that same sum.
        assert root.duration == output.wall_seconds
        assert output.wall_seconds == sum(output.timings.values())

    def test_stage_spans_reproduce_timings_dict(self):
        collector = SpanCollector()
        output = MultiCastForecaster(tracer=Tracer(collector)).forecast(
            _spec(CONFIG, HISTORY, 4)
        )
        (root,) = collector.drain()
        assert stage_timings(root) == output.timings

    def test_generate_stage_has_one_ingest_and_one_batched_decode(self):
        collector = SpanCollector()
        output = MultiCastForecaster(tracer=Tracer(collector)).forecast(
            _spec(CONFIG, HISTORY, 3)
        )
        (root,) = collector.drain()
        generate = root.find("stage:generate")
        assert [c.name for c in generate.children] == [
            "llm:ingest",
            "llm:decode_batch",
        ]
        ingest, decode = generate.children
        assert ingest.attributes["ingest"] == "miss"  # no cache attached
        assert (
            ingest.attributes["ingested_tokens"]
            == ingest.attributes["context_tokens"]
        )
        assert decode.attributes["batch_width"] == CONFIG.num_samples
        assert output.metadata["execution"] == "batched"

    def test_ingest_span_reports_fork_on_cache_hit(self):
        from repro.scheduling import RadixPrefillTree

        cache = RadixPrefillTree()
        config = MultiCastConfig(num_samples=2, seed=0)
        MultiCastForecaster(state_cache=cache).forecast(_spec(config, HISTORY, 3))
        collector = SpanCollector()
        MultiCastForecaster(
            tracer=Tracer(collector), state_cache=cache
        ).forecast(_spec(config, HISTORY, 3))
        (root,) = collector.drain()
        ingest = root.find("llm:ingest")
        assert ingest.attributes["ingest"] == "fork"
        assert ingest.attributes["ingested_tokens"] == 0

    def test_multiplex_span_records_prompt_budget(self):
        collector = SpanCollector()
        output = MultiCastForecaster(tracer=Tracer(collector)).forecast(
            _spec(CONFIG, HISTORY, 3)
        )
        (root,) = collector.drain()
        mux = root.find("stage:multiplex")
        assert mux.attributes["prompt_tokens"] == output.prompt_tokens
        assert mux.attributes["tokens_needed"] > 0
        assert root.attributes["completed_samples"] == CONFIG.num_samples
        assert root.attributes["generated_tokens"] == output.generated_tokens

    def test_per_call_tracer_overrides_constructor(self):
        collector = SpanCollector()
        forecaster = MultiCastForecaster()  # built untraced
        forecaster.forecast(_spec(CONFIG, HISTORY, 3), tracer=Tracer(collector))
        assert len(collector) == 1


class TestTimingInvariant:
    def _output(self, wall, timings):
        return ForecastOutput(
            values=np.zeros((2, 1)),
            samples=np.zeros((1, 2, 1)),
            wall_seconds=wall,
            timings=timings,
        )

    def test_repairs_float_noise_within_tolerance(self):
        output = self._output(0.3 + 5e-10, {"scale": 0.1, "generate": 0.2})
        output.assert_timing_invariant()
        assert output.wall_seconds == 0.1 + 0.2

    def test_raises_on_genuine_drift(self):
        output = self._output(1.0, {"scale": 0.1})
        with pytest.raises(DataError, match="disagrees"):
            output.assert_timing_invariant()

    def test_outputs_without_timings_are_exempt(self):
        self._output(123.0, {}).assert_timing_invariant()


class TestRunLedger:
    def test_append_and_read_round_trip(self, tmp_path):
        ledger = RunLedger(tmp_path / "runs.jsonl")
        ledger.append({"name": "a", "outcome": "ok"})
        ledger.append({"name": "b", "outcome": "failed"})
        assert ledger.records_written == 2
        records = read_ledger(ledger.path)
        assert [r["name"] for r in records] == ["a", "b"]

    def test_concurrent_appends_stay_line_atomic(self, tmp_path):
        ledger = RunLedger(tmp_path / "runs.jsonl")
        threads = [
            threading.Thread(
                target=lambda i=i: [
                    ledger.append({"writer": i, "k": j}) for j in range(20)
                ]
            )
            for i in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(read_ledger(ledger.path)) == 80

    def test_missing_file_raises_config_error(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            read_ledger(tmp_path / "absent.jsonl")

    def test_malformed_line_named_in_error(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        path.write_text('{"ok": 1}\n{truncated\n')
        with pytest.raises(DataError, match="line 2"):
            read_ledger(path)

    def test_non_object_line_rejected(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        path.write_text("[1, 2]\n")
        with pytest.raises(DataError, match="not an object"):
            read_ledger(path)

    def test_summarize_counts_and_exact_quantiles(self):
        records = [
            {"outcome": "ok", "scheme": "di", "wall_seconds": w,
             "cache_hit": i == 0, "attempts": 1 + (i == 2),
             "prompt_tokens": 10, "generated_tokens": 5}
            for i, w in enumerate([0.1, 0.2, 0.4])
        ]
        records.append({"outcome": "failed", "scheme": "vi", "attempts": 3})
        summary = summarize_ledger(records)
        assert summary.total == 4
        assert summary.outcomes == {"ok": 3, "failed": 1}
        assert summary.cache_hits == 1
        assert summary.retries == 1 + 2
        assert summary.by_scheme == {"di": 3, "vi": 1}
        assert summary.prompt_tokens == 30 and summary.generated_tokens == 15
        walls = np.array([0.1, 0.2, 0.4])
        assert summary.latency["p50"] == float(np.quantile(walls, 0.5))
        assert summary.latency["p95"] == float(np.quantile(walls, 0.95))
        assert summary.latency["mean"] == pytest.approx(walls.mean())
        assert summary.latency["max"] == 0.4
        text = summary.format()
        assert "records: 4" in text and "ok=3" in text and "failed=1" in text
        assert summary.to_dict()["outcomes"] == summary.outcomes

    def test_summarize_empty_ledger_raises(self):
        with pytest.raises(DataError, match="no records"):
            summarize_ledger([])


class TestEngineObservability:
    def _request(self, name="req", seed=0, **kwargs):
        return ForecastRequest(
            HISTORY, horizon=4, config=CONFIG, name=name, **kwargs
        )

    def test_request_span_wraps_forecast_and_lands_on_response(self):
        collector = SpanCollector()
        with ForecastEngine(tracer=Tracer(collector)) as engine:
            response = engine.submit(self._request()).result()
        assert response.trace is not None
        root = response.trace
        assert root.name == "request"
        assert root.attributes["request_name"] == "req"
        assert root.attributes["outcome"] == "ok"
        assert root.attributes["cache_hit"] is False
        assert root.find("forecast") is not None
        assert [s.name for s in collector.drain()] == ["request"]

    def test_cache_hit_span_has_no_forecast_child(self):
        collector = SpanCollector()
        with ForecastEngine(tracer=Tracer(collector)) as engine:
            engine.submit(self._request()).result()
            hit = engine.submit(self._request()).result()
        assert hit.cache_hit
        assert hit.trace.attributes["cache_hit"] is True
        assert hit.trace.find("forecast") is None

    def test_traced_engine_results_bit_identical_to_untraced(self):
        request = self._request()
        with ForecastEngine() as engine:
            plain = engine.submit(self._request()).result()
        with ForecastEngine(tracer=Tracer()) as engine:
            traced = engine.submit(request).result()
        assert np.array_equal(plain.output.values, traced.output.values)
        assert np.array_equal(plain.output.samples, traced.output.samples)

    def test_ledger_gets_one_record_per_request_including_hits_and_failures(
        self, tmp_path
    ):
        path = tmp_path / "runs.jsonl"
        bad = ForecastRequest(
            HISTORY, horizon=4,
            config=MultiCastConfig(num_samples=2, model="no-such-model"),
            name="bad",
        )
        with ForecastEngine(ledger=path) as engine:
            engine.submit(self._request(name="fresh")).result()
            engine.submit(self._request(name="hit")).result()
            engine.submit(bad).result()
            assert engine.ledger.records_written == 3
        records = read_ledger(path)
        by_name = {r["name"]: r for r in records}
        assert by_name["fresh"]["outcome"] == "ok"
        assert by_name["hit"]["cache_hit"] is True
        assert by_name["bad"]["outcome"] == "failed"
        assert "no-such-model" in by_name["bad"]["error"]
        expected_key = forecast_digest(HISTORY, CONFIG, 4, seed=0)
        assert by_name["fresh"]["config_hash"] == expected_key
        assert by_name["fresh"]["spans"] is None  # tracing was off
        assert by_name["fresh"]["timings"]
        assert by_name["fresh"]["metrics"]["requests_total"] >= 1

    def test_ledger_spans_recorded_when_tracing_on(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        with ForecastEngine(tracer=Tracer(), ledger=path) as engine:
            engine.submit(self._request()).result()
        (record,) = read_ledger(path)
        assert record["spans"]["name"] == "request"
        child_names = [c["name"] for c in record["spans"]["children"]]
        assert "forecast" in child_names

    def test_summary_latency_matches_metrics_registry_quantiles(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        with ForecastEngine(ledger=path) as engine:
            for seed in range(3):
                engine.submit(self._request(name=f"r{seed}", seed=seed)).result()
            snapshot = engine.metrics.snapshot()
        summary = summarize_ledger(path)
        histogram = snapshot["request_seconds"]
        assert summary.total == 3
        assert summary.latency["p50"] == pytest.approx(
            histogram["p50"], rel=1e-6
        )
        assert summary.latency["p95"] == pytest.approx(
            histogram["p95"], rel=1e-6
        )

    def test_retried_request_shows_sibling_forecast_spans(self, tmp_path):
        register_model(
            ModelSpec(
                name="flaky-trace-sim",
                factory=lambda v: _FlakyPPM(v, max_order=2),
                cost=TokenCostModel(0.1),
            ),
            overwrite=True,
        )
        _FlakyPPM.failures["remaining"] = 1
        collector = SpanCollector()
        path = tmp_path / "runs.jsonl"
        config = MultiCastConfig(num_samples=2, model="flaky-trace-sim", seed=0)
        with ForecastEngine(tracer=Tracer(collector), ledger=path) as engine:
            response = engine.submit(
                ForecastRequest(HISTORY, horizon=3, config=config, name="flaky")
            ).result()
        assert response.ok
        assert response.attempts == 2
        root = collector.drain()[0]
        # The first attempt failed in its prefill and the whole forecast
        # was retried: two sibling forecast spans under the request.
        forecasts = [c for c in root.children if c.name == "forecast"]
        assert len(forecasts) == 2
        assert root.attributes["attempts"] == 2
        (record,) = read_ledger(path)
        assert record["outcome"] == "ok"
