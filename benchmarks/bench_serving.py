"""Serving-layer benches: concurrent throughput and cache warm-up.

The substrate's in-context models are so fast on CPU that request
concurrency alone cannot show the serving engine's value (Python threads
share one interpreter).  The ``hosted-api-sim`` preset registered here
flips on ``ModelSpec.realtime_scale``, so every prefill and batched decode
sleeps in proportion to its simulated token latency — exactly the profile
of a remote inference API, where the client thread idles while the
provider decodes.  Against that backend the engine's concurrent requests
overlap the waits and the content-addressed cache removes them entirely.
The baseline is a plain loop of ``MultiCastForecaster.forecast(spec)``
calls over the same requests.

Run standalone to (re)generate ``BENCH_serving.json`` at the repo root::

    PYTHONPATH=src python benchmarks/bench_serving.py

or through pytest (``pytest benchmarks/bench_serving.py``), where the
acceptance thresholds — >=2x concurrent throughput over the loop, >=10x
warm-cache speedup — are asserted.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from repro.core import ForecastSpec, MultiCastConfig, MultiCastForecaster
from repro.data import synthetic_multivariate
from repro.llm import ModelSpec, TokenCostModel, register_model
from repro.llm.ppm import PPMLanguageModel
from repro.serving import ForecastEngine, ForecastRequest

BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_serving.json"

NUM_REQUESTS = 4
NUM_SAMPLES = 4
CONCURRENCY = 4  # engine requests in flight at once
HORIZON = 8


def _register_hosted_backend() -> str:
    """A remote-API stand-in: modest CPU work, latency dominated by sleeps."""
    register_model(
        ModelSpec(
            name="hosted-api-sim",
            factory=lambda v: PPMLanguageModel(v, max_order=3),
            cost=TokenCostModel(seconds_per_generated_token=0.5),
            realtime_scale=0.003,
            description="Hosted-API stand-in: per-token latency as real sleeps.",
        ),
        overwrite=True,
    )
    return "hosted-api-sim"


def _requests(model: str, use_cache: bool) -> list[ForecastRequest]:
    jobs = []
    for index in range(NUM_REQUESTS):
        history = synthetic_multivariate(n=160, num_dims=2, seed=index).values
        config = MultiCastConfig(num_samples=NUM_SAMPLES, model=model, seed=index)
        jobs.append(
            ForecastRequest(
                history,
                HORIZON,
                config=config,
                use_cache=use_cache,
                name=f"bench-{index}",
            )
        )
    return jobs


def measure_throughput() -> dict:
    """A loop of forecaster calls vs the engine on the same request batch."""
    model = _register_hosted_backend()

    start = time.perf_counter()
    for request in _requests(model, use_cache=False):
        MultiCastForecaster().forecast(
            ForecastSpec.from_config(
                request.config, series=request.history, horizon=request.horizon
            )
        )
    loop = time.perf_counter() - start

    with ForecastEngine(max_concurrent_requests=CONCURRENCY) as engine:
        start = time.perf_counter()
        responses = engine.forecast_batch(_requests(model, use_cache=False))
        concurrent = time.perf_counter() - start
    assert all(response.ok for response in responses)

    return {
        "num_requests": NUM_REQUESTS,
        "num_samples": NUM_SAMPLES,
        "concurrency": CONCURRENCY,
        "horizon": HORIZON,
        "loop_seconds": loop,
        "engine_seconds": concurrent,
        "throughput_speedup": loop / concurrent,
    }


def measure_cache() -> dict:
    """Cold miss vs warm hit for an identical request."""
    model = _register_hosted_backend()
    with ForecastEngine() as engine:
        request = _requests(model, use_cache=True)[0]

        start = time.perf_counter()
        cold_response = engine.forecast(request)
        cold = time.perf_counter() - start

        start = time.perf_counter()
        warm_response = engine.forecast(request)
        warm = time.perf_counter() - start
    assert not cold_response.cache_hit and warm_response.cache_hit

    return {
        "cold_seconds": cold,
        "warm_seconds": warm,
        "cache_speedup": cold / warm,
    }


def run() -> dict:
    report = {"throughput": measure_throughput(), "cache": measure_cache()}
    BENCH_PATH.write_text(json.dumps(report, indent=2) + "\n")
    return report


def test_serving_bench(emit):
    report = run()
    throughput, cache = report["throughput"], report["cache"]
    lines = [
        f"forecast loop  {throughput['loop_seconds']:8.3f} s",
        f"engine (x{CONCURRENCY})     {throughput['engine_seconds']:8.3f} s"
        f"   speedup {throughput['throughput_speedup']:5.2f}x",
        f"cold cache     {cache['cold_seconds']:8.3f} s",
        f"warm cache     {cache['warm_seconds']:8.3f} s"
        f"   speedup {cache['cache_speedup']:5.1f}x",
    ]
    emit("serving_throughput", "\n".join(lines))
    # Acceptance thresholds from the serving issue.
    assert throughput["throughput_speedup"] >= 2.0
    assert cache["cache_speedup"] >= 10.0


if __name__ == "__main__":
    print(json.dumps(run(), indent=2))
    print(f"wrote {BENCH_PATH}")
