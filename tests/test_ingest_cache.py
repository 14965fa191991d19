"""Shared-prefix ingest caching: store semantics, bit-identity, wiring.

Three layers are covered:

* the whole-prompt contract of the prefix-state store
  (:class:`~repro.scheduling.RadixPrefillTree`) — fork / extend / miss
  resolution, LRU eviction under the token budget, thread safety, the
  ``max_tokens=0`` disabled mode, and checkpoints that serve shorter
  queries (tree-specific behaviour lives in ``tests/test_scheduling.py``);
* the regression that matters most: with a fixed seed, forecasts are
  **bit-identical** with and without ingest caching, across multiplexing
  schemes and both raw/SAX paths;
* wiring: engine counters and ledger field, and the rolling-origin
  backtest's incremental prompt extension.
"""

import threading

import numpy as np
import pytest

from repro.core import (
    ForecastSpec,
    MultiCastConfig,
    MultiCastForecaster,
    SaxConfig,
)
from repro.data import Dataset
from repro.evaluation import rolling_origin_evaluation
from repro.exceptions import GenerationError
from repro.llm import PPMLanguageModel, get_model
from repro.scheduling import RadixPrefillTree
from repro.scheduling.radix import checkpoint_lengths

RNG = np.random.default_rng(42)
# Extremes pinned at the very start so every backtest window's scaler fit
# is identical and later prompts are strict extensions of earlier ones.
HISTORY = np.column_stack(
    [
        np.concatenate(([5.0, -5.0], np.sin(np.arange(58) / 3.0))),
        np.concatenate(([4.0, -4.0], np.cos(np.arange(58) / 4.0))),
    ]
) + 0.05 * RNG.standard_normal((60, 2))
HISTORY[0] = [6.0, 5.0]
HISTORY[1] = [-6.0, -5.0]


def _prefilled(tokens, vocab_size=5):
    model = PPMLanguageModel(vocab_size, max_order=4)
    model.reset(tokens)
    return model


class TestIngestStateCache:
    """The flat whole-prompt cache's contract, now served by the tree."""

    def test_miss_then_exact_hit_forks(self):
        tree = RadixPrefillTree()
        prompt = [0, 1, 2, 3] * 5
        lookup = tree.lookup("m", 5, prompt)
        assert lookup.outcome == "miss" and lookup.model is None
        tree.insert("m", 5, prompt, _prefilled(prompt))
        hit = tree.lookup("m", 5, prompt)
        assert hit.outcome == "fork"
        assert hit.matched == len(prompt)
        np.testing.assert_array_equal(
            hit.model.next_distribution(),
            _prefilled(prompt).next_distribution(),
        )

    def test_strict_prefix_extends_with_private_fork(self):
        tree = RadixPrefillTree()
        prefix = [0, 1, 2, 3] * 5
        cached = _prefilled(prefix)
        tree.insert("m", 5, prefix, cached)
        longer = prefix + [1, 2, 3, 0]
        lookup = tree.lookup("m", 5, longer)
        assert lookup.outcome == "extend"
        assert lookup.matched == len(prefix)
        assert lookup.model is not cached  # a private fork, safe to advance
        for token in longer[lookup.matched :]:
            lookup.model.advance(token)
        np.testing.assert_array_equal(
            lookup.model.next_distribution(),
            _prefilled(longer).next_distribution(),
        )

    def test_longest_prefix_wins(self):
        tree = RadixPrefillTree()
        short, long = [0, 1] * 3, [0, 1] * 6
        tree.insert("m", 5, short, _prefilled(short))
        tree.insert("m", 5, long, _prefilled(long))
        lookup = tree.lookup("m", 5, [0, 1] * 9)
        assert lookup.outcome == "extend" and lookup.matched == len(long)

    def test_identical_prompt_is_not_an_extend(self):
        tree = RadixPrefillTree()
        prompt = [0, 1, 2] * 4
        tree.insert("m", 5, prompt, _prefilled(prompt))
        # Equal length is not a *strict* prefix: resolves as exact hit only.
        assert tree.lookup("m", 5, list(prompt)).outcome == "fork"

    def test_lru_eviction_by_token_count(self):
        tree = RadixPrefillTree(max_tokens=25)
        a, b, c = [0] * 10, [1] * 10, [2] * 10
        tree.insert("m", 5, a, _prefilled(a))
        tree.insert("m", 5, b, _prefilled(b))
        assert tree.lookup("m", 5, a).outcome == "fork"  # refresh a
        tree.insert("m", 5, c, _prefilled(c))  # 30 > 25: evicts LRU = b
        assert tree.lookup("m", 5, b).outcome == "miss"
        assert tree.lookup("m", 5, a).outcome == "fork"
        assert tree.lookup("m", 5, c).outcome == "fork"
        assert tree.stats["evictions"] == 1
        assert tree.stats["resident_tokens"] == 20

    def test_oversized_prompt_is_not_cached(self):
        tree = RadixPrefillTree(max_tokens=5)
        prompt = [0] * 10
        tree.insert("m", 5, prompt, _prefilled(prompt))
        assert len(tree) == 0
        # prefill still ingests it, but deposits only what fits.
        result = tree.prefill("m", 5, prompt, lambda: PPMLanguageModel(5, max_order=4))
        assert result.outcome == "miss"
        assert len(tree) == 0

    def test_disabled_cache_is_a_no_op(self):
        tree = RadixPrefillTree(max_tokens=0)
        assert not tree.enabled
        prompt = [0, 1] * 4
        tree.insert("m", 5, prompt, _prefilled(prompt))
        assert tree.lookup("m", 5, prompt).outcome == "miss"
        assert len(tree) == 0

    def test_stats_track_hits_extends_misses_and_savings(self):
        tree = RadixPrefillTree()
        prompt = [0, 1, 2, 3] * 3
        tree.lookup("m", 5, prompt)
        tree.insert("m", 5, prompt, _prefilled(prompt))
        tree.lookup("m", 5, prompt)
        tree.lookup("m", 5, prompt + [0, 1])
        stats = tree.stats
        assert stats["misses"] == 1
        assert stats["hits"] == 1
        assert stats["extends"] == 1
        assert stats["tokens_saved"] == 2 * len(prompt)
        assert stats["hit_rate"] == pytest.approx(2 / 3)

    def test_clear_drops_entries_keeps_stats(self):
        tree = RadixPrefillTree()
        prompt = [0, 1] * 4
        tree.insert("m", 5, prompt, _prefilled(prompt))
        tree.lookup("m", 5, prompt)
        tree.clear()
        assert len(tree) == 0
        assert tree.stats["hits"] == 1
        assert tree.lookup("m", 5, prompt).outcome == "miss"

    def test_concurrent_forks_of_a_shared_entry_are_safe(self):
        tree = RadixPrefillTree()
        prompt = [0, 1, 2, 3, 2, 1] * 8
        tree.insert("m", 5, prompt, _prefilled(prompt))
        expected = _prefilled(prompt).next_distribution()
        errors = []

        def worker(seed):
            try:
                for _ in range(10):
                    lookup = tree.lookup("m", 5, prompt)
                    fork = lookup.model.fork()
                    fork.decode(8, np.random.default_rng(seed))
                    np.testing.assert_array_equal(
                        lookup.model.next_distribution(), expected
                    )
            except Exception as error:  # pragma: no cover
                errors.append(error)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        np.testing.assert_array_equal(
            tree.lookup("m", 5, prompt).model.next_distribution(), expected
        )


class TestSimulatedPrefill:
    def test_prefill_generate_matches_plain_generate(self):
        llm = get_model("llama2-7b-sim", vocab_size=11)
        prompt = [0, 1, 2, 10, 3, 4, 5, 10] * 6
        session = llm.prefill(prompt)
        assert session.outcome == "miss"
        assert session.ingested_tokens == len(prompt)
        a = llm.generate(prompt, 8, np.random.default_rng(5), session=session)
        b = llm.generate(prompt, 8, np.random.default_rng(5))
        assert a.tokens == b.tokens and a.log_probs == b.log_probs

    def test_prefill_uses_and_feeds_the_cache(self):
        tree = RadixPrefillTree()
        llm = get_model("llama2-7b-sim", vocab_size=11)
        prompt = [0, 1, 2, 10] * 8
        assert llm.prefill(prompt, state_cache=tree).outcome == "miss"
        again = llm.prefill(prompt, state_cache=tree)
        assert again.outcome == "fork" and again.ingested_tokens == 0
        extended = llm.prefill(prompt + [3, 4, 5, 10], state_cache=tree)
        assert extended.outcome == "extend"
        assert extended.ingested_tokens == 4
        # The extended state was re-deposited: an exact repeat now forks it.
        assert llm.prefill(prompt + [3, 4, 5, 10], state_cache=tree).outcome == "fork"

    def test_session_context_mismatch_is_an_error(self):
        llm = get_model("llama2-7b-sim", vocab_size=11)
        session = llm.prefill([0, 1, 2, 10])
        with pytest.raises(GenerationError, match="session"):
            llm.generate([0, 1, 2, 3], 4, np.random.default_rng(0), session=session)


def _forecast(config, state_cache=None):
    forecaster = MultiCastForecaster(state_cache=state_cache)
    spec = ForecastSpec.from_config(config, series=HISTORY, horizon=5)
    return forecaster.forecast(spec)


class TestBitIdentity:
    """The tentpole regression: caching must never change a single bit."""

    @pytest.mark.parametrize("scheme", ["di", "vi", "vc"])
    @pytest.mark.parametrize("sax", [None, SaxConfig()], ids=["raw", "sax"])
    def test_cached_and_uncached_forecasts_are_bit_identical(self, scheme, sax):
        config = MultiCastConfig(scheme=scheme, sax=sax, num_samples=3, seed=123)
        baseline = _forecast(config)  # no cache
        cache = RadixPrefillTree()
        cold = _forecast(config, state_cache=cache)  # cache miss
        warm = _forecast(config, state_cache=cache)  # cache fork
        assert cold.metadata["ingest"] == "miss"
        assert warm.metadata["ingest"] == "fork"
        for output in (cold, warm):
            assert output.values.tobytes() == baseline.values.tobytes()
            assert output.samples.tobytes() == baseline.samples.tobytes()
            assert output.prompt_tokens == baseline.prompt_tokens
            assert output.generated_tokens == baseline.generated_tokens
            assert output.simulated_seconds == baseline.simulated_seconds

    def test_extended_history_is_bit_identical_too(self):
        config = MultiCastConfig(scheme="di", num_samples=2, seed=7)
        cache = RadixPrefillTree()
        forecaster = MultiCastForecaster(state_cache=cache)
        forecaster.forecast(ForecastSpec.from_config(config, series=HISTORY[:50], horizon=4))
        extended = forecaster.forecast(
            ForecastSpec.from_config(config, series=HISTORY[:55], horizon=4)
        )
        assert extended.metadata["ingest"] == "extend"
        baseline = MultiCastForecaster().forecast(
            ForecastSpec.from_config(config, series=HISTORY[:55], horizon=4)
        )
        assert extended.values.tobytes() == baseline.values.tobytes()
        assert extended.samples.tobytes() == baseline.samples.tobytes()

    def test_simulated_seconds_charge_ingest_once(self):
        config = MultiCastConfig(scheme="di", num_samples=4, seed=0)
        output = _forecast(config)
        llm = get_model(config.model, vocab_size=11)
        per_sample = output.generated_tokens // 4
        expected = llm.cost.seconds(output.prompt_tokens, 0) + 4 * llm.cost.seconds(
            0, per_sample
        )
        assert output.simulated_seconds == pytest.approx(expected)


class TestEngineWiring:
    def test_engine_counts_ingest_outcomes_and_ledger_records_them(self, tmp_path):
        from repro.serving import ForecastCache, ForecastEngine, ForecastRequest

        ledger_path = tmp_path / "ledger.jsonl"
        config = MultiCastConfig(num_samples=2, seed=0)
        with ForecastEngine(
            cache=ForecastCache(max_entries=0),  # isolate the ingest cache
            ledger=str(ledger_path),
        ) as engine:
            engine.forecast(ForecastRequest(HISTORY, 4, config=config))
            # Same prompt, different seed: result cache can't help, the
            # ingest cache can.
            second = MultiCastConfig(num_samples=2, seed=1)
            engine.forecast(ForecastRequest(HISTORY, 4, config=second))
            assert engine.metrics.counter("ingest_cache_misses").value == 1
            assert engine.metrics.counter("ingest_cache_hits").value == 1
            snapshot = engine.metrics_snapshot()
        assert snapshot["prefill_tree"]["hits"] == 1
        assert snapshot["prefill_tree"]["misses"] == 1
        from repro.observability import read_ledger

        records = read_ledger(str(ledger_path))
        assert [r["ingest"] for r in records] == ["miss", "fork"]

    def test_disabled_ingest_cache_still_serves(self):
        from repro.serving import ForecastEngine, ForecastRequest

        config = MultiCastConfig(num_samples=2, seed=0)
        with ForecastEngine(prefill_tree=RadixPrefillTree(max_tokens=0)) as engine:
            response = engine.forecast(ForecastRequest(HISTORY, 4, config=config))
        assert response.ok
        assert response.output.metadata["ingest"] == "miss"


class TestBacktestExtension:
    def test_rolling_origin_extends_instead_of_reingesting(self):
        dataset = Dataset(name="synthetic", values=HISTORY, dim_names=("a", "b"))
        cache = RadixPrefillTree()
        spec = ForecastSpec(num_samples=2)
        uncached = rolling_origin_evaluation(
            "multicast-di", dataset, horizon=4, num_windows=3, spec=spec
        )
        cached = rolling_origin_evaluation(
            "multicast-di",
            dataset,
            horizon=4,
            num_windows=3,
            spec=spec,
            state_cache=cache,
        )
        assert cached.window_rmse == uncached.window_rmse
        stats = cache.stats
        # Window 1 misses; windows 2 and 3 extend the previous prompt.
        assert stats["misses"] == 1
        assert stats["extends"] == 2
        assert stats["tokens_saved"] > 0


class TestIngestCheckpoints:
    """Shorter-query-after-longer-deposit: the checkpoint regression."""

    def test_checkpoint_lengths_double_below_n(self):
        assert checkpoint_lengths(0) == ()
        assert checkpoint_lengths(16) == ()
        assert checkpoint_lengths(17) == (16,)
        assert checkpoint_lengths(200) == (16, 32, 64, 128)

    def test_shorter_query_after_longer_deposit_extends(self):
        tree = RadixPrefillTree()
        prompt = [int(t) for t in RNG.integers(0, 5, size=150)]
        tree.prefill("m", 5, prompt, lambda: PPMLanguageModel(5, max_order=4))
        # Without checkpoints this query would miss outright: in-context
        # state cannot be rewound from the 150-token end state.
        lookup = tree.lookup("m", 5, prompt[:100])
        assert lookup.outcome == "extend"
        assert lookup.matched == 64  # longest checkpoint at or below 100
        for token in prompt[lookup.matched : 100]:
            lookup.model.advance(token)
        np.testing.assert_array_equal(
            lookup.model.next_distribution(),
            _prefilled(prompt[:100]).next_distribution(),
        )

    def test_exact_checkpoint_query_forks(self):
        tree = RadixPrefillTree()
        prompt = [int(t) for t in RNG.integers(0, 5, size=70)]
        tree.prefill("m", 5, prompt, lambda: PPMLanguageModel(5, max_order=4))
        assert tree.lookup("m", 5, prompt[:32]).outcome == "fork"
        assert tree.lookup("m", 5, prompt).outcome == "fork"

    def test_disabled_cache_ingest_still_resets(self):
        tree = RadixPrefillTree(max_tokens=0)
        llm = get_model("llama2-7b-sim", vocab_size=5)
        prompt = [0, 1, 2, 3] * 10
        session = llm.prefill(prompt, state_cache=tree)
        assert session.outcome == "miss"
        assert session.ingested_tokens == len(prompt)
        assert len(tree) == 0
        np.testing.assert_array_equal(
            session.model.next_distribution(),
            llm.prefill(prompt).model.next_distribution(),
        )

    def test_prefill_then_shorter_prefill_reuses_checkpoint(self):
        tree = RadixPrefillTree()
        llm = get_model("llama2-7b-sim", vocab_size=5)
        prompt = [int(t) for t in RNG.integers(0, 5, size=120)]
        assert llm.prefill(prompt, state_cache=tree).outcome == "miss"
        shorter = llm.prefill(prompt[:90], state_cache=tree)
        assert shorter.outcome == "extend"
        assert shorter.ingested_tokens == 90 - 64
        fresh = get_model("llama2-7b-sim", vocab_size=5).prefill(prompt[:90])
        np.testing.assert_array_equal(
            shorter.model.next_distribution(),
            fresh.model.next_distribution(),
        )
