"""Micro-benchmarks of the pipeline kernels (statistical timing).

Unlike the table benches (single-shot full experiments), these measure the
hot inner pieces with pytest-benchmark's statistical machinery: multiplexer
round-trips, PPM prediction throughput, forked batch scoring, SAX
encoding, and a single constrained forecast.
"""

import numpy as np

from repro.core import ForecastSpec, MultiCastForecaster, get_multiplexer
from repro.data import gas_rate
from repro.encoding import DigitCodec
from repro.llm import PPMLanguageModel
from repro.sax import SaxAlphabet, SaxEncoder


def test_kernel_mux_roundtrip_di(benchmark):
    codes = np.random.default_rng(0).integers(0, 1000, size=(300, 4))
    codec = DigitCodec(3)
    mux = get_multiplexer("di")

    def run():
        return mux.demux(mux.mux(codes, codec), 4, codec)

    result = benchmark(run)
    assert np.array_equal(result, codes)


def test_kernel_ppm_ingest_and_predict(benchmark):
    rng = np.random.default_rng(1)
    context = rng.integers(0, 11, size=2000).tolist()

    def run():
        model = PPMLanguageModel(vocab_size=11, max_order=12)
        model.reset(context)
        return model.next_distribution()

    probs = benchmark(run)
    assert probs.sum() > 0.99


def test_kernel_ppm_generation_throughput(benchmark):
    context = (list(range(10)) + [10]) * 60

    def run():
        model = PPMLanguageModel(vocab_size=11, max_order=12)
        return model.generate(context, 200, np.random.default_rng(0))

    result = benchmark(run)
    assert len(result.tokens) == 200


def test_kernel_ppm_forked_batch_scoring(benchmark):
    """One lockstep decode step's model work: fork five groups off a
    prefilled state, score them in one batch and advance each."""
    rng = np.random.default_rng(3)
    prefilled = PPMLanguageModel(vocab_size=11, max_order=12)
    prefilled.reset(rng.integers(0, 11, size=700).tolist())

    def run():
        root = prefilled.fork()
        groups = [root] + [root.fork() for _ in range(4)]
        PPMLanguageModel.advance_batch(groups, [0, 1, 2, 3, 4])
        return PPMLanguageModel.next_distribution_batch(groups)

    matrix = benchmark(run)
    assert matrix.shape == (5, 11)
    assert np.allclose(matrix.sum(axis=1), 1.0)


def test_kernel_sax_encode(benchmark):
    x = np.sin(np.linspace(0, 40, 5000))
    encoder = SaxEncoder(6, SaxAlphabet.alphabetical(5)).fit(x)
    word = benchmark(encoder.encode, x)
    assert len(word) == encoder.segments_for(5000)


def test_kernel_single_forecast(benchmark):
    history, future = gas_rate().train_test_split()
    forecaster = MultiCastForecaster()
    spec = ForecastSpec(series=history, horizon=len(future),
                        scheme="di", num_samples=1)

    def run():
        return forecaster.forecast(spec)

    output = benchmark(run)
    assert output.values.shape == future.shape


def test_kernel_sax_forecast(benchmark):
    from repro.core import SaxConfig

    history, future = gas_rate().train_test_split()
    forecaster = MultiCastForecaster()
    spec = ForecastSpec(series=history, horizon=len(future),
                        scheme="di", num_samples=1, sax=SaxConfig())

    def run():
        return forecaster.forecast(spec)

    output = benchmark(run)
    assert output.values.shape == future.shape
