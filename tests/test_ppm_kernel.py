"""Exactness of the array-backed PPM kernel and of the cdf draw.

The kernel must reproduce the dict-based PPM it replaced bit for bit:
``tests/_reference_ppm.py`` keeps that implementation as an oracle, and
every comparison here is ``np.array_equal`` — no tolerance.  The draw
test pins :func:`repro.llm.sampling.draw_token` to
``Generator.choice(size, p=p)``, so a numpy release that changes
``choice`` fails here by name.
"""

import copy
import pickle

import numpy as np
import pytest

from repro.llm import PPMLanguageModel
from repro.llm.sampling import cdf_rows, draw_token
from tests._reference_ppm import PPMLanguageModel as ReferencePPM

VOCABS = (2, 3, 11, 40)
ORDERS = (0, 1, 2, 12)


def _stream(rng, vocab, length):
    """A token stream with repeats (so high orders matter) and noise."""
    motif = rng.integers(0, vocab, size=int(rng.integers(1, 9)))
    tokens = np.resize(motif, length)
    noise = rng.random(length) < rng.choice((0.0, 0.05, 0.3))
    tokens[noise] = rng.integers(0, vocab, size=int(noise.sum()))
    return tokens.tolist()


def _pair(vocab, order, context):
    kernel = PPMLanguageModel(vocab, max_order=order)
    reference = ReferencePPM(vocab, max_order=order)
    kernel.reset(context)
    reference.reset(context)
    return kernel, reference


def _assert_same(kernel, reference):
    assert np.array_equal(kernel.next_distribution(), reference.next_distribution())


@pytest.mark.parametrize("vocab", VOCABS)
@pytest.mark.parametrize("order", ORDERS)
class TestAgainstReference:
    def test_next_distribution_after_reset_and_advance(self, vocab, order):
        rng = np.random.default_rng(vocab * 100 + order)
        for _ in range(4):
            context = _stream(rng, vocab, int(rng.integers(0, 150)))
            kernel, reference = _pair(vocab, order, context)
            _assert_same(kernel, reference)
            for token in _stream(rng, vocab, 25):
                kernel.advance(token)
                reference.advance(token)
                _assert_same(kernel, reference)

    def test_sequence_nll(self, vocab, order):
        rng = np.random.default_rng(vocab * 100 + order + 1)
        context = _stream(rng, vocab, 120)
        tokens = _stream(rng, vocab, 40)
        kernel = PPMLanguageModel(vocab, max_order=order)
        reference = ReferencePPM(vocab, max_order=order)
        assert np.array_equal(
            kernel.sequence_nll(tokens, context),
            reference.sequence_nll(tokens, context),
        )

    def test_batch_rows_match_across_forks(self, vocab, order):
        rng = np.random.default_rng(vocab * 100 + order + 2)
        kernel, reference = _pair(vocab, order, _stream(rng, vocab, 200))
        kernels = [kernel.fork() for _ in range(4)]
        references = [reference.fork() for _ in range(4)]
        for _ in range(20):
            matrix = PPMLanguageModel.next_distribution_batch(kernels)
            for row, model in zip(matrix, references):
                assert np.array_equal(row, model.next_distribution())
            tokens = rng.integers(0, vocab, size=len(kernels)).tolist()
            PPMLanguageModel.advance_batch(kernels, tokens)
            for model, token in zip(references, tokens):
                model.advance(token)

    def test_interleaved_fork_and_advance(self, vocab, order):
        rng = np.random.default_rng(vocab * 100 + order + 3)
        kernel, reference = _pair(vocab, order, _stream(rng, vocab, 120))
        kernels, references = [kernel], [reference]
        for _ in range(30):
            pick = int(rng.integers(len(kernels)))
            if rng.random() < 0.2:
                kernels.append(kernels[pick].fork())
                references.append(references[pick].fork())
            token = int(rng.integers(vocab))
            kernels[pick].advance(token)
            references[pick].advance(token)
            for model, oracle in zip(kernels, references):
                _assert_same(model, oracle)

    def test_extend_after_checkpoint_prefix_matches_one_shot_reset(
        self, vocab, order
    ):
        rng = np.random.default_rng(vocab * 100 + order + 4)
        tokens = _stream(rng, vocab, 300)
        one_shot = PPMLanguageModel(vocab, max_order=order)
        one_shot.reset(tokens)
        chained = PPMLanguageModel(vocab, max_order=order)
        chained.reset(tokens[:16])
        checkpoints = []
        for start, stop in ((16, 17), (17, 64), (64, 128), (128, 300)):
            chained.extend(tokens[start:stop])
            checkpoints.append((stop, chained.fork()))
        reference = ReferencePPM(vocab, max_order=order)
        reference.reset(tokens)
        expected = reference.next_distribution()
        assert np.array_equal(one_shot.next_distribution(), expected)
        assert np.array_equal(chained.next_distribution(), expected)
        for stop, snapshot in checkpoints:
            _, oracle = _pair(vocab, order, tokens[:stop])
            _assert_same(snapshot, oracle)

    def test_extend_after_decode_folds_the_overlay(self, vocab, order):
        rng = np.random.default_rng(vocab * 100 + order + 5)
        kernel, reference = _pair(vocab, order, _stream(rng, vocab, 100))
        decoded = kernel.fork()
        oracle = reference.fork()
        for token in _stream(rng, vocab, 30):
            decoded.advance(token)
            oracle.advance(token)
        more = _stream(rng, vocab, 50)
        decoded.extend(more)
        for token in more:
            oracle.advance(token)
        _assert_same(decoded, oracle)
        _assert_same(kernel, reference)  # the parent is untouched


def test_sequence_nll_across_chunk_boundaries():
    rng = np.random.default_rng(10)
    context = _stream(rng, 11, 50)
    tokens = _stream(rng, 11, 4500)  # longer than one scoring chunk
    kernel = PPMLanguageModel(11, max_order=12)
    reference = ReferencePPM(11, max_order=12)
    assert np.array_equal(
        kernel.sequence_nll(tokens, context), reference.sequence_nll(tokens, context)
    )
    _assert_same(kernel, reference)  # both end after the whole run


def test_one_batch_over_states_of_different_prompts():
    """The continuous scheduler advances requests with different prompts
    (different tables) in one call; each must follow its own oracle."""
    rng = np.random.default_rng(9)
    kernels, references = [], []
    for _ in range(3):
        kernel, reference = _pair(11, 12, _stream(rng, 11, int(rng.integers(20, 200))))
        kernels += [kernel.fork(), kernel.fork()]
        references += [reference.fork(), reference.fork()]
    for step in range(25):
        if step == 10:  # a late arrival joins the running batch
            kernel, reference = _pair(11, 12, _stream(rng, 11, 90))
            kernels.append(kernel.fork())
            references.append(reference.fork())
        matrix = PPMLanguageModel.next_distribution_batch(kernels)
        for row, oracle in zip(matrix, references):
            assert np.array_equal(row, oracle.next_distribution())
        tokens = rng.integers(0, 11, size=len(kernels)).tolist()
        PPMLanguageModel.advance_batch(kernels, tokens)
        for oracle, token in zip(references, tokens):
            oracle.advance(token)


def test_advance_batch_naming_a_model_twice_advances_it_twice():
    kernel, reference = _pair(11, 3, [1, 2, 3, 1, 2, 3])
    PPMLanguageModel.advance_batch([kernel, kernel], [4, 5])
    reference.advance(4)
    reference.advance(5)
    _assert_same(kernel, reference)


def test_pickled_and_deep_copied_states_round_trip():
    rng = np.random.default_rng(7)
    kernel, reference = _pair(11, 12, _stream(rng, 11, 200))
    decoding = kernel.fork()
    for token in _stream(rng, 11, 20):
        decoding.advance(token)
        reference.advance(token)
    for clone in (pickle.loads(pickle.dumps(decoding)), copy.deepcopy(decoding)):
        _assert_same(clone, reference)
        clone.advance(3)
    _assert_same(decoding, reference)


def test_decoding_a_fork_attaches_no_storage_to_the_frozen_state():
    """Decode-time rows belong to the decode: a cached prefill state (and
    a checkpoint forked from it) must not keep them alive."""
    rng = np.random.default_rng(8)
    prefilled = PPMLanguageModel(11, max_order=12)
    prefilled.reset(_stream(rng, 11, 300))
    checkpoint = prefilled.fork()
    for source in (prefilled, checkpoint):
        decoding = [source.fork() for _ in range(3)]
        PPMLanguageModel.advance_batch(decoding, [1, 2, 3])
        decoding.append(decoding[0].fork())
        PPMLanguageModel.advance_batch(decoding, [4, 5, 6, 7])
    assert prefilled._overlay is None and checkpoint._overlay is None
    assert len({id(model._overlay) for model in decoding}) == 1


def test_invalid_tokens_rejected_by_extend_and_advance_batch():
    from repro.exceptions import GenerationError

    model = PPMLanguageModel(5, max_order=3)
    model.reset([0, 1, 2])
    with pytest.raises(GenerationError):
        model.extend([1, 5])
    with pytest.raises(GenerationError):
        PPMLanguageModel.advance_batch([model.fork(), model.fork()], [1, -1])


class TestCdfDraw:
    def test_matches_generator_choice(self):
        rng = np.random.default_rng(0)
        for case in range(3000):
            size = int(rng.integers(1, 40))
            p = rng.random(size) ** rng.integers(1, 12)
            p[rng.random(size) < 0.3] = 0.0
            if p.sum() == 0.0:
                p[int(rng.integers(size))] = 1.0
            p /= p.sum()
            seed = int(rng.integers(2**31))
            ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
            for _ in range(3):
                assert draw_token(cdf_rows(p[None])[0], ours) == int(
                    theirs.choice(size, p=p)
                ), f"case {case}"
            assert ours.random() == theirs.random()  # same stream consumed

    def test_boundary_draws_skip_zero_probability_tokens(self):
        # choice searches its cdf with side="right": a draw landing exactly
        # on a cdf step goes past every zero-probability token there.
        class Fixed:
            def __init__(self, value):
                self.value = value

            def random(self):
                return self.value

        cdf = cdf_rows(np.array([[0.0, 0.5, 0.0, 0.5]]))[0]
        assert draw_token(cdf, Fixed(0.0)) == 1
        assert draw_token(cdf, Fixed(0.5)) == 3

    @pytest.mark.parametrize(
        "p, message",
        [
            (np.array([0.5, np.nan, 0.5]), "NaN"),
            (np.array([1.2, -0.2]), "non-negative"),
            (np.array([0.5, 0.4]), "sum to 1"),
        ],
    )
    def test_rejects_what_choice_rejects(self, p, message):
        with pytest.raises(ValueError, match=message):
            np.random.default_rng(0).choice(p.size, p=p)
        with pytest.raises(ValueError, match=message):
            cdf_rows(p[None])
