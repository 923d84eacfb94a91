"""Witten-Bell n-gram models: hand-checked probabilities and invariants.

The tiny corpus is the single sentence "a cat eats" with <eos> appended,
over the inventory (a, cat, eats, <UNK>, <eos>).  Unigram level: every seen
token has count 1, n = 4 tokens, t = 4 types, base 1/5, so

    p(cat)  = (1 + 4 * 0.2) / (4 + 4) = 0.225
    p(<UNK>) = (0 + 4 * 0.2) / (4 + 4) = 0.1

Bigram after "a": only "cat" follows, n = 1, t = 1, so

    p(cat | a) = (1 + 1 * 0.225) / (1 + 1) = 0.6125
"""

import gc
import itertools
import math
import pickle
import struct
import tracemalloc

import numpy as np
import pytest

from beamfuse import (
    EOS,
    MarkovText,
    NGramModel,
    Vocabulary,
    cumulative_sums,
    load_model,
    save_model,
    synth_vocabulary,
    to_char_labels,
    train_ngram,
)
from beamfuse.ngram import LOG_PROB_CACHE_SIZE, ROW_CACHE_BYTES

CORPUS = [["a", "cat", "eats"]]


def test_unigram_witten_bell_values(trained_word_lm, tiny_vocab):
    ids = tiny_vocab.word_ids
    assert trained_word_lm.prob(ids["cat"], ()) == pytest.approx(0.225, abs=1e-12)
    assert trained_word_lm.prob(ids["a"], ()) == pytest.approx(0.225, abs=1e-12)
    assert trained_word_lm.prob(tiny_vocab.unk_id, ()) == pytest.approx(0.1, abs=1e-12)


def test_bigram_witten_bell_value(trained_word_lm, tiny_vocab):
    ids = tiny_vocab.word_ids
    p = trained_word_lm.prob(ids["cat"], (ids["a"],))
    assert p == pytest.approx(0.6125, abs=1e-12)


def test_unseen_context_falls_through(trained_word_lm, tiny_vocab):
    ids = tiny_vocab.word_ids
    # <UNK> never appears as a context in training
    p_backoff = trained_word_lm.prob(ids["cat"], (tiny_vocab.unk_id,))
    assert p_backoff == trained_word_lm.prob(ids["cat"], ())


def test_context_truncated_to_order(trained_word_lm, tiny_vocab):
    ids = tiny_vocab.word_ids
    long_ctx = (ids["eats"], ids["eats"], ids["a"])
    assert trained_word_lm.prob(ids["cat"], long_ctx) == trained_word_lm.prob(
        ids["cat"], (ids["a"],)
    )


def test_distributions_normalize(tiny_vocab):
    rng = np.random.default_rng(3)
    sentences = [
        [tiny_vocab.words[i] for i in rng.integers(0, 3, size=rng.integers(1, 6))]
        for _ in range(40)
    ]
    for order in (1, 2, 3):
        model = train_ngram(sentences, order, "word", tiny_vocab)
        for _ in range(20):
            ctx = tuple(int(c) for c in rng.integers(0, 5, size=rng.integers(0, 4)))
            dist = model.full_distribution(ctx)
            assert abs(dist.sum() - 1.0) < 1e-9
            assert (dist > 0.0).all()


def test_scalar_prob_matches_full_distribution_bitwise(tiny_vocab):
    rng = np.random.default_rng(5)
    sentences = [
        [tiny_vocab.words[i] for i in rng.integers(0, 3, size=rng.integers(1, 6))]
        for _ in range(40)
    ]
    model = train_ngram(sentences, 3, "word", tiny_vocab)
    for _ in range(50):
        ctx = tuple(int(c) for c in rng.integers(0, 5, size=rng.integers(0, 3)))
        dist = model.full_distribution(ctx)
        for token in range(5):
            assert model.prob(token, ctx) == dist[token]


def test_cumulative_sums_shape_and_values():
    dist = np.full(5, 0.2)
    sums = cumulative_sums(dist)
    assert sums.shape == (6,)
    assert np.allclose(sums, [0.0, 0.2, 0.4, 0.6, 0.8, 1.0], atol=1e-12)
    # mass of ID interval [1, 2] is one subtraction
    assert sums[3] - sums[1] == pytest.approx(0.4, abs=1e-12)


def test_cumulative_distribution_is_cached(trained_word_lm, tiny_vocab):
    a = trained_word_lm.cumulative_distribution((tiny_vocab.word_ids["a"],))
    b = trained_word_lm.cumulative_distribution((tiny_vocab.word_ids["a"],))
    assert a is b
    assert a[0] == 0.0
    assert a[-1] == pytest.approx(1.0, abs=1e-9)
    assert (np.diff(a) >= 0.0).all()


def test_cumulative_sum_rows_are_read_only():
    model = NGramModel(2, "word", ["a", "b", "<UNK>", EOS])
    row = model.cumulative_distribution(())
    with pytest.raises(ValueError):
        row[1] = 5
    assert model.cumulative_distribution(()).tolist() == [0.0, 0.25, 0.5, 0.75, 1.0]


def test_log_rows_are_bitwise_logs_of_prob(
    trained_char_lm, uniform_char_lm, trained_word_lm, uniform_word_lm
):
    for model in (trained_char_lm, uniform_char_lm, trained_word_lm, uniform_word_lm):
        ids = range(len(model.tokens))
        contexts = [ctx for m in range(model.order) for ctx in itertools.product(ids, repeat=m)]
        for ctx in contexts:
            row = model.log_rows(ctx)
            for token in ids:
                assert float.hex(float(row[token])) == float.hex(math.log(model.prob(token, ctx)))


def test_log_rows_are_cached_and_read_only(trained_char_lm):
    row = trained_char_lm.log_rows((0, 1))
    assert trained_char_lm.log_rows((0, 1)) is row
    with pytest.raises(ValueError):
        row[0] = 0.0


def test_cumsum_cache_is_bounded_by_bytes():
    """A 20k-token model caches 26 rows of 20,003 floats, not 256."""
    tokens = [f"w{i}" for i in range(20000)] + ["<UNK>", EOS]
    counts = [{(): dict.fromkeys(range(len(tokens)), 1)}, {(i,): {i + 1: 1} for i in range(40)}]
    model = NGramModel(2, "word", tokens, counts=counts)
    maxsize = model.cumsums.cache_parameters()["maxsize"]
    assert 0 < maxsize * 8 * (len(tokens) + 1) <= ROW_CACHE_BYTES
    for i in range(40):
        row = model.cumulative_distribution((i,))
    assert model.cumsums.cache_info().currsize * row.nbytes <= ROW_CACHE_BYTES


def test_log_prob_is_math_log_of_prob_within_its_bound():
    """log_prob holds exactly math.log(prob), never keeps more than
    LOG_PROB_CACHE_SIZE entries, and gives the same float once its first
    keys were evicted and it computes them again."""
    words = synth_vocabulary(30, seed=8, alphabet="abcd")
    vocab = Vocabulary.from_words(words)
    model = train_ngram(MarkovText(words, seed=9).sentences(80, 2, 6, seed=10), 2, "word", vocab)
    n = len(model.tokens)
    keys = [(token, (context,)) for context in range(n) for token in range(n)] + [(0, ())]
    assert len(keys) > LOG_PROB_CACHE_SIZE
    first = {}
    for key in keys:
        first[key] = model.log_prob(*key)
        assert first[key].hex() == math.log(model.prob(*key)).hex()
        assert model.log_prob.cache_info().currsize <= LOG_PROB_CACHE_SIZE
    assert model.log_prob.cache_info().currsize == LOG_PROB_CACHE_SIZE
    misses = model.log_prob.cache_info().misses
    for key in keys[:10]:  # evicted: computed again
        assert model.log_prob(*key).hex() == first[key].hex()
    assert model.log_prob.cache_info().misses == misses + 10
    assert model.log_prob(*keys[0]).hex() == first[keys[0]].hex()  # now kept
    assert model.log_prob.cache_info().misses == misses + 10


def _reference_distribution(model, counts, context):
    """The per-context Witten-Bell loop that backoff rows replaced: every
    level folded from the uniform distribution, one token at a time, over
    the count dicts *counts* the model was built from, with nothing cached."""
    context = tuple(context[-(model.order - 1):]) if model.order > 1 else ()
    dist = np.full(len(model.tokens), 1.0 / len(model.tokens))
    for m in range(len(context) + 1):
        table = counts[m].get(context[len(context) - m:])
        if table is None:
            continue
        types = len(table)
        dist *= types
        for token, count in table.items():
            dist[token] += count
        dist /= sum(table.values()) + types
    return dist


def _assert_rows_match_reference(model, counts, contexts):
    for ctx in contexts:
        expected = _reference_distribution(model, counts, ctx).tolist()
        dist = model.full_distribution(ctx)
        assert list(map(float.hex, dist.tolist())) == list(map(float.hex, expected))
        logs = model.log_rows(tuple(ctx)).tolist()
        assert list(map(float.hex, logs)) == [float.hex(math.log(p)) for p in expected]
        sums = model.cumulative_distribution(ctx).tolist()
        assert list(map(float.hex, sums)) == list(map(float.hex, cumulative_sums(dist).tolist()))
        dist[:] = 0.0  # a fresh vector: writing it changes no later row


def _observed_contexts(counts):
    """Every context the count dicts name, the empty one included."""
    return [ctx for level in counts for ctx in level]


def _backoff_contexts(counts):
    """Observed contexts shorter than order - 1, the only ones the memo may hold."""
    return {ctx for level in counts[1:-1] for ctx in level}


def _char_5gram_sentences():
    words = synth_vocabulary(60, seed=4, alphabet="abcdef")
    return MarkovText(words, seed=5).sentences(120, 2, 6, seed=6)


@pytest.fixture(scope="module")
def char_5gram():
    return train_ngram(_char_5gram_sentences(), 5, "char")


@pytest.fixture(scope="module")
def char_5gram_counts(char_5gram):
    """The 5-gram's count dicts, counted here from its training sentences."""
    ids = {label: i for i, label in enumerate(char_5gram.tokens)}
    counts = [{} for _ in range(5)]
    for sentence in _char_5gram_sentences():
        seq = [ids[label] for label in to_char_labels(sentence)] + [ids[EOS]]
        for i, token in enumerate(seq):
            for m in range(min(4, i) + 1):
                row = counts[m].setdefault(tuple(seq[i - m:i]), {})
                row[token] = row.get(token, 0) + 1
    return counts


def test_log_rows_match_the_reference_loop_on_a_char_5gram(char_5gram, char_5gram_counts):
    model, counts = char_5gram, char_5gram_counts
    rng = np.random.default_rng(12)
    observed = _observed_contexts(counts[1:])
    unobserved = [tuple(int(c) for c in rng.integers(0, len(model.tokens), size=4))
                  for _ in range(200)]
    assert any(ctx not in counts[4] for ctx in unobserved)
    short = [ctx[-m:] for ctx in observed[::7] for m in range(len(ctx) + 1)]
    _assert_rows_match_reference(model, counts, observed + unobserved + short + [()])
    assert set(model._backoff_rows) <= _backoff_contexts(counts)
    assert model._backoff_rows  # the 5-gram did memoize its backoff rows


def _hand_built_counts():
    """(2, 0, 1) is observed but (0, 1) is not, and (3, 4) is observed but
    (4,) is not."""
    return [
        {(): {0: 3, 1: 2, 2: 1, 3: 1, 4: 1}},
        {(1,): {2: 2, 0: 1}, (0,): {1: 1}},
        {(3, 4): {0: 4}},
        {(2, 0, 1): {3: 1, 4: 2}},
        {(3, 2, 0, 1): {1: 5}},
    ]


def _hand_built_5gram():
    return NGramModel(5, "char", ["a", "b", "c", "d", "e"], counts=_hand_built_counts())


def test_observed_context_with_an_unobserved_suffix():
    """Both levels fall through to the shorter row."""
    model = _hand_built_5gram()
    contexts = [ctx for m in range(5) for ctx in itertools.product(range(5), repeat=m)]
    _assert_rows_match_reference(model, _hand_built_counts(), contexts)
    # Every observed context shorter than order - 1: each one's log row reads
    # it, and (3, 2, 0, 1) reads (2, 0, 1), which reads (1,) through the
    # unobserved (0, 1).
    assert set(model._backoff_rows) == {(0,), (1,), (3, 4), (2, 0, 1)}


def test_each_observed_context_is_interpolated_at_most_once():
    """Log rows of all 781 contexts, shortest first and then longest first: a
    short context's row is kept for the longer contexts that back off to it,
    and no unobserved context's lookup drops an observed context's row."""
    model = _hand_built_5gram()
    seen = []
    interpolate = model._interpolate

    def counted(lower, ctx):
        seen.append(ctx)
        return interpolate(lower, ctx)

    model._interpolate = counted
    contexts = [ctx for m in range(5) for ctx in itertools.product(range(5), repeat=m)]
    for ctx in contexts + contexts[::-1]:
        model.log_rows(ctx)
    assert sorted(seen) == sorted(_observed_contexts(_hand_built_counts()[1:]))


def test_unobserved_context_shares_the_row_of_its_longest_observed_suffix(
    trained_word_lm, tiny_vocab
):
    model = _hand_built_5gram()
    suffixes = {(0, 2, 0, 1): (2, 0, 1), (0, 3, 4): (3, 4), (1, 0, 1): (1,), (3, 0, 1): (1,),
                (4, 4): ()}
    for ctx, suffix in suffixes.items():
        sums, logs = model.cumulative_distribution(ctx), model.log_rows(ctx)
        assert model.cumulative_distribution(suffix) is sums
        assert model.log_rows(suffix) is logs
        expected = cumulative_sums(model.full_distribution(ctx))
        assert list(map(float.hex, sums.tolist())) == list(map(float.hex, expected.tolist()))
        assert list(map(float.hex, logs.tolist())) == [
            float.hex(math.log(model.prob(token, ctx))) for token in range(5)
        ]
    # <eos> never starts a bigram: its history shares the unigram's row.
    word_lm, eos = trained_word_lm, (tiny_vocab.eos_id,)
    assert word_lm.cumulative_distribution(eos) is word_lm.cumulative_distribution(())
    assert word_lm.log_rows(eos) is word_lm.log_rows(())


def test_backoff_memo_rows_are_read_only(char_5gram, char_5gram_counts):
    for ctx in list(char_5gram_counts[4])[:50]:
        char_5gram.log_rows(ctx)
    assert char_5gram._backoff_rows
    for row in char_5gram._backoff_rows.values():
        assert not row.flags.writeable
        with pytest.raises(ValueError):
            row[0] = 0.0


def test_backoff_memo_holds_at_most_the_observed_short_contexts(char_5gram, char_5gram_counts):
    rng = np.random.default_rng(13)
    for _ in range(500):
        ctx = tuple(int(c) for c in rng.integers(0, len(char_5gram.tokens), size=4))
        char_5gram.log_rows(ctx)
    for ctx in char_5gram_counts[4]:
        char_5gram.log_rows(ctx)
    allowed = _backoff_contexts(char_5gram_counts)
    assert set(char_5gram._backoff_rows) <= allowed
    assert len(char_5gram._backoff_rows) <= len(allowed)


def test_log_row_memo_holds_at_most_one_row_per_observed_context(char_5gram, char_5gram_counts):
    model, observed = char_5gram, _observed_contexts(char_5gram_counts)
    rng = np.random.default_rng(14)
    for _ in range(2 * len(observed)):
        model.log_rows(tuple(int(c) for c in rng.integers(0, len(model.tokens), size=4)))
    for ctx in observed:
        model.log_rows(ctx)
    assert set(model._log_rows) == set(observed)


def test_bigram_word_model_memoizes_nothing(trained_word_lm):
    model = trained_word_lm
    for ctx in [()] + [(token,) for token in range(len(model.tokens))]:
        model.log_rows(ctx)
        model.full_distribution(ctx)
        model.cumulative_distribution(ctx)
    assert model._backoff_rows == {}


def test_uniform_model():
    model = NGramModel(2, "word", ("x", "y", "z", "<UNK>", EOS))
    for token in range(5):
        assert model.prob(token, ()) == pytest.approx(0.2, abs=1e-15)
        assert model.prob(token, (1,)) == pytest.approx(0.2, abs=1e-15)


def test_char_level_training(tiny_vocab):
    model = train_ngram(CORPUS, 3, "char", tiny_vocab)
    assert model.tokens == tiny_vocab.label_set
    dist = model.full_distribution(())
    assert abs(dist.sum() - 1.0) < 1e-9

    derived = train_ngram(CORPUS, 3, "char")
    assert derived.tokens == tiny_vocab.label_set


def test_char_level_rejects_unknown_characters(tiny_vocab):
    with pytest.raises(ValueError, match="outside the label inventory"):
        train_ngram([["dog"]], 2, "char", tiny_vocab)


def test_word_level_requires_vocabulary():
    with pytest.raises(ValueError, match="requires a vocabulary"):
        train_ngram(CORPUS, 2, "word")


def test_order_bounds():
    with pytest.raises(ValueError):
        NGramModel(0, "word", ("a", EOS))
    with pytest.raises(ValueError):
        NGramModel(6, "word", ("a", EOS))
    with pytest.raises(ValueError):  # a model file's 2.0 would slice contexts with a float
        NGramModel(2.0, "word", ("a", EOS))


def test_empty_corpus_rejected(tiny_vocab):
    with pytest.raises(ValueError, match="empty corpus"):
        train_ngram([], 2, "word", tiny_vocab)
    with pytest.raises(ValueError, match="empty corpus"):
        train_ngram([[]], 2, "word", tiny_vocab)


def test_higher_order_sharpens_seen_continuations(trained_word_lm, tiny_vocab):
    ids = tiny_vocab.word_ids
    # "cat" always follows "a" in training, so conditioning should help
    assert trained_word_lm.prob(ids["cat"], (ids["a"],)) > trained_word_lm.prob(
        ids["cat"], ()
    )


def test_save_load_round_trip(tmp_path, tiny_vocab):
    rng = np.random.default_rng(9)
    sentences = [
        [tiny_vocab.words[i] for i in rng.integers(0, 3, size=rng.integers(1, 6))]
        for _ in range(30)
    ]
    model = train_ngram(sentences, 3, "word", tiny_vocab)
    path = tmp_path / "model.lm"
    save_model(model, path)
    loaded = load_model(path)
    assert loaded.order == model.order
    assert loaded.level == model.level
    assert loaded.tokens == model.tokens
    for _ in range(30):
        ctx = tuple(int(c) for c in rng.integers(0, 5, size=rng.integers(0, 3)))
        token = int(rng.integers(0, 5))
        assert loaded.prob(token, ctx) == model.prob(token, ctx)
    again = tmp_path / "again.lm"
    save_model(loaded, again)
    assert again.read_bytes() == path.read_bytes()


def _pack(code, values):
    return struct.pack(f"<{len(values)}{code}", *values)


def _v2_table(contexts, offsets, tokens, counts):
    """One count table as a version-2 model file holds it; a field given as
    bytes is taken as it is."""
    arrays = {"contexts": ("i", contexts), "offsets": ("q", offsets)}
    arrays.update(tokens=("i", tokens), counts=("q", counts))
    return {
        name: values if isinstance(values, bytes) else _pack(code, values)
        for name, (code, values) in arrays.items()
    }


def test_save_model_writes_the_count_dicts_it_was_given(tmp_path):
    """Version 2, flat: contexts keep the order they were given in, and each
    context's tokens ascend."""
    path = tmp_path / "model.lm"
    save_model(_hand_built_5gram(), path)
    payload = {
        "format": "beamfuse-ngram",
        "version": 2,
        "order": 5,
        "level": "char",
        "tokens": ["a", "b", "c", "d", "e"],
        "tables": [
            _v2_table([], [0, 5], [0, 1, 2, 3, 4], [3, 2, 1, 1, 1]),
            _v2_table([1, 0], [0, 2, 3], [0, 2, 1], [1, 2, 1]),
            _v2_table([3, 4], [0, 1], [0], [4]),
            _v2_table([2, 0, 1], [0, 2], [3, 4], [1, 2]),
            _v2_table([3, 2, 0, 1], [0, 1], [1], [5]),
        ],
    }
    assert path.read_bytes() == pickle.dumps(payload)
    again = tmp_path / "again.lm"
    save_model(load_model(path), again)
    assert again.read_bytes() == path.read_bytes()


def _vocab20k_shaped_bigram():
    """20,002 tokens, 11,430 seen ones, 11,429 one-word contexts and 16,326
    entries after them, like the vocab20k benchmark's word model."""
    rng = np.random.default_rng(20)
    tokens = [f"w{i:05d}" for i in range(20000)] + ["<UNK>", EOS]
    seen = rng.permutation(len(tokens))[:11430].tolist()
    unigram = {token: 1 + i % 4 for i, token in enumerate(seen)}
    followers = rng.choice(seen, 2 * len(seen)).tolist()
    bigram = {}
    for i, ctx in enumerate(seen[1:]):
        pair = followers[2 * i:2 * i + 1 + (i % 7 < 3)]
        bigram[(ctx,)] = {token: 1 + (i + j) % 3 for j, token in enumerate(pair)}
    return NGramModel(2, "word", tokens, counts=[{(): unigram}, bigram])


def test_loaded_word_bigram_retains_under_5_mib(tmp_path):
    """Flat count tables: one dict per context retained 8.1 MiB here."""
    path = tmp_path / "word.lm"
    save_model(_vocab20k_shaped_bigram(), path)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        model = load_model(path)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert model.prob(0, (1,)) > 0.0
    assert retained < 5 * 2**20


def test_load_rejects_foreign_payload(tmp_path):
    path = tmp_path / "bad.lm"
    path.write_bytes(b"not a model")
    with pytest.raises(ValueError, match="not a language-model file"):
        load_model(path)


@pytest.mark.parametrize(
    "counts, problem",
    [
        ([{(): {0: -5, 1: 1}}, {}], "not an int > 0"),  # prob(1, ()) would be -1.0
        ([{(): {0: 0, 1: 1}}, {}], "not an int > 0"),
        ([{(): {0: 1.5}}, {}], "not an int > 0"),
        ([{(): {0: True}}, {}], "not an int > 0"),
        ([{(): {}}, {}], "holds no count"),
        ([{(): {0: 1}}, {(0,): {7: 1}}], "outside the inventory"),
        ([{(): {0: 1}}, {(9,): {1: 1}}], "outside the inventory"),
        ([{(): {-1: 1}}, {}], "outside the inventory"),
        ([{(): {0: 1}}, {(0,): {"b": 1}}], "outside the inventory"),
        ([{(): {0: 1}}, {(0, 1): {1: 1}}], "length is not 1"),
        ([{(0,): {0: 1}}, {}], "length is not 0"),
        ([{(): {0: 2**63}}, {}], "sum above"),  # does not fit an int64
        ([{(): {0: 2**62, 1: 2**62}}, {}], "sum above"),  # each count does
    ],
)
def test_malformed_count_tables_are_rejected(counts, problem):
    with pytest.raises(ValueError, match=problem):
        NGramModel(2, "word", ["a", "b"], counts=counts)


@pytest.mark.parametrize(
    "counts, problem",
    [
        ([{(): {0: 1, 1: True}}, {}], "not an int > 0"),
        ([{(): {0: 1, 1: 1}}, {(True,): {1: 1}}], "outside the inventory"),
        ([{(): {0: 1, 1: 1.0}}, {}], "not an int > 0"),
    ],
    ids=["bool-count", "bool-context-token", "float-count"],
)
def test_count_types_are_checked_per_element(tmp_path, counts, problem):
    """True == 1 == 1.0, so a check over distinct values would let a bool or
    a float hide behind an equal int already in the table."""
    with pytest.raises(ValueError, match=problem):
        NGramModel(2, "word", ["a", "b"], counts=counts)
    path = tmp_path / "model.lm"
    payload = {"format": "beamfuse-ngram", "version": 1, "order": 2, "level": "word"}
    path.write_bytes(pickle.dumps({**payload, "tokens": ["a", "b"], "counts": counts}))
    with pytest.raises(ValueError, match="unsupported model version 1"):
        load_model(path)


def test_counts_summing_to_the_int64_maximum_load():
    model = NGramModel(2, "word", ["a", "b"], counts=[{(): {0: 2**62, 1: 2**62 - 1}}, {}])
    assert model.prob(0, ()) == (2**62 + 2 * 0.5) / (2**63 - 1 + 2)


def test_duplicate_tokens_are_rejected():
    with pytest.raises(ValueError, match="duplicate tokens"):
        NGramModel(2, "word", ["a", "b", "a"])


def _v2_payload(**bigram_fields):
    """A word bigram over (a, b, c) as a version-2 file holds it, with any
    field of its bigram table replaced by *bigram_fields*."""
    bigram = {"contexts": [0, 1], "offsets": [0, 2, 3], "tokens": [1, 2, 0], "counts": [1, 1, 1]}
    bigram.update(bigram_fields)
    return {
        "format": "beamfuse-ngram",
        "version": 2,
        "order": 2,
        "level": "word",
        "tokens": ["a", "b", "c"],
        "tables": [_v2_table([], [0, 3], [0, 1, 2], [2, 1, 1]), _v2_table(**bigram)],
    }


def test_load_rejects_out_of_inventory_counts(tmp_path):
    """A model file naming a token the inventory lacks fails at load, not
    with an IndexError from the first cumulative distribution."""
    path = tmp_path / "model.lm"
    path.write_bytes(pickle.dumps(_v2_payload(tokens=[1, 7, 0])))
    with pytest.raises(ValueError, match="malformed language-model file"):
        load_model(path)


def test_v2_payload_loads(tmp_path):
    path = tmp_path / "model.lm"
    path.write_bytes(pickle.dumps(_v2_payload()))
    model = load_model(path)
    assert model.prob(1, (0,)) == (1 + 2 * model.prob(1, ())) / (2 + 2)
    counts = [{(): {0: 2, 1: 1, 2: 1}}, {(0,): {1: 1, 2: 1}, (1,): {0: 1}}]
    assert model.full_distribution((0,)).tolist() == NGramModel(
        2, "word", ["a", "b", "c"], counts=counts
    ).full_distribution((0,)).tolist()


@pytest.mark.parametrize(
    "change, problem",
    [
        ({"tokens": _pack("i", [1, 2, 0]) + b"\0"}, "not a whole number of items"),
        ({"contexts": [0]}, "lengths do not match"),  # two rows need two contexts
        ({"offsets": [1, 2, 3]}, "lengths do not match"),  # the first row starts at 0
        ({"offsets": [0, 2, 4]}, "lengths do not match"),  # the last ends at len(tokens)
        ({"counts": [1, 1]}, "lengths do not match"),  # one count per token
        ({"offsets": [0, 0, 3]}, "holds no count"),  # an empty row
        ({"tokens": [1, 3, 0]}, "outside the inventory"),
        ({"tokens": [-1, 2, 0]}, "outside the inventory"),
        ({"contexts": [0, 3]}, "outside the inventory"),
        ({"counts": [1, 0, 1]}, "not an int > 0"),
        ({"tokens": [2, 1, 0]}, "do not rise strictly"),
        ({"tokens": [1, 1, 0]}, "do not rise strictly"),  # a token twice in a row
        ({"contexts": [0, 0]}, "a context twice"),
        ({"counts": [2**62, 2**62, 1]}, "sum above"),
    ],
    ids=[
        "ragged-bytes", "contexts", "first-offset", "last-offset", "counts-length",
        "empty-row", "token", "negative-token", "context-token", "zero-count",
        "descending", "repeated-token", "repeated-context", "row-sum",
    ],
)
def test_malformed_v2_tables_are_rejected(tmp_path, change, problem):
    """Each rule of the table check, reached through ``load_model``."""
    path = tmp_path / "model.lm"
    path.write_bytes(pickle.dumps(_v2_payload(**change)))
    with pytest.raises(ValueError, match="malformed language-model file") as caught:
        load_model(path)
    assert problem in str(caught.value.__cause__)


def test_a_repeated_empty_context_is_rejected(tmp_path):
    """At context length 0 every row's context is (), so two rows repeat it."""
    payload = _v2_payload()
    payload["tables"][0] = _v2_table([], [0, 1, 3], [0, 1, 2], [2, 1, 1])
    path = tmp_path / "model.lm"
    path.write_bytes(pickle.dumps(payload))
    with pytest.raises(ValueError, match="malformed language-model file") as caught:
        load_model(path)
    assert "a context twice" in str(caught.value.__cause__)


def test_counts_summing_to_the_int64_maximum_load_from_a_file(tmp_path):
    path = tmp_path / "model.lm"
    path.write_bytes(pickle.dumps(_v2_payload(counts=[2**62, 2**62 - 1, 1])))
    assert load_model(path)._tables[1].totals.tolist() == [2**63 - 1, 1]
