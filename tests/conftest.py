"""Shared fixtures: a tiny hand-checkable corpus and models trained on it."""

import pytest

from beamfuse import NGramModel, Vocabulary, build_vocab, train_ngram

CORPUS = [["a", "cat", "eats"]]


@pytest.fixture(scope="session")
def tiny_vocab() -> Vocabulary:
    # words sorted: a=0, cat=1, eats=2; unk=3, eos=4
    return build_vocab(CORPUS, 10)


@pytest.fixture(scope="session")
def tiny_corpus():
    return [list(sentence) for sentence in CORPUS]


@pytest.fixture(scope="session")
def uniform_char_lm(tiny_vocab) -> NGramModel:
    # 7 labels: a c e s t <space> <eos>, each 1/7
    return NGramModel(2, "char", tiny_vocab.label_set)


@pytest.fixture(scope="session")
def uniform_word_lm(tiny_vocab) -> NGramModel:
    # 5 tokens: a cat eats <UNK> <eos>, each 1/5
    return NGramModel(2, "word", tiny_vocab.lm_tokens)


@pytest.fixture(scope="session")
def trained_word_lm(tiny_vocab) -> NGramModel:
    return train_ngram(CORPUS, 2, "word", tiny_vocab)


@pytest.fixture(scope="session")
def trained_char_lm(tiny_vocab) -> NGramModel:
    return train_ngram(CORPUS, 3, "char", tiny_vocab)
