"""Vocabulary construction, label sequences and file round trips."""

import re

import numpy as np
import pytest

from beamfuse import (
    BLANK,
    EOS,
    SPACE,
    UNK,
    Vocabulary,
    build_vocab,
    from_char_labels,
    load_corpus,
    load_vocabulary,
    save_vocabulary,
    to_char_labels,
    tokenize_line,
)


def test_tokenize_lowercases_and_splits():
    assert tokenize_line("A  Cat\teats\n") == ["a", "cat", "eats"]
    assert tokenize_line("   ") == []


def test_to_char_labels_inserts_space_separators():
    assert to_char_labels(["a", "cat"]) == ["a", SPACE, "c", "a", "t"]
    assert to_char_labels(["cat"]) == ["c", "a", "t"]
    assert to_char_labels([]) == []


def test_to_char_labels_rejects_empty_word():
    with pytest.raises(ValueError):
        to_char_labels(["a", ""])


def test_from_char_labels_round_trip():
    words = ["a", "cat", "eats"]
    assert from_char_labels(to_char_labels(words)) == words
    assert from_char_labels([]) == []


def test_char_label_round_trip_random_words():
    rng = np.random.default_rng(7)
    alphabet = "abcdefg"
    for _ in range(200):
        n = int(rng.integers(1, 6))
        words = [
            "".join(rng.choice(list(alphabet), size=rng.integers(1, 8)))
            for _ in range(n)
        ]
        assert from_char_labels(to_char_labels(words)) == words


def test_build_vocab_ids_are_sorted_spellings(tiny_vocab):
    assert tiny_vocab.words == ("a", "cat", "eats")
    assert tiny_vocab.word_ids == {"a": 0, "cat": 1, "eats": 2}
    assert tiny_vocab.unk_id == 3
    assert tiny_vocab.eos_id == 4
    assert tiny_vocab.lm_tokens == ("a", "cat", "eats", UNK, EOS)
    assert tiny_vocab.spelled_count == 3


def test_build_vocab_caps_by_frequency_then_spelling():
    sentences = [["b", "a", "a"], ["b", "c"]]
    # freq: a=2, b=2, c=1; cap 2 keeps a and b (ties prefer earlier spelling)
    vocab = build_vocab(sentences, 2)
    assert vocab.words == ("a", "b")

    vocab1 = build_vocab([["a", "a", "b"]], 1)
    assert vocab1.words == ("a",)


def test_label_set_is_sorted_chars_plus_separators(tiny_vocab):
    assert tiny_vocab.label_set == ("a", "c", "e", "s", "t", SPACE, EOS)


def test_lookup_returns_unk_for_unknown(tiny_vocab):
    assert tiny_vocab.lookup("cat") == 1
    assert tiny_vocab.lookup("dog") == tiny_vocab.unk_id
    assert tiny_vocab.words[2] == "eats"


def test_from_words_rejects_bad_spellings():
    with pytest.raises(ValueError):
        Vocabulary.from_words(["a", ""])
    with pytest.raises(ValueError):
        Vocabulary.from_words(["a b"])


@pytest.mark.parametrize("word", ["a\u00a0b", "a\u3000b", "a\x1fb"])
def test_from_words_rejects_every_kind_of_whitespace(word):
    """No-break space, ideographic space and a unit separator all split words."""
    with pytest.raises(ValueError, match=f"^invalid vocabulary word: {re.escape(repr(word))}$"):
        Vocabulary.from_words(["a", word, "b"])


def test_from_words_accepts_a_zero_width_space():
    """U+200B is not whitespace to str.isspace(), so it spells a letter."""
    vocab = Vocabulary.from_words(["a\u200bb", "a"])
    assert vocab.words == ("a", "a\u200bb")
    assert vocab.label_set == ("a", "b", "\u200b", SPACE, EOS)


@pytest.mark.parametrize("token", [UNK, EOS, SPACE, BLANK])
def test_from_words_rejects_reserved_tokens(token):
    with pytest.raises(ValueError, match="reserved token"):
        Vocabulary.from_words(["a", token])


def test_load_vocabulary_numbers_the_bad_line(tmp_path):
    path = tmp_path / "vocab.txt"
    path.write_text("a\n\n  \nb c\n", encoding="utf-8")
    with pytest.raises(ValueError, match=r"vocab\.txt:4: invalid vocabulary word: 'b c'"):
        load_vocabulary(path)


def test_load_vocabulary_numbers_the_first_bad_line(tmp_path):
    path = tmp_path / "vocab.txt"
    path.write_text("a\nb\u3000c\n<eos>\nd\x1fe\n", encoding="utf-8")
    bad = re.escape(repr("b\u3000c"))
    with pytest.raises(ValueError, match=rf"vocab\.txt:2: invalid vocabulary word: {bad}$"):
        load_vocabulary(path)
    path.write_text("a\n<eos>\nb\u3000c\n", encoding="utf-8")
    with pytest.raises(ValueError, match=r"vocab\.txt:2: reserved token '<eos>'"):
        load_vocabulary(path)


def test_vocabulary_file_round_trip(tmp_path, tiny_vocab):
    path = tmp_path / "vocab.txt"
    save_vocabulary(tiny_vocab, path)
    assert path.read_text(encoding="utf-8") == "a\ncat\neats\n"
    loaded = load_vocabulary(path)
    assert loaded == tiny_vocab


def test_load_corpus_skips_blank_lines(tmp_path):
    path = tmp_path / "corpus.txt"
    path.write_text("a cat\n\n  \ncat eats\n", encoding="utf-8")
    assert load_corpus(path) == [["a", "cat"], ["cat", "eats"]]
