"""Corpus ingestion, character-label spelling, and ID-ordered vocabularies."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterable, Sequence

from .trie import PrefixTree

SPACE = "<space>"
EOS = "<eos>"
UNK = "<UNK>"
BLANK = "<blank>"

# Labels that close a word during decoding.
WORD_END_LABELS = frozenset({SPACE, EOS})
_RESERVED = frozenset({UNK, EOS, SPACE, BLANK})


def tokenize_line(text: str) -> list[str]:
    """Lowercase *text* and split it into words on whitespace."""
    return text.lower().split()


def to_char_labels(words: Sequence[str]) -> list[str]:
    """Spell out a word sequence as character labels.

    Characters of consecutive words are separated by a single ``<space>``
    label; there is no leading or trailing separator, so splitting the
    result on ``<space>`` recovers the word sequence exactly.
    """
    labels: list[str] = []
    for i, word in enumerate(words):
        if not word:
            raise ValueError("cannot spell an empty word")
        if i:
            labels.append(SPACE)
        labels.extend(word)
    return labels


def from_char_labels(labels: Sequence[str]) -> list[str]:
    """Invert :func:`to_char_labels` by splitting on ``<space>``."""
    words: list[str] = []
    current: list[str] = []
    for label in labels:
        if label == SPACE:
            words.append("".join(current))
            current = []
        else:
            current.append(label)
    words.append("".join(current))
    return [] if words == [""] else words


@dataclass(frozen=True)
class Vocabulary:
    """Spelled words with ascending IDs plus reserved ``<UNK>`` and ``<eos>``.

    Word IDs follow lexicographic order of the spellings, so the IDs of all
    words sharing a spelling prefix form one contiguous interval; prefix-tree
    interval queries rely on that.  ``unk_id`` and ``eos_id`` sit directly
    after the spelled words.
    """

    words: tuple[str, ...]
    label_set: tuple[str, ...]

    @classmethod
    def from_words(cls, words: Iterable[str], letters: Iterable[str] = ()) -> "Vocabulary":
        """*letters* widens the label set beyond the words' own characters."""
        unique = sorted(dict.fromkeys(words))  # linear when already sorted
        if not unique:
            raise ValueError("empty vocabulary")
        spelled = [*unique, *set(letters)]
        # Joining on a space and splitting on whitespace gives the words back
        # exactly when none is empty or holds a character that isspace().
        if " ".join(spelled).split() != spelled or not _RESERVED.isdisjoint(spelled):
            for word in spelled:  # name the first bad one
                _check_word(word)
        chars = sorted(set().union(*spelled))
        return cls(words=tuple(unique), label_set=tuple(chars) + (SPACE, EOS))

    unk_id = property(lambda self: len(self.words))
    eos_id = property(lambda self: len(self.words) + 1)

    @cached_property
    def word_ids(self) -> dict[str, int]:
        return {word: i for i, word in enumerate(self.words)}

    def lookup(self, word: str) -> int:
        """ID of *word*, or ``unk_id`` when it is not in the vocabulary."""
        return self.word_ids.get(word, self.unk_id)

    @cached_property
    def tree(self) -> PrefixTree:
        return PrefixTree.build(self.words, self.label_set[:-2])  # not <space> or <eos>

    @property
    def spelled_count(self) -> int:
        return len(self.words)

    @property
    def lm_tokens(self) -> tuple[str, ...]:
        """Word-LM inventory: spelled words followed by ``<UNK>`` and ``<eos>``."""
        return self.words + (UNK, EOS)


def _check_word(word: str) -> None:
    """A vocabulary word is non-empty, has no whitespace and is not reserved."""
    if not word or any(ch.isspace() for ch in word):
        raise ValueError(f"invalid vocabulary word: {word!r}")
    if word in _RESERVED:
        raise ValueError(f"reserved token {word!r} cannot be a vocabulary word")


def build_vocab(sentences: Sequence[Sequence[str]], max_size: int) -> Vocabulary:
    """Vocabulary of the *max_size* most frequent corpus words.

    Frequency ties break lexicographically; the surviving words are then
    re-sorted alphabetically for ID assignment.
    """
    if max_size < 1:
        raise ValueError("max_size must be >= 1")
    freq = Counter(token for sentence in sentences for token in sentence)
    if not freq:
        raise ValueError("empty corpus")
    ranked = sorted(freq.items(), key=lambda item: (-item[1], item[0]))
    return Vocabulary.from_words(word for word, _ in ranked[:max_size])


def load_corpus(path: str | Path) -> list[list[str]]:
    """Tokenized sentences from a UTF-8 text file, skipping blank lines."""
    sentences = []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        words = tokenize_line(line)
        if words:
            sentences.append(words)
    return sentences


def save_vocabulary(vocab: Vocabulary, path: str | Path) -> None:
    """One spelled word per line, in ID order."""
    Path(path).write_text("\n".join(vocab.words) + "\n", encoding="utf-8")


def load_vocabulary(path: str | Path) -> Vocabulary:
    """Read one word per line, skipping blank lines; IDs are re-assigned in
    sorted order.  A bad word is reported as ``path:line``."""
    words = [line.strip() for line in Path(path).read_text(encoding="utf-8").splitlines()]
    try:
        return Vocabulary.from_words(word for word in words if word)
    except ValueError:
        for number, word in enumerate(words, start=1):  # find the first bad line
            if word:
                try:
                    _check_word(word)
                except ValueError as exc:
                    raise ValueError(f"{path}:{number}: {exc}") from None
        raise
