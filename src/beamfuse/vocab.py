"""Corpus ingestion, character-label spelling, and ID-ordered vocabularies."""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

SPACE = "<space>"
EOS = "<eos>"
UNK = "<UNK>"
BLANK = "<blank>"

# Labels that close a word during decoding.
WORD_END_LABELS = frozenset({SPACE, EOS})


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
    word_ids: dict[str, int]
    unk_id: int
    eos_id: int
    label_set: tuple[str, ...]

    @classmethod
    def from_words(cls, words: Iterable[str], letters: Iterable[str] = ()) -> "Vocabulary":
        """*letters* widens the label set beyond the words' own characters."""
        unique = sorted(set(words))
        if not unique:
            raise ValueError("empty vocabulary")
        letters = set(letters)
        for word in (*unique, *letters):
            if not word or any(ch.isspace() for ch in word):
                raise ValueError(f"invalid vocabulary word: {word!r}")
        chars = sorted({ch for word in (*unique, *letters) for ch in word})
        return cls(
            words=tuple(unique),
            word_ids={word: i for i, word in enumerate(unique)},
            unk_id=len(unique),
            eos_id=len(unique) + 1,
            label_set=tuple(chars) + (SPACE, EOS),
        )

    def lookup(self, word: str) -> int:
        """ID of *word*, or ``unk_id`` when it is not in the vocabulary."""
        return self.word_ids.get(word, self.unk_id)

    def has_prefix(self, prefix: str) -> bool:
        """Whether some word's spelling starts with *prefix* (the empty one included)."""
        i = bisect_left(self.words, prefix)
        return i < len(self.words) and self.words[i].startswith(prefix)

    def spelling(self, word_id: int) -> str:
        return self.words[word_id]

    @property
    def spelled_count(self) -> int:
        return len(self.words)

    @property
    def lm_tokens(self) -> tuple[str, ...]:
        """Word-LM inventory: spelled words followed by ``<UNK>`` and ``<eos>``."""
        return self.words + (UNK, EOS)


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
    """Read one word per line; IDs are re-assigned in sorted order."""
    words = [line.strip() for line in Path(path).read_text(encoding="utf-8").splitlines()]
    return Vocabulary.from_words(word for word in words if word)
