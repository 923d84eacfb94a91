"""Posterior-matrix TSV files, n-best output, and synthetic fixtures."""

from __future__ import annotations

import math
from pathlib import Path
from typing import Sequence

import numpy as np

from .ctc import PosteriorMatrix
from .decoder import DecodeResult
from .vocab import BLANK, EOS, Vocabulary, to_char_labels

# Concentration of the Dirichlet row draws.  The true column's expected
# mass is the requested peak; lower concentration widens the fluctuation
# around it, so moderate peaks produce genuine acoustic confusions where
# another label outweighs the truth instead of a uniform noise floor.
_NOISE_CONCENTRATION = 8.0


class PosteriorFormatError(ValueError):
    """Malformed posterior file; the message carries the offending line."""


def ctc_labels(vocab: Vocabulary) -> tuple[str, ...]:
    """Posterior-column inventory: vocabulary characters, ``<space>``, ``<blank>``."""
    return tuple(label for label in vocab.label_set if label != EOS) + (BLANK,)


def save_posteriors(matrix: PosteriorMatrix, path: str | Path) -> None:
    """Tab-separated text: a header of label names, then one row per frame.

    Probabilities are written with 17 significant digits so a load after a
    save reproduces the matrix exactly.
    """
    lines = ["\t".join(matrix.labels)]
    for row in matrix.probs:
        lines.append("\t".join(f"{value:.17g}" for value in row))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_posteriors(
    path: str | Path, expected_labels: Sequence[str] | None = None
) -> PosteriorMatrix:
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if not lines:
        raise PosteriorFormatError(f"{path}:1: empty posterior file")
    labels = tuple(lines[0].split("\t"))
    if len(set(labels)) != len(labels):
        raise PosteriorFormatError(f"{path}:1: duplicate label in header")
    if BLANK not in labels:
        raise PosteriorFormatError(f"{path}:1: header is missing {BLANK}")
    if expected_labels is not None:
        allowed = set(expected_labels)
        for label in labels:
            if label not in allowed:
                raise PosteriorFormatError(f"{path}:1: unknown label {label!r}")
    rows = []
    for number, line in enumerate(lines[1:], start=2):
        fields = line.split("\t")
        if len(fields) != len(labels):
            raise PosteriorFormatError(
                f"{path}:{number}: expected {len(labels)} fields, got {len(fields)}"
            )
        try:
            row = [float(field) for field in fields]
        except ValueError:
            raise PosteriorFormatError(f"{path}:{number}: non-numeric probability") from None
        if not all(math.isfinite(value) for value in row):
            raise PosteriorFormatError(f"{path}:{number}: non-finite probability")
        if any(value < 0.0 for value in row):
            raise PosteriorFormatError(f"{path}:{number}: negative probability")
        total = sum(row)
        if abs(total - 1.0) > 1e-6:
            raise PosteriorFormatError(f"{path}:{number}: row sums to {total:.8f}, expected 1")
        rows.append(row)
    if not rows:
        raise PosteriorFormatError(f"{path}:1: posterior file has no frame rows")
    return PosteriorMatrix(labels, np.array(rows))


def synth_posteriors(
    transcript: Sequence[str],
    labels: Sequence[str],
    frames_per_label: int = 1,
    peak: float = 0.9,
    seed: int = 0,
) -> PosteriorMatrix:
    """Deterministic peaked posteriors for a transcript.

    Every character label of the spelled transcript gets ``frames_per_label``
    frames drawn from a seeded Dirichlet whose expected mass on the true
    column is *peak*; the draw fluctuates, so at moderate peaks another
    column occasionally outweighs the truth.  One blank-peaked frame
    separates repeated labels so the transcript survives CTC collapsing;
    ``peak == 1.0`` produces exact one-hot rows, which a greedy decode
    recovers exactly.
    """
    labels = tuple(labels)
    columns = {label: i for i, label in enumerate(labels)}
    if BLANK not in columns:
        raise ValueError("labels must include <blank>")
    if frames_per_label < 1:
        raise ValueError("frames_per_label must be >= 1")
    if not 1.0 / len(labels) < peak <= 1.0:
        raise ValueError("peak must lie in (1/num_labels, 1]")
    chars = to_char_labels(transcript)
    for label in chars:
        if label not in columns:
            raise ValueError(f"transcript label {label!r} outside the posterior label set")

    rng = np.random.default_rng(seed)
    width = len(labels)
    off_peak = _NOISE_CONCENTRATION * (1.0 - peak) / (width - 1)

    def frame(column: int) -> np.ndarray:
        if peak == 1.0:
            row = np.zeros(width)
            row[column] = 1.0
            return row
        alpha = np.full(width, off_peak)
        alpha[column] = _NOISE_CONCENTRATION * peak
        return rng.dirichlet(alpha)

    rows = []
    previous = None
    blank_column = columns[BLANK]
    for label in chars:
        if label == previous:
            rows.append(frame(blank_column))
        for _ in range(frames_per_label):
            rows.append(frame(columns[label]))
        previous = label
    return PosteriorMatrix(labels, np.array(rows))


def format_nbest_block(result: DecodeResult) -> list[str]:
    """One line per hypothesis: rank, joint/ctc/att/lm scores, text."""
    lines = []
    for rank, hyp in enumerate(result.hypotheses, start=1):
        lines.append(
            f"{rank}\t{hyp.joint:.6f}\t{hyp.ctc_score:.6f}"
            f"\t{hyp.att_score:.6f}\t{hyp.lm_score:.6f}\t{hyp.text}"
        )
    return lines


def write_nbest(results: Sequence[DecodeResult], path: str | Path) -> None:
    """N-best blocks in input order, separated by blank lines."""
    blocks = ["\n".join(format_nbest_block(result)) for result in results]
    Path(path).write_text("\n\n".join(blocks) + "\n", encoding="utf-8")


# ======================================================================
# synthetic text
# ======================================================================


def synth_vocabulary(
    n_words: int,
    seed: int = 0,
    alphabet: str = "abcdefghij",
    min_len: int = 2,
    max_len: int = 7,
) -> list[str]:
    """Distinct random words, sorted; deterministic per seed."""
    if n_words < 1:
        raise ValueError("n_words must be >= 1")
    if not 1 <= min_len <= max_len:
        raise ValueError("need 1 <= min_len <= max_len")
    capacity = sum(len(alphabet) ** length for length in range(min_len, max_len + 1))
    if n_words > capacity // 2:
        raise ValueError("alphabet too small for that many distinct words")
    rng = np.random.default_rng(seed)
    letters = list(alphabet)
    words: set[str] = set()
    while len(words) < n_words:
        length = int(rng.integers(min_len, max_len + 1))
        words.add("".join(rng.choice(letters, size=length)))
    return sorted(words)


class MarkovText:
    """Deterministic bigram-structured sentence sampler over a word list.

    Each word gets a small preferred-successor set fixed by the structure
    seed; sampling follows a preferred successor most of the time and
    otherwise jumps uniformly.  Training text and test transcripts drawn
    from the same chain give trained models real signal about the test set.
    """

    def __init__(self, words: Sequence[str], seed: int, branching: int = 3, follow: float = 0.8):
        if not words:
            raise ValueError("empty word list")
        if not 0.0 <= follow <= 1.0:
            raise ValueError("follow must lie in [0, 1]")
        self.words = list(words)
        self.follow = follow
        rng = np.random.default_rng(seed)
        self._successors = rng.integers(0, len(self.words), size=(len(self.words), branching))

    def sentences(
        self, count: int, min_words: int, max_words: int, seed: int
    ) -> list[list[str]]:
        if not 1 <= min_words <= max_words:
            raise ValueError("need 1 <= min_words <= max_words")
        rng = np.random.default_rng(seed)
        n = len(self.words)
        branching = self._successors.shape[1]
        out = []
        for _ in range(count):
            length = int(rng.integers(min_words, max_words + 1))
            current = int(rng.integers(n))
            sentence = [current]
            for _ in range(length - 1):
                if rng.random() < self.follow:
                    current = int(self._successors[current, int(rng.integers(branching))])
                else:
                    current = int(rng.integers(n))
                sentence.append(current)
            out.append([self.words[i] for i in sentence])
        return out
