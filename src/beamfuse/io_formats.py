"""Posterior-matrix TSV files, n-best output, and synthetic fixtures."""

from __future__ import annotations

from pathlib import Path
from typing import Sequence

import numpy as np

from .ctc import BadFrameError, PosteriorMatrix, check_column_labels
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
    """Parse the file; ``PosteriorMatrix``'s earliest bad frame becomes ``path:line``."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if not lines:
        raise PosteriorFormatError(f"{path}:1: empty posterior file")
    labels = tuple(lines[0].split("\t"))
    try:
        check_column_labels(labels)
    except ValueError as exc:
        raise PosteriorFormatError(f"{path}:1: {exc}") from None
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
            rows.append([float(field) for field in fields])
        except ValueError:
            raise PosteriorFormatError(f"{path}:{number}: non-numeric probability") from None
    if not rows:
        raise PosteriorFormatError(f"{path}:1: posterior file has no frame rows")
    try:
        return PosteriorMatrix(labels, np.array(rows))
    except BadFrameError as exc:
        what = f"{exc.fault} probability"
        if exc.fault == "sum":
            what = f"row sums to {exc.total:.8f}, expected 1"
        raise PosteriorFormatError(f"{path}:{exc.frame + 2}: {what}") from None


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


def write_nbest(results: Sequence[DecodeResult], path: str | Path) -> None:
    """N-best blocks in input order, separated by blank lines; one line per
    hypothesis: rank, joint/ctc/att/lm scores, text."""
    blocks = [
        "\n".join(
            f"{rank}\t{hyp.joint:.6f}\t{hyp.ctc_score:.6f}"
            f"\t{hyp.att_score:.6f}\t{hyp.lm_score:.6f}\t{hyp.text}"
            for rank, hyp in enumerate(result.hypotheses, start=1)
        )
        for result in results
    ]
    Path(path).write_text("\n\n".join(blocks) + "\n", encoding="utf-8")


# ======================================================================
# synthetic text
# ======================================================================


_WORD_LENGTHS = range(2, 8)


def synth_vocabulary(n_words: int, seed: int = 0, alphabet: str = "abcdefghij") -> list[str]:
    """Distinct random words of 2 to 7 letters, sorted; deterministic per seed."""
    if n_words < 1:
        raise ValueError("n_words must be >= 1")
    capacity = sum(len(alphabet) ** length for length in _WORD_LENGTHS)
    if n_words > capacity // 2:
        raise ValueError("alphabet too small for that many distinct words")
    rng = np.random.default_rng(seed)
    letters = list(alphabet)
    words: set[str] = set()
    while len(words) < n_words:
        length = int(rng.integers(_WORD_LENGTHS.start, _WORD_LENGTHS.stop))
        words.add("".join(rng.choice(letters, size=length)))
    return sorted(words)


class MarkovText:
    """Deterministic bigram-structured sentence sampler over a word list.

    Each word gets ``BRANCHING`` preferred successors fixed by the structure
    seed; sampling follows one of them with probability ``FOLLOW`` and
    otherwise jumps uniformly.  Training text and test transcripts drawn
    from the same chain give trained models real signal about the test set.
    """

    BRANCHING = 3
    FOLLOW = 0.8

    def __init__(self, words: Sequence[str], seed: int):
        if not words:
            raise ValueError("empty word list")
        self.words = list(words)
        rng = np.random.default_rng(seed)
        self._successors = rng.integers(0, len(self.words), size=(len(self.words), self.BRANCHING))

    def sentences(
        self, count: int, min_words: int, max_words: int, seed: int
    ) -> list[list[str]]:
        if not 1 <= min_words <= max_words:
            raise ValueError("need 1 <= min_words <= max_words")
        rng = np.random.default_rng(seed)
        n = len(self.words)
        out = []
        for _ in range(count):
            length = int(rng.integers(min_words, max_words + 1))
            current = int(rng.integers(n))
            sentence = [current]
            for _ in range(length - 1):
                if rng.random() < self.FOLLOW:
                    current = int(self._successors[current, int(rng.integers(self.BRANCHING))])
                else:
                    current = int(rng.integers(n))
                sentence.append(current)
            out.append([self.words[i] for i in sentence])
        return out
