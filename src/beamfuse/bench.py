"""Wall-clock comparison of fusion strategies against a no-LM baseline."""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from .ctc import PosteriorMatrix
from .decoder import DecodeConfig, decode
from .metrics import char_error_rate, word_error_rate

BASELINE = "none"


@dataclass(frozen=True)
class BenchSystem:
    """One timed configuration: a strategy name plus its LM scorer."""

    name: str
    vocab_size: int | None
    lm: object | None


@dataclass(frozen=True)
class BenchRow:
    strategy: str
    vocab_size: int | None
    seconds: float
    ratio: float
    cer: float
    wer: float


def run_benchmark(
    utterances: Sequence[tuple[PosteriorMatrix, Sequence[str]]],
    systems: Sequence[BenchSystem],
    config: DecodeConfig,
    repetitions: int = 3,
) -> list[BenchRow]:
    """Median-of-repetitions decoding time per system, plus error rates.

    Each repetition decodes the whole set sequentially in this thread; the
    reported time is the median over repetitions, which shrugs off one-off
    scheduling noise and cold caches.  Ratios are against the ``none``
    baseline system, which must be present.  Accuracy columns are
    deterministic; timing columns are wall clock and vary run to run.
    """
    if repetitions < 3:
        raise ValueError("repetitions must be >= 3")
    if not utterances:
        raise ValueError("empty evaluation set")
    if all(system.name != BASELINE for system in systems):
        raise ValueError(f"benchmark requires a {BASELINE!r} baseline system")

    measured = []
    for system in systems:
        times = []
        texts: list[str] | None = None
        for _ in range(repetitions):
            start = time.perf_counter()
            decoded = [decode(matrix, system.lm, config=config) for matrix, _ in utterances]
            times.append(time.perf_counter() - start)
            if texts is None:
                texts = [result.hypotheses[0].text for result in decoded]
        assert texts is not None
        references = [" ".join(ref) for _, ref in utterances]
        cer = statistics.mean(
            char_error_rate(text, ref) for text, ref in zip(texts, references)
        )
        wer = statistics.mean(
            word_error_rate(text.split(), ref.split()) for text, ref in zip(texts, references)
        )
        measured.append((system, statistics.median(times), cer, wer))

    base_time = next(seconds for system, seconds, _, _ in measured if system.name == BASELINE)
    return [
        BenchRow(system.name, system.vocab_size, seconds, seconds / base_time, cer, wer)
        for system, seconds, cer, wer in measured
    ]


def format_report(rows: Sequence[BenchRow]) -> str:
    lines = ["strategy\tvocab_size\tseconds\tratio\tcer\twer"]
    for row in rows:
        size = "-" if row.vocab_size is None else str(row.vocab_size)
        lines.append(
            f"{row.strategy}\t{size}\t{row.seconds:.4f}\t{row.ratio:.3f}"
            f"\t{row.cer:.4f}\t{row.wer:.4f}"
        )
    return "\n".join(lines) + "\n"


def write_report(rows: Sequence[BenchRow], path: str | Path) -> None:
    Path(path).write_text(format_report(rows), encoding="utf-8")
