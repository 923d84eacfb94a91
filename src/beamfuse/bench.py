"""Wall-clock comparison of fusion strategies against a no-LM baseline."""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass
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

    Each repetition decodes the whole set once per system, sequentially in
    this thread, taking the systems in turn on each utterance, so drift of
    the host's speed is shared by every system instead of landing on one.
    A system's time for a repetition is the sum of its decode times; the
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

    times = [[0.0] * repetitions for _ in systems]
    texts: list[list[str]] = [[] for _ in systems]
    for repetition in range(repetitions):
        for matrix, _ in utterances:
            for system, system_times, system_texts in zip(systems, times, texts):
                start = time.perf_counter()
                result = decode(matrix, system.lm, config=config)
                system_times[repetition] += time.perf_counter() - start
                if repetition == 0:
                    system_texts.append(result.hypotheses[0].text)

    references = [" ".join(ref) for _, ref in utterances]
    measured = []
    for system, system_times, system_texts in zip(systems, times, texts):
        pairs = list(zip(system_texts, references))
        cer = statistics.mean(char_error_rate(text, ref) for text, ref in pairs)
        wer = statistics.mean(word_error_rate(text.split(), ref.split()) for text, ref in pairs)
        measured.append((system, statistics.median(system_times), cer, wer))

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
