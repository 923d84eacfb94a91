"""In-memory span recorder for the traced benchmark run.

A span is one call into a beamfuse layer: its name, start, end, the span
that was open when it began (its parent), and the utterance and system it
served.  Spans are opened by wrappers that the benchmark installs by
patching names on beamfuse classes, on scorer instances and on the decoder
module, and removes again when the traced pass ends; nothing under ``src/``
is edited.  Counts the wrappers see (beam sizes, survivors, empty-word
skips) are recorded at the same boundaries.
"""

from __future__ import annotations

from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter

import numpy as np

from beamfuse import CtcPrefixScorer, EmptyWordError, NGramModel, PrefixTree
from beamfuse import decoder as decoder_module

SPAN_NAMES = (
    "io.load",
    "decode",
    "io.write_nbest",
    "ctc.score",
    "ctc.extend",
    "ctc.final",
    "lm.score",
    "lm.final",
    "att.score",
    "att.final",
    "ngram.prob",
    "ngram.cumsum",
    "trie.descend",
)


class Tracer:
    """Spans in flat arrays (one entry per span) plus per-system counters."""

    def __init__(self):
        self.name_ids = {name: i for i, name in enumerate(SPAN_NAMES)}
        self.name = array("b")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.utt = array("l")
        self.system = array("b")
        self.utt_id = -1
        self.system_id = -1
        self.counts: Counter = Counter()  # (system_id, counter name) -> total
        self.per_decode: dict[tuple[int, int], list[int]] = {}  # (utt, system) -> [steps, extends]
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, bool, object]] = []

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------

    def open(self, name_id: int) -> int:
        index = len(self.name)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.utt.append(self.utt_id)
        self.system.append(self.system_id)
        self.end.append(0.0)
        self._stack.append(index)
        self.start.append(perf_counter())
        return index

    def close(self, index: int) -> None:
        self.end[index] = perf_counter()
        self._stack.pop()

    def call(self, name: str, fn, *args):
        """Run ``fn(*args)`` inside a span called *name*."""
        index = self.open(self.name_ids[name])
        try:
            return fn(*args)
        finally:
            self.close(index)

    def begin_request(self, utt: int, system: int) -> None:
        self.utt_id, self.system_id = utt, system
        self.per_decode[(utt, system)] = [0, 0]

    def _wrap(self, name: str, fn, before=None):
        name_id = self.name_ids[name]

        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            index = self.open(name_id)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(index)

        return traced

    def _wrap_lm_score(self, fn):
        name_id = self.name_ids["lm.score"]

        def traced(*args, **kwargs):
            index = self.open(name_id)
            try:
                return fn(*args, **kwargs)
            except EmptyWordError:
                self.counts[(self.system_id, "empty_word_skips")] += 1
                raise
            finally:
                self.close(index)

        return traced

    def _on_candidate_scores(self, args) -> None:
        _, states, columns = args
        self.counts[(self.system_id, "candidates")] += len(states) * len(columns)
        self.per_decode[(self.utt_id, self.system_id)][0] += 1

    def _on_extended_states(self, args) -> None:
        scorer, extensions = args
        self.counts[(self.system_id, "survivors")] += len(extensions)
        self.counts[(self.system_id, "frame_states")] += len(extensions) * scorer.matrix.n_frames
        self.per_decode[(self.utt_id, self.system_id)][1] += 1

    # ------------------------------------------------------------------
    # patching
    # ------------------------------------------------------------------

    def _patch(self, owner, attr: str, wrapper) -> None:
        had = attr in vars(owner)
        self._patches.append((owner, attr, had, vars(owner).get(attr)))
        setattr(owner, attr, wrapper)

    def install(self, systems) -> None:
        """Wrap every traced layer; *systems* supplies the scorer instances."""
        w = self._wrap
        self._patch(
            CtcPrefixScorer,
            "candidate_scores",
            w("ctc.score", CtcPrefixScorer.candidate_scores, self._on_candidate_scores),
        )
        self._patch(
            CtcPrefixScorer,
            "extended_states",
            w("ctc.extend", CtcPrefixScorer.extended_states, self._on_extended_states),
        )
        self._patch(decoder_module, "ctc_final", w("ctc.final", decoder_module.ctc_final))
        self._patch(NGramModel, "prob", w("ngram.prob", NGramModel.prob))
        self._patch(
            NGramModel,
            "cumulative_distribution",
            w("ngram.cumsum", NGramModel.cumulative_distribution),
        )
        self._patch(PrefixTree, "descend", w("trie.descend", PrefixTree.descend))
        for system in systems:
            if system.lm is not None:
                self._patch(system.lm, "score", self._wrap_lm_score(system.lm.score))
                self._patch(system.lm, "final", w("lm.final", system.lm.final))
            if system.att is not None:
                self._patch(system.att, "score", w("att.score", system.att.score))
                self._patch(system.att, "final", w("att.final", system.att.final))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, had, original = self._patches.pop()
            if had:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    # ------------------------------------------------------------------
    # analysis and output
    # ------------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.asarray(self.name, dtype=np.int8),
            "start": np.asarray(self.start),
            "end": np.asarray(self.end),
            "parent": np.asarray(self.parent, dtype=np.int64),
            "utt": np.asarray(self.utt, dtype=np.int64),
            "system": np.asarray(self.system, dtype=np.int8),
        }

    def self_times(self) -> np.ndarray:
        """Each span's duration minus the durations of its direct children.

        One thread runs every span, so a span's children are disjoint and
        lie inside it; their durations add up to the part they cover.
        """
        spans = self.arrays()
        duration = spans["end"] - spans["start"]
        covered = np.zeros_like(duration)
        child = spans["parent"] >= 0
        np.add.at(covered, spans["parent"][child], duration[child])
        return duration - covered

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(path, names=np.array(SPAN_NAMES), **self.arrays())
