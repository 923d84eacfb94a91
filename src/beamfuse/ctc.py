"""CTC prefix-probability scoring over frame-level posterior matrices.

A hypothesis is scored by the total probability of every frame labelling
whose collapsed output (repeats merged, then blanks removed) begins with the
hypothesized character sequence.  The score updates incrementally per
appended label through a pair of forward vectors kept per hypothesis:

    nonblank[t]  log P(prefix fully emitted by frame t, frame t carries its
                 last label, first emission or a repeat)
    blank[t]     log P(prefix fully emitted by frame t, frame t is blank)

Extending a prefix g by label c sums, over the frame where c is first
emitted, the probability that g was complete just before; frames after that
are unconstrained because each row is normalized.  A repeated label needs an
intervening blank, so when c equals the last label of g the nonblank mass of
g is excluded from the transition.  All sums run in log domain.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .vocab import BLANK, EOS

NEG_INF = float("-inf")

_ENUM_LIMIT = 10_000_000


class BadFrameError(ValueError):
    """The earliest row that is not a distribution: *fault* is ``"non-finite"``,
    ``"negative"`` or ``"sum"``, and *total* is the row's sum."""

    def __init__(self, frame: int, fault: str, total: float):
        what = f"sums to {total:.8f}, expected 1" if fault == "sum" else f"has a {fault} entry"
        super().__init__(f"frame {frame} {what}")
        self.frame, self.fault, self.total = frame, fault, total


def check_column_labels(labels: Sequence[str]) -> None:
    """The posterior header rules: distinct labels including ``<blank>``, and
    neither ``<eos>`` (no frame emits it) nor ``""`` (left by a stray tab)."""
    if len(set(labels)) != len(labels):
        raise ValueError("duplicate label in header")
    if BLANK not in labels:
        raise ValueError(f"header is missing {BLANK}")
    for label in (EOS, ""):
        if label in labels:
            raise ValueError(f"{label!r} cannot label a posterior column")


@dataclass(frozen=True)
class PosteriorMatrix:
    """Frame posteriors: one row per frame over ``labels`` (incl. ``<blank>``)."""

    labels: tuple[str, ...]
    probs: np.ndarray

    def __post_init__(self):
        labels = tuple(self.labels)
        probs = np.asarray(self.probs, dtype=np.float64)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "probs", probs)
        check_column_labels(labels)
        if probs.ndim != 2 or probs.shape[1] != len(labels):
            raise ValueError("posterior matrix shape does not match labels")
        if probs.shape[0] < 1:
            raise ValueError("posterior matrix has no frames")
        finite, negative = np.isfinite(probs).all(axis=1), (probs < 0.0).any(axis=1)
        sums = probs.sum(axis=1, where=np.isfinite(probs))
        bad = ~finite | negative | (np.abs(sums - 1.0) > 1e-6)
        if bad.any():
            t = int(np.argmax(bad))
            fault = "non-finite" if not finite[t] else "negative" if negative[t] else "sum"
            raise BadFrameError(t, fault, float(sums[t]))

    @property
    def n_frames(self) -> int:
        return self.probs.shape[0]

    @property
    def blank_index(self) -> int:
        return self.labels.index(BLANK)

    @property
    def char_labels(self) -> tuple[str, ...]:
        """Labels a hypothesis may be extended by (everything but blank)."""
        return tuple(label for label in self.labels if label != BLANK)


@dataclass(frozen=True)
class CtcState:
    """Per-hypothesis forward vectors plus the accumulated prefix score."""

    nonblank: np.ndarray
    blank: np.ndarray
    last_column: int  # posterior column of the last label; -1 for the empty prefix
    log_prefix: float
    length: int


class CtcPrefixScorer:
    """Incremental prefix scoring for one posterior matrix.

    ``candidate_scores`` evaluates every extension of a batch of hypotheses
    in one vectorized pass; ``extended_states`` materializes the forward
    vectors only for the extensions that survive pruning.

    Both forward vectors follow first-order recurrences that are linear in
    probability space, ``y[t] = g[t] * (y[t-1] + d[t])`` with ``g`` a column
    of posteriors, so each has a closed form: a running sum of ``log g``
    and one ``logaddexp`` scan down the whole (frames x extensions) block
    instead of a per-frame loop.

    The closed form divides by the running product of gains, which breaks
    after a zero posterior (``log p == -inf``).  So the frame axis is cut
    after every frame with a zero anywhere in its row, and the scan of the
    next block starts from the vectors carried out of that frame.  Cutting
    on the whole row, not just the columns in use, keeps each extension's
    vectors independent of which other extensions share the call, so a
    batched beam step and a single extension agree bit for bit.  One-hot
    rows are cut at every frame and cost one step per frame.
    """

    def __init__(self, matrix: PosteriorMatrix):
        self.matrix = matrix
        with np.errstate(divide="ignore"):
            self._logp = np.log(matrix.probs)
        self._blank_column = matrix.blank_index
        self._log_blank = self._logp[:, self._blank_column]
        self._columns = {label: i for i, label in enumerate(matrix.labels)}
        self._frames = matrix.n_frames
        zero_rows = np.flatnonzero(np.isneginf(self._logp[:-1]).any(axis=1))
        bounds = [0, *(zero_rows + 1).tolist(), self._frames]
        self._segments = list(zip(bounds[:-1], bounds[1:]))

    def initial_state(self) -> CtcState:
        blank = np.cumsum(self._log_blank)
        nonblank = np.full(self._frames, NEG_INF)
        return CtcState(nonblank, blank, -1, 0.0, 0)

    def column(self, label: str) -> int:
        col = self._columns.get(label)
        if col is None:
            raise ValueError(f"label {label!r} not in the posterior matrix")
        if col == self._blank_column:
            raise ValueError("cannot extend a hypothesis by <blank>")
        return col

    def _transition(self, states: Sequence[CtcState]) -> tuple[np.ndarray, np.ndarray]:
        """Previous-frame blank/total masses, shifted so row t feeds frame t."""
        prev = np.empty((2, self._frames, len(states)))
        prev[0, 0] = [0.0 if state.length == 0 else NEG_INF for state in states]
        prev[1, 0] = NEG_INF
        vectors = np.array(
            [[state.blank[:-1] for state in states], [state.nonblank[:-1] for state in states]]
        )
        prev[:, 1:] = vectors.transpose(0, 2, 1)
        prev_blank, prev_nonblank = prev
        return prev_blank, np.logaddexp(prev_blank, prev_nonblank)

    def candidate_scores(
        self, states: Sequence[CtcState], columns: Sequence[int]
    ) -> np.ndarray:
        """Log prefix scores for every state extended by every column; (H, C)."""
        prev_blank, prev_total = self._transition(states)
        x = self._logp[:, columns]
        terms = prev_total[:, :, None] + x[:, None, :]
        # A repeated label can only follow its first emission after a blank.
        last = np.array([state.last_column for state in states])
        rows, cols = np.nonzero(last[:, None] == np.asarray(columns))
        terms[:, rows, cols] = prev_blank[:, rows] + x[:, cols]
        return np.logaddexp.reduce(terms, axis=0)

    def extended_states(
        self, extensions: Sequence[tuple[CtcState, int]], log_prefix: Sequence[float] | None = None
    ) -> list[CtcState]:
        """Forward vectors for chosen (state, column) extensions; *log_prefix*
        passes their scores from ``candidate_scores``, which holds them bitwise."""
        states = [state for state, _ in extensions]
        columns = [col for _, col in extensions]
        prev_blank, prev_total = self._transition(states)
        same = np.array([state.last_column == col for state, col in extensions])
        phi = np.where(same[None, :], prev_blank, prev_total)
        x = self._logp[:, columns]
        log_blank = self._log_blank[:, None]
        forward = np.empty((2,) + x.shape)
        nonblank, blank = forward
        last_nonblank = last_blank = NEG_INF
        for a, e in self._segments:
            start = np.logaddexp(last_nonblank, phi[a])
            _log_linear_scan(nonblank[a:e], start, x[a:e], phi[a + 1 : e])
            start = np.logaddexp(last_blank, last_nonblank)
            _log_linear_scan(blank[a:e], start, log_blank[a:e], nonblank[a : e - 1])
            last_nonblank, last_blank = nonblank[e - 1], blank[e - 1]
        if log_prefix is None:
            log_prefix = np.logaddexp.reduce(phi + x, axis=0).tolist()
        # One buffer per state, so a kept state holds no other state's vectors.
        pairs = [pair.copy() for pair in forward.transpose(2, 0, 1)]
        return [
            CtcState(pair[0], pair[1], col, score, state.length + 1)
            for pair, col, score, state in zip(pairs, columns, log_prefix, states)
        ]


def _log_linear_scan(out: np.ndarray, start, gain: np.ndarray, drive: np.ndarray) -> None:
    """Solve ``y[0] = gain[0] + start``, ``y[t] = gain[t] + logaddexp(y[t-1], drive[t-1])``.

    With ``G = cumsum(gain)`` the recurrence unrolls to ``y[t] = G[t] +
    logsumexp(start, drive[s-1] - G[s-1] for 1 <= s <= t)``: one cumulative
    sum and one ``logaddexp`` scan down the rows of ``out``.  ``gain`` must
    be finite on every row but the last.
    """
    if not len(drive):  # a one-row block is a single step
        np.add(start, gain[0], out=out[0])
        return
    sums = np.cumsum(gain, axis=0)
    out[0] = start
    np.subtract(drive, sums[:-1], out=out[1:])
    np.logaddexp.accumulate(out, axis=0, out=out)
    out += sums


def ctc_final(state: CtcState) -> float:
    """Log probability that the collapsed output equals the prefix exactly."""
    return float(np.logaddexp(state.nonblank[-1], state.blank[-1]))


def _collapse(path: Sequence[int], blank: int) -> tuple[int, ...]:
    out = []
    previous = -1
    for col in path:
        if col != previous and col != blank:
            out.append(col)
        previous = col
    return tuple(out)


def _collapsed_paths(matrix: PosteriorMatrix):
    frames = matrix.n_frames
    width = len(matrix.labels)
    if width**frames > _ENUM_LIMIT:
        raise ValueError("posterior matrix too large to enumerate")
    probs, blank = matrix.probs, matrix.blank_index
    for path in itertools.product(range(width), repeat=frames):
        p = 1.0
        for t, col in enumerate(path):
            p *= probs[t, col]
        yield _collapse(path, blank), p


def _prefix_columns(matrix: PosteriorMatrix, prefix: Sequence[str]) -> tuple[int, ...]:
    columns = {label: i for i, label in enumerate(matrix.labels)}
    blank = matrix.blank_index
    out = []
    for label in prefix:
        col = columns.get(label)
        if col is None or col == blank:
            raise ValueError(f"invalid prefix label {label!r}")
        out.append(col)
    return tuple(out)


def ctc_brute_force(posteriors: PosteriorMatrix, prefix: Sequence[str]) -> float:
    """Prefix probability by full path enumeration; oracle for the recursion."""
    target = _prefix_columns(posteriors, prefix)
    total = 0.0
    for collapsed, p in _collapsed_paths(posteriors):
        if collapsed[: len(target)] == target:
            total += p
    return total


def ctc_brute_force_full(posteriors: PosteriorMatrix, labels: Sequence[str]) -> float:
    """Probability that the collapsed output equals *labels* exactly."""
    target = _prefix_columns(posteriors, labels)
    total = 0.0
    for collapsed, p in _collapsed_paths(posteriors):
        if collapsed == target:
            total += p
    return total


def greedy_decode(posteriors: PosteriorMatrix) -> list[str]:
    """Collapse the per-frame argmax path."""
    path = np.argmax(posteriors.probs, axis=1)
    collapsed = _collapse([int(c) for c in path], posteriors.blank_index)
    return [posteriors.labels[col] for col in collapsed]
