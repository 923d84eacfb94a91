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

from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .vocab import BLANK, EOS

NEG_INF = float("-inf")


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


@dataclass(frozen=True, eq=False)
class CtcBeam(Sequence[CtcState]):
    """The CTC states of a whole beam, one column per hypothesis.

    ``forward`` stacks the nonblank and blank vectors as (2, T, H); the
    other fields are (H,) arrays.  ``beam[j]`` is a ``CtcState`` built from
    copies of column j, so it never holds on to the block.  ``transition``
    is built once per beam and serves both scoring and extension.
    """

    forward: np.ndarray
    last_column: np.ndarray
    log_prefix: np.ndarray
    length: np.ndarray

    @classmethod
    def of(cls, states: Sequence[CtcState]) -> CtcBeam:
        """*states* as one beam; a ``CtcBeam`` is returned as it is."""
        if isinstance(states, CtcBeam):
            return states
        forward = np.array([[s.nonblank for s in states], [s.blank for s in states]])
        fields = zip(*((s.last_column, s.log_prefix, s.length) for s in states))
        return cls(forward.transpose(0, 2, 1).copy(), *map(np.array, fields))

    nonblank = property(lambda self: self.forward[0])
    blank = property(lambda self: self.forward[1])

    def __len__(self) -> int:
        return self.forward.shape[2]

    def __getitem__(self, j: int) -> CtcState:
        nonblank, blank = (vectors[:, j].copy() for vectors in self.forward)
        scalars = (int(self.last_column[j]), float(self.log_prefix[j]), int(self.length[j]))
        return CtcState(nonblank, blank, *scalars)

    def take(self, index: np.ndarray) -> CtcBeam:
        """The hypotheses at *index*, in that order, with the transition
        gathered too if it was already built."""
        gathered = (self.last_column[index], self.log_prefix[index], self.length[index])
        beam = CtcBeam(self.forward[:, :, index], *gathered)
        if "transition" in vars(self):
            vars(beam)["transition"] = self.transition[:, :, index]
        return beam

    @cached_property
    def transition(self) -> np.ndarray:
        """Previous-frame blank and total masses, shifted so row t feeds
        frame t: (2, T, H).  Row 0 is 0.0 only for the empty prefix."""
        prev = np.empty_like(self.forward)
        prev[:, 0] = np.where(self.length == 0, 0.0, NEG_INF)
        prev[0, 1:] = self.blank[:-1]
        np.logaddexp(self.blank[:-1], self.nonblank[:-1], out=prev[1, 1:])
        return prev


class CtcPrefixScorer:
    """Incremental prefix scoring for one posterior matrix.

    ``candidate_scores`` evaluates every extension of a beam in one
    vectorized pass; ``extended_states`` materializes the forward vectors
    only for the extensions that survive pruning, reusing the transition
    the first call built for their parents.

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
        # Running sums of log p from each segment's first frame: the gains
        # of the scans, the same floats for every step.
        self._sums = np.concatenate([np.cumsum(self._logp[a:e], axis=0) for a, e in self._segments])

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

    def candidate_scores(self, states: Sequence[CtcState], columns: Sequence[int]) -> np.ndarray:
        """Log prefix scores for every state extended by every column; (H, C).

        A prefix of length L cannot be complete before frame L - 1, so rows
        before L feed nothing but ``-inf`` and the sum starts at row L
        (``logaddexp(-inf, x) == x`` exactly).
        """
        beam = CtcBeam.of(states)
        start = min(*beam.length.tolist(), self._frames - 1)
        prev_blank, prev_total = beam.transition[:, start:]
        x = self._logp[start:, columns]
        scores = np.logaddexp.reduce(prev_total[:, :, None] + x[:, None, :], axis=0)
        # A repeated label can only follow its first emission after a blank.
        rows, cols = np.nonzero(beam.last_column[:, None] == np.asarray(columns))
        scores[rows, cols] = np.logaddexp.reduce(prev_blank[:, rows] + x[:, cols], axis=0)
        return scores

    def extended_states(
        self, states: Sequence[CtcState], *, columns: Sequence[int], log_prefix=None
    ) -> CtcBeam:
        """Forward vectors for each of *states* extended by the matching
        entry of *columns*; *log_prefix* passes their scores from
        ``candidate_scores``, which holds them bitwise.

        Frames before a parent's length are ``-inf`` in both child vectors,
        so each scan starts at the shortest parent's length.
        """
        parents = CtcBeam.of(states)
        columns = np.asarray(columns, dtype=np.intp)
        prev_blank, prev_total = parents.transition
        phi = np.where(parents.last_column == columns, prev_blank, prev_total)
        sums = self._sums[:, columns]
        blank_sums = self._sums[:, self._blank_column, None]
        first = min(parents.length.tolist())
        forward = np.empty((2,) + sums.shape)
        nonblank, blank = forward
        last_nonblank = last_blank = NEG_INF
        for a, e in self._segments:
            skip = min(max(first - a, 0), e - a)
            start = np.logaddexp(last_nonblank, phi[a])
            _log_linear_scan(nonblank[a:e], start, sums[a:e], phi[a + 1 : e], skip)
            start = np.logaddexp(last_blank, last_nonblank)
            _log_linear_scan(blank[a:e], start, blank_sums[a:e], nonblank[a : e - 1], skip)
            last_nonblank, last_blank = nonblank[e - 1], blank[e - 1]
        if log_prefix is None:
            log_prefix = np.logaddexp.reduce(phi + self._logp[:, columns], axis=0)
        return CtcBeam(forward, columns, np.asarray(log_prefix, dtype=float), parents.length + 1)


def _log_linear_scan(out: np.ndarray, start, sums: np.ndarray, drive: np.ndarray, skip: int):
    """Solve ``y[0] = gain[0] + start``, ``y[t] = gain[t] + logaddexp(y[t-1], drive[t-1])``
    given ``sums = cumsum(gain)``, when the first *skip* rows of ``y`` are known
    to be ``-inf``.

    The recurrence unrolls to ``y[t] = sums[t] + logsumexp(start, drive[s-1] -
    sums[s-1] for 1 <= s <= t)``: one ``logaddexp`` scan down the rows of
    ``out``.  A ``-inf`` row adds nothing to the scan, and ``logaddexp(-inf,
    v) == v`` exactly, so it starts at row *skip*.  ``sums`` must be finite
    on every row but the last.
    """
    out[:skip] = NEG_INF
    if skip == len(out):
        return
    if not len(drive):  # a one-row block is a single step
        np.add(start, sums[0], out=out[0])
        return
    if skip:
        np.subtract(drive[skip - 1 :], sums[skip - 1 : -1], out=out[skip:])
    else:
        out[0] = start
        np.subtract(drive, sums[:-1], out=out[1:])
    rest = out[skip:]
    np.logaddexp.accumulate(rest, axis=0, out=rest)
    rest += sums[skip:]


def ctc_final(state):
    """Log probability that the collapsed output equals the prefix exactly:
    a float for a ``CtcState``, an (H,) array for a ``CtcBeam``."""
    return np.logaddexp(state.nonblank[-1], state.blank[-1])
