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
g is excluded from the transition.  The forward vectors stay in log domain.
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


@dataclass(frozen=True, eq=False)
class CtcBeam:
    """The CTC states of a whole beam, one column per hypothesis.

    ``forward`` stacks the nonblank and blank vectors as (2, T, H), the
    other arrays are (H,), and ``length`` is every hypothesis's label count.
    ``transition`` is built once per beam and serves scoring and extension.
    """

    forward: np.ndarray | None
    last_column: np.ndarray
    log_prefix: np.ndarray
    length: int

    nonblank = property(lambda self: self.forward[0])
    blank = property(lambda self: self.forward[1])

    def __len__(self) -> int:
        return len(self.last_column)

    def take(self, index: np.ndarray, forward: bool = True) -> CtcBeam:
        """The hypotheses at *index*, in that order, with their transition;
        without *forward*, only what ``extended_states`` reads (no forward block)."""
        gathered = (self.last_column[index], self.log_prefix[index], self.length)
        beam = CtcBeam(self.forward[:, :, index] if forward else None, *gathered)
        vars(beam)["transition"] = self.transition[:, :, index]
        return beam

    @cached_property
    def transition(self) -> np.ndarray:
        """Previous-frame blank and total masses, shifted so row t feeds
        frame t: (2, T, H).  Row 0 is 0.0 only for the empty prefix."""
        prev = np.empty_like(self.forward)
        prev[:, 0] = 0.0 if self.length == 0 else NEG_INF
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

    def initial_state(self) -> CtcBeam:
        """The beam of the empty prefix alone."""
        forward = np.stack([np.full(self._frames, NEG_INF), np.cumsum(self._log_blank)])
        return CtcBeam(forward[:, :, None], np.array([-1]), np.zeros(1), 0)

    def column(self, label: str) -> int:
        col = self._columns.get(label)
        if col is None:
            raise ValueError(f"label {label!r} not in the posterior matrix")
        if col == self._blank_column:
            raise ValueError("cannot extend a hypothesis by <blank>")
        return col

    def candidate_scores(self, beam: CtcBeam, columns: Sequence[int]) -> np.ndarray:
        """Log prefix scores for every hypothesis of *beam* extended by every
        column; (H, C).

        A prefix of length L cannot be complete before frame L - 1, so the sum
        starts at row L.  It adds probabilities scaled by each hypothesis's
        largest total mass frame by frame, in one order for any shape; a sum
        below 1e-290 may have lost terms to underflow, so it is redone in logs.
        """
        start = min(beam.length, self._frames - 1)
        prev = beam.transition[:, start:]
        top = prev[1].max(axis=0, initial=-1e300)  # all -inf: mass 0, not NaN
        mass = np.exp(prev - top)[:, :, :, None]
        terms = np.multiply(mass, self.matrix.probs[start:, None, columns], order="C")
        # NumPy would sum a single term per frame pairwise; cumsum cannot.
        sums = np.cumsum(terms, axis=1)[:, -1] if terms[0, 0].size == 1 else terms.sum(axis=1)
        # A repeated label can only follow its first emission after a blank.
        repeat = beam.last_column[:, None] == np.asarray(columns)
        sums = np.where(repeat, sums[0], sums[1])
        with np.errstate(divide="ignore"):
            scores = np.log(sums) + top[:, None]
        rows, cols = np.nonzero(sums < 1e-290)
        if rows.size:
            logs = prev[1 - repeat[rows, cols], :, rows].T + self._logp[start:, columns][:, cols]
            scores[rows, cols] = np.logaddexp.reduce(logs, axis=0)
        return scores

    def extended_states(
        self, parents: CtcBeam, *, columns: Sequence[int], log_prefix: np.ndarray
    ) -> CtcBeam:
        """Forward vectors for each hypothesis of *parents* extended by the
        matching entry of *columns*; *log_prefix* holds their scores, taken
        from ``candidate_scores``.

        Frames before the parents' length are ``-inf`` in both child vectors,
        so each scan starts there.  Only the parents' ``transition``,
        ``last_column`` and ``length`` are read, never their ``forward``.
        """
        columns = np.asarray(columns, dtype=np.intp)
        prev_blank, prev_total = parents.transition
        phi = np.where(parents.last_column == columns, prev_blank, prev_total)
        sums = self._sums[:, columns]
        blank_sums = self._sums[:, self._blank_column, None]
        forward = np.empty((2,) + sums.shape)
        nonblank, blank = forward
        # The first segment starts from nothing: logaddexp(-inf, v) is v.
        starts = phi[0], NEG_INF
        for a, e in self._segments:
            skip = min(max(parents.length - a, 0), e - a)
            if a:
                previous = nonblank[a - 1]
                starts = np.logaddexp(previous, phi[a]), np.logaddexp(blank[a - 1], previous)
            _log_linear_scan(nonblank[a:e], starts[0], sums[a:e], phi[a + 1 : e], skip)
            _log_linear_scan(blank[a:e], starts[1], blank_sums[a:e], nonblank[a : e - 1], skip)
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


def ctc_final(beam: CtcBeam) -> np.ndarray:
    """Log probability that the collapsed output equals each prefix of
    *beam* exactly; (H,)."""
    return np.logaddexp(beam.nonblank[-1], beam.blank[-1])
