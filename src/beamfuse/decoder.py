"""Label-synchronous beam search over CTC posteriors with score fusion.

Hypotheses grow one character label at a time.  Each one carries three
accumulated log scores: the CTC prefix probability (replaced, not summed, on
every extension), an attention-style character score, and an LM fusion
score.  The joint ranking score is

    joint = ctc_weight * ctc + (1 - ctc_weight) * att + lm_weight * lm

Extending by ``<eos>`` finalizes a hypothesis: the CTC term switches to the
exact-match probability and both scorers add their ``<eos>`` column, scored
in one call with the labels.  Pruning keeps the best ``beam_width``
incomplete hypotheses of equal length; ties break lexicographically on the
label sequence, which makes the search deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .ctc import CtcBeam, CtcPrefixScorer, PosteriorMatrix, ctc_final
from .vocab import EOS, from_char_labels

_ENUM_LIMIT = 1_000_000


@dataclass(frozen=True)
class DecodeConfig:
    """Search weights and limits.

    ``max_len`` caps the number of character labels per hypothesis and
    defaults to the frame count of the posterior matrix.
    """

    ctc_weight: float = 0.2
    lm_weight: float = 1.0
    beam_width: int = 30
    max_len: int | None = None
    n_best: int = 1

    def __post_init__(self):
        for name in ("beam_width", "max_len", "n_best"):
            value = getattr(self, name)  # an int: what operator.index takes, bool aside
            if value is not None and (type(value) is bool or not hasattr(type(value), "__index__")):
                raise ValueError(f"{name} must be an int")
        if not 0.0 <= self.ctc_weight <= 1.0:
            raise ValueError("ctc_weight must lie in [0, 1]")
        if not 0.0 <= self.lm_weight < math.inf:
            raise ValueError("lm_weight must be finite and >= 0")
        if self.beam_width < 1:
            raise ValueError("beam_width must be >= 1")
        if self.max_len is not None and self.max_len < 0:
            raise ValueError("max_len must be >= 0")
        if self.n_best < 1:
            raise ValueError("n_best must be >= 1")


def combine_scores(ctc_score, att_score, lm_score, config: DecodeConfig):
    """Joint hypothesis score; zero-weight and absent (None) components are
    dropped outright.  Floats and broadcastable arrays get the same terms in
    the same order.  The total starts at +0.0, so it is never -0.0, and a
    dropped term gives the same float as an added ``w * 0.0``."""
    total = 0.0
    if config.ctc_weight != 0.0:
        total += config.ctc_weight * ctc_score
    if config.ctc_weight != 1.0 and att_score is not None:
        total += (1.0 - config.ctc_weight) * att_score
    if config.lm_weight != 0.0 and lm_score is not None:
        total += config.lm_weight * lm_score
    return total


@dataclass(frozen=True)
class Hypothesis:
    labels: tuple[str, ...]
    ctc_score: float
    att_score: float
    lm_score: float
    joint: float

    @property
    def text(self) -> str:
        return " ".join(from_char_labels(self.labels))


@dataclass(frozen=True)
class DecodeResult:
    """Ranked finalized hypotheses.  ``complete`` is always True: the empty
    hypothesis is finalized at the first step, so the search never has to
    fall back to unfinished ones."""

    hypotheses: list[Hypothesis]
    complete: bool


def _rank(hyp: Hypothesis) -> tuple[float, tuple[str, ...]]:
    return (-hyp.joint, hyp.labels)


@dataclass(frozen=True)
class _Beam:
    """The live hypotheses of one step: label sequences of equal length, in
    lexicographic order.  The CTC score of each is its ``ctc.log_prefix``;
    ``scores`` and ``states`` hold the att slot's then the lm slot's (None
    for an absent one), and ``joint`` the joint scores."""

    labels: list[tuple[str, ...]]
    ctc: CtcBeam
    scores: tuple[np.ndarray | None, np.ndarray | None]
    states: tuple[list | None, list | None]
    joint: np.ndarray


class _Search:
    """One decode's scorers, labels, weights and expansion step.  A missing
    scorer is a missing term: it has no scores, states or bounds."""

    def __init__(self, posteriors: PosteriorMatrix, lm, att, config: DecodeConfig):
        self.ctc = CtcPrefixScorer(posteriors)
        self.labels = sorted(posteriors.char_labels)
        for role, scorer in (("lm", lm), ("att", att)):
            for label in (*self.labels, EOS) if scorer is not None else ():
                if label not in scorer.labels:
                    raise ValueError(f"{role} scorer cannot score label {label!r}")
        self.columns = np.array([self.ctc.column(label) for label in self.labels], dtype=np.intp)
        self.scorers, self.config = (att, lm), config
        self.max_len = config.max_len if config.max_len is not None else posteriors.n_frames

    def initial(self) -> _Beam:
        scores = tuple(None if s is None else np.zeros(1) for s in self.scorers)
        states = tuple(None if s is None else [s.initial_state()] for s in self.scorers)
        return _Beam([()], self.ctc.initial_state(), scores, states, np.zeros(1))

    def joint(self, ctc: np.ndarray, att, lm) -> np.ndarray:
        joint = combine_scores(ctc, att, lm, self.config)  # 0.0 if every term is dropped
        return joint if isinstance(joint, np.ndarray) else np.zeros(ctc.shape)

    def finish(self, beam: _Beam, labels: list[str], complete: list[Hypothesis]):
        """Score *beam*'s extensions by *labels* and by ``<eos>``, one
        ``score_all`` call per scorer, and return the att and lm totals of
        the *labels* columns.  The ``<eos>`` column, with exact-match CTC,
        finishes *beam* into *complete*, which keeps the best ``n_best``;
        only a hypothesis that can enter it is built; an absent slot scores
        it 0.0."""
        labels = [*labels, EOS]
        totals = list(map(self._totals, self.scorers, beam.scores, beam.states, (labels, labels)))
        eos = [None if x is None else x[:, -1] for x in totals]
        ctc = ctc_final(beam.ctc)
        joint = self.joint(ctc, *eos)
        n_best = self.config.n_best
        # No more than n_best of one level can enter, none below the worst kept.
        entering = np.argsort(-joint, kind="stable")[:n_best]
        if len(complete) == n_best:
            entering = entering[joint[entering] >= complete[-1].joint]
        for j in entering.tolist():
            slots = (0.0 if x is None else x[j].item() for x in eos)
            complete.append(Hypothesis(beam.labels[j], ctc[j].item(), *slots, joint[j].item()))
        complete.sort(key=_rank)
        del complete[n_best:]
        return [None if x is None else x[:, :-1] for x in totals]

    def cannot_beat(self, beam: _Beam, worst: float) -> bool:
        """Whether no completion of any hypothesis in *beam* can exceed *worst*.
        With every bound ±0.0 that is ``beam.joint``: ±0.0 changes no total
        and never flips ``<``."""
        bounds = [
            None if scorer is None else [scorer.future_score_bound(s) for s in states]
            for scorer, states in zip(self.scorers, beam.states)
        ]
        if not any(map(any, filter(None, bounds))):
            return bool((beam.joint < worst).all())
        att, lm = (b if b is None else scores + b for scores, b in zip(beam.scores, bounds))
        # -inf CTC plus an infinite bound is NaN, which beats nothing.
        with np.errstate(invalid="ignore"):
            bound = self.joint(beam.ctc.log_prefix, att, lm)
        return bool((bound < worst).all())

    def expand(self, beam: _Beam, att, lm, width: int | None):
        """The best *width* (all when None) one-label extensions of *beam*,
        given their (H, C) att and lm totals (None if absent), or None if
        there are none.

        Only the survivors get new states.  Children are ranked by
        (-joint, labels): the parents are in lexicographic order and so are
        the labels, so the candidates, row by row, are too, and a stable
        sort on the joint score breaks its ties on the labels.  The
        survivors are kept in candidate order, which keeps the beam in
        lexicographic order.
        """
        ctc = self.ctc.candidate_scores(beam.ctc, self.columns)
        joint = self.joint(ctc, att, lm).ravel()
        slots = [x for x in (att, lm) if x is not None]
        # NaN marks a label a scorer cannot take: the end of an empty word.
        index = np.flatnonzero(~np.isnan(reduce(np.add, slots))) if slots else np.arange(joint.size)
        keep = index[np.sort(np.argsort(-joint[index], kind="stable")[:width])]
        if not keep.size:
            return None
        parents, cols = np.divmod(keep, len(self.columns))
        ctc_beam = self.ctc.extended_states(
            beam.ctc.take(parents, forward=False),
            columns=self.columns[cols],
            log_prefix=ctc[parents, cols],
        )
        children = [(j, self.labels[i]) for j, i in zip(parents.tolist(), cols.tolist())]
        labels = [beam.labels[j] + (label,) for j, label in children]
        scores = tuple(None if x is None else x[parents, cols] for x in (att, lm))
        states = tuple(
            None if scorer is None else [scorer.advance(held[j], label) for j, label in children]
            for scorer, held in zip(self.scorers, beam.states)
        )
        return _Beam(labels, ctc_beam, scores, states, joint[keep])

    def _totals(self, scorer, scores, states, labels: list[str]) -> np.ndarray | None:
        """Accumulated plus this step's scores, (H, len(labels)); None if absent."""
        return None if scorer is None else scores[:, None] + scorer.score_all(states, labels)

    def run(self, width: int | None, stop_early: bool) -> DecodeResult:
        """Expand level by level, finishing every level; with *stop_early*,
        stop once no live hypothesis can still beat the worst kept one."""
        beam = self.initial()
        complete: list[Hypothesis] = []
        for _ in range(self.max_len):
            att, lm = self.finish(beam, self.labels, complete)
            beam = self.expand(beam, att, lm, width)
            if beam is None:
                break
            # The bound is only tight for OOV scales <= 1; scorers report an
            # infinite bound otherwise, which disables this.
            full = len(complete) == self.config.n_best
            if stop_early and full and self.cannot_beat(beam, complete[-1].joint):
                break
        else:
            self.finish(beam, [], complete)
        return DecodeResult(complete, True)


def decode(
    posteriors: PosteriorMatrix,
    lm=None,
    att=None,
    config: DecodeConfig = DecodeConfig(),
) -> DecodeResult:
    """Beam search returning the top ``config.n_best`` complete hypotheses.

    Parameters
    ----------
    posteriors : PosteriorMatrix
        Frame posteriors; its non-blank labels form the extension set.
    lm, att : scorer or None
        LM fusion scorer and attention-slot scorer.  ``None`` means the
        term is left out (it scores zero everywhere).
    """
    return _Search(posteriors, lm, att, config).run(config.beam_width, stop_early=True)


def exhaustive_decode(
    posteriors: PosteriorMatrix,
    lm=None,
    att=None,
    config: DecodeConfig = DecodeConfig(),
) -> DecodeResult:
    """Score every label sequence up to ``max_len``; oracle for ``decode``.

    Runs the beam search's own step level by level, unpruned and without
    the early stop, so a saturated beam reproduces its ranking exactly,
    floating point included.
    """
    search = _Search(posteriors, lm, att, config)
    if sum(len(search.labels) ** n for n in range(search.max_len + 1)) > _ENUM_LIMIT:
        raise ValueError("search space too large to enumerate")
    return search.run(None, stop_early=False)
