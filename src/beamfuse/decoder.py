"""Label-synchronous beam search over CTC posteriors with score fusion.

Hypotheses grow one character label at a time.  Each one carries three
accumulated log scores: the CTC prefix probability (replaced, not summed, on
every extension), an attention-style character score, and an LM fusion
score.  The joint ranking score is

    joint = ctc_weight * ctc + (1 - ctc_weight) * att + lm_weight * lm

Extending by ``<eos>`` finalizes a hypothesis: the CTC term switches to the
exact-match probability and both scorers contribute their end-of-sentence
terms.  Pruning keeps the best ``beam_width`` incomplete hypotheses of equal
length; ties break lexicographically on the label sequence, which makes the
search deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from .ctc import CtcBeam, CtcPrefixScorer, CtcState, PosteriorMatrix, ctc_final
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
        if not 0.0 <= self.ctc_weight <= 1.0:
            raise ValueError("ctc_weight must lie in [0, 1]")
        if self.lm_weight < 0.0:
            raise ValueError("lm_weight must be >= 0")
        if self.beam_width < 1:
            raise ValueError("beam_width must be >= 1")
        if self.max_len is not None and self.max_len < 0:
            raise ValueError("max_len must be >= 0")
        if self.n_best < 1:
            raise ValueError("n_best must be >= 1")


def combine_scores(ctc_score, att_score, lm_score, config: DecodeConfig):
    """Joint hypothesis score; zero-weight components are dropped outright.
    Floats and broadcastable arrays get the same terms in the same order."""
    total = 0.0
    if config.ctc_weight != 0.0:
        total += config.ctc_weight * ctc_score
    if config.ctc_weight != 1.0:
        total += (1.0 - config.ctc_weight) * att_score
    if config.lm_weight != 0.0:
        total += config.lm_weight * lm_score
    return total


@dataclass(frozen=True)
class Hypothesis:
    labels: tuple[str, ...]
    ctc_score: float
    att_score: float
    lm_score: float
    joint: float
    complete: bool
    ctc_state: CtcState
    lm_state: Any
    att_state: Any

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
    lexicographic order.  The CTC score of each is its ``ctc.log_prefix``."""

    labels: list[tuple[str, ...]]
    ctc: CtcBeam
    att: np.ndarray
    lm: np.ndarray
    att_states: list
    lm_states: list


class _Search:
    """One decode's scorers, labels, weights and expansion step.  A missing
    scorer is a missing term: it adds nothing to any score."""

    def __init__(self, posteriors: PosteriorMatrix, lm, att, config: DecodeConfig):
        self.ctc = CtcPrefixScorer(posteriors)
        self.labels = sorted(posteriors.char_labels)
        for role, scorer in (("lm", lm), ("att", att)):
            for label in (*self.labels, EOS) if scorer is not None else ():
                if label not in scorer.labels:
                    raise ValueError(f"{role} scorer cannot score label {label!r}")
        self.columns = np.array([self.ctc.column(label) for label in self.labels], dtype=np.intp)
        self.lm, self.att, self.config = lm, att, config
        self.max_len = config.max_len if config.max_len is not None else posteriors.n_frames

    def initial(self) -> _Beam:
        ctc = CtcBeam.of([self.ctc.initial_state()])
        lm = [None if self.lm is None else self.lm.initial_state()]
        att = [None if self.att is None else self.att.initial_state()]
        zero = np.zeros(1)
        return _Beam([()], ctc, zero, zero, att, lm)

    def finish(self, beam: _Beam, complete: list[Hypothesis]) -> None:
        """Extend *beam* by ``<eos>`` (exact-match CTC plus the scorers'
        final terms) and keep the best ``n_best`` in *complete*.  Only a
        hypothesis that can enter it is built."""
        ctc = ctc_final(beam.ctc)
        att, lm = self._per_state(beam, "final")
        joint = combine_scores(ctc, att, lm, self.config)
        n_best = self.config.n_best
        entering = np.arange(len(joint))
        if len(complete) == n_best:
            entering = np.flatnonzero(joint >= complete[-1].joint)
            if not entering.size:
                return
        if len(entering) > n_best:  # no more than n_best of one level can enter
            entering = entering[np.argsort(-joint[entering], kind="stable")[:n_best]]
        for j in entering.tolist():
            scores = (ctc[j].item(), att[j].item(), lm[j].item(), joint[j].item())
            states = (beam.ctc[j], beam.lm_states[j], beam.att_states[j])
            complete.append(Hypothesis(beam.labels[j], *scores, True, *states))
        complete.sort(key=_rank)
        del complete[n_best:]

    def cannot_beat(self, beam: _Beam, worst: float) -> bool:
        """Whether no completion of any hypothesis in *beam* can exceed *worst*."""
        att, lm = self._per_state(beam, "future_score_bound")
        # -inf CTC plus an infinite bound is NaN, which beats nothing.
        with np.errstate(invalid="ignore"):
            bound = combine_scores(beam.ctc.log_prefix, att, lm, self.config)
        return bool((bound < worst).all())

    def expand(self, beam: _Beam, width: int | None) -> _Beam | None:
        """The best *width* (all when None) one-label extensions of *beam*,
        or None if there are none.

        Each scorer scores the whole step as an (H, C) matrix, and only the
        survivors get new states.  Children are ranked by (-joint, labels):
        the parents are in lexicographic order and so are the labels, so
        the candidates, row by row, are too, and a stable sort on the joint
        score breaks its ties on the labels.  The survivors are kept in
        candidate order, which keeps the beam in lexicographic order.
        """
        ctc = self.ctc.candidate_scores(beam.ctc, self.columns)
        att = self._totals(self.att, beam.att, beam.att_states)
        lm = self._totals(self.lm, beam.lm, beam.lm_states)
        joint = combine_scores(ctc, att, lm, self.config)
        # NaN marks a label a scorer cannot take: the end of an empty word.
        parents, cols = np.nonzero(~np.isnan(att + lm))
        keep = np.sort(np.argsort(-joint[parents, cols], kind="stable")[:width])
        parents, cols = parents[keep], cols[keep]
        if not parents.size:
            return None
        ctc_beam = self.ctc.extended_states(
            beam.ctc.take(parents), columns=self.columns[cols], log_prefix=ctc[parents, cols]
        )
        labels, lm_states, att_states = [], [], []
        for j, i in zip(parents.tolist(), cols.tolist()):
            label, lm_state, att_state = self.labels[i], beam.lm_states[j], beam.att_states[j]
            labels.append(beam.labels[j] + (label,))
            lm_states.append(None if self.lm is None else self.lm.advance(lm_state, label))
            att_states.append(None if self.att is None else self.att.advance(att_state, label))
        att, lm = att[parents, cols], lm[parents, cols]
        return _Beam(labels, ctc_beam, att, lm, att_states, lm_states)

    def _totals(self, scorer, scores: np.ndarray, states: list) -> np.ndarray:
        """Accumulated scores plus this step's, as an (H, C) matrix."""
        totals = scores[:, None]
        if scorer is None:
            return totals.repeat(len(self.labels), axis=1)
        return totals + scorer.score_all(states, self.labels)

    def _per_state(self, beam: _Beam, method: str) -> list[np.ndarray]:
        """The accumulated att and lm scores plus each state's *method* term."""
        slots = ((self.att, beam.att, beam.att_states), (self.lm, beam.lm, beam.lm_states))
        return [
            scores if scorer is None else scores + [getattr(scorer, method)(s) for s in states]
            for scorer, scores, states in slots
        ]

    def run(self, width: int | None, stop_early: bool) -> DecodeResult:
        """Expand level by level, finishing every level; with *stop_early*,
        stop once no live hypothesis can still beat the worst kept one."""
        beam = self.initial()
        complete: list[Hypothesis] = []
        for _ in range(self.max_len):
            self.finish(beam, complete)
            beam = self.expand(beam, width)
            if beam is None:
                break
            # The bound is only tight for OOV scales <= 1; scorers report an
            # infinite bound otherwise, which disables this.
            full = len(complete) == self.config.n_best
            if stop_early and full and self.cannot_beat(beam, complete[-1].joint):
                break
        else:
            self.finish(beam, complete)
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
