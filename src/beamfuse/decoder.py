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

from .ctc import CtcPrefixScorer, CtcState, PosteriorMatrix, ctc_final
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
        self.columns = [self.ctc.column(label) for label in self.labels]
        self.lm, self.att, self.config = lm, att, config
        self.max_len = config.max_len if config.max_len is not None else posteriors.n_frames

    def initial(self) -> Hypothesis:
        lm = None if self.lm is None else self.lm.initial_state()
        att = None if self.att is None else self.att.initial_state()
        joint = combine_scores(0.0, 0.0, 0.0, self.config)
        return Hypothesis((), 0.0, 0.0, 0.0, joint, False, self.ctc.initial_state(), lm, att)

    def finalize(self, hyp: Hypothesis) -> Hypothesis:
        """*hyp* extended by ``<eos>``: exact-match CTC plus the scorers' final terms."""
        ctc = ctc_final(hyp.ctc_state)
        att = hyp.att_score if self.att is None else hyp.att_score + self.att.final(hyp.att_state)
        lm = hyp.lm_score if self.lm is None else hyp.lm_score + self.lm.final(hyp.lm_state)
        joint = combine_scores(ctc, att, lm, self.config)
        states = (hyp.ctc_state, hyp.lm_state, hyp.att_state)
        return Hypothesis(hyp.labels, ctc, att, lm, joint, True, *states)

    def upper_bound(self, hyp: Hypothesis) -> float:
        """Joint score no completion of *hyp* can exceed."""
        att, lm = hyp.att_score, hyp.lm_score
        if self.att is not None:
            att += self.att.future_score_bound(hyp.att_state)
        if self.lm is not None:
            lm += self.lm.future_score_bound(hyp.lm_state)
        return combine_scores(hyp.ctc_score, att, lm, self.config)

    def expand(self, beam: list[Hypothesis], width: int | None) -> list[Hypothesis]:
        """The best *width* (all when None) one-label extensions of *beam*.

        Each scorer scores the whole step as an (H, C) matrix, and only the
        survivors get new states.  Children are ranked by (-joint, labels):
        the parents are distinct label sequences of equal length, so a
        parent's lexicographic rank, then the label index, orders them.
        """
        ctc = self.ctc.candidate_scores([hyp.ctc_state for hyp in beam], self.columns)
        att = self._totals(self.att, [h.att_score for h in beam], [h.att_state for h in beam])
        lm = self._totals(self.lm, [h.lm_score for h in beam], [h.lm_state for h in beam])
        joint = combine_scores(ctc, att, lm, self.config)
        # NaN marks a label a scorer cannot take: the end of an empty word.
        parents, cols = np.nonzero(~np.isnan(att + lm))
        rank = np.argsort(sorted(range(len(beam)), key=lambda j: beam[j].labels))
        keep = np.lexsort((cols, rank[parents], -joint[parents, cols]))[:width]
        parents, cols = parents[keep], cols[keep]
        scores = [x[parents, cols].tolist() for x in (ctc, att, lm, joint)]
        parents, cols = parents.tolist(), cols.tolist()
        if not parents:
            return []
        states = self.ctc.extended_states(
            [(beam[j].ctc_state, self.columns[i]) for j, i in zip(parents, cols)],
            log_prefix=scores[0],
        )
        children = []
        for j, i, ctc_state, *totals in zip(parents, cols, states, *scores):
            hyp, label = beam[j], self.labels[i]
            lm_state = None if self.lm is None else self.lm.advance(hyp.lm_state, label)
            att_state = None if self.att is None else self.att.advance(hyp.att_state, label)
            children.append(
                Hypothesis(hyp.labels + (label,), *totals, False, ctc_state, lm_state, att_state)
            )
        return children

    def _totals(self, scorer, scores: list[float], states: list) -> np.ndarray:
        """Accumulated scores plus this step's, as an (H, C) matrix."""
        totals = np.array(scores)[:, None]
        if scorer is None:
            return totals.repeat(len(self.labels), axis=1)
        return totals + scorer.score_all(states, self.labels)


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
    search = _Search(posteriors, lm, att, config)
    beam = [search.initial()]
    complete: list[Hypothesis] = []

    for step in range(search.max_len + 1):
        complete.extend(search.finalize(hyp) for hyp in beam)
        complete.sort(key=_rank)
        del complete[config.n_best :]
        if step == search.max_len or not beam:
            break
        beam = search.expand(beam, config.beam_width)
        # Stop once no live hypothesis can still beat the worst kept
        # complete one; the bound is only tight for OOV scales <= 1, and
        # scorers report an infinite bound otherwise, which disables this.
        if len(complete) == config.n_best:
            worst = complete[-1].joint
            if all(search.upper_bound(hyp) < worst for hyp in beam):
                break

    return DecodeResult(complete, True)


def exhaustive_decode(
    posteriors: PosteriorMatrix,
    lm=None,
    att=None,
    config: DecodeConfig = DecodeConfig(),
) -> DecodeResult:
    """Score every label sequence up to ``max_len``; oracle for ``decode``.

    Expands each hypothesis with the beam search's own step, unpruned, so a
    saturated beam reproduces its ranking exactly, floating point included.
    """
    search = _Search(posteriors, lm, att, config)
    if sum(len(search.labels) ** n for n in range(search.max_len + 1)) > _ENUM_LIMIT:
        raise ValueError("search space too large to enumerate")

    results: list[Hypothesis] = []

    def expand(hyp: Hypothesis, depth: int) -> None:
        results.append(search.finalize(hyp))
        if depth < search.max_len:
            for child in search.expand([hyp], None):
                expand(child, depth + 1)

    expand(search.initial(), 0)
    results.sort(key=_rank)
    return DecodeResult(results[: config.n_best], True)
