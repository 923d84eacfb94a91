"""Character-level LM fusion scorers for label-synchronous beam search.

Three interchangeable strategies share one interface: ``score_all`` scores a
whole beam step as an (H, C) array of natural-log scores, NaN where
``<space>`` would close an empty word; its ``<eos>`` column is the
end-of-sentence term.  ``advance`` builds one survivor's child state;
``score`` and ``final`` are one-label and one-state views.  Scores may exceed
zero because boundary corrections are ratios, not probabilities.  States are
immutable named tuples, the cheapest record to build per survivor.  Logs
are taken with ``math.log`` one value at a time (``np.log`` can differ in
the last bit), so ``score_all`` holds exactly the floats ``score`` returns,
and repeated calls agree bit for bit.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

import numpy as np

from .ngram import NGramModel
from .trie import PrefixTree
from .vocab import EOS, SPACE, WORD_END_LABELS, Vocabulary


class EmptyWordError(ValueError):
    """A word-end label arrived with no pending characters."""


def check_oov_scale(scale: float, name: str = "oov_scale") -> None:
    """An OOV scale multiplies a probability, so it must be finite and > 0."""
    if not 0.0 < scale < math.inf:
        raise ValueError(f"{name} must be finite and > 0")


def lookahead_prob(tree: PrefixTree, node: int, sums: np.ndarray) -> float:
    """Probability mass of every word anticipated at *node*.

    *sums* holds leading-zero cumulative sums of a word distribution, so the
    mass of the contiguous anticipated interval [lo, hi] is one subtraction,
    ``sums[hi + 1] - sums[lo]``.
    """
    lo, hi = tree.interval(node)
    return sums.item(hi + 1) - sums.item(lo)


def _token_ids(ids: dict[str, int], labels: Sequence[str]) -> list[int]:
    try:
        return [ids[label] for label in labels]
    except KeyError as exc:
        raise ValueError(f"unknown label {exc.args[0]!r}") from None


class _FusionScorer:
    """``score`` as the one-label view of ``score_all`` plus ``advance``, and
    ``final`` as the one-state view of its ``<eos>`` column."""

    def score(self, state, label: str) -> tuple[float, object]:
        logp = self.score_all([state], [label]).item()
        if math.isnan(logp):
            raise EmptyWordError("empty word at boundary")
        return logp, self.advance(state, label)

    def final(self, state) -> float:
        return self.score_all([state], [EOS]).item()


# ======================================================================
# plain character LM
# ======================================================================


class CharState(NamedTuple):
    context: tuple[int, ...]


class CharLMScorer(_FusionScorer):
    """Every label costs its character-LM conditional probability.

    Also serves as the stand-in attention scorer: any object with this
    interface can sit in the attention slot of the decoder.
    """

    def __init__(self, model: NGramModel):
        if model.level != "char":
            raise ValueError("character scorer requires a character-level model")
        self.model = model
        self.labels = frozenset(model.tokens)
        self._ids = model.token_ids

    def initial_state(self, context: Sequence[str] = ()) -> CharState:
        return CharState(self.model.clip([self._ids[label] for label in context]))

    def score_all(self, states: Sequence[CharState], labels: Sequence[str]) -> np.ndarray:
        tokens = _token_ids(self._ids, labels)
        return np.array([self.model.log_rows(s.context) for s in states])[:, tokens]

    def advance(self, state: CharState, label: str) -> CharState:
        return CharState(self.model.clip(state.context + (self._ids[label],)))

    def future_score_bound(self, state: CharState) -> float:
        """Upper bound on log mass any completion can still add (here zero)."""
        return 0.0


# ======================================================================
# word-LM scorers: shared base
# ======================================================================


class _WordScorer(_FusionScorer):
    """What the two word-LM scorers share.

    Both walk ``vocab.tree``: a state's ``node`` is ``ROOT`` with no pending
    word and ``None`` once no word continues its spelling.  A subclass says
    what closing the pending word scores (``_close_word``), which is the
    ``<space>`` entry; the ``<eos>`` entry closes any pending word, then adds
    ``log P(<eos> | word history)``.
    """

    def __init__(self, word_model: NGramModel, vocab: Vocabulary, oov_scale: float):
        if word_model.level != "word":
            raise ValueError("fusion requires a word-level model")
        if word_model.tokens != vocab.lm_tokens:
            raise ValueError("word model inventory does not match the vocabulary")
        check_oov_scale(oov_scale)
        self.word_model = word_model
        self.vocab = vocab
        self.tree = vocab.tree
        self.oov_scale = oov_scale
        self._unk_id, self._eos_id = vocab.unk_id, vocab.eos_id
        self._clip = word_model.clip
        self._log_oov_scale = math.log(oov_scale)

    def _eos(self, state, close: float, word_id: int) -> float:
        """The ``<eos>`` entry after *close*, the ``<space>`` one (NaN with no
        pending word) that commits *word_id*."""
        history = state.word_history
        if math.isnan(close):
            close = 0.0
        else:
            history = self._clip(history + (word_id,))
        return close + self.word_model.log_prob(self._eos_id, history)

    def _word_id(self, state) -> int:
        """The word a word-end label commits: the spelled word or ``<UNK>``."""
        word_id = None if state.node is None else self.tree.word_end(state.node)
        return self._unk_id if word_id is None else word_id


# ======================================================================
# multi-level character/word LM
# ======================================================================


class MultiLevelState(NamedTuple):
    char_context: tuple[int, ...]
    word_history: tuple[int, ...]
    node: int | None  # the pending spelling's tree node; None once it leaves every word
    pending_logp: float  # character-LM log mass accumulated for the pending word


class MultiLevelScorer(_WordScorer):
    """Character-LM scores in-word, replaced by word probabilities at boundaries.

    Inside a word every label costs its character-LM probability and that
    cost is remembered.  A word-end label closing a known word cancels the
    remembered character mass and charges the word-LM probability instead,
    so a completed in-vocabulary word costs exactly its word-LM probability.
    Unknown words keep their character mass and additionally pay the word
    LM's ``<UNK>`` probability scaled by *oov_scale*.
    """

    def __init__(
        self,
        char_model: NGramModel,
        word_model: NGramModel,
        vocab: Vocabulary,
        oov_scale: float = 1.0,
    ):
        if char_model.level != "char":
            raise ValueError("multi-level scorer requires a character-level model")
        super().__init__(word_model, vocab, oov_scale)
        self.char_model = char_model
        self.labels = frozenset(char_model.tokens)
        self._ids = char_model.token_ids
        self._space, self._eos_token = self._ids[SPACE], self._ids[EOS]

    def initial_state(self, word_history: Sequence[int] = ()) -> MultiLevelState:
        return MultiLevelState((), self._clip(word_history), PrefixTree.ROOT, 0.0)

    def score_all(self, states: Sequence[MultiLevelState], labels: Sequence[str]) -> np.ndarray:
        tokens = _token_ids(self._ids, labels)
        out = np.array([self.char_model.log_rows(s.char_context) for s in states])
        for row, state in zip(out, states):
            word_id = self._word_id(state)
            close = math.nan if state.node == PrefixTree.ROOT else self._close_word(state, word_id)
            row[self._space], row[self._eos_token] = close, self._eos(state, close, word_id)
        return out[:, tokens]

    def advance(self, state: MultiLevelState, label: str) -> MultiLevelState:
        token = self._ids[label]
        char_context = self.char_model.clip(state.char_context + (token,))
        if label in WORD_END_LABELS:
            history = self._clip(state.word_history + (self._word_id(state),))
            return MultiLevelState(char_context, history, PrefixTree.ROOT, 0.0)
        logp = self.char_model.log_rows(state.char_context)[token].item()
        node = self.tree.descend(state.node, label)
        return MultiLevelState(char_context, state.word_history, node, state.pending_logp + logp)

    def future_score_bound(self, state: MultiLevelState) -> float:
        # Closing the pending word recovers at most its character mass, and
        # none once its spelling leaves the prefix tree (it closes as
        # <UNK>).  With oov_scale <= 1 every later factor is <= 1.
        if self.oov_scale > 1.0:
            return math.inf
        return 0.0 if state.node is None else -state.pending_logp

    def _close_word(self, state: MultiLevelState, word_id: int) -> float:
        logp = self.word_model.log_prob(word_id, state.word_history)
        if word_id == self._unk_id:
            return logp + self._log_oov_scale
        return logp - state.pending_logp


# ======================================================================
# prefix-tree look-ahead word LM
# ======================================================================


class LookAheadState(NamedTuple):
    node: int | None  # trie position; None after leaving every spelling
    node_log_mass: float  # log anticipated-word mass at node (0.0 when node is None)
    word_history: tuple[int, ...]
    sums: np.ndarray  # cached cumulative word distribution for word_history
    unk_logp: float  # the OOV charge: scaled log P(<UNK> | word_history)

    # An array has no value equality: compare and hash by identity.
    __eq__, __ne__, __hash__ = object.__eq__, object.__ne__, object.__hash__


class LookAheadScorer(_WordScorer):
    """Word-LM look-ahead over a prefix tree; no character LM involved.

    While a word is being spelled the hypothesis walks the tree and each
    label costs the ratio of anticipated-word mass between the child and the
    current node, read from cached cumulative sums of the full word
    distribution.  A word-end label at a complete spelling cancels the
    accumulated look-ahead mass against the actual word probability.
    Leaving every spelling charges the word LM's ``<UNK>`` probability once
    (scaled by *oov_scale*); labels after that are free until the next
    word-end label commits ``<UNK>`` and re-enters at the root.  The tree
    root is the only state with no pending characters.
    """

    def __init__(self, word_model: NGramModel, vocab: Vocabulary, oov_scale: float = 1.0):
        super().__init__(word_model, vocab, oov_scale)
        self.labels = frozenset(vocab.label_set)
        self._columns = {**self.tree.columns, SPACE: -2, EOS: -1}
        self._off_tree = np.append(np.zeros(len(self.tree.labels) + 1), math.nan)
        self._unigram_sums = word_model.cumulative_distribution(())
        self._unigram_rows: dict[int, np.ndarray] = {}

    def initial_state(self, word_history: Sequence[int] = ()) -> LookAheadState:
        return self._root_state(self._clip(word_history))

    def score_all(self, states: Sequence[LookAheadState], labels: Sequence[str]) -> np.ndarray:
        columns = _token_ids(self._columns, labels)  # tree column; -2 <space>, -1 <eos>
        rows = np.array([self._scores(s) for s in states])
        for j in np.flatnonzero(np.isnan(rows[:, -1])).tolist():  # <eos> left to the state
            state = states[j]
            rows[j, -1] = self._eos(state, rows[j, -2].item(), self._word_id(state))
        return rows[:, columns]

    def _scores(self, state: LookAheadState) -> np.ndarray | list[float]:
        """Each tree column's score for *state*, then ``<space>``'s and ``<eos>``'s:
        a letter costs the child's anticipated-word mass over the node's, or the
        OOV charge when no word continues the spelling (off the tree, already
        paid).  Kept per node, as an array, for states on the unigram's sums,
        shared by every unseen history, with ``<eos>`` only when a closed word
        is all the history kept; else, and off the tree, it is NaN here and left
        to the state.  A child's mass is the difference of two neighbouring
        entries of one gather of the node's edge slice."""
        node = state.node
        if node is None:
            return self._off_tree
        shared = state.sums is self._unigram_sums
        row = self._unigram_rows.get(node) if shared else None
        if row is None:
            tree, base = self.tree, state.node_log_mass
            start, stop = tree.edge_offsets[node], tree.edge_offsets[node + 1]
            bounds = state.sums[tree.edges[start:stop]].tolist()
            row = [state.unk_logp] * len(tree.labels)
            for column, lo, end in zip(tree.edge_columns[start:stop], bounds, bounds[1:]):
                row[column] = math.log(end - lo) - base
            word_id = self._word_id(state)
            close = math.nan if node == PrefixTree.ROOT else self._close_word(state, word_id)
            full = self.word_model.order <= 2 or not shared
            row += [close, self._eos(state, close, word_id) if full else math.nan]
            if shared:
                row = self._unigram_rows[node] = np.array(row)
        return row

    def advance(self, state: LookAheadState, label: str) -> LookAheadState:
        if label in WORD_END_LABELS:
            word_id = self._word_id(state)
            return self._root_state(self._clip(state.word_history + (word_id,)))
        child = self.tree.descend(state.node, label)
        mass = 0.0 if child is None else math.log(lookahead_prob(self.tree, child, state.sums))
        return LookAheadState(child, mass, state.word_history, state.sums, state.unk_logp)

    def future_score_bound(self, state: LookAheadState) -> float:
        # Interval masses shrink along every spelling and the word-end
        # correction cancels at most the accumulated mass, so with
        # oov_scale <= 1 no completion adds positive log mass.
        return 0.0 if self.oov_scale <= 1.0 else math.inf

    def _close_word(self, state: LookAheadState, word_id: int) -> float:
        """Closing an on-tree spelling; off the tree, ``_off_tree`` holds 0.0,
        since the OOV charge was paid on leaving the tree."""
        if word_id == self._unk_id:
            return state.unk_logp  # the spelling stops short of every word
        return self.word_model.log_prob(word_id, state.word_history) - state.node_log_mass

    def _root_state(self, history: tuple[int, ...]) -> LookAheadState:
        sums = self.word_model.cumulative_distribution(history)
        mass = math.log(lookahead_prob(self.tree, PrefixTree.ROOT, sums))
        unk = self.word_model.log_prob(self._unk_id, history) + self._log_oov_scale
        return LookAheadState(PrefixTree.ROOT, mass, history, sums, unk)
