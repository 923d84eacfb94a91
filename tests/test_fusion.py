"""Fusion scorers: hand-checked scores on the uniform tiny-vocab models.

Uniform character LM: every one of the 7 labels costs 1/7.  Uniform word
LM: every one of the 5 tokens (a, cat, eats, <UNK>, <eos>) costs 1/5.

Multi-level, spelling "cat" then <space>: three in-word labels cost
(1/7)^3 = 1/343; the boundary cancels that mass and charges the word
probability, a ratio of (1/5) / (1/343) = 68.6.  An unknown word keeps its
character mass and the boundary costs p(<UNK>) = 0.2.

Look-ahead, same spelling: "c" costs mass(c-subtree)/mass(root) =
(1/5)/(3/5) = 1/3, "a" and "t" cost (1/5)/(1/5) = 1, and <space> costs
p(cat)/mass(cat-node) = 1, so the whole word telescopes to 1/3 =
p(cat)/mass(root).
"""

import math

import numpy as np
import pytest

from beamfuse import (
    EOS,
    SPACE,
    CharLMScorer,
    EmptyWordError,
    LookAheadScorer,
    MarkovText,
    MultiLevelScorer,
    NGramModel,
    PrefixTree,
    Vocabulary,
    lookahead_prob,
    synth_vocabulary,
    train_ngram,
)
from beamfuse.fusion import LookAheadState
from oracles import lookahead_row_reference
from tree_walk import children, walk

LOG7 = math.log(1 / 7)
LOG5 = math.log(1 / 5)


def spell(scorer, state, labels):
    total = 0.0
    for label in labels:
        logp, state = scorer.score(state, label)
        total += logp
    return total, state


# ----------------------------------------------------------------------
# character LM scorer
# ----------------------------------------------------------------------


def test_char_scorer_uniform_cost(uniform_char_lm):
    scorer = CharLMScorer(uniform_char_lm)
    state = scorer.initial_state()
    logp, state = scorer.score(state, "a")
    assert logp == pytest.approx(LOG7, abs=1e-12)
    assert scorer.final(state) == pytest.approx(LOG7, abs=1e-12)
    assert scorer.future_score_bound(state) == 0.0


def test_char_scorer_uses_context(trained_char_lm):
    scorer = CharLMScorer(trained_char_lm)
    state = scorer.initial_state()
    # "a" opens the only training sentence, so it is the likeliest start
    probs = {
        label: scorer.score(state, label)[0] for label in ("a", "c", "t")
    }
    assert probs["a"] > probs["t"]


def test_char_scorer_initial_context_truncates(trained_char_lm):
    scorer = CharLMScorer(trained_char_lm)
    state = scorer.initial_state(("a", SPACE, "c", "a"))
    # order 3 keeps the last two labels
    assert len(state.context) == 2


def test_char_scorer_rejects_word_level(trained_word_lm):
    with pytest.raises(ValueError, match="character-level"):
        CharLMScorer(trained_word_lm)


def test_char_scorer_rejects_unknown_label(uniform_char_lm):
    scorer = CharLMScorer(uniform_char_lm)
    with pytest.raises(ValueError, match="unknown label"):
        scorer.score(scorer.initial_state(), "z")


# ----------------------------------------------------------------------
# multi-level scorer
# ----------------------------------------------------------------------


@pytest.fixture()
def ml(uniform_char_lm, uniform_word_lm, tiny_vocab):
    return MultiLevelScorer(uniform_char_lm, uniform_word_lm, tiny_vocab)


def test_multilevel_in_word_charges_char_lm(ml):
    total, state = spell(ml, ml.initial_state(), "cat")
    assert total == pytest.approx(3 * LOG7, abs=1e-12)
    assert state.node == walk(ml.tree, "cat") and ml.tree.word_end(state.node) == 1
    assert state.pending_logp == pytest.approx(3 * LOG7, abs=1e-12)


def test_multilevel_boundary_swaps_in_word_probability(ml):
    _, state = spell(ml, ml.initial_state(), "cat")
    logp, state = ml.score(state, SPACE)
    assert math.exp(logp) == pytest.approx(68.6, abs=1e-9)
    assert state.node == PrefixTree.ROOT
    assert state.pending_logp == 0.0
    assert state.word_history == (1,)


def test_multilevel_known_word_total_is_word_probability(ml):
    """Chars plus boundary telescope to exactly the word-LM probability."""
    total, state = spell(ml, ml.initial_state(), "cat")
    logp, _ = ml.score(state, SPACE)
    assert total + logp == pytest.approx(LOG5, abs=1e-9)


def test_multilevel_oov_keeps_char_mass(ml, tiny_vocab):
    total, state = spell(ml, ml.initial_state(), "ta")
    logp, state = ml.score(state, SPACE)
    assert math.exp(logp) == pytest.approx(0.2, abs=1e-12)
    assert state.word_history == (tiny_vocab.unk_id,)


def test_multilevel_oov_scale(uniform_char_lm, uniform_word_lm, tiny_vocab):
    ml = MultiLevelScorer(uniform_char_lm, uniform_word_lm, tiny_vocab, oov_scale=0.5)
    _, state = spell(ml, ml.initial_state(), "ta")
    logp, _ = ml.score(state, SPACE)
    assert math.exp(logp) == pytest.approx(0.1, abs=1e-12)


def test_multilevel_empty_word_raises(ml):
    with pytest.raises(EmptyWordError):
        ml.score(ml.initial_state(), SPACE)
    _, state = spell(ml, ml.initial_state(), "a")
    _, state = ml.score(state, SPACE)
    with pytest.raises(EmptyWordError):
        ml.score(state, SPACE)


def test_multilevel_final_with_pending_word(ml):
    _, state = spell(ml, ml.initial_state(), "a")
    # boundary for "a" (log(1/5) - log(1/7)) plus the <eos> word term
    expected = (LOG5 - LOG7) + LOG5
    assert ml.final(state) == pytest.approx(expected, abs=1e-12)


def test_multilevel_final_after_boundary(ml):
    _, state = spell(ml, ml.initial_state(), "a")
    _, state = ml.score(state, SPACE)
    assert ml.final(state) == pytest.approx(LOG5, abs=1e-12)


def test_multilevel_eos_acts_as_boundary(ml):
    """<eos> closes the pending word as <space> does, then ends the sentence."""
    _, state = spell(ml, ml.initial_state(), "cat")
    space_logp, child = ml.score(state, SPACE)
    eos_logp, _ = ml.score(state, EOS)
    assert eos_logp.hex() == (space_logp + ml.final(child)).hex()


def test_multilevel_future_bound_tracks_pending_mass(ml):
    state = ml.initial_state()
    assert ml.future_score_bound(state) == 0.0
    _, state = spell(ml, state, "ca")
    assert ml.future_score_bound(state) == pytest.approx(-2 * LOG7, abs=1e-12)


def test_multilevel_future_bound_is_zero_off_the_vocabulary(ml):
    # "ca" and the whole word "cat" can still close as "cat"; "ct" and
    # "cats" can only close as <UNK>, which keeps the character mass
    for spelling, continues in (("ca", True), ("cat", True), ("ct", False), ("cats", False)):
        _, state = spell(ml, ml.initial_state(), spelling)
        assert state.pending_logp == pytest.approx(len(spelling) * LOG7, abs=1e-12)
        assert ml.future_score_bound(state) == (-state.pending_logp if continues else 0.0)


def test_multilevel_future_bound_infinite_when_oov_amplified(
    uniform_char_lm, uniform_word_lm, tiny_vocab
):
    ml = MultiLevelScorer(uniform_char_lm, uniform_word_lm, tiny_vocab, oov_scale=2.0)
    assert ml.future_score_bound(ml.initial_state()) == math.inf
    for spelling in ("ca", "ct"):  # on and off the vocabulary
        assert ml.future_score_bound(spell(ml, ml.initial_state(), spelling)[1]) == math.inf


def test_multilevel_trained_history_conditions_word_probability(
    trained_char_lm, trained_word_lm, tiny_vocab
):
    ml = MultiLevelScorer(trained_char_lm, trained_word_lm, tiny_vocab)
    _, state = spell(ml, ml.initial_state(), "a")
    _, state = ml.score(state, SPACE)
    total, state = spell(ml, state, "cat")
    logp, _ = ml.score(state, SPACE)
    # boundary swaps in p(cat | a) = 0.6125
    assert total + logp == pytest.approx(math.log(0.6125), abs=1e-9)


# ----------------------------------------------------------------------
# look-ahead scorer
# ----------------------------------------------------------------------


@pytest.fixture()
def la(uniform_word_lm, tiny_vocab):
    return LookAheadScorer(uniform_word_lm, tiny_vocab)


def test_lookahead_first_label_costs_subtree_share(la):
    logp, state = la.score(la.initial_state(), "c")
    assert math.exp(logp) == pytest.approx(1 / 3, abs=1e-12)
    logp, state = la.score(state, "a")
    assert math.exp(logp) == pytest.approx(1.0, abs=1e-12)
    logp, state = la.score(state, "t")
    assert math.exp(logp) == pytest.approx(1.0, abs=1e-12)
    logp, state = la.score(state, SPACE)
    assert math.exp(logp) == pytest.approx(1.0, abs=1e-12)
    assert state.node == PrefixTree.ROOT
    assert state.word_history == (1,)


def test_lookahead_word_telescopes_to_word_share(la):
    """Whole-word cost is p(w) over the anticipated mass at the root."""
    total, state = spell(la, la.initial_state(), "cat")
    logp, _ = la.score(state, SPACE)
    assert total + logp == pytest.approx(math.log(1 / 3), abs=1e-9)


def test_lookahead_leaving_the_tree_charges_unk_once(la):
    _, state = spell(la, la.initial_state(), "e")
    logp, state = la.score(state, "c")  # "ec" extends no word
    assert math.exp(logp) == pytest.approx(0.2, abs=1e-12)
    assert state.node is None
    logp, state = la.score(state, "c")  # off-tree labels are free
    assert logp == 0.0
    logp, state = la.score(state, SPACE)  # boundary commits <UNK>
    assert logp == 0.0
    assert state.node == PrefixTree.ROOT
    assert state.word_history == (la.vocab.unk_id,)


def test_lookahead_short_spelling_is_unk(la, tiny_vocab):
    _, state = spell(la, la.initial_state(), "ca")  # stops short of "cat"
    logp, state = la.score(state, SPACE)
    assert math.exp(logp) == pytest.approx(0.2, abs=1e-12)
    assert state.word_history == (tiny_vocab.unk_id,)


def test_lookahead_empty_word_raises(la):
    with pytest.raises(EmptyWordError):
        la.score(la.initial_state(), SPACE)


def test_lookahead_final(la):
    _, state = spell(la, la.initial_state(), "cat")
    # close "cat" (cancels remaining mass) plus the <eos> term
    expected = math.log((1 / 5) / (1 / 5)) + LOG5
    assert la.final(state) == pytest.approx(expected, abs=1e-12)

    _, state = la.score(state, SPACE)
    assert la.final(state) == pytest.approx(LOG5, abs=1e-12)


def test_lookahead_oov_scale(uniform_word_lm, tiny_vocab):
    la = LookAheadScorer(uniform_word_lm, tiny_vocab, oov_scale=0.5)
    _, state = spell(la, la.initial_state(), "e")
    logp, _ = la.score(state, "c")
    assert math.exp(logp) == pytest.approx(0.1, abs=1e-12)
    assert la.future_score_bound(state) == 0.0

    amplified = LookAheadScorer(uniform_word_lm, tiny_vocab, oov_scale=2.0)
    assert amplified.future_score_bound(amplified.initial_state()) == math.inf


def test_lookahead_children_masses_locally_normalize(la, tiny_vocab):
    """Child mass shares plus the word-end share sum to one at every node."""
    tree = la.tree
    sums = la.word_model.cumulative_distribution(())
    stack = [tree.ROOT]
    while stack:
        node = stack.pop()
        mass = lookahead_prob(tree, node, sums)
        share = sum(
            lookahead_prob(tree, child, sums) for child in children(tree, node).values()
        )
        word_id = tree.word_end(node)
        if word_id is not None:
            share += la.word_model.prob(word_id, ())
        assert share == pytest.approx(mass, abs=1e-12)
        stack.extend(children(tree, node).values())


def test_lookahead_trained_history_conditions_mass(trained_word_lm, tiny_vocab):
    la = LookAheadScorer(trained_word_lm, tiny_vocab)
    _, state = spell(la, la.initial_state(), "a")
    _, state = la.score(state, SPACE)
    total, state = spell(la, state, "cat")
    logp, _ = la.score(state, SPACE)
    root_sums = trained_word_lm.cumulative_distribution((0,))
    root_mass = lookahead_prob(la.tree, la.tree.ROOT, root_sums)
    expected = math.log(0.6125 / root_mass)
    assert total + logp == pytest.approx(expected, abs=1e-9)


def test_scoring_is_pure(ml, la):
    for scorer, labels in ((ml, "cat"), (la, "cat")):
        state = scorer.initial_state()
        first = spell(scorer, state, labels)[0]
        second = spell(scorer, state, labels)[0]
        assert first == second


@pytest.mark.parametrize("scale", [0.0, -1.0, math.nan, math.inf])
def test_oov_scale_must_be_finite_and_positive(uniform_char_lm, uniform_word_lm, tiny_vocab, scale):
    with pytest.raises(ValueError, match="oov_scale must be finite and > 0"):
        MultiLevelScorer(uniform_char_lm, uniform_word_lm, tiny_vocab, oov_scale=scale)
    with pytest.raises(ValueError, match="oov_scale must be finite and > 0"):
        LookAheadScorer(uniform_word_lm, tiny_vocab, oov_scale=scale)


def test_word_model_vocabulary_mismatch_rejected(uniform_char_lm, uniform_word_lm):
    other = Vocabulary.from_words(["dog"])
    with pytest.raises(ValueError, match="does not match"):
        MultiLevelScorer(uniform_char_lm, uniform_word_lm, other)
    with pytest.raises(ValueError, match="does not match"):
        LookAheadScorer(uniform_word_lm, other)


def test_one_vocabulary_builds_one_tree(uniform_char_lm, uniform_word_lm, tiny_vocab):
    """Both word scorers walk the vocabulary's own prefix tree."""
    ml = MultiLevelScorer(uniform_char_lm, uniform_word_lm, tiny_vocab)
    la = LookAheadScorer(uniform_word_lm, tiny_vocab)
    assert ml.tree is la.tree is tiny_vocab.tree
    assert LookAheadScorer(uniform_word_lm, tiny_vocab, oov_scale=0.5).tree is tiny_vocab.tree


def test_scorer_label_inventories(ml, la, uniform_char_lm, tiny_vocab):
    assert ml.labels == frozenset(uniform_char_lm.tokens)
    assert la.labels == frozenset(tiny_vocab.label_set)


# ----------------------------------------------------------------------
# batched scoring: score_all against the per-label rule
# ----------------------------------------------------------------------


def reference_score(scorer, state, label, spelling=""):
    """The per-label scoring rule each scorer applied before batching, with
    ``<eos>`` scored as ``reference_final``.  The multi-level rule reads the
    pending word from *spelling*, not from the state's tree node, and its
    child's fields hold the child's spelling in the node's place.

    Returns (log score, child state fields), or None where ``<space>`` would
    close an empty word.
    """
    if isinstance(scorer, CharLMScorer):
        token = scorer.model.token_ids[label]
        keep = scorer.model.order - 1
        context = (state.context + (token,))[-keep:] if keep else ()
        return math.log(scorer.model.prob(token, state.context)), (context,)
    if isinstance(scorer, MultiLevelScorer):
        return _reference_multilevel(scorer, state, label, spelling)
    return _reference_lookahead(scorer, state, label)


def reference_final(scorer, state, spelling=""):
    """``final`` as it was before it became the ``<eos>`` column: close any
    pending word, then add log P(<eos> | word history)."""
    if isinstance(scorer, CharLMScorer):
        return reference_score(scorer, state, EOS)[0]
    boundary, history = 0.0, state.word_history
    closed = reference_score(scorer, state, SPACE, spelling)
    if closed is not None:
        boundary, history = closed[0], scorer.advance(state, SPACE).word_history
    return boundary + math.log(scorer.word_model.prob(scorer.vocab.eos_id, history))


def _clip(history, model):
    keep = model.order - 1
    return history[-keep:] if keep else ()


def _reference_multilevel(scorer, state, label, spelling):
    token = scorer.char_model.token_ids[label]
    keep = scorer.char_model.order - 1
    char_context = (state.char_context + (token,))[-keep:] if keep else ()
    if label in (SPACE, EOS):
        word_id = scorer.vocab.lookup(spelling)
        logp = math.log(scorer.word_model.prob(word_id, state.word_history))
        if word_id == scorer.vocab.unk_id:
            logp += math.log(scorer.oov_scale)
        else:
            logp -= state.pending_logp
        history = _clip(state.word_history + (word_id,), scorer.word_model)
        child = (char_context, history, "", 0.0)
        if label == EOS:
            return reference_final(scorer, state, spelling), child
        return (logp, child) if spelling else None
    logp = math.log(scorer.char_model.prob(token, state.char_context))
    return logp, (char_context, state.word_history, spelling + label, state.pending_logp + logp)


def _reference_multilevel_bound(scorer, state, spelling):
    """The pending character mass while some word can still close, else 0
    (for an OOV scale <= 1)."""
    continues = any(word.startswith(spelling) for word in scorer.vocab.words)
    return -state.pending_logp if continues else 0.0


def _reference_lookahead(scorer, state, label):
    tree, model, vocab = scorer.tree, scorer.word_model, scorer.vocab

    def oov_charge(history):
        return math.log(model.prob(vocab.unk_id, history)) + math.log(scorer.oov_scale)

    unk = oov_charge(state.word_history)
    if label in (SPACE, EOS):
        if state.node is None:
            logp, word_id = 0.0, vocab.unk_id
        elif tree.word_end(state.node) is None:
            logp, word_id = unk, vocab.unk_id
        else:
            word_id = tree.word_end(state.node)
            logp = math.log(model.prob(word_id, state.word_history)) - state.node_log_mass
        history = _clip(state.word_history + (word_id,), model)
        sums = model.cumulative_distribution(history)
        mass = math.log(lookahead_prob(tree, tree.ROOT, sums))
        child = (tree.ROOT, mass, history, oov_charge(history))
        if label == EOS:
            return reference_final(scorer, state), child
        return (logp, child) if state.node != tree.ROOT else None
    if state.node is None:
        return 0.0, (None, 0.0, state.word_history, unk)
    child = tree.descend(state.node, label)
    if child is None:
        return unk, (None, 0.0, state.word_history, unk)
    mass = math.log(lookahead_prob(tree, child, state.sums))
    return mass - state.node_log_mass, (child, mass, state.word_history, unk)


def _fields(state):
    if isinstance(state, LookAheadState):
        return (state.node, state.node_log_mass, state.word_history, state.unk_logp)
    return tuple(getattr(state, name) for name in state._fields)


def _reference_fields(scorer, fields):
    """Reference child fields as the scorer's state holds them: a multi-level
    child's spelling becomes the node that spelling walks to."""
    if isinstance(scorer, MultiLevelScorer):
        char_context, history, spelling, pending_logp = fields
        return char_context, history, walk(scorer.tree, spelling), pending_logp
    return fields


def _reachable_states(scorer):
    """Root, in-word, word-end, off-tree, OOV-closed and post-boundary states,
    and the spelling of each one's pending word."""
    spellings = ["", "c", "ca", "cat", "a", "ea", "e", "ec", "ecc", "ta"]
    states, pending = [], []
    if isinstance(scorer, CharLMScorer):
        histories = [(), ("a", SPACE), ("t",)]
    else:
        histories = [(), (0,), (3,)]  # no word, "a", <UNK>
    for history in histories:
        for spelling in spellings:
            state = scorer.initial_state(history)
            for label in spelling:
                state = scorer.score(state, label)[1]
            states.append(state)
            pending.append(spelling)
            if spelling:
                closed = scorer.score(state, SPACE)[1]
                states.extend([closed, scorer.score(closed, "c")[1]])
                pending.extend(["", "c"])
    return states, pending


def _scorer_grid(uniform_char_lm, trained_char_lm, uniform_word_lm, trained_word_lm, vocab):
    return [
        CharLMScorer(uniform_char_lm),
        CharLMScorer(trained_char_lm),
        MultiLevelScorer(trained_char_lm, trained_word_lm, vocab),
        MultiLevelScorer(uniform_char_lm, trained_word_lm, vocab, oov_scale=0.5),
        LookAheadScorer(trained_word_lm, vocab),
        LookAheadScorer(uniform_word_lm, vocab, oov_scale=0.5),
        # Two words of history, and a trigram context (<UNK>, cat) whose first
        # word was never a context: a state on the unigram's sums then closes
        # "cat" into a history whose <eos> term the tree node does not fix.
        LookAheadScorer(NGramModel(3, "word", vocab.lm_tokens, [{}, {}, {(3, 1): {4: 3}}]), vocab),
    ]


def test_score_all_is_bitwise_the_per_label_rule(
    uniform_char_lm, trained_char_lm, uniform_word_lm, trained_word_lm, tiny_vocab
):
    """Every entry of score_all is the float score returns and the old
    per-label rule computes; NaN sits exactly where score raises
    EmptyWordError, and advance builds the rule's child state."""
    labels = list(tiny_vocab.label_set)  # every letter, <space> and <eos>
    grid = _scorer_grid(
        uniform_char_lm, trained_char_lm, uniform_word_lm, trained_word_lm, tiny_vocab
    )
    kinds = set()
    for scorer in grid:
        states, pending = _reachable_states(scorer)
        batch = scorer.score_all(states, labels)
        assert batch.shape == (len(states), len(labels))
        # a shuffled sub-batch gives the same rows
        picked = [7, 0, 3]
        assert np.array_equal(
            scorer.score_all([states[j] for j in picked], labels), batch[picked], equal_nan=True
        )
        for j, (state, spelling) in enumerate(zip(states, pending)):
            if isinstance(state, LookAheadState):
                kinds.add("root" if state.node == 0 else "off" if state.node is None else "in")
            if isinstance(scorer, MultiLevelScorer):
                assert state.node == walk(scorer.tree, spelling)
                bound = _reference_multilevel_bound(scorer, state, spelling)
                assert scorer.future_score_bound(state) == bound
            for i, label in enumerate(labels):
                want = reference_score(scorer, state, label, spelling)
                if want is None:
                    assert math.isnan(batch[j, i])
                    with pytest.raises(EmptyWordError):
                        scorer.score(state, label)
                    continue
                logp, child = scorer.score(state, label)
                assert batch[j, i].hex() == logp.hex() == want[0].hex()
                fields = _reference_fields(scorer, want[1])
                assert _fields(child) == _fields(scorer.advance(state, label)) == fields
    assert kinds == {"root", "in", "off"}


def test_eos_column_and_final_are_bitwise_the_old_final(
    uniform_char_lm, trained_char_lm, uniform_word_lm, trained_word_lm, tiny_vocab
):
    """The <eos> column of score_all, and final, hold exactly the float the
    old final computed; for a word scorer with a pending word that is the
    <space> entry plus final of the closed state."""
    grid = _scorer_grid(
        uniform_char_lm, trained_char_lm, uniform_word_lm, trained_word_lm, tiny_vocab
    )
    for scorer in grid:
        states, pending = _reachable_states(scorer)
        column = scorer.score_all(states, [EOS])[:, 0].tolist()
        for state, spelling, eos in zip(states, pending, column):
            want = reference_final(scorer, state, spelling)
            assert eos.hex() == scorer.final(state).hex() == want.hex()
            closes = reference_score(scorer, state, SPACE, spelling)
            if not isinstance(scorer, CharLMScorer) and closes:
                space_logp, child = scorer.score(state, SPACE)
                assert eos.hex() == (space_logp + scorer.final(child)).hex()


def test_lookahead_keeps_scores_once_per_node_on_the_unigram_row(trained_word_lm, tiny_vocab):
    """States whose history shares the unigram's row (no word, <UNK>) read
    one kept row per node; an observed history ("a") keeps nothing."""
    scorer = LookAheadScorer(trained_word_lm, tiny_vocab)
    states, _ = _reachable_states(scorer)
    labels = list(tiny_vocab.label_set)
    first = scorer.score_all(states, labels)
    assert np.array_equal(scorer.score_all(states, labels), first, equal_nan=True)
    unigram = trained_word_lm.cumulative_distribution(())
    shared = {s.node for s in states if s.node is not None and s.sums is unigram}
    assert shared and set(scorer._unigram_rows) == shared
    assert any(s.sums is not unigram for s in states)


@pytest.mark.parametrize("order", [2, 3])
def test_lookahead_rows_are_bitwise_the_per_child_formula(order):
    """On every node of a trained word model's tree, for an observed history
    and for one that shares the unigram's row, each score_all row holds the
    floats of the per-child oracle, and each node's log mass is the log of
    the old ``sums[hi + 1] - sums[lo]``."""
    words = synth_vocabulary(80, seed=12, alphabet="abcd")
    corpus = MarkovText(words, seed=13).sentences(150, 2, 6, seed=14)
    vocab = Vocabulary.from_words(words)
    model = train_ngram(corpus, order, "word", vocab)
    scorer = LookAheadScorer(model, vocab, oov_scale=0.5)
    labels = [*scorer.tree.labels, SPACE, EOS]
    observed = tuple(vocab.lookup(word) for word in corpus[0][: order - 1])
    unseen = (vocab.unk_id,) * (order - 1)  # the corpus holds no <UNK>
    unigram = model.cumulative_distribution(())
    for history in (observed, unseen):
        stack, seen = [scorer.initial_state(history)], set()
        assert (stack[0].sums is unigram) == (history == unseen)
        while stack:
            state = stack.pop()
            seen.add(state.node)
            lo, hi = scorer.tree.lo[state.node], scorer.tree.hi[state.node]
            assert state.node_log_mass.hex() == math.log(state.sums[hi + 1] - state.sums[lo]).hex()
            for _ in range(2):  # built, then (on the unigram's row) kept
                got = scorer.score_all([state], labels)[0].tolist()
                want = lookahead_row_reference(scorer, state)
                assert [v.hex() for v in got] == [v.hex() for v in want]
            kids = children(scorer.tree, state.node)
            stack.extend(scorer.advance(state, label) for label in kids)
        assert seen == set(range(len(scorer.tree)))


def test_score_all_rejects_unknown_labels(
    uniform_char_lm, trained_char_lm, uniform_word_lm, trained_word_lm, tiny_vocab
):
    grid = _scorer_grid(
        uniform_char_lm, trained_char_lm, uniform_word_lm, trained_word_lm, tiny_vocab
    )
    for scorer in grid:
        with pytest.raises(ValueError, match="unknown label 'z'"):
            scorer.score_all([scorer.initial_state()], ["a", "z"])
