"""Beam search behavior and equivalence with exhaustive scoring."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings

from beamfuse import (
    BLANK,
    EOS,
    SPACE,
    CharLMScorer,
    CtcPrefixScorer,
    DecodeConfig,
    EmptyWordError,
    LookAheadScorer,
    MultiLevelScorer,
    NGramModel,
    PosteriorMatrix,
    Vocabulary,
    combine_scores,
    ctc_final,
    decode,
    exhaustive_decode,
    synth_posteriors,
    to_char_labels,
    train_ngram,
)
from beamfuse import decoder as decoder_module
from extreme_matrices import hard_matrices

LABELS = ("a", "c", "e", "s", "t", SPACE, BLANK)


def random_matrix(rng, frames, labels):
    return PosteriorMatrix(labels, rng.dirichlet(np.ones(len(labels)), size=frames))


def scorer_grid(tiny_vocab, uniform_char_lm, trained_char_lm, trained_word_lm):
    """(lm, att) pairs covering every fusion strategy."""
    return [
        (None, None),
        (CharLMScorer(trained_char_lm), None),
        (CharLMScorer(trained_char_lm), CharLMScorer(uniform_char_lm)),
        (MultiLevelScorer(trained_char_lm, trained_word_lm, tiny_vocab), None),
        (LookAheadScorer(trained_word_lm, tiny_vocab), None),
    ]


def test_combine_scores_weighted_sum():
    config = DecodeConfig(ctc_weight=0.2, lm_weight=1.0)
    assert combine_scores(-1.0, -2.0, -3.0, config) == pytest.approx(-4.8, abs=1e-12)


def test_combine_scores_drops_zero_weight_components():
    neg_inf = float("-inf")
    config = DecodeConfig(ctc_weight=0.0, lm_weight=0.0)
    assert combine_scores(neg_inf, -1.0, neg_inf, config) == -1.0
    config = DecodeConfig(ctc_weight=1.0, lm_weight=1.0)
    assert combine_scores(-1.0, neg_inf, -2.0, config) == -3.0


def test_config_validation():
    with pytest.raises(ValueError):
        DecodeConfig(ctc_weight=1.5)
    for weight in (-0.1, math.nan, math.inf):
        with pytest.raises(ValueError, match="lm_weight must be finite and >= 0"):
            DecodeConfig(lm_weight=weight)
    with pytest.raises(ValueError):
        DecodeConfig(beam_width=0)
    with pytest.raises(ValueError):
        DecodeConfig(max_len=-1)
    with pytest.raises(ValueError):
        DecodeConfig(n_best=0)
    for limit in ("beam_width", "max_len", "n_best"):
        for value in (2.5, 3.0, True, "3"):
            with pytest.raises(ValueError, match=f"{limit} must be an int"):
                DecodeConfig(**{limit: value})
    config = DecodeConfig(beam_width=np.int64(4), max_len=np.int32(3), n_best=2)
    mat = synth_posteriors(["a", "cat"], LABELS, peak=0.7, seed=3)
    assert len(decode(mat, config=config).hypotheses) == 2


def test_peaked_posteriors_decode_to_transcript():
    transcript = ["a", "cat", "eats"]
    mat = synth_posteriors(transcript, LABELS, frames_per_label=2, peak=0.95, seed=3)
    result = decode(mat, config=DecodeConfig(ctc_weight=0.5, lm_weight=0.0, beam_width=8))
    assert result.complete
    assert result.hypotheses[0].labels == tuple(to_char_labels(transcript))
    assert result.hypotheses[0].text == "a cat eats"


def test_saturated_beam_matches_exhaustive(
    tiny_vocab, uniform_char_lm, trained_char_lm, trained_word_lm
):
    """A beam wide enough to never prune reproduces exhaustive scoring
    exactly: same labels, bitwise-equal joint scores, same order."""
    rng = np.random.default_rng(41)
    labels = ("a", "c", SPACE, BLANK)
    config = DecodeConfig(
        ctc_weight=0.3, lm_weight=0.7, beam_width=4096, max_len=3, n_best=5
    )
    for lm, att in scorer_grid(tiny_vocab, uniform_char_lm, trained_char_lm, trained_word_lm):
        for _ in range(4):
            mat = random_matrix(rng, int(rng.integers(2, 5)), labels)
            beam = decode(mat, lm, att, config)
            full = exhaustive_decode(mat, lm, att, config)
            assert len(beam.hypotheses) == len(full.hypotheses)
            for hb, hf in zip(beam.hypotheses, full.hypotheses):
                assert hb.labels == hf.labels
                assert hb.joint == hf.joint
                assert hb.ctc_score == hf.ctc_score
                assert hb.lm_score == hf.lm_score
                assert hb.att_score == hf.att_score


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(matrix=hard_matrices(("a", "c", SPACE)))
def test_saturated_beam_matches_exhaustive_on_extreme_posteriors(
    matrix, tiny_vocab, uniform_char_lm, trained_char_lm, trained_word_lm
):
    """On posteriors with exact zeros, one-hot rows, tied columns and logits
    up to x700, for every scorer pair: a saturated beam equals exhaustive
    search bit for bit, no score is NaN, and a second decode is identical."""
    config = DecodeConfig(ctc_weight=0.3, lm_weight=0.7, beam_width=4096, n_best=5)
    for lm, att in scorer_grid(tiny_vocab, uniform_char_lm, trained_char_lm, trained_word_lm):
        beam = decode(matrix, lm, att, config)
        assert _bits(beam) == _bits(exhaustive_decode(matrix, lm, att, config))
        scores = [(h.ctc_score, h.att_score, h.lm_score, h.joint) for h in beam.hypotheses]
        assert not np.isnan(scores).any()
        assert _bits(decode(matrix, lm, att, config)) == _bits(beam)


def test_early_stop_does_not_change_results(trained_word_lm, tiny_vocab):
    """The upper-bound cutoff only skips work, never answers."""
    rng = np.random.default_rng(43)
    labels = ("a", "c", "t", SPACE, BLANK)
    lm = LookAheadScorer(trained_word_lm, tiny_vocab)
    config = DecodeConfig(ctc_weight=0.4, lm_weight=0.6, beam_width=6, max_len=6, n_best=3)
    wide = DecodeConfig(ctc_weight=0.4, lm_weight=0.6, beam_width=4096, max_len=6, n_best=3)
    for _ in range(10):
        mat = random_matrix(rng, int(rng.integers(3, 7)), labels)
        pruned = decode(mat, lm, None, config)
        full = exhaustive_decode(mat, lm, None, wide)
        # the saturated search bounds the pruned one from above
        assert pruned.hypotheses[0].joint <= full.hypotheses[0].joint + 1e-12


class _Counted(MultiLevelScorer):
    """Multi-level fusion that counts the beam steps it scores."""

    steps = 0

    def score_all(self, states, labels):
        self.steps += 1
        return super().score_all(states, labels)


class _Unbounded(_Counted):
    """The same with early stopping disabled."""

    def future_score_bound(self, state):
        return math.inf


def test_multilevel_early_stop_is_exact():
    """Stopping on the multi-level bound returns bit for bit the n-best of
    the same search run to the end.  Most spellings leave the small
    vocabulary, and the word LM strongly favours a long word that has little
    character mass, so a partial spelling of it that trails every kept
    hypothesis can still overtake them at its boundary."""
    long_word = "cbcbcb"
    vocab = Vocabulary.from_words(["a", "ab", "b", "ba", long_word])
    words = train_ngram([[long_word]] * 20 + [["a", "b"], ["ba", "ab"]], 2, "word", vocab)
    char_models = [
        NGramModel(2, "char", vocab.label_set),
        train_ngram([["a", "ab", "ba", "b", "abab", "c"]] * 5, 3, "char", vocab),
    ]
    labels = ("a", "b", "c", SPACE, BLANK)
    rng = np.random.default_rng(59)
    stopped = 0
    for trial in range(80):
        chars = char_models[trial % 2]
        config = DecodeConfig(
            ctc_weight=float(rng.uniform(0.2, 0.8)),
            beam_width=int(rng.integers(2, 9)),
            n_best=int(rng.integers(1, 5)),
        )
        if trial % 4 < 2:
            mat = random_matrix(rng, int(rng.integers(3, 12)), labels)
        else:
            transcript = [str(w) for w in rng.choice(["a", "b", "ab", long_word], 2)]
            mat = synth_posteriors(
                transcript, labels, peak=float(rng.uniform(0.3, 0.9)), seed=trial
            )
        bounded, full = _Counted(chars, words, vocab), _Unbounded(chars, words, vocab)
        got = decode(mat, bounded, None, config).hypotheses
        want = decode(mat, full, None, config).hypotheses
        stopped += bounded.steps < full.steps
        assert [h.labels for h in got] == [h.labels for h in want]
        for g, w in zip(got, want):
            assert (g.joint, g.ctc_score, g.att_score, g.lm_score) == (
                w.joint, w.ctc_score, w.att_score, w.lm_score,
            )
    assert stopped >= 20, stopped  # the bound did cut searches short


def test_max_len_zero_returns_empty_hypothesis(uniform_char_lm):
    mat = synth_posteriors(["a"], LABELS, peak=0.9, seed=0)
    lm = CharLMScorer(uniform_char_lm)
    result = decode(mat, lm, None, DecodeConfig(max_len=0))
    assert result.complete
    assert len(result.hypotheses) == 1
    hyp = result.hypotheses[0]
    assert hyp.labels == ()
    assert hyp.ctc_score == ctc_final(CtcPrefixScorer(mat).initial_state())
    assert hyp.lm_score == lm.final(lm.initial_state())


@pytest.mark.parametrize("search", [decode, exhaustive_decode])
def test_blank_only_posteriors_decode_to_the_empty_hypothesis(search):
    """No label to extend by: the empty hypothesis alone, with every score 0."""
    mat = PosteriorMatrix((BLANK,), np.ones((4, 1)))
    result = search(mat, None, None, DecodeConfig(n_best=3))
    assert [hyp.labels for hyp in result.hypotheses] == [()]
    hyp = result.hypotheses[0]
    assert (hyp.ctc_score, hyp.att_score, hyp.lm_score, hyp.joint) == (0.0, 0.0, 0.0, 0.0)


def test_decode_is_deterministic(trained_char_lm, trained_word_lm, tiny_vocab):
    mat = synth_posteriors(["a", "cat"], LABELS, peak=0.7, seed=9)
    lm = MultiLevelScorer(trained_char_lm, trained_word_lm, tiny_vocab)
    config = DecodeConfig(beam_width=6, n_best=4)
    first = decode(mat, lm, None, config)
    second = decode(mat, lm, None, config)
    assert [h.labels for h in first.hypotheses] == [h.labels for h in second.hypotheses]
    assert [h.joint for h in first.hypotheses] == [h.joint for h in second.hypotheses]


def test_saturated_beam_bounds_any_narrower_beam(trained_char_lm):
    rng = np.random.default_rng(47)
    labels = ("a", "c", SPACE, BLANK)
    lm = CharLMScorer(trained_char_lm)
    for _ in range(5):
        mat = random_matrix(rng, 4, labels)
        joints = []
        for width in (1, 2, 8, 4096):
            config = DecodeConfig(ctc_weight=0.3, lm_weight=0.7, beam_width=width, max_len=3)
            joints.append(decode(mat, lm, None, config).hypotheses[0].joint)
        assert max(joints) == joints[-1]


def test_hypothesis_scores_replay(trained_char_lm):
    """Returned score components reproduce from scratch along the labels."""
    mat = synth_posteriors(["cat"], LABELS, peak=0.8, seed=11)
    lm = CharLMScorer(trained_char_lm)
    config = DecodeConfig(ctc_weight=0.4, lm_weight=0.8, beam_width=5, n_best=3)
    result = decode(mat, lm, None, config)
    ctc = CtcPrefixScorer(mat)
    for hyp in result.hypotheses:
        state = ctc.initial_state()
        for label in hyp.labels:
            column = [ctc.column(label)]
            score = ctc.candidate_scores(state, column)[0]
            state = ctc.extended_states(state, columns=column, log_prefix=score)
        assert ctc_final(state).item() == pytest.approx(hyp.ctc_score, abs=1e-9)

        lm_state = lm.initial_state()
        lm_total = 0.0
        for label in hyp.labels:
            step, lm_state = lm.score(lm_state, label)
            lm_total += step
        lm_total += lm.final(lm_state)
        assert lm_total == pytest.approx(hyp.lm_score, abs=1e-9)
        assert hyp.joint == pytest.approx(
            combine_scores(hyp.ctc_score, hyp.att_score, hyp.lm_score, config), abs=1e-9
        )


def test_word_scorers_never_emit_boundary_first(trained_word_lm, tiny_vocab):
    """Candidates that would close an empty word are pruned, not scored."""
    rng = np.random.default_rng(53)
    labels = ("a", "c", SPACE, BLANK)
    lm = LookAheadScorer(trained_word_lm, tiny_vocab)
    config = DecodeConfig(ctc_weight=0.3, lm_weight=0.7, beam_width=64, max_len=4, n_best=16)
    for _ in range(5):
        mat = random_matrix(rng, 4, labels)
        result = decode(mat, lm, None, config)
        for hyp in result.hypotheses:
            assert not hyp.labels or hyp.labels[0] != SPACE
            assert all(
                (a, b) != (SPACE, SPACE) for a, b in zip(hyp.labels, hyp.labels[1:])
            )


def test_incompatible_scorer_labels_rejected(trained_word_lm, tiny_vocab):
    mat = PosteriorMatrix(("z", BLANK), np.full((2, 2), 0.5))
    lm = LookAheadScorer(trained_word_lm, tiny_vocab)
    with pytest.raises(ValueError, match="lm scorer cannot score label 'z'"):
        decode(mat, lm, None)
    with pytest.raises(ValueError, match="att scorer cannot score label 'z'"):
        decode(mat, None, lm)


def test_att_slot_contributes_weighted_score(uniform_char_lm):
    mat = synth_posteriors(["a"], LABELS, peak=1.0, seed=0)
    att = CharLMScorer(uniform_char_lm)
    config = DecodeConfig(ctc_weight=0.25, lm_weight=0.0, beam_width=4)
    result = decode(mat, None, att, config)
    hyp = result.hypotheses[0]
    assert hyp.labels == ("a",)
    # att walked "a" then <eos>, each 1/7, weighted by 1 - ctc_weight
    assert hyp.att_score == pytest.approx(2 * math.log(1 / 7), abs=1e-12)
    assert hyp.joint == pytest.approx(
        0.25 * hyp.ctc_score + 0.75 * hyp.att_score, abs=1e-12
    )


def test_n_best_is_ranked_and_distinct(trained_char_lm):
    mat = synth_posteriors(["a", "cat"], LABELS, peak=0.7, seed=13)
    lm = CharLMScorer(trained_char_lm)
    result = decode(mat, lm, None, DecodeConfig(beam_width=8, n_best=5))
    joints = [hyp.joint for hyp in result.hypotheses]
    assert joints == sorted(joints, reverse=True)
    labelings = [hyp.labels for hyp in result.hypotheses]
    assert len(set(labelings)) == len(labelings)


def test_missing_scorer_is_a_missing_term(trained_char_lm):
    """Without a scorer its term is zero: no step or end-of-sentence score."""
    mat = synth_posteriors(["cat"], LABELS, peak=0.8, seed=5)
    config = DecodeConfig(ctc_weight=0.4, lm_weight=0.8, beam_width=4, n_best=3)
    for lm in (None, CharLMScorer(trained_char_lm)):
        for hyp in decode(mat, lm, None, config).hypotheses:
            assert hyp.att_score == 0.0
            if lm is None:
                assert hyp.lm_score == 0.0
            assert hyp.joint == combine_scores(hyp.ctc_score, hyp.att_score, hyp.lm_score, config)


# ----------------------------------------------------------------------
# an absent slot and a zero bound cost no array work and change no bit
# ----------------------------------------------------------------------


class _Zero:
    """A present slot that scores 0.0 everywhere and bounds what any
    completion can still add by *bound*."""

    def __init__(self, bound=0.0):
        self.labels, self.bound = frozenset((*LABELS, EOS)), bound

    def initial_state(self):
        return None

    def score_all(self, states, labels):
        return np.zeros((len(states), len(labels)))

    def advance(self, state, label):
        return None

    def future_score_bound(self, state):
        return self.bound


def _unbounded(scorer):
    """*scorer* with early stopping disabled: an infinite bound."""
    scorer.future_score_bound = lambda state: math.inf
    return scorer


# The settings criterion 9 decodes with: the CLI's weights, beam 6, 3-best;
# then the weights that drop a term.
CRITERION_9_CONFIGS = [
    DecodeConfig(ctc_weight=0.2, lm_weight=1.0, beam_width=6, n_best=3),
    DecodeConfig(ctc_weight=0.0, lm_weight=1.0, beam_width=6, n_best=3),
    DecodeConfig(ctc_weight=1.0, lm_weight=0.0, beam_width=6, n_best=3),
]


def _levels(monkeypatch):
    """The sizes of the levels each decode finishes, one per step."""
    levels = []
    monkeypatch.setattr(
        decoder_module, "ctc_final", lambda beam: levels.append(len(beam)) or ctc_final(beam)
    )
    return levels


def _utterances(vocab, count, seed):
    """Criterion 9's synthetic utterances (peak 0.7, one frame per label),
    alternating with two frames per label, after which the search usually
    stops early rather than at ``max_len``."""
    rng = np.random.default_rng(seed)
    for trial in range(count):
        words = [str(w) for w in rng.choice(vocab.words, int(rng.integers(1, 4)))]
        yield synth_posteriors(words, LABELS, 1 + trial % 2, peak=0.7, seed=trial)


def test_a_zero_slot_decodes_as_an_absent_one(
    monkeypatch, tiny_vocab, trained_char_lm, trained_word_lm
):
    """A slot scoring 0.0 everywhere with a 0.0 bound gives bit for bit the
    n-best of leaving it out (None), in as many steps: an absent slot adds
    no term, and a total that starts at +0.0 is unchanged by ``w * 0.0``."""
    levels = _levels(monkeypatch)
    others = [None, CharLMScorer(trained_char_lm), LookAheadScorer(trained_word_lm, tiny_vocab)]
    checked = 0
    for mat in _utterances(tiny_vocab, 8, seed=73):
        for config in CRITERION_9_CONFIGS:
            for other in others:
                pairs = ((other, None), (other, _Zero())), ((None, other), (_Zero(), other))
                for absent, zero in pairs:
                    want = _bits(decode(mat, *absent, config))
                    steps = len(levels)
                    assert _bits(decode(mat, *zero, config)) == want
                    assert len(levels) - steps == steps
                    levels.clear()
                    checked += 1
    assert checked == 8 * len(CRITERION_9_CONFIGS) * len(others) * 2


def test_zero_bounds_stop_exactly_where_the_joint_scores_say(
    monkeypatch, tiny_vocab, uniform_char_lm, trained_char_lm, trained_word_lm
):
    """With every bound 0.0 (no slot, the character LM, look-ahead at an OOV
    scale <= 1) the early stop reads the joint scores the step already
    ranked.  It returns bit for bit the n-best of the same search with an
    infinite bound, which never stops early, and it does stop early."""
    levels = _levels(monkeypatch)

    def systems():
        yield (None, None), (_Zero(math.inf), None)
        for make in (
            lambda: CharLMScorer(trained_char_lm),
            lambda: LookAheadScorer(trained_word_lm, tiny_vocab),
            lambda: LookAheadScorer(trained_word_lm, tiny_vocab, oov_scale=0.5),
        ):
            yield (make(), None), (_unbounded(make()), None)
            att = CharLMScorer(uniform_char_lm)
            yield (make(), att), (make(), _unbounded(CharLMScorer(uniform_char_lm)))

    trials = stopped = 0
    for mat in _utterances(tiny_vocab, 6, seed=79):
        for config in CRITERION_9_CONFIGS:
            for bounded, unbounded in systems():
                got = _bits(decode(mat, *bounded, config))
                steps = len(levels)
                assert got == _bits(decode(mat, *unbounded, config))
                stopped += steps < len(levels) - steps
                trials += 1
                levels.clear()
    assert stopped * 4 >= trials, (stopped, trials)


# ----------------------------------------------------------------------
# batched search against the per-candidate reference loop
# ----------------------------------------------------------------------


class _Free:
    """Scores every label zero: what the reference puts in an empty slot."""

    def initial_state(self):
        return None

    def score(self, state, label):
        return 0.0, None

    def final(self, state):
        return 0.0

    def future_score_bound(self, state):
        return 0.0


def reference_decode(posteriors, lm, att, config):
    """The beam search as one scorer call and one sort entry per
    (hypothesis, label) candidate, ranked by (-joint, labels).

    Returns (complete, [(labels, ctc, att, lm, joint), ...]).
    """
    lm = lm if lm is not None else _Free()
    att = att if att is not None else _Free()
    scorer = CtcPrefixScorer(posteriors)
    labels = sorted(posteriors.char_labels)
    columns = [scorer.column(label) for label in labels]
    max_len = config.max_len if config.max_len is not None else posteriors.n_frames

    def finalize(hyp):
        labels_, ctc_state, ctc, att_score, lm_score, joint, att_state, lm_state = hyp
        ctc = ctc_final(ctc_state).item()
        att_total = att_score + att.final(att_state)
        lm_total = lm_score + lm.final(lm_state)
        joint = combine_scores(ctc, att_total, lm_total, config)
        return (labels_, ctc, att_total, lm_total, joint)

    def bound(hyp):
        _, _, ctc, att_score, lm_score, _, att_state, lm_state = hyp
        return combine_scores(
            ctc,
            att_score + att.future_score_bound(att_state),
            lm_score + lm.future_score_bound(lm_state),
            config,
        )

    def rank(entry):
        return (-entry[4], entry[0])

    beam = [
        ((), scorer.initial_state(), 0.0, 0.0, 0.0, 0.0, att.initial_state(), lm.initial_state())
    ]
    complete = []
    for step in range(max_len + 1):
        complete.extend(finalize(hyp) for hyp in beam)
        complete.sort(key=rank)
        del complete[config.n_best :]
        if step == max_len or not beam:
            break
        candidates = []
        for j, hyp in enumerate(beam):
            for i, label in enumerate(labels):
                try:
                    lm_step, lm_state = lm.score(hyp[7], label)
                except EmptyWordError:
                    continue
                att_step, att_state = att.score(hyp[6], label)
                ctc = scorer.candidate_scores(hyp[1], [columns[i]]).item()
                att_total = hyp[3] + att_step
                lm_total = hyp[4] + lm_step
                joint = combine_scores(ctc, att_total, lm_total, config)
                candidates.append(
                    (hyp[0] + (label,), j, i, ctc, att_total, lm_total, joint, att_state, lm_state)
                )
        candidates.sort(key=lambda cand: (-cand[6], cand[0]))
        del candidates[config.beam_width :]
        states = [
            scorer.extended_states(beam[c[1]][1], columns=[columns[c[2]]], log_prefix=[c[3]])
            for c in candidates
        ]
        beam = [(c[0], state, *c[3:]) for c, state in zip(candidates, states)]
        if len(complete) == config.n_best and all(bound(h) < complete[-1][4] for h in beam):
            break
    if complete:
        return True, complete
    fallback = sorted(((*h[:1], *h[2:6]) for h in beam), key=rank)
    return False, fallback[: config.n_best]


def _bits(result):
    return result.complete, [
        (h.labels, *(x.hex() for x in (h.ctc_score, h.att_score, h.lm_score, h.joint)))
        for h in result.hypotheses
    ]


def _reference_bits(reference):
    complete, entries = reference
    return complete, [(e[0], *(x.hex() for x in e[1:])) for e in entries]


def test_decode_matches_per_candidate_reference(
    tiny_vocab, uniform_char_lm, trained_char_lm, trained_word_lm
):
    """Batched scoring and lexsort selection reproduce the per-candidate
    loop bit for bit: labels, every score, order and the complete flag.

    Instances come in three kinds: dense rows; "a" and "c" columns equal,
    so spellings that differ only in them tie exactly; and rows with
    zeros, so many candidates score -inf and tie across parents whose own
    scores differ."""
    rng = np.random.default_rng(59)
    grid = scorer_grid(tiny_vocab, uniform_char_lm, trained_char_lm, trained_word_lm)
    grid.append((LookAheadScorer(trained_word_lm, tiny_vocab, oov_scale=2.0), None))
    grid.append(
        (
            MultiLevelScorer(trained_char_lm, trained_word_lm, tiny_vocab),
            CharLMScorer(uniform_char_lm),
        )
    )
    configs = [
        DecodeConfig(ctc_weight=0.3, lm_weight=0.7, beam_width=4, n_best=3),
        DecodeConfig(ctc_weight=0.6, lm_weight=0.7, beam_width=1),
        DecodeConfig(ctc_weight=0.0, lm_weight=0.0, beam_width=3, n_best=2),
        DecodeConfig(ctc_weight=1.0, lm_weight=0.5, beam_width=5, n_best=4, max_len=4),
    ]
    alphabets = [("a", "c", SPACE, BLANK), ("a", "c", "t", SPACE, BLANK)]
    checked = 0
    for kind in ("dense", "tied", "zeros") * 3:
        labels = alphabets[int(rng.integers(0, 2))]
        probs = rng.dirichlet(np.ones(len(labels)), size=int(rng.integers(2, 8)))
        if kind == "tied":
            probs[:, 1] = probs[:, 0]
        if kind == "zeros":
            probs[:, :-1][rng.random((len(probs), len(labels) - 1)) < 0.5] = 0.0
        mat = PosteriorMatrix(labels, probs / probs.sum(axis=1, keepdims=True))
        for lm, att in grid:
            for config in configs:
                got = decode(mat, lm, att, config)
                assert _bits(got) == _reference_bits(reference_decode(mat, lm, att, config))
                checked += 1
    assert checked == 9 * len(grid) * len(configs)


def test_exact_ties_break_on_labels():
    """Two identical posterior columns tie every pair of spellings that
    differ only in them; the search keeps the lexicographically first."""
    probs = np.array([[0.3, 0.3, 0.1, 0.3]] * 4)
    mat = PosteriorMatrix(("a", "c", SPACE, BLANK), probs)
    config = DecodeConfig(ctc_weight=1.0, lm_weight=0.0, beam_width=3, n_best=6, max_len=2)
    result = decode(mat, None, None, config)
    assert _bits(result) == _reference_bits(reference_decode(mat, None, None, config))
    ranked = [(-h.joint, h.labels) for h in result.hypotheses]
    assert ranked == sorted(ranked)
    assert any(a[0] == b[0] for a, b in zip(ranked, ranked[1:]))


def test_decode_keeps_the_call_shapes_the_tracer_wraps(
    monkeypatch, trained_word_lm, tiny_vocab
):
    """The traced benchmark wraps these names and reads these arguments: one
    ``candidate_scores(beam, columns)`` and one ``extended_states(survivors,
    **keywords)`` per expansion step, and ``decoder.ctc_final`` once per
    finished level, on the whole beam."""
    calls = []

    def counting(name, method):
        def wrapper(self, *args, **kwargs):
            out = method(self, *args, **kwargs)
            calls.append((name, len(args), len(args[0]), len(out)))
            return out

        return wrapper

    for name in ("candidate_scores", "extended_states"):
        monkeypatch.setattr(CtcPrefixScorer, name, counting(name, getattr(CtcPrefixScorer, name)))
    finals = []
    monkeypatch.setattr(
        decoder_module, "ctc_final", lambda beam: finals.append(len(beam)) or ctc_final(beam)
    )
    mat = random_matrix(np.random.default_rng(61), 6, LABELS)
    # The n-best is never full, so the search cannot stop early.
    config = DecodeConfig(beam_width=3, max_len=5, n_best=10_000)
    decode(mat, LookAheadScorer(trained_word_lm, tiny_vocab), None, config)

    assert [call[0] for call in calls] == ["candidate_scores", "extended_states"] * 5
    live = 1
    sizes = [live]
    for (_, score_args, beam, scored), (_, extend_args, survivors, extended) in zip(
        calls[::2], calls[1::2]
    ):
        assert (score_args, extend_args) == (2, 1)
        assert beam == scored == live
        assert 1 <= survivors == extended <= config.beam_width
        live = survivors
        sizes.append(live)
    assert finals == sizes
    for scorer in (CharLMScorer, MultiLevelScorer, LookAheadScorer):
        assert callable(scorer.final)


def test_finished_hypotheses_hold_only_labels_and_scores(trained_char_lm):
    """A finished hypothesis is its labels and four floats, so it pins
    nothing of the beam: no CTC vectors and no scorer state."""
    mat = synth_posteriors(["cat"], LABELS, peak=0.8, seed=11)
    config = DecodeConfig(ctc_weight=0.4, lm_weight=0.8, beam_width=5, n_best=4)
    result = decode(mat, CharLMScorer(trained_char_lm), None, config)
    assert len(result.hypotheses) == 4
    for hyp in result.hypotheses:
        labels, *scores = (getattr(hyp, f.name) for f in dataclasses.fields(hyp))
        assert isinstance(labels, tuple) and all(isinstance(x, str) for x in labels)
        assert len(scores) == 4 and all(type(x) is float for x in scores)


# ----------------------------------------------------------------------
# finishing reads the <eos> column of the step's one score_all call
# ----------------------------------------------------------------------


def _slot_grid(tiny_vocab, uniform_char_lm, trained_char_lm, trained_word_lm):
    """Every scorer class, each once in the lm slot and once in the att slot."""
    scorers = [
        CharLMScorer(trained_char_lm),
        MultiLevelScorer(trained_char_lm, trained_word_lm, tiny_vocab),
        LookAheadScorer(trained_word_lm, tiny_vocab),
    ]
    att = CharLMScorer(uniform_char_lm)
    return [(s, att) for s in scorers] + [(None, s) for s in scorers]


def test_decode_calls_no_final(
    monkeypatch, tiny_vocab, uniform_char_lm, trained_char_lm, trained_word_lm
):
    """With every scorer class's ``final`` raising, decoding with each
    scorer in either slot writes bit for bit what it wrote before."""
    mat = synth_posteriors(["a", "cat"], LABELS, peak=0.6, seed=17)
    config = DecodeConfig(ctc_weight=0.4, lm_weight=0.7, beam_width=4, n_best=3)
    grid = _slot_grid(tiny_vocab, uniform_char_lm, trained_char_lm, trained_word_lm)
    want = [_bits(decode(mat, lm, att, config)) for lm, att in grid]

    def final(self, state):
        raise AssertionError("decode called final")

    for scorer in (CharLMScorer, MultiLevelScorer, LookAheadScorer):
        monkeypatch.setattr(scorer, "final", final)
    assert [_bits(decode(mat, lm, att, config)) for lm, att in grid] == want


def test_one_score_all_per_finished_level(
    monkeypatch, tiny_vocab, uniform_char_lm, trained_char_lm, trained_word_lm
):
    """Each scorer is called once per finished level, on the whole beam and
    on every label plus ``<eos>``; the ``max_len`` level asks for ``<eos>``
    alone."""
    calls, finals = [], []
    for scorer in (CharLMScorer, MultiLevelScorer, LookAheadScorer):
        def score_all(self, states, labels, score_all=scorer.score_all):
            calls.append((self, len(states), list(labels)))
            return score_all(self, states, labels)

        monkeypatch.setattr(scorer, "score_all", score_all)
    monkeypatch.setattr(
        decoder_module, "ctc_final", lambda beam: finals.append(len(beam)) or ctc_final(beam)
    )
    mat = random_matrix(np.random.default_rng(67), 5, LABELS)
    labels = [*sorted(mat.char_labels), EOS]
    configs = [  # to max_len (the n-best never fills), and stopping early
        DecodeConfig(beam_width=3, n_best=10_000),
        DecodeConfig(beam_width=3, max_len=3, n_best=10_000),
        DecodeConfig(beam_width=2, n_best=1),
    ]
    levels = []
    for config in configs:
        for lm, att in _slot_grid(tiny_vocab, uniform_char_lm, trained_char_lm, trained_word_lm):
            calls.clear()
            finals.clear()
            decode(mat, lm, att, config)
            at_max_len = len(finals) == (config.max_len or mat.n_frames) + 1
            want = [(size, labels) for size in finals[:-1]]
            want.append((finals[-1], [EOS] if at_max_len else labels))
            for scorer in (lm, att):
                if scorer is not None:
                    assert [call[1:] for call in calls if call[0] is scorer] == want
            levels.append(at_max_len)
    assert True in levels and False in levels


def test_word_scorers_close_each_state_at_most_once(
    monkeypatch, tiny_vocab, trained_char_lm, trained_word_lm
):
    """The ``<space>`` entry and the ``<eos>`` entry share one word close:
    no state is closed twice in a decode (each state lives one step)."""
    rng = np.random.default_rng(71)
    config = DecodeConfig(ctc_weight=0.3, lm_weight=0.7, beam_width=6, n_best=3)
    scorers = [
        MultiLevelScorer(trained_char_lm, trained_word_lm, tiny_vocab),
        LookAheadScorer(trained_word_lm, tiny_vocab),
    ]
    for scorer in scorers:
        closed = []  # keeps every state alive, so no id is reused
        close = type(scorer)._close_word
        monkeypatch.setattr(
            type(scorer),
            "_close_word",
            lambda self, s, *rest, f=close: closed.append(s) or f(self, s, *rest),
        )
        for _ in range(3):
            for lm, att in ((scorer, None), (None, scorer)):
                decode(random_matrix(rng, 6, LABELS), lm, att, config)
        assert closed
        assert len({id(state) for state in closed}) == len(closed)


@pytest.mark.parametrize("strategy", ["char", "multilevel", "lookahead"])
def test_order_one_models_through_every_scorer(tiny_vocab, tiny_corpus, strategy):
    """An order-1 model reads no context: a state keeps an empty context and
    word history after a letter and after <space>, and a saturated beam
    still reproduces exhaustive search bit for bit."""
    char_lm = train_ngram(tiny_corpus, 1, "char", tiny_vocab)
    word_lm = train_ngram(tiny_corpus, 1, "word", tiny_vocab)
    if strategy == "char":
        lm, start = CharLMScorer(char_lm), ["a", "c"]
    elif strategy == "multilevel":
        lm, start = MultiLevelScorer(char_lm, word_lm, tiny_vocab), [0, 1]
    else:
        lm, start = LookAheadScorer(word_lm, tiny_vocab), [0, 1]
    state, fields = lm.initial_state(start), ("context", "char_context", "word_history")
    for label in ("c", "a", "t", SPACE, "a", SPACE, "c"):
        state = lm.advance(state, label)
        held = [getattr(state, name) for name in fields if hasattr(state, name)]
        assert held and all(context == () for context in held)
    rng = np.random.default_rng(43)
    config = DecodeConfig(ctc_weight=0.3, lm_weight=0.7, beam_width=4096, max_len=3, n_best=5)
    for _ in range(4):
        mat = random_matrix(rng, int(rng.integers(2, 5)), ("a", "c", SPACE, BLANK))
        assert _bits(decode(mat, lm, None, config)) == _bits(exhaustive_decode(mat, lm, None, config))
