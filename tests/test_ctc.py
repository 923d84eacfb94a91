"""CTC prefix scoring against full path enumeration.

The uniform two-frame matrix over (a, b, <blank>) is small enough to check
by hand.  Paths are all 9 frame labellings at probability 1/9 each:

    prefix "a":  aa ab a- ba -a  ->  4/9   (ba collapses to (b, a))
    full "a":    aa a- -a        ->  3/9
    prefix "ab": ab              ->  1/9
    full "":     --              ->  1/9
"""

import math

import numpy as np
import pytest

from beamfuse import (
    BLANK,
    EOS,
    CtcBeam,
    CtcPrefixScorer,
    PosteriorMatrix,
    ctc_final,
)
from oracles import ctc_brute_force, ctc_brute_force_full, greedy_decode


def uniform_matrix(frames=2, labels=("a", "b", BLANK)):
    probs = np.full((frames, len(labels)), 1.0 / len(labels))
    return PosteriorMatrix(labels, probs)


def random_matrix(rng, frames, labels):
    probs = rng.dirichlet(np.ones(len(labels)), size=frames)
    return PosteriorMatrix(labels, probs)


def extend(scorer, state, label):
    """Log prefix probability of *state* extended by *label*, and the new state."""
    new = scorer.extended_states([state], columns=[scorer.column(label)])[0]
    return new.log_prefix, new


def test_hand_checked_uniform_values():
    scorer = CtcPrefixScorer(uniform_matrix())
    empty = scorer.initial_state()
    assert np.allclose(np.exp(empty.blank), [1 / 3, 1 / 9], atol=1e-12)

    score_a, state_a = extend(scorer, empty, "a")
    assert math.exp(score_a) == pytest.approx(4 / 9, abs=1e-12)
    assert math.exp(ctc_final(state_a)) == pytest.approx(3 / 9, abs=1e-12)

    score_ab, state_ab = extend(scorer, state_a, "b")
    assert math.exp(score_ab) == pytest.approx(1 / 9, abs=1e-12)
    assert math.exp(ctc_final(state_ab)) == pytest.approx(1 / 9, abs=1e-12)

    assert math.exp(ctc_final(empty)) == pytest.approx(1 / 9, abs=1e-12)


def test_repeated_label_needs_intervening_blank():
    scorer = CtcPrefixScorer(uniform_matrix(frames=2))
    _, state_a = extend(scorer, scorer.initial_state(), "a")
    score_aa, _ = extend(scorer, state_a, "a")
    assert score_aa == float("-inf")

    # with three frames the path a-a emits (a, a)
    scorer3 = CtcPrefixScorer(uniform_matrix(frames=3))
    _, state_a3 = extend(scorer3, scorer3.initial_state(), "a")
    score_aa3, state_aa3 = extend(scorer3, state_a3, "a")
    assert math.exp(score_aa3) == pytest.approx(1 / 27, abs=1e-12)
    assert math.exp(ctc_final(state_aa3)) == pytest.approx(1 / 27, abs=1e-12)


def test_brute_force_oracle_agrees_on_random_matrices():
    rng = np.random.default_rng(17)
    labels = ("a", "b", BLANK)
    for _ in range(40):
        frames = int(rng.integers(1, 6))
        mat = random_matrix(rng, frames, labels)
        scorer = CtcPrefixScorer(mat)
        state = scorer.initial_state()
        prefix = []
        for _ in range(int(rng.integers(1, 4))):
            label = labels[int(rng.integers(0, 2))]
            prefix.append(label)
            score, state = extend(scorer, state, label)
            assert math.exp(score) == pytest.approx(
                ctc_brute_force(mat, prefix), abs=1e-12
            )
            assert math.exp(ctc_final(state)) == pytest.approx(
                ctc_brute_force_full(mat, prefix), abs=1e-12
            )


def test_prefix_scores_decompose_into_full_plus_continuations():
    """Prefix mass = exact-match mass + mass of every one-label extension."""
    rng = np.random.default_rng(23)
    labels = ("a", "b", BLANK)
    for _ in range(20):
        mat = random_matrix(rng, int(rng.integers(2, 5)), labels)
        scorer = CtcPrefixScorer(mat)
        state = scorer.initial_state()
        for label in ("a", "b"):
            score, extended = extend(scorer, state, label)
            pieces = [ctc_final(extended)]
            for nxt in ("a", "b"):
                nxt_score, _ = extend(scorer, extended, nxt)
                pieces.append(nxt_score)
            total = np.logaddexp.reduce(pieces)
            assert total == pytest.approx(score, abs=1e-9)


def test_prefix_probability_is_monotone():
    rng = np.random.default_rng(29)
    labels = ("a", "b", "c", BLANK)
    for _ in range(20):
        scorer = CtcPrefixScorer(random_matrix(rng, int(rng.integers(2, 6)), labels))
        state = scorer.initial_state()
        previous = 0.0
        for label in ("a", "b", "a"):
            score, state = extend(scorer, state, label)
            assert score <= previous + 1e-12
            previous = score


def test_candidate_scores_match_single_extensions():
    rng = np.random.default_rng(31)
    labels = ("a", "b", "c", BLANK)
    mat = random_matrix(rng, 5, labels)
    scorer = CtcPrefixScorer(mat)
    columns = [scorer.column(label) for label in ("a", "b", "c")]

    states = [scorer.initial_state()]
    _, s_a = extend(scorer, states[0], "a")
    _, s_ab = extend(scorer, s_a, "b")
    states.extend([s_a, s_ab])

    batch = scorer.candidate_scores(states, columns)
    assert batch.shape == (3, 3)
    for j, state in enumerate(states):
        for i, label in enumerate(("a", "b", "c")):
            single, _ = extend(scorer, state, label)
            assert batch[j, i] == single


def test_matrix_validation():
    with pytest.raises(ValueError, match="missing <blank>"):
        PosteriorMatrix(("a", "b"), np.full((2, 2), 0.5))
    with pytest.raises(ValueError, match="duplicate"):
        PosteriorMatrix(("a", "a", BLANK), np.full((1, 3), 1 / 3))
    with pytest.raises(ValueError, match="sums to"):
        PosteriorMatrix(("a", BLANK), np.array([[0.9, 0.3]]))
    with pytest.raises(ValueError, match="negative"):
        PosteriorMatrix(("a", BLANK), np.array([[1.2, -0.2]]))
    with pytest.raises(ValueError, match="shape"):
        PosteriorMatrix(("a", BLANK), np.full((2, 3), 1 / 3))
    with pytest.raises(ValueError, match="frame 1 has a non-finite entry"):
        PosteriorMatrix(("a", BLANK), np.array([[0.5, 0.5], [np.nan, 0.5], [0.5, 0.5]]))
    with pytest.raises(ValueError, match="non-finite"):
        PosteriorMatrix(("a", BLANK), np.array([[np.inf, 0.5]]))
    with pytest.raises(ValueError, match="'<eos>' cannot label a posterior column"):
        PosteriorMatrix(("a", EOS, BLANK), np.full((1, 3), 1 / 3))
    with pytest.raises(ValueError, match="'' cannot label a posterior column"):
        PosteriorMatrix(("a", "", BLANK), np.full((1, 3), 1 / 3))


def test_cannot_extend_by_blank():
    scorer = CtcPrefixScorer(uniform_matrix())
    with pytest.raises(ValueError, match="blank"):
        extend(scorer, scorer.initial_state(), BLANK)
    with pytest.raises(ValueError, match="not in the posterior"):
        extend(scorer, scorer.initial_state(), "z")


def test_greedy_decode_collapses_argmax():
    probs = np.array(
        [
            [0.8, 0.1, 0.1],
            [0.8, 0.1, 0.1],
            [0.1, 0.1, 0.8],
            [0.8, 0.1, 0.1],
            [0.1, 0.8, 0.1],
        ]
    )
    mat = PosteriorMatrix(("a", "b", BLANK), probs)
    assert greedy_decode(mat) == ["a", "a", "b"]


def reference_extension(scorer, state, column):
    """The textbook per-frame forward recursion for one extension."""
    frames = scorer.matrix.n_frames
    with np.errstate(divide="ignore"):
        logp = np.log(scorer.matrix.probs)
    x = logp[:, column]
    log_blank = logp[:, scorer.matrix.blank_index]
    prev_blank = np.concatenate(([0.0 if state.length == 0 else -np.inf], state.blank[:-1]))
    prev_nonblank = np.concatenate(([-np.inf], state.nonblank[:-1]))
    phi = prev_blank if state.last_column == column else np.logaddexp(prev_blank, prev_nonblank)
    nonblank = np.empty(frames)
    blank = np.empty(frames)
    nonblank[0] = x[0] + phi[0]
    blank[0] = -np.inf
    for t in range(1, frames):
        nonblank[t] = x[t] + np.logaddexp(nonblank[t - 1], phi[t])
        blank[t] = log_blank[t] + np.logaddexp(blank[t - 1], nonblank[t - 1])
    return nonblank, blank


def assert_matches_reference(got, want):
    assert np.array_equal(np.isneginf(got), np.isneginf(want))
    finite = np.isfinite(want)
    assert np.isfinite(got[finite]).all()
    err = np.abs(got[finite] - want[finite])
    assert (err <= 1e-10 * np.maximum(1.0, np.abs(want[finite]))).all()


def check_against_reference(mat, paths):
    """Extend along each label path, batched, and compare every state."""
    scorer = CtcPrefixScorer(mat)
    states = [scorer.initial_state()] * len(paths)
    for step in range(len(paths[0])):
        columns = [scorer.column(path[step]) for path in paths]
        extended = scorer.extended_states(states, columns=columns)
        for state, column, new in zip(states, columns, extended):
            nonblank, blank = reference_extension(scorer, state, column)
            assert_matches_reference(new.nonblank, nonblank)
            assert_matches_reference(new.blank, blank)
        states = extended


LONG_LABELS = tuple("abcdefghij") + (BLANK,)
LONG_PATHS = ["abcabc", "aabbcc", "jihgfe", "aaaaaa"]


def test_extension_matches_reference_on_long_peaked_rows():
    rng = np.random.default_rng(41)
    frames = 2000
    alpha = np.full((frames, len(LONG_LABELS)), 0.02)
    alpha[np.arange(frames), rng.integers(0, len(LONG_LABELS), frames)] = 7.2
    probs = np.array([rng.dirichlet(row) for row in alpha])
    assert (probs > 0).all() and np.log(probs).min() < -300
    check_against_reference(PosteriorMatrix(LONG_LABELS, probs), LONG_PATHS)


def test_extension_matches_reference_across_zero_probabilities():
    rng = np.random.default_rng(43)
    width = len(LONG_LABELS)
    one_hot = np.eye(width)[rng.integers(0, width, 60)]
    check_against_reference(PosteriorMatrix(LONG_LABELS, one_hot), LONG_PATHS)

    probs = rng.dirichlet(np.ones(width), size=80)
    probs[[5, 17, 18], 0] = 0.0  # zeros in a used column ("a")
    probs[[30, 44], -1] = 0.0  # zeros in the blank column
    probs /= probs.sum(axis=1, keepdims=True)
    check_against_reference(PosteriorMatrix(LONG_LABELS, probs), LONG_PATHS)


def test_repeated_label_across_a_zero_frame():
    labels = ("a", "b", BLANK)
    probs = np.full((7, 3), 1 / 3)
    probs[3] = [0.0, 0.5, 0.5]  # "a" impossible at frame 3
    probs[4] = [0.5, 0.5, 0.0]  # blank impossible at frame 4
    mat = PosteriorMatrix(labels, probs)
    check_against_reference(mat, ["aa", "ab", "ba"])
    # the "aa" path needs an intervening blank: exact by enumeration
    scorer = CtcPrefixScorer(mat)
    state = scorer.initial_state()
    for label in "aa":
        state = scorer.extended_states([state], columns=[scorer.column(label)])[0]
    assert math.exp(ctc_final(state)) == pytest.approx(
        ctc_brute_force_full(mat, ["a", "a"]), abs=1e-12
    )


def test_batched_extension_is_bitwise_equal_to_single():
    rng = np.random.default_rng(47)
    probs = rng.dirichlet(np.ones(len(LONG_LABELS)), size=50)
    probs[[7, 8, 30]] = np.eye(len(LONG_LABELS))[[1, -1, 4]]
    scorer = CtcPrefixScorer(PosteriorMatrix(LONG_LABELS, probs))
    root = scorer.initial_state()
    parents = scorer.extended_states([root] * 3, columns=[0, 1, 4])
    extensions = [(parent, col) for parent in parents for col in (0, 1, 2, 4)]
    batch = scorer.extended_states(
        [parent for parent, _ in extensions], columns=[col for _, col in extensions]
    )
    for (parent, col), state in zip(extensions, batch):
        single = scorer.extended_states([parent], columns=[col])[0]
        assert np.array_equal(single.nonblank, state.nonblank)
        assert np.array_equal(single.blank, state.blank)


def test_beam_of_one_state_round_trips_bitwise():
    rng = np.random.default_rng(53)
    scorer = CtcPrefixScorer(random_matrix(rng, 9, LONG_LABELS))
    state = scorer.initial_state()
    for label in "abba":
        _, state = extend(scorer, state, label)
    beam = CtcBeam.of([state])
    assert CtcBeam.of(beam) is beam and len(beam) == 1
    back = beam[0]
    assert back.nonblank.tobytes() == state.nonblank.tobytes()
    assert back.blank.tobytes() == state.blank.tobytes()
    assert (back.last_column, back.log_prefix.hex(), back.length) == (
        state.last_column, state.log_prefix.hex(), state.length,
    )
