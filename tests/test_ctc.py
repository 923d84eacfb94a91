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
from hypothesis import given, settings

from beamfuse import (
    BLANK,
    EOS,
    CtcBeam,
    CtcPrefixScorer,
    PosteriorMatrix,
    ctc_final,
)
from extreme_matrices import hard_matrices
from oracles import ctc_brute_force, ctc_brute_force_full, ctc_log_brute_force, greedy_decode


def uniform_matrix(frames=2, labels=("a", "b", BLANK)):
    probs = np.full((frames, len(labels)), 1.0 / len(labels))
    return PosteriorMatrix(labels, probs)


def random_matrix(rng, frames, labels):
    probs = rng.dirichlet(np.ones(len(labels)), size=frames)
    return PosteriorMatrix(labels, probs)


def extend_each(scorer, beam, columns):
    """Hypothesis j of *beam* extended by ``columns[j]``, with the log prefix
    score ``candidate_scores`` gives it."""
    diagonal = np.arange(len(columns))
    scores = scorer.candidate_scores(beam, columns)[diagonal, diagonal]
    return scorer.extended_states(beam, columns=columns, log_prefix=scores)


def extend(scorer, beam, label):
    """Log prefix probability of the one-hypothesis *beam* extended by
    *label*, and the new beam."""
    new = extend_each(scorer, beam, [scorer.column(label)])
    return new.log_prefix.item(), new


def test_hand_checked_uniform_values():
    scorer = CtcPrefixScorer(uniform_matrix())
    empty = scorer.initial_state()
    assert np.allclose(np.exp(empty.blank[:, 0]), [1 / 3, 1 / 9], atol=1e-12)

    score_a, state_a = extend(scorer, empty, "a")
    assert math.exp(score_a) == pytest.approx(4 / 9, abs=1e-12)
    assert math.exp(ctc_final(state_a).item()) == pytest.approx(3 / 9, abs=1e-12)

    score_ab, state_ab = extend(scorer, state_a, "b")
    assert math.exp(score_ab) == pytest.approx(1 / 9, abs=1e-12)
    assert math.exp(ctc_final(state_ab).item()) == pytest.approx(1 / 9, abs=1e-12)

    assert math.exp(ctc_final(empty).item()) == pytest.approx(1 / 9, abs=1e-12)


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
    assert math.exp(ctc_final(state_aa3).item()) == pytest.approx(1 / 27, abs=1e-12)


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
            assert math.exp(ctc_final(state).item()) == pytest.approx(
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
            pieces = [ctc_final(extended).item()]
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


@pytest.mark.parametrize("frames", [5, 50])
def test_candidate_scores_match_single_extensions(frames):
    """Bitwise, also at 50 frames, where a sum over frames that NumPy splits
    pairwise for one column but not for several would differ."""
    rng = np.random.default_rng(31)
    labels = ("a", "b", "c", BLANK)
    mat = random_matrix(rng, frames, labels)
    scorer = CtcPrefixScorer(mat)
    columns = [scorer.column(label) for label in ("a", "b", "c")]

    # "ab", "ba" and "aa": "a" and "b" each repeat the last label of a state.
    parents = extend_each(scorer, scorer.initial_state().take([0, 0]), columns[:2])
    states = extend_each(scorer, parents.take([0, 1, 0]), [columns[1], columns[0], columns[0]])

    batch = scorer.candidate_scores(states, columns)
    assert batch.shape == (3, 3)
    for j in range(len(states)):
        for i, label in enumerate(("a", "b", "c")):
            single, _ = extend(scorer, states.take([j]), label)
            assert batch[j, i] == single


def _layouts(beam):
    """*beam* with its forward vectors as given, F-ordered and as a strided
    view; each rebuilds its transition from that layout."""
    strided = np.repeat(beam.forward, 2, axis=1)[:, ::2]
    assert not strided.flags.c_contiguous and not strided.flags.f_contiguous
    for forward in (beam.forward, np.asfortranarray(beam.forward), strided):
        yield CtcBeam(forward, beam.last_column, beam.log_prefix, beam.length)


def test_extension_reads_no_forward_vectors():
    """``extended_states`` reads the parents' transition, last column and
    length, never their forward vectors: parents whose forward block is all
    NaN, or absent as in the decoder's gather, give a bitwise-identical
    child beam.  The zero rows cut the frames into several scan segments."""
    rng = np.random.default_rng(83)
    labels = ("a", "b", "c", BLANK)
    probs = rng.dirichlet(np.ones(len(labels)), size=14)
    probs[[3, 8], 1] = 0.0
    mat = PosteriorMatrix(labels, probs / probs.sum(axis=1, keepdims=True))
    scorer = CtcPrefixScorer(mat)
    columns = [scorer.column(label) for label in ("a", "b", "c")]
    beam = extend_each(scorer, scorer.initial_state().take([0, 0, 0]), columns)
    beam = extend_each(scorer, beam.take([0, 1, 2]), [columns[1], columns[1], columns[0]])
    index, cols = np.array([2, 0, 0, 1]), np.array([columns[0], columns[1], columns[2], columns[1]])
    scores = scorer.candidate_scores(beam, columns)[index, [0, 1, 2, 1]]
    nan = np.full_like(beam.forward, np.nan)
    nan = CtcBeam(nan, beam.last_column, beam.log_prefix, beam.length)
    vars(nan)["transition"] = beam.transition

    def fields(child):
        return (child.forward.tobytes(), child.last_column.tobytes(),
                child.log_prefix.tobytes(), child.length)

    want = fields(scorer.extended_states(beam.take(index), columns=cols, log_prefix=scores))
    assert not np.isnan(np.frombuffer(want[0])).any()
    for parents in (nan.take(index), nan.take(index, forward=False), beam.take(index, False)):
        assert len(parents) == len(index)
        assert fields(scorer.extended_states(parents, columns=cols, log_prefix=scores)) == want
    assert beam.take(index, forward=False).forward is None


@pytest.mark.parametrize("frames", [9, 50])
def test_candidate_score_does_not_depend_on_call_shape_or_layout(frames):
    """Each (hypothesis, label) entry is bitwise the same from a 1x1 call, a
    batched call and a beam whose forward vectors are F-ordered or strided:
    the frames are summed in one order, whatever the shape of the block."""
    rng = np.random.default_rng(53)
    mat = random_matrix(rng, frames, ("a", "b", "c", BLANK))
    scorer = CtcPrefixScorer(mat)
    columns = [scorer.column(label) for label in ("a", "b", "c")]
    parents = extend_each(scorer, scorer.initial_state().take([0, 0]), columns[:2])
    states = extend_each(scorer, parents.take([0, 1, 0]), [columns[1], columns[0], columns[0]])

    want = scorer.candidate_scores(states, columns)
    assert (want > math.log(1e-290)).all()  # no entry takes the log-domain fallback
    for j in range(len(states)):
        for i, column in enumerate(columns):
            for beam in _layouts(states):
                assert scorer.candidate_scores(beam, columns)[j, i] == want[j, i]
            for beam in _layouts(states.take([j])):
                assert scorer.candidate_scores(beam, [column]).item() == want[j, i]
                assert scorer.candidate_scores(beam, columns)[0, i] == want[j, i]


def test_candidate_score_below_the_smallest_float_stays_finite():
    """The only path to "a" has probability 1e-400, below any float: its log
    still comes out as enumeration's, not as -inf."""
    probs = np.array([[0.0, 1.0, 1e-200], [1e-200, 1.0, 0.0]])
    mat = PosteriorMatrix(("a", "b", BLANK), probs)
    prefix, _ = ctc_log_brute_force(mat)
    assert prefix[("a",)] == -921.0340371976183
    scorer = CtcPrefixScorer(mat)
    scores = scorer.candidate_scores(scorer.initial_state(), [scorer.column("a")])
    assert scores.item() == prefix[("a",)]


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


def reference_extension(scorer, beam, j, column):
    """The textbook per-frame forward recursion for hypothesis j of *beam*
    extended by *column*."""
    frames = scorer.matrix.n_frames
    with np.errstate(divide="ignore"):
        logp = np.log(scorer.matrix.probs)
    x = logp[:, column]
    log_blank = logp[:, scorer.matrix.blank_index]
    prev_blank = np.concatenate(([0.0 if beam.length == 0 else -np.inf], beam.blank[:-1, j]))
    prev_nonblank = np.concatenate(([-np.inf], beam.nonblank[:-1, j]))
    phi = prev_blank if beam.last_column[j] == column else np.logaddexp(prev_blank, prev_nonblank)
    nonblank = np.empty(frames)
    blank = np.empty(frames)
    nonblank[0] = x[0] + phi[0]
    blank[0] = -np.inf
    for t in range(1, frames):
        nonblank[t] = x[t] + np.logaddexp(nonblank[t - 1], phi[t])
        blank[t] = log_blank[t] + np.logaddexp(blank[t - 1], nonblank[t - 1])
    return nonblank, blank


def assert_matches_reference(got, want, rtol=1e-10):
    """Log values agree to *rtol* relative to max(1, |want|), and are -inf
    exactly where *want* is."""
    assert np.array_equal(np.isneginf(got), np.isneginf(want))
    finite = np.isfinite(want)
    assert np.isfinite(got[finite]).all()
    err = np.abs(got[finite] - want[finite])
    assert (err <= rtol * np.maximum(1.0, np.abs(want[finite]))).all()


def check_against_reference(mat, paths):
    """Extend along each label path, batched, and compare every state."""
    scorer = CtcPrefixScorer(mat)
    beam = scorer.initial_state().take([0] * len(paths))
    for step in range(len(paths[0])):
        columns = [scorer.column(path[step]) for path in paths]
        extended = extend_each(scorer, beam, columns)
        for j, column in enumerate(columns):
            nonblank, blank = reference_extension(scorer, beam, j, column)
            assert_matches_reference(extended.nonblank[:, j], nonblank)
            assert_matches_reference(extended.blank[:, j], blank)
        beam = extended


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
        _, state = extend(scorer, state, label)
    assert math.exp(ctc_final(state).item()) == pytest.approx(
        ctc_brute_force_full(mat, ["a", "a"]), abs=1e-12
    )


def test_batched_extension_is_bitwise_equal_to_single():
    rng = np.random.default_rng(47)
    probs = rng.dirichlet(np.ones(len(LONG_LABELS)), size=50)
    probs[[7, 8, 30]] = np.eye(len(LONG_LABELS))[[1, -1, 4]]
    scorer = CtcPrefixScorer(PosteriorMatrix(LONG_LABELS, probs))
    parents = extend_each(scorer, scorer.initial_state().take([0] * 3), [0, 1, 4])
    extensions = [(parent, col) for parent in range(3) for col in (0, 1, 2, 4)]
    batch = extend_each(
        scorer,
        parents.take([parent for parent, _ in extensions]),
        [col for _, col in extensions],
    )
    for k, (parent, col) in enumerate(extensions):
        single = extend_each(scorer, parents.take([parent]), [col])
        assert np.array_equal(single.nonblank[:, 0], batch.nonblank[:, k])
        assert np.array_equal(single.blank[:, 0], batch.blank[:, k])


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(matrix=hard_matrices(("a", "b", "c")))
def test_scores_match_log_domain_enumeration(matrix):
    """Over every label sequence up to one label longer than the matrix,
    each candidate and exact-match score is within 1e-12 of log-domain path
    enumeration (relative to max(1, |oracle|)), and -inf exactly where it is."""
    prefix, full = ctc_log_brute_force(matrix)
    scorer = CtcPrefixScorer(matrix)
    labels = matrix.char_labels
    columns = [scorer.column(label) for label in labels]
    beam, sequences = scorer.initial_state(), [()]
    for _ in range(matrix.n_frames + 1):
        want = [full.get(seq, -math.inf) for seq in sequences]
        assert_matches_reference(ctc_final(beam), np.array(want), rtol=1e-12)
        scores = scorer.candidate_scores(beam, columns).ravel()
        sequences = [seq + (label,) for seq in sequences for label in labels]
        want = [prefix.get(seq, -math.inf) for seq in sequences]
        assert_matches_reference(scores, np.array(want), rtol=1e-12)
        parents = np.repeat(np.arange(len(beam)), len(columns))
        beam = scorer.extended_states(
            beam.take(parents), columns=columns * len(beam), log_prefix=scores
        )
