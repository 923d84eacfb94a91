"""Acceptance suite: one check per criterion, one [PASS]/[FAIL] line each.

Each test prints its verdict line (visible with ``pytest -s``) and asserts
it, so the ``pytest -v`` report carries the same per-criterion verdicts.
Random inputs are seeded; measured quantities were calibrated once and the
settings frozen here.
"""

import math
import itertools
import subprocess
import sys
import time

import numpy as np
import pytest

from beamfuse import (
    BLANK,
    SPACE,
    CharLMScorer,
    CtcPrefixScorer,
    DecodeConfig,
    LookAheadScorer,
    MarkovText,
    MultiLevelScorer,
    PosteriorMatrix,
    Vocabulary,
    char_error_rate,
    ctc_final,
    ctc_labels,
    cumulative_sums,
    decode,
    exhaustive_decode,
    lookahead_prob,
    synth_posteriors,
    synth_vocabulary,
    train_ngram,
)
from beamfuse.bench import BenchSystem, run_benchmark
from beamfuse.cli import main as cli_main
from tree_walk import children


def _report(number: int, description: str, passed: bool, detail: str) -> None:
    tag = "PASS" if passed else "FAIL"
    line = f"[{tag}] criterion {number}: {description} ({detail})"
    print("\n" + line, flush=True)
    assert passed, line


# ----------------------------------------------------------------------
# shared vocabulary family for criteria 1, 2 and 4
# ----------------------------------------------------------------------

_FAMILY = None


def _node_paths_and_word_lists(tree, vocab):
    """Preorder node list with, per node, the words spelled through it.

    The per-node word lists come from walking each word's spelling, not
    from the tree's stored intervals, so they are an independent oracle
    for the anticipated-word sets.
    """
    paths = []
    stack = [(tree.ROOT, "")]
    while stack:
        node, path = stack.pop()
        paths.append((node, path))
        for label, child in children(tree, node).items():
            stack.append((child, path + label))
    by_path = {path: [] for _, path in paths}
    for word_id, word in enumerate(vocab.words):
        for end in range(len(word) + 1):
            by_path[word[:end]].append(word_id)
    return paths, by_path


def vocab_family():
    """100 random vocabularies (8..1000 words) with trained word bigrams."""
    global _FAMILY
    if _FAMILY is not None:
        return _FAMILY
    rng = np.random.default_rng(101)
    family = []
    for v in range(100):
        size = int(rng.integers(8, 1001))
        words = synth_vocabulary(size, seed=1000 + v)
        vocab = Vocabulary.from_words(words)
        chain = MarkovText(words, seed=2000 + v)
        corpus = chain.sentences(max(30, size // 2), 3, 6, seed=3000 + v)
        model = train_ngram(corpus, 2, "word", vocab)
        tree = vocab.tree
        n_tokens = len(model.tokens)
        contexts = []
        for _ in range(100):
            length = int(rng.integers(0, model.order))
            contexts.append(tuple(int(t) for t in rng.integers(0, n_tokens, size=length)))
        family.append((vocab, model, tree, contexts))
    _FAMILY = family
    return family


def test_criterion_1_lookahead_mass_matches_enumeration():
    """Interval look-ahead mass equals the brute-force anticipated-word sum."""
    start = time.perf_counter()
    rng = np.random.default_rng(7)
    worst = 0.0
    checked = 0
    for vocab, model, tree, contexts in vocab_family():
        paths, by_path = _node_paths_and_word_lists(tree, vocab)
        lengths = [len(by_path[path]) for _, path in paths]
        flat = np.concatenate([by_path[path] for _, path in paths])
        offsets = np.concatenate(([0], np.cumsum(lengths[:-1])))
        intervals = np.array([tree.interval(node) for node, _ in paths])
        los, his = intervals[:, 0], intervals[:, 1]
        for ctx in contexts:
            dist = model.full_distribution(ctx)
            sums = cumulative_sums(dist)
            la = sums[his + 1] - sums[los]
            brute = np.add.reduceat(dist[flat], offsets)
            worst = max(worst, float(np.abs(la - brute).max()))
            checked += len(paths)
        # the vectorized masses are exactly what the scorer's helper reads
        sums = cumulative_sums(model.full_distribution(contexts[0]))
        for node, _ in itertools.islice(paths, 5):
            lo, hi = tree.interval(node)
            assert lookahead_prob(tree, node, sums) == sums[hi + 1] - sums[lo]
    elapsed = time.perf_counter() - start
    _report(
        1,
        "look-ahead node masses match brute-force anticipated-word sums",
        worst < 1e-12 and elapsed < 30.0,
        f"{checked} node/context pairs, max diff {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_2_lookahead_telescopes_to_word_probability():
    """Per-label scores over any word collapse to p(w|ctx)/mass(root|ctx)."""
    start = time.perf_counter()
    worst = 0.0
    checked = 0
    for vocab, model, _, contexts in vocab_family():
        scorer = LookAheadScorer(model, vocab)
        n_words = vocab.spelled_count
        root_mass = {
            ctx: float(model.full_distribution(ctx)[:n_words].sum())
            for ctx in set(contexts)
        }
        for word_id, word in enumerate(vocab.words):
            ctx = contexts[word_id % len(contexts)]
            state = scorer.initial_state(ctx)
            total = 0.0
            for label in word:
                step, state = scorer.score(state, label)
                total += step
            step, _ = scorer.score(state, SPACE)
            total += step
            expected = math.log(model.prob(word_id, ctx) / root_mass[ctx])
            worst = max(worst, abs(total - expected))
            checked += 1
    elapsed = time.perf_counter() - start
    _report(
        2,
        "look-ahead scores telescope to the word probability share",
        worst < 1e-9 and elapsed < 30.0,
        f"{checked} words, max log diff {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_3_multilevel_word_score_identity():
    """Character mass cancels: in-word scores plus boundary = log p_wlm."""
    start = time.perf_counter()
    words = synth_vocabulary(300, seed=31)
    vocab = Vocabulary.from_words(words)
    chain = MarkovText(words, seed=32)
    corpus = chain.sentences(2000, 3, 6, seed=33)
    word_lm = train_ngram(corpus, 2, "word", vocab)
    char_lm = train_ngram(corpus, 3, "char", vocab)
    scorer = MultiLevelScorer(char_lm, word_lm, vocab)
    rng = np.random.default_rng(34)
    n_tokens = len(word_lm.tokens)
    worst = 0.0
    for _ in range(10_000):
        word_id = int(rng.integers(0, vocab.spelled_count))
        length = int(rng.integers(0, 4))
        ctx = tuple(int(t) for t in rng.integers(0, n_tokens, size=length))
        state = scorer.initial_state(ctx)
        total = 0.0
        for label in vocab.words[word_id]:
            step, state = scorer.score(state, label)
            total += step
        step, _ = scorer.score(state, SPACE)
        total += step
        worst = max(worst, abs(total - math.log(word_lm.prob(word_id, ctx))))
    elapsed = time.perf_counter() - start
    _report(
        3,
        "multi-level in-word mass cancels against the word probability",
        worst < 1e-9,
        f"10000 word/context pairs, max log diff {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_4_lookahead_local_normalization():
    """Child mass ratios plus the word-end ratio sum to one at every node."""
    start = time.perf_counter()
    rng = np.random.default_rng(41)
    worst = 0.0
    checked = 0
    for vocab, model, tree, contexts in vocab_family():
        paths = []
        stack = [tree.ROOT]
        while stack:
            node = stack.pop()
            paths.append(node)
            stack.extend(children(tree, node).values())
        node_index = {node: i for i, node in enumerate(paths)}
        intervals = np.array([tree.interval(node) for node in paths])
        los, his = intervals[:, 0], intervals[:, 1]
        word_ids = np.array(
            [-1 if tree.word_end(node) is None else tree.word_end(node) for node in paths]
        )
        child_parent, child_lo, child_hi = [], [], []
        for i, node in enumerate(paths):
            for child in children(tree, node).values():
                lo, hi = tree.interval(child)
                child_parent.append(i)
                child_lo.append(lo)
                child_hi.append(hi)
        child_parent = np.array(child_parent)
        child_lo, child_hi = np.array(child_lo), np.array(child_hi)
        for ctx in (contexts[i] for i in rng.integers(0, len(contexts), size=3)):
            dist = model.full_distribution(ctx)
            sums = cumulative_sums(dist)
            node_mass = sums[his + 1] - sums[los]
            child_sum = np.bincount(
                child_parent, weights=sums[child_hi + 1] - sums[child_lo],
                minlength=len(paths),
            )
            word_end = np.where(word_ids >= 0, dist[np.abs(word_ids)], 0.0)
            ratio = (child_sum + word_end) / node_mass
            worst = max(worst, float(np.abs(ratio - 1.0).max()))
            checked += len(paths)
    elapsed = time.perf_counter() - start
    _report(
        4,
        "look-ahead shares locally normalize at every tree node",
        worst < 1e-9,
        f"{checked} node/context pairs, max |ratio - 1| {worst:.2e}, {elapsed:.1f}s",
    )


def _collapse_tables(matrix):
    """Exact prefix and full-match masses from one path enumeration."""
    width = len(matrix.labels)
    blank = matrix.blank_index
    probs = matrix.probs
    full = {}
    for path in itertools.product(range(width), repeat=matrix.n_frames):
        p = 1.0
        previous = -1
        collapsed = []
        for t, col in enumerate(path):
            p *= probs[t, col]
            if col != previous and col != blank:
                collapsed.append(col)
            previous = col
        key = tuple(collapsed)
        full[key] = full.get(key, 0.0) + p
    prefix = {}
    for key, mass in full.items():
        for end in range(len(key) + 1):
            head = key[:end]
            prefix[head] = prefix.get(head, 0.0) + mass
    return full, prefix


def test_criterion_5_ctc_recursion_matches_enumeration():
    """Recursive prefix scores track path enumeration and decompose."""
    start = time.perf_counter()
    rng = np.random.default_rng(51)
    alphabet = ("a", "b", "c")
    worst_prefix = worst_full = worst_split = 0.0
    matrices = 0
    for _ in range(1000):
        width = int(rng.integers(2, 5))
        frames = int(rng.integers(1, 7))
        labels = alphabet[: width - 1] + (BLANK,)
        matrix = PosteriorMatrix(labels, rng.dirichlet(np.ones(width), size=frames))
        matrices += 1
        full, prefix = _collapse_tables(matrix)
        scorer = CtcPrefixScorer(matrix)
        columns = list(range(width - 1))
        limit = min(frames, 4)

        queue = [((), scorer.initial_state())]
        while queue:
            key, state = queue.pop()
            worst_full = max(
                worst_full, abs(math.exp(ctc_final(state).item()) - full.get(key, 0.0))
            )
            if len(key) == limit:
                continue
            scores = scorer.candidate_scores(state, columns)[0]
            child_states = scorer.extended_states(
                state.take([0] * len(columns)), columns=columns, log_prefix=scores
            )
            split = math.exp(ctc_final(state).item())
            for col in columns:
                child = child_states.take([col])
                child_key = key + (col,)
                got = math.exp(scores[col])
                worst_prefix = max(
                    worst_prefix, abs(got - prefix.get(child_key, 0.0))
                )
                split += got
                queue.append((child_key, child))
            here = math.exp(state.log_prefix.item()) if key else 1.0
            worst_split = max(worst_split, abs(here - split))
    elapsed = time.perf_counter() - start
    worst = max(worst_prefix, worst_full, worst_split)
    _report(
        5,
        "CTC prefix recursion matches enumeration and decomposes",
        worst < 1e-9 and elapsed < 60.0,
        f"{matrices} matrices, max prefix diff {worst_prefix:.2e}, "
        f"full diff {worst_full:.2e}, decomposition diff {worst_split:.2e}, "
        f"{elapsed:.1f}s",
    )


def test_criterion_6_saturated_beam_reproduces_exhaustive(
    tiny_vocab, uniform_char_lm, trained_char_lm, trained_word_lm
):
    """With no pruning the beam's top hypothesis is exhaustive's, exactly."""
    start = time.perf_counter()
    rng = np.random.default_rng(61)
    strategies = {
        "none": lambda: None,
        "char": lambda: CharLMScorer(trained_char_lm),
        "multilevel": lambda: MultiLevelScorer(trained_char_lm, trained_word_lm, tiny_vocab),
        "lookahead": lambda: LookAheadScorer(trained_word_lm, tiny_vocab),
    }
    config = DecodeConfig(
        ctc_weight=0.4, lm_weight=0.6, beam_width=4096, max_len=4, n_best=1
    )
    instances = []
    for i in range(50):
        labels = ("a", "c", BLANK) if i % 2 else ("a", SPACE, BLANK)
        frames = int(rng.integers(1, 5))
        instances.append(
            PosteriorMatrix(labels, rng.dirichlet(np.ones(3), size=frames))
        )
    mismatches = 0
    for matrix in instances:
        for make in strategies.values():
            beam = decode(matrix, make(), None, config).hypotheses[0]
            exact = exhaustive_decode(matrix, make(), None, config).hypotheses[0]
            if beam.labels != exact.labels or beam.joint != exact.joint:
                mismatches += 1
    elapsed = time.perf_counter() - start
    _report(
        6,
        "saturated beam reproduces exhaustive top-1 for every strategy",
        mismatches == 0,
        f"50 instances x {len(strategies)} strategies, "
        f"{mismatches} mismatches, {elapsed:.1f}s",
    )


def test_criterion_7_lm_fusion_reduces_error():
    """Both word-LM strategies beat the LM-free decoder on noisy inputs."""
    start = time.perf_counter()
    words = synth_vocabulary(100, seed=11)
    vocab = Vocabulary.from_words(words)
    chain = MarkovText(words, seed=12)
    corpus = chain.sentences(600, 3, 6, seed=13)
    transcripts = chain.sentences(200, 3, 6, seed=14)
    word_lm = train_ngram(corpus, 2, "word", vocab)
    char_lm = train_ngram(corpus, 3, "char", vocab)
    labels = ctc_labels(vocab)
    utterances = [
        (synth_posteriors(t, labels, frames_per_label=1, peak=0.6, seed=100 + i), t)
        for i, t in enumerate(transcripts)
    ]
    fused = DecodeConfig(ctc_weight=0.6, lm_weight=0.7, beam_width=8)
    plain = DecodeConfig(ctc_weight=0.6, lm_weight=0.0, beam_width=8)

    def mean_cer(lm, config):
        total = 0.0
        for matrix, reference in utterances:
            best = decode(matrix, lm, None, config).hypotheses[0]
            total += char_error_rate(best.text, " ".join(reference))
        return total / len(utterances)

    cer_none = mean_cer(None, plain)
    cer_la = mean_cer(LookAheadScorer(word_lm, vocab), fused)
    cer_ml = mean_cer(MultiLevelScorer(char_lm, word_lm, vocab), fused)
    elapsed = time.perf_counter() - start
    _report(
        7,
        "look-ahead and multi-level fusion each beat the no-LM baseline",
        cer_la < cer_none and cer_ml < cer_none and elapsed < 120.0,
        f"mean CER none {cer_none:.4f}, lookahead {cer_la:.4f}, "
        f"multilevel {cer_ml:.4f}, {elapsed:.1f}s",
    )


def test_criterion_8_lookahead_adds_less_time_than_multilevel():
    """Median added decoding time, look-ahead vs multi-level, 20k words."""
    start = time.perf_counter()
    words = synth_vocabulary(20_000, seed=21)
    vocab = Vocabulary.from_words(words)
    chain = MarkovText(words, seed=22)
    corpus = chain.sentences(4000, 3, 6, seed=23)
    transcripts = chain.sentences(500, 3, 5, seed=24)
    word_lm = train_ngram(corpus, 1, "word", vocab)
    char_lm = train_ngram(corpus, 5, "char", vocab)
    labels = ctc_labels(vocab)
    utterances = [
        (synth_posteriors(t, labels, frames_per_label=1, peak=0.8, seed=200 + i), t)
        for i, t in enumerate(transcripts)
    ]
    systems = [
        BenchSystem("none", None, None),
        BenchSystem("multilevel", 20_000, MultiLevelScorer(char_lm, word_lm, vocab)),
        BenchSystem("lookahead", 20_000, LookAheadScorer(word_lm, vocab)),
    ]
    config = DecodeConfig(ctc_weight=0.6, lm_weight=0.7, beam_width=4)
    wins = 0
    details = []
    for _ in range(5):
        rows = {row.strategy: row for row in run_benchmark(utterances, systems, config, 3)}
        added_ml = rows["multilevel"].seconds - rows["none"].seconds
        added_la = rows["lookahead"].seconds - rows["none"].seconds
        wins += added_la < added_ml
        details.append(f"+{added_la:.2f}s vs +{added_ml:.2f}s")
    elapsed = time.perf_counter() - start
    _report(
        8,
        "look-ahead adds less decoding time than multi-level in >= 4/5 runs",
        wins >= 4 and elapsed < 600.0,
        f"{wins}/5 runs ({'; '.join(details)}), {elapsed:.1f}s",
    )


def test_criterion_9_decode_command_is_deterministic(tmp_path):
    """Repeated decode invocations write byte-identical n-best files."""
    start = time.perf_counter()
    data = tmp_path / "data"
    assert (
        cli_main(
            [
                "synth", "--out-dir", str(data), "--vocab-size", "40",
                "--sentences", "150", "--utterances", "5",
                "--peak", "0.7", "--seed", "91",
            ]
        )
        == 0
    )
    assert (
        cli_main(
            [
                "train-lm", "--corpus", str(data / "corpus.txt"),
                "--vocab", str(data / "vocab.txt"), "--order", "2",
                "--level", "word", "--out", str(tmp_path / "word.lm"),
            ]
        )
        == 0
    )
    posteriors = sorted(str(p) for p in data.glob("utt_*.tsv"))
    decode_args = [
        "decode", "--posteriors", *posteriors,
        "--lm-strategy", "lookahead",
        "--word-lm", str(tmp_path / "word.lm"),
        "--vocab", str(data / "vocab.txt"),
        "--beam-width", "6", "--n-best", "3",
    ]
    outputs = []
    for name in ("first.txt", "second.txt"):
        out = tmp_path / name
        assert cli_main(decode_args + ["--out", str(out)]) == 0
        outputs.append(out.read_bytes())
    subprocess.run(
        [sys.executable, "-m", "beamfuse.cli"]
        + decode_args
        + ["--out", str(tmp_path / "third.txt")],
        check=True,
        capture_output=True,
    )
    outputs.append((tmp_path / "third.txt").read_bytes())
    identical = outputs[0] == outputs[1] == outputs[2]
    elapsed = time.perf_counter() - start
    _report(
        9,
        "repeated decode invocations are byte-identical",
        identical and len(outputs[0]) > 0,
        f"3 invocations (one in a fresh process), "
        f"{len(outputs[0])} bytes each, {elapsed:.1f}s",
    )
