"""Test oracles for CTC scoring (full path enumeration and greedy
decoding) and for look-ahead rows (the per-child mass formula).

They share no code with ``beamfuse.ctc``'s prefix recursion or with the
look-ahead scorer's edge-slice gather, which is what makes them oracles for
them.
"""

import itertools
import math
from collections import defaultdict
from typing import Sequence

import numpy as np

from beamfuse import PosteriorMatrix

_ENUM_LIMIT = 10_000_000


def _collapse(path: Sequence[int], blank: int) -> tuple[int, ...]:
    out = []
    previous = -1
    for col in path:
        if col != previous and col != blank:
            out.append(col)
        previous = col
    return tuple(out)


def _collapsed_paths(matrix: PosteriorMatrix):
    frames = matrix.n_frames
    width = len(matrix.labels)
    if width**frames > _ENUM_LIMIT:
        raise ValueError("posterior matrix too large to enumerate")
    probs, blank = matrix.probs, matrix.blank_index
    for path in itertools.product(range(width), repeat=frames):
        p = 1.0
        for t, col in enumerate(path):
            p *= probs[t, col]
        yield _collapse(path, blank), p


def _prefix_columns(matrix: PosteriorMatrix, prefix: Sequence[str]) -> tuple[int, ...]:
    columns = {label: i for i, label in enumerate(matrix.labels)}
    blank = matrix.blank_index
    out = []
    for label in prefix:
        col = columns.get(label)
        if col is None or col == blank:
            raise ValueError(f"invalid prefix label {label!r}")
        out.append(col)
    return tuple(out)


def ctc_brute_force(posteriors: PosteriorMatrix, prefix: Sequence[str]) -> float:
    """Prefix probability by full path enumeration; oracle for the recursion."""
    target = _prefix_columns(posteriors, prefix)
    total = 0.0
    for collapsed, p in _collapsed_paths(posteriors):
        if collapsed[: len(target)] == target:
            total += p
    return total


def ctc_brute_force_full(posteriors: PosteriorMatrix, labels: Sequence[str]) -> float:
    """Probability that the collapsed output equals *labels* exactly."""
    target = _prefix_columns(posteriors, labels)
    total = 0.0
    for collapsed, p in _collapsed_paths(posteriors):
        if collapsed == target:
            total += p
    return total


def ctc_log_brute_force(posteriors: PosteriorMatrix) -> tuple[dict, dict]:
    """Log prefix and log exact-match probabilities of every label sequence,
    by log-space path enumeration: a path scores the sum of its log
    posteriors, and a sequence the log-sum-exp of its paths' scores, so no
    probability underflows on the way.

    Returns ``(prefix, full)``, two dicts keyed by label tuples; a sequence
    that is missing has probability zero (``-inf``).
    """
    frames, width = posteriors.n_frames, len(posteriors.labels)
    if width**frames > _ENUM_LIMIT:
        raise ValueError("posterior matrix too large to enumerate")
    with np.errstate(divide="ignore"):
        logp = np.log(posteriors.probs).tolist()
    prefix, full = defaultdict(list), defaultdict(list)
    for path in itertools.product(range(width), repeat=frames):
        score = math.fsum(logp[t][col] for t, col in enumerate(path))
        if score == -math.inf:
            continue
        labels = tuple(posteriors.labels[c] for c in _collapse(path, posteriors.blank_index))
        full[labels].append(score)
        for end in range(len(labels) + 1):
            prefix[labels[:end]].append(score)
    return _log_sum_exp(prefix), _log_sum_exp(full)


def _log_sum_exp(scores: dict) -> dict:
    out = {}
    for key, values in scores.items():
        top = max(values)
        out[key] = top + math.log(math.fsum(math.exp(v - top) for v in values))
    return out


def greedy_decode(posteriors: PosteriorMatrix) -> list[str]:
    """Collapse the per-frame argmax path."""
    path = np.argmax(posteriors.probs, axis=1)
    collapsed = _collapse([int(c) for c in path], posteriors.blank_index)
    return [posteriors.labels[col] for col in collapsed]


def lookahead_row_reference(scorer, state) -> list[float]:
    """An on-tree look-ahead state's scores for each tree letter column, then
    ``<space>`` and ``<eos>``, by the per-child formula: a child costs
    ``log(sums[hi + 1] - sums[lo])`` over its own interval minus the node's
    log mass, a letter with no child costs the OOV charge, and each word-LM
    term is ``math.log`` of ``prob``."""
    tree, model, vocab = scorer.tree, scorer.word_model, scorer.vocab
    node, sums, history = state.node, state.sums, state.word_history
    row = []
    for kid in tree.child[node].tolist():
        if kid < 0:
            row.append(state.unk_logp)
        else:
            mass = sums[tree.hi[kid] + 1] - sums[tree.lo[kid]]
            row.append(math.log(mass) - state.node_log_mass)
    if node == tree.ROOT:
        close, after = math.nan, history
    else:
        word_id = int(tree.word_id[node])
        if word_id < 0:
            close, word_id = state.unk_logp, vocab.unk_id
        else:
            close = math.log(model.prob(word_id, history)) - state.node_log_mass
        keep = model.order - 1
        after = (history + (word_id,))[-keep:] if keep else ()
    opened = 0.0 if math.isnan(close) else close
    return row + [close, opened + math.log(model.prob(vocab.eos_id, after))]
