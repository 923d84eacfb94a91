"""Test oracles for CTC scoring: full path enumeration and greedy decoding.

They share no code with ``beamfuse.ctc``'s prefix recursion, which is what
makes them oracles for it.
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
