"""Witten-Bell interpolated n-gram language models over words or characters.

Models answer the queries fused decoding needs: the probability of one
token after a context, the full next-token distribution for a context, and
two cached forms of it, cumulative sums (read by the prefix-tree look-ahead)
and natural logs (read by character fusion).  Probabilities at context
length m interpolate the maximum-likelihood estimate with the next-shorter
context using weights n/(n+t), where n counts tokens observed after the
context and t counts distinct continuation types; the recursion bottoms out
in a uniform distribution over the token inventory, which keeps every
probability strictly positive and every distribution normalized.
"""

from __future__ import annotations

import math
import pickle
from functools import lru_cache
from itertools import chain
from pathlib import Path
from typing import Sequence

import numpy as np

from .vocab import EOS, SPACE, Vocabulary, to_char_labels

_FORMAT = "beamfuse-ngram"
_VERSION = 1

MAX_ORDER = 5
ROW_CACHE_SIZE = 256  # contexts whose cumulative sums and log rows stay cached


class NGramModel:
    """Interpolated n-gram model with a uniform base distribution.

    Parameters
    ----------
    order : int
        Longest n-gram length, between 1 and 5.
    level : str
        ``"word"`` or ``"char"``; only recorded, the math is identical.
    tokens : sequence of str
        Full token inventory.  Token IDs are positions in this sequence.
    counts : list of dict, optional
        Per-context-length count tables ``counts[m][context][token]``; an
        absent table means an untrained (uniform) model.
    """

    def __init__(
        self,
        order: int,
        level: str,
        tokens: Sequence[str],
        counts: list[dict[tuple[int, ...], dict[int, int]]] | None = None,
    ):
        if not 1 <= order <= MAX_ORDER:
            raise ValueError(f"order must be between 1 and {MAX_ORDER}, got {order}")
        if level not in ("word", "char"):
            raise ValueError(f"level must be 'word' or 'char', got {level!r}")
        self.order = order
        self.level = level
        self.tokens = tuple(tokens)
        self.token_ids = {token: i for i, token in enumerate(self.tokens)}
        if len(self.token_ids) != len(self.tokens):
            raise ValueError("duplicate tokens in inventory")
        if not self.tokens:
            raise ValueError("empty token inventory")
        self._base = 1.0 / len(self.tokens)
        self._counts = counts if counts is not None else [{} for _ in range(order)]
        if len(self._counts) != order:
            raise ValueError("count tables do not match model order")
        # Checked over distinct values, which keeps loading fast.
        for m, level_counts in enumerate(self._counts):
            if set(map(len, level_counts)) - {m}:
                raise ValueError(f"counts[{m}] holds a context whose length is not {m}")
            tables = level_counts.values()
            ids = set(chain(chain.from_iterable(level_counts), chain.from_iterable(tables)))
            if set(map(type, ids)) - {int} or not ids <= set(range(len(self.tokens))):
                raise ValueError(f"counts[{m}] names a token ID outside the inventory")
            counts = set(chain.from_iterable(map(dict.values, tables)))
            if not all(tables) or set(map(type, counts)) - {int} or min(counts, default=1) < 1:
                raise ValueError(f"counts[{m}] holds no count or one that is not an int > 0")
        self._totals = [
            {ctx: sum(table.values()) for ctx, table in level_counts.items()}
            for level_counts in self._counts
        ]
        self._unigram = self._build_unigram()
        self.cumsums = lru_cache(maxsize=ROW_CACHE_SIZE)(self._cumsums_uncached)
        self.log_rows = lru_cache(maxsize=ROW_CACHE_SIZE)(self._log_row_uncached)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def prob(self, token: int, context: Sequence[int]) -> float:
        """P(token | context), truncating to the most recent order-1 tokens.

        Contexts never observed in training fall through to the next
        shorter context unchanged.
        """
        if not 0 <= token < len(self.tokens):
            raise ValueError(f"token ID {token} outside inventory of {len(self.tokens)}")
        context = self._truncate(context)
        p = float(self._unigram[token])
        for m in range(1, len(context) + 1):
            ctx = context[len(context) - m:]
            table = self._counts[m].get(ctx)
            if table is None:
                continue
            types = len(table)
            p = (table.get(token, 0) + types * p) / (self._totals[m][ctx] + types)
        return p

    def full_distribution(self, context: Sequence[int]) -> np.ndarray:
        """Next-token distribution as a fresh vector indexed by token ID."""
        context = self._truncate(context)
        dist = self._unigram.copy()
        for m in range(1, len(context) + 1):
            ctx = context[len(context) - m:]
            table = self._counts[m].get(ctx)
            if table is None:
                continue
            types = len(table)
            dist *= types
            for token, count in table.items():
                dist[token] += count
            dist /= self._totals[m][ctx] + types
        return dist

    def _cumsums_uncached(self, context: tuple[int, ...]) -> np.ndarray:
        return cumulative_sums(self.full_distribution(context))

    def _log_row_uncached(self, context: tuple[int, ...]) -> np.ndarray:
        # Bitwise math.log(self.prob(token, context)) (np.log can differ in the
        # last bit).  As wide as the inventory, so word fusion does not use it.
        row = np.array([math.log(p) for p in self.full_distribution(context).tolist()])
        row.flags.writeable = False
        return row

    def _truncate(self, context: Sequence[int]) -> tuple[int, ...]:
        keep = self.order - 1
        if keep == 0:
            return ()
        return tuple(context[-keep:])

    def cumulative_distribution(self, context: Sequence[int]) -> np.ndarray:
        """Cached cumulative sums for *context*; do not mutate the result."""
        return self.cumsums(self._truncate(context))

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------

    @classmethod
    def uniform(cls, order: int, level: str, tokens: Sequence[str]) -> "NGramModel":
        """Untrained model assigning 1/|inventory| everywhere."""
        return cls(order, level, tokens)

    def _build_unigram(self) -> np.ndarray:
        vec = np.full(len(self.tokens), self._base)
        table = self._counts[0].get(())
        if table:
            types = len(table)
            counts = np.zeros(len(self.tokens))
            for token, count in table.items():
                counts[token] = count
            vec = (counts + types * self._base) / (self._totals[0][()] + types)
        return vec


def _count_ngrams(
    sequences: Sequence[Sequence[int]], order: int
) -> list[dict[tuple[int, ...], dict[int, int]]]:
    counts: list[dict[tuple[int, ...], dict[int, int]]] = [{} for _ in range(order)]
    for seq in sequences:
        for i, token in enumerate(seq):
            for m in range(min(order - 1, i) + 1):
                ctx = tuple(seq[i - m:i])
                table = counts[m].get(ctx)
                if table is None:
                    table = counts[m][ctx] = {}
                table[token] = table.get(token, 0) + 1
    return counts


def train_ngram(
    sentences: Sequence[Sequence[str]],
    order: int,
    level: str,
    vocab: Vocabulary | None = None,
) -> NGramModel:
    """Train a Witten-Bell n-gram model on tokenized sentences.

    Word-level training maps out-of-vocabulary tokens to ``<UNK>`` and needs
    a vocabulary; character-level training runs over the spelled-out
    sentences and derives its label inventory from the corpus when no
    vocabulary is supplied.  Every sentence is terminated with ``<eos>``.
    """
    sentences = [sentence for sentence in sentences if sentence]
    if not sentences:
        raise ValueError("empty corpus")
    if level == "word":
        if vocab is None:
            raise ValueError("word-level training requires a vocabulary")
        tokens: tuple[str, ...] = vocab.lm_tokens
        eos_id = vocab.eos_id
        sequences = [[vocab.lookup(w) for w in sentence] + [eos_id] for sentence in sentences]
    elif level == "char":
        if vocab is not None:
            tokens = vocab.label_set
        else:
            chars = sorted({ch for sentence in sentences for word in sentence for ch in word})
            tokens = tuple(chars) + (SPACE, EOS)
        ids = {label: i for i, label in enumerate(tokens)}
        eos_id = ids[EOS]
        try:
            sequences = [
                [ids[label] for label in to_char_labels(sentence)] + [eos_id]
                for sentence in sentences
            ]
        except KeyError as exc:
            raise ValueError(f"character {exc.args[0]!r} outside the label inventory") from None
    else:
        raise ValueError(f"level must be 'word' or 'char', got {level!r}")
    return NGramModel(order, level, tokens, counts=_count_ngrams(sequences, order))


def cumulative_sums(dist: np.ndarray) -> np.ndarray:
    """Prefix sums with a leading zero: ``out[i] == sum(dist[:i])``.

    The probability mass of the ID interval ``[lo, hi]`` is then
    ``out[hi + 1] - out[lo]``, one subtraction regardless of interval width.
    """
    out = np.empty(len(dist) + 1)
    out[0] = 0.0
    np.cumsum(dist, out=out[1:])
    return out


def save_model(model: NGramModel, path: str | Path) -> None:
    """Versioned binary dump of the count tables."""
    payload = {
        "format": _FORMAT,
        "version": _VERSION,
        "order": model.order,
        "level": model.level,
        "tokens": list(model.tokens),
        "counts": [
            {ctx: dict(table) for ctx, table in level_counts.items()}
            for level_counts in model._counts
        ],
    }
    with open(path, "wb") as fh:
        pickle.dump(payload, fh)


class _PlainUnpickler(pickle.Unpickler):
    """Loads plain dicts, lists, tuples, strings and numbers only: a file
    that names any global (a class or a callable) is refused before
    anything in it runs."""

    def find_class(self, module: str, name: str):
        raise pickle.UnpicklingError(f"refusing to load {module}.{name}")


def load_model(path: str | Path) -> NGramModel:
    with open(path, "rb") as fh:
        try:
            payload = _PlainUnpickler(fh).load()
        except Exception as exc:
            raise ValueError(f"{path}: not a language-model file") from exc
    if not isinstance(payload, dict) or payload.get("format") != _FORMAT:
        raise ValueError(f"{path}: not a language-model file")
    if payload.get("version") != _VERSION:
        raise ValueError(f"{path}: unsupported model version {payload.get('version')!r}")
    try:
        return NGramModel(
            payload["order"],
            payload["level"],
            payload["tokens"],
            counts=payload["counts"],
        )
    except (KeyError, IndexError, TypeError, AttributeError, ValueError) as exc:
        raise ValueError(f"{path}: malformed language-model file") from exc
