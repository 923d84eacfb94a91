"""Witten-Bell interpolated n-gram language models over words or characters.

Models answer the queries fused decoding needs: the probability of one
token after a context and its natural log, the last ``LOG_PROB_CACHE_SIZE``
logs kept for word fusion; the full next-token distribution for a context,
and two cached read-only forms of it: cumulative sums for the prefix-tree
look-ahead, as many rows as fit in ``ROW_CACHE_BYTES``, and natural logs for
character fusion, one row per observed context.  An unobserved context
shares the row of its longest observed suffix.  Probabilities at context
length m interpolate the maximum-likelihood estimate with the next-shorter
context using weights n/(n+t), where n counts tokens observed after the
context and t distinct continuation types; the recursion ends in a uniform
distribution, so every probability is positive and every row sums to one.
"""

from __future__ import annotations

import math
import pickle
from array import array
from functools import cached_property, lru_cache
from itertools import accumulate, chain
from pathlib import Path
from typing import Sequence

import numpy as np

from .vocab import EOS, SPACE, Vocabulary, to_char_labels

_FORMAT = "beamfuse-ngram"
_VERSION = 2
# A model file's count table per context length: each field's little-endian dtype.
_FIELDS = (("contexts", "<i4"), ("offsets", "<i8"), ("tokens", "<i4"), ("counts", "<i8"))

MAX_ORDER = 5
ROW_CACHE_BYTES = 4 * 2**20  # what a model's cached cumulative-sum rows may take
# Log probabilities a model keeps: a word-fusion decode of a 5-word
# utterance asks for about 200 distinct (token, context) pairs.
LOG_PROB_CACHE_SIZE = 256
_INT64_MAX = 2**63 - 1


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
        if not isinstance(order, int) or not 1 <= order <= MAX_ORDER:
            raise ValueError(f"order must be between 1 and {MAX_ORDER}, got {order}")
        if level not in ("word", "char"):
            raise ValueError(f"level must be 'word' or 'char', got {level!r}")
        self.order = order
        self.level = level
        self.tokens = tuple(tokens)
        if len(set(self.tokens)) != len(self.tokens):
            raise ValueError("duplicate tokens in inventory")
        if not self.tokens:
            raise ValueError("empty token inventory")
        if counts is None:
            counts = [{} for _ in range(order)]
        n_tokens = len(self.tokens)
        self._set_tables([_CountTable.from_dicts(m, c, n_tokens) for m, c in enumerate(counts)])

    def _set_tables(self, tables: list[_CountTable]) -> None:
        """Installs one checked count table per context length."""
        if len(tables) != self.order:
            raise ValueError("count tables do not match model order")
        self._tables = tables
        # The uniform base distribution interpolated with the unigram counts.
        self._unigram = self._interpolate(np.full(len(self.tokens), 1.0 / len(self.tokens)), ())
        self._unigram.flags.writeable = False
        self._backoff_rows: dict[tuple[int, ...], np.ndarray] = {}
        self._log_rows: dict[tuple[int, ...], np.ndarray] = {}
        row_cache = lru_cache(ROW_CACHE_BYTES // (8 * len(self.tokens) + 8))
        self.cumsums = row_cache(self._cumsums_uncached)
        # ``log_prob(token, context)``: ``math.log(self.prob(token, context))``
        # bit for bit (``np.log`` can differ in the last bit), keyed by the
        # arguments as given, so *context* must be a tuple.
        self.log_prob = lru_cache(LOG_PROB_CACHE_SIZE)(self._log_prob_uncached)

    @cached_property
    def token_ids(self) -> dict[str, int]:
        """Token ID of each token string, built on first use."""
        return {token: i for i, token in enumerate(self.tokens)}

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
        context = self.clip(context)
        p = self._unigram.item(token)
        for m in range(1, len(context) + 1):
            table = self._tables[m]
            row = table.rows.get(context[len(context) - m:])
            if row is None:
                continue
            start, stop = table.offsets[row], table.offsets[row + 1]
            seen = table.tokens[start:stop]
            count = table.counts[start + seen.index(token)] if token in seen else 0
            types = stop - start
            p = (count + types * p) / (table.totals[row] + types)
        return p

    def _log_prob_uncached(self, token: int, context: tuple[int, ...]) -> float:
        return math.log(self.prob(token, context))

    def full_distribution(self, context: Sequence[int]) -> np.ndarray:
        """Next-token distribution as a fresh vector indexed by token ID."""
        return self._distribution(self._observed(self.clip(context))).copy()

    def _interpolate(self, lower: np.ndarray, ctx: tuple[int, ...]) -> np.ndarray:
        """One Witten-Bell level over *lower*, the distribution after ``ctx[1:]``:
        a new vector, or *lower* itself when *ctx* was never observed."""
        table = self._tables[len(ctx)]
        row = table.rows.get(ctx)
        if row is None:
            return lower
        start, stop = table.offsets[row], table.offsets[row + 1]
        types = stop - start
        dist = lower * types
        dist[table.token_array[start:stop]] += table.count_array[start:stop]  # each token once
        dist /= table.totals[row] + types
        return dist

    def _backoff(self, ctx: tuple[int, ...]) -> np.ndarray:
        """Read-only distribution after *ctx*, shorter than ``order - 1``, kept
        once per observed context; an unobserved one shares its suffix's row."""
        ctx = self._observed(ctx)
        if ctx and ctx not in self._backoff_rows:
            row = self._interpolate(self._backoff(ctx[1:]), ctx)
            row.flags.writeable = False
            self._backoff_rows[ctx] = row
        return self._backoff_rows.get(ctx, self._unigram)

    def _observed(self, ctx: tuple[int, ...]) -> tuple[int, ...]:
        """Longest suffix of *ctx* seen in training: its distribution, bit for bit."""
        while ctx and ctx not in self._tables[len(ctx)].rows:
            ctx = ctx[1:]
        return ctx

    def _distribution(self, ctx: tuple[int, ...]) -> np.ndarray:
        """Distribution after the observed context *ctx*, not to be written:
        the memoized backoff row, or one level over it at full length."""
        full = ctx and len(ctx) == self.order - 1  # _backoff keeps only shorter ones
        return self._interpolate(self._backoff(ctx[1:]), ctx) if full else self._backoff(ctx)

    def _cumsums_uncached(self, ctx: tuple[int, ...]) -> np.ndarray:
        row = cumulative_sums(self._distribution(ctx))
        row.flags.writeable = False
        return row

    def log_rows(self, context: tuple[int, ...]) -> np.ndarray:
        """Read-only ``math.log(self.prob(token, context))`` of every token,
        bit for bit (``np.log`` can differ in the last bit), kept once per
        observed context.  As wide as the inventory, so word fusion does not
        use it."""
        row = self._log_rows.get(context)
        if row is None:
            ctx = self._observed(self.clip(context))
            row = self._log_rows.get(ctx)
            if row is None:
                row = np.array([math.log(p) for p in self._distribution(ctx).tolist()])
                row.flags.writeable = False
                self._log_rows[ctx] = row
        return row

    def clip(self, context: Sequence[int]) -> tuple[int, ...]:
        """The last ``order - 1`` tokens of *context*, all that a query reads."""
        keep = self.order - 1
        return tuple(context[-keep:]) if keep else ()

    def cumulative_distribution(self, context: Sequence[int]) -> np.ndarray:
        """Cached read-only cumulative sums, keyed by the observed suffix."""
        return self.cumsums(self._observed(self.clip(context)))


class _CountTable:
    """The counts after every context of one length m, flat.  ``rows`` maps
    each observed context to its row r; the row's tokens are
    ``tokens[offsets[r]:offsets[r + 1]]`` in ascending order, with their
    ``counts``, and ``totals[r]`` is the row's sum.  Token IDs are C ints,
    counts, totals and offsets int64; ``token_array`` and ``count_array`` are
    read-only NumPy views of the same buffers."""

    __slots__ = ("rows", "offsets", "tokens", "counts", "totals", "token_array", "count_array")

    def __init__(self, m: int, fields: dict, n_tokens: int):
        """Checks one table as a model file holds it and stores it: ``fields``
        maps each name of ``_FIELDS`` to the little-endian bytes of one array,
        ``contexts`` holding the m tokens of each row's context, row by row."""
        try:
            contexts, offsets, tokens, counts = (
                np.frombuffer(fields[name], dtype) for name, dtype in _FIELDS
            )
        except ValueError:
            raise ValueError(f"counts[{m}] holds a field not a whole number of items") from None
        n_rows = len(offsets) - 1
        if (
            n_rows < 0
            or offsets[0] != 0
            or not offsets[-1] == len(tokens) == len(counts)
            or len(contexts) != n_rows * m
        ):
            raise ValueError(f"counts[{m}] holds arrays whose lengths do not match")
        # Comparisons, not differences, which could wrap around in int64.
        if (offsets[1:] <= offsets[:-1]).any() or counts.size and counts.min() < 1:
            raise ValueError(f"counts[{m}] holds no count or one that is not an int > 0")
        named = np.concatenate((contexts, tokens))
        if named.size and not 0 <= named.min() <= named.max() < n_tokens:
            raise ValueError(f"counts[{m}] names a token ID outside the inventory")
        rising = tokens[1:] > tokens[:-1]
        rising[offsets[1:-1] - 1] = True  # each row starts afresh
        if not rising.all():
            raise ValueError(f"counts[{m}] holds a row whose tokens do not rise strictly")
        # No row sums to more than the largest count times the number of counts.
        if counts.size and int(counts.max()) * len(counts) > _INT64_MAX:
            bounds, values = offsets.tolist(), counts.tolist()
            if max(sum(values[a:b]) for a, b in zip(bounds, bounds[1:])) > _INT64_MAX:
                raise ValueError(f"counts[{m}] holds a row whose counts sum above 2**63 - 1")
        keys = zip(*contexts.reshape(n_rows, m).T.tolist()) if m else [()] * n_rows
        self.rows = dict(zip(keys, range(n_rows)))
        if len(self.rows) != n_rows:
            raise ValueError(f"counts[{m}] holds a context twice")
        self.offsets = array("q", offsets.astype(np.int64).tobytes())
        self.tokens = array("i", tokens.astype(np.intc).tobytes())
        self.counts = array("q", counts.astype(np.int64).tobytes())
        self.token_array = np.frombuffer(self.tokens, dtype=np.intc)
        self.count_array = np.frombuffer(self.counts, dtype=np.int64)
        self.token_array.flags.writeable = self.count_array.flags.writeable = False
        starts = np.frombuffer(self.offsets, dtype=np.int64)[:-1]
        self.totals = array("q", np.add.reduceat(self.count_array, starts).tobytes())

    @classmethod
    def from_dicts(
        cls, m: int, level_counts: dict[tuple[int, ...], dict[int, int]], n_tokens: int
    ) -> "_CountTable":
        """Checks the types in ``counts[m]`` of the model constructor, then
        flattens each row in ascending token order for the checks above."""
        if set(map(len, level_counts)) - {m}:
            raise ValueError(f"counts[{m}] holds a context whose length is not {m}")
        tables = list(level_counts.values())
        contexts = list(chain.from_iterable(level_counts))
        # Types are checked per element: a set hides True and 1.0 behind an equal 1.
        if set(map(type, chain(contexts, chain.from_iterable(tables)))) - {int}:
            raise ValueError(f"counts[{m}] names a token ID outside the inventory")
        if set(map(type, chain.from_iterable(map(dict.values, tables)))) - {int}:
            raise ValueError(f"counts[{m}] holds no count or one that is not an int > 0")
        pairs = list(chain.from_iterable(sorted(table.items()) for table in tables))
        ids, counts = [token for token, _ in pairs], [count for _, count in pairs]
        offsets = list(accumulate(map(len, tables), initial=0))
        values = {"contexts": contexts, "offsets": offsets, "tokens": ids, "counts": counts}
        try:
            fields = {name: np.array(values[name], dtype).tobytes() for name, dtype in _FIELDS}
        except OverflowError:  # a value its field's integer type cannot hold
            if max(counts, default=0) > _INT64_MAX:
                raise ValueError(f"counts[{m}] holds a row whose counts sum above 2**63 - 1")
            if min(counts, default=0) < 0:
                raise ValueError(f"counts[{m}] holds no count or one that is not an int > 0")
            raise ValueError(f"counts[{m}] names a token ID outside the inventory")
        return cls(m, fields, n_tokens)

    def fields(self) -> dict[str, bytes]:
        """The table as a model file holds it, for ``__init__`` to read back."""
        arrays = (list(self.rows), self.offsets, self.tokens, self.counts)
        return {name: np.asarray(a, dtype).tobytes() for (name, dtype), a in zip(_FIELDS, arrays)}


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
    """Versioned binary dump of the flat count tables."""
    payload = {
        "format": _FORMAT,
        "version": _VERSION,
        "order": model.order,
        "level": model.level,
        "tokens": list(model.tokens),
        "tables": [table.fields() for table in model._tables],
    }
    with open(path, "wb") as fh:
        pickle.dump(payload, fh)


class _PlainUnpickler(pickle.Unpickler):
    """Loads plain dicts, lists, tuples, strings, bytes and numbers only: a file
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
        version = payload.get("version")
        raise ValueError(
            f"{path}: unsupported model version {version!r}; retrain it with beamfuse train-lm"
        )
    try:
        model = NGramModel(payload["order"], payload["level"], payload["tokens"])
        n_tokens = len(model.tokens)
        model._set_tables([_CountTable(m, t, n_tokens) for m, t in enumerate(payload["tables"])])
    except (KeyError, IndexError, TypeError, AttributeError, ValueError) as exc:
        raise ValueError(f"{path}: malformed language-model file") from exc
    return model
