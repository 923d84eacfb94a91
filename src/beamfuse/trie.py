"""Prefix tree over vocabulary spellings with contiguous word-ID intervals."""

from __future__ import annotations

import numpy as np

from .vocab import EOS, SPACE, Vocabulary


class PrefixTree:
    """Trie over word spellings, stored as arrays indexed by node (root 0).

    Word IDs ascend with spelling order, so the words anticipated below node
    ``n`` are one contiguous ID interval ``[lo[n], hi[n]]``, enclosing the
    intervals of its children.  ``word_id[n]`` is the word spelled by the
    path to ``n`` or -1, and ``child[n, k]`` the child along ``labels[k]`` or
    -1, so the children of many nodes along many labels are one gather.
    """

    ROOT = 0

    def __init__(self, labels, lo, hi, word_id, child):
        self.labels = tuple(labels)
        self.columns = {label: k for k, label in enumerate(self.labels)}
        self.lo, self.hi, self.word_id, self.child = lo, hi, word_id, child

    @classmethod
    def build(cls, vocab: Vocabulary) -> "PrefixTree":
        words = vocab.words
        if not words:
            raise ValueError("vocabulary has no spelled words")
        # One zero-padded row of code points per word.  Words are sorted, so
        # the words below a depth-d node are one run of rows, and a row opens
        # a depth-d node when it is at least d long and shares fewer than d
        # leading characters with the row before (the first row shares -1).
        codes = np.array(words).view(np.uint32).reshape(len(words), -1)
        lens = np.array([len(word) for word in words])
        # The extra column ends each comparison: a NUL equals the padding.
        same = np.c_[codes[1:] == codes[:-1], np.zeros(len(words) - 1, dtype=bool)]
        lcp = np.append(-1, np.minimum(same.argmin(1), lens[:-1]))
        letters = [label for label in vocab.label_set if label not in (SPACE, EOS)]
        alphabet = np.array([ord(letter) for letter in letters], dtype=np.uint32)
        parts, owner, size = [], np.zeros(len(words), dtype=np.intp), 0
        for depth in range(codes.shape[1] + 1):
            cut = lcp < depth
            opens = cut & (lens >= depth)
            starts = np.flatnonzero(opens)
            ends = np.append(np.flatnonzero(cut), len(words))
            hi = ends[np.searchsorted(ends, starts, side="right")] - 1
            word_id = np.where(lens[starts] == depth, starts, -1)
            label = np.searchsorted(alphabet, codes[starts, depth - 1])  # unused at depth 0
            parts.append((starts, hi, word_id, owner[starts], label))
            owner = size - 1 + np.cumsum(opens)  # each word's node at this depth
            size += len(starts)
        lo, hi, word_id, parent, label = (np.concatenate(part) for part in zip(*parts))
        child = np.full((size, len(alphabet)), -1, dtype=np.int32)
        child[parent[1:], label[1:]] = np.arange(1, size)
        return cls([chr(c) for c in alphabet], lo, hi, word_id, child)

    def __len__(self) -> int:
        return len(self.lo)

    def descend(self, node: int | None, label: str) -> int | None:
        """Child of *node* along *label*; ``None`` is absorbing."""
        column = self.columns.get(label)
        if node is None or column is None:
            return None
        child = int(self.child[node, column])
        return child if child >= 0 else None

    def interval(self, node: int) -> tuple[int, int]:
        """Smallest and largest word ID anticipated at *node*."""
        return int(self.lo[node]), int(self.hi[node])

    def word_end(self, node: int) -> int | None:
        """Word ID when the path to *node* spells a complete word, else None."""
        word_id = int(self.word_id[node])
        return word_id if word_id >= 0 else None

    def children(self, node: int) -> dict[str, int]:
        """Label-to-child map of *node*, in label order."""
        return {k: c for k, c in zip(self.labels, self.child[node].tolist()) if c >= 0}

    def dump_lines(self) -> list[str]:
        """One line per node: path, interval bounds, and word end or ``-``."""
        lines = []
        stack = [(self.ROOT, "")]
        while stack:
            node, path = stack.pop()
            word = self.word_id[node]
            lines.append(f"{path}\t{self.lo[node]}\t{self.hi[node]}\t{'-' if word < 0 else word}")
            for label, child in reversed(self.children(node).items()):
                stack.append((child, path + label))
        return lines
