"""Prefix tree over vocabulary spellings with contiguous word-ID intervals."""

from __future__ import annotations

from array import array

import numpy as np


class PrefixTree:
    """Trie over word spellings, stored as arrays indexed by node (root 0).

    Word IDs ascend with spelling order, so the words anticipated below node
    ``n`` are one contiguous ID interval ``[lo[n], hi[n]]``, enclosing the
    intervals of its children.  ``word_id[n]`` is the word spelled by the
    path to ``n`` or -1, and ``child[n, k]`` the child along ``labels[k]`` or
    -1, so the children of many nodes along many labels are one gather.

    The words below ``n`` are its own word, then each child's run in label
    order, so the children's intervals tile ``n``'s.  Node ``n``'s edge slice
    ``edges[edge_offsets[n]:edge_offsets[n + 1]]`` is ``[lo[k1], ..., lo[km],
    hi[n] + 1]`` over its children ``k1 < ... < km``, and ``edge_columns``
    holds each child's label column at its ``lo`` and -1 at the closing bound.
    Child ``ki``'s interval is then ``[edges[i], edges[i + 1] - 1]``, so on
    leading-zero cumulative sums one gather of the slice gives every child's
    mass.  ``edges`` is an array of indices for that gather; the offsets and
    columns, read one at a time, are C-int ``array``s.
    """

    ROOT = 0

    def __init__(self, labels, lo, hi, word_id, child, edge_offsets, edges, edge_columns):
        self.labels = tuple(labels)
        self.columns = {label: k for k, label in enumerate(self.labels)}
        self.lo, self.hi, self.word_id, self.child = lo, hi, word_id, child
        self.edge_offsets, self.edges, self.edge_columns = edge_offsets, edges, edge_columns

    @classmethod
    def build(cls, words: tuple[str, ...], letters: tuple[str, ...]) -> "PrefixTree":
        """Tree of sorted distinct *words*, one child column per letter of sorted *letters*."""
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
        # Nodes 1.. are numbered by (parent, label), so the edge slices laid
        # end to end in node order hold every child's lo in node order, each
        # node's closing bound after its last child.
        offsets = np.append(0, np.cumsum(np.bincount(parent[1:], minlength=size) + 1))
        kids = np.ones(offsets[-1], dtype=bool)
        kids[offsets[1:] - 1] = False
        edges = np.empty(offsets[-1], dtype=np.intp)
        edges[kids], edges[~kids] = lo[1:], hi + 1
        columns = np.full(offsets[-1], -1, dtype=np.intc)
        columns[kids] = label[1:]
        offsets, columns = (array("i", a.astype(np.intc).tobytes()) for a in (offsets, columns))
        return cls([chr(c) for c in alphabet], lo, hi, word_id, child, offsets, edges, columns)

    def __len__(self) -> int:
        return len(self.lo)

    def descend(self, node: int | None, label: str) -> int | None:
        """Child of *node* along *label*; ``None`` is absorbing."""
        column = self.columns.get(label)
        if node is None or column is None:
            return None
        child = self.child.item(node, column)
        return child if child >= 0 else None

    def interval(self, node: int) -> tuple[int, int]:
        """Smallest and largest word ID anticipated at *node*."""
        return self.lo.item(node), self.hi.item(node)

    def word_end(self, node: int) -> int | None:
        """Word ID when the path to *node* spells a complete word, else None."""
        word_id = self.word_id.item(node)
        return word_id if word_id >= 0 else None
