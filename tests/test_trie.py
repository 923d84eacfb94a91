"""Prefix tree structure: anticipated-word intervals and word ends."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beamfuse import Vocabulary
from tree_walk import children, dump_lines, walk


def test_intervals_tiny_vocab(tiny_vocab):
    tree = tiny_vocab.tree
    assert tree.interval(tree.ROOT) == (0, 2)
    assert tree.word_end(tree.ROOT) is None

    node_c = tree.descend(tree.ROOT, "c")
    assert tree.interval(node_c) == (1, 1)
    assert tree.word_end(node_c) is None

    node_cat = walk(tree, "cat")
    assert tree.interval(node_cat) == (1, 1)
    assert tree.word_end(node_cat) == 1

    node_a = tree.descend(tree.ROOT, "a")
    assert tree.interval(node_a) == (0, 0)
    assert tree.word_end(node_a) == 0

    node_e = tree.descend(tree.ROOT, "e")
    assert tree.interval(node_e) == (2, 2)
    assert tree.word_end(walk(tree, "eats")) == 2


def test_shared_prefix_spans_both_words():
    vocab = Vocabulary.from_words(["ab", "ac"])
    tree = vocab.tree
    node_a = tree.descend(tree.ROOT, "a")
    assert tree.interval(node_a) == (0, 1)
    assert tree.word_end(node_a) is None
    assert tree.interval(tree.descend(node_a, "b")) == (0, 0)
    assert tree.interval(tree.descend(node_a, "c")) == (1, 1)


def test_prefix_of_another_word_is_a_word_end():
    vocab = Vocabulary.from_words(["an", "ant"])
    tree = vocab.tree
    node_an = walk(tree, "an")
    assert tree.word_end(node_an) == 0
    assert tree.interval(node_an) == (0, 1)


def test_descend_reaches_a_node_exactly_on_a_word_prefix():
    """A spelling walks to a node exactly when some word starts with it: the
    empty spelling, past the last word, NUL (the padding of the build) and a
    non-ASCII letter included."""
    vocab = Vocabulary.from_words(["ab", "abd", "b\x00c", "caf\u00e9"], letters="abcdefz")
    spellings = ["", "a", "ab", "abd", "abc", "ac", "d", "z", "abdz"]
    for spelling in spellings + ["b\x00", "b\x00c", "b\x00d", "bc", "caf\u00e9", "cafe"]:
        starts = any(word.startswith(spelling) for word in vocab.words)
        assert (walk(vocab.tree, spelling) is not None) == starts, spelling
    assert walk(vocab.tree, "") == vocab.tree.ROOT


def test_descend_absorbs_none_and_misses():
    vocab = Vocabulary.from_words(["ab"])
    tree = vocab.tree
    assert tree.descend(tree.ROOT, "z") is None
    assert tree.descend(None, "a") is None


def test_intervals_match_startswith_enumeration():
    """Node intervals are exactly the IDs of words extending the path."""
    rng = np.random.default_rng(11)
    # NUL matches the padding of shorter spellings in the tree's build;
    # indices, not rng.choice, because numpy strings drop trailing NULs.
    for alphabet in (list("abcd"), ["a", "\x00", "é"]) * 15:
        n = int(rng.integers(1, 25))
        words = {
            "".join(alphabet[i] for i in rng.integers(0, len(alphabet), size=rng.integers(1, 6)))
            for _ in range(n)
        }
        vocab = Vocabulary.from_words(words)
        tree = vocab.tree

        stack = [(tree.ROOT, "")]
        spelled = set()
        while stack:
            node, path = stack.pop()
            ids = [i for i, w in enumerate(vocab.words) if w.startswith(path)]
            assert tree.interval(node) == (min(ids), max(ids))
            expected_end = vocab.word_ids.get(path)
            assert tree.word_end(node) == expected_end
            spelled.add(path)
            for label, child in children(tree, node).items():
                stack.append((child, path + label))
        assert spelled == {w[:end] for w in vocab.words for end in range(len(w) + 1)}


def test_len_counts_nodes():
    vocab = Vocabulary.from_words(["ab", "ac"])
    # root, a, ab, ac
    assert len(vocab.tree) == 4


def test_dump_lines_format(tiny_vocab):
    tree = tiny_vocab.tree
    lines = dump_lines(tree)
    assert lines[0] == "\t0\t2\t-"
    assert "a\t0\t0\t0" in lines
    assert "cat\t1\t1\t1" in lines
    assert "ca\t1\t1\t-" in lines



@st.composite
def _words_with_prefixes(draw):
    """Random words over letters that include NUL (the build's padding) and
    a non-ASCII one, each possibly joined by one of its own prefixes; a
    prefix of length one is a one-letter word."""
    words = draw(st.lists(st.text("ab\x00\u00e9", min_size=1, max_size=6), min_size=1, max_size=20))
    cuts = draw(st.lists(st.integers(0, 6), min_size=len(words), max_size=len(words)))
    return words + [word[:cut] for word, cut in zip(words, cuts) if cut]


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(_words_with_prefixes())
def test_edge_slices_tile_every_node(words):
    """Each node's edge slice is [lo(k1), ..., lo(km), hi(n) + 1] over its
    children in label order, with their label columns and -1 at the close:
    consecutive children touch, the last ends at the node's hi, and the
    first starts right after the node's own word, if it spells one."""
    tree = Vocabulary.from_words(words).tree
    offsets = list(tree.edge_offsets)
    assert offsets[0] == 0 and offsets[-1] == len(tree.edges) == len(tree.edge_columns)
    assert len(offsets) == len(tree) + 1
    for node in range(len(tree)):
        kids = children(tree, node)
        bounds = [tree.interval(kid) for kid in kids.values()]
        lo, hi = tree.interval(node)
        start, stop = offsets[node], offsets[node + 1]
        assert tree.edges[start:stop].tolist() == [kid_lo for kid_lo, _ in bounds] + [hi + 1]
        assert list(tree.edge_columns[start:stop]) == [tree.columns[k] for k in kids] + [-1]
        for (_, left_hi), (right_lo, _) in zip(bounds, bounds[1:]):
            assert left_hi + 1 == right_lo
        if bounds:
            assert bounds[0][0] == lo + (tree.word_end(node) is not None)
            assert bounds[-1][1] == hi
