"""Walking a ``PrefixTree`` node by node, which only the tests need."""


def walk(tree, spelling) -> int | None:
    """The node *spelling* descends to from the root, or None off the tree."""
    node = tree.ROOT
    for letter in spelling:
        node = tree.descend(node, letter)
    return node


def children(tree, node: int) -> dict[str, int]:
    """Label-to-child map of *node*, in label order."""
    return {k: c for k, c in zip(tree.labels, tree.child[node].tolist()) if c >= 0}


def dump_lines(tree) -> list[str]:
    """One line per node: path, interval bounds, and word end or ``-``."""
    lines = []
    stack = [(tree.ROOT, "")]
    while stack:
        node, path = stack.pop()
        word = tree.word_id[node]
        lines.append(f"{path}\t{tree.lo[node]}\t{tree.hi[node]}\t{'-' if word < 0 else word}")
        for label, child in reversed(children(tree, node).items()):
            stack.append((child, path + label))
    return lines
