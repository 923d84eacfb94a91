"""A Hypothesis strategy for posterior matrices at the edges of float range,
shared by the CTC and the decoder properties."""

import numpy as np
from hypothesis import strategies as st

from beamfuse import BLANK, PosteriorMatrix


@st.composite
def hard_matrices(draw, letters):
    """Up to 5 frames over <blank> and the first one to three of *letters*:
    a softmax of logits scaled x1 to x700, with exact zeros, one-hot rows and
    equal columns."""
    frames = draw(st.integers(1, 5))
    labels = tuple(letters[: draw(st.integers(1, 3))]) + (BLANK,)
    width = len(labels)
    unit = st.sampled_from([-1.0, -0.5, 0.0, 0.5, 1.0]) | st.floats(-1.0, 1.0)
    row = st.lists(unit, min_size=width, max_size=width)
    logits = np.array(draw(st.lists(row, min_size=frames, max_size=frames)))
    if draw(st.booleans()):  # equal columns: exact ties
        logits[:, draw(st.integers(0, width - 1))] = logits[:, draw(st.integers(0, width - 1))]
    logits *= draw(st.sampled_from([1.0, 700.0]) | st.floats(1.0, 700.0))
    probs = np.exp(logits - logits.max(axis=1, keepdims=True))
    zeros = np.array(draw(st.lists(st.booleans(), min_size=probs.size, max_size=probs.size)))
    probs[zeros.reshape(probs.shape) & (probs < 1.0)] = 0.0  # each row keeps its largest
    for t in draw(st.sets(st.integers(0, frames - 1))):
        probs[t] = np.eye(width)[draw(st.integers(0, width - 1))]
    return PosteriorMatrix(labels, probs / probs.sum(axis=1, keepdims=True))
