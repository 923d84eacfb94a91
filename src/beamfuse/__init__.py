"""Label-synchronous CTC beam search with word-level LM fusion.

The decoder walks character hypotheses in lockstep with a CTC prefix
scorer and combines three score streams per step: the CTC prefix score,
an optional label-synchronous attention-style score, and a language
model score.  Word-level knowledge enters through one of two fusion
strategies: multi-level rescoring, which charges a character LM inside
words and swaps in the word LM probability at word boundaries, or
look-ahead fusion, which distributes word probability mass over a
prefix tree of spellings so every character carries its share.
"""

from .ctc import (
    CtcPrefixScorer,
    PosteriorMatrix,
    ctc_brute_force,
    ctc_brute_force_full,
    ctc_final,
    greedy_decode,
)
from .decoder import (
    DecodeConfig,
    DecodeResult,
    Hypothesis,
    combine_scores,
    decode,
    exhaustive_decode,
)
from .fusion import (
    CharLMScorer,
    EmptyWordError,
    LookAheadScorer,
    MultiLevelScorer,
    lookahead_prob,
)
from .io_formats import (
    MarkovText,
    PosteriorFormatError,
    ctc_labels,
    load_posteriors,
    save_posteriors,
    synth_posteriors,
    synth_vocabulary,
    write_nbest,
)
from .metrics import char_error_rate, edit_distance, word_error_rate
from .ngram import NGramModel, cumulative_sums, load_model, save_model, train_ngram
from .trie import PrefixTree
from .vocab import (
    BLANK,
    EOS,
    SPACE,
    UNK,
    Vocabulary,
    build_vocab,
    from_char_labels,
    load_corpus,
    load_vocabulary,
    save_vocabulary,
    to_char_labels,
    tokenize_line,
)

__version__ = "0.1.0"

__all__ = [
    "BLANK",
    "CharLMScorer",
    "CtcPrefixScorer",
    "DecodeConfig",
    "DecodeResult",
    "EOS",
    "EmptyWordError",
    "Hypothesis",
    "LookAheadScorer",
    "MarkovText",
    "MultiLevelScorer",
    "NGramModel",
    "PosteriorFormatError",
    "PosteriorMatrix",
    "PrefixTree",
    "SPACE",
    "UNK",
    "Vocabulary",
    "build_vocab",
    "char_error_rate",
    "combine_scores",
    "ctc_brute_force",
    "ctc_brute_force_full",
    "ctc_final",
    "ctc_labels",
    "cumulative_sums",
    "decode",
    "edit_distance",
    "exhaustive_decode",
    "from_char_labels",
    "greedy_decode",
    "load_corpus",
    "load_model",
    "load_posteriors",
    "load_vocabulary",
    "lookahead_prob",
    "save_model",
    "save_posteriors",
    "save_vocabulary",
    "synth_posteriors",
    "synth_vocabulary",
    "to_char_labels",
    "tokenize_line",
    "train_ngram",
    "word_error_rate",
    "write_nbest",
]
