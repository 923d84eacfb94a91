"""Command-line front end: train LMs, decode posterior files, benchmark.

Exit codes: 0 on success, 1 on usage errors, 2 on malformed or inconsistent
data.  Decoding is deterministic: repeated invocations on the same inputs
write byte-identical outputs.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import bench as bench_mod
from .decoder import DecodeConfig, decode
from .fusion import CharLMScorer, LookAheadScorer, MultiLevelScorer, check_oov_scale
from .io_formats import (
    ctc_labels,
    load_posteriors,
    save_posteriors,
    synth_posteriors,
    synth_vocabulary,
    write_nbest,
    MarkovText,
)
from .ngram import MAX_ORDER, load_model, save_model, train_ngram
from .vocab import (
    SPACE,
    Vocabulary,
    build_vocab,
    load_corpus,
    load_vocabulary,
    save_vocabulary,
)

USAGE_ERROR = 1
DATA_ERROR = 2

# Strategy -> (LM scorer class, or None for no LM; the inputs it takes, in
# argument order, each named after the decode flag that supplies it).
STRATEGIES = {
    "none": (None, ()),
    "char": (CharLMScorer, ("char_lm",)),
    "multilevel": (MultiLevelScorer, ("char_lm", "word_lm", "vocab", "oov_beta")),
    "lookahead": (LookAheadScorer, ("word_lm", "vocab", "oov_eta")),
}


def _build_lm(strategy: str, inputs: dict):
    scorer, names = STRATEGIES[strategy]
    return None if scorer is None else scorer(*(inputs[name] for name in names))


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on bad flags; usage errors here are exit 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_ERROR)


def _usage_error(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return USAGE_ERROR


def cmd_train_lm(args) -> int:
    if args.level == "word" and args.vocab is None:
        return _usage_error("--vocab is required for level 'word'")
    sentences = load_corpus(args.corpus)
    vocab = load_vocabulary(args.vocab) if args.vocab else None
    model = train_ngram(sentences, args.order, args.level, vocab)
    save_model(model, args.out)
    tokens = sum(len(sentence) for sentence in sentences)
    print(
        f"trained {args.level} {args.order}-gram on {len(sentences)} sentences"
        f" ({tokens} tokens), inventory {len(model.tokens)} -> {args.out}"
    )
    return 0


def cmd_decode(args) -> int:
    for name in STRATEGIES[args.lm_strategy][1]:
        if getattr(args, name) is None:
            flag = "--" + name.replace("_", "-")
            return _usage_error(f"{flag} is required for strategy {args.lm_strategy!r}")
    try:
        config = _decode_config(args, max_len=args.max_len, n_best=args.n_best)
        for name in ("oov_beta", "oov_eta"):
            check_oov_scale(getattr(args, name), "--" + name.replace("_", "-"))
    except ValueError as exc:
        return _usage_error(str(exc))
    vocab = load_vocabulary(args.vocab) if args.vocab else None
    inputs = {**vars(args), "vocab": vocab}
    for name in ("char_lm", "word_lm"):
        if inputs[name]:
            inputs[name] = load_model(inputs[name])
    lm = _build_lm(args.lm_strategy, inputs)
    att = CharLMScorer(load_model(args.att_lm)) if args.att_lm else None
    expected = ctc_labels(vocab) if vocab is not None else None
    results = []
    for path in args.posteriors:
        matrix = load_posteriors(path, expected_labels=expected)
        results.append(decode(matrix, lm, att, config))
    write_nbest(results, args.out)
    print(f"decoded {len(results)} utterance(s) -> {args.out}")
    return 0


def _load_manifest(path: Path) -> list[tuple[Path, list[str]]]:
    entries = []
    for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
        if not line.strip():
            continue
        fields = line.split("\t")
        if len(fields) != 2:
            raise ValueError(f"{path}:{number}: expected 'posterior_path<TAB>reference'")
        reference = fields[1].split()
        if not reference:
            raise ValueError(f"{path}:{number}: empty reference")
        entries.append((path.parent / fields[0], reference))
    if not entries:
        raise ValueError(f"{path}: empty manifest")
    return entries


def cmd_bench(args) -> int:
    if args.repetitions < 3:
        return _usage_error("--repetitions must be >= 3")
    strategies = args.strategies.split(",")
    for strategy in strategies:
        if strategy not in STRATEGIES:
            return _usage_error(f"unknown strategy {strategy!r}")
    try:
        config = _decode_config(args)
        sizes = [int(size) for size in args.vocab_sizes.split(",")]
    except ValueError as exc:
        return _usage_error(str(exc))
    if min(sizes) < 1:
        return _usage_error("--vocab-sizes must be >= 1")
    entries = _load_manifest(Path(args.manifest))
    utterances = [(load_posteriors(path), ref) for path, ref in entries]
    sentences = load_corpus(args.corpus)
    # Whatever the word vocabulary is cut down to, its letters must cover
    # the corpus (the character LM spells all of it) and the posteriors.
    letters = {ch for sentence in sentences for word in sentence for ch in word}
    letters.update(label for matrix, _ in utterances for label in matrix.char_labels)
    letters.discard(SPACE)
    systems = [bench_mod.BenchSystem(bench_mod.BASELINE, None, None)]
    for size in sizes:
        vocab = Vocabulary.from_words(build_vocab(sentences, size).words, letters)
        inputs = {
            "word_lm": train_ngram(sentences, args.word_order, "word", vocab),
            "char_lm": train_ngram(sentences, args.char_order, "char", vocab),
            "vocab": vocab,
            "oov_beta": 1.0,  # bench has no OOV flags: no OOV scaling
            "oov_eta": 1.0,
        }
        for strategy in strategies:
            if strategy != bench_mod.BASELINE:
                lm = _build_lm(strategy, inputs)
                systems.append(bench_mod.BenchSystem(strategy, vocab.spelled_count, lm))
    rows = bench_mod.run_benchmark(utterances, systems, config, args.repetitions)
    report = bench_mod.format_report(rows)
    Path(args.out).write_text(report, encoding="utf-8")
    print(report, end="")
    print(f"report -> {args.out}")
    return 0


def cmd_synth(args) -> int:
    if args.utterances < 1 or args.sentences < 1:
        return _usage_error("--utterances and --sentences must be >= 1")
    # synth reads no file, so every ValueError below comes from a flag value.
    # Nothing is written before all of it is generated.
    try:
        words = synth_vocabulary(args.vocab_size, seed=args.seed, alphabet=args.alphabet)
        vocab = Vocabulary.from_words(words)
        chain = MarkovText(words, seed=args.seed + 1)
        corpus = chain.sentences(args.sentences, args.min_words, args.max_words, seed=args.seed + 2)
        transcripts = chain.sentences(
            args.utterances, args.min_words, args.max_words, seed=args.seed + 3
        )
        labels = ctc_labels(vocab)
        matrices = [
            synth_posteriors(utt, labels, args.frames_per_label, args.peak, seed=args.seed + 10 + i)
            for i, utt in enumerate(transcripts)
        ]
    except ValueError as exc:
        return _usage_error(str(exc))
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    save_vocabulary(vocab, out_dir / "vocab.txt")
    (out_dir / "corpus.txt").write_text(
        "\n".join(" ".join(sentence) for sentence in corpus) + "\n", encoding="utf-8"
    )
    manifest = []
    for i, (transcript, matrix) in enumerate(zip(transcripts, matrices)):
        name = f"utt_{i:04d}.tsv"
        save_posteriors(matrix, out_dir / name)
        manifest.append(f"{name}\t{' '.join(transcript)}")
    (out_dir / "manifest.tsv").write_text("\n".join(manifest) + "\n", encoding="utf-8")
    print(f"wrote vocab, corpus and {args.utterances} utterances -> {out_dir}")
    return 0


def _add_decode_flags(parser, beam_width=30):
    parser.add_argument("--ctc-weight", type=float, default=0.2, help="weight on the CTC score")
    parser.add_argument("--lm-weight", type=float, default=1.0, help="LM score weight, finite >= 0")
    parser.add_argument("--beam-width", type=int, default=beam_width)


def _decode_config(args, **extra) -> DecodeConfig:
    """The search settings of the flags ``_add_decode_flags`` adds, plus *extra*."""
    return DecodeConfig(
        ctc_weight=args.ctc_weight, lm_weight=args.lm_weight, beam_width=args.beam_width, **extra
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="beamfuse", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    orders = range(1, MAX_ORDER + 1)

    train = sub.add_parser("train-lm", help="train a Witten-Bell n-gram model")
    train.add_argument("--corpus", required=True)
    train.add_argument("--vocab", help="vocabulary file; required for word level")
    train.add_argument("--order", type=int, choices=orders, required=True)
    train.add_argument("--level", choices=("word", "char"), required=True)
    train.add_argument("--out", required=True)
    train.set_defaults(func=cmd_train_lm)

    dec = sub.add_parser("decode", help="beam-search decode posterior files")
    dec.add_argument("--posteriors", nargs="+", required=True)
    dec.add_argument("--lm-strategy", choices=STRATEGIES, default="none")
    dec.add_argument("--char-lm", help="character LM (char and multilevel strategies)")
    dec.add_argument("--word-lm", help="word LM (multilevel and lookahead strategies)")
    dec.add_argument("--vocab", help="vocabulary file (word-based strategies)")
    dec.add_argument("--att-lm", help="character model for the attention slot")
    dec.add_argument("--oov-beta", type=float, default=1.0, help="multilevel OOV scale, finite > 0")
    dec.add_argument("--oov-eta", type=float, default=1.0, help="lookahead OOV scale, finite > 0")
    dec.add_argument("--max-len", type=int, default=None)
    dec.add_argument("--n-best", type=int, default=1)
    _add_decode_flags(dec)
    dec.add_argument("--out", required=True)
    dec.set_defaults(func=cmd_decode)

    ben = sub.add_parser("bench", help="time fusion strategies on an evaluation set")
    ben.add_argument("--manifest", required=True, help="lines: posterior_path<TAB>reference")
    ben.add_argument("--corpus", required=True, help="LM training text")
    ben.add_argument("--strategies", default=",".join(STRATEGIES))
    ben.add_argument("--vocab-sizes", default="1000")
    ben.add_argument("--word-order", type=int, choices=orders, default=2)
    ben.add_argument("--char-order", type=int, choices=orders, default=3)
    ben.add_argument("--repetitions", type=int, default=3)
    _add_decode_flags(ben, beam_width=8)
    ben.add_argument("--out", required=True)
    ben.set_defaults(func=cmd_bench)

    syn = sub.add_parser("synth", help="generate a synthetic evaluation set")
    syn.add_argument("--out-dir", required=True)
    syn.add_argument("--vocab-size", type=int, default=100)
    syn.add_argument("--alphabet", default="abcdefghij")
    syn.add_argument("--sentences", type=int, default=400, help="LM training sentences")
    syn.add_argument("--utterances", type=int, default=50)
    syn.add_argument("--min-words", type=int, default=3)
    syn.add_argument("--max-words", type=int, default=6)
    syn.add_argument("--frames-per-label", type=int, default=1)
    syn.add_argument("--peak", type=float, default=0.8)
    syn.add_argument("--seed", type=int, default=0)
    syn.set_defaults(func=cmd_synth)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return DATA_ERROR


if __name__ == "__main__":
    sys.exit(main())
