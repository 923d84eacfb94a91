"""End-to-end command-line checks: exit codes and byte-level determinism."""

import pickle

import numpy as np
import pytest

from beamfuse import BLANK, SPACE, DecodeConfig, load_model, load_vocabulary, synth_posteriors
from beamfuse import bench as bench_module
from beamfuse.bench import BenchSystem
from beamfuse.cli import main


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Synthetic corpus, vocab, posteriors and trained models."""
    root = tmp_path_factory.mktemp("cli")
    data = root / "data"
    code = main(
        [
            "synth",
            "--out-dir", str(data),
            "--vocab-size", "25",
            "--sentences", "80",
            "--utterances", "4",
            "--peak", "0.9",
            "--seed", "3",
        ]
    )
    assert code == 0
    for name, extra in (("word.lm", ["--vocab", str(data / "vocab.txt")]), ("char.lm", [])):
        level = name.split(".")[0]
        code = main(
            [
                "train-lm",
                "--corpus", str(data / "corpus.txt"),
                "--order", "2",
                "--level", level,
                "--out", str(root / name),
                *extra,
            ]
        )
        assert code == 0
    return root


def test_synth_writes_expected_files(workspace):
    data = workspace / "data"
    assert (data / "vocab.txt").is_file()
    assert (data / "corpus.txt").is_file()
    assert (data / "manifest.tsv").is_file()
    assert (data / "utt_0000.tsv").is_file()
    manifest = (data / "manifest.tsv").read_text(encoding="utf-8").splitlines()
    assert len(manifest) == 4
    path, reference = manifest[0].split("\t")
    assert path == "utt_0000.tsv"
    assert reference


def test_trained_models_load(workspace):
    word = load_model(workspace / "word.lm")
    vocab = load_vocabulary(workspace / "data" / "vocab.txt")
    assert word.level == "word"
    assert word.tokens == vocab.lm_tokens
    char = load_model(workspace / "char.lm")
    assert char.level == "char"


@pytest.mark.parametrize("order", ["0", "6"])
def test_train_rejects_bad_order(workspace, order):
    data = workspace / "data"
    with pytest.raises(SystemExit) as info:
        main(
            [
                "train-lm",
                "--corpus", str(data / "corpus.txt"),
                "--vocab", str(data / "vocab.txt"),
                "--order", order,
                "--level", "word",
                "--out", str(workspace / "x.lm"),
            ]
        )
    assert info.value.code == 1


def test_train_word_level_requires_vocab(workspace, capsys):
    code = main(
        [
            "train-lm",
            "--corpus", str(workspace / "data" / "corpus.txt"),
            "--order", "2",
            "--level", "word",
            "--out", str(workspace / "x.lm"),
        ]
    )
    assert code == 1
    assert "--vocab is required" in capsys.readouterr().err


def test_decode_missing_strategy_flag_names_it(workspace, capsys):
    data = workspace / "data"
    code = main(
        [
            "decode",
            "--posteriors", str(data / "utt_0000.tsv"),
            "--lm-strategy", "multilevel",
            "--word-lm", str(workspace / "word.lm"),
            "--vocab", str(data / "vocab.txt"),
            "--out", str(workspace / "nbest.txt"),
        ]
    )
    assert code == 1
    assert "--char-lm is required for strategy 'multilevel'" in capsys.readouterr().err

    code = main(
        [
            "decode",
            "--posteriors", str(data / "utt_0000.tsv"),
            "--lm-strategy", "lookahead",
            "--word-lm", str(workspace / "word.lm"),
            "--out", str(workspace / "nbest.txt"),
        ]
    )
    assert code == 1
    assert "--vocab is required" in capsys.readouterr().err


# The inputs each strategy requires, pinned here independently of the CLI.
REQUIRED_FLAGS = {
    "none": (),
    "char": ("--char-lm",),
    "multilevel": ("--char-lm", "--word-lm", "--vocab"),
    "lookahead": ("--word-lm", "--vocab"),
}


def _decode_args(workspace, strategy, flags):
    paths = {
        "--char-lm": workspace / "char.lm",
        "--word-lm": workspace / "word.lm",
        "--vocab": workspace / "data" / "vocab.txt",
    }
    return [
        "decode",
        "--posteriors", str(workspace / "data" / "utt_0000.tsv"),
        "--lm-strategy", strategy,
        *(arg for flag in flags for arg in (flag, str(paths[flag]))),
        "--beam-width", "4",
        "--out", str(workspace / f"{strategy}.txt"),
    ]


@pytest.mark.parametrize("strategy", list(REQUIRED_FLAGS))
def test_decode_runs_every_strategy(workspace, strategy):
    assert main(_decode_args(workspace, strategy, REQUIRED_FLAGS[strategy])) == 0
    assert (workspace / f"{strategy}.txt").read_text(encoding="utf-8").strip()


@pytest.mark.parametrize(
    "strategy, missing",
    [(strategy, flag) for strategy, flags in REQUIRED_FLAGS.items() for flag in flags],
)
def test_decode_names_each_missing_flag(workspace, capsys, strategy, missing):
    flags = [flag for flag in REQUIRED_FLAGS[strategy] if flag != missing]
    assert main(_decode_args(workspace, strategy, flags)) == 1
    assert f"{missing} is required for strategy {strategy!r}" in capsys.readouterr().err


def test_decode_is_byte_identical_across_runs(workspace):
    data = workspace / "data"
    outputs = []
    for name in ("first.txt", "second.txt"):
        code = main(
            [
                "decode",
                "--posteriors", str(data / "utt_0000.tsv"), str(data / "utt_0001.tsv"),
                "--lm-strategy", "lookahead",
                "--word-lm", str(workspace / "word.lm"),
                "--vocab", str(data / "vocab.txt"),
                "--beam-width", "6",
                "--n-best", "3",
                "--out", str(workspace / name),
            ]
        )
        assert code == 0
        outputs.append((workspace / name).read_bytes())
    assert outputs[0] == outputs[1]
    text = outputs[0].decode("utf-8")
    assert len(text.strip().split("\n\n")) == 2


def test_decode_missing_posterior_file_is_data_error(workspace, capsys):
    code = main(
        [
            "decode",
            "--posteriors", str(workspace / "missing.tsv"),
            "--out", str(workspace / "nbest.txt"),
        ]
    )
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_decode_malformed_posteriors_is_data_error(workspace, capsys):
    bad = workspace / "bad.tsv"
    bad.write_text("a\t<blank>\n0.9\t0.9\n", encoding="utf-8")
    code = main(["decode", "--posteriors", str(bad), "--out", str(workspace / "n.txt")])
    assert code == 2
    assert "row sums to" in capsys.readouterr().err


def test_decode_nan_posteriors_is_data_error(workspace, capsys):
    bad = workspace / "nan.tsv"
    bad.write_text("a\t<blank>\n0.5\t0.5\nnan\tnan\n0.5\t0.5\n", encoding="utf-8")
    code = main(["decode", "--posteriors", str(bad), "--out", str(workspace / "n.txt")])
    assert code == 2
    assert "nan.tsv:3: non-finite probability" in capsys.readouterr().err


@pytest.mark.parametrize("label", ["<eos>", ""])
def test_decode_reserved_header_label_is_data_error(workspace, capsys, label):
    bad = workspace / "reserved.tsv"
    bad.write_text(f"a\t{label}\t<blank>\n0.5\t0.3\t0.2\n0.2\t0.6\t0.2\n", encoding="utf-8")
    code = main(["decode", "--posteriors", str(bad), "--out", str(workspace / "n.txt")])
    assert code == 2
    err = capsys.readouterr().err
    assert f"reserved.tsv:1: {label!r} cannot label a posterior column" in err
    assert "Traceback" not in err


def test_decode_malformed_model_is_data_error(workspace, capsys):
    bad = workspace / "keyless.lm"
    with open(bad, "wb") as fh:
        pickle.dump({"format": "beamfuse-ngram", "version": 2}, fh)
    code = main(
        [
            "decode",
            "--posteriors", str(workspace / "data" / "utt_0000.tsv"),
            "--lm-strategy", "char",
            "--char-lm", str(bad),
            "--out", str(workspace / "n.txt"),
        ]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert "keyless.lm: malformed language-model file" in err
    assert "Traceback" not in err


class _OpensAFile:
    """Unpickling this calls ``open(marker, "w")``, which creates the file."""

    def __init__(self, marker):
        self.marker = str(marker)

    def __reduce__(self):
        return open, (self.marker, "w")


def test_model_file_cannot_run_code(workspace, capsys):
    marker = workspace / "PWNED"
    bad = workspace / "evil.lm"
    bad.write_bytes(pickle.dumps(_OpensAFile(marker)))
    code = main(
        [
            "decode",
            "--posteriors", str(workspace / "data" / "utt_0000.tsv"),
            "--lm-strategy", "char",
            "--char-lm", str(bad),
            "--out", str(workspace / "n.txt"),
        ]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert "evil.lm: not a language-model file" in err
    assert "Traceback" not in err
    assert not marker.exists()


def _char_lm_with(workspace, name, change):
    """The workspace's character model with ``change(array)`` applied to one
    array of its bigram table."""
    payload = pickle.loads((workspace / "char.lm").read_bytes())
    table = payload["tables"][1]
    values = np.frombuffer(table[name], "<i4" if name == "tokens" else "<i8").copy()
    change(values, payload, np.frombuffer(table["offsets"], "<i8"))
    table[name] = values.tobytes()
    return payload


def test_decode_out_of_inventory_counts_is_data_error(workspace, capsys):
    def stray(tokens, payload, _):
        tokens[-1] = len(payload["tokens"])  # the last row's last token: still rising

    payload = _char_lm_with(workspace, "tokens", stray)
    bad = workspace / "stray.lm"
    bad.write_bytes(pickle.dumps(payload))
    code = main(
        [
            "decode",
            "--posteriors", str(workspace / "data" / "utt_0000.tsv"),
            "--lm-strategy", "char",
            "--char-lm", str(bad),
            "--out", str(workspace / "n.txt"),
        ]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert "stray.lm: malformed language-model file" in err
    assert "Traceback" not in err


def test_decode_count_beyond_int64_is_data_error(workspace, capsys):
    def huge(counts, _, offsets):
        start = next(a for a, b in zip(offsets, offsets[1:]) if b - a >= 2)
        counts[start:start + 2] = 2**62  # each fits an int64, their sum does not

    payload = _char_lm_with(workspace, "counts", huge)
    bad = workspace / "huge.lm"
    bad.write_bytes(pickle.dumps(payload))
    code = main(
        [
            "decode",
            "--posteriors", str(workspace / "data" / "utt_0000.tsv"),
            "--lm-strategy", "char",
            "--char-lm", str(bad),
            "--out", str(workspace / "n.txt"),
        ]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert "huge.lm: malformed language-model file" in err
    assert "Traceback" not in err


def test_decode_version_1_model_is_refused(workspace, capsys):
    payload = {"format": "beamfuse-ngram", "version": 1, "order": 2, "level": "char"}
    old = workspace / "old.lm"
    old.write_bytes(pickle.dumps({**payload, "tokens": ["a", "<eos>"], "counts": [{}, {}]}))
    code = main(
        [
            "decode",
            "--posteriors", str(workspace / "data" / "utt_0000.tsv"),
            "--lm-strategy", "char",
            "--char-lm", str(old),
            "--out", str(workspace / "n.txt"),
        ]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert f"{old}: unsupported model version 1; retrain it with beamfuse train-lm" in err
    assert "Traceback" not in err


def test_bench_requires_three_repetitions(workspace, capsys):
    data = workspace / "data"
    code = main(
        [
            "bench",
            "--manifest", str(data / "manifest.tsv"),
            "--corpus", str(data / "corpus.txt"),
            "--repetitions", "2",
            "--out", str(workspace / "report.tsv"),
        ]
    )
    assert code == 1
    assert "--repetitions" in capsys.readouterr().err


def test_bench_rejects_an_empty_reference_before_decoding(workspace, capsys):
    data = workspace / "data"
    manifest = workspace / "empty-reference.tsv"
    first = (data / "manifest.tsv").read_text(encoding="utf-8").splitlines()[0]
    # Outside data/, the first line names a posterior file that does not
    # exist, so the message shows the manifest was refused before any read.
    manifest.write_text(f"{first}\nutt_0009.tsv\t \n", encoding="utf-8")
    code = main(
        [
            "bench",
            "--manifest", str(manifest),
            "--corpus", str(data / "corpus.txt"),
            "--out", str(workspace / "report.tsv"),
        ]
    )
    assert code == 2
    assert f"{manifest}:2: empty reference" in capsys.readouterr().err


def test_bench_report_shape(workspace):
    data = workspace / "data"
    code = main(
        [
            "bench",
            "--manifest", str(data / "manifest.tsv"),
            "--corpus", str(data / "corpus.txt"),
            "--strategies", "none,lookahead",
            "--vocab-sizes", "25",
            "--beam-width", "4",
            "--out", str(workspace / "report.tsv"),
        ]
    )
    assert code == 0
    lines = (workspace / "report.tsv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == "strategy\tvocab_size\tseconds\tratio\tcer\twer"
    assert len(lines) == 3
    baseline = lines[1].split("\t")
    assert baseline[0] == "none"
    assert float(baseline[3]) == 1.0
    lookahead = lines[2].split("\t")
    assert lookahead[0] == "lookahead"
    assert float(lookahead[2]) > 0.0


def test_bench_reports_every_strategy_in_order(workspace):
    data = workspace / "data"
    strategies = ["none", "char", "multilevel", "lookahead"]
    code = main(
        [
            "bench",
            "--manifest", str(data / "manifest.tsv"),
            "--corpus", str(data / "corpus.txt"),
            "--strategies", ",".join(strategies),
            "--vocab-sizes", "25",
            "--beam-width", "4",
            "--out", str(workspace / "report.tsv"),
        ]
    )
    assert code == 0
    lines = (workspace / "report.tsv").read_text(encoding="utf-8").splitlines()
    assert [line.split("\t")[0] for line in lines[1:]] == strategies


def test_bench_times_every_system_within_each_repetition(monkeypatch):
    """Each repetition takes the systems in turn on each utterance, so drift
    of the host's speed is shared by every system instead of landing on one."""
    real_decode = bench_module.decode
    order = []

    def recording(matrix, lm, config):
        order.append(lm)
        return real_decode(matrix, None, config=config)

    monkeypatch.setattr(bench_module, "decode", recording)
    labels = ("a", "b", SPACE, BLANK)
    transcripts = [["a"], ["b", "a"]]
    utterances = [(synth_posteriors(ref, labels, seed=s), ref) for s, ref in enumerate(transcripts)]
    systems = [BenchSystem(name, None, lm) for name, lm in (("none", None), ("x", "x"), ("y", "y"))]
    rows = bench_module.run_benchmark(utterances, systems, DecodeConfig(beam_width=2), 3)
    assert order == [None, "x", "y"] * 2 * 3
    assert [row.strategy for row in rows] == ["none", "x", "y"]
    assert [row.cer for row in rows] == [rows[0].cer] * 3


def test_bench_vocabulary_smaller_than_the_posterior_alphabet(tmp_path):
    """Cut to 5 words, the vocabulary spells only some of the letters that
    the corpus and the posteriors use; every strategy must still run."""
    data = tmp_path / "data"
    synth = ["synth", "--out-dir", str(data), "--vocab-size", "20", "--sentences", "50"]
    assert main([*synth, "--utterances", "3", "--seed", "0"]) == 0
    code = main(
        [
            "bench",
            "--manifest", str(data / "manifest.tsv"),
            "--corpus", str(data / "corpus.txt"),
            "--vocab-sizes", "5",
            "--repetitions", "3",
            "--out", str(tmp_path / "report.tsv"),
        ]
    )
    assert code == 0
    lines = (tmp_path / "report.tsv").read_text(encoding="utf-8").splitlines()
    strategies = [line.split("\t")[0] for line in lines[1:]]
    assert strategies == ["none", "char", "multilevel", "lookahead"]


def test_unknown_strategy_is_usage_error(workspace, capsys):
    code = main(
        [
            "bench",
            "--manifest", str(workspace / "data" / "manifest.tsv"),
            "--corpus", str(workspace / "data" / "corpus.txt"),
            "--strategies", "none,turbo",
            "--out", str(workspace / "report.tsv"),
        ]
    )
    assert code == 1
    assert "unknown strategy 'turbo'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, flag, value",
    [
        ("bench", "--char-order", "9"),
        ("bench", "--word-order", "0"),
        ("bench", "--vocab-sizes", "0"),
        ("bench", "--vocab-sizes", "ten"),
        ("bench", "--beam-width", "0"),
        ("decode", "--beam-width", "0"),
        ("decode", "--n-best", "0"),
        ("decode", "--ctc-weight", "1.5"),
        ("decode", "--lm-weight", "nan"),
        ("decode", "--lm-weight", "inf"),
        ("bench", "--lm-weight", "nan"),
        ("bench", "--lm-weight", "inf"),
        ("decode", "--oov-beta", "inf"),
        ("decode", "--oov-eta", "nan"),
        ("decode", "--oov-eta", "0"),
    ],
)
def test_out_of_range_flag_values_exit_one(workspace, capsys, command, flag, value):
    data = workspace / "data"
    inputs = {
        "bench": ["--manifest", str(data / "manifest.tsv"), "--corpus", str(data / "corpus.txt")],
        "decode": ["--posteriors", str(data / "utt_0000.tsv")],
    }
    args = [command, *inputs[command], flag, value, "--out", str(workspace / "flag.txt")]
    try:
        code = main(args)
    except SystemExit as exc:  # argparse rejects values outside its choices
        code = exc.code
    assert code == 1
    err = capsys.readouterr().err
    assert "error: " in err
    assert "Traceback" not in err
    assert not (workspace / "flag.txt").exists()


@pytest.mark.parametrize(
    "strategy, flag, value",
    [
        ("multilevel", "--oov-beta", "inf"),
        ("multilevel", "--oov-beta", "nan"),
        ("lookahead", "--oov-eta", "nan"),
        ("lookahead", "--oov-eta", "0"),
    ],
)
def test_bad_oov_scale_exits_one_before_any_model_loads(workspace, capsys, strategy, flag, value):
    """The models named do not exist, so reading one would exit 2."""
    data = workspace / "data"
    code = main(
        [
            "decode",
            "--posteriors", str(data / "utt_0000.tsv"),
            "--lm-strategy", strategy,
            "--char-lm", str(workspace / "missing-char.lm"),
            "--word-lm", str(workspace / "missing-word.lm"),
            "--vocab", str(data / "vocab.txt"),
            flag, value,
            "--out", str(workspace / "oov.txt"),
        ]
    )
    assert code == 1
    assert f"error: {flag} must be finite and > 0" in capsys.readouterr().err
    assert not (workspace / "oov.txt").exists()


@pytest.mark.parametrize(
    "flags",
    [
        ["--vocab-size", "0"],
        ["--frames-per-label", "0"],
        ["--peak", "2"],
        ["--min-words", "0"],
        ["--min-words", "3", "--max-words", "1"],
        ["--seed", "-1"],
        ["--alphabet", ""],
    ],
    ids=["vocab-size", "frames-per-label", "peak", "min-words", "min-above-max", "seed", "alphabet"],
)
def test_out_of_range_synth_flag_values_exit_one(workspace, capsys, flags):
    out_dir = workspace / "synth-flag"
    assert main(["synth", "--out-dir", str(out_dir), "--utterances", "2", *flags]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "Traceback" not in err
    assert not out_dir.exists()


def test_argparse_usage_errors_exit_one():
    with pytest.raises(SystemExit) as info:
        main(["decode", "--lm-strategy", "bogus", "--out", "x"])
    assert info.value.code == 1
    with pytest.raises(SystemExit) as info:
        main([])
    assert info.value.code == 1


@pytest.mark.parametrize(
    "command",
    [
        ["train-lm", "--corpus", "{ws}/missing.txt", "--out", "{ws}/x.lm"],
        ["train-lm", "--corpus", "{ws}/data/corpus.txt", "--out", "{ws}/blocker/x.lm"],
        ["synth", "--out-dir", "{ws}/blocker/data", "--utterances", "1"],
    ],
    ids=["train-lm-missing-corpus", "train-lm-unwritable-out", "synth-unwritable-out-dir"],
)
def test_data_errors_exit_two(workspace, capsys, command):
    (workspace / "blocker").write_text("a file, so no directory can be made below it\n")
    args = [arg.format(ws=workspace) for arg in command]
    if args[0] == "train-lm":
        args += ["--order", "2", "--level", "char"]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "level, word, message",
    [
        ("word", "a b", "invalid vocabulary word: 'a b'"),
        ("word", "<eos>", "reserved token '<eos>' cannot be a vocabulary word"),
        ("char", "<UNK>", "reserved token '<UNK>' cannot be a vocabulary word"),
    ],
    ids=["whitespace", "eos-word-level", "unk-char-level"],
)
def test_bad_vocabulary_line_is_a_numbered_data_error(workspace, capsys, level, word, message):
    vocab = workspace / f"bad_vocab_{level}.txt"
    vocab.write_text(f"cat\n\n{word}\ndog\n", encoding="utf-8")
    out = workspace / f"bad_vocab_{level}.lm"
    code = main(
        [
            "train-lm",
            "--corpus", str(workspace / "data" / "corpus.txt"),
            "--vocab", str(vocab),
            "--order", "2",
            "--level", level,
            "--out", str(out),
        ]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert f"{vocab}:3: {message}" in err
    assert "Traceback" not in err
    assert not out.exists()
