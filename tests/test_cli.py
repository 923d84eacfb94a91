"""End-to-end command-line checks: exit codes and byte-level determinism."""

import pickle

import pytest

from beamfuse import load_model, load_vocabulary
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
        pickle.dump({"format": "beamfuse-ngram", "version": 1}, fh)
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


def test_decode_out_of_inventory_counts_is_data_error(workspace, capsys):
    payload = pickle.loads((workspace / "char.lm").read_bytes())
    payload["counts"][1][(0,)][999] = 1  # a token the inventory lacks
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
