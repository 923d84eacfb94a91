"""Fuzzed exit-code contract of the command line.

Whatever posterior, manifest, vocabulary or model file it is given, a
command exits 0, 1 or 2, never with an uncaught exception (a traceback),
and no n-best it writes holds a NaN score.  Examples are derandomized and
bounded, so the module is deterministic and quick.
"""

import contextlib
import io
import math
import pickle

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from beamfuse import load_vocabulary
from beamfuse.cli import main

FUZZ = settings(
    derandomize=True,
    database=None,
    deadline=None,
    max_examples=40,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A small synthetic set with a character 3-gram and a word 2-gram."""
    root = tmp_path_factory.mktemp("fuzz")
    data = root / "data"
    synth = ["synth", "--out-dir", str(data), "--vocab-size", "12", "--sentences", "40"]
    assert main([*synth, "--utterances", "2", "--peak", "0.9", "--seed", "5"]) == 0
    vocab = ["--vocab", str(data / "vocab.txt")]
    for level, order, extra in (("char", "3", []), ("word", "2", vocab)):
        argv = ["train-lm", "--corpus", str(data / "corpus.txt"), "--order", order]
        assert main([*argv, "--level", level, "--out", str(root / f"{level}.lm"), *extra]) == 0
    return root


def _run(argv) -> int:
    """Exit code of one in-process command; any other exception escapes."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main([str(arg) for arg in argv])
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2)
    return code


def _assert_no_nan(nbest_path):
    for line in nbest_path.read_text(encoding="utf-8").splitlines():
        if line:
            scores = [float(field) for field in line.split("\t")[1:5]]
            assert not any(math.isnan(score) for score in scores), line


def _decode(workspace, strategy, posteriors, vocab=None, char_lm=None, word_lm=None, att_lm=None):
    """Decode *posteriors* with *strategy*; models default to the workspace's."""
    out = workspace / "fuzz_nbest.txt"
    out.unlink(missing_ok=True)
    files = {
        "--vocab": vocab or workspace / "data" / "vocab.txt",
        "--char-lm": char_lm or workspace / "char.lm",
        "--word-lm": word_lm or workspace / "word.lm",
    }
    needs = {"none": (), "char": ("--char-lm",), "multilevel": tuple(files)}
    needs["lookahead"] = ("--vocab", "--word-lm")
    argv = ["decode", "--posteriors", posteriors, "--lm-strategy", strategy]
    argv += [arg for flag in needs[strategy] for arg in (flag, files[flag])]
    if att_lm is not None:
        argv += ["--att-lm", att_lm]
    code = _run([*argv, "--beam-width", "3", "--n-best", "2", "--out", out])
    if code == 0:
        _assert_no_nan(out)
    return code


STRATEGY = st.sampled_from(["none", "char", "multilevel", "lookahead"])
LABELS = ["a", "b", "c", "d", "q", "é", "<space>", "<blank>", "<eos>", "", "ab", " "]
FIELDS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.sampled_from(["", "x", "1e999", "-0", "0x1p-2", " 0.5", "nan", "-inf", "1_0"]),
    st.text(max_size=4),
)


@st.composite
def valid_posteriors(draw, letters):
    """Rows that pass the file checks, zeros included, over a label subset."""
    used = draw(st.lists(st.sampled_from(letters), unique=True, max_size=len(letters)))
    labels = [*used, "<space>", "<blank>"]
    labels = draw(st.permutations(labels))
    rows = []
    for _ in range(draw(st.integers(1, 6))):
        weights = draw(
            st.lists(
                st.one_of(st.just(0.0), st.floats(1e-6, 1.0)),
                min_size=len(labels),
                max_size=len(labels),
            ).filter(any)
        )
        total = math.fsum(weights)
        rows.append("\t".join(f"{w / total:.17g}" for w in weights))
    return "\n".join(["\t".join(labels), *rows]) + "\n"


@st.composite
def broken_posteriors(draw):
    """Headers with reserved, duplicate or missing labels; ragged,
    non-numeric, non-finite, negative or badly summed rows; empty files."""
    labels = draw(st.lists(st.sampled_from(LABELS), max_size=6))
    rows = []
    for _ in range(draw(st.integers(0, 4))):
        width = max(0, len(labels) + draw(st.sampled_from([-1, 0, 0, 0, 1])))
        rows.append("\t".join(draw(st.lists(FIELDS, min_size=width, max_size=width))))
    return "\n".join(["\t".join(labels), *rows]) if labels or rows else ""


def _letters(workspace):
    vocab = load_vocabulary(workspace / "data" / "vocab.txt")
    return [label for label in vocab.label_set if len(label) == 1]


@FUZZ
@given(data=st.data(), strategy=STRATEGY, as_bytes=st.booleans())
def test_fuzzed_posteriors_keep_the_exit_contract(workspace, data, strategy, as_bytes):
    text = data.draw(st.one_of(valid_posteriors(_letters(workspace)), broken_posteriors()))
    path = workspace / "fuzz.tsv"
    if as_bytes:
        path.write_bytes(data.draw(st.binary(max_size=64)) + text.encode("utf-8"))
    else:
        path.write_text(text, encoding="utf-8")
    _decode(workspace, strategy, path)


@FUZZ
@given(data=st.data())
def test_valid_posteriors_decode_without_nan(workspace, data):
    path = workspace / "valid.tsv"
    path.write_text(data.draw(valid_posteriors(_letters(workspace))), encoding="utf-8")
    for strategy in ("none", "char", "multilevel", "lookahead"):
        assert _decode(workspace, strategy, path, att_lm=workspace / "char.lm") == 0


def _manifest_lines(paths, words, min_words):
    references = st.lists(st.sampled_from(words), min_size=min_words, max_size=4)
    return st.tuples(paths, references).map(lambda entry: f"{entry[0]}\t{' '.join(entry[1])}")


GOOD_PATHS = st.sampled_from(["utt_0000.tsv", "../data/utt_0001.tsv"])
BAD_PATHS = st.sampled_from(
    ["utt_0001.tsv", "missing.tsv", "", "corpus.txt", ".", "utt_0000.tsv\tx"]
)


@settings(FUZZ, max_examples=25)
@given(
    lines=st.lists(_manifest_lines(GOOD_PATHS, ["ab", "zzz", "é"], 1), min_size=1, max_size=3),
    stray=st.one_of(
        st.none(), _manifest_lines(BAD_PATHS, ["ab", "", "ca fe"], 0), st.text(max_size=12)
    ),
    at=st.integers(0, 3),
)
def test_fuzzed_manifests_keep_the_exit_contract(workspace, lines, stray, at):
    """Good entries, with at most one stray line (a bad path, an empty or
    odd reference, or any text) among them."""
    if stray is not None:
        lines.insert(at, stray)
    data = workspace / "data"
    manifest = data / "fuzz_manifest.tsv"
    manifest.write_text("\n".join(lines), encoding="utf-8")
    report = workspace / "fuzz_report.tsv"
    report.unlink(missing_ok=True)
    argv = ["bench", "--manifest", manifest, "--corpus", data / "corpus.txt"]
    argv += ["--strategies", "none,multilevel,lookahead", "--vocab-sizes", "6"]
    if _run([*argv, "--beam-width", "2", "--out", report]) == 0:
        assert "nan" not in report.read_text(encoding="utf-8")


@FUZZ
@given(
    data=st.data(),
    words=st.lists(
        st.one_of(
            st.text(alphabet="abcdj", max_size=5), st.text(alphabet="aé<>_ \t\x00", max_size=3)
        ),
        max_size=6,
    ),
    strategy=st.sampled_from(["multilevel", "lookahead"]),
)
def test_fuzzed_vocabularies_keep_the_exit_contract(workspace, data, words, strategy):
    """Word models trained on the fuzzed vocabulary decode posteriors over
    its letters; the workspace's models meet it as a foreign vocabulary."""
    corpus = workspace / "data" / "corpus.txt"
    vocab = workspace / "fuzz_vocab.txt"
    vocab.write_text("\n".join(words), encoding="utf-8")
    model = workspace / "fuzz_word.lm"
    model.unlink(missing_ok=True)
    argv = ["train-lm", "--corpus", corpus, "--order", "2", "--level", "word"]
    trained = _run([*argv, "--vocab", vocab, "--out", model]) == 0
    letters = sorted({ch for word in words for ch in word if not ch.isspace()})
    posteriors = workspace / "fuzz_vocab.tsv"
    posteriors.write_text(data.draw(valid_posteriors(letters or ["a"])), encoding="utf-8")
    if trained:
        _decode(workspace, strategy, posteriors, vocab=vocab, word_lm=model)
    _decode(workspace, strategy, posteriors, vocab=vocab)


@st.composite
def mutated_pickle(draw, original: bytes):
    """Valid model bytes with a few bytes overwritten, a cut, or an insert."""
    blob = bytearray(original)
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(0, len(blob) - 1))
        blob[at] = draw(st.integers(0, 255))
    if draw(st.booleans()):
        blob = blob[: draw(st.integers(0, len(blob)))]
    at = draw(st.integers(0, len(blob)))
    return bytes(blob[:at]) + draw(st.binary(max_size=8)) + bytes(blob[at:])


ODD_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-2, 7),
    st.floats(allow_nan=True),
    st.text(max_size=3),
    st.lists(st.integers(-1, 9), max_size=3),
    st.dictionaries(st.tuples(st.integers(-1, 9)), st.integers(-1, 3), max_size=2),
    st.binary(max_size=16),
)


def _lookalike(value):
    """The same value as another type: 2 -> 2.0, "char" -> b"char", [] -> ()."""
    if isinstance(value, int):
        return float(value)
    if isinstance(value, str):
        return value.encode("utf-8")
    return tuple(value)


_DTYPES = {"contexts": "<i4", "offsets": "<i8", "tokens": "<i4", "counts": "<i8"}


@st.composite
def broken_field(draw, blob: bytes, name: str, n_tokens: int):
    """A table field's bytes cut short, or its array with one entry out of
    range (or a count of 0) or swapped with the one before it."""
    values = np.frombuffer(blob, _DTYPES[name]).copy()
    if not values.size or draw(st.booleans()):
        return blob[: draw(st.integers(0, max(len(blob) - 1, 0)))]
    at = draw(st.integers(0, values.size - 1))
    if draw(st.booleans()):
        values[at] = draw(st.sampled_from([-1, 0, n_tokens, np.iinfo(values.dtype).max]))
    else:
        values[[at - 1, at]] = values[[at, at - 1]]
    return values.tobytes()


@st.composite
def mutated_payload(draw, payload: dict):
    """The model dict with one header field or one table field replaced: by
    an odd value, a lookalike of its own value, or broken bytes."""
    payload = pickle.loads(pickle.dumps(payload))
    header = st.sampled_from(["order", "level", "tokens", "tables", "version"])
    key = draw(header | st.just("table field"))
    if key == "table field":
        table = draw(st.sampled_from(payload["tables"]))
        name = draw(st.sampled_from(sorted(table)))
        broken = broken_field(table[name], name, len(payload["tokens"]))
        table[name] = draw(broken if draw(st.booleans()) else ODD_VALUES)
    else:
        payload[key] = draw(st.one_of(st.just(_lookalike(payload[key])), ODD_VALUES))
    return pickle.dumps(payload)


def _decode_with_model(workspace, slot, blob):
    model = workspace / "fuzz.lm"
    model.write_bytes(blob)
    posteriors = workspace / "data" / "utt_0000.tsv"
    if slot == "char":
        _decode(workspace, "char", posteriors, char_lm=model)
    elif slot == "att":
        _decode(workspace, "none", posteriors, att_lm=model)
    else:
        _decode(workspace, "lookahead", posteriors, word_lm=model)


SLOTS = st.sampled_from(["char", "att", "word"])


def _original(workspace, slot):
    return (workspace / ("word.lm" if slot == "word" else "char.lm")).read_bytes()


@FUZZ
@given(data=st.data(), slot=SLOTS)
def test_fuzzed_model_bytes_keep_the_exit_contract(workspace, data, slot):
    blob = data.draw(st.one_of(st.binary(max_size=64), mutated_pickle(_original(workspace, slot))))
    _decode_with_model(workspace, slot, blob)


@FUZZ
@given(data=st.data(), slot=SLOTS)
def test_fuzzed_model_payloads_keep_the_exit_contract(workspace, data, slot):
    blob = data.draw(mutated_payload(pickle.loads(_original(workspace, slot))))
    _decode_with_model(workspace, slot, blob)
