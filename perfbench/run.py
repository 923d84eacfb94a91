#!/usr/bin/env python3
"""Seeded decode benchmark for beamfuse.

    python3 perfbench/run.py --workload short --seed 1 --seconds 34 --trace 0

One process, one thread, closed loop: a single caller loads and decodes
utterance files back to back, like a batch transcription job.  Inputs are
generated from ``--seed`` by the package's own ``synth`` and ``train-lm``
commands in a child process, untimed; the measured phase sees only the
generated files and goes through the public API in this order:

1. ``load_vocabulary``, ``load_model`` and scorer construction (``setup_s``;
   repeated ``SETUP_REPS`` times, median reported);
2. per utterance and system, ``load_posteriors`` then ``decode``; systems are
   interleaved per utterance so that host speed drift hits each alike, and
   utterances are revisited round robin until ``--seconds`` have passed
   (at least one full pass plus ``MIN_REPEATS`` repeats);
3. ``write_nbest`` per system.

``--trace 1`` instead decodes the workload's trace subset once untraced and
once with spans recorded around every layer (see ``spans.py``), and reports
per-layer metrics.  Every run checks its outputs before it reports a number:
repeated and traced decodes must reproduce the first decode exactly; each
1-best hypothesis must carry the exact CTC probability and the fused LM score
that the paper's identities predict; the n-best files of the ``smoke``
workload at ``DEFAULT_SEED`` (decoded in every run) and, when the run itself
uses that seed, of the run's own workload must hash to the SHA-256 values
recorded in ``baseline.json``.  On any mismatch or failed decode the run
prints no metrics and exits 1.  Character error rates are printed but not
reported as metrics.  The last line of standard output is one JSON object.
"""

from __future__ import annotations

import os

# Set before numpy loads, so the measured process stays single-threaded.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from collections import Counter  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
if not (SRC / "beamfuse").is_dir():
    sys.exit(f"error: beamfuse sources not found under {SRC}")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

from beamfuse import (  # noqa: E402
    EOS,
    CharLMScorer,
    DecodeConfig,
    LookAheadScorer,
    MultiLevelScorer,
    decode,
    edit_distance,
    from_char_labels,
    load_model,
    load_posteriors,
    load_vocabulary,
    write_nbest,
)

from spans import Tracer  # noqa: E402

WORK_DIR = ROOT / ".perfbench_work"
SPAN_DIR = ROOT / ".perfbench_spans"
BASELINE = HERE / "baseline.json"

CONFIG = DecodeConfig(ctc_weight=0.6, lm_weight=0.7, beam_width=8)
SYSTEMS = ("none", "multilevel", "lookahead", "hybrid")
SETUP_REPS = 11
DEFAULT_SEED = 1  # the seed whose n-best hashes baseline.json records
MIN_REPEATS = 10
POOL = 4  # utterances synthesized per utterance kept by a length profile
TOLERANCE = 1e-9
WORD_ORDER = 2


@dataclass(frozen=True)
class Workload:
    """Generation settings; the seed supplies everything else."""

    vocab_size: int
    sentences: int  # LM training corpus
    utterances: int  # decoded set of a ``--trace 0`` run
    trace_utterances: int  # first utterances, decoded by a ``--trace 1`` run
    frames_per_label: int
    peak: float
    words_per_utt: tuple[int, int]
    chars: tuple[int, int]  # transcript lengths the kept utterances spread over
    char_order: int


# Why each workload exists is recorded in BENCHMARK.json.  ``smoke`` is not
# one of them: it is the output canary every run decodes, and the workload of
# the benchmark's own tests.
WORKLOADS = {
    "short": Workload(2000, 4000, 240, 60, 1, 0.7, (5, 5), (20, 33), 3),
    "long": Workload(2000, 4000, 100, 30, 8, 0.7, (2, 2), (7, 13), 3),
    "vocab20k": Workload(20000, 4000, 180, 50, 1, 0.8, (5, 5), (20, 33), 5),
    "smoke": Workload(60, 200, 6, 3, 1, 0.7, (2, 3), (6, 12), 3),
}


@dataclass
class System:
    name: str
    lm: object | None
    att: object | None


# ======================================================================
# generation (untimed)
# ======================================================================


def _cli(*args) -> None:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    subprocess.run(
        [sys.executable, "-m", "beamfuse.cli", *map(str, args)],
        env=env,
        cwd=ROOT,
        check=True,
        stdout=subprocess.DEVNULL,
        timeout=300,
    )


def generate(workload: Workload, seed: int, out: Path) -> Path:
    """Write vocabulary, models, posterior files and manifest under *out*.

    The text (vocabulary and LM corpus) and the utterances come from two
    ``synth`` calls with the same seed, so every workload with one seed and
    vocabulary size shares one vocabulary and one pair of models, whatever
    its utterance shape.
    """
    text, utts = out / "text", out / "utts"
    common = ("--vocab-size", workload.vocab_size, "--seed", seed)
    _cli("synth", "--out-dir", text, "--sentences", workload.sentences, "--utterances", 1, *common)
    _cli(
        "synth", "--out-dir", utts, "--sentences", 1, "--utterances", POOL * workload.utterances,
        "--frames-per-label", workload.frames_per_label, "--peak", workload.peak,
        "--min-words", workload.words_per_utt[0], "--max-words", workload.words_per_utt[1],
        *common,
    )
    if (text / "vocab.txt").read_bytes() != (utts / "vocab.txt").read_bytes():
        raise RuntimeError("synth produced two vocabularies for one seed")
    for level, order in (("word", WORD_ORDER), ("char", workload.char_order)):
        _cli(
            "train-lm", "--corpus", text / "corpus.txt", "--vocab", text / "vocab.txt",
            "--order", order, "--level", level, "--out", out / f"{level}.lm",
        )
    shutil.copy(text / "vocab.txt", out / "vocab.txt")
    return out


def read_manifest(data: Path, workload: Workload) -> tuple[list[Path], list[str]]:
    """Posterior paths and references of the utterances the workload keeps."""
    paths, refs = [], []
    for line in (data / "utts" / "manifest.tsv").read_text(encoding="utf-8").splitlines():
        name, ref = line.split("\t")
        paths.append(data / "utts" / name)
        refs.append(ref)
    keep = length_profile(refs, workload.utterances, *workload.chars)
    return [paths[i] for i in keep], [refs[i] for i in keep]


def length_profile(refs: list[str], count: int, lo: int, hi: int) -> list[int]:
    """Indices, in pool order, of *count* references whose lengths spread
    evenly over [lo, hi] characters.

    Decode time grows faster than utterance length, so a length mix left to
    the seed would move every timing from one seed to the next; a fixed mix
    leaves only the content to the seed.
    """
    free = set(range(len(refs)))
    chosen = []
    for i in range(count):
        target = lo - 0.5 + (hi - lo + 1) * (i + 0.5) / count
        best = min(free, key=lambda k: (abs(len(refs[k]) - target), k))
        free.remove(best)
        chosen.append(best)
    return sorted(chosen)


# ======================================================================
# measured phase
# ======================================================================


def set_up(data: Path) -> tuple[list[System], float, float]:
    """Every system with models of its own, so no LM cache is shared."""
    start = perf_counter()
    vocab = load_vocabulary(data / "vocab.txt")
    word = {name: load_model(data / "word.lm") for name in SYSTEMS[1:]}
    char = {name: load_model(data / "char.lm") for name in ("multilevel", "hybrid")}
    loaded = perf_counter()
    systems = [
        System("none", None, None),
        System("multilevel", MultiLevelScorer(char["multilevel"], word["multilevel"], vocab), None),
        System("lookahead", LookAheadScorer(word["lookahead"], vocab), None),
        System("hybrid", LookAheadScorer(word["hybrid"], vocab), CharLMScorer(char["hybrid"])),
    ]
    return systems, loaded - start, perf_counter() - loaded


def timed_setups(data: Path) -> tuple[list[System], list[tuple[float, float]]]:
    times = []
    systems = None
    for _ in range(SETUP_REPS):
        systems = None  # release the previous set before building the next
        gc.collect()  # and start each from a collected heap, as a new process does
        systems, load_s, build_s = set_up(data)
        times.append((load_s, build_s))
    return systems, times


class Runner:
    """Times load+decode requests and accounts for every failure."""

    def __init__(self, systems: list[System], paths: list[Path], tracer: Tracer | None = None):
        self.systems = systems
        self.paths = paths
        self.tracer = tracer
        self.samples = [[[] for _ in paths] for _ in systems]  # seconds per request
        self.first: list[list[object]] = [[None] * len(paths) for _ in systems]
        self.matrices: list[object] = [None] * len(paths)
        self.failures: Counter = Counter()
        self.attempted = 0
        self.mismatches = 0

    def request(self, u: int, s: int) -> None:
        system, path, tracer = self.systems[s], self.paths[u], self.tracer
        self.attempted += 1
        start = perf_counter()
        try:
            if tracer is None:
                matrix = load_posteriors(path)
                result = decode(matrix, system.lm, system.att, CONFIG)
            else:
                tracer.begin_request(u, s)
                matrix = tracer.call("io.load", load_posteriors, path)
                result = tracer.call("decode", decode, matrix, system.lm, system.att, CONFIG)
        except Exception:  # a failed decode is counted and the job goes on
            self.samples[s][u].append(perf_counter() - start)
            if not self.failures["exception"]:
                traceback.print_exc()
            self.failures["exception"] += 1
            return
        self.samples[s][u].append(perf_counter() - start)
        if self.matrices[u] is None:
            self.matrices[u] = matrix
        if not result.complete:
            self.failures["incomplete"] += 1
        elif not all(map(math.isfinite, _scores(result))):
            self.failures["nonfinite"] += 1
        if self.first[s][u] is None:
            self.first[s][u] = result
        elif _signature(result) != _signature(self.first[s][u]):
            self.mismatches += 1

    def one_pass(self) -> None:
        for u in range(len(self.paths)):
            self._visit(u)

    def round_robin(self, seconds: float) -> None:
        """A full pass, then repeats from the start until *seconds* have passed."""
        n = len(self.paths)
        deadline = perf_counter() + seconds
        i = 0
        while i < n + min(n, MIN_REPEATS) or perf_counter() < deadline:
            self._visit(i % n)
            i += 1

    def _visit(self, u: int) -> None:
        k = len(self.systems)
        for j in range(k):
            self.request(u, (u + j) % k)

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    def utt_ms(self, s: int) -> list[float]:
        """Per-utterance load+decode time: the median over its repeats."""
        return [1e3 * statistics.median(times) for times in self.samples[s]]

    def total_seconds(self) -> float:
        return sum(sum(times) for rows in self.samples for times in rows)


def _scores(result) -> list[float]:
    return [
        value
        for hyp in result.hypotheses
        for value in (hyp.joint, hyp.ctc_score, hyp.att_score, hyp.lm_score)
    ]


def _signature(result) -> tuple:
    """Everything ``write_nbest`` prints, at full precision."""
    return result.complete, [hyp.labels for hyp in result.hypotheses], _scores(result)


def write_outputs(runner: Runner, out: Path, tag: str) -> dict[str, bytes]:
    """``write_nbest`` per system (spanned when tracing); returns the bytes."""
    written = {}
    for s, system in enumerate(runner.systems):
        results = [r for r in runner.first[s] if r is not None]
        path = out / f"nbest-{tag}-{system.name}.txt"
        if runner.tracer is None:
            write_nbest(results, path)
        else:
            runner.tracer.utt_id, runner.tracer.system_id = -1, s
            runner.tracer.call("io.write_nbest", write_nbest, results, path)
        written[system.name] = path.read_bytes()
    return written


# ======================================================================
# output checks
# ======================================================================


def ctc_reference(matrix, labels) -> float:
    """log P(collapsed output == labels) by the textbook CTC forward pass.

    Independent of the decoder's prefix recursion: it runs over the
    blank-interleaved label sequence, one frame at a time.
    """
    columns = [matrix.labels.index(label) for label in labels]
    blank = matrix.blank_index
    ext = np.array([blank] + [c for col in columns for c in (col, blank)])
    skip = np.zeros(len(ext), dtype=bool)
    skip[2:] = (ext[2:] != blank) & (ext[2:] != ext[:-2])
    with np.errstate(divide="ignore"):
        logp = np.log(matrix.probs)[:, ext]
    alpha = np.full(len(ext), -np.inf)
    alpha[: min(2, len(ext))] = logp[0, : min(2, len(ext))]
    for t in range(1, matrix.n_frames):
        prev = alpha
        alpha = prev.copy()
        alpha[1:] = np.logaddexp(alpha[1:], prev[:-1])
        alpha[2:] = np.where(skip[2:], np.logaddexp(alpha[2:], prev[:-2]), alpha[2:])
        alpha += logp[t]
    return float(np.logaddexp.reduce(alpha[-2:]))


def char_lm_reference(model, labels) -> float:
    """Character-LM log probability of *labels* followed by ``<eos>``."""
    ids, keep = model.token_ids, model.order - 1
    context: tuple[int, ...] = ()
    total = 0.0
    for label in (*labels, EOS):
        token = ids[label]
        total += math.log(model.prob(token, context))
        context = (context + (token,))[-keep:] if keep else ()
    return total


def word_lm_reference(scorer, labels) -> float | None:
    """Fused word-LM score of an in-vocabulary spelling; None if it has OOVs.

    Multi-level fusion charges each word its word-LM probability; look-ahead
    fusion charges it that probability over the mass of all spelled words
    after the same history (the tree root's look-ahead mass).
    """
    vocab, model = scorer.vocab, scorer.word_model
    ids = [vocab.lookup(word) for word in from_char_labels(labels) if word]
    if vocab.unk_id in ids:
        return None
    history: tuple[int, ...] = ()
    total = 0.0
    for word_id in ids:
        total += math.log(model.prob(word_id, history))
        if isinstance(scorer, LookAheadScorer):
            total -= math.log(model.full_distribution(history)[: vocab.spelled_count].sum())
        history += (word_id,)
    return total + math.log(model.prob(vocab.eos_id, history))


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= TOLERANCE * max(1.0, abs(a), abs(b))


def check_result(system: System, result, matrix) -> tuple[list[str], bool]:
    """Errors in the 1-best hypothesis, and whether its LM score was checked."""
    hyp = result.hypotheses[0]
    errors = []
    ctc = ctc_reference(matrix, hyp.labels)
    att = 0.0 if system.att is None else char_lm_reference(system.att.model, hyp.labels)
    lm = 0.0 if system.lm is None else word_lm_reference(system.lm, hyp.labels)
    checked = lm is not None
    if lm is None:
        lm = hyp.lm_score
    joint = CONFIG.ctc_weight * ctc + (1.0 - CONFIG.ctc_weight) * att + CONFIG.lm_weight * lm
    for name, want, got in (
        ("ctc", ctc, hyp.ctc_score),
        ("att", att, hyp.att_score),
        ("lm", lm, hyp.lm_score),
        ("joint", joint, hyp.joint),
    ):
        if not _close(want, got):
            errors.append(f"{system.name} {hyp.text!r}: {name} score {got!r}, expected {want!r}")
    return errors, checked


def check_outputs(runner: Runner) -> tuple[list[str], int]:
    errors, unchecked = [], 0
    for s, system in enumerate(runner.systems):
        for result, matrix in zip(runner.first[s], runner.matrices):
            if result is None:
                continue
            found, checked = check_result(system, result, matrix)
            errors.extend(found)
            unchecked += not checked
    if runner.mismatches:
        errors.append(f"{runner.mismatches} repeated decode(s) differ from the first")
    return errors, unchecked


def check_hashes(written: dict[str, bytes], expected: dict[str, str]) -> list[str]:
    errors = []
    for name, data in written.items():
        digest = hashlib.sha256(data).hexdigest()
        if digest != expected.get(name):
            errors.append(f"{name}: n-best sha256 {digest} != recorded {expected.get(name)}")
    return errors


def canary(seed: int, expected: dict[str, str], work: Path) -> list[str]:
    """Decode the smoke workload at *seed* and compare its n-best hashes.

    Gates output bytes in every run, whatever seed the run itself uses.
    """
    data = generate(WORKLOADS["smoke"], seed, work)
    paths, _ = read_manifest(data, WORKLOADS["smoke"])
    runner = Runner(set_up(data)[0], paths)
    runner.one_pass()
    written = write_outputs(runner, work, "canary")
    return [f"canary {e}" for e in check_hashes(written, expected)] + [
        f"canary decode failed: {kind} x{n}" for kind, n in runner.failures.items()
    ]


# ======================================================================
# metrics
# ======================================================================


def _percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(runner: Runner, setups: list[tuple[float, float]]) -> dict:
    metrics = {"setup_s": (statistics.median(a + b for a, b in setups), "s")}
    for s, name in enumerate(SYSTEMS):
        times = runner.utt_ms(s)
        metrics[f"ms_per_utt_p50.{name}"] = (statistics.median(times), "ms")
        metrics[f"ms_per_utt_p90.{name}"] = (_percentile(times, 90), "ms")
    frames = sum(
        len(times) * matrix.n_frames
        for rows in runner.samples
        for times, matrix in zip(rows, runner.matrices)
    )
    metrics["frames_per_s"] = (frames / runner.total_seconds(), "1/s")
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    return metrics


def quality(runner: Runner, refs: list[str]) -> dict:
    """Corpus character error rate per system, and the failed-decode share.

    Printed, not reported: across seeds the LM systems' error rates spread
    by up to 43% of their median (each seed trains different LMs), and any
    failed decode already voids the run.
    """
    metrics = {}
    for s, name in enumerate(SYSTEMS):
        edits = sum(
            edit_distance(list(runner.first[s][u].hypotheses[0].text), list(ref))
            for u, ref in enumerate(refs)
        )
        metrics[f"cer.{name}"] = (edits / sum(map(len, refs)), "frac")
    metrics["failed_frac"] = (runner.failed / runner.attempted, "frac")
    return metrics


def per_layer(traced: Runner, untraced: Runner, setups: list[tuple[float, float]]) -> dict:
    count = len(traced.paths)
    tracer = traced.tracer
    spans = tracer.arrays()
    self_ms = 1e3 * tracer.self_times()
    name_ids = tracer.name_ids
    metrics = {}

    def layer(s: int, name: str) -> tuple[float, int]:
        mask = (spans["system"] == s) & (spans["name"] == name_ids[name])
        return float(self_ms[mask].sum()) / count, int(mask.sum())

    for s, name in enumerate(SYSTEMS):
        counts = {key: value for (sid, key), value in tracer.counts.items() if sid == s}
        runs = [tracer.per_decode[(u, s)] for u in range(count)]
        steps = sum(r[0] for r in runs)
        candidates = counts.get("candidates", 0) - counts.get("empty_word_skips", 0)
        early = sum(
            r[0] == r[1] and r[0] < traced.matrices[u].n_frames for u, r in enumerate(runs)
        )
        metrics[f"decoder.self_ms_per_utt.{name}"] = (layer(s, "decode")[0], "ms")
        metrics[f"decoder.steps_per_utt.{name}"] = (steps / count, "count")
        metrics[f"decoder.candidates_per_step.{name}"] = (candidates / steps, "count")
        metrics[f"decoder.kept_ratio.{name}"] = (counts.get("survivors", 0) / candidates, "frac")
        if traced.systems[s].lm is not None:
            skips = counts.get("empty_word_skips", 0)
            metrics[f"decoder.empty_word_skips_per_utt.{name}"] = (skips / count, "count")
        metrics[f"decoder.early_stop_frac.{name}"] = (early / count, "frac")
        metrics[f"ctc.score_ms_per_utt.{name}"] = (layer(s, "ctc.score")[0], "ms")
        metrics[f"ctc.extend_ms_per_utt.{name}"] = (layer(s, "ctc.extend")[0], "ms")
        metrics[f"ctc.final_ms_per_utt.{name}"] = (layer(s, "ctc.final")[0], "ms")
        metrics[f"ctc.extend_frame_states_per_utt.{name}"] = (
            counts.get("frame_states", 0) / count,
            "count",
        )
        system = traced.systems[s]
        if system.lm is None:
            continue
        ms, calls = layer(s, "lm.score")
        metrics[f"lm.score_ms_per_utt.{name}"] = (ms, "ms")
        metrics[f"lm.final_ms_per_utt.{name}"] = (layer(s, "lm.final")[0], "ms")
        metrics[f"lm.calls_per_utt.{name}"] = (calls / count, "count")
        if system.att is not None:
            ms, calls = layer(s, "att.score")
            metrics[f"att.score_ms_per_utt.{name}"] = (ms, "ms")
            metrics[f"att.calls_per_utt.{name}"] = (calls / count, "count")
        ms, calls = layer(s, "ngram.prob")
        metrics[f"ngram.prob_ms_per_utt.{name}"] = (ms, "ms")
        metrics[f"ngram.prob_calls_per_utt.{name}"] = (calls / count, "count")
        if isinstance(system.lm, LookAheadScorer):
            info = system.lm.word_model.cumsums.cache_info()
            metrics[f"ngram.cumsum_ms_per_utt.{name}"] = (layer(s, "ngram.cumsum")[0], "ms")
            metrics[f"ngram.cumsum_hit_ratio.{name}"] = (
                info.hits / (info.hits + info.misses),
                "frac",
            )
            ms, calls = layer(s, "trie.descend")
            metrics[f"trie.descend_ms_per_utt.{name}"] = (ms, "ms")
            metrics[f"trie.descend_calls_per_utt.{name}"] = (calls / count, "count")

    loads = spans["name"] == name_ids["io.load"]
    writes = spans["name"] == name_ids["io.write_nbest"]
    metrics["io.load_ms_per_utt"] = (float(self_ms[loads].mean()), "ms")
    metrics["io.write_nbest_ms"] = (float(self_ms[writes].mean()), "ms")
    metrics["setup.load_models_s"] = (statistics.median(a for a, _ in setups), "s")
    metrics["setup.build_scorers_s"] = (statistics.median(b for _, b in setups), "s")
    metrics["trace.overhead_frac"] = (traced.total_seconds() / untraced.total_seconds() - 1, "frac")
    return metrics


# ======================================================================
# driver
# ======================================================================


def run(workload_name: str, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    """Generate, measure and check one run; returns the result object."""
    workload = WORKLOADS[workload_name]
    data = generate(workload, seed, work / "data")
    paths, refs = read_manifest(data, workload)
    baseline = json.loads(BASELINE.read_text(encoding="utf-8"))["nbest_sha256"]
    systems, setups = timed_setups(data)

    errors = []
    if not trace:
        runner = Runner(systems, paths)
        runner.round_robin(seconds)
        runners = [runner]
        written = write_outputs(runner, work, "run")
        if seed == DEFAULT_SEED:
            errors += check_hashes(written, baseline.get(workload_name, {}))
    else:
        paths, refs = paths[: workload.trace_utterances], refs[: workload.trace_utterances]
        runner = Runner(systems, paths)
        runner.one_pass()
        traced = Runner(set_up(data)[0], paths, Tracer())
        runners = [runner, traced]
        traced.tracer.install(traced.systems)
        try:
            traced.one_pass()
            written_traced = write_outputs(traced, work, "traced")
        finally:
            traced.tracer.uninstall()
        written = write_outputs(runner, work, "untraced")
        errors += [
            f"{name}: traced n-best differs from untraced"
            for name in SYSTEMS
            if written[name] != written_traced[name]
        ]

    found, unchecked = check_outputs(runner)
    errors += found + canary(DEFAULT_SEED, baseline["smoke"], work / "canary")
    attempted = sum(r.attempted for r in runners)
    failures = sum((r.failures for r in runners), Counter())
    failed = sum(failures.values())

    total = len(SYSTEMS) * len(paths)
    print(f"workload {workload_name}, seed {seed}: {len(paths)} utterances x {len(SYSTEMS)} systems")
    print(f"decodes attempted {attempted}, failed {failed} {dict(failures) or ''}")
    print(f"1-best LM score identity checked on {total - unchecked} of {total}")
    for name, data_bytes in written.items():
        print(f"n-best sha256 {name}: {hashlib.sha256(data_bytes).hexdigest()}")
    result = {"correct": not errors and not failed, "attempted": attempted, "failed": failed}
    if not result["correct"]:
        for error in errors:
            print(f"CHECK FAILED: {error}", file=sys.stderr)
        result["metrics"] = {}
        return result

    if trace:
        traced.tracer.write(SPAN_DIR / f"spans-{workload_name}.npz")
        metrics = per_layer(traced, runner, setups)
        shown = metrics
    else:
        metrics = end_to_end(runner, setups)
        shown = {**metrics, **quality(runner, refs)}
        print(f"timing samples: {len(paths)} utterances per system, {runner.attempted} decodes")
    for name, (value, unit) in shown.items():
        print(f"  {name:44s} {value:14.6f} {unit}")
    result["metrics"] = {
        name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
    }
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    work = WORK_DIR / f"{args.workload}-{args.seed}-{os.getpid()}"
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if WORK_DIR.exists() and not any(WORK_DIR.iterdir()):
            WORK_DIR.rmdir()
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
