"""Tests for the benchmark itself, on its tiny ``smoke`` workload."""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402  (puts src/ on sys.path)
from spans import Tracer  # noqa: E402

from beamfuse import CtcPrefixScorer, NGramModel  # noqa: E402

SMOKE = bench.WORKLOADS["smoke"]


def _files(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """Smoke data decoded once untraced and once traced."""
    data = bench.generate(SMOKE, 3, tmp_path_factory.mktemp("data"))
    paths, _ = bench.read_manifest(data, SMOKE)
    plain = bench.Runner(bench.set_up(data)[0], paths)
    plain.one_pass()
    traced = bench.Runner(bench.set_up(data)[0], paths, Tracer())
    traced.tracer.install(traced.systems)
    try:
        traced.one_pass()
    finally:
        traced.tracer.uninstall()
    return data, plain, traced


def test_generation_is_deterministic_per_seed(tmp_path, smoke):
    again = _files(bench.generate(SMOKE, 3, tmp_path / "again"))
    other = _files(bench.generate(SMOKE, 4, tmp_path / "other"))
    assert again == _files(smoke[0])
    assert other.keys() == again.keys()
    assert other["utts/utt_0000.tsv"] != again["utts/utt_0000.tsv"]
    assert other["word.lm"] != again["word.lm"]


def test_length_profile_spreads_lengths_evenly():
    refs = ["x" * (k % 17 + 1) for k in range(200)]
    keep = bench.length_profile(refs, 50, 5, 14)
    assert keep == sorted(set(keep)) and len(keep) == 50
    lengths = sorted(len(refs[k]) for k in keep)
    assert lengths[0] == 5 and lengths[-1] == 14
    assert max(lengths.count(n) for n in range(5, 15)) - min(lengths.count(n) for n in range(5, 15)) <= 1


def test_tracing_does_not_change_output(tmp_path, smoke):
    _, plain, traced = smoke
    assert plain.failed == traced.failed == 0
    assert traced.tracer.arrays()["name"].size > 0
    assert bench.write_outputs(plain, tmp_path, "plain") == bench.write_outputs(
        traced, tmp_path, "traced"
    )
    # uninstall put every patched name back
    assert CtcPrefixScorer.candidate_scores.__qualname__ == "CtcPrefixScorer.candidate_scores"
    assert NGramModel.prob.__qualname__ == "NGramModel.prob"
    assert all("score" not in vars(system.lm) for system in traced.systems if system.lm)


def test_self_times_are_nonnegative_and_add_up_to_decode(smoke):
    tracer = smoke[2].tracer
    spans = tracer.arrays()
    own = tracer.self_times()
    # perf_counter differences round at ~1e-11 s; nothing more may go negative
    assert own.min() > -1e-9
    root = np.arange(own.size)
    for i, parent in enumerate(spans["parent"]):
        if parent >= 0:
            root[i] = root[parent]
    decodes = np.nonzero(spans["name"] == tracer.name_ids["decode"])[0]
    assert decodes.size == len(smoke[2].paths) * len(bench.SYSTEMS)
    for d in decodes:
        subtree = own[root == d]
        assert subtree.size > 1
        assert subtree.sum() == pytest.approx(spans["end"][d] - spans["start"][d], abs=1e-9)


def test_output_checks_catch_a_wrong_score(smoke):
    _, plain, _ = smoke
    for s, system in enumerate(plain.systems):
        result, matrix = plain.first[s][0], plain.matrices[0]
        assert bench.check_result(system, result, matrix)[0] == []
        for field in ("ctc_score", "lm_score", "joint"):
            hyp = result.hypotheses[0]
            wrong = dataclasses.replace(hyp, **{field: getattr(hyp, field) + 1e-6})
            bad = dataclasses.replace(result, hypotheses=[wrong])
            assert bench.check_result(system, bad, matrix)[0], (system.name, field)


@pytest.mark.parametrize("trace, key", [(0, "end_to_end"), (1, "per_layer")])
def test_smoke_command_runs(trace, key):
    """Default seed, so the recorded n-best hashes are checked too."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "smoke", "--seed", "1",
         "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in spec[key]} == {
        name: metric["unit"] for name, metric in result["metrics"].items()
    }
