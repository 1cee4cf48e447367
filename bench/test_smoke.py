"""Smoke test of the benchmark at a tiny size (under a minute).

    python3 -m pytest -q bench/test_smoke.py

References for the tiny datasets are computed on the fly; the committed
``references.json`` is only checked to cover the full-size datasets.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import references  # noqa: E402
import run  # noqa: E402

TINY = run.Sizes(desk_replicates=1, desk_n_per_seq=5, large_n_per_seq=8, cli_files=2,
                 cli_n_per_seq=5, setup_repeats=1, min_passes=2)
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def program():
    return run.load_program()


@pytest.fixture(scope="module")
def tiny_refs(program, tmp_path_factory):
    path = tmp_path_factory.mktemp("refs") / "references.json"
    table = references.compute(program, run.WORKLOADS, TINY, max_iter=300)
    path.write_text(json.dumps({"datasets": table}), encoding="utf-8")
    return path


def test_metric_lists_match_benchmark_json():
    assert [m["name"] for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in SPEC["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert m["unit"] == {**run.END_TO_END, **run.PER_LAYER}[m["name"]]


def test_committed_references_cover_full_datasets(program):
    table = json.loads(run.REFERENCES.read_text(encoding="utf-8"))["datasets"]
    for workload in run.WORKLOADS:
        for name, _, _, models in run.dataset_specs(program, workload, run.FULL):
            assert sorted(table[name]["fits"]) == sorted(m.value for m in models)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tiny_run(workload, trace, tiny_refs):
    out = run.run(workload, seed=7, seconds=0.0, trace=trace, sizes=TINY, references=tiny_refs)
    assert out["correct"], out["report"]
    assert out["attempted"] >= 1 and out["failed"] == 0
    expected = run.PER_LAYER if trace else run.END_TO_END
    assert {k: v["unit"] for k, v in out["metrics"].items()} == expected
    assert all(isinstance(v["value"], (int, float)) for v in out["metrics"].values())
    if trace:
        assert out["metrics"]["em.fit.calls"]["value"] > 0


def test_seed_reorders_but_keeps_counts(tiny_refs):
    a = run.run("large-trial", seed=1, seconds=0.0, trace=False, sizes=TINY, references=tiny_refs)
    b = run.run("large-trial", seed=2, seconds=0.0, trace=False, sizes=TINY, references=tiny_refs)
    for name in ("em_iterations", "fits_ok_ratio"):
        assert a["metrics"][name] == b["metrics"][name]


def test_fingerprint_mismatch_is_a_hard_error(tiny_refs, tmp_path):
    table = json.loads(tiny_refs.read_text(encoding="utf-8"))
    table["datasets"]["large-trial/error-sn"]["fingerprint"] = "0" * 24
    bad = tmp_path / "references.json"
    bad.write_text(json.dumps(table), encoding="utf-8")
    with pytest.raises(run.BenchError, match="fingerprint"):
        run.run("large-trial", seed=1, seconds=0.0, trace=False, sizes=TINY, references=bad)


def test_broken_fit_marks_run_incorrect(tiny_refs):
    table = json.loads(tiny_refs.read_text(encoding="utf-8"))
    for entry in table["datasets"].values():
        for fit in entry["fits"].values():
            fit["loglik"] -= 1.0  # every reported fit now beats its reference
    bad = tiny_refs.parent / "lowered.json"
    bad.write_text(json.dumps(table), encoding="utf-8")
    out = run.run("desk-mc", seed=1, seconds=0.0, trace=False, sizes=TINY, references=bad)
    assert not out["correct"]


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_raising_fit_still_gives_a_result(workload, trace, program, tiny_refs, monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("broken fit")

    for module in (program.em, program.simulate, program.cli):
        monkeypatch.setattr(module, "fit", broken)
    out = run.run(workload, seed=1, seconds=0.0, trace=trace, sizes=TINY, references=tiny_refs)
    assert not out["correct"]
    assert out["attempted"] >= 1 and out["failed"] >= 1
    json.dumps(out["metrics"], allow_nan=False)  # a strict JSON line
