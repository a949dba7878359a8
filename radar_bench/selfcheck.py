"""The benchmark's own tests.

Kept out of the repository's default test collection (the file name does
not match ``test_*.py``); run them explicitly from the repository root::

    python -m pytest -q radar_bench/selfcheck.py

Each test drives ``radar_bench/run.py`` at smoke size (``--seconds 1``).
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [item["name"] for item in SPEC["workloads"]]


def run_bench(workload: str, seed: int, trace: int, out: Path) -> dict:
    completed = subprocess.run(
        [
            sys.executable,
            str(ROOT / "radar_bench" / "run.py"),
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", "1",
            "--trace", str(trace),
            "--out", str(out),
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert completed.returncode == 0, completed.stdout + completed.stderr
    payload = json.loads(completed.stdout.strip().splitlines()[-1])
    report = json.loads((out / "result.json").read_text())
    return {"payload": payload, "report": report}


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_emits_declared_metrics(workload, trace, tmp_path):
    declared = SPEC["per_layer" if trace else "end_to_end"]
    payload = run_bench(workload, 1, trace, tmp_path)["payload"]
    assert sorted(payload) == ["attempted", "correct", "failed", "metrics"]
    assert payload["correct"] is True and payload["failed"] == 0
    assert payload["attempted"] >= 1
    assert {name: item["unit"] for name, item in payload["metrics"].items()} == {
        item["name"]: item["unit"] for item in declared
    }
    if not trace:
        assert all(item["value"] > 0 for item in payload["metrics"].values())
    if trace:
        assert (tmp_path / "spans.jsonl").stat().st_size > 0
    if trace and workload == "sweep-storm":
        # The two-process pool phase ran, dispatched work and was traced.
        assert payload["metrics"]["procpool.run_ms"]["value"] > 0
        assert payload["metrics"]["procpool.tasks_per_tick"]["value"] > 0
        assert (tmp_path / "pool_spans.jsonl").stat().st_size > 0


@pytest.mark.parametrize("workload", ["rotation-trickle", "inline-resnet18"])
def test_same_seed_gives_identical_counts(workload, tmp_path):
    first = run_bench(workload, 7, 0, tmp_path / "a")
    second = run_bench(workload, 7, 0, tmp_path / "b")
    assert first["report"]["counts"] == second["report"]["counts"]
    for name in ("detect_latency_ticks_p90", "detected_share"):
        assert (
            first["payload"]["metrics"][name]["value"]
            == second["payload"]["metrics"][name]["value"]
        )


def test_different_seed_changes_salvo_schedule():
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from radar_bench import workloads

    spec = workloads.FLEETS["rotation-trickle"]
    first = workloads.salvo_schedule(spec, 1, 400, 16)
    assert first == workloads.salvo_schedule(spec, 1, 400, 16)
    other = workloads.salvo_schedule(spec, 2, 400, 16)
    assert sorted(first) != sorted(other)


def test_host_speed_scales_each_sample_by_the_probes_around_it():
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from radar_bench import hostspeed

    speed = hostspeed.HostSpeed()
    speed.moments = [0.0, 1.0, 2.0, 10.0]
    speed.factors = [1.0, 2.0, 2.0, 4.0]
    # Only the probe at 1.0 lies within WINDOW_S of a short sample there.
    assert speed.scale([0.1], [1.05]) == [0.05]
    # A sample spanning 1.0-2.0 takes the median over 0.5-2.5.
    assert speed.scale([1.0], [2.0]) == [0.5]
    # No probe within the window: the nearest one scales it.
    assert speed.scale([0.1], [6.0]) == [0.05]
    assert hostspeed.AS_MEASURED.scale([0.1, 0.2], [1.0, 2.0]) == [0.1, 0.2]
    speed.sample()
    assert speed.factors[-1] > 0 and len(speed.moments) == 5
