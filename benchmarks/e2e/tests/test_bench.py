"""Tests of the benchmark itself (not tier-1; ``testpaths`` keeps them out).

    PYTHONPATH=src python -m pytest benchmarks/e2e/tests
"""

from __future__ import annotations

import asyncio
import json
import pathlib
import subprocess
import sys

import pytest

E2E = pathlib.Path(__file__).resolve().parents[1]
ROOT = E2E.parents[1]
for entry in (str(E2E), str(ROOT / "src")):
    if entry not in sys.path:
        sys.path.insert(0, entry)

import compare  # noqa: E402
import harness  # noqa: E402
import workloads  # noqa: E402
from harness import CAL_REF_S, Slice  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def request_digest(name: str, seed: int) -> str:
    workload = workloads.WORKLOADS[name](seed, quick=True)
    workload.requests(40)
    return workload.digest.hexdigest()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_requests_other_seed_other_requests(name):
    assert request_digest(name, 7) == request_digest(name, 7)
    assert request_digest(name, 7) != request_digest(name, 8)


def test_workloads_match_benchmark_json():
    assert sorted(workloads.WORKLOADS) == sorted(
        workload["name"] for workload in SPEC["workloads"])


# -- calibration arithmetic ---------------------------------------------------


def synthetic_slice(slowdown: float) -> Slice:
    """A slice as a host *slowdown* times slower than the reference
    would time it: 100 ops in 10 ms, 1 ms latencies."""
    kernel = (CAL_REF_S * slowdown, CAL_REF_S * slowdown)
    return Slice((kernel, kernel, kernel), 100, 0.010 * slowdown,
                 0.010 * slowdown, [0.001 * slowdown] * 20, [0.0] * 20)


def test_calibrated_rescales_to_the_reference_kernel():
    assert harness.calibrated(0.2, CAL_REF_S * 2, CAL_REF_S * 2) \
        == pytest.approx(0.1)
    # The bracket is the mean of the kernel run before and after.
    assert harness.calibrated(0.3, CAL_REF_S, CAL_REF_S * 2) \
        == pytest.approx(0.2)


@pytest.mark.parametrize("slowdown", [1.0, 1.8, 3.0])
def test_summary_is_the_same_on_a_slower_host(slowdown):
    summary = harness.summarise([synthetic_slice(slowdown)] * 5)
    assert summary["ops_s"] == pytest.approx(10_000)
    assert summary["cpu_us_per_op"] == pytest.approx(100)
    assert summary["lat_p50_ms"] == pytest.approx(1.0)
    assert summary["raw_ops_s"] == pytest.approx(10_000 / slowdown)
    assert summary["raw_lat_p50_ms"] == pytest.approx(slowdown)


def test_waiting_is_not_rescaled():
    """2 ms of a 10 ms burst spent waiting (wall minus CPU) stay 2 ms
    on a host twice as slow; only the 8 ms of computing double."""
    assert harness.calibrated(0.018, CAL_REF_S * 2, CAL_REF_S * 2,
                              idle=0.002) == pytest.approx(0.010)
    item = synthetic_slice(2.0)
    item.closed_wall, item.closed_cpu = 0.018, 0.016
    item.latencies = [0.0018] * 20      # 0.2 ms waiting + 2 x 0.8 ms
    summary = harness.summarise([item])
    assert summary["ops_s"] == pytest.approx(10_000)
    assert summary["lat_p50_ms"] == pytest.approx(1.0)


def test_median_over_slices_discards_a_disturbed_slice():
    disturbed = synthetic_slice(1.0)
    disturbed.closed_wall *= 5      # a burst the kernels did not see
    summary = harness.summarise([synthetic_slice(1.0)] * 4 + [disturbed])
    assert summary["ops_s"] == pytest.approx(10_000)
    assert summary["cal_spread"] == pytest.approx(1.0)


# -- oracles: a planted fault must raise the failure count -----------------------


def served(name: str, scenario):
    """Run ``scenario(workload, gateway)`` against a quick stack."""
    workload = workloads.WORKLOADS[name](7, quick=True)
    stack = workload.setup()

    async def main():
        gateway = workload.open_gateway(stack)
        try:
            await scenario(workload, gateway)
        finally:
            await gateway.close()

    try:
        asyncio.run(main())
    finally:
        workload.close_stack(stack)
    return workload


def test_clean_round_has_no_failures():
    async def scenario(workload, gateway):
        await harness.run_round(workload, gateway)

    workload = served("mixed_rw", scenario)
    assert workload.attempted > 0 and workload.failed == 0
    assert workload.transactions > 0


def test_planted_wrong_body_is_a_failure():
    async def scenario(workload, gateway):
        await workload.closed(gateway, workload.requests(10))
        assert workload.samples and workload.failed == 0
        doc, chunks, upto = workload.samples[0]
        workload.samples[0] = (doc, ["<hospital>tampered</hospital>"], upto)
        await workload.check(gateway)

    assert served("read_stream", scenario).failed == 1


def test_lost_acknowledged_edit_is_a_failure():
    async def scenario(workload, gateway):
        await workload.closed(gateway, workload.requests(24))
        doc = workload.recent_writes[-1]
        # An edit the store never saw, recorded as acknowledged.
        workload.edit_log[doc].append(
            ("/hospital/record[1]/name", "edit-never-applied"))
        await workload.check(gateway)

    assert served("write_durable", scenario).failed >= 1


def test_planted_refusal_is_a_failure_not_a_crash(monkeypatch):
    monkeypatch.setattr(workloads, "QUEUE_LIMIT", 64)

    async def scenario(workload, gateway):
        await workload.closed(gateway, workload.requests(256))

    workload = served("authz_hot", scenario)
    assert workload.attempted == 256
    assert 0 < workload.failed < 256
    assert any("refused" in why for why in workload.failures)


def test_stale_replica_stamp_is_a_failure():
    async def scenario(workload, gateway):
        await workload.closed(gateway, workload.requests(10))
        doc = next(iter(workload.stamps))
        workload.stamps[doc] = "999999999"   # a write that never shipped
        await workload.read(gateway, ("r", doc, workloads.Request(
            workload.subjects[0], workloads.Action.READ,
            workload.doc_paths[doc])))

    assert served("mixed_rw", scenario).failed == 1


# -- compare ---------------------------------------------------------------------


def result_set(ops: list[float], quick: bool = False) -> dict:
    block = {name: list(ops) for name in
             (metric["name"] for metric in SPEC["end_to_end"])}
    return {"quick": quick, "workloads": {"authz_hot": {
        "end_to_end": block}}}


def verdicts(a: list[float], b: list[float]) -> dict[str, str]:
    spec = {metric["name"]: metric for metric in SPEC["end_to_end"]}
    return {row["metric"]: row["verdict"]
            for row in compare.rows(result_set(a), result_set(b), spec)}


def test_compare_verdicts():
    steady = [100.0, 100.5, 99.5, 100.2, 99.8]
    assert set(verdicts(steady, steady).values()) == {"same"}
    halved = [value / 2 for value in steady]
    result = verdicts(steady, halved)
    assert result["ops_s"] == "worse" and result["lat_p50_ms"] == "better"
    noisy = [60.0, 140.0, 100.0, 75.0, 125.0]
    assert verdicts(noisy, noisy)["ops_s"] == "unresolved"
    # Too noisy for the medians to tell, but every run is on one side.
    result = verdicts(noisy, [value + 100 for value in noisy])
    assert result["ops_s"] == "better" and result["lat_p50_ms"] == "worse"


def test_compare_refuses_quick_sets(tmp_path):
    path = tmp_path / "quick.json"
    path.write_text(json.dumps(result_set([1.0], quick=True)))
    with pytest.raises(SystemExit):
        compare.load_set(str(path))


# -- the command -------------------------------------------------------------------


def test_quick_emits_exactly_the_declared_names(tmp_path):
    out = tmp_path / "quick.json"
    done = subprocess.run(
        [sys.executable, str(E2E / "run.py"), "--quick", "--out", str(out)],
        capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(out.read_text())
    assert result["quick"] is True and result["claim"] is None
    assert list(result)[-1] == "claim"
    assert sorted(result["workloads"]) == sorted(
        workload["name"] for workload in SPEC["workloads"])
    for block in result["workloads"].values():
        assert sorted(block["end_to_end"]) == sorted(
            metric["name"] for metric in SPEC["end_to_end"])
        assert sorted(block["per_layer"]) == sorted(
            metric["name"] for metric in SPEC["per_layer"])
        assert block["failed"] == 0
