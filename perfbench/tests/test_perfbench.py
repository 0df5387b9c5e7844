"""The benchmark's own tests: file format, every metric emitted, checks bite.

Run from the repository root with ``python3 -m pytest -q perfbench/tests``.
Each workload runs at a tiny size in both modes.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
RUN = ROOT / "perfbench" / "run.py"
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
LAYERS = json.loads((ROOT / "perfbench" / "layers.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

sys.path[:0] = [str(ROOT), str(ROOT / "src")]
# In-process transpiles below share the benchmark's coverage cache.
os.environ.setdefault("MIRAGE_CACHE_DIR", str(ROOT / ".perfbench" / "cache"))


def _run(workload: str, trace: int, cwd: Path = ROOT, script: Path = RUN):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def test_benchmark_json_is_well_formed():
    assert set(BENCH) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    assert 1 <= BENCH["run_seconds"] <= 60
    assert 2 <= len(WORKLOADS) <= 8
    names = WORKLOADS + [m["name"] for m in BENCH["end_to_end"] + BENCH["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert all(set(w) == {"name", "why"} and len(w["why"]) <= 200
               for w in BENCH["workloads"])
    for metric in BENCH["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    setup = next(m for m in BENCH["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in BENCH["end_to_end"])
    assert all(set(m) == {"name", "unit", "better"} for m in BENCH["per_layer"])


def test_every_layer_metric_has_a_prediction():
    end_to_end = {m["name"] for m in BENCH["end_to_end"]}
    assert list(LAYERS) == [m["name"] for m in BENCH["per_layer"]]
    for layer in LAYERS.values():
        assert set(layer["moves"]) <= end_to_end
        named = [w for ws in layer["moves"].values() for w in ws] + layer["no_change_on"]
        assert set(named) <= set(WORKLOADS)
        assert layer["moves"] or layer["no_change_on"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_emits_every_metric_and_passes_its_checks(workload):
    for trace, declared in ((0, BENCH["end_to_end"]), (1, BENCH["per_layer"])):
        done = _run(workload, trace)
        assert done.returncode == 0, done.stderr[-2000:]
        details, result = (json.loads(line) for line in done.stdout.splitlines()[-2:])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert {name: m["unit"] for name, m in result["metrics"].items()} == {
            m["name"]: m["unit"] for m in declared}
        assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
        assert {"cpu_count", "hostname_hash", "python", "git_commit", "seed"} <= set(
            details["provenance"])
        assert details["rows"] and all("digest" in row for row in details["rows"])
        metrics = {name: m["value"] for name, m in result["metrics"].items()}
        if trace:
            for clean_zero in ("dispatch.recoveries", "service.shed",
                               "service.deadline_expirations", "service.breaker_trips"):
                assert metrics[clean_zero] == 0
            assert (ROOT / details["trace_file"]).is_file()
        else:
            assert metrics["ok_share"] == 1.0 and details["failed_share"] == 0.0
            assert metrics["setup_s"] > 0 and metrics["wall_s"] > 0


def test_checks_fail_on_a_corrupted_output():
    from repro.circuits.library import qft
    from repro.core import transpile
    from repro.transpiler import line_topology

    from perfbench.checks import coupling_violations, digest
    from perfbench.run import check_passes
    from perfbench.workloads import PassRecord, _row

    coupling = line_topology(5)
    result = transpile(qft(4), coupling, seed=5)
    assert coupling_violations(result.circuit, coupling) == []
    good = _row(result, coupling=coupling, key=0, circuit="qft4", topology="line",
                method="mirage", seed=5)

    result.circuit.cx(0, 4)  # not an edge of the line
    assert coupling_violations(result.circuit, coupling)
    bad = _row(result, coupling=coupling, key=0, circuit="qft4", topology="line",
               method="mirage", seed=5)
    assert bad["digest"] != good["digest"] == digest(transpile(qft(4), coupling, seed=5))

    failed, problems = check_passes(
        [PassRecord(1.0, [1.0], [good], {}), PassRecord(1.0, [1.0], [bad], {})], [])
    assert failed == 1 and "not a coupling edge" in problems[0]


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _run(WORKLOADS[0], 0, cwd=tmp_path, script=tmp_path / "perfbench" / "run.py")
    assert done.returncode != 0
    assert done.stdout.strip() == ""


def _session_processes(sid: int) -> list[int]:
    pids = []
    for entry in Path("/proc").iterdir():
        if entry.name.isdigit():
            try:
                if os.getsid(int(entry.name)) == sid:
                    pids.append(int(entry.name))
            except OSError:
                pass
    return pids


@pytest.mark.skipif(not Path("/proc").is_dir(), reason="needs /proc")
def test_leaves_no_process_running():
    # suite_batch's process pool publishes shared memory, which starts
    # multiprocessing's resource tracker; it must be gone when run.py is.
    child = subprocess.Popen(
        [sys.executable, str(RUN), "--workload", "suite_batch", "--seed", "3",
         "--seconds", "1", "--trace", "0", "--tiny"],
        cwd=ROOT, stdout=subprocess.DEVNULL, start_new_session=True)
    assert child.wait(timeout=300) == 0
    assert _session_processes(child.pid) == []
