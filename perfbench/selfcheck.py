"""Fast self-check of the benchmark at toy sizes.

Validates BENCHMARK.json against the benchmark's own layer table, then
runs every workload once untraced and once traced with tiny inputs and
asserts that each named metric is emitted with its declared unit, that
the outputs checked out, and that no call failed. Takes about a minute:

    python3 perfbench/selfcheck.py
"""

from __future__ import annotations

import json
import subprocess
from pathlib import Path

from layers import COUNTS, FUNCTIONS
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent


def layer_metric_names():
    names = [n for layer in FUNCTIONS
             for n in (f"{layer.name}.calls", f"{layer.name}.self_s")]
    names += [layer.name for layer in COUNTS]
    return names + ["evaluation.pooled_f1", "trace.overhead_s",
                    "trace.coverage"]


def check_spec(spec):
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS), \
        "BENCHMARK.json workloads differ from perfbench/workloads.py"
    assert [m["name"] for m in spec["per_layer"]] == layer_metric_names(), \
        "BENCHMARK.json per_layer differs from perfbench/layers.py"
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names)), "metric names repeat"
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"])


def run(spec, workload, trace):
    cmd = spec["command"] + ["--workload", workload, "--seed", "7",
                             "--seconds", "1", "--trace", str(trace), "--toy"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=300, check=False)
    assert proc.returncode == 0, f"{cmd} exited {proc.returncode}:\n{proc.stderr}"
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, f"{workload} trace={trace}: not correct"
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = spec["per_layer" if trace else "end_to_end"]
    emitted = result["metrics"]
    assert list(emitted) == [m["name"] for m in declared], \
        f"{workload} trace={trace}: emitted {sorted(emitted)}"
    for m in declared:
        got = emitted[m["name"]]
        assert got["unit"] == m["unit"], f"{m['name']}: unit {got['unit']}"
        assert isinstance(got["value"], (int, float)), m["name"]
    print(f"ok  {workload:13s} trace={trace}  {len(emitted)} metrics")


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_spec(spec)
    for workload in WORKLOADS:
        for trace in (0, 1):
            run(spec, workload, trace)
    print("self-check passed")


if __name__ == "__main__":
    main()
