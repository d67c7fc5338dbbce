"""Golden pin for the modeled cycles of every suite app.

``tests/golden/cycles.json`` records, for each suite app at its small
size, each placement (bytecode only, the default policy, and every task
pinned to the FPGA where the app has an FPGA artifact) and both
schedulers:

* the ledger's ``host_cycles`` and ``total_s``;
* each offload's ``(device, kernel_s)``;
* ``Runtime.profile()`` (per-method calls and inclusive cycles);
* the per-item lane cycles of every GPU map/filter run;
* the cycles of every FPGA run.

The cost models are the reproduction contract, so the test asserts
exact equality. To regenerate after an intentional cost-model change::

    PYTHONPATH=src python -m tests.test_golden_cycles --write
"""

import json
import os
import sys
from collections import defaultdict

import pytest

from repro.apps import SUITE, compile_app, workloads
from repro.devices.fpga.simulator import FPGASimulator
from repro.devices.gpu.simulator import GPUSimulator
from repro.runtime import Runtime, RuntimeConfig, SubstitutionPolicy

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "cycles.json")
SCHEDULERS = ("sequential", "threaded")


def placements(compiled) -> list:
    rows = [
        ("bytecode", SubstitutionPolicy(use_accelerators=False)),
        ("default", SubstitutionPolicy()),
    ]
    fpga = compiled.store.for_device("fpga")
    if fpga:
        rows.append(("fpga", SubstitutionPolicy(directives={
            task: "fpga"
            for artifact in fpga
            for task in artifact.manifest.task_ids
        })))
    return rows


class _DeviceRecorder:
    """Records GPU lane cycles and FPGA run cycles while installed."""

    def __init__(self, monkeypatch):
        self.gpu = defaultdict(list)
        self.fpga = defaultdict(list)
        for name in ("run_map", "run_filter"):
            self._wrap_gpu(monkeypatch, name)
        original_stream = FPGASimulator.run_stream

        def run_stream(sim, netlist, *args, **kwargs):
            result = original_stream(sim, netlist, *args, **kwargs)
            self.fpga[netlist.name].append(result.cycles)
            return result

        monkeypatch.setattr(FPGASimulator, "run_stream", run_stream)

    def _wrap_gpu(self, monkeypatch, name):
        original = getattr(GPUSimulator, name)

        def wrapper(sim, kernel, *args, **kwargs):
            execution = original(sim, kernel, *args, **kwargs)
            self.gpu[kernel.name].extend(execution.per_item_cycles)
            return execution

        monkeypatch.setattr(GPUSimulator, name, wrapper)

    def snapshot(self) -> dict:
        # Sorted per kernel: the threaded scheduler may batch a stream
        # differently between runs; each item's lane cycles may not move.
        return {
            "gpu_lane_cycles": {k: sorted(v) for k, v in sorted(self.gpu.items())},
            "fpga_run_cycles": {k: sorted(v) for k, v in sorted(self.fpga.items())},
        }


def record_app(name: str, monkeypatch) -> dict:
    compiled = compile_app(name)
    entry, args = workloads.small_args(name)
    rows = {}
    for placement, policy in placements(compiled):
        for scheduler in SCHEDULERS:
            with monkeypatch.context() as patch:
                devices = _DeviceRecorder(patch)
                runtime = Runtime(
                    compiled,
                    RuntimeConfig(policy=policy, scheduler=scheduler),
                )
                out = runtime.run(entry, args)
            rows[f"{placement}/{scheduler}"] = {
                "host_cycles": out.ledger.host_cycles,
                "total_s": out.ledger.total_s,
                "offloads": sorted(
                    [o.device, o.kernel_s] for o in out.ledger.offloads
                ),
                "profile": {
                    method: [calls, cycles]
                    for method, calls, cycles in sorted(
                        runtime.profile(top=len(runtime.interp.method_stats))
                    )
                },
                **devices.snapshot(),
            }
    return rows


@pytest.fixture(scope="module")
def golden() -> dict:
    with open(GOLDEN) as f:
        return json.load(f)


@pytest.mark.parametrize("name", sorted(SUITE))
def test_modeled_cycles_match_golden(name, golden, monkeypatch):
    assert name in golden, f"no golden cycles for {name}"
    got = json.loads(json.dumps(record_app(name, monkeypatch)))
    assert got == golden[name]


def _write() -> None:
    patch = pytest.MonkeyPatch()
    try:
        data = {name: record_app(name, patch) for name in sorted(SUITE)}
    finally:
        patch.undo()
    with open(GOLDEN, "w") as f:
        f.write("{\n" + ",\n".join(
            f"{json.dumps(name)}: {json.dumps(rows, sort_keys=True)}"
            for name, rows in data.items()
        ) + "\n}\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python -m tests.test_golden_cycles --write")
    _write()
