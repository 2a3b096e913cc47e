"""Benchmark workloads, generated in-process from the bundled scenarios.

Each workload clones batch 101 of one bundled scenario under new batch ids
and pushes one axis of the scenario space to its extreme: telemetry length,
batch count, or validator count with silent validators. The workload seed
becomes the scenario seed, which derives every key, and it places each
3-tick fault window inside its hop. Seeds change bytes and tick positions,
never the number of blocks or transactions.
"""

from __future__ import annotations

import copy
import json
import random
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Workload:
    """One workload's shape; BENCHMARK.json says why each was chosen."""

    name: str
    base: str                               # file under scenarios/
    batches: int
    validators: int
    silent: int
    durations: tuple[int, ...] | None       # per hop, in order; None keeps stock
    pressure_fault_hop: int | None          # hop whose 3-tick Pressure fault is kept
    smoke_batches: int = 1
    smoke_durations: tuple[int, ...] | None = None

    def expected_violations(self, hop_index: int) -> dict[str, int]:
        """Violations the trace must show on one hop of every batch."""
        totals = {"Temperature": 0, "Humidity": 0, "Pressure": 0}
        if hop_index == self.pressure_fault_hop:
            totals["Pressure"] = 3
        return totals


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="telemetry-long",
            base="happy_path.json",
            batches=1,
            validators=4,
            silent=0,
            durations=(50, 53, 57, 60),
            pressure_fault_hop=None,
            smoke_durations=(3, 4, 4, 5),
        ),
        Workload(
            name="many-batches",
            base="happy_path.json",
            batches=12,
            validators=4,
            silent=0,
            durations=None,
            pressure_fault_hop=None,
            smoke_batches=2,
        ),
        Workload(
            name="wide-quorum-faults",
            base="pressure_fault_hop2.json",
            batches=1,
            validators=13,
            silent=4,
            durations=(18, 20, 20, 22),
            pressure_fault_hop=2,
            smoke_durations=(4, 4, 5, 5),
        ),
    )
}


def build_document(workload: Workload, seed: int, scenarios_dir: Path,
                   smoke: bool = False) -> dict:
    """The scenario document for one workload and seed (schema_version 1)."""
    doc = json.loads((scenarios_dir / workload.base).read_text())
    template = next(b for b in doc["batches"] if b["batch_id"] == "101")
    rng = random.Random(f"{workload.name}:{seed}")
    count = workload.smoke_batches if smoke else workload.batches
    durations = workload.smoke_durations if smoke else workload.durations

    doc["name"] = f"bench-{workload.name}"
    doc["seed"] = seed
    doc["topology"]["validators"] = workload.validators
    doc["topology"]["faulty_validators"] = workload.silent
    doc["batches"] = []
    for i in range(count):
        batch = copy.deepcopy(template)
        batch["batch_id"] = str(101 + i)
        if durations is not None:
            for hop, duration in zip(batch["hops"], durations):
                hop["telemetry"]["duration"] = duration
        for hop in batch["hops"]:
            for fault in hop["telemetry"].get("faults", []):
                # a 3-tick window anywhere inside the hop's stream
                start = rng.randint(1, hop["telemetry"]["duration"] - 3)
                fault["start"], fault["end"] = start, start + 2
        doc["batches"].append(batch)
    return doc
