"""One benchmark iteration: every user-facing phase, each output checked.

The phases are what `oilchain run --store`, `verify` and `trace` users wait
on: parse, run, report, save, load, quorum re-check and trace. Each phase
call is one operation. It fails if it raises or its output fails a check;
a failure is recorded and the iteration goes on, so one bad output never
hides the others.
"""

from __future__ import annotations

import hashlib
import shutil
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

from oilchain import ledger, provenance, scenario, store

from workloads import Workload

PHASES = ("parse", "run", "report", "save", "load", "quorum", "trace")


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class Bench:
    """Runs iterations of one workload and keeps the samples and the checks."""

    def __init__(self, workload: Workload, doc: dict, work_dir: Path,
                 repeats: int, phase_seconds: float):
        self.workload = workload
        self.doc = doc
        self.work_dir = work_dir
        self.repeats = repeats
        self.phase_seconds = phase_seconds
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        # fixed by the first iteration, compared by every later one
        self.report_sha: str | None = None
        self.tx_count: int | None = None
        self.block_count: int | None = None
        self.consortium_blocks: int | None = None
        self.store_bytes: int | None = None
        self.last_elapsed = 0.0
        self._iterations = 0

    # --- operations ---------------------------------------------------------------

    def _op(self, phase: str, record: bool, tracer, check, fn, *args):
        """Time one phase call; returns its result, or None if it failed."""
        self.attempted += 1
        try:
            started = time.perf_counter()
            if tracer is None:
                result = fn(*args)
            else:
                result = tracer.run_phase(phase, fn, *args)
            elapsed = time.perf_counter() - started
            problem = check(result)
        except Exception as exc:  # a failed operation must not end the run
            traceback.print_exc(file=sys.stderr)
            result, problem = None, f"raised {type(exc).__name__}: {exc}"
        if problem:
            self.failed += 1
            self.failures.append(f"{phase}: {problem}")
            return None
        self.last_elapsed = elapsed
        if record:
            self.samples[phase].append(elapsed)
        return result

    def _skip(self, phases: tuple[str, ...]) -> None:
        """Phases that cannot run because one they need failed count as failed."""
        for phase in phases:
            self.attempted += 1
            self.failed += 1
            self.failures.append(f"{phase}: skipped, an earlier phase failed")

    # --- one iteration -----------------------------------------------------------------

    def iteration(self, record: bool = True, tracer=None) -> float | None:
        """Run every phase once and each cheap one (report, save, load,
        trace) at least `repeats` times and for at least `phase_seconds`;
        each phase once when traced. Returns the run phase's wall time, or
        None if it failed."""
        self._iterations += 1
        directory = self.work_dir / f"iter-{self._iterations}"
        try:
            return self._phases(record, tracer, directory)
        finally:
            shutil.rmtree(directory, ignore_errors=True)

    def _calls(self, tracer):
        """Call indices for one cheap phase: at least `repeats` calls and at
        least `phase_seconds` of them, so that even the slowest cheap phase
        is called dozens of times per run and a sub-millisecond one
        thousands of times."""
        repeats, seconds = (1, 0.0) if tracer is not None else (self.repeats, self.phase_seconds)
        started = time.perf_counter()
        i = 0
        while i < repeats or time.perf_counter() - started < seconds:
            yield i
            i += 1

    def _phases(self, record: bool, tracer, directory: Path):
        spec = self.workload
        op = self._op

        sc = op("parse", record, tracer, self._check_parse,
                scenario.parse_scenario, self.doc)
        if sc is None:
            self._skip(PHASES[1:])
            return None

        result = op("run", record, tracer, self._check_run, scenario.run_scenario, sc)
        if result is None:
            self._skip(PHASES[2:])
            return None
        run_s = self.last_elapsed
        chains = result.supply.all_chains()
        report_json = scenario.report_to_json(result.report)
        totals = {b["batch_id"]: b["violation_totals"] for b in result.report["batches"]}
        tips = {store.chain_dir_name(c): c.tip_hash.hex() for c in chains}

        def report():
            return scenario.report_to_json(
                scenario.build_run_report(sc, result.supply, sc.seed, sc.eth_usd))

        for _ in self._calls(tracer):
            op("report", record, tracer, self._check_report, report)

        def save(root: Path) -> Path:
            store.save_store(root, chains)
            (root / "report.json").write_text(report_json)
            return root

        saved = None
        for i in self._calls(tracer):
            got = op("save", record, tracer, self._check_saved, save, directory / f"store-{i}")
            if got is not None:
                # Unwritten pages of earlier stores slow every later save, so
                # only the newest store is kept.
                if saved is not None:
                    shutil.rmtree(saved, ignore_errors=True)
                saved = got
        if saved is None:
            self._skip(("load", "quorum", "trace"))
            return run_s

        def check_loaded(loaded: dict) -> str | None:
            got = {name: chain.tip_hash.hex() for name, chain in loaded.items()}
            return None if got == tips else "loaded tip hashes differ from the run's"

        loaded = None
        for _ in self._calls(tracer):
            loaded = op("load", record, tracer, check_loaded, store.load_store, saved) or loaded
        if loaded is None:
            self._skip(("quorum", "trace"))
            return run_s

        def quorum() -> list[bool]:
            return [ledger.verify_endorsement_quorum(c) for c in loaded.values()]

        op("quorum", record, tracer,
           lambda ok: None if all(ok) else "endorsement quorum check returned False",
           quorum)

        consortium = next(c for c in loaded.values()
                          if c.chain_class is ledger.ChainClass.CONSORTIUM)
        batch_ids = [b.batch_id for b in sc.batches]

        def trace() -> list:
            return [provenance.build_report(consortium, bid) for bid in batch_ids]

        def check_trace(reports: list) -> str | None:
            for rep in reports:
                if rep.violation_totals != totals[rep.batch_id]:
                    return f"batch {rep.batch_id}: trace totals differ from the run report"
                want_totals = {"Temperature": 0, "Humidity": 0, "Pressure": 0}
                for hop in rep.hops:
                    got = {"Temperature": 0, "Humidity": 0, "Pressure": 0}
                    for v in hop.violations:
                        got[v.kind] += 1
                    want = spec.expected_violations(hop.index)
                    if got != want:
                        return f"batch {rep.batch_id} hop {hop.index}: violations {got}"
                    for kind, count in want.items():
                        want_totals[kind] += count
                if rep.violation_totals != want_totals:
                    return f"batch {rep.batch_id}: violation totals {rep.violation_totals}"
            return None

        for _ in self._calls(tracer):
            op("trace", record, tracer, check_trace, trace)
        return run_s

    # --- checks -------------------------------------------------------------------------

    def _check_parse(self, sc) -> str | None:
        want = len(self.doc["batches"])
        return None if len(sc.batches) == want else f"{len(sc.batches)} batches, want {want}"

    def _check_run(self, result) -> str | None:
        chains = result.supply.all_chains()
        tx_count = sum(len(b.transactions) for c in chains for b in c.blocks)
        block_count = sum(len(c.blocks) - 1 for c in chains)      # without genesis
        sha = _sha(scenario.report_to_json(result.report))
        if self.report_sha is None:
            self.report_sha, self.tx_count, self.block_count = sha, tx_count, block_count
            self.consortium_blocks = len(result.supply.consortium_chain) - 1
        if sha != self.report_sha:
            return "report sha256 differs from the first run's"
        if tx_count != self.tx_count:
            return f"{tx_count} transactions, first run had {self.tx_count}"
        expect_violations = self.workload.pressure_fault_hop is not None
        if result.violations_found != expect_violations:
            return f"violations_found is {result.violations_found}"
        return None

    def _check_report(self, text: str) -> str | None:
        return None if _sha(text) == self.report_sha else "report sha256 differs"

    def _check_saved(self, root: Path) -> str | None:
        if _sha((root / "report.json").read_text()) != self.report_sha:
            return "saved report.json differs"
        size = sum(p.stat().st_size for p in root.rglob("*") if p.is_file())
        if self.store_bytes is None:
            self.store_bytes = size
        return None if size == self.store_bytes else f"store is {size} bytes, was {self.store_bytes}"
