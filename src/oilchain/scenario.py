"""Scenario files in, deterministic run reports out.

A scenario is a JSON document (schema_version 1) describing the topology,
one or more batches, the hops each batch takes, per-hop telemetry profiles
with optional injected faults, and how each buyer accepts. Running one
replays the whole custody workflow; the resulting report is a pure function
of (scenario, seed) and is compared byte-for-byte in tests.
"""

from __future__ import annotations

import json
import reprlib
import sys
from collections import defaultdict
from dataclasses import dataclass
from functools import partial
from pathlib import Path

from . import identity, ledger, runtime, telemetry
from .contracts.base import stage_label
from .encoding import canon_decode
from .errors import InvalidRolePair, InvalidValidatorSet, OilchainError, ParseError, ValidationError
from .identity import Role, address_hex
from .provenance import batch_text, build_reports
from .telemetry import FaultSpec, ReadingKind, SensorProfile
from .workflow import (REQUIRED_ROLES, SETTLEMENT_FUNCTION, HopStatus, Setpoints, SupplyChain,
                       TermSheet, Topology, check_custody)

SCENARIO_SCHEMA_VERSION = 1
RUN_REPORT_SCHEMA_VERSION = 1

# longest telemetry stream a hop may ask for; a stream is built whole in memory
MAX_DURATION_TICKS = 10_000


@dataclass(frozen=True)
class HopSpec:
    seller: Role
    buyer: Role
    terms: TermSheet
    accept_method: str                  # "signature" or "passphrase"
    profile: SensorProfile
    faults: tuple[FaultSpec, ...] = ()


@dataclass(frozen=True)
class BatchSpec:
    batch_id: str
    oil_name: str
    setpoints: Setpoints
    hops: tuple[HopSpec, ...]


@dataclass(frozen=True)
class Scenario:
    name: str
    seed: int
    validator_count: int
    faulty_validators: int
    roles: tuple[Role, ...]
    batches: tuple[BatchSpec, ...]
    eth_usd: float = runtime.DEFAULT_ETH_USD
    byzantine_validators: int = 0


@dataclass
class RunResult:
    report: dict
    supply: SupplyChain
    violations_found: bool


# --- parsing ---------------------------------------------------------------------
#
# One table per JSON object of a scenario document states each of its fields
# once: `key=converter` when the key is required, `key=(converter, default)`
# when it is not, the default being a document value. A converter takes a
# value and its path and returns the parsed value or raises ValidationError
# naming that path. The rules that span fields follow the tables.

_REQUIRED = object()


def _shown(value) -> str:
    """A value as an error message shows it: its repr, cut to about 60 characters."""
    text = reprlib.repr(value)
    return text if len(text) <= 60 else text[:57] + "..."


def _instance(kind: type, name: str):
    """The converter of a value that must be a `kind`, called `name` in messages."""
    def convert(value, where: str):
        if not isinstance(value, kind):
            raise ValidationError(f"{where}: expected {name}, got {type(value).__name__}")
        return value
    return convert


_string = _instance(str, "a string")
_mapping = _instance(dict, "an object")
_list = _instance(list, "a list")


def _list_of(item):
    """The converter of a list whose items each go through `item`, to a tuple."""
    return lambda value, where: tuple(item(v, f"{where}[{i}]")
                                      for i, v in enumerate(_list(value, where)))


def _member(by_name: dict, what: str):
    """The converter of a name to what `by_name` maps it to."""
    def convert(name, where: str):
        if not isinstance(name, str) or name not in by_name:
            raise ValidationError(f"{where}: unknown {what} {_shown(name)}")
        return by_name[name]
    return convert


_role = _member({role.value: role for role in Role}, "role")
_kind = _member({kind.value: kind for kind in ReadingKind}, "reading kind")
_accept_method = _member({method: method for method in ("signature", "passphrase")}, "method")


def _bounded_int(value, where: str, minimum: int | None = 0) -> int:
    """An integer, at least `minimum` unless that is None."""
    if (not isinstance(value, int) or isinstance(value, bool)
            or minimum is not None and value < minimum):
        bound = "" if minimum is None else f" >= {minimum}, got {_shown(value)}"
        raise ValidationError(f"{where}: expected an integer{bound}")
    return value


def check_seed(value, where: str) -> int:
    """A run seed, from a scenario file or the command line."""
    if (not isinstance(value, int) or isinstance(value, bool)
            or not 0 <= value < identity.SEED_LIMIT):
        raise ValidationError(f"{where}: expected an integer in [0, 2**63), got {_shown(value)}")
    return value


def check_eth_usd(value, where: str) -> float:
    """A fiat rate, from a scenario file or the command line: positive and finite."""
    if (not isinstance(value, (int, float)) or isinstance(value, bool)
            or not 0 < value <= sys.float_info.max):
        raise ValidationError(
            f"{where}: must be a positive number up to {sys.float_info.max:g}"
        )
    return float(value)


def _schema_version(value, where: str) -> int:
    if type(value) is not int or value != SCENARIO_SCHEMA_VERSION:
        raise ValidationError(
            f"{where}: {_shown(value)} unsupported (expected {SCENARIO_SCHEMA_VERSION})")
    return value


def _passphrase(value, where: str) -> str | None:
    if value is not None and not _string(value, where):
        raise ValidationError(f"{where}: must not be empty")
    return value


def _extra_setpoints(value, where: str) -> dict[ReadingKind, telemetry.Value]:
    """Setpoints by kind name: a Location is a [lat, lon] pair of integers,
    any other kind an integer >= 0."""
    extra: dict[ReadingKind, telemetry.Value] = {}
    for key, setpoint in _mapping(value, where).items():
        kind = _kind(key, where)
        if kind is not ReadingKind.LOCATION:
            extra[kind] = _bounded_int(setpoint, f"{where}.{key}")
        elif (isinstance(setpoint, list) and len(setpoint) == 2
              and all(type(v) is int for v in setpoint)):
            extra[kind] = (setpoint[0], setpoint[1])
        else:
            raise ValidationError(f"{where}.{key}: expected [lat, lon] integers")
    return extra


class _Table:
    """The fields of one JSON object. Reading an object refuses a key the table
    does not list, converts every field, and passes them by name to `build`."""

    def __init__(self, build=dict, /, **fields):
        self.build = build
        self.fields = {key: f if isinstance(f, tuple) else (f, _REQUIRED)
                       for key, f in fields.items()}

    def __call__(self, value, where: str):
        doc = _mapping(value, where)
        for key in doc:
            if key not in self.fields:
                import difflib      # only a refused document needs it
                path = f"{where}.{key}" if key.isidentifier() else f"{where}[{_shown(key)}]"
                close = difflib.get_close_matches(key, self.fields, n=1)
                hint = f"; did you mean {close[0]!r}?" if close else ""
                raise ValidationError(f"{path}: unknown key{hint}")
        values = {}
        for key, (convert, default) in self.fields.items():
            if key not in doc and default is _REQUIRED:
                raise ValidationError(f"{where}: missing required field {key!r}")
            values[key] = convert(doc.get(key, default), f"{where}.{key}")
        return self.build(**values)


_FAULT = _Table(FaultSpec, kind=_kind, start=_bounded_int, end=_bounded_int,
                offset=partial(_bounded_int, minimum=None))
_TELEMETRY = _Table(duration=partial(_bounded_int, minimum=1), kinds=_list_of(_kind),
                    noise_amplitude=(_bounded_int, 0), extra_setpoints=(_extra_setpoints, {}),
                    faults=(_list_of(_FAULT), []))
_ACCEPT = _Table(method=(_accept_method, "signature"), passphrase=(_passphrase, None))
_HOP = _Table(seller=_role, buyer=_role, price=_bounded_int, quantity=_bounded_int,
              accept=(_ACCEPT, {}), telemetry=_TELEMETRY)
_SETPOINTS = _Table(Setpoints, temperature=_bounded_int, humidity=_bounded_int,
                    pressure=_bounded_int)
_BATCH = _Table(batch_id=_string, oil_name=_string, setpoints=_SETPOINTS, hops=_list_of(_HOP))
_TOPOLOGY = _Table(validators=partial(_bounded_int, minimum=1),
                   faulty_validators=(_bounded_int, 0), byzantine_validators=(_bounded_int, 0),
                   roles=_list_of(_role))
_REPORT = _Table(eth_usd=(check_eth_usd, runtime.DEFAULT_ETH_USD))
_DOCUMENT = _Table(schema_version=_schema_version, name=_string, seed=check_seed,
                   topology=_TOPOLOGY, batches=_list_of(_BATCH), report=(_REPORT, {}))

# the scenario schema: every table by name
TABLES = {"document": _DOCUMENT, "topology": _TOPOLOGY, "batch": _BATCH,
          "setpoints": _SETPOINTS, "hop": _HOP, "accept": _ACCEPT, "telemetry": _TELEMETRY,
          "fault": _FAULT, "report": _REPORT}


def load_scenario(path: str | Path) -> Scenario:
    """Parse and validate a scenario file."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8: {exc.reason} at byte {exc.start}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: line {exc.lineno}: {exc.msg}") from exc
    except ValueError as exc:
        raise ParseError(f"{path}: {exc}") from exc
    except RecursionError:
        raise ParseError(f"{path}: nested too deeply") from None
    return parse_scenario(doc, where=str(path.name))


def parse_scenario(doc: dict, where: str = "scenario") -> Scenario:
    """Read a document through its tables, then check the rules across fields."""
    if not isinstance(doc, dict):
        raise ValidationError(f"{where}: document must be an object")
    fields = _DOCUMENT(doc, where)
    topo, tw = fields["topology"], f"{where}.topology"
    validators, faulty, byzantine, roles = (
        topo["validators"], topo["faulty_validators"], topo["byzantine_validators"], topo["roles"])
    try:
        ledger.quorum_fault_bound(validators)
    except InvalidValidatorSet as exc:
        raise ValidationError(f"{tw}.validators: {exc}") from exc
    if faulty > validators:
        raise ValidationError(f"{tw}.faulty_validators: {faulty} silent validators"
                              f" exceed the {validators} validators")
    if faulty + byzantine > validators:
        raise ValidationError(f"{tw}.byzantine_validators: {faulty} silent plus {byzantine}"
                              f" Byzantine validators exceed the {validators} validators")
    if len(set(roles)) != len(roles):
        raise ValidationError(f"{tw}.roles: duplicate role")
    for role in REQUIRED_ROLES:
        if role not in roles:
            raise ValidationError(f"{tw}.roles: missing required role {role.value}")
    batches: list[BatchSpec] = []
    for i, batch in enumerate(fields["batches"]):
        bw = f"{where}.batches[{i}]"
        if any(b.batch_id == batch["batch_id"] for b in batches):
            raise ValidationError(f"{bw}.batch_id: batch {_shown(batch['batch_id'])} appears twice")
        batches.append(_batch(batch, bw, roles))
    if not batches:
        raise ValidationError(f"{where}.batches: at least one batch required")
    return Scenario(fields["name"], fields["seed"], validators, faulty, roles, tuple(batches),
                    fields["report"]["eth_usd"], byzantine)


def _batch(batch: dict, where: str, roles: tuple[Role, ...]) -> BatchSpec:
    """A batch whose hops go in custody order, each to an actor of the topology."""
    hops: list[HopSpec] = []
    for j, hop in enumerate(batch["hops"]):
        hw = f"{where}.hops[{j}]"
        try:
            check_custody(hops[-1].buyer if hops else None, hop["seller"], hop["buyer"])
        except InvalidRolePair as exc:
            raise ValidationError(f"{hw}.seller: {exc}") from exc
        if hop["buyer"] not in roles:
            raise ValidationError(f"{hw}.buyer: topology has no {hop['buyer'].value} actor")
        accept = hop["accept"]
        if accept["method"] == "passphrase" and accept["passphrase"] is None:
            raise ValidationError(f"{hw}.accept: passphrase method needs a passphrase")
        terms = TermSheet(batch["batch_id"], batch["oil_name"], hop["quantity"], hop["price"],
                          batch["setpoints"], accept["passphrase"])
        profile, faults = _telemetry(hop["telemetry"], f"{hw}.telemetry", batch["setpoints"])
        hops.append(HopSpec(hop["seller"], hop["buyer"], terms, accept["method"], profile, faults))
    if not hops:
        raise ValidationError(f"{where}.hops: at least one hop required")
    return BatchSpec(batch["batch_id"], batch["oil_name"], batch["setpoints"], tuple(hops))


def _telemetry(fields: dict, where: str, setpoints: Setpoints,
               ) -> tuple[SensorProfile, tuple[FaultSpec, ...]]:
    """A hop's sensor profile and faults, each kind's setpoint resolved.

    Temperature, humidity and pressure take the batch setpoints and refuse an
    `extra_setpoints` entry; every other kind needs one.
    """
    duration, extra = fields["duration"], fields["extra_setpoints"]
    if duration > MAX_DURATION_TICKS:
        raise ValidationError(f"{where}.duration: at most {MAX_DURATION_TICKS} ticks,"
                              f" got {duration}")
    for kind in extra:
        if kind in telemetry.CHECK_FUNCTION:
            raise ValidationError(f"{where}.extra_setpoints.{kind.value}:"
                                  f" {kind.value} takes the batch setpoint")
    values = {**extra, ReadingKind.TEMPERATURE: setpoints.temperature,
              ReadingKind.HUMIDITY: setpoints.humidity, ReadingKind.PRESSURE: setpoints.pressure}
    streamed: dict[ReadingKind, telemetry.Value] = {}
    for i, kind in enumerate(fields["kinds"]):
        if kind in streamed:
            raise ValidationError(f"{where}.kinds[{i}]: duplicate reading kind {kind.value}")
        if kind not in values:
            raise ValidationError(f"{where}.kinds[{i}]: reading kind {kind.value}"
                                  f" needs an extra_setpoints entry")
        streamed[kind] = values[kind]
    for i, fault in enumerate(fields["faults"]):
        fw = f"{where}.faults[{i}]"
        if fault.kind not in streamed:
            raise ValidationError(f"{fw}.kind: the hop streams no {fault.kind.value} readings")
        if fault.start > fault.end or fault.end >= duration:
            raise ValidationError(f"{fw}: window [{fault.start}, {fault.end}]"
                                  f" is not inside ticks [0, {duration - 1}]")
    return SensorProfile(duration, streamed, fields["noise_amplitude"]), fields["faults"]


# --- running ----------------------------------------------------------------------

def run_scenario(scenario: Scenario, seed: int | None = None,
                 eth_usd: float | None = None) -> RunResult:
    """Replay a scenario end to end and assemble its report."""
    seed = scenario.seed if seed is None else check_seed(seed, "seed")
    eth_usd = scenario.eth_usd if eth_usd is None else check_eth_usd(eth_usd, "eth_usd")

    topology = Topology.from_seed(list(scenario.roles), scenario.validator_count, seed)
    # the last validators are silent and the first ones equivocate
    validators = [v.address for v in topology.validators]
    supply = SupplyChain(topology, seed,
                         frozenset(validators[len(validators) - scenario.faulty_validators:]),
                         frozenset(validators[:scenario.byzantine_validators]))

    for batch_spec in scenario.batches:
        batch = supply.register_batch(batch_spec.batch_id, batch_spec.setpoints)
        for hop_spec in batch_spec.hops:
            hop = supply.initiate_hop(batch, hop_spec.seller, hop_spec.buyer, hop_spec.terms)

            if hop_spec.accept_method == "signature":
                credential = identity.sign(supply.accept_digest(hop), hop.buyer.private_key)
            else:
                credential = hop_spec.terms.passphrase
            supply.accept_shipment(hop, credential)

            readings = telemetry.generate_readings(
                hop_spec.profile,
                telemetry.stream_seed(seed, batch.batch_id, hop.index),
                source=hop.data_address,
            )
            for fault in hop_spec.faults:
                readings = telemetry.inject_fault(readings, fault)
            supply.feed(hop, readings)
            supply.deliver(hop)

    report = build_run_report(scenario, supply, seed, eth_usd)
    violations = any(not b["clean"] for b in report["batches"])
    return RunResult(report=report, supply=supply, violations_found=violations)


def run_scenario_file(path: str | Path, seed: int | None = None,
                      eth_usd: float | None = None) -> RunResult:
    return run_scenario(load_scenario(path), seed=seed, eth_usd=eth_usd)


# --- reporting ----------------------------------------------------------------------

def build_run_report(scenario: Scenario, supply: SupplyChain, seed: int,
                     eth_usd: float) -> dict:
    """The run report, from the scenario header and the chains alone: of
    `supply` it reads `all_chains()` and nothing else."""
    all_chains = supply.all_chains()
    consortium = next(c for c in all_chains if c.chain_class is ledger.ChainClass.CONSORTIUM)
    traces = build_reports(consortium, [b.batch_id for b in scenario.batches])
    distributions = runtime.replay(consortium, {t.distribution_contract for t in traces})

    chains = []
    total_tx_gas = 0
    total_exec_gas = 0
    calls = 0
    settlements = []
    # encoded raw-telemetry records per product contract, oldest first; each
    # private chain's product contracts are deployed by its owner, so none is shared
    records: defaultdict[bytes, list[bytes]] = defaultdict(list)
    for chain in all_chains:
        chains.append({
            "name": chain.name,
            "class": chain.chain_class.value,
            "blocks": len(chain),
            "tip_hash": chain.tip_hash.hex(),
        })
        for block in chain.blocks:
            for tx in block.transactions:
                calls += 1
                total_tx_gas += tx.gas_used
                total_exec_gas += runtime.metered_cost(tx.function).execution
                if tx.function == SETTLEMENT_FUNCTION:
                    record = canon_decode(tx.args)
                    settlements.append({
                        "batch_id": record["batch"],
                        "hop": record["hop"],
                        "payer": address_hex(record["payer"]),
                        "payee": address_hex(record["payee"]),
                        "amount": record["amount"],
                        "tick": block.timestamp,
                    })
                elif tx.function == telemetry.RECORD_FUNCTION:
                    records[tx.contract].append(tx.args)
    # ticks come from the clock all chains share, so this is acceptance order
    settlements.sort(key=lambda s: s["tick"])
    settlement_tick = {(s["batch_id"], s["hop"]): s["tick"] for s in settlements}
    fiat = {
        speed: runtime.fiat_cost(total_exec_gas, price, eth_usd)
        for speed, price in runtime.GAS_PRICES_GWEI.items()
    }

    batches = []
    for spec, trace in zip(scenario.batches, traces):
        hops = []
        for summary in trace.hops:
            fed = records[bytes.fromhex(summary.product_contract[2:])]
            settled = settlement_tick.get((trace.batch_id, summary.index))
            # delivery fires the hop's spine step; acceptance records its settlement
            status = (HopStatus.DELIVERED if summary.distribution_events
                      else HopStatus.PROPOSED if settled is None else HopStatus.ACCEPTED)
            hops.append({
                **summary.to_dict(),
                "status": stage_label(status),
                # each committed check emitted one stage event on the tracking contract
                "readings_fed": summary.accurate_readings + len(summary.violations) + len(fed),
                "weight_delta": telemetry.weight_delta(fed),
                "settlement_tick": settled,
                "final_state": summary.final_state(),
            })
        batches.append({
            "batch_id": trace.batch_id,
            "oil_name": spec.oil_name,
            "clean": trace.clean,
            "violation_totals": trace.violation_totals,
            "distribution_state": distributions[trace.distribution_contract].snapshot(),
            "hops": hops,
        })

    return {
        "schema_version": RUN_REPORT_SCHEMA_VERSION,
        "scenario": scenario.name,
        "seed": seed,
        "eth_usd": eth_usd,
        "chains": chains,
        "batches": batches,
        "gas": {
            "calls": calls,
            "total_execution_gas": total_exec_gas,
            "total_transaction_gas": total_tx_gas,
            "fiat_usd": fiat,
        },
        "settlements": settlements,
    }


def report_to_json(report: dict) -> str:
    return json.dumps(report, indent=2) + "\n"


def report_to_text(report: dict) -> str:
    lines = [
        f"scenario {report['scenario']} (seed {report['seed']})",
        f"eth_usd rate: {report['eth_usd']}",
        "",
        "chains:",
    ]
    for chain in report["chains"]:
        lines.append(
            f"  {chain['name']:<12} {chain['class']:<11} blocks={chain['blocks']:<5}"
            f" tip={chain['tip_hash'][:16]}..."
        )
    for batch in report["batches"]:
        lines.append("")
        lines.extend(batch_text(batch))
        lines.append(
            f"  oil: {batch['oil_name']},"
            f" custody stage: {batch['distribution_state']['current_trace']}"
        )
    gas = report["gas"]
    lines.append("")
    lines.append(
        f"gas: {gas['calls']} calls,"
        f" execution={gas['total_execution_gas']},"
        f" transaction={gas['total_transaction_gas']}"
    )
    fiat = gas["fiat_usd"]
    lines.append(
        "fiat (execution gas): "
        + ", ".join(f"{speed}=${fiat[speed]:.5f}" for speed in fiat)
    )
    lines.append(f"settlements: {len(report['settlements'])}")
    return "\n".join(lines) + "\n"


__all__ = [
    "BatchSpec",
    "HopSpec",
    "OilchainError",
    "RunResult",
    "Scenario",
    "TABLES",
    "build_run_report",
    "check_eth_usd",
    "check_seed",
    "load_scenario",
    "parse_scenario",
    "report_to_json",
    "report_to_text",
    "run_scenario",
    "run_scenario_file",
]
