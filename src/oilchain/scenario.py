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

_ROLE_BY_NAME = {role.value: role for role in Role}
_KIND_BY_NAME = {kind.value: kind for kind in ReadingKind}


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

_TYPE_NAME = {dict: "an object", list: "a list", str: "a string"}


def _shown(value) -> str:
    """A value as an error message shows it: its repr, cut to about 60 characters."""
    text = reprlib.repr(value)
    return text if len(text) <= 60 else text[:57] + "..."


def _typed(value, kind: type, where: str):
    if not isinstance(value, kind):
        raise ValidationError(f"{where}: expected {_TYPE_NAME[kind]}, got {type(value).__name__}")
    return value


def _need(mapping: dict, key: str, where: str, kind: type | None = None):
    if key not in mapping:
        raise ValidationError(f"{where}: missing required field {key!r}")
    if kind is not None:
        _typed(mapping[key], kind, f"{where}.{key}")
    return mapping[key]


def _role(name, where: str) -> Role:
    if not isinstance(name, str) or name not in _ROLE_BY_NAME:
        raise ValidationError(f"{where}: unknown role {_shown(name)}")
    return _ROLE_BY_NAME[name]


def _kind(name, where: str) -> ReadingKind:
    if not isinstance(name, str) or name not in _KIND_BY_NAME:
        raise ValidationError(f"{where}: unknown reading kind {_shown(name)}")
    return _KIND_BY_NAME[name]


def _positive_int(value, where: str, minimum: int = 0) -> int:
    if not isinstance(value, int) or isinstance(value, bool) or value < minimum:
        raise ValidationError(f"{where}: expected an integer >= {minimum}, got {_shown(value)}")
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
    except RecursionError:
        raise ParseError(f"{path}: nested too deeply") from None
    return parse_scenario(doc, where=str(path.name))


def parse_scenario(doc: dict, where: str = "scenario") -> Scenario:
    if not isinstance(doc, dict):
        raise ValidationError(f"{where}: document must be an object")
    version = _need(doc, "schema_version", where)
    if version != SCENARIO_SCHEMA_VERSION:
        raise ValidationError(
            f"{where}: schema_version {_shown(version)} unsupported"
            f" (expected {SCENARIO_SCHEMA_VERSION})"
        )
    name = _need(doc, "name", where, str)
    seed = check_seed(_need(doc, "seed", where), f"{where}.seed")

    topo = _need(doc, "topology", where, dict)
    validators = _positive_int(_need(topo, "validators", f"{where}.topology"),
                               f"{where}.topology.validators", minimum=1)
    try:
        ledger.quorum_fault_bound(validators)
    except InvalidValidatorSet as exc:
        raise ValidationError(f"{where}.topology.validators: {exc}") from exc
    faulty = _positive_int(topo.get("faulty_validators", 0),
                           f"{where}.topology.faulty_validators")
    if faulty > validators:
        raise ValidationError(
            f"{where}.topology.faulty_validators: {faulty} silent validators"
            f" exceed the {validators} validators"
        )
    byzantine = _positive_int(topo.get("byzantine_validators", 0),
                              f"{where}.topology.byzantine_validators")
    if faulty + byzantine > validators:
        raise ValidationError(
            f"{where}.topology.byzantine_validators: {faulty} silent plus"
            f" {byzantine} Byzantine validators exceed the {validators} validators"
        )
    roles = tuple(
        _role(r, f"{where}.topology.roles[{i}]")
        for i, r in enumerate(_need(topo, "roles", f"{where}.topology", list))
    )
    if len(set(roles)) != len(roles):
        raise ValidationError(f"{where}.topology.roles: duplicate role")
    for role in REQUIRED_ROLES:
        if role not in roles:
            raise ValidationError(f"{where}.topology.roles: missing required role {role.value}")

    batches = []
    for bi, batch_doc in enumerate(_need(doc, "batches", where, list)):
        bw = f"{where}.batches[{bi}]"
        _typed(batch_doc, dict, bw)
        batch_id = _need(batch_doc, "batch_id", bw, str)
        if any(b.batch_id == batch_id for b in batches):
            raise ValidationError(f"{bw}.batch_id: batch {_shown(batch_id)} appears twice")
        oil_name = _need(batch_doc, "oil_name", bw, str)
        setp = _need(batch_doc, "setpoints", bw, dict)
        setpoints = Setpoints(
            temperature=_positive_int(_need(setp, "temperature", f"{bw}.setpoints"),
                                      f"{bw}.setpoints.temperature"),
            humidity=_positive_int(_need(setp, "humidity", f"{bw}.setpoints"),
                                   f"{bw}.setpoints.humidity"),
            pressure=_positive_int(_need(setp, "pressure", f"{bw}.setpoints"),
                                   f"{bw}.setpoints.pressure"),
        )
        hops = []
        for hi, hop_doc in enumerate(_need(batch_doc, "hops", bw, list)):
            hw = f"{bw}.hops[{hi}]"
            _typed(hop_doc, dict, hw)
            seller = _role(_need(hop_doc, "seller", hw), f"{hw}.seller")
            buyer = _role(_need(hop_doc, "buyer", hw), f"{hw}.buyer")
            try:
                check_custody(hops[-1].buyer if hops else None, seller, buyer)
            except InvalidRolePair as exc:
                raise ValidationError(f"{hw}.seller: {exc}") from exc
            if buyer not in roles:
                raise ValidationError(f"{hw}.buyer: topology has no {buyer.value} actor")
            accept = _typed(hop_doc.get("accept", {"method": "signature"}), dict, f"{hw}.accept")
            method = accept.get("method", "signature")
            if method not in ("signature", "passphrase"):
                raise ValidationError(f"{hw}.accept.method: unknown method {_shown(method)}")
            passphrase = accept.get("passphrase")
            if passphrase is not None:
                if not _typed(passphrase, str, f"{hw}.accept.passphrase"):
                    raise ValidationError(f"{hw}.accept.passphrase: must not be empty")
            elif method == "passphrase":
                raise ValidationError(f"{hw}.accept: passphrase method needs a passphrase")
            profile, faults = _parse_telemetry(_need(hop_doc, "telemetry", hw, dict),
                                               f"{hw}.telemetry", setpoints)
            hops.append(HopSpec(
                seller=seller,
                buyer=buyer,
                terms=TermSheet(
                    oil_id=batch_id,
                    oil_name=oil_name,
                    quantity=_positive_int(_need(hop_doc, "quantity", hw), f"{hw}.quantity"),
                    price=_positive_int(_need(hop_doc, "price", hw), f"{hw}.price"),
                    setpoints=setpoints,
                    passphrase=passphrase,
                ),
                accept_method=method,
                profile=profile,
                faults=faults,
            ))
        if not hops:
            raise ValidationError(f"{bw}.hops: at least one hop required")
        batches.append(BatchSpec(
            batch_id=batch_id,
            oil_name=oil_name,
            setpoints=setpoints,
            hops=tuple(hops),
        ))
    if not batches:
        raise ValidationError(f"{where}.batches: at least one batch required")

    report = _typed(doc.get("report", {}), dict, f"{where}.report")
    eth_usd = check_eth_usd(report.get("eth_usd", runtime.DEFAULT_ETH_USD),
                            f"{where}.report.eth_usd")

    return Scenario(
        name=name,
        seed=seed,
        validator_count=validators,
        faulty_validators=faulty,
        roles=roles,
        batches=tuple(batches),
        eth_usd=eth_usd,
        byzantine_validators=byzantine,
    )


def _parse_telemetry(doc: dict, where: str, setpoints: Setpoints,
                     ) -> tuple[SensorProfile, tuple[FaultSpec, ...]]:
    """A hop's sensor profile and faults, each kind's setpoint resolved.

    Temperature, humidity and pressure take the batch setpoints and refuse an
    `extra_setpoints` entry; every other kind needs one.
    """
    duration = _positive_int(_need(doc, "duration", where), f"{where}.duration", minimum=1)
    if duration > MAX_DURATION_TICKS:
        raise ValidationError(
            f"{where}.duration: at most {MAX_DURATION_TICKS} ticks, got {duration}"
        )
    amplitude = _positive_int(doc.get("noise_amplitude", 0), f"{where}.noise_amplitude")
    extra = {}
    extra_doc = _typed(doc.get("extra_setpoints", {}), dict, f"{where}.extra_setpoints")
    for key, value in extra_doc.items():
        kind = _kind(key, f"{where}.extra_setpoints")
        kw = f"{where}.extra_setpoints.{key}"
        if kind in telemetry.CHECK_FUNCTION:
            raise ValidationError(f"{kw}: {key} takes the batch setpoint")
        if kind is ReadingKind.LOCATION:
            if (not isinstance(value, list) or len(value) != 2
                    or not all(isinstance(v, int) and not isinstance(v, bool) for v in value)):
                raise ValidationError(f"{kw}: expected [lat, lon] integers")
            extra[kind] = (value[0], value[1])
        else:
            extra[kind] = _positive_int(value, kw)
    values = {
        **extra,
        ReadingKind.TEMPERATURE: setpoints.temperature,
        ReadingKind.HUMIDITY: setpoints.humidity,
        ReadingKind.PRESSURE: setpoints.pressure,
    }
    streamed: dict[ReadingKind, telemetry.Value] = {}
    for i, name in enumerate(_need(doc, "kinds", where, list)):
        kind = _kind(name, f"{where}.kinds[{i}]")
        if kind in streamed:
            raise ValidationError(f"{where}.kinds[{i}]: duplicate reading kind {kind.value}")
        if kind not in values:
            raise ValidationError(
                f"{where}.kinds[{i}]: reading kind {kind.value} needs an extra_setpoints entry"
            )
        streamed[kind] = values[kind]
    faults = []
    for fi, fault_doc in enumerate(_typed(doc.get("faults", []), list, f"{where}.faults")):
        fw = f"{where}.faults[{fi}]"
        _typed(fault_doc, dict, fw)
        offset = _need(fault_doc, "offset", fw)
        if not isinstance(offset, int) or isinstance(offset, bool):
            raise ValidationError(f"{fw}.offset: expected an integer")
        kind = _kind(_need(fault_doc, "kind", fw), f"{fw}.kind")
        if kind not in streamed:
            raise ValidationError(f"{fw}.kind: the hop streams no {kind.value} readings")
        fault = FaultSpec(
            kind=kind,
            start=_positive_int(_need(fault_doc, "start", fw), f"{fw}.start"),
            end=_positive_int(_need(fault_doc, "end", fw), f"{fw}.end"),
            offset=offset,
        )
        if fault.start > fault.end or fault.end >= duration:
            raise ValidationError(
                f"{fw}: window [{fault.start}, {fault.end}]"
                f" is not inside ticks [0, {duration - 1}]"
            )
        faults.append(fault)
    profile = SensorProfile(duration=duration, setpoints=streamed, noise_amplitude=amplitude)
    return profile, tuple(faults)


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
