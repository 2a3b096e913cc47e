"""Scenario files: validation messages, deterministic replay, fault surfacing."""

from __future__ import annotations

import contextlib
import copy
import functools
import hashlib
import io
import json
import re
import string
import tempfile
import types
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import (FIVE_ROLES, JSON_VALUES, SCENARIO_DIR, hand_report, node_paths,
                      standard_terms, with_node_replaced)
from oilchain import identity, runtime, store, telemetry
from oilchain.cli import main
from oilchain.contracts.base import stage_label
from oilchain.errors import OilchainError, ParseError, QuorumNotMet, ValidationError
from oilchain.identity import Role
from oilchain.provenance import batch_text, build_report
from oilchain.scenario import (
    MAX_DURATION_TICKS,
    TABLES,
    Scenario,
    build_run_report,
    load_scenario,
    parse_scenario,
    report_to_json,
    report_to_text,
    run_scenario,
    run_scenario_file,
)
from oilchain.telemetry import FaultSpec, ReadingKind, SensorProfile
from oilchain.workflow import HopStatus, Setpoints, SupplyChain, Topology

HAPPY = SCENARIO_DIR / "happy_path.json"
FAULTED = SCENARIO_DIR / "pressure_fault_hop2.json"
README = Path(__file__).resolve().parents[1] / "README.md"


def minimal_doc() -> dict:
    return {
        "schema_version": 1,
        "name": "minimal",
        "seed": 5,
        "topology": {
            "validators": 4,
            "roles": ["Driller", "Refinery", "Storage", "Pump", "Consumer"],
        },
        "batches": [{
            "batch_id": "7",
            "oil_name": "Petrol",
            "setpoints": {"temperature": 22, "humidity": 10, "pressure": 8},
            "hops": [{
                "seller": "Driller",
                "buyer": "Refinery",
                "price": 100,
                "quantity": 10,
                "telemetry": {
                    "duration": 2,
                    "kinds": ["Temperature", "Humidity", "Pressure"],
                },
            }],
        }],
    }


# --- parsing ---------------------------------------------------------------------

def test_bundled_scenarios_parse():
    happy = load_scenario(HAPPY)
    assert happy.validator_count == 4
    assert len(happy.batches[0].hops) == 4
    faulted = load_scenario(FAULTED)
    faults = faulted.batches[0].hops[1].faults
    assert len(faults) == 1
    assert (faults[0].start, faults[0].end, faults[0].offset) == (1, 3, -2)


def test_minimal_document_parses():
    scenario = parse_scenario(minimal_doc())
    assert scenario.name == "minimal"
    assert scenario.eth_usd == runtime.DEFAULT_ETH_USD
    assert scenario.batches[0].hops[0].accept_method == "signature"


def broken(mutate):
    doc = minimal_doc()
    mutate(doc)
    return doc


def full_custody(doc):
    """doc with batch 0 taken driller -> refinery -> storage -> pump -> consumer."""
    hop = doc["batches"][0]["hops"][0]
    pairs = [("Driller", "Refinery"), ("Refinery", "Storage"), ("Storage", "Pump"),
             ("Pump", "Consumer")]
    doc["batches"][0]["hops"] = [dict(copy.deepcopy(hop), seller=seller, buyer=buyer)
                                 for seller, buyer in pairs]
    return doc


@pytest.mark.parametrize("mutate,needle", [
    (lambda d: d.pop("schema_version"), "schema_version"),
    (lambda d: d.update(schema_version=2), "schema_version"),
    (lambda d: d.pop("seed"), "seed"),
    (lambda d: d.update(seed=-1), "seed"),
    (lambda d: d["topology"].update(validators=5), "validators"),
    (lambda d: d["topology"].update(roles=["Driller", "Driller"]), "roles"),
    (lambda d: d["topology"].update(roles=["Driller", "Wizard"]), "roles[1]"),
    (lambda d: d["batches"][0].pop("setpoints"), "setpoints"),
    (lambda d: d["batches"][0]["setpoints"].pop("pressure"), "pressure"),
    (lambda d: d["batches"][0]["setpoints"].update(pressure=-2), "pressure"),
    (lambda d: d["batches"][0]["hops"][0].update(seller="Wizard"), "seller"),
    (lambda d: d["batches"][0]["hops"][0].update(price="free"), "price"),
    (lambda d: d["batches"][0]["hops"][0].update(
        accept={"method": "handshake"}), "accept.method"),
    (lambda d: d["batches"][0]["hops"][0].update(
        accept={"method": "passphrase"}), "passphrase"),
    (lambda d: d["batches"][0]["hops"][0]["telemetry"].update(duration=0),
     "duration"),
    (lambda d: d["batches"][0]["hops"][0]["telemetry"].update(
        duration=MAX_DURATION_TICKS + 1), "telemetry.duration"),
    (lambda d: d["batches"][0]["hops"][0]["telemetry"].update(
        kinds=["Pressure", "Vibration"]), "kinds[1]"),
    (lambda d: d["batches"][0]["hops"][0]["telemetry"].update(
        faults=[{"kind": "Pressure", "start": 0, "end": 1, "offset": "big"}]),
     "offset"),
    (lambda d: d["batches"][0]["hops"][0]["telemetry"].update(
        extra_setpoints={"Location": [1]}), "Location"),
    (lambda d: d["batches"][0]["hops"][0]["telemetry"].update(
        extra_setpoints={"Location": [True, False]}), "telemetry.extra_setpoints.Location"),
    (lambda d: d["batches"][0]["hops"][0]["telemetry"].update(
        extra_setpoints={"Temperature": 99}), "telemetry.extra_setpoints.Temperature"),
    (lambda d: d["batches"][0]["hops"][0]["telemetry"].update(
        extra_setpoints={"Pressure": 8}), "telemetry.extra_setpoints.Pressure"),
    (lambda d: d.update(batches=[]), "batches"),
    (lambda d: d.update(report={"eth_usd": -3}), "eth_usd"),
    (lambda d: d.update(report={"eth_usd": 10**400}), "report.eth_usd"),
    (lambda d: d["batches"][0]["hops"][0].update(accept="sig"), "hops[0].accept"),
    (lambda d: d["batches"][0].update(hops=3), "batches[0].hops"),
    (lambda d: d.update(report=[]), "scenario.report"),
    (lambda d: d["batches"][0].update(oil_name=2.5), "oil_name"),
    (lambda d: d["topology"].update(roles=[["Driller"]]), "roles[0]"),
    (lambda d: d["batches"][0]["hops"][0]["telemetry"].update(kinds=[{}]), "kinds[0]"),
    (lambda d: d["batches"][0]["hops"][0].update(
        accept={"method": "passphrase", "passphrase": 7}), "accept.passphrase"),
    (lambda d: d["batches"][0]["hops"][0]["telemetry"].update(
        faults=[{"kind": "Weight", "start": 0, "end": 1, "offset": 5}]), "faults[0].kind"),
    (lambda d: d["batches"][0]["hops"][0]["telemetry"].update(
        faults=[{"kind": "Pressure", "start": 1, "end": 2, "offset": 5}]), "faults[0]"),
    (lambda d: d["batches"][0]["hops"][0]["telemetry"].update(
        faults=[{"kind": "Pressure", "start": 1, "end": 0, "offset": 5}]),
     "telemetry.faults[0]"),
    (lambda d: d["batches"].append(copy.deepcopy(d["batches"][0])), "batches[1].batch_id"),
    (lambda d: d["batches"][0]["hops"][0]["telemetry"].update(
        kinds=["Temperature", "Pressure", "Pressure"]), "telemetry.kinds[2]"),
    (lambda d: d["batches"][0]["hops"][0]["telemetry"].update(
        kinds=["Temperature", "Humidity", "Pressure", "Weight"]), "kinds[3]"),
    (lambda d: d["batches"][0].update(batch_id=None), "batches[0].batch_id"),
    (lambda d: d["batches"][0].update(batch_id=["7"]), "batches[0].batch_id"),
    (lambda d: d["topology"]["roles"].remove("Storage"), "topology.roles"),
    (lambda d: full_custody(d)["topology"]["roles"].remove("Consumer"),
     "batches[0].hops[3].buyer"),
    (lambda d: full_custody(d)["batches"][0]["hops"][2].update(seller="Driller"),
     "batches[0].hops[2].seller"),
    (lambda d: d["batches"][0]["hops"][0].update(seller="Refinery"),
     "batches[0].hops[0].seller"),
    (lambda d: d.update(name=None), "scenario.name"),
    (lambda d: d["batches"][0].update(hops=[]), "batches[0].hops:"),
    (lambda d: d["batches"][0]["hops"][0].update(
        accept={"method": "signature", "passphrase": ""}), "hops[0].accept.passphrase"),
    (lambda d: d.update(seed=2**63), "scenario.seed"),
])
def test_validation_errors_name_the_field(mutate, needle):
    with pytest.raises(ValidationError) as err:
        parse_scenario(broken(mutate))
    assert needle in str(err.value)


BUNDLED_DOCS = [json.loads(p.read_text()) for p in (HAPPY, FAULTED)]
BUNDLED_NODES = [(i, path) for i, doc in enumerate(BUNDLED_DOCS) for path in node_paths(doc)]


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(BUNDLED_NODES), JSON_VALUES)
def test_any_one_node_replaced_parses_or_raises_oilchain_error(node, value):
    doc_index, path = node
    doc = with_node_replaced(BUNDLED_DOCS[doc_index], path, value)
    try:
        parsed = parse_scenario(doc)
    except OilchainError:
        return
    assert isinstance(parsed, Scenario)


@pytest.mark.parametrize("mutate,path,suggestion", [
    (lambda d: d["batches"][0]["hops"][0]["telemetry"].update(nosie_amplitude=3),
     "scenario.batches[0].hops[0].telemetry.nosie_amplitude", "noise_amplitude"),
    (lambda d: d["topology"].update(faulty_validator=1),
     "scenario.topology.faulty_validator", "faulty_validators"),
    (lambda d: d["batches"][0]["hops"][0]["telemetry"].update(max_silence_ticks=0),
     "scenario.batches[0].hops[0].telemetry.max_silence_ticks", None),
    (lambda d: d.update({"see notes": 1}), "scenario['see notes']", None),
    (lambda d: d["batches"][0]["setpoints"].update(presure=8),
     "scenario.batches[0].setpoints.presure", "pressure"),
])
def test_unknown_keys_are_refused_naming_their_path(mutate, path, suggestion):
    with pytest.raises(ValidationError) as err:
        parse_scenario(broken(mutate))
    hint = f"; did you mean {suggestion!r}?" if suggestion else ""
    assert str(err.value) == f"{path}: unknown key{hint}"


def test_readme_lists_every_scenario_key():
    section = README.read_text().split("## Scenario files", 1)[1].split("\n## ", 1)[0]
    missing = [key for table in TABLES.values() for key in table.fields
               if f"`{key}`" not in section]
    assert missing == []


# --- one random edit of a bundled scenario -----------------------------------------

def node_at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def path_text(path) -> str:
    return "scenario" + "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in path)


def json_type(value) -> str:
    for name, kinds in (("null", type(None)), ("boolean", bool), ("number", (int, float)),
                        ("string", str), ("array", list), ("object", dict)):
        if isinstance(value, kinds):
            return name
    raise TypeError(value)


OBJECT_NODES = [(i, path) for i, path in BUNDLED_NODES
                if isinstance(node_at(BUNDLED_DOCS[i], path), dict)]
VALUE_NODES = [(i, path) for i, path in BUNDLED_NODES if path]
# a misspelling is a key that no table and no reading kind uses
KNOWN_KEYS = {key for table in TABLES.values() for key in table.fields} | {
    kind.value for kind in ReadingKind}
ANY_TYPE = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=8), st.lists(st.integers(), max_size=2),
    st.dictionaries(st.text(max_size=4), st.integers(), max_size=2),
)


@st.composite
def misspelling(draw, key: str) -> str:
    """`key` with one character deleted, inserted or replaced."""
    i = draw(st.integers(0, len(key) - 1))
    char = draw(st.sampled_from(string.ascii_letters + "_"))
    return draw(st.sampled_from([key[:i] + key[i + 1:], key[:i] + char + key[i:],
                                 key[:i] + char + key[i + 1:]]))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_one_edit_parses_or_is_refused_naming_a_node(data):
    edit = data.draw(st.sampled_from(["drop", "misspell", "retype"]))
    if edit == "retype":
        doc_index, path = data.draw(st.sampled_from(VALUE_NODES))
        original = json_type(node_at(BUNDLED_DOCS[doc_index], path))
        value = data.draw(ANY_TYPE.filter(lambda v: json_type(v) != original))
        doc = with_node_replaced(BUNDLED_DOCS[doc_index], path, value)
    else:
        doc_index, path = data.draw(st.sampled_from(OBJECT_NODES))
        doc = copy.deepcopy(BUNDLED_DOCS[doc_index])
        node = node_at(doc, path)
        key = data.draw(st.sampled_from(sorted(node)))
        if edit == "drop":
            del node[key]
        else:
            new_key = data.draw(misspelling(key))
            assume(new_key not in KNOWN_KEYS)
            node[new_key] = node[key]
    try:
        parse_scenario(doc)
    except ValidationError as err:
        message = str(err)
        # the message starts with the path of a node of the edited document
        head = message.split(": ", 1)[0]
        assert re.fullmatch(r"scenario(\.\w+|\[\d+\])*", head), message
        node_at(doc, [int(i) if i else k for k, i in re.findall(r"\.(\w+)|\[(\d+)\]", head)])
        if edit == "misspell":
            assert message.startswith(path_text(path)), message
            assert path[-1:] == ("extra_setpoints",) or "; did you mean" in message, message
        return
    assert edit != "misspell", "a misspelt key was accepted"


HAPPY_DOC = BUNDLED_DOCS[0]
ROLE_NODES = [("topology", "roles", i) for i in range(len(HAPPY_DOC["topology"]["roles"]))] + [
    ("batches", 0, "hops", j, side)
    for j in range(len(HAPPY_DOC["batches"][0]["hops"])) for side in ("seller", "buyer")
]


@pytest.mark.parametrize("path", ROLE_NODES, ids=lambda p: ".".join(map(str, p)))
@pytest.mark.parametrize("role", [r.value for r in Role])
def test_one_role_substitution_is_refused_at_parse_or_runs(path, role):
    doc = with_node_replaced(HAPPY_DOC, path, role)
    try:
        scenario = parse_scenario(doc)
    except ValidationError as err:
        assert str(err).startswith(("scenario.topology.roles", "scenario.batches[0].hops["))
        return
    run_scenario(scenario)


def test_broken_json_reports_the_line(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{\n  "schema_version": 1,\n  "name": oops\n}\n')
    with pytest.raises(ParseError) as err:
        load_scenario(path)
    assert "line 3" in str(err.value)
    with pytest.raises(ParseError):
        load_scenario(tmp_path / "absent.json")


# --- replay ------------------------------------------------------------------------

def test_runs_are_byte_identical():
    first = run_scenario_file(HAPPY)
    second = run_scenario_file(HAPPY)
    assert report_to_json(first.report) == report_to_json(second.report)
    assert [c.tip_hash for c in first.supply.all_chains()] == \
           [c.tip_hash for c in second.supply.all_chains()]


def _cli(*argv: str) -> tuple[int, bytes]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    return code, out.getvalue().encode()


@functools.cache
def pinned_outputs(path: Path | None) -> dict[str, tuple[int | None, bytes]]:
    """Every output pinned below, by name: (exit code, or None for a value that
    is not a command's output; bytes). `path` None stands for the gas table,
    which reads no scenario."""
    if path is None:
        return {f"gas-report {fmt}": _cli("gas-report", "--format", fmt)
                for fmt in ("text", "structured")}
    outputs = {"report": (None, report_to_json(run_scenario_file(path).report).encode())}
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp) / "store"
        outputs["run text"] = _cli("run", str(path), "--store", str(root))
        for command in (["trace", "101"], ["verify"]):
            for fmt in ("text", "structured"):
                outputs[f"{command[0]} {fmt}"] = _cli(*command, "--store", str(root),
                                                      "--format", fmt)
        for file in sorted(root.rglob("*")):
            if file.is_file():
                outputs[f"store {file.relative_to(root).as_posix()}"] = (None, file.read_bytes())
    return outputs


# Any change to these bytes must be made on purpose: update the hash with it.
PINNED = [
    (HAPPY, "report", None,
     "0989c4c39dc52bcac5548c1614fb6ce73e388d103923e90398b96309394842ef"),
    (FAULTED, "report", None,
     "d56d3a7880266ba0a5050d0a1b27cfe105c7580393c07e540a207150df04d2c9"),
    (HAPPY, "run text", 0,
     "0f9a46b2a67d3c5663fb40d6dff6a60c9c2cb3747311f96bbe963a35b1dfb421"),
    (HAPPY, "trace text", 0,
     "bfb6894b1452681c8f4f1501b89fa2947c157ce959b973c7b8a8eb3c0a0d2a51"),
    (HAPPY, "trace structured", 0,
     "0da9d5a5e6e5b6e359e4e9fbd2c3ae53889642256a39ffca3e32d4a66e4b3564"),
    (HAPPY, "verify text", 0,
     "d5dc8e2376417c524a493675f81bfec5a2f3eb1d96e842ace46dbc4e993513f6"),
    (HAPPY, "verify structured", 0,
     "d9526e4c0f4e709693d73db9ffacd743a043f8a4a68802f3c8c4c3d3258fc132"),
    (HAPPY, "store consortium/blocks.jsonl", None,
     "cbe59a24a20d0b78e7e2e5460a32c2994f9b2bbec0749aeb9e852c7310d52390"),
    (HAPPY, "store consortium/manifest.json", None,
     "848b70f6b6cc72f74eea5d5f4c2723e5c22365ec3043155e4d7404c399efc82f"),
    (HAPPY, "store private-consumer/blocks.jsonl", None,
     "435b8bcc90d66f8ec6f9a5a0b0c3e3f84e8716b182e7aa497bcba4cb0db61eb2"),
    (HAPPY, "store private-consumer/manifest.json", None,
     "3794ad3a3b7a418ed7145af466bdb66f5fa2a1754818b49d5d78f5e0ae32a0b5"),
    (HAPPY, "store private-driller/blocks.jsonl", None,
     "a8cf7916e77d473e95bd029bbbe4aa31c4b62e8b3b19d6fe0a15c0427fe71e55"),
    (HAPPY, "store private-driller/manifest.json", None,
     "13ba5ede735393f681eb750cdd7aba99a6a71b642a64364ee9cf33dd15380aeb"),
    (HAPPY, "store private-pump/blocks.jsonl", None,
     "9ac963a5db5f4bcc7a88d2eebc3ad4c03db02193ef73976c7d2a3f8cc8586698"),
    (HAPPY, "store private-pump/manifest.json", None,
     "1e8777037b3814cccd1782943fdeec7774f3a50b3538af72d82409c5e28cf2df"),
    (HAPPY, "store private-refinery/blocks.jsonl", None,
     "032acce58ce8062295241d982552e6773044e8ced1c50f22f3cfde0bfdf77801"),
    (HAPPY, "store private-refinery/manifest.json", None,
     "18aaf7cf84cea5720ad5e34670ec452aba9248770287a0d4d79a7f09a67739a7"),
    (HAPPY, "store private-storage/blocks.jsonl", None,
     "d3fc659fc3542e14e55884f179c2c8447a410031cd346c9634d5ec4eb88ad483"),
    (HAPPY, "store private-storage/manifest.json", None,
     "947e431ee1374804b7bd3744834456c7a0d199cf656ddb236785a064f03c8734"),
    (HAPPY, "store report.json", None,
     "0989c4c39dc52bcac5548c1614fb6ce73e388d103923e90398b96309394842ef"),
    (FAULTED, "run text", 2,
     "9a3716f1aec885335268e151b5f985d8b0a79dbfc516ee39faeb4d98d5a4f85b"),
    (FAULTED, "trace text", 2,
     "8fc08fe8450a52ce1dae29aace8521b8204a2736f3b0782b973ecd889648e2f1"),
    (FAULTED, "trace structured", 2,
     "92005251a5fd23bcfe168eb6669b37bc0b7ea79ebdf33e34a7f93edd3a97c0da"),
    (FAULTED, "verify text", 0,
     "e98a949bd994b23c97c5a26f31bad44b99ddc0ecd66447ddce87231e1e81fae8"),
    (FAULTED, "verify structured", 0,
     "905254406b8bfe838cdf8dfd3965eceba6212caa2dc2a40844a3fdfc785615c0"),
    (FAULTED, "store consortium/blocks.jsonl", None,
     "d33aacd7908316d603a4d8b7133568567dfcfafd6cfe285a398e3a86192b2117"),
    (FAULTED, "store consortium/manifest.json", None,
     "e9d0e6ac9721344e60e7b8b3bfbef3ca09de732043dd0e22ef5a8cb57ee2b872"),
    (FAULTED, "store private-consumer/blocks.jsonl", None,
     "435b8bcc90d66f8ec6f9a5a0b0c3e3f84e8716b182e7aa497bcba4cb0db61eb2"),
    (FAULTED, "store private-consumer/manifest.json", None,
     "3794ad3a3b7a418ed7145af466bdb66f5fa2a1754818b49d5d78f5e0ae32a0b5"),
    (FAULTED, "store private-driller/blocks.jsonl", None,
     "9f2e532a2a3df623c78638a4fc2c42782ff7d7a4101b3b4289e51d972a8ce900"),
    (FAULTED, "store private-driller/manifest.json", None,
     "c2e084f998ff11a720991833c50eb06c068be0df19830f3ea6a283ae56c62c46"),
    (FAULTED, "store private-pump/blocks.jsonl", None,
     "6c03a85c4b9ae71b175c3b43244445836085080b3f43b43644ef3bb88c5c9107"),
    (FAULTED, "store private-pump/manifest.json", None,
     "5bbfc054de3112be8fe78d571585cb6a28525b04118c7c56de5006428a7a1bc7"),
    (FAULTED, "store private-refinery/blocks.jsonl", None,
     "4ca74f27e133c554ab85527bae5d1a6276ee5ade5bb811ed013af3043f1c9925"),
    (FAULTED, "store private-refinery/manifest.json", None,
     "6def5c45508ba75b329bed6b650d70ae1f28a2cd55f99a6c4964b1bb0466c2f2"),
    (FAULTED, "store private-storage/blocks.jsonl", None,
     "8387492a3966ef7e94c47cb517df9068e6bb5c6983ce3c30a7478eef52d315a4"),
    (FAULTED, "store private-storage/manifest.json", None,
     "8bc7c6e5872f4a677816832064a64443a2f3480c1ed3d70d2ac224c5ae5c89e0"),
    (FAULTED, "store report.json", None,
     "d56d3a7880266ba0a5050d0a1b27cfe105c7580393c07e540a207150df04d2c9"),
    (None, "gas-report text", 0,
     "f362014e330906ea36492288dd7eab2a3a9efa39986ebc155973fbbd17e60cb1"),
    (None, "gas-report structured", 0,
     "5782151cdca7de5117045e876b7256fa6fc95f3bb5c55a0c7df9f6f624965cae"),
]


@pytest.mark.parametrize(
    "path,output,exit_code,sha256", PINNED,
    ids=[path.stem if output == "report" else f"{path.stem if path else 'gas'}:{output}"
         for path, output, *_ in PINNED])
def test_report_bytes_are_pinned(path, output, exit_code, sha256):
    code, data = pinned_outputs(path)[output]
    assert code == exit_code
    assert hashlib.sha256(data).hexdigest() == sha256


def test_every_pinnable_output_is_pinned():
    pinned = {(path, output) for path, output, *_ in PINNED}
    for path in (HAPPY, FAULTED, None):
        assert {(path, output) for output in pinned_outputs(path)} <= pinned


def test_seed_override_changes_chains_consistently():
    base = run_scenario_file(HAPPY)
    other = run_scenario_file(HAPPY, seed=43)
    assert other.report["seed"] == 43
    assert other.report["chains"] != base.report["chains"]
    again = run_scenario_file(HAPPY, seed=43)
    assert report_to_json(other.report) == report_to_json(again.report)


@pytest.mark.parametrize("override,name", [
    ({"seed": 2**63}, "seed"),
    ({"seed": -1}, "seed"),
    ({"eth_usd": -5.0}, "eth_usd"),
])
def test_run_overrides_are_checked_like_the_file_values(override, name):
    with pytest.raises(ValidationError, match=f"^{name}:"):
        run_scenario(load_scenario(HAPPY), **override)


def test_happy_path_report_contents():
    result = run_scenario_file(HAPPY)
    assert not result.violations_found
    report = result.report
    batch = report["batches"][0]
    assert batch["clean"] is True
    assert batch["violation_totals"] == {"Temperature": 0, "Humidity": 0,
                                         "Pressure": 0}
    assert batch["distribution_state"]["current_trace"] == "Sold"
    assert [h["status"] for h in batch["hops"]] == ["Delivered"] * 4
    assert [h["index"] for h in batch["hops"]] == [1, 2, 3, 4]
    assert all(h["violations"] == [] for h in batch["hops"])
    assert len(report["settlements"]) == 4
    assert {c["name"] for c in report["chains"]} == {
        "consortium", "driller", "refinery", "storage", "pump", "consumer"}
    assert all(c["blocks"] >= 1 for c in report["chains"])
    assert report["eth_usd"] == 2291.0
    assert "wholesale-gate-7" not in repr(result.supply.batches)


def test_faulted_run_surfaces_exactly_the_injected_violations():
    result = run_scenario_file(FAULTED)
    assert result.violations_found
    batch = result.report["batches"][0]
    assert batch["clean"] is False
    assert batch["violation_totals"]["Pressure"] == 3
    per_hop = [len(h["violations"]) for h in batch["hops"]]
    assert per_hop == [0, 3, 0, 0]
    for violation in batch["hops"][1]["violations"]:
        assert violation["kind"] == "Pressure"
        assert violation["stage"] == "Low"
        assert violation["message"] == "Lower Pressure"
    # the custody chain still completes; violations are audit findings
    assert batch["distribution_state"]["current_trace"] == "Sold"


def test_gas_totals_match_a_chain_scan():
    result = run_scenario_file(HAPPY)
    gas = result.report["gas"]
    calls = tx_gas = exec_gas = 0
    for chain in result.supply.all_chains():
        for block in chain.blocks:
            for tx in block.transactions:
                calls += 1
                tx_gas += tx.gas_used
                exec_gas += runtime.metered_cost(tx.function).execution
    assert gas["calls"] == calls
    assert gas["total_transaction_gas"] == tx_gas
    assert gas["total_execution_gas"] == exec_gas
    assert gas["fiat_usd"]["slow"] == runtime.fiat_cost(exec_gas, 82, 2291.0)


def test_one_faulty_validator_of_four_is_tolerated():
    doc = minimal_doc()
    doc["topology"]["faulty_validators"] = 1
    result = run_scenario(parse_scenario(doc))
    assert not result.violations_found
    consortium = result.supply.consortium_chain
    assert all(len(b.endorsements) == 3 for b in consortium.blocks[1:])


def test_two_faulty_validators_of_four_break_the_quorum():
    doc = minimal_doc()
    doc["topology"]["faulty_validators"] = 2
    with pytest.raises(QuorumNotMet):
        run_scenario(parse_scenario(doc))


def without_consortium_tip(report: dict) -> dict:
    report = copy.deepcopy(report)
    for chain in report["chains"]:
        if chain["class"] == "Consortium":
            del chain["tip_hash"]
    return report


@pytest.mark.parametrize("path", [HAPPY, FAULTED], ids=["happy_path", "pressure_fault_hop2"])
def test_f_byzantine_validators_change_only_the_consortium_tip(path):
    # f = 1 of 4 equivocates: its endorsement is skipped, so the sealed sets,
    # and with them the tip hash, differ; traces, violations and settlements do not
    doc = json.loads(path.read_text())
    honest = run_scenario(parse_scenario(doc))
    doc["topology"]["byzantine_validators"] = 1
    result = run_scenario(parse_scenario(doc))
    assert without_consortium_tip(result.report) == without_consortium_tip(honest.report)
    assert result.report["chains"][0]["tip_hash"] != honest.report["chains"][0]["tip_hash"]
    liar = result.supply.topology.validators[0].address
    blocks = result.supply.consortium_chain.blocks[1:]
    assert all(len(b.endorsements) == 3 for b in blocks)
    assert all(e.validator != liar for b in blocks for e in b.endorsements)


@pytest.mark.parametrize("silent,byzantine", [(0, 2), (1, 1)])
def test_more_than_f_faulty_validators_break_the_quorum(silent, byzantine):
    doc = minimal_doc()
    doc["topology"].update(faulty_validators=silent, byzantine_validators=byzantine)
    with pytest.raises(QuorumNotMet, match="^chain 'consortium' block 1: "):
        run_scenario(parse_scenario(doc))


@pytest.mark.parametrize("silent,byzantine,field", [
    (400, 0, "faulty_validators"),
    (3, 2, "byzantine_validators"),
    (0, 5, "byzantine_validators"),
])
def test_faulty_validators_beyond_the_set_are_refused_at_parse(silent, byzantine, field):
    doc = minimal_doc()
    doc["topology"].update(faulty_validators=silent, byzantine_validators=byzantine)
    with pytest.raises(ValidationError, match=f"^scenario.topology.{field}: .* exceed the 4"):
        parse_scenario(doc)


@pytest.mark.parametrize("path", [HAPPY, FAULTED], ids=["happy_path", "pressure_fault_hop2"])
def test_run_report_hops_embed_the_trace_record(path):
    result = run_scenario_file(path)
    text = report_to_text(result.report)
    for batch in result.report["batches"]:
        trace = build_report(result.supply.consortium_chain, batch["batch_id"]).to_dict()
        assert len(batch["hops"]) == len(trace["hops"])
        for hop, traced in zip(batch["hops"], trace["hops"]):
            assert list(hop.items())[:11] == list(traced.items())
            assert hop["status"] == "Delivered"
        assert "\n".join(batch_text(trace)) in text


@pytest.mark.parametrize("path", [HAPPY, FAULTED], ids=["happy_path", "pressure_fault_hop2"])
def test_report_rebuilt_from_a_loaded_store_equals_the_saved_one(path, tmp_path, capsys):
    main(["run", str(path), "--store", str(tmp_path)])
    capsys.readouterr()
    chains = list(store.load_store(tmp_path).values())
    scenario = load_scenario(path)
    # all_chains() is the one thing the report may read of a supply chain
    chains_only = types.SimpleNamespace(all_chains=lambda: chains)
    report = build_run_report(scenario, chains_only, scenario.seed, scenario.eth_usd)
    assert report_to_json(report) == (tmp_path / "report.json").read_text()


_CUSTODY_PATH = [(Role.DRILLER, Role.REFINERY), (Role.REFINERY, Role.STORAGE),
                 (Role.STORAGE, Role.PUMP), (Role.PUMP, Role.CONSUMER)]
_CHECKED = sorted(telemetry.CHECK_FUNCTION, key=telemetry.KIND_ORDER.__getitem__)


@functools.cache
def _five_role_topology() -> Topology:
    return Topology.from_seed(FIVE_ROLES, validator_count=4, seed=7)


@st.composite
def _hop_plans(draw):
    """Per hop: a noisy stream of some checked kinds with faults injected, and
    direct stage records (some naming no kind or stage); the last hop may stop
    short of delivery."""
    plans = []
    for _ in range(draw(st.integers(1, len(_CUSTODY_PATH)))):
        duration = draw(st.integers(1, 5))
        kinds = draw(st.lists(st.sampled_from(_CHECKED), unique=True))
        window = st.tuples(st.integers(0, duration - 1), st.integers(0, duration - 1))
        faults = [
            FaultSpec(kind, min(ticks), max(ticks), draw(st.integers(-4, 4)))
            for kind, ticks in draw(st.lists(st.tuples(st.sampled_from(kinds), window),
                                             max_size=2) if kinds else st.just([]))
        ]
        records = draw(st.lists(st.tuples(
            st.sampled_from(["Temperature", "Humidity", "Pressure", "Bogus"]),
            st.integers(0, 3)), max_size=3))
        plans.append((SensorProfile(duration, {k: 8 for k in kinds}, draw(st.integers(0, 3))),
                      faults, records))
    return plans, draw(st.sampled_from(HopStatus))


@settings(max_examples=40, deadline=None)
@given(_hop_plans(), st.integers(0, 2**32))
def test_ledger_derived_state_equals_the_live_contracts(plan, seed):
    hop_plans, last_status = plan
    supply = SupplyChain(_five_role_topology(), seed=7)
    setpoints = Setpoints(temperature=8, humidity=8, pressure=8)
    batch = supply.register_batch("101", setpoints)
    for i, (profile, faults, records) in enumerate(hop_plans):
        seller, buyer = _CUSTODY_PATH[i]
        hop = supply.initiate_hop(batch, seller, buyer, standard_terms(setpoints))
        last = i == len(hop_plans) - 1
        if last and last_status is HopStatus.PROPOSED:
            break
        supply.accept_shipment(hop, identity.sign(supply.accept_digest(hop),
                                                  hop.buyer.private_key))
        readings = telemetry.generate_readings(profile, seed + i, hop.data_address)
        for fault in faults:
            readings = telemetry.inject_fault(readings, fault)
        supply.feed(hop, readings)
        for vtype, stage in records:
            supply.consortium_rt.call(hop.tracking_contract, "OccuredViolation",
                                      {"vtype": vtype, "stage": stage}, hop.data_address)
        if not (last and last_status is HopStatus.ACCEPTED):
            supply.deliver(hop)

    reported = hand_report(supply)["batches"][0]
    live = supply.consortium_rt.contracts
    assert reported["distribution_state"] == live[batch.distribution_contract].snapshot()
    for hop, hop_report in zip(batch.hops, reported["hops"], strict=True):
        state = live[hop.tracking_contract].snapshot()
        assert hop_report["final_state"] == {
            "temperature": state["temp_stage"],
            "humidity": state["humidity_stage"],
            "pressure": state["pressure_stage"],
            "violation_type": state["violation_type"],
        }
        assert hop_report["status"] == stage_label(hop.status)


@pytest.mark.parametrize("path", [HAPPY, FAULTED], ids=["happy_path", "pressure_fault_hop2"])
def test_readings_fed_counts_committed_checks_and_records(path):
    result = run_scenario_file(path)
    supply = result.supply

    def committed(chain, contract, functions):
        return sum(tx.contract == contract and tx.function in functions
                   for block in chain.blocks for tx in block.transactions)

    for batch in result.report["batches"]:
        for reported, hop in zip(batch["hops"], supply.batches[batch["batch_id"]].hops,
                                 strict=True):
            checks = committed(supply.consortium_chain, hop.tracking_contract,
                               telemetry.CHECK_FUNCTION.values())
            records = committed(supply.private_runtime(hop.seller.address).chain,
                                hop.product_contract, {telemetry.RECORD_FUNCTION})
            assert checks
            assert reported["readings_fed"] == checks + records


def test_a_run_decodes_at_most_two_telemetry_records_per_hop(monkeypatch):
    decoded = []
    decode = telemetry.canon_decode
    monkeypatch.setattr(telemetry, "canon_decode",
                        lambda data: decoded.append(data) or decode(data))
    report = run_scenario_file(HAPPY).report
    # only hop 1 streams weights (hop 3 streams RFID scans): the report reads
    # its first and last Weight record, and no other telemetry record
    assert [decode(data)["kind"] for data in decoded] == ["Weight", "Weight"]
    assert report["batches"][0]["hops"][0]["weight_delta"] == 0


def test_text_rendering_mentions_the_essentials():
    result = run_scenario_file(FAULTED)
    text = report_to_text(result.report)
    assert "VIOLATIONS FOUND" in text
    assert "custody stage: Sold" in text
    assert "Lower Pressure" in text
    assert "settlements: 4" in text


def test_multi_batch_scenario_runs():
    doc = minimal_doc()
    second = copy.deepcopy(doc["batches"][0])
    second["batch_id"] = "8"
    doc["batches"].append(second)
    result = run_scenario(parse_scenario(doc))
    assert [b["batch_id"] for b in result.report["batches"]] == ["7", "8"]
    assert len(result.report["settlements"]) == 2


def test_report_json_is_stable_json():
    result = run_scenario_file(HAPPY)
    text = report_to_json(result.report)
    assert text.endswith("\n")
    assert json.loads(text) == result.report
