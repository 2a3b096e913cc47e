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
    # the credential and signature memos are process state: another run
    # between the two leaves them holding other entries
    run_scenario_file(FAULTED)
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
     "427f75733cc9d0cd11dc5a222fe13cd85c69c2bec8c573d38e24639c571dee4d"),
    (FAULTED, "report", None,
     "4bf2de7b8f5a21dfcd4e07260a827ccb75da8e2d8b4dfdfd975e6835313bfe51"),
    (HAPPY, "run text", 0,
     "4de62d124914de67546807cd70fe3269716f29182eed357588e8710e6b239fec"),
    (HAPPY, "trace text", 0,
     "4df0ae94aacb3662724ec87e177788a6ba8a6ce35d307d0e87ee962bb2a09f2f"),
    (HAPPY, "trace structured", 0,
     "9115045f8f261d59c89aa0ac19a42f11cd8ae6111ed5e480927635b062ad1bb6"),
    (HAPPY, "verify text", 0,
     "80c51a6acfe8d3b2aad3683cb9d0dc1ca586ce70def5ab5f01db3af20dd3f17b"),
    (HAPPY, "verify structured", 0,
     "b64dd5da42c1ed744a95e31850a28c467c7323ee570d4b15efb27cdf4d7d3011"),
    (HAPPY, "store consortium/blocks.jsonl", None,
     "b3425044ba3e43bf5ca76336be7cfc89a7711c6d8b0dbdaa14b66cbfff750b78"),
    (HAPPY, "store consortium/manifest.json", None,
     "9403a4bcca658f37f2b69f222459dafbbd08f1c8337789663169f0856160319c"),
    (HAPPY, "store private-consumer/blocks.jsonl", None,
     "435b8bcc90d66f8ec6f9a5a0b0c3e3f84e8716b182e7aa497bcba4cb0db61eb2"),
    (HAPPY, "store private-consumer/manifest.json", None,
     "3794ad3a3b7a418ed7145af466bdb66f5fa2a1754818b49d5d78f5e0ae32a0b5"),
    (HAPPY, "store private-driller/blocks.jsonl", None,
     "f9604cff7bc00fbd588129293bfc35731e1836ce64fdae73aa43bd89ec750f43"),
    (HAPPY, "store private-driller/manifest.json", None,
     "babe93e9c1b0996da47be7c840cf18a8662fc3fbeaeafa66c67ec8fdf167ded5"),
    (HAPPY, "store private-pump/blocks.jsonl", None,
     "9e2d0604a778ead82b3a86eaf4c08db8d5c06c9c7cd98476b069ac98211ef4ff"),
    (HAPPY, "store private-pump/manifest.json", None,
     "13801f026a970850442085b08818c401d0a73e4d7e8d59922c924152c41ff03a"),
    (HAPPY, "store private-refinery/blocks.jsonl", None,
     "c059672d8a198bf18047694a9c084bd301dd6e44e5ed2e39f2cb1bba46fb0d83"),
    (HAPPY, "store private-refinery/manifest.json", None,
     "fece98df31c60ce1a4a530a61e612ce4d0acc3e2bee893ffad83051357b98c9d"),
    (HAPPY, "store private-storage/blocks.jsonl", None,
     "bc9c521bceab3a284b7680ca68e3008237d01d367a88008919aedaea8e5991ba"),
    (HAPPY, "store private-storage/manifest.json", None,
     "2759c164ef4944a2b8a003f65f392028fa99dee6fc3b7da961a51a2ba62cd40c"),
    (HAPPY, "store report.json", None,
     "427f75733cc9d0cd11dc5a222fe13cd85c69c2bec8c573d38e24639c571dee4d"),
    (FAULTED, "run text", 2,
     "5edeaa7648bd57824a12f46446df0330c43427e618ceb29b15842cd8513986c1"),
    (FAULTED, "trace text", 2,
     "d2dbf17cdc91152ceb675abefc3ff93186281ca5a06dda049b9180a865ade3f3"),
    (FAULTED, "trace structured", 2,
     "8fa89a458829a812baaf2ee17c6c2a8771be83acfee66e47895b57d21c206505"),
    (FAULTED, "verify text", 0,
     "06742895e45310e05f3a82a71f8eb49ec253a2acbddfe240e04b63c8022ac0f9"),
    (FAULTED, "verify structured", 0,
     "c861b8d4ba8e2805e70b57d367236faf6b977e5dd75ea1062a60df86827a6661"),
    (FAULTED, "store consortium/blocks.jsonl", None,
     "f7fd8b54a3ac211b34f2d86e7d1735694dd153d52e91b14b1ccf7620dea94088"),
    (FAULTED, "store consortium/manifest.json", None,
     "96829270780b0d83fc8c6b05d050e440173453dfa5ad7a20ca9dfd6d8890edd9"),
    (FAULTED, "store private-consumer/blocks.jsonl", None,
     "435b8bcc90d66f8ec6f9a5a0b0c3e3f84e8716b182e7aa497bcba4cb0db61eb2"),
    (FAULTED, "store private-consumer/manifest.json", None,
     "3794ad3a3b7a418ed7145af466bdb66f5fa2a1754818b49d5d78f5e0ae32a0b5"),
    (FAULTED, "store private-driller/blocks.jsonl", None,
     "9f2e532a2a3df623c78638a4fc2c42782ff7d7a4101b3b4289e51d972a8ce900"),
    (FAULTED, "store private-driller/manifest.json", None,
     "c2e084f998ff11a720991833c50eb06c068be0df19830f3ea6a283ae56c62c46"),
    (FAULTED, "store private-pump/blocks.jsonl", None,
     "0352bb351874199e2268b882f7bb042c8877563acc5970d495961847f944e687"),
    (FAULTED, "store private-pump/manifest.json", None,
     "0776fda5222e631a94dcf8b689523624fdadc780001d985da9740930cce65e3f"),
    (FAULTED, "store private-refinery/blocks.jsonl", None,
     "484e4b712328141cf3d1539aca65e82f87a19d1d50363e4298a6cc0d2cd44403"),
    (FAULTED, "store private-refinery/manifest.json", None,
     "33a07fd454ae239cc4f8512dae4c63d0927ceacf3bbf6dfef94d74b3425124d2"),
    (FAULTED, "store private-storage/blocks.jsonl", None,
     "7a82bf7c556407334f6d4f2e03ed7519debaac4be9f8cde04c1ae6ac8d2983d5"),
    (FAULTED, "store private-storage/manifest.json", None,
     "4859c3617cdf709bbdb65cca1746c641ab0e36fa3a29b39416b72cb27279d942"),
    (FAULTED, "store report.json", None,
     "4bf2de7b8f5a21dfcd4e07260a827ccb75da8e2d8b4dfdfd975e6835313bfe51"),
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


def _fifty_tick_happy_path() -> dict:
    doc = copy.deepcopy(HAPPY_DOC)
    for hop in doc["batches"][0]["hops"]:
        hop["telemetry"]["duration"] = 50
    return doc


@pytest.mark.parametrize("doc", [*BUNDLED_DOCS, _fifty_tick_happy_path()],
                         ids=["happy_path", "pressure_fault_hop2", "happy_path-50-ticks"])
def test_each_sample_tick_is_one_consortium_block(doc, monkeypatch):
    signs = 0
    sign = identity.sign

    def counted_sign(*args, **kwargs):
        nonlocal signs
        signs += 1
        return sign(*args, **kwargs)

    monkeypatch.setattr(identity, "sign", counted_sign)
    scenario = parse_scenario(doc)
    chain = run_scenario(scenario).supply.consortium_chain
    hops = [hop for batch in scenario.batches for hop in batch.hops]
    checks = set(telemetry.CHECK_FUNCTION.values())
    outside_feed = sum(tx.function not in checks
                       for block in chain.blocks for tx in block.transactions)
    checked_ticks = sum(hop.profile.duration for hop in hops
                        if not telemetry.CHECK_FUNCTION.keys().isdisjoint(hop.profile.setpoints))
    blocks = len(chain) - 1
    assert blocks == outside_feed + checked_ticks
    # 2f+1 = 3 of the 4 validators sign each block, none silent or Byzantine
    acceptances = sum(hop.accept_method == "signature" for hop in hops)
    assert signs == 3 * blocks + acceptances


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
