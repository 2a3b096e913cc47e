"""Command-line entry point.

Subcommands:

    run         replay a scenario file, print its report, optionally persist
    trace       trace a batch through a persisted store that passes its audit
    gas-report  print the per-function gas and fiat cost table
    verify      audit a persisted store and print each chain's result

Exit codes: 0 on success with nothing flagged, 1 on operational errors
(bad input, corrupt store, unknown batch), 2 when violations are found.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import audit, runtime, scenario, store
from .errors import OilchainError, ValidationError

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_VIOLATIONS = 2


def _cmd_run(args) -> tuple[int, object, str]:
    seed = None if args.seed is None else scenario.check_seed(args.seed, "--seed")
    eth_usd = (None if args.eth_usd is None
               else scenario.check_eth_usd(args.eth_usd, "--eth-usd"))
    result = scenario.run_scenario_file(args.scenario, seed=seed, eth_usd=eth_usd)
    if args.store:
        root = Path(args.store)
        try:
            store.save_store(root, result.supply.all_chains())
            (root / "report.json").write_text(scenario.report_to_json(result.report))
        except OSError as exc:
            raise ValidationError(f"--store: {root}: {exc.strerror}") from None
    code = EXIT_VIOLATIONS if result.violations_found else EXIT_OK
    return code, result.report, scenario.report_to_text(result.report)


def _cmd_trace(args) -> tuple[int, object, str]:
    checked = audit.audit(Path(args.store), args.batch_id)
    checked.refuse()
    report = checked.report
    code = EXIT_OK if report.clean else EXIT_VIOLATIONS
    return code, report.to_dict(), report.to_text()


def _cmd_gas_report(args) -> tuple[int, object, str]:
    eth_usd = (runtime.DEFAULT_ETH_USD if args.eth_usd is None
               else scenario.check_eth_usd(args.eth_usd, "--eth-usd"))
    rows = runtime.gas_report(eth_usd=eth_usd)
    doc = {
        "schema_version": scenario.RUN_REPORT_SCHEMA_VERSION,
        "eth_usd": eth_usd,
        "gas_prices_gwei": runtime.GAS_PRICES_GWEI,
        "functions": rows,
    }
    header = (f"{'function':<18} {'exec gas':>9} {'tx gas':>9}"
              f" {'slow':>10} {'avg':>10} {'fast':>10} {'fastest':>10}")
    text = [header, "-" * len(header)] + [
        f"{row['function']:<18} {row['execution_gas']:>9} {row['transaction_gas']:>9}"
        f" {row['usd_slow']:>10.5f} {row['usd_avg']:>10.5f}"
        f" {row['usd_fast']:>10.5f} {row['usd_fastest']:>10.5f}"
        for row in rows]
    return EXIT_OK, doc, "\n".join(text) + "\n"


def _cmd_verify(args) -> tuple[int, object, str]:
    checked = audit.audit(Path(args.store))
    lines = []
    for name, chain in checked.chains.items():
        finding = checked.findings[name]
        line = {
            "chain": name,
            "class": chain.chain_class.value,
            "blocks": len(chain),
            "tip_hash": chain.tip_hash.hex(),
            "status": "ok" if finding is None else finding.status,
        }
        if finding is not None:
            line["reason"] = finding.reason
        lines.append(line)
    text = "".join(f"{line['chain']:<20} {line['class']:<11} blocks={line['blocks']:<5}"
                   f" {line['status']}" + (f": {line['reason']}" if "reason" in line else "")
                   + "\n" for line in lines)
    code = EXIT_OK if all(line["status"] == "ok" for line in lines) else EXIT_ERROR
    return code, {"chains": lines}, text


class _Parser(argparse.ArgumentParser):
    """Usage errors exit EXIT_ERROR, not argparse's 2, which here means violations."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_ERROR, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="oilchain",
        description="Deterministic permissioned-ledger simulator for oil supply chains.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--format", choices=("text", "structured"), default="text")

    p_run = sub.add_parser("run", parents=[output], help="replay a scenario file")
    p_run.add_argument("scenario", help="path to a scenario JSON file")
    p_run.add_argument("--seed", type=int, default=None,
                       help="override the scenario's seed")
    p_run.add_argument("--store", default=None,
                       help="directory to persist ledgers and the report into")
    p_run.add_argument("--eth-usd", type=float, default=None,
                       help="override the fiat conversion rate")
    p_run.set_defaults(fn=_cmd_run)

    p_trace = sub.add_parser("trace", parents=[output],
                             help="trace a batch through a persisted store")
    p_trace.add_argument("batch_id")
    p_trace.add_argument("--store", required=True)
    p_trace.set_defaults(fn=_cmd_trace)

    p_gas = sub.add_parser("gas-report", parents=[output],
                           help="print the gas calibration table")
    p_gas.add_argument("--eth-usd", type=float, default=None)
    p_gas.set_defaults(fn=_cmd_gas_report)

    p_verify = sub.add_parser("verify", parents=[output], help="re-verify a persisted store")
    p_verify.add_argument("--store", required=True)
    p_verify.set_defaults(fn=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # the exit code, the document `--format structured` prints, and the text
        code, doc, text = args.fn(args)
    except OilchainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    sys.stdout.write(json.dumps(doc, indent=2) + "\n" if args.format == "structured" else text)
    return code


if __name__ == "__main__":
    sys.exit(main())
