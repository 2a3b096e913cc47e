#!/usr/bin/env python3
"""Sweep sensor noise amplitude and report how many violations each level flags.

With amplitude 0 every reading sits on its setpoint and the trace stays
clean; each extra unit of noise pushes more readings out of band. Useful for
eyeballing how sensitive the monitoring contract is to sensor jitter.

Usage:
    python scripts/noise_sweep.py [--seed N] [--max-amplitude A]
"""

import argparse
import sys
from dataclasses import replace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from oilchain import scenario  # noqa: E402

SCENARIO = Path(__file__).resolve().parents[1] / "scenarios" / "happy_path.json"


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--max-amplitude", type=int, default=4)
    args = parser.parse_args()

    base = scenario.load_scenario(SCENARIO)
    print(f"{'amplitude':>9} {'violations':>10} {'accurate':>9}")
    for amplitude in range(args.max_amplitude + 1):
        swept = replace(base, name=f"{base.name}-amp{amplitude}", batches=tuple(
            replace(batch, hops=tuple(
                replace(h, profile=replace(h.profile, noise_amplitude=amplitude))
                for h in batch.hops
            ))
            for batch in base.batches
        ))
        result = scenario.run_scenario(swept, seed=args.seed)
        violations = sum(
            sum(b["violation_totals"].values()) for b in result.report["batches"]
        )
        accurate = sum(
            h["accurate_readings"]
            for b in result.report["batches"] for h in b["hops"]
        )
        print(f"{amplitude:>9} {violations:>10} {accurate:>9}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
