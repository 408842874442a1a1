#!/usr/bin/env python3
"""Survey the enhancement factor over seeded random qubit noise channels.

Writes one CSV row per channel (seed, operator count, eta, regime) and prints
summary statistics, including how close the sample gets to the 3/2 bound.

Example:
    python scripts/eta_survey.py --count 2000 --out eta_survey.csv
"""

import argparse
import collections

import numpy as np

from qest.catalog import random_low_noise
from qest.lownoise import METHOD_DIRECT, enhancement_factor


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--count", type=int, default=2000)
    parser.add_argument("--seed0", type=int, default=0, help="first seed of the sweep")
    parser.add_argument("--max-ops", type=int, default=6, help="largest noise-operator count")
    parser.add_argument("--out", default=None, help="CSV output path (optional)")
    args = parser.parse_args()
    if args.count < 1:
        parser.error(f"--count must be at least 1, got {args.count}")
    if not 1 <= args.max_ops <= 6:
        parser.error(f"--max-ops must be between 1 and 6, got {args.max_ops}")

    etas = np.empty(args.count)
    regimes = collections.Counter()
    rows = []
    for i in range(args.count):
        seed = args.seed0 + i
        num_m = 1 + i % args.max_ops
        ms = random_low_noise(seed, num_m=num_m).noise_ops
        report = enhancement_factor(ms, method=METHOD_DIRECT)
        etas[i] = report.eta
        regimes[report.regime] += 1
        rows.append((seed, num_m, report.eta, report.regime))

    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("seed,num_ops,eta,regime\n")
            for seed, num_m, eta, regime in rows:
                fh.write(f"{seed},{num_m},{eta:.17g},{regime}\n")

    print(f"channels          : {args.count}")
    print(f"eta min / max     : {etas.min():.12f} / {etas.max():.12f}")
    print(f"eta mean / median : {etas.mean():.6f} / {np.median(etas):.6f}")
    print(f"within [1, 1.5]   : {np.all((etas >= 1 - 1e-9) & (etas <= 1.5 + 1e-9))}")
    print(f"gap to 3/2 bound  : {1.5 - etas.max():.3e}")
    for regime, count in sorted(regimes.items()):
        print(f"  regime {regime:<13}: {count}")


if __name__ == "__main__":
    main()
