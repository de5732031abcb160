"""Bandwidth sweep: fraction of random plants each mechanism stabilizes.

For every reserved bandwidth on the grid, each mechanism (hard guarantee,
drop-and-hold, buffered, continuous stream) is scored on the same batch
of random controllable plants.  Writes the sweep as CSV; pipe it into
your plotting tool of choice.
"""

import argparse
import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from softrt.sweep import SweepConfig, bandwidth_sweep, sweep_to_csv


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n-systems", type=int, default=60)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", help="CSV path (default stdout)")
    args = ap.parse_args(argv)

    cfg = SweepConfig(n_systems=args.n_systems, seed=args.seed)
    t0 = time.monotonic()
    rows = bandwidth_sweep(cfg)
    text = sweep_to_csv(rows)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
        print("wrote %s (%d systems, %.1fs)" %
              (args.out, cfg.n_systems, time.monotonic() - t0), file=sys.stderr)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
