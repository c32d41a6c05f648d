"""Everything a fresh process does before the first evaluation.

Usage: python3 perfbench/setup_probe.py SRC INPUT EFFECT SEED REPLICATES

Imports phasetip.cli, reads the trial and makes the imputation draws of
every replicate. The caller times the whole process.
"""

import sys


def main(argv) -> int:
    src, path, effect, seed, replicates = argv[1:]
    sys.path.insert(0, src)
    import phasetip.cli
    from phasetip.counterfactual import Effect, make_draws

    records = phasetip.cli.read_dataset(path)
    for replicate in range(int(replicates)):
        make_draws(records, Effect.from_number(int(effect)), "auto", int(seed), replicate)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
