"""Command line of the benchmark; see the package docstring."""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from perfbench.inputs import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
EXIT_CANNOT_RUN = 2


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python3 -m perfbench")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "metafold" / "__init__.py").is_file():
        print(f"error: metafold sources not found under {SRC}", file=sys.stderr)
        return EXIT_CANNOT_RUN

    sys.path.insert(0, str(SRC))
    import metafold

    if not Path(metafold.__file__).resolve().is_relative_to(SRC):
        print("error: metafold was not imported from this checkout", file=sys.stderr)
        return EXIT_CANNOT_RUN

    from perfbench.bench import GoldenError, run
    from perfbench.server import ServerError
    from perfbench.workloads import SetupError

    try:
        lines, result = run(args.workload, args.seed, args.seconds, args.trace, ROOT, SRC)
    except (GoldenError, ServerError, SetupError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CANNOT_RUN
    for line in lines:
        print(line)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
