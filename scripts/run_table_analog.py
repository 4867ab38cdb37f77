#!/usr/bin/env python3
"""Method comparison on synthetic mixed-jargon corpora.

Synthesizes a language per seed, tunes every fusion method on a
validation split, and reports test WER / CER / jargon WER. With the
default reduced grid a seed takes under a minute; pass --full-grid to
sweep the complete hyperparameter space (slow).
"""

import argparse
import sys
import time

from colordecode import cli
from colordecode.evaluation import GridSpec, run_method_comparison
from colordecode.scorers import SCORER_KINDS


def _noise_level(raw: str) -> float:
    """A ``--noise`` value: finite and in [0, 1), as ``SynthesisSpec``
    needs it."""
    value = cli._finite_float(raw)
    if not 0.0 <= value < 1.0:
        raise argparse.ArgumentTypeError(f"must lie in [0, 1), got {value}")
    return value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    parser.add_argument("--kinds", nargs="+", default=list(SCORER_KINDS),
                        choices=SCORER_KINDS)
    parser.add_argument("--test-utterances", type=cli._positive_int, default=200)
    parser.add_argument("--validation-utterances", type=cli._positive_int,
                        default=40)
    parser.add_argument("--rate", type=cli._weight_float, default=0.3)
    parser.add_argument("--noise", type=_noise_level, default=0.25)
    parser.add_argument("--beam-width", type=cli._beam_width, default=16)
    parser.add_argument("--jobs", type=cli._positive_int, default=1)
    parser.add_argument("--full-grid", action="store_true",
                        help="sweep the complete hyperparameter grids")
    parser.add_argument("--workdir", default=None,
                        help="keep synthesized corpora here instead of a "
                        "temporary directory")
    args = parser.parse_args(argv)

    grid = GridSpec() if args.full_grid else None
    for seed in args.seeds:
        start = time.time()
        report, searches = run_method_comparison(
            seed,
            kinds=tuple(args.kinds),
            num_test=args.test_utterances,
            num_validation=args.validation_utterances,
            jargon_rate=args.rate,
            noise_level=args.noise,
            grid=grid,
            beam_width=args.beam_width,
            jobs=args.jobs,
            workdir=args.workdir,
        )
        print(f"== seed {seed} ({time.time() - start:.1f}s) ==")
        sys.stdout.write(report.as_text())
        for kind in args.kinds:
            s = searches[kind]
            print(f"  {kind}: best {s.best.describe(kind)} "
                  f"(validation wer {s.wer:.2f})")
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
