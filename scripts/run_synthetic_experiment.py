#!/usr/bin/env python3
"""K-fold singing-voice-detection experiment on a synthetic corpus.

Generates the corpus if needed, then runs the full pipeline (optional
separation -> features -> classifier -> smoothing) once with separation
enabled and once without, printing pooled metrics for both.

    python3 scripts/run_synthetic_experiment.py --work-dir out/exp --clips 50
"""

import argparse
import json
import sys
import time
from pathlib import Path

from svdet.errors import DataError
from svdet.features import FEATURE_SETS
from svdet.pipeline import PipelineConfig, report_payload, run_corpus
from svdet.smoothing import SMOOTHING_METHODS
from svdet.synth import write_corpus


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--work-dir", default="out/experiment")
    parser.add_argument("--clips", type=int, default=50)
    parser.add_argument("--duration", type=float, default=10.0)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--folds", type=int, default=5)
    parser.add_argument("--feature-tag", default="mfcc",
                        choices=sorted(FEATURE_SETS))
    parser.add_argument("--smoothing", default="median",
                        choices=SMOOTHING_METHODS)
    args = parser.parse_args()
    try:
        experiment(args)
    except DataError as exc:
        print(f"error: data: {exc}", file=sys.stderr)
        return 2
    return 0


def experiment(args):
    # both configs first, so a bad setting is refused before any work
    cfgs = [PipelineConfig(separate=separate, folds=args.folds,
                           seed=args.seed, feature_tag=args.feature_tag,
                           smoothing_method=args.smoothing)
            for separate in (True, False)]
    work = Path(args.work_dir)
    audio_dir, label_dir = work / "audio", work / "labels"
    if not audio_dir.exists():
        write_corpus(work, n_clips=args.clips, seed=args.seed,
                     duration=args.duration)
        print(f"generated {args.clips} clips under {work}")

    for cfg in cfgs:
        t0 = time.time()
        run = run_corpus(audio_dir, label_dir, cfg)
        took = time.time() - t0
        rep = run.report
        tag = "on " if cfg.separate else "off"
        print(f"separation {tag}: acc={rep.accuracy:.4f} "
              f"P={rep.precision:.4f} R={rep.recall:.4f} F1={rep.f1:.4f} "
              f"({took:.0f}s)")
        name = f"report_separation_{'on' if cfg.separate else 'off'}.json"
        out = work / name
        out.write_text(json.dumps(report_payload(run, cfg), sort_keys=True,
                                  indent=2) + "\n")
        print(f"  wrote {out}")


if __name__ == "__main__":
    sys.exit(main())
