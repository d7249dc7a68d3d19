"""Command-line pipeline: simulate, calibrate, generate, refine, evaluate.

Every subcommand is a pure function of (inputs, config, seed): re-running
with the same arguments on the same numpy/BLAS build produces byte-identical
output files, including with --jobs > 1. --jobs fans out only refine (its
workers compute, the parent writes in order); the other stages run in one
process, and simulate writes each sample before it makes the next. The
calibration report is also byte-identical across BLAS builds; see
calib.REPORT_DECIMALS. Each command calls its stage's driver, a function
of the stage's module (see the package docstring), and prints a summary line.

Exit codes: 0 success, 2 UsageError (bad arguments, config or input file),
3 OSError, 4 NumericalError (a computation on well-formed input failed); any
other exception is a bug and propagates with its traceback.
"""

from __future__ import annotations

import argparse
import os
import sys

# Each command imports the module of its own stage, so --version and --help
# load no numpy and a stage loads only what it runs (see README, "Start-up").
from . import __version__
from .errors import NumericalError, UsageError, error_text


def _checked(convert, valid, expected: str):
    """argparse type: ``convert(text)``, which must be ``valid``."""

    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            value = None
        if value is None or not valid(value):
            raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")
        return value

    return parse


_COUNT = _checked(int, lambda n: n >= 1, "an integer >= 1")
_SEED = _checked(int, lambda n: n >= 0, "an integer >= 0")
# at most fileio.MAX_MAGNITUDE, as a config's numbers are, so that the report
# can hold it (cli imports no fileio, which --version and --help do not need)
_POSITIVE = _checked(float, lambda x: 0.0 < x <= 1e6, "a number in (0, 1,000,000]")
_PROPORTIONS = _checked(
    lambda text: [float(p) for p in text.split(",") if p],
    lambda ps: ps and all(0.0 < p <= 1.0 for p in ps),
    "comma-separated numbers in (0, 1]",
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ipslabel",
        description="Generate and refine object-detection labels from "
        "indoor-positioning-beacon measurements.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    parser.add_argument("--config", metavar="FILE", help="YAML pipeline config")
    parser.add_argument("--seed", type=_SEED, default=None, help="override config seed")
    parser.add_argument("--jobs", type=_COUNT, default=1, help="worker processes for refine")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="write a synthetic dataset with ground truth")
    p.add_argument("--out", required=True)
    p.add_argument("--samples", type=_COUNT, default=20)

    p = sub.add_parser("calibrate", help="estimate the camera extrinsic from beacon pixels")
    p.add_argument("--dataset", help="dataset dir (uses its calibration CSVs and manifest)")
    p.add_argument("--correspondences", help="correspondence CSV path")
    p.add_argument("--robot-beacons", help="robot beacon readings CSV path")
    p.add_argument("--manifest", help="manifest JSON supplying intrinsics")
    p.add_argument("--out", required=True, help="calibration report JSON")
    p.add_argument("--planar", action=argparse.BooleanOptionalAction, default=None)
    p.add_argument("--delta-px", type=_POSITIVE, default=None)
    p.add_argument("--iterations", type=_COUNT, default=None,
                   help="at most this many RANSAC hypotheses (config default 2000)")

    p = sub.add_parser("generate", help="produce 2D/3D labels from beacons + calibration")
    p.add_argument("--dataset", required=True)
    p.add_argument("--calibration", required=True, help="calibration report JSON")
    p.add_argument("--out", required=True, help="label output dir")

    p = sub.add_parser("refine", help="refine 3D labels against the point clouds")
    p.add_argument("--dataset", required=True)
    p.add_argument("--labels", required=True, help="unrefined label dir")
    p.add_argument("--out", required=True, help="refined label dir")

    p = sub.add_parser("evaluate", help="compare label sets or run the downsample study")
    p.add_argument("--auto", help="generated label dir")
    p.add_argument("--reference", help="reference label dir")
    p.add_argument("--out", required=True, help="report JSON")
    p.add_argument("--study", choices=["downsample"], default=None)
    p.add_argument("--dataset", help="dataset dir (study mode)")
    p.add_argument("--labels", help="unrefined label dir (study mode)")
    p.add_argument("--sample", help="sample id (study mode)")
    p.add_argument("--object-id", default=None, help="object id (study mode)")
    p.add_argument("--proportions", type=_PROPORTIONS, default="0.05,0.1,0.25,0.5,1.0")
    p.add_argument("--trials", type=_COUNT, default=50)
    p.add_argument("--csv", default=None, help="also write the per-trial table as CSV")
    return parser


# ---------------------------------------------------------------------------


def cmd_simulate(ns, cfg) -> None:
    from . import sim

    sim.generate_dataset(cfg.scene, ns.out, ns.samples, cfg.seed)
    print(f"wrote {ns.samples} samples to {ns.out}")


def cmd_calibrate(ns, cfg) -> None:
    from . import calib, config

    corr_path, beacon_path, manifest_path = ns.correspondences, ns.robot_beacons, ns.manifest
    if ns.dataset:
        corr_path = corr_path or os.path.join(ns.dataset, "calibration", "correspondences.csv")
        beacon_path = beacon_path or os.path.join(ns.dataset, "calibration", "robot_beacons.csv")
        manifest_path = manifest_path or os.path.join(ns.dataset, "manifest.json")
    if not corr_path or not beacon_path:
        raise UsageError("calibrate needs --dataset or both --correspondences and --robot-beacons")
    intr = (config._manifest_rig(manifest_path) if manifest_path else cfg.scene).intrinsics
    # the calibrate flags are named after the CalibOptions fields they override
    given = {k: getattr(ns, k) for k in vars(cfg.calibration) if getattr(ns, k) is not None}
    opts = config.CalibOptions(**{**vars(cfg.calibration), **given})
    result, n = calib.write_calibration(corr_path, beacon_path, intr, opts, cfg.seed, ns.out)
    print(f"inliers: {len(result.inlier_indices)}/{n}  rmse_px: {result.rmse_px:.6g}")


def cmd_generate(ns, cfg) -> None:
    from . import labelgen

    n = labelgen.write_labels(ns.dataset, ns.calibration, ns.out)
    print(f"labeled {n} samples -> {ns.out}")


def cmd_refine(ns, cfg) -> None:
    from . import refine

    n = refine.write_refined_labels(ns.dataset, ns.labels, ns.out, cfg.refine, cfg.seed, ns.jobs)
    print(f"refined {n} samples -> {ns.out}")


def cmd_evaluate(ns, cfg) -> None:
    from . import eval

    if ns.study == "downsample":
        if not (ns.dataset and ns.labels and ns.sample):
            raise UsageError("--study downsample needs --dataset, --labels and --sample")
        rows = eval.write_downsample_study(
            ns.dataset, ns.labels, ns.sample, ns.object_id, ns.proportions, ns.trials,
            cfg.refine, cfg.seed, ns.out, ns.csv,
        )
        print(f"downsample study: {len(rows)} trials -> {ns.out}")
        return
    if not (ns.auto and ns.reference):
        raise UsageError("evaluate needs --auto and --reference (or --study downsample)")
    report = eval.write_comparison(ns.auto, ns.reference, ns.out)
    mean2 = "n/a" if report.mean_iou_2d is None else f"{report.mean_iou_2d:.4f}"
    print(f"matched {report.matched} objects  mean IoU3D {report.mean_iou_3d:.4f}  mean IoU2D {mean2}")


# ---------------------------------------------------------------------------


_COMMANDS = {
    "simulate": cmd_simulate,
    "calibrate": cmd_calibrate,
    "generate": cmd_generate,
    "refine": cmd_refine,
    "evaluate": cmd_evaluate,
}


def main(argv=None) -> int:
    ns = build_parser().parse_args(argv)
    from .config import load_config

    try:
        cfg = load_config(ns.config, seed=ns.seed)
        _COMMANDS[ns.command](ns, cfg)
        return 0
    except NumericalError as e:
        print(f"numerical failure: {error_text(e)}", file=sys.stderr)
        return 4
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"i/o error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
