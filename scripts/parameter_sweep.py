#!/usr/bin/env python3
"""Sweep metric knobs against a synthetic graded-distortion ground truth.

Generates shapes with geometry noise at several levels (pseudo-MOS equals
the negated level), then reports how well each configuration ranks them.
Covers the documented ablation axes: seed count, sampling strategy,
neighborhood order, weight scheme, color space, and fusion weight.
"""

import argparse
import csv
import sys

import numpy as np

from tcdm.config import MetricConfig
from tcdm.evaluation import srocc
from tcdm.metric import prepare_reference, score_with_reference
from tcdm.pointcloud import DegradationSpec, degrade
from tcdm.synthetic import SHAPE_BUILDERS


def grade_config(config, shapes, levels):
    qs, mos = [], []
    for ref in shapes.values():
        state = prepare_reference(ref, config, threads=1)
        diag = float(np.linalg.norm(ref.positions.max(0) - ref.positions.min(0)))
        for i, frac in enumerate(levels):
            dist = degrade(ref, DegradationSpec("geometry_gaussian", frac * diag, i))
            qs.append(score_with_reference(state, dist, threads=1).q)
            mos.append(-float(i))
    per_shape = []
    step = len(levels)
    for s in range(len(shapes)):
        per_shape.append(srocc(qs[s * step:(s + 1) * step], mos[s * step:(s + 1) * step]))
    return float(np.mean(per_shape))


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--points", type=int, default=15000)
    parser.add_argument("--out", default="parameter_sweep.csv")
    args = parser.parse_args()

    shapes = {name: build(args.points, 40 + i, **({} if name != "torus" else {"noise": 2.0}))
              for i, (name, build) in enumerate(SHAPE_BUILDERS.items())}
    # rescale every shape to a common working size
    for name, cloud in shapes.items():
        cloud.positions *= 300.0 / np.abs(cloud.positions).max()
    levels = [0.002, 0.005, 0.01, 0.02, 0.04]

    # keep points/seeds well above the 3*neighbors design width, otherwise
    # patches are small enough for the regression to interpolate exactly
    base = dict(seeds=60, neighbors=20)
    variants = [("default", MetricConfig(**base))]
    for seeds in (30, 120):
        variants.append((f"seeds={seeds}", MetricConfig(seeds=seeds)))
    variants.append(("sampling=random", MetricConfig(**base, sampling="random")))
    for k in (10, 30):
        variants.append((f"neighbors={k}", MetricConfig(seeds=60, neighbors=k)))
    for scheme in ("constant_one", "inverse_distance", "exp_decay"):
        variants.append((f"weights={scheme}", MetricConfig(**base, weight_scheme=scheme)))
    variants.append(("color=yuv", MetricConfig(**base, color_space="yuv")))
    for alpha in (0.0, 0.3, 0.7, 1.0):
        variants.append((f"alpha={alpha}", MetricConfig(**base, alpha=alpha)))
    variants.append(("eta=variance", MetricConfig(**base, eta_mode="variance")))

    rows = []
    for label, config in variants:
        value = grade_config(config, shapes, levels)
        rows.append((label, value))
        print(f"{label:22s} mean per-shape srocc = {value:.4f}")
        sys.stdout.flush()

    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["variant", "mean_srocc"])
        writer.writerows(rows)
    print(f"\nwrote {args.out}")


if __name__ == "__main__":
    main()
