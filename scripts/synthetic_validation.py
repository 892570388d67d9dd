#!/usr/bin/env python3
"""Self-validation on synthetic shapes.

Builds three colored surfaces, applies graded geometry noise, color noise
and downsampling, and prints the quality score per level. Scores should
decrease monotonically within every column and the identity pair should
score exactly 1.
"""

import argparse
import time

import numpy as np

from tcdm.config import MetricConfig
from tcdm.metric import prepare_reference, score_with_reference
from tcdm.pointcloud import DegradationSpec, degrade
from tcdm.synthetic import noisy_torus_cloud, plane_cloud, sphere_cloud


def build_shapes(n):
    return {
        "plane": plane_cloud(n, 11, extent=600.0),
        "sphere": sphere_cloud(n, 12, radius=300.0),
        "torus": noisy_torus_cloud(n, 13, major=300.0, minor=90.0, noise=2.0),
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--points", type=int, default=20000)
    parser.add_argument("--seeds", type=int, default=80)
    parser.add_argument("--noise-seeds", type=int, default=3,
                        help="rng seeds averaged per degradation level")
    parser.add_argument("--threads", type=int, default=1,
                        help="worker threads for prepare and score (default 1)")
    args = parser.parse_args()

    config = MetricConfig(seeds=args.seeds)
    for name, ref in build_shapes(args.points).items():
        t0 = time.perf_counter()
        state = prepare_reference(ref, config, threads=args.threads)
        diag = float(np.linalg.norm(ref.positions.max(0) - ref.positions.min(0)))
        sweeps = {
            "geometry_gaussian": [0.005 * diag, 0.01 * diag, 0.02 * diag],
            "color_noise": [5.0, 15.0, 30.0],
            "downsample": [0.9, 0.6, 0.3],
        }
        q_self = score_with_reference(state, ref, threads=args.threads).q
        print(f"\n{name} ({args.points} pts, bbox diagonal {diag:.0f}, "
              f"prepared in {time.perf_counter() - t0:.1f}s)")
        print(f"  identity: Q = {q_self:.6f}")
        for kind, levels in sweeps.items():
            row = []
            for level in levels:
                qs = [score_with_reference(
                        state, degrade(ref, DegradationSpec(kind, level, s)),
                        threads=args.threads).q
                      for s in range(args.noise_seeds)]
                row.append(float(np.mean(qs)))
            marks = " > ".join(f"{q:.4f}" for q in row)
            ok = row[0] > row[1] > row[2]
            print(f"  {kind:18s} {marks}   {'ok' if ok else 'NOT MONOTONE'}")


if __name__ == "__main__":
    main()
