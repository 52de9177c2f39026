#!/usr/bin/env python3
"""Run the three comparative benchmarks and print per-seed and mean results.

Usage: python scripts/run_benchmarks.py [--seeds N] [--quick]
"""

import argparse
import time
from statistics import fmean

from omicsurv import benchmarks


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=int, default=5,
                        help="number of seeds per benchmark")
    parser.add_argument("--quick", action="store_true",
                        help="smaller ensemble settings for a fast run")
    args = parser.parse_args()
    seeds = range(args.seeds)

    print("== Integration benefit (FSQN-combined vs single platform) ==")
    start = time.time()
    results = [benchmarks.integration_benefit(s) for s in seeds]
    for r in results:
        print(f"  seed {r.seed}: combined {r.treatment:.3f}  "
              + "  ".join(f"{k} {v:.3f}" for k, v in r.baselines.items()))
    combined = fmean([r.treatment for r in results])
    best_single = fmean([max(r.baselines.values()) for r in results])
    print(f"  mean: combined {combined:.3f} vs best single {best_single:.3f}"
          f" -> margin {combined - best_single:+.3f}  [{time.time()-start:.0f}s]")

    print("== Projection benefit (3D t-SNE vs raw 500-dim, linear model) ==")
    start = time.time()
    results = [benchmarks.projection_benefit(s) for s in seeds]
    for r in results:
        print(f"  seed {r.seed}: t-SNE {r.treatment:.3f}  "
              f"raw {r.baselines['raw']:.3f}")
    tsne = fmean([r.treatment for r in results])
    raw = fmean([r.baselines["raw"] for r in results])
    print(f"  mean: t-SNE {tsne:.3f} vs raw {raw:.3f} "
          f"-> margin {tsne - raw:+.3f}  [{time.time()-start:.0f}s]")

    print("== Random-projection ensemble benefit ==")
    start = time.time()
    rp_kw = dict(b1=20, b2=5) if args.quick else {}
    results = [benchmarks.rp_benefit(s, **rp_kw) for s in seeds]
    for r in results:
        print(f"  seed {r.seed}: ensemble err {r.ensemble_error:.3f}  "
              f"mean single err {r.mean_single_error:.3f}  "
              f"importance informative/background "
              f"{r.informative_importance / max(r.background_importance, 1e-12):.1f}x")
    ens = fmean([r.ensemble_error for r in results])
    single = fmean([r.mean_single_error for r in results])
    print(f"  mean: ensemble {ens:.3f} vs single {single:.3f} "
          f"-> margin {single - ens:+.3f}  [{time.time()-start:.0f}s]")


if __name__ == "__main__":
    main()
