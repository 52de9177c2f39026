#!/usr/bin/env python3
"""Time the data layers on one synthetic cohort: best-of-3 wall times of
save_expression, load_expression, log2_transform and fsqn, and the SHA-256 of
the written file, so a speed-up can be checked to leave the bytes unchanged.

The cohort is drawn in memory with omicsurv.synth (seed 0). The microarray
table, whose values need all 17 digits, is saved to a temporary directory and
loaded back. The loaded table is log2-transformed, and the log2 RNA-seq table
is quantile-normalized onto it, as `omicsurv normalize --log2` does.

Usage: python scripts/time_data_layers.py [--patients N] [--genes M]
"""

import argparse
import hashlib
import tempfile
import time
from pathlib import Path

from omicsurv import dataio, normalize, synth


def best_of_3(fn):
    times = []
    for _ in range(3):
        start = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - start)
    return min(times), result


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--patients", type=int, default=1000)
    parser.add_argument("--genes", type=int, default=5000)
    args = parser.parse_args()

    config = synth.SynthConfig(n_patients=args.patients, n_genes=args.genes,
                               n_informative_genes=min(5, args.genes), seed=0)
    latent = synth.gen_latent(config)
    micro = synth.gen_microarray(config, latent)
    rna_log2 = normalize.log2_transform(synth.gen_rnaseq(config, latent))
    print(f"cohort: {args.patients} patients x {args.genes} genes")

    with tempfile.TemporaryDirectory(prefix="omicsurv_io_") as tmp:
        path = Path(tmp) / "microarray.csv"
        seconds, _ = best_of_3(lambda: dataio.save_expression(micro, path))
        print(f"save_expression  {seconds:8.3f} s  ({path.stat().st_size / 2**20:.1f} MiB)")
        seconds, loaded = best_of_3(lambda: dataio.load_expression(path))
        print(f"load_expression  {seconds:8.3f} s")
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
    seconds, micro_log2 = best_of_3(lambda: normalize.log2_transform(loaded))
    print(f"log2_transform   {seconds:8.3f} s")
    seconds, _ = best_of_3(lambda: normalize.fsqn(rna_log2, micro_log2))
    print(f"fsqn             {seconds:8.3f} s")
    print(f"microarray.csv sha256 {digest}")


if __name__ == "__main__":
    main()
