#!/usr/bin/env python3
"""Time the data layers on one synthetic cohort: best-of-3 wall times of
save_expression, load_expression, log2_transform, fsqn and the t-SNE
affinities, the time per t-SNE iteration, and the SHA-256 of the written file
and of the embedding, so a speed-up can be checked to leave the bytes
unchanged.

The cohort is drawn in memory with omicsurv.synth (seed 0). The microarray
table, whose values need all 17 digits, is saved to a temporary directory and
loaded back. The loaded table is log2-transformed, and the log2 RNA-seq table
is quantile-normalized onto it, as `omicsurv normalize --log2` does.

t-SNE runs on the loaded log2 microarray table at perplexity 30: the
affinities alone, then a fixed 50-iteration 3-D embedding. Its time per
iteration is the best embedding time less the best affinities time, over 50.
The load is also run once under tracemalloc, and its peak is printed beside
its time.

Before numpy loads, the script sets the BLAS/OpenMP thread variables that
perfbench/run.py sets to 1, overriding any exported value: the embedding's
iterates, and so its SHA-256, change with the thread count.

Usage: python scripts/time_data_layers.py [--patients N] [--genes M]
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402
from pathlib import Path  # noqa: E402

from omicsurv import dataio, normalize, project, synth  # noqa: E402

TSNE_PERPLEXITY = 30.0
TSNE_ITERATIONS = 50


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
        tracemalloc.start()
        dataio.load_expression(path)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        print(f"load_expression  {seconds:8.3f} s  (tracemalloc peak {peak / 2**20:.1f} MiB)")
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
    seconds, micro_log2 = best_of_3(lambda: normalize.log2_transform(loaded))
    print(f"log2_transform   {seconds:8.3f} s")
    seconds, _ = best_of_3(lambda: normalize.fsqn(rna_log2, micro_log2))
    print(f"fsqn             {seconds:8.3f} s")
    features = dataio.FeatureMatrix(patient_ids=micro_log2.patient_ids,
                                    feature_names=micro_log2.gene_ids,
                                    values=micro_log2.values)
    affinity_s, _ = best_of_3(lambda: project.input_affinities(features, TSNE_PERPLEXITY))
    print(f"input_affinities {affinity_s:8.3f} s")
    config = project.TsneConfig(output_dims=3, perplexity=TSNE_PERPLEXITY,
                                iterations=TSNE_ITERATIONS)
    seconds, embedding = best_of_3(lambda: project.tsne(features, config))
    per_iter_ms = 1e3 * (seconds - affinity_s) / TSNE_ITERATIONS
    print(f"tsne iteration   {per_iter_ms:8.3f} ms  ({TSNE_ITERATIONS} iterations, 3-D)")
    print(f"microarray.csv sha256 {digest}")
    print(f"tsne coords sha256 {hashlib.sha256(embedding.coords.tobytes()).hexdigest()}")


if __name__ == "__main__":
    main()
