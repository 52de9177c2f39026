"""omicsurv: cross-platform expression integration and survival classification.

Subpackages follow the pipeline stages: dataio (loading/merging), synth
(synthetic cohorts), normalize (FSQN), survival (labels and Kaplan-Meier),
project (exact t-SNE), models (classifier/regressor suite), rpensemble
(random-projection ensemble), evaluation (ROC/AUC and cross-validation),
search and pipeline (hyperparameter search and orchestration).
"""

import os

# One BLAS/OpenMP thread in every omicsurv process, whatever is exported, set
# before any submodule loads numpy: exact t-SNE's iterates, and so the
# outputs' bytes, change with the thread count. Pool workers fork and inherit.
_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
os.environ.update(dict.fromkeys(_THREAD_VARS, "1"))

__version__ = "0.1.0"
