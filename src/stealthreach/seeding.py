"""Deterministic random-stream construction.

Every stochastic routine in the library derives its draws from a
counter-based Philox stream keyed by a master seed plus an integer path
(the trial index).  Streams for distinct paths are independent, and a
stream's output depends only on (master_seed, path), never on scheduling,
on how many sibling streams exist or on which process draws them.  That is
what makes multi-trial output reproducible bit for bit, also when cloud
chunks and heatmap batches are spread over worker processes.
"""

import numpy as np


# the annotation is quoted so that numpy.random loads on the first draw, not at import
def stream(master_seed: int, *path: int) -> "np.random.Generator":
    """Return the Philox generator for the given seed path."""
    ss = np.random.SeedSequence([int(master_seed) & 0xFFFFFFFFFFFFFFFF, *[int(p) for p in path]])
    return np.random.Generator(np.random.Philox(seed=ss))

