#!/usr/bin/env python3
"""Print one sha256 over the executed work units of a fixed case list.

For each case and rank count it hashes the final fields, each rank's step
records (iterations, the residual as float.hex and the step counters) and
the setup's halo words.  Two source trees that print the same digest
executed the same bits and counted the same work.  The value depends on
the numpy build, so compare digests made on one machine and environment.

Run from the repository root: PYTHONPATH=src python scripts/exec_digest.py
"""

import hashlib

from semperf.counts import CaseConfig
from semperf.solver import STEP_COUNTERS, run_work_unit

# (case, rank counts): the fixed 8^3, N=8 case; a small case whose budget
# outlasts convergence, so its steps stop on an exact zero; and a ragged,
# anisotropic, two-field case over two steps
CASES = (
    (CaseConfig(elements=(8, 8, 8), degrees=(8, 8, 8)), (1, 2, 4)),
    (
        CaseConfig(elements=(2, 2, 2), degrees=(4, 4, 4),
                   cg_iters_per_step=2000),
        (1, 2),
    ),
    (
        CaseConfig(elements=(3, 2, 2), degrees=(4, 3, 5), n_fields=2,
                   steps=2),
        (1, 2, 3),
    ),
)


def exec_digest(cases=CASES):
    """The sha256 hex digest of the executed work units of cases."""
    digest = hashlib.sha256()
    for config, rank_counts in cases:
        for n_ranks in rank_counts:
            report = run_work_unit(config, n_ranks=n_ranks,
                                   collect_fields=True)
            unit = (config, n_ranks, report.setup_halo_words_sent)
            digest.update(repr(unit).encode())
            for rank, steps in enumerate(report.rank_steps):
                for s in steps:
                    record = (
                        rank, s.iterations, s.rel_residual.hex(),
                        *(getattr(s, c) for c in STEP_COUNTERS),
                    )
                    digest.update(repr(record).encode())
            for key in sorted(report.fields):
                digest.update(repr(key).encode())
                digest.update(report.fields[key].tobytes())
    return digest.hexdigest()


if __name__ == "__main__":
    print(exec_digest())
