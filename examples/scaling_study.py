"""Scaling study: regenerate the paper's Figure 10/12 curves from the model.

Evaluates the §III-C cost formulas under the paper-derived Broadwell rates
across node counts and prints the speedup-over-MPI series for all four
kernels — the data behind Figures 10 and 12.  Add ``--csv`` to emit
machine-readable output for plotting.

Run:  python examples/scaling_study.py [--csv]
"""

import sys

from repro.bench.tables import format_table
from repro.core.cost_model import PAPER_BROADWELL
from repro.runtime.network import OMNIPATH_100G
from repro.schedule import family_cost

NODES = (2, 4, 8, 16, 32, 64, 128, 256, 512)
TOTAL = 646_000_000  # the full RTM dataset message of the paper


def series(op: str):
    rows = []
    for n in NODES:
        row = [n]
        for mt in (False, True):
            # each kernel's family-table row, priced by name
            mpi, cc, hz = (
                family_cost(
                    f"{kernel}_{op}", TOTAL, PAPER_BROADWELL, OMNIPATH_100G,
                    mt, n=n,
                ).total_time
                for kernel in ("mpi", "ccoll", "hzccl")
            )
            row += [mpi / cc, mpi / hz]
        rows.append(row)
    return rows


def main() -> None:
    as_csv = "--csv" in sys.argv
    headers = ["nodes", "C-Coll ST", "hZCCL ST", "C-Coll MT", "hZCCL MT"]
    for op, fig in (("reduce_scatter", "Figure 10"), ("allreduce", "Figure 12")):
        rows = series(op)
        if as_csv:
            print(f"# {fig}: {op} speedup over MPI, 646 MB")
            print(",".join(headers))
            for row in rows:
                print(",".join(f"{v:.4f}" if isinstance(v, float) else str(v) for v in row))
        else:
            print(
                format_table(
                    headers, rows,
                    title=f"{fig}: {op} speedup over MPI "
                    "(646 MB, paper-derived rates)",
                )
            )
            print()


if __name__ == "__main__":
    main()
