"""Plain (no-compression) ring collectives — the "MPI" baseline.

Literal ring algorithms from Thakur et al. / Patarasuk & Yuan, the ones
MPICH selects for large messages and the ones every compressed variant in
this repo is structured around:

* ``reduce_scatter`` — ``N − 1`` rounds; in round ``j`` rank ``i`` sends its
  running partial of block ``(i − j) mod N`` and folds the incoming partial
  into block ``(i − j − 1) mod N``.  Rank ``i`` ends owning block
  ``(i + 1) mod N`` fully reduced.
* ``allgather`` — ``N − 1`` forwarding rounds.
* ``allreduce`` — reduce-scatter then allgather (bandwidth-optimal).

The round structure lives in :mod:`repro.schedule.generators` and the
seed → run → assemble skeleton in :mod:`repro.collectives.interpreter`;
this module only declares the three rows.  Every rank's arithmetic
executes for real; only the wire time is modelled.
"""

from __future__ import annotations

from . import rules
from .interpreter import Family


MPI_REDUCE_SCATTER = Family("mpi_reduce_scatter", **rules.REDUCE_SCATTER)
MPI_ALLGATHER = Family("mpi_allgather", **rules.ALLGATHER)
MPI_ALLREDUCE = Family(
    "mpi_allreduce", steps=(MPI_REDUCE_SCATTER, MPI_ALLGATHER)
)
