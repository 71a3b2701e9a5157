"""Self-tests of the benchmark: ``python -m pytest e2e_bench/tests -q``
from the repository root (not part of the tier-1 ``testpaths``)."""

import sys

from e2e_bench import ROOT

# the wrapper tests import the program the way the workers do
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))
