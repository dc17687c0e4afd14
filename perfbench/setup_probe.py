"""Set-up probe, run in a fresh interpreter: import fpboot, load a population.

Usage: python3 setup_probe.py <src-dir> <population.csv>
Prints one JSON line with the import and load times in seconds.
"""

import json
import sys
import time

t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import fpboot  # noqa: E402

t1 = time.perf_counter()
population = fpboot.load_population(sys.argv[2])
t2 = time.perf_counter()
print(json.dumps({"import_s": t1 - t0, "load_s": t2 - t1, "size": population.size}))
