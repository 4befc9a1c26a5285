"""Time what a fresh interpreter pays to import the package and load the
transitive-group census, as every CLI call does.

``run.py`` runs this file in a new process, with the package source
directory as its argument.  It prints that time in seconds at nominal
machine speed (see ``speed.py``), scaled by calibration samples taken right
after the timed part, so that neither the interpreter's own start nor the
calibration's imports are counted.
"""

import sys
import time

start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import padegalois  # noqa: E402,F401
from padegalois.groupdata import transitive_groups  # noqa: E402

for degree in range(2, 8):
    transitive_groups(degree)
end = time.perf_counter()

import statistics  # noqa: E402

from speed import NOMINAL, calibration  # noqa: E402

samples = []
for _ in range(9):
    t0 = time.perf_counter()
    calibration()
    samples.append(time.perf_counter() - t0)
print((end - start) * NOMINAL / statistics.median(samples))
