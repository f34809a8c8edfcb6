"""Fixed control work that tells run.py how fast the machine is right now.

It imports nothing from qdot, so no change to the program moves it. Its
mix follows the workloads: Python-level dicts, float formatting and
``math.exp`` like a sweep, small symmetric eigenproblems like the
quadrature nodes and the oracles, and vector arithmetic like the Monte
Carlo. It prints the time of its ``import numpy``; run.py times the whole
process from spawn to exit.
"""

import math
import time

start = time.perf_counter()
import numpy as np  # noqa: E402

imported = time.perf_counter()
rng = np.random.default_rng(0)
rows = []
for i in range(20000):
    point = {"k0": i * 1e-3, "r": 0.5}
    cells = (point["k0"], point["r"], math.exp(-point["k0"]))
    rows.append(",".join(format(x, ".17g") for x in cells))
text = "\n".join(rows)
a = rng.standard_normal((64, 64))
a = a + a.T
for _ in range(150):
    np.linalg.eigvalsh(a)
total = 0.0
for _ in range(10):
    x = rng.random(1 << 16)
    total += float((np.exp(-x) / (1.0 + x)).sum())
print(repr(imported - start))
