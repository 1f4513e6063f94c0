"""Fixed reference task that measures how fast the machine is right now.

    python3 perfbench/reference.py

It uses nothing of chipgyro, so no change to the program moves its time. It
has the mix of costs of a chipgyro child: interpreter start, imports of
numpy, scipy and yaml, and then element-wise numpy work on arrays of a
million points, shaped like the arithmetic-geometric-mean iteration of the
field kernel. ``run.py`` runs it as a child before every program child, so
both see the same machine, and reports program times in units of its median
time.
"""

import numpy as np
import scipy.special  # noqa: F401  (import cost only)
import yaml  # noqa: F401  (import cost only)

x = np.linspace(1e-3, 1.0, 1_000_000)
acc = 0.0
for _ in range(20):
    a = np.sqrt(x * (1.0 + x))
    b = (x + 1.0) * 0.5
    for _ in range(3):
        a, b = np.sqrt(a * b), (a + b) * 0.5
    acc += float(np.sum(np.pi / (a + b) + np.exp(-x)))
print(acc)
