"""Reference probes that measure the speed of the host, not of ddsearch.

The sandbox's host slows the whole VM by up to 2x for minutes at a time,
and CPU time slows with wall time, so no clock can skip the slowdown.  The
benchmark therefore times a fixed piece of work that does not depend on the
checkout next to every measurement and reports the measurement relative to
it.  The probes use only the interpreter, the standard library and numpy, so
a change to ddsearch cannot move them.

``reference_pass`` mirrors the mix of a solver pass: a seeded numpy
substream and a small normal draw per step, scalar float arithmetic, and
JSON encoding and decoding of small records.  ``REFERENCE_SETUP`` is what a
fresh interpreter running ddsearch pays before any ddsearch code: the
interpreter start and the numpy import.
"""

from __future__ import annotations

import json
import math

import numpy as np

REFERENCE_STEPS = 400
# A fresh interpreter's work before it imports ddsearch.
REFERENCE_SETUP = "import numpy"


def reference_pass() -> float:
    """Do the fixed reference work; return a checksum so it is not skipped."""
    lines = []
    total = 0.0
    for k in range(REFERENCE_STEPS):
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy=(12345, k))))
        gauss = rng.standard_normal((1, 1))
        norm = float(np.sqrt(np.sum(gauss * gauss, axis=1))[0])
        x = math.sin(k * 0.01) * norm + abs(k - 200) * 1e-3
        lines.append(json.dumps({"k": k, "x": [x], "f": x * x - 1.0, "kind": "poll"}))
    for line in lines:
        total += json.loads(line)["f"]
    return total
