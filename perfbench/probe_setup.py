"""Set-up cost of one CLI call, measured in a fresh interpreter.

From before ``import polshift`` until the inputs are loaded and the surface
modes found: what every ``shift`` command pays before it computes anything.

    python3 probe_setup.py MATERIAL_JSON [ATOM_JSON]

prints one JSON line {"setup_s", "import_s", "kernel_s"}.  ``kernel_s`` is
the time of a pure-Python calibration loop run just before and just after
(numpy may not be imported before polshift); run.py scales set-up times by
it, as speed.py does for the requests.
"""

import json
import sys
import time


def kernel_time():
    """Best of three runs of a fixed pure-Python loop."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        acc = 0.0
        for i in range(40000):
            acc += (i * 0.5) % 7.0
        best = min(best, time.perf_counter() - t0)
    return best


before = kernel_time()
t0 = time.perf_counter()
import polshift.cli as cli  # noqa: E402
t_import = time.perf_counter() - t0

material = cli.load_material(sys.argv[1])
if len(sys.argv) > 2:
    cli.load_atom(sys.argv[2])
cli.find_polariton_modes(material)
t_setup = time.perf_counter() - t0
print(json.dumps({"setup_s": t_setup, "import_s": t_import,
                  "kernel_s": 0.5 * (before + kernel_time())}))
