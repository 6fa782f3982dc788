"""Set-up time a CLI user pays on every run: import flownet, load the scenario.

Run in a fresh process; prints the seconds from before the import to after
the load.

    python3 perfbench/setup_probe.py example1
"""

import sys
import time

start = time.perf_counter()
import flownet  # noqa: E402

flownet.load_scenario(sys.argv[1])
print(repr(time.perf_counter() - start))
