"""Set-up probe, run in a fresh interpreter with hexprism's source on the path.

Imports hexprism, then makes a cold get of every catalog key, which loads
and verifies every bundled design.  Prints one JSON line with both times.
"""

import json
import time

start = time.perf_counter()
import hexprism  # noqa: E402,F401
from hexprism import catalog  # noqa: E402

imported = time.perf_counter()
keys = catalog.keys()
for key in keys:
    catalog.get(key)
done = time.perf_counter()
print(json.dumps({"import_s": imported - start, "catalog_s": done - imported,
                  "entries": len(keys)}))
