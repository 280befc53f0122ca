"""Set-up probe: import the program the way `cubicsym run` does and build all
corpus records; the caller times this process from spawn to exit.

With --dump it also prints every record's expected orders as JSON.
"""

import json
import sys

from cubicsym import cli  # noqa: F401  (the import `cubicsym run` pays)
from cubicsym import corpus

records = {rid: corpus.record(rid) for rid in corpus.all_ids()}
if "--dump" in sys.argv:
    print(json.dumps({rid: [r.projective_order, r.closure_order, r.symplectic_order]
                      for rid, r in records.items()}))
