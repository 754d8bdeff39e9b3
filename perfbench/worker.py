"""One stream of a measured workload, in a fresh interpreter.

    python3 perfbench/worker.py WORKLOAD SEED STREAM SECONDS

harness.measure starts it once per stream, one at a time.  It prints one
JSON line with the op durations, work, failures, input counts, distinct
inputs and the peak resident memory of this process.
"""

import json
import sys
from pathlib import Path

if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import harness

    name, seed, stream, seconds = sys.argv[1:]
    print(json.dumps(harness.slice_in_process(name, int(seed), int(stream), float(seconds))))
