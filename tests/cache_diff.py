"""Compare a cold slow-tier cache with the committed one.

    python tests/cache_diff.py COLD_DIR [COMMITTED_DIR]

Prints, for each entry the cold run wrote, the largest absolute difference
between the numbers of its value and those of the committed entry of the
same file name (COMMITTED_DIR defaults to tests/.acceptance_cache); a text
value, such as the campaign's CSV, is compared field by field, and values
that differ other than in their numbers read as inf. Differences are
reported, not gated. Exits 1 if the cold run wrote a file name the
committed cache lacks, since the committed cache must hold every entry
under the key its settings give it.
"""

import json
import math
import re
import sys
from pathlib import Path


def _number(text):
    try:
        return float(text)
    except ValueError:
        return text


def largest_difference(a, b) -> float:
    """The largest |a - b| over the numbers a and b hold at the same
    places; inf if they differ anywhere else."""
    if isinstance(a, str) and isinstance(b, str) and a != b:
        a, b = ([_number(f) for f in re.split(r"[,\r\n]+", text)]
                for text in (a, b))
        if len(a) == 1 and len(b) == 1:
            a, b = a[0], b[0]
    if isinstance(a, dict) and isinstance(b, dict):
        if a.keys() != b.keys():
            return math.inf
        return max(map(largest_difference, a.values(),
                       (b[k] for k in a)), default=0.0)
    if isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            return math.inf
        return max(map(largest_difference, a, b), default=0.0)
    numbers = all(isinstance(v, (int, float)) and not isinstance(v, bool)
                  for v in (a, b))
    if numbers:
        return abs(a - b)
    return 0.0 if a == b else math.inf


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    cold = Path(argv[0])
    committed = Path(argv[1] if len(argv) > 1
                     else Path(__file__).parent / ".acceptance_cache")
    new_names = 0
    for path in sorted(cold.glob("*.json")):
        kept = committed / path.name
        if not kept.exists():
            print(f"{path.name}: not in the committed cache")
            new_names += 1
            continue
        diff = largest_difference(json.loads(path.read_text()),
                                  json.loads(kept.read_text()))
        print(f"{path.name}: largest difference {diff:.3g}")
    return 1 if new_names else 0


if __name__ == "__main__":
    sys.exit(main())
