"""Compare a file of acceptance rows with the golden digest.

    python tests/golden_digest.py sweep.jsonl

prints the sha256 of the file's text, trailing newlines stripped, and exits
1 when it differs from the digest in perfbench/golden/acceptance.json.
"""

import hashlib
import json
import sys
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent.parent / "perfbench" / "golden" / "acceptance.json"


def main(path: str) -> int:
    text = Path(path).read_text(encoding="utf-8").rstrip("\n")
    got = hashlib.sha256(text.encode()).hexdigest()
    print("sha256", got)
    return int(got != json.loads(GOLDEN.read_text())["digest"])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
