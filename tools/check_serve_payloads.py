#!/usr/bin/env python3
"""Checks that a `goc-serve` session transcript carries valid JSON payloads.

    python3 tools/check_serve_payloads.py SERVE.out EXPECTED_COUNT

Payload lines sit between command replies (`ok` / `err` lines); `job ` and
`progress ` rows are protocol lines of `jobs` / `watch`, not payloads.
Exits 1 unless every payload parses and there are EXPECTED_COUNT of them.
"""

import json
import sys


def main(argv):
    if len(argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    payloads, buf = [], []
    with open(argv[1]) as f:
        for line in f:
            if line.startswith(("ok", "err")):
                if buf:
                    payloads.append("".join(buf))
                    buf = []
            elif not line.startswith(("job ", "progress ")):
                buf.append(line)
    parsed = [json.loads(p) for p in payloads if p.strip()]
    expected = int(argv[2])
    if len(parsed) != expected:
        print(f"expected {expected} JSON payloads, got {len(parsed)}")
        return 1
    print(f"parsed {len(parsed)} JSON payloads")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
