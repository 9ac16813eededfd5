"""Run one ``qtanner`` CLI call in this fresh process and report its peak RSS.

    python3 benchmarks/peak_rss.py <src dir> <qtanner cli arguments...>

Prints one JSON line: the CLI's return code, the file qtanner was
imported from, and the process's peak resident set size in KiB.
"""

import json
import resource
import sys


def main() -> None:
    sys.path.insert(0, sys.argv[1])
    from qtanner import cli

    rc = cli.main(sys.argv[2:])
    print(json.dumps({
        "rc": rc,
        "imported_from": cli.__file__,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }))


if __name__ == "__main__":
    main()
