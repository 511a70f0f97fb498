"""Starts the laxcat commands of bench/run.py from a small process.

A child's peak resident set includes the pages of the process that forked
it, and the benchmark process holds numpy, the inputs and the outputs.
Forking from this process instead keeps the reported peak that of laxcat.

Reads one JSON argument list per line from stdin, runs
`python -m laxcat ARGS` and answers with one JSON line {code, err}.  At
the end of input it answers {maxrss_kb}: the largest resident set of any
command it ran.
"""

import json
import resource
import subprocess
import sys

TIMEOUT_S = 150


def main():
    for line in sys.stdin:
        argv = [sys.executable, "-m", "laxcat", *json.loads(line)]
        try:
            p = subprocess.run(argv, stdin=subprocess.DEVNULL,
                               stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                               timeout=TIMEOUT_S)
            reply = {"code": p.returncode,
                     "err": p.stderr.decode(errors="replace")}
        except subprocess.TimeoutExpired:
            reply = {"code": None, "err": "timed out"}
        print(json.dumps(reply), flush=True)
    rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    print(json.dumps({"maxrss_kb": rss}), flush=True)


if __name__ == "__main__":
    main()
