#!/usr/bin/env python3
"""Fail when a study served from a warm trace cache peaks at more than
twice the memory of the same study run live.

    python3 .github/scripts/check_warm_memory.py EXPERIMENTS CACHE [ARG...]

runs `EXPERIMENTS ARG... all` live, then `EXPERIMENTS --trace-cache
CACHE ARG... all`, each as a child of its own, and reads each child's
own peak resident set from `os.wait4` (`RUSAGE_CHILDREN` keeps the
largest of all children, so it cannot tell the two apart). The warm run
must record nothing, so that it measures serving, and both runs must
print the same bytes. Peak RSS counts mapped sidecar pages while they
are resident, so a cache that keeps every stream it serves resident
fails here. Linux only: `ru_maxrss` is in KiB there.
"""

import os
import subprocess
import sys
import tempfile

LIMIT = 2.0


def run(argv):
    """Runs argv; returns (exit code, stdout, stderr, peak RSS in MB)."""
    with tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err:
        child = subprocess.Popen(argv, stdout=out, stderr=err)
        # reap the child here, not through Popen, to read its own usage
        _, status, usage = os.wait4(child.pid, 0)
        child.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return child.returncode, out.read(), err.read(), usage.ru_maxrss / 1024


def main():
    if len(sys.argv) < 3:
        sys.exit(__doc__)
    experiments, cache, args = sys.argv[1], sys.argv[2], sys.argv[3:]
    live = run([experiments, *args, "all"])
    warm = run([experiments, "--trace-cache", cache, *args, "all"])
    for name, (code, _, stderr, _) in (("live", live), ("warm", warm)):
        if code != 0:
            sys.exit(f"{name} run exited {code}:\n{stderr.decode()}")
    if b" 0 recordings" not in warm[2]:
        sys.exit(f"the cache at {cache} is not warm:\n{warm[2].decode()}")
    if live[1] != warm[1]:
        sys.exit("live and warm runs printed different bytes")
    ratio = warm[3] / live[3]
    print(f"peak RSS: live {live[3]:.1f} MB, warm {warm[3]:.1f} MB ({ratio:.2f}x)")
    if ratio > LIMIT:
        sys.exit(f"warm peak RSS exceeds {LIMIT}x live")


if __name__ == "__main__":
    main()
