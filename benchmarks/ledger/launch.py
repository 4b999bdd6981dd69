"""Launcher of the ledger's child processes.

A child's ``ru_maxrss`` starts at the resident size of the process it was
forked from, so children forked by the benchmark itself (which has the
program imported and every design in memory) would all report at least
the benchmark's own size.  The benchmark therefore forks nothing that it
measures: this small process, run with ``python -S``, starts and reaps
every child and reports each one's own peak RSS.

Protocol: one JSON request per line on stdin, one JSON answer per line
on stdout.

* ``{"spawn": [argv...], "out": path}`` starts a child with stdout and
  stderr to ``path``; answers ``{"pid": n}``;
* ``{"poll": pid}`` answers ``{"running": bool}``;
* ``{"wait": pid, "timeout": s}`` reaps the child, killing it after
  ``s`` seconds; answers ``{"code": n or null when killed, "rss_mb": x,
  "wall_s": seconds from spawn to exit}``.

On end of input every child still running is killed and reaped.
"""

import json
import os
import subprocess
import sys
import threading
import time


def main():
    children = {}
    for line in sys.stdin:
        request = json.loads(line)
        if "spawn" in request:
            with open(request["out"], "w", encoding="utf-8") as out:
                start = time.perf_counter()
                proc = subprocess.Popen(request["spawn"], stdout=out,
                                        stderr=subprocess.STDOUT)
            children[proc.pid] = (proc, start)
            answer = {"pid": proc.pid}
        elif "poll" in request:
            proc, _start = children[request["poll"]]
            answer = {"running": proc.poll() is None}
        else:
            proc, start = children.pop(request["wait"])
            answer = reap(proc, start, request["timeout"])
        sys.stdout.write(json.dumps(answer) + "\n")
        sys.stdout.flush()
    for proc, start in children.values():
        reap(proc, start, 0)


def reap(proc, start, timeout):
    killed = threading.Event()

    def kill():
        killed.set()
        proc.kill()

    timer = threading.Timer(timeout, kill)
    timer.start()
    rss_mb = 0.0
    try:
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        rss_mb = usage.ru_maxrss / 1024
    except ChildProcessError:       # already reaped by poll()
        pass
    finally:
        timer.cancel()
    return {"code": None if killed.is_set() else proc.returncode,
            "rss_mb": rss_mb, "wall_s": time.perf_counter() - start}


if __name__ == "__main__":
    main()
