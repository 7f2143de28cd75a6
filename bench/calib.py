"""A fixed reference workload that measures how fast the machine is right now.

On a shared machine the same CPU-bound Python code runs up to half again as
slow for minutes at a time, and a whole run slows down with it. The benchmark
runs ``reference_work`` between its measured units and scales the CPU-bound
workloads' times by ``NOMINAL_MS`` over the reference's own time, so that a
slow stretch of the machine cancels out and a slow stretch of the program
does not.

The work mirrors where ``static_large`` spends its time: more than half in
``json.dump(indent=2)`` of nested records to files, the rest in building
dicts and lists from tokenised text and walking a graph of them. It depends
on nothing in ``src/``, so a change to the program cannot move it. Do not
change it without re-measuring every reference figure, since every scaled
figure is relative to it.
"""

from __future__ import annotations

import gc
import json
import os
import random
import re
import threading
import time

NOMINAL_MS = 40.0  # the reference's time on an unloaded 2-core VM, rounded
_TOKEN = re.compile(r"[A-Za-z_]+[0-9]*|[0-9]+|[()=<>!]+")
_LINES = tuple(
    f"it updates the state variable stor_{i % 24} to param{i % 3} when (x{i} >= {i * 7})"
    for i in range(64)
)


def reference_work(path: str) -> None:
    """One unit of the reference, written to ``path``; the same work on
    every call."""
    rng = random.Random(20250918)
    records = []
    for i in range(1200):
        tokens = _TOKEN.findall(_LINES[i % len(_LINES)])
        records.append(
            {
                "id": f"n{i}",
                "kind": tokens[rng.randrange(len(tokens))],
                "tokens": tokens,
                "children": [f"n{rng.randrange(1200)}" for _ in range(i % 4)],
                "depth": i % 7,
            }
        )
    edges = {r["id"]: set(r["children"]) for r in records}
    seen: set[str] = set()
    stack = [f"n{i}" for i in range(0, 1200, 40)]
    while stack:
        node = stack.pop()
        if node not in seen:
            seen.add(node)
            stack.extend(sorted(edges[node] - seen))
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"reached": sorted(seen), "records": records}, fh, indent=2)


def timed_reference(work_dir: str, threads: int = 1) -> float:
    """Seconds that ``threads`` units of the reference take when run at once,
    one on each thread, divided by ``threads``. Two CPU-bound threads hand
    the interpreter lock back and forth as the batch workers do, and that
    hand-off slows down far more than one thread does when the machine is
    busy."""
    paths = [os.path.join(work_dir, f"reference{i}.json") for i in range(threads)]
    # the reference makes no cycles; without the collector its time does not
    # depend on how many objects the program keeps alive
    gc.disable()
    try:
        start = time.perf_counter()
        if threads == 1:
            reference_work(paths[0])
        else:
            workers = [threading.Thread(target=reference_work, args=(p,)) for p in paths]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join()
        return (time.perf_counter() - start) / threads
    finally:
        gc.enable()
