#!/usr/bin/env python3
"""Offline replay of one worker's barrier frames through the wire codec.

Runs the ledger's ``dlog-sharded-w2`` call once with a tap on the workers'
encoder, keeps every payload the busiest worker shipped, and then times, in
this process and with no simulation running, encoding those payloads and
decoding the resulting frames — with the shipped codec and with the
one-hook-per-object codec of ``tests/reference/wire.py``.  Frames must be
byte-identical, and each decoded graph must equal its payload and share
exactly the objects the payload shares (``tests.reference.wire.sharing``)::

    PYTHONPATH=src python3 benchmarks/wire_replay.py
    PYTHONPATH=src python3 benchmarks/wire_replay.py --seed 7 --repeats 7

Times are the fastest of ``--repeats`` passes over all frames, collector off.
A reported number (EXPERIMENTS.md "Barrier plane round 3"), not a threshold.

``--split`` instead runs the same call with CPU clocks around the workers'
encodes, the parent's decodes and the parent's merge stage, and prints where
the process tree's CPU seconds went (run it under ``taskset -c 0`` to meet
the ledger's conditions: every process on one core).
"""

from __future__ import annotations

import argparse
import gc
import os
import pickle
import sys
import tempfile
import types
from pathlib import Path
from time import perf_counter, process_time
from typing import Any, Callable, Dict, List

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT))  # tests.reference

from repro.bench.parallel import run_fig6_sharded  # noqa: E402
from repro.core.smr import ReactiveMergeStage  # noqa: E402
from repro.sim import parallel  # noqa: E402
from repro.sim.network import decode_wire, encode_wire  # noqa: E402
from tests.reference.wire import (  # noqa: E402
    plain_pickle,
    reference_decode,
    reference_encode,
    sharing,
)


def ledger_call(seed: int, duration: float) -> Any:
    """The ``dlog-sharded-w2`` call of ``benchmarks/ledger`` (one slice)."""
    return run_fig6_sharded(2, workers=2, clients_per_ring=8, warmup=0.25,
                            duration=duration, seed=seed, configuration="shared")


def capture(seed: int, duration: float) -> List[Any]:
    """The payloads the busiest worker encoded during one sharded fig6 run."""
    with tempfile.TemporaryDirectory() as spool:
        def tap(payload: Any) -> bytes:
            # Spooled by generic pickling, which never runs the segment
            # decoder under test: the replayed payloads share what the run's
            # shared, whatever that decoder does.
            with open(os.path.join(spool, str(os.getpid())), "ab") as out:
                out.write(plain_pickle(payload))
            return encode_wire(payload)

        parallel.encode_wire = tap  # workers fork from this process
        try:
            ledger_call(seed, duration)
        finally:
            parallel.encode_wire = encode_wire
        parent = str(os.getpid())
        workers = [p for p in Path(spool).iterdir() if p.name != parent]
        busiest = max(workers, key=lambda p: p.stat().st_size)
        payloads = []
        with open(busiest, "rb") as spooled:
            while True:
                try:
                    payloads.append(pickle.load(spooled))
                except EOFError:
                    return payloads


def cpu_split(seed: int, duration: float) -> Dict[str, float]:
    """CPU seconds of one sharded call: shards / encode / decode / merge stage / rest."""
    spent = {"decode": 0.0, "merge_stage": 0.0}

    def clocked(name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        def call(*args: Any) -> Any:
            started = process_time()
            try:
                return fn(*args)
            finally:
                spent[name] += process_time() - started
        return call

    with tempfile.TemporaryDirectory() as spool:
        def tap(payload: Any) -> bytes:
            started = process_time()
            frame = encode_wire(payload)
            with open(os.path.join(spool, str(os.getpid())), "a") as out:
                out.write(f"{process_time() - started}\n")
            return frame

        sink = ReactiveMergeStage.sink
        shim = types.SimpleNamespace(**vars(pickle))
        shim.loads = clocked("decode", pickle.loads)
        parallel.encode_wire, parallel.pickle = tap, shim
        ReactiveMergeStage.sink = clocked("merge_stage", sink)
        before = os.times()
        try:
            ledger_call(seed, duration)
        finally:
            parallel.encode_wire, parallel.pickle = encode_wire, pickle
            ReactiveMergeStage.sink = sink
        after = os.times()
        parent = str(os.getpid())
        encode = sum(float(line) for p in Path(spool).iterdir() if p.name != parent
                     for line in p.read_text().split())
    own = (after.user - before.user) + (after.system - before.system)
    workers = ((after.children_user - before.children_user)
               + (after.children_system - before.children_system))
    return {
        "tree_cpu_s": own + workers,
        "shards_s": workers - encode,
        "encode_s": encode,
        "decode_s": spent["decode"],
        "merge_stage_s": spent["merge_stage"],
        "rest_s": own - spent["decode"] - spent["merge_stage"],
    }


def fastest(fn: Callable[[Any], Any], items: List[Any], repeats: int) -> float:
    """Seconds of the fastest pass of ``fn`` over every item."""
    best = float("inf")
    for _ in range(repeats):
        started = perf_counter()
        for item in items:
            fn(item)
        best = min(best, perf_counter() - started)
    return best


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--duration", type=float, default=2.0)
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--split", action="store_true",
                        help="print the CPU split of one sharded call instead")
    args = parser.parse_args()

    if args.split:
        print("  ".join(f"{name} {seconds:.3f}"
                        for name, seconds in cpu_split(args.seed, args.duration).items()))
        return 0

    payloads = capture(args.seed, args.duration)
    frames = [encode_wire(payload) for payload in payloads]
    for payload, frame in zip(payloads, frames):
        if frame != reference_encode(payload):
            raise SystemExit("wire_replay: frame differs from the reference codec's")
        decoded = decode_wire(frame)
        if decoded != reference_decode(frame) or decoded != payload:
            raise SystemExit("wire_replay: decoded graph differs")
        if sharing(decoded) != sharing(payload):
            raise SystemExit("wire_replay: decoded graph shares other objects than the payload")

    gc.collect()
    gc.disable()
    times: Dict[str, float] = {
        "encode_reference_s": fastest(reference_encode, payloads, args.repeats),
        "encode_s": fastest(encode_wire, payloads, args.repeats),
        "encode_plain_pickle_s": fastest(plain_pickle, payloads, args.repeats),
        "decode_reference_s": fastest(reference_decode, frames, args.repeats),
        "decode_s": fastest(decode_wire, frames, args.repeats),
    }
    gc.enable()
    print(f"frames {len(frames)}  bytes {sum(map(len, frames))}  "
          f"plain-pickle bytes {sum(len(plain_pickle(p)) for p in payloads)}")
    for name, seconds in times.items():
        print(f"{name:24s} {seconds:.4f}")
    print(f"encode ratio {times['encode_s'] / times['encode_reference_s']:.2f}  "
          f"decode ratio {times['decode_s'] / times['decode_reference_s']:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
