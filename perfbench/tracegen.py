"""Seeded native-format trace for the trace_policy_sweep workload.

The stream is built to load the cache layer the opposite way from the
synthetic SPEC profiles (low miss ratio, mostly loads). It alternates
PHASE_INSTS-instruction phases:

  - storm: a Zipf-distributed hot set over a data footprint of
    FOOTPRINT_BLOCKS 32-byte blocks (2 MB, 64x the 32 KB L1 data
    cache), so the miss ratio is high and the replacement policies
    disagree; every SCAN_PERIOD instructions a burst of SCAN_LEN
    one-shot sequential blocks that are never touched again (the
    pattern admission filtering exists to reject);
  - quiet: uniform reuse of the QUIET_BLOCKS hottest blocks, which fit
    in a fraction of the cache, so the dynamic controller's miss
    bound is met and it shrinks the cache (and grows it again when
    the next storm starts);
  - STORE_SHARE of memory operations are stores, so dirty writebacks
    and resize flushes carry real cost;
  - a 4 KB code loop closed by a taken backward branch, so the
    instruction side is a small, stable hit stream.

The same (seed, records) always yields the same bytes: the RNG is
seeded from the seed alone and gzip is written with mtime 0.
"""

import gzip
import itertools
import random

BLOCK = 32
FOOTPRINT_BLOCKS = 64 * 1024
ZIPF_ALPHA = 0.9
MEM_SHARE = 0.45
STORE_SHARE = 0.30
BRANCH_SHARE = 0.10
SCAN_PERIOD = 4096
SCAN_LEN = 256
PHASE_INSTS = 20000
QUIET_BLOCKS = 128
CODE_BASE = 0x400000
CODE_INSTS = 1024
DATA_BASE = 0x10000000
SCAN_BASE = 0x40000000


def generate(path, seed, records):
    """Write @p records instructions of the seeded trace to @p path
    (gzip-compressed native text)."""
    rng = random.Random(seed)
    # Hot-set ranks map to blocks scattered over the footprint, so the
    # hottest blocks do not all share a handful of cache sets.
    blocks = list(range(FOOTPRINT_BLOCKS))
    rng.shuffle(blocks)
    cum = list(itertools.accumulate(
        1.0 / (rank ** ZIPF_ALPHA)
        for rank in range(1, FOOTPRINT_BLOCKS + 1)))
    zipf = iter(rng.choices(blocks, cum_weights=cum, k=records))
    quiet = blocks[:QUIET_BLOCKS]

    lines = ["# rcache trace v1: op pc eff latency dep1 dep2 taken"
             " [target]\n"]
    scan_next = 0
    for i in range(records):
        pc = CODE_BASE + 4 * (i % CODE_INSTS)
        deps = "%d %d" % (rng.randrange(4), rng.randrange(4))
        if i % CODE_INSTS == CODE_INSTS - 1:
            lines.append("B %x 0 1 %s 1 %x\n" % (pc, deps, CODE_BASE))
            continue
        storm = (i // PHASE_INSTS) % 2 == 0
        in_scan = storm and i % SCAN_PERIOD < SCAN_LEN
        r = rng.random()
        if in_scan or r < MEM_SHARE:
            if in_scan:
                addr = SCAN_BASE + BLOCK * scan_next
                scan_next += 1
            else:
                block = next(zipf) if storm else rng.choice(quiet)
                addr = (DATA_BASE + BLOCK * block
                        + 8 * rng.randrange(BLOCK // 8))
            op = "S" if rng.random() < STORE_SHARE else "L"
            lines.append("%s %x %x 1 %s 0\n" % (op, pc, addr, deps))
        elif r < MEM_SHARE + BRANCH_SHARE:
            lines.append("B %x 0 1 %s 0\n" % (pc, deps))
        else:
            lines.append("I %x 0 1 %s 0\n" % (pc, deps))
    with open(path, "wb") as raw:
        with gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as gz:
            gz.write("".join(lines).encode())
