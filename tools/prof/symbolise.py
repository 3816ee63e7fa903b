#!/usr/bin/env python3
"""Turns a shim.c dump into tables: symbolise.py PROF_OUT BINARY [--top N] [--under S] [--callers S]

Self = samples whose innermost frame is the symbol; inclusive = samples with
the symbol anywhere on the stack. --under keeps only the samples taken below
a symbol whose name contains S, and only the frames from it down; --callers prints
who called the symbols whose name contains S, by sample. Addresses outside
BINARY (libc, the vdso) are grouped by mapping.
"""
import argparse, bisect, collections, functools, os, subprocess

parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
parser.add_argument("dump")
parser.add_argument("binary")
parser.add_argument("--top", type=int, default=25)
parser.add_argument("--under")
parser.add_argument("--callers")
args = parser.parse_args()

lines = open(args.dump).read().splitlines()
split = lines.index("maps")
stacks = [[int(a, 16) for a in line.split()] for line in lines[:split] if line]
maps = []  # (start, end, path)
for line in lines[split + 1:]:
    fields = line.split(None, 5)  # span perms offset dev inode [path]
    start, end = (int(x, 16) for x in fields[0].split("-"))
    maps.append((start, end, fields[5] if len(fields) > 5 else "[anon]"))
# A PIE's first segment has virtual address 0: its load base is the lowest mapping.
binary = os.path.realpath(args.binary)
base = min((start for start, _, path in maps if path == binary), default=0)

symbols = []  # (address, name), ascending
for line in subprocess.run(["nm", "-C", "-n", binary], capture_output=True, text=True, check=True).stdout.splitlines():
    fields = line.split(None, 2)  # address kind name; undefined symbols have no address
    if len(fields) == 3 and fields[1] in "tTwW":
        symbols.append((int(fields[0], 16), fields[2]))
starts = [address for address, _ in symbols]

@functools.lru_cache(maxsize=None)  # a few thousand distinct addresses, sampled over and over
def name_of(address):
    for start, end, path in maps:
        if start <= address < end:
            if path != binary:
                return f"[{os.path.basename(path) or path}]"
            i = bisect.bisect_right(starts, address - base) - 1
            return symbols[i][1] if i >= 0 else "[?]"
    return "[unmapped]"

def first(stack, text):
    """Index of the innermost frame whose name contains `text`, or None."""
    return next((i for i, name in enumerate(stack) if text in name), None)

named = [[name_of(a) for a in stack] for stack in stacks]
if args.under:
    named = [stack[: first(stack, args.under) + 1] for stack in named if first(stack, args.under) is not None]
total = len(named)
self_, inclusive, callers = collections.Counter(), collections.Counter(), collections.Counter()
for stack in named:
    self_[stack[0]] += 1
    inclusive.update(set(stack))
    if args.callers:
        hit = first(stack, args.callers)
        if hit is not None:
            callers[stack[hit + 1] if hit + 1 < len(stack) else "[top of stack]"] += 1

def table(title, counts, of):
    print(f"\n{title} ({of} samples)")
    for name, n in counts.most_common(args.top):
        print(f"{n:8d} {100 * n / max(of, 1):5.1f}%  {name}")

table("self", self_, total)
table("inclusive", inclusive, total)
if args.callers:
    table(f"callers of *{args.callers}*", callers, sum(callers.values()))
