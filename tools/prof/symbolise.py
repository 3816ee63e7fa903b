#!/usr/bin/env python3
"""Turns a shim.c dump into tables: symbolise.py PROF_OUT BINARY [--top N] [--under S] [--callers S [--lines]] [--self-lines S]

Self = samples whose innermost frame is the symbol; inclusive = samples with
the symbol anywhere on the stack. --under keeps only the samples taken below
a symbol whose name contains S, and only the frames from it down; --callers prints
who called the symbols whose name contains S, by sample, and with --lines the
call sites too, as `addr2line -i` names them (needs a binary built with debug
info). --self-lines S splits the self samples of the symbols whose name contains
S by the source line each was taken at, the same way. Addresses outside BINARY
(libc, the vdso) are grouped by mapping.
"""
import argparse, bisect, collections, functools, os, subprocess, sys

parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
parser.add_argument("dump")
parser.add_argument("binary")
parser.add_argument("--top", type=int, default=25)
parser.add_argument("--under")
parser.add_argument("--callers")
parser.add_argument("--lines", action="store_true", help="with --callers: file:line of each call site, inlined frames included")
parser.add_argument("--self-lines", metavar="TEXT", help="file:line of the self samples of symbols whose name contains TEXT")
args = parser.parse_args()
if args.lines and not args.callers:
    parser.error("--lines needs --callers")
# A rebuilt binary has other addresses: an old dump then symbolises without
# complaint and wrongly (`--callers` of a hot function answers "0 samples").
if os.path.getmtime(args.binary) > os.path.getmtime(args.dump):
    print(f"warning: {args.binary} is newer than {args.dump}: if it was rebuilt since the "
          "dump was taken, every name below is wrong", file=sys.stderr)

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

samples = [(raw, [name_of(a) for a in raw]) for raw in stacks]  # addresses beside their names
if args.under:
    samples = [(raw[: cut + 1], stack[: cut + 1]) for raw, stack in samples
               if (cut := first(stack, args.under)) is not None]
total = len(samples)
self_, inclusive, callers, sites, spots = (collections.Counter() for _ in range(5))
for raw, stack in samples:
    self_[stack[0]] += 1
    if args.self_lines and args.self_lines in stack[0] and not stack[0].startswith("["):
        spots[raw[0]] += 1  # an instruction pointer inside BINARY
    inclusive.update(set(stack))
    if args.callers:
        hit = first(stack, args.callers)
        if hit is not None:
            callers[stack[hit + 1] if hit + 1 < len(stack) else "[top of stack]"] += 1
            if hit + 1 < len(stack) and not stack[hit + 1].startswith("["):
                sites[raw[hit + 1]] += 1  # a return address inside BINARY

def table(title, counts, of):
    print(f"\n{title} ({of} samples)")
    for name, n in counts.most_common(args.top):
        print(f"{n:8d} {100 * n / max(of, 1):5.1f}%  {name}")

table("self", self_, total)
table("inclusive", inclusive, total)
if args.callers:
    table(f"callers of *{args.callers}*", callers, sum(callers.values()))
if args.lines:
    # The frame above a symbol holds the return address, one past the call:
    # step back into the call instruction before asking for its line.
    print(f"\ncall sites of *{args.callers}* ({sum(sites.values())} samples)")
    for address, n in sites.most_common(args.top):
        where = subprocess.run(["addr2line", "-i", "-e", binary, hex(address - base - 1)],
                               capture_output=True, text=True, check=True).stdout.split()
        print(f"{n:8d}  {name_of(address)}\n" + "\n".join(f"{'':10}{line}" for line in where))
if args.self_lines:
    # An instruction pointer is the sampled instruction itself: no step back.
    # One addr2line run for every address (none would make it read stdin);
    # `-a` heads each address's lines.
    out = subprocess.run(["addr2line", "-a", "-i", "-e", binary] + [hex(a - base) for a in spots],
                         capture_output=True, text=True, check=True).stdout.splitlines() if spots else []
    heads = [i for i, word in enumerate(out) if word.startswith("0x")] + [len(out)]
    where = collections.Counter()
    for address, lo, hi in zip(spots, heads, heads[1:]):
        where[tuple(out[lo + 1:hi])] += spots[address]
    print(f"\nself lines of *{args.self_lines}* ({sum(spots.values())} samples, innermost inlined frame first)")
    for chain, n in where.most_common(args.top):
        print(f"{n:8d} {100 * n / max(total, 1):5.1f}%  " + f"\n{'':16}".join(chain))
