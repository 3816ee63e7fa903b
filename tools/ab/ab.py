#!/usr/bin/env python3
"""Alternating-pair A/B runs of two builds of the benchmark binary.

Runs one workload on a parent build (A) and a change build (B) in pairs,
alternating which side runs first, and prints each pair's values, their
ratio B/A, `failed` and peak RSS, then the median ratio, each side's
median and quartiles, and how many pairs each side won.

    tools/ab/ab.py PARENT_BIN CHANGE_BIN --workload join_wave \\
        [--metric ops_per_s] [--pairs 10] [--seconds 3] [--seeds 1]

See tools/ab/README.md.
"""

import argparse
import json
import statistics
import subprocess
import sys


def parse_args(argv):
    p = argparse.ArgumentParser(
        description="Alternating parent/change pairs of one benchmark workload."
    )
    p.add_argument("parent", help="benchmark binary built from the parent commit (A)")
    p.add_argument("change", help="benchmark binary built from the change (B)")
    p.add_argument("--workload", required=True, help="workload name, e.g. join_wave")
    p.add_argument(
        "--metric",
        default="ops_per_s",
        help="end-to-end metric to compare (default ops_per_s)",
    )
    p.add_argument("--pairs", type=int, default=10, help="number of pairs (default 10)")
    p.add_argument(
        "--seconds", type=float, default=3.0, help="--seconds of each run (default 3)"
    )
    p.add_argument(
        "--seeds",
        default="1",
        help="comma-separated seeds; pair i runs seed i mod their count (default 1)",
    )
    p.add_argument(
        "--smoke",
        action="store_true",
        help="pass --smoke to the benchmark (1/16 size): checks the tool, measures nothing",
    )
    args = p.parse_args(argv)
    if args.pairs < 1:
        p.error("--pairs must be at least 1")
    try:
        args.seeds = [int(s) for s in args.seeds.split(",")]
    except ValueError:
        p.error(f"--seeds {args.seeds!r} is not a list of integers")
    return args


def better_is_higher(binary, metric):
    """The metric's direction, from the benchmark's own metric table."""
    out = subprocess.run(
        [binary, "manifest"], check=True, capture_output=True, text=True
    ).stdout
    for m in json.loads(out)["end_to_end"]:
        if m["name"] == metric:
            return m["better"] == "higher"
    names = ", ".join(m["name"] for m in json.loads(out)["end_to_end"])
    sys.exit(f"ab: no end-to-end metric {metric!r}; there are: {names}")


def run(binary, args, seed):
    """One run; returns (metric value, failed, peak RSS MiB)."""
    cmd = [binary, "--workload", args.workload, "--seed", str(seed)]
    cmd += ["--seconds", str(args.seconds), "--trace", "0"]
    if args.smoke:
        cmd.append("--smoke")
    proc = subprocess.run(cmd, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"ab: {' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(lines[-1])
    metrics = result["metrics"]
    return (
        metrics[args.metric]["value"],
        int(result["failed"]),
        metrics["peak_rss_mib"]["value"],
    )


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def main(argv):
    args = parse_args(argv)
    higher = better_is_higher(args.parent, args.metric)
    print(
        f"{args.workload} {args.metric} ({'higher' if higher else 'lower'} is better), "
        f"{args.pairs} pairs, --seconds {args.seconds}"
    )
    print(
        f"{'pair':>4} {'seed':>6} {'first':>5} {'A':>14} {'B':>14} {'B/A':>7} "
        f"{'failed A/B':>10} {'rss A/B MiB':>15}"
    )
    a_vals, b_vals, ratios = [], [], []
    wins = {"A": 0, "B": 0}
    for i in range(args.pairs):
        seed = args.seeds[i % len(args.seeds)]
        first = "A" if i % 2 == 0 else "B"
        if first == "A":
            a, b = run(args.parent, args, seed), run(args.change, args, seed)
        else:
            b, a = run(args.change, args, seed), run(args.parent, args, seed)
        ratio = b[0] / a[0] if a[0] else float("nan")
        if a[0] != b[0]:
            wins["B" if (b[0] > a[0]) == higher else "A"] += 1
        a_vals.append(a[0])
        b_vals.append(b[0])
        ratios.append(ratio)
        print(
            f"{i + 1:>4} {seed:>6} {first:>5} {a[0]:>14.4f} {b[0]:>14.4f} {ratio:>7.3f} "
            f"{a[1]:>4}/{b[1]:<5} {a[2]:>7.1f}/{b[2]:<7.1f}",
            flush=True,
        )
    (a1, a2, a3), (b1, b2, b3) = quartiles(a_vals), quartiles(b_vals)
    print(f"A median {a2:.4f} (quartiles {a1:.4f} – {a3:.4f}, spread {a3 - a1:.4f})")
    print(f"B median {b2:.4f} (quartiles {b1:.4f} – {b3:.4f}, spread {b3 - b1:.4f})")
    print(f"median ratio B/A {statistics.median(ratios):.3f}")
    print(f"pairs won: B {wins['B']}, A {wins['A']}, tied {args.pairs - wins['A'] - wins['B']}")
    # The pair rule: at least ten pairs, B wins nine in ten, and the
    # medians differ by more than A's quartile spread.
    gain = args.pairs >= 10 and wins["B"] * 10 >= args.pairs * 9
    gain = gain and abs(b2 - a2) > a3 - a1 and (b2 > a2) == higher
    print("B gains by the pair rule" if gain else "no gain by the pair rule")


if __name__ == "__main__":
    main(sys.argv[1:])
