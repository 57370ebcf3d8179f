#!/usr/bin/env python3
"""Runtime scaling of the selection pipeline on sparse instances.

Generates one sparse system per size (expected ~5 stars per state row,
m = p = n/10) and times select_min_cost_io, best of --repeats runs.
The last column shows the runtime multiple versus the previous size.  B
and C hold about n*m/5 stars each, so the graph's edge count E grows about
4x per doubling, and a multiple near 4 is linear in the input.  The
slowest layers are bounded by E times a factor that grows with n:
Hopcroft-Karp is O(E * sqrt(n)), each side of stage 3 is O(d * E) for
d = n - nu(B(A)) (every kept channel is one search, and the failed
searches of the whole pass share their marks, so together they scan the
graph once), and the greedy covers scan every set in every iteration.
"""

import argparse
import time

from ioselect.oracle_bench import GeneratorConfig, generate
from ioselect.selector import select_min_cost_io


def timed_select(n, seed, repeats):
    cfg = GeneratorConfig(
        n=n, m=max(1, n // 10), p=max(1, n // 10),
        state_density=min(0.9, 5.0 / n),
        input_density=0.2, output_density=0.2,
        cost_range=("1", "99"), seed=seed,
    )
    system = generate(cfg)
    best = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        report = select_min_cost_io(system)
        dt = time.perf_counter() - t0
        best = dt if best is None else min(best, dt)
    return best, report


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", default="50,100,200,400,800")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args(argv)

    sizes = [int(tok) for tok in args.sizes.split(",") if tok.strip()]
    print(f"{'n':>6} {'m=p':>5} {'select_s':>10} {'xprev':>7}  guarantee")
    prev = None
    for n in sizes:
        dt, report = timed_select(n, args.seed, args.repeats)
        factor = "" if prev is None else f"{dt / prev:7.2f}"
        print(f"{n:>6} {max(1, n // 10):>5} {dt:>10.4f} {factor:>7}  {report.guarantee}")
        prev = dt
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
