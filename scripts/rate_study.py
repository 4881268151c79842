#!/usr/bin/env python3
"""Empirical step-ratio study on randomly generated TZ instances.

For each instance the Picard orbits are run from every start, in one
``uniqueness_probe`` call, and the consecutive T-image gap ratios are
measured.  Two candidate bounds are
compared:

* the enforced bound  h = delta            (valid for every delta < 1)
* the primary-form bound  delta/(1-2*delta)  (finite only for delta < 1/2,
  and below 1 only for delta < 1/3)

The script also searches the window delta in [1/3, 1/2) for any instance
whose measured ratio exceeds delta, which would undermine the enforced
bound; none is expected, and findings are reported either way.
"""

import argparse
import math

from conefix.contractions import rate_from_primary_form, zamfirescu_delta
from conefix.oracle import generate_tz_corpus
from conefix.solver import StoppingRule, uniqueness_probe


def measure(instance):
    space, maps = instance.fin.space, instance.fin.maps
    traces = uniqueness_probe(space, maps, instance.fin.points, StoppingRule(max_iter=200)).traces
    return [r for trace in traces for r in trace.step_ratios()]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--count", type=int, default=200)
    parser.add_argument("--seed", type=int, default=31)
    args = parser.parse_args(argv)

    corpus = generate_tz_corpus(args.count, seed=args.seed)
    print(f"{'delta':>8} {'max ratio':>10} {'primary-form':>13} {'ratio<=delta':>13}")
    offenders = 0
    window_hits = 0
    window_offenders = 0
    for g in corpus:
        delta = zamfirescu_delta(g.spec.a, g.spec.b, g.spec.c)
        ratios = measure(g)
        if not ratios:
            continue
        peak = max(ratios)
        primary = rate_from_primary_form(delta)
        bounded = peak <= delta + 1e-9
        offenders += not bounded
        if 1.0 / 3.0 <= delta < 0.5:
            window_hits += 1
            window_offenders += not bounded
        primary_txt = f"{primary:10.4f}" if math.isfinite(primary) else "       inf"
        print(f"{delta:8.4f} {peak:10.4f} {primary_txt:>13} {str(bounded):>13}")

    print()
    print(f"instances with measured ratios: reported above; offenders vs delta: {offenders}")
    print(
        f"window delta in [1/3, 1/2): {window_hits} instances, "
        f"{window_offenders} with ratio above delta (expected 0)"
    )
    return 1 if offenders else 0


if __name__ == "__main__":
    raise SystemExit(main())
