#!/usr/bin/env python3
"""Bench regression gate: compare a fresh BENCH_serve.json against the
committed one and fail on significant regressions.

Policy (chosen so the gate is meaningful across runner generations):

  * Throughput and speedup leaves (keys ending in ``_rps`` or containing
    ``speedup``) must not drop below ``committed * (1 - tolerance)``.
    These are the numbers each PR claims; a >25% drop means the claimed
    win evaporated.
  * Stage timings (``*_ms`` keys inside a ``stages*`` object) are compared
    as a *share of their scenario's stage total*, not as absolute
    milliseconds — absolute times track raw machine speed, shares track
    pipeline shape. A stage whose share grows by more than
    ``share_tolerance`` (absolute, e.g. 0.25 = 25 percentage points)
    indicates the stage regressed relative to its pipeline.
  * Retrieval-quality leaves: ``recall_at1`` (the headline sweep point the
    PR advertises) must stay >= ``recall_floor``, and ``default_recall_at1``
    (the out-of-the-box nprobe — the falsifiable signal, since the headline
    re-picks a compliant point each run) must stay >=
    ``default_recall_floor``. Absolute floors, not relative ones: a speedup
    bought below the floor is a regression regardless of the baseline.
  * ``faulted_recall_at1`` (the fault-storm scenario's recall@1 while a
    drift + stuck-column storm is live and unrepaired, against the same
    engine's pristine-pass indices) must stay >= ``faulted_recall_floor``:
    serving through device faults must degrade gracefully, never collapse.
    Same-engine ratio of match counts, hardware-portable, active under
    ``--ratios-only``. The companion ``fault_impact`` (p95 serving while
    the background scrubber repairs the storm / steady p95) is gated by
    the generic ``_impact`` ceiling rule below.
  * Impact-ratio leaves (keys ending in ``_impact``, e.g. the churn
    scenario's p95 ratio of serving-under-churn vs steady serving) are
    LOWER-is-better and hardware-portable (both sides of the ratio come
    from the same run): the fresh value must not grow above
    ``committed * (1 + tolerance)`` — a >25% growth means live
    migration/router refresh started hurting tail latency.
  * Tail-latency leaves (keys ending in ``p99_latency_ms``) are
    LOWER-is-better absolute milliseconds: gated like ``_rps`` but against
    a ``committed * (1 + tolerance)`` ceiling, and skipped under
    ``--ratios-only`` for the same reason (absolute time tracks raw
    machine speed).
  * ``obs_overhead_frac`` (the observability scenario's tracing-on vs
    tracing-off throughput loss) is gated against an absolute ceiling
    (``--obs-overhead-ceiling``). It is a same-run ratio, so it stays
    active under ``--ratios-only`` — tracing must stay near-free.
  * ``churn_slowdown`` (the churn scenario's steady_rps / churn_rps) is
    gated against an absolute ceiling (``--churn-slowdown-ceiling``).
    Same-run ratio, active under ``--ratios-only``. Write-behind batched
    admission programming is what keeps it bounded — the collapse was 6.3x
    on a multi-core host when admissions programmed key columns
    synchronously on the caller thread. The ceiling (5x) hard-fails any
    return to that regime while leaving headroom for single-core runners,
    where serving and programming share one core and the floor is the CPU
    ratio itself (~3.3-3.7x regardless of overlap).
  * ``fairness_impact`` (the SLO scenario's cold-tenant p99 under DRR with
    a saturating hot tenant, divided by the same probe's uncontended p99)
    is gated against an absolute ceiling (``--fairness-ceiling``): the
    scheduler's fairness guarantee is that a hot tenant cannot push a cold
    tenant's tail past 2x its uncontended tail. Same-run ratio, active
    under ``--ratios-only``.
  * ``deadline_miss_frac`` (the SLO scenario's expired + late fraction of
    deadline-carrying requests under DRR, with deadlines sized to be
    comfortably meetable) is gated against an absolute ceiling
    (``--deadline-miss-ceiling``). Same-run ratio, active under
    ``--ratios-only`` — nonzero drift means deadline-aware dequeue rotted.
  * All other leaves (absolute microbench ms, request counts, sweep-point
    recalls, ...) are informational only.

Exit status: 0 = no regression, 1 = regression, 2 = usage/structure error.
"""

import argparse
import json
import sys


def walk(node, path=()):
    """Yield (path, value) for every numeric leaf."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from walk(value, path + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from walk(value, path + (str(i),))
    elif isinstance(node, (int, float)) and not isinstance(node, bool):
        yield path, float(node)


def lookup(node, path):
    for key in path:
        if isinstance(node, list):
            idx = int(key)
            if idx >= len(node):
                return None
            node = node[idx]
        elif isinstance(node, dict):
            if key not in node:
                return None
            node = node[key]
        else:
            return None
    return node if isinstance(node, (int, float)) and not isinstance(node, bool) else None


def stage_share(doc, path):
    """Share of this ``_ms`` leaf within its parent stages object, or None."""
    parent = doc
    for key in path[:-1]:
        parent = parent[int(key)] if isinstance(parent, list) else parent[key]
    if not isinstance(parent, dict):
        return None
    siblings = {k: v for k, v in parent.items()
                if k.endswith("_ms") and isinstance(v, (int, float))}
    total = sum(siblings.values())
    return None if total <= 0 else siblings[path[-1]] / total


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("committed", help="committed BENCH_serve.json (the baseline)")
    ap.add_argument("fresh", help="freshly produced BENCH_serve.json")
    ap.add_argument("--tolerance", type=float, default=0.25,
                    help="relative drop allowed for rps/speedup leaves (default 0.25)")
    ap.add_argument("--share-tolerance", type=float, default=0.25,
                    help="absolute stage-share growth allowed (default 0.25)")
    ap.add_argument("--recall-floor", type=float, default=0.95,
                    help="absolute floor for the headline recall_at1 leaf in the "
                         "fresh run (default 0.95)")
    ap.add_argument("--default-recall-floor", type=float, default=0.90,
                    help="absolute floor for default_recall_at1 — the shipped "
                         "default nprobe's recall. Looser than the headline floor: "
                         "the default point sits near 0.95 and floats run to run, "
                         "but a catastrophic routing regression (e.g. 0.5) must "
                         "fail (default 0.90)")
    ap.add_argument("--faulted-recall-floor", type=float, default=0.90,
                    help="absolute floor for faulted_recall_at1 — recall@1 "
                         "while an unrepaired drift + stuck-column storm is "
                         "live. Faults corrupt a bounded set of tenant "
                         "columns, so serving must degrade gracefully "
                         "(default 0.90)")
    ap.add_argument("--obs-overhead-ceiling", type=float, default=0.03,
                    help="absolute ceiling for obs_overhead_frac — the fraction "
                         "of throughput tracing may cost (default 0.03; the "
                         "tracer's design target is ~2%%, the ceiling leaves "
                         "one point of measurement noise)")
    ap.add_argument("--churn-slowdown-ceiling", type=float, default=5.0,
                    help="absolute ceiling for churn_slowdown — how many times "
                         "slower serving may get under admit/evict churn "
                         "(default 5.0; synchronous programming collapsed to "
                         "6.3x on a multi-core host, and single-core runners "
                         "floor at ~3.3-3.7x — the CPU ratio of programming "
                         "to serving — even with write-behind overlap)")
    ap.add_argument("--fairness-ceiling", type=float, default=2.0,
                    help="absolute ceiling for fairness_impact — cold-tenant "
                         "p99 under DRR with a saturating hot tenant, as a "
                         "multiple of its uncontended p99 (default 2.0: the "
                         "scheduler's shipped fairness guarantee)")
    ap.add_argument("--deadline-miss-ceiling", type=float, default=0.05,
                    help="absolute ceiling for deadline_miss_frac — the "
                         "expired + late fraction of deadline-carrying "
                         "requests in the SLO scenario, whose deadlines are "
                         "sized to be comfortably meetable (default 0.05)")
    ap.add_argument("--ratios-only", action="store_true",
                    help="gate only hardware-portable metrics (speedup ratios and "
                         "stage shares), skipping absolute *_rps leaves — use when "
                         "the baseline was produced on different hardware than the "
                         "fresh run (e.g. heterogeneous CI runners)")
    args = ap.parse_args()

    try:
        with open(args.committed) as f:
            committed = json.load(f)
        with open(args.fresh) as f:
            fresh = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"bench_gate: cannot load inputs: {e}", file=sys.stderr)
        return 2

    failures = []
    checked = 0
    for path, base in walk(committed):
        key = path[-1]
        dotted = ".".join(path)
        value = lookup(fresh, path)
        if value is None:
            failures.append(f"MISSING  {dotted}: present in committed baseline, "
                            "absent from fresh run")
            continue
        if key in ("recall_at1", "default_recall_at1"):
            # Absolute quality floors, hardware-portable by construction.
            floor = args.recall_floor if key == "recall_at1" else args.default_recall_floor
            checked += 1
            status = "ok" if value >= floor else "REGRESSED"
            print(f"{status:>9}  {dotted}: {base:.4f} -> {value:.4f} "
                  f"(floor {floor:.2f})")
            if value < floor:
                failures.append(f"REGRESSED  {dotted}: recall {value:.4f} below "
                                f"floor {floor:.2f}")
        elif key == "faulted_recall_at1":
            # Absolute quality floor under a live (unrepaired) fault storm:
            # same-engine match ratio, hardware-portable, active under
            # --ratios-only.
            checked += 1
            floor = args.faulted_recall_floor
            status = "ok" if value >= floor else "REGRESSED"
            print(f"{status:>9}  {dotted}: {base:.4f} -> {value:.4f} "
                  f"(floor {floor:.2f})")
            if value < floor:
                failures.append(f"REGRESSED  {dotted}: recall {value:.4f} under "
                                f"fault storm below floor {floor:.2f} — faults "
                                "are no longer contained to their columns")
        elif key == "fairness_impact":
            # Absolute ceiling on a same-run ratio (cold-tenant p99 under DRR
            # vs uncontended): hardware-portable, active under --ratios-only.
            # Checked before the generic _impact rule — the guarantee is
            # absolute (2x), not relative to whatever the baseline drifted to.
            checked += 1
            ceiling = args.fairness_ceiling
            status = "ok" if value <= ceiling else "REGRESSED"
            print(f"{status:>9}  {dotted}: {base:.3f} -> {value:.3f} "
                  f"(ceiling {ceiling:.2f})")
            if value > ceiling:
                failures.append(f"REGRESSED  {dotted}: cold-tenant p99 under a "
                                f"saturating hot tenant is {value:.2f}x its "
                                f"uncontended p99 (ceiling {ceiling:.2f}x) — "
                                "DRR fair queuing is not protecting cold tenants")
        elif key == "deadline_miss_frac":
            # Absolute ceiling on a same-run fraction: hardware-portable,
            # active under --ratios-only.
            checked += 1
            ceiling = args.deadline_miss_ceiling
            status = "ok" if value <= ceiling else "REGRESSED"
            print(f"{status:>9}  {dotted}: {base:.4f} -> {value:.4f} "
                  f"(ceiling {ceiling:.2f})")
            if value > ceiling:
                failures.append(f"REGRESSED  {dotted}: {value:.1%} of "
                                f"comfortably-meetable deadlines missed "
                                f"(ceiling {ceiling:.1%}) — deadline-aware "
                                "dequeue is broken")
        elif key.endswith("_impact"):
            # Lower-is-better ratio (e.g. churn p95 / steady p95): gate the
            # growth. Ratios are hardware-portable, so this stays active
            # under --ratios-only.
            checked += 1
            ceiling = base * (1.0 + args.tolerance)
            status = "ok" if value <= ceiling else "REGRESSED"
            print(f"{status:>9}  {dotted}: {base:.3f} -> {value:.3f} "
                  f"(ceiling {ceiling:.3f})")
            if value > ceiling:
                failures.append(f"REGRESSED  {dotted}: impact ratio {base:.3f} -> "
                                f"{value:.3f} (allowed ceiling {ceiling:.3f})")
        elif key == "obs_overhead_frac":
            # Absolute ceiling on a same-run ratio: hardware-portable, so it
            # stays active under --ratios-only.
            checked += 1
            ceiling = args.obs_overhead_ceiling
            status = "ok" if value <= ceiling else "REGRESSED"
            print(f"{status:>9}  {dotted}: {base:.4f} -> {value:.4f} "
                  f"(ceiling {ceiling:.2f})")
            if value > ceiling:
                failures.append(f"REGRESSED  {dotted}: tracing overhead "
                                f"{value:.1%} above ceiling {ceiling:.1%}")
        elif key == "churn_slowdown":
            # Absolute ceiling on a same-run throughput ratio (steady_rps /
            # churn_rps): hardware-portable, so it stays active under
            # --ratios-only.
            checked += 1
            ceiling = args.churn_slowdown_ceiling
            status = "ok" if value <= ceiling else "REGRESSED"
            print(f"{status:>9}  {dotted}: {base:.3f} -> {value:.3f} "
                  f"(ceiling {ceiling:.2f})")
            if value > ceiling:
                failures.append(f"REGRESSED  {dotted}: churn slows serving "
                                f"{value:.2f}x (ceiling {ceiling:.2f}x) — the "
                                "write-behind admission overlap is broken")
        elif key.endswith("p99_latency_ms"):
            # Lower-is-better absolute tail latency; machine-speed-bound, so
            # skipped when the baseline came from different hardware.
            if args.ratios_only:
                continue
            checked += 1
            ceiling = base * (1.0 + args.tolerance)
            status = "ok" if value <= ceiling else "REGRESSED"
            print(f"{status:>9}  {dotted}: {base:.3f} -> {value:.3f} "
                  f"(ceiling {ceiling:.3f})")
            if value > ceiling:
                failures.append(f"REGRESSED  {dotted}: p99 {base:.3f} -> "
                                f"{value:.3f} ms (allowed ceiling {ceiling:.3f})")
        elif key.endswith("_rps") or "speedup" in key:
            if args.ratios_only and key.endswith("_rps"):
                continue
            checked += 1
            floor = base * (1.0 - args.tolerance)
            status = "ok" if value >= floor else "REGRESSED"
            print(f"{status:>9}  {dotted}: {base:.2f} -> {value:.2f} "
                  f"(floor {floor:.2f})")
            if value < floor:
                failures.append(f"REGRESSED  {dotted}: {base:.2f} -> {value:.2f} "
                                f"(allowed floor {floor:.2f})")
        elif key.endswith("_ms") and any("stages" in p for p in path):
            base_share = stage_share(committed, path)
            new_share = stage_share(fresh, path)
            if base_share is None or new_share is None:
                continue
            checked += 1
            ceiling = base_share + args.share_tolerance
            status = "ok" if new_share <= ceiling else "REGRESSED"
            print(f"{status:>9}  {dotted} share: {base_share:.1%} -> {new_share:.1%} "
                  f"(ceiling {ceiling:.1%})")
            if new_share > ceiling:
                failures.append(f"REGRESSED  {dotted}: stage share {base_share:.1%} "
                                f"-> {new_share:.1%} (ceiling {ceiling:.1%})")

    if checked == 0:
        print("bench_gate: no gated metrics found — baseline malformed?", file=sys.stderr)
        return 2
    if failures:
        print(f"\nbench_gate: {len(failures)} regression(s):")
        for f_ in failures:
            print(f"  {f_}")
        return 1
    print(f"\nbench_gate: {checked} metrics within tolerance.")
    return 0


if __name__ == "__main__":
    sys.exit(main())
