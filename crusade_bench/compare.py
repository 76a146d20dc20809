#!/usr/bin/env python3
"""Compares two sets of crusade_bench runs, metric by metric and workload by
workload.

    python3 crusade_bench/compare.py BASE_DIR NEW_DIR
    python3 crusade_bench/compare.py --agree RUNS_A RUNS_B

Each directory holds one file per run, named <workload>.<seed>.json: the
run's whole stdout (redirect run.py's stdout there), i.e. its `name value
unit` lines and, last, the JSON result.  Bounds and directions come from
BENCHMARK.json.

For every end-to-end metric and workload the verdict is:
  improved    NEW wins at least 9/10 of the seed-paired runs (ties count for
              neither side) and the medians differ by more than BASE's
              quartile spread;
  regressed   NEW's median is worse than BASE's by more than the allowance:
              the bound times BASE's median, and never less than the
              absolute floor (5 ms for setup_s);
  unresolved  BASE's own quartile spread is wider than the allowance and not
              every NEW run beats every BASE run;
  no worse    otherwise.
raw.* (unscaled timings) and per-layer metrics have no bound; their rows are
informational.

Answer quality is gated with zero tolerance, seed by seed:
  - a run whose result says correct=false is refused outright;
  - NEW may not fail more operations than BASE (failed/attempted);
  - gate.arch_cost_usd and gate.infeasible may not rise on any seed;
  - gate.sched_evals may change (a faster search is allowed) and is shown;
  - seed 1 is also checked against the exact values in baseline.json.
Any of these makes the exit code non-zero.  --agree checks two sets of runs
of the same commit: it also fails when an end-to-end metric is regressed or
unresolved, or when any gate.* value differs at all.  Standard library only.
"""
import argparse
import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
ABS_FLOOR = {'setup_s': 0.005}
GATES = ('gate.arch_cost_usd', 'gate.infeasible', 'gate.sched_evals')


def load_runs(directory):
    """({(workload, seed): {metric: value}}, {(workload, seed): result},
    [refused paths])."""
    runs, results, refused = {}, {}, []
    for path in sorted(glob.glob(os.path.join(directory, '*.json'))):
        workload, _, seed = os.path.basename(path)[:-5].rpartition('.')
        with open(path) as f:
            lines = [line for line in f.read().splitlines() if line.strip()]
        if not workload or not lines:
            continue
        try:
            result = json.loads(lines[-1])
        except ValueError:
            refused.append(f'{path}: no JSON result')
            continue
        if result.get('correct') is not True:
            refused.append(f'{path}: correct={result.get("correct")}')
            continue
        values = {}
        for line in lines[:-1]:
            parts = line.split()
            if len(parts) == 3:
                try:
                    values[parts[0]] = float(parts[1])
                except ValueError:
                    pass
        values.update({name: m['value']
                       for name, m in result['metrics'].items()})
        runs[(workload, seed)] = values
        results[(workload, seed)] = result
    return runs, results, refused


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(base, new, pairs, bound, floor, lower_is_better):
    """One row's verdict; base/new are value lists, pairs (b, n) tuples."""
    sign = 1 if lower_is_better else -1
    b1, bmed, b3 = quartiles(base)
    _, nmed, _ = quartiles(new)
    wins = sum(1 for b, n in pairs if sign * (b - n) > 0)
    if (pairs and wins >= 0.9 * len(pairs)
            and abs(nmed - bmed) > (b3 - b1)):
        return 'improved', wins
    if bound is None:
        return '-', wins
    allowance = max(bound * abs(bmed), floor)
    if sign * (nmed - bmed) > allowance:
        return 'regressed', wins
    every_better = all(sign * (b - n) > 0 for b in base for n in new)
    if (b3 - b1) > allowance and not every_better:
        return 'unresolved', wins
    return 'no worse', wins


def gate_problems(workload, base, new, results_base, results_new, agree):
    """Zero-tolerance checks of one workload; returns (problems, notes)."""
    problems, notes = [], []
    fails = {}
    for side, results in (('base', results_base), ('new', results_new)):
        rs = [r for (w, _), r in results.items() if w == workload]
        fails[side] = (sum(r['failed'] for r in rs),
                       sum(r['attempted'] for r in rs))
    (bf, ba), (nf, na) = fails['base'], fails['new']
    if nf * max(ba, 1) > bf * max(na, 1) or (agree and bf + nf):
        problems.append(f'failed operations: base {bf}/{ba}, new {nf}/{na}')
    seeds = sorted({s for w, s in base if w == workload} &
                   {s for w, s in new if w == workload})
    for gate in GATES:
        worse, changed = [], []
        for s in seeds:
            b, n = base[(workload, s)].get(gate), new[(workload, s)].get(gate)
            if b is None or n is None:
                continue
            if abs(n - b) > 1e-6 * max(abs(b), 1):
                changed.append(s)
                if n > b:
                    worse.append(s)
        if gate != 'gate.sched_evals' and worse:
            problems.append(f'{gate} higher on seed(s) {",".join(worse)}')
        elif changed and agree:
            problems.append(f'{gate} differs on seed(s) {",".join(changed)}')
        elif changed:
            notes.append(f'{gate} changed on seed(s) {",".join(changed)}')
    return problems, notes


def baseline_problems(workload, runs, baseline, label, agree):
    """Seed 1 of one side against baseline.json's exact values."""
    expect = baseline.get('seed1_gates', {}).get(workload)
    got = runs.get((workload, '1'))
    if not expect or not got:
        return [], []
    problems, notes = [], []
    for gate, want in expect.items():
        have = got.get(gate)
        if have is None or abs(have - want) <= 1e-6 * max(abs(want), 1):
            continue
        text = f'{label} seed 1 {gate} = {have:g}, baseline.json has {want:g}'
        if agree or (gate != 'gate.sched_evals' and have > want):
            problems.append(text)
        else:
            notes.append(text)
    return problems, notes


def main():
    ap = argparse.ArgumentParser(description=__doc__.split('\n\n')[0])
    ap.add_argument('--agree', action='store_true',
                    help='both directories are runs of the same commit')
    ap.add_argument('base')
    ap.add_argument('new')
    args = ap.parse_args()

    with open(os.path.join(ROOT, 'BENCHMARK.json')) as f:
        bench = json.load(f)
    with open(os.path.join(HERE, 'baseline.json')) as f:
        baseline = json.load(f)
    base, results_base, refused_base = load_runs(args.base)
    new, results_new, refused_new = load_runs(args.new)
    bad = [f'refused {r}' for r in refused_base + refused_new]
    workloads = sorted({w for w, _ in base} & {w for w, _ in new})
    if not workloads:
        print('no workload has runs in both directories', file=sys.stderr)
        return 2

    print(f'{"workload":<12} {"metric":<30} {"base q1/med/q3":>30} '
          f'{"new q1/med/q3":>30} {"pairs won":>9}  verdict')
    # End-to-end metrics first, then every other metric the runs report
    # (raw.*, per-layer, the service workloads' own), informational.
    known = {m['name']: m for m in bench['end_to_end'] + bench['per_layer']}
    others = []
    for r in list(base.values()) + list(new.values()):
        others += [n for n in r if n not in others and not n.startswith('gate.')
                   and n not in (m['name'] for m in bench['end_to_end'])]
    metrics = ([(m, True) for m in bench['end_to_end']] +
               [(known.get(n, {'name': n, 'better': 'higher' if n.endswith(
                   'per_s') else 'lower'}), False) for n in others])
    for workload in workloads:
        for metric, bounded in metrics:
            name = metric['name']
            b = {s: r[name] for (w, s), r in base.items()
                 if w == workload and name in r}
            n = {s: r[name] for (w, s), r in new.items()
                 if w == workload and name in r}
            if not b or not n:
                continue
            pairs = [(b[s], n[s]) for s in sorted(b.keys() & n.keys())]
            row, wins = verdict(list(b.values()), list(n.values()), pairs,
                                metric.get('bound') if bounded else None,
                                ABS_FLOOR.get(name, 0),
                                metric['better'] == 'lower')
            fmt = lambda v: '/'.join(f'{x:.4g}' for x in quartiles(v))
            print(f'{workload:<12} {name:<30} {fmt(list(b.values())):>30} '
                  f'{fmt(list(n.values())):>30} {wins:>4}/{len(pairs):<4}  '
                  f'{row}')
            if bounded and row in ('regressed', 'unresolved') and (
                    args.agree or row == 'regressed'):
                bad.append(f'{workload} {name}: {row}')
        problems, notes = gate_problems(workload, base, new, results_base,
                                        results_new, args.agree)
        for label, runs in (('base', base), ('new', new)):
            p, n = baseline_problems(workload, runs, baseline, label,
                                     args.agree)
            problems += p
            notes += n
        for text in notes:
            print(f'{workload:<12} note: {text}')
        bad += [f'{workload} {text}' for text in problems]

    print()
    if bad:
        print(('agree: NO' if args.agree else 'rejected') + ' —\n  ' +
              '\n  '.join(bad))
        return 1
    print('agree: yes' if args.agree else
          'no end-to-end regression, answer quality unchanged')
    return 0


if __name__ == '__main__':
    sys.exit(main())
