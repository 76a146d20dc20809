#!/usr/bin/env python3
"""Builds the benchmark from this checkout's sources and runs one workload.

    python3 crusade_bench/run.py --workload <name> --seed <n> \
        --seconds <s> --trace <0|1>
    python3 crusade_bench/run.py --smoke    # every workload for 1 s
    python3 crusade_bench/run.py --paper    # seed 1 of Tables 2-3, checked

Run it from anywhere; it works at the checkout root.  The build (the
repository's own CMake project plus the crusade_bench driver and its
reference program) lives in .bench_build/ and is rebuilt incrementally; its
output goes to stderr, so stdout carries only the driver's `name value unit`
lines and, last, its JSON result.  Temporary files of the build and of the
run stay in .bench_build/.
"""
import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = '.bench_build'
WORKLOADS = ('synth-sweep', 'synth-ft', 'serve-read', 'serve-write')
TARGETS = ('crusade_bench', 'crusade_bench_reference', 'crusaded')


def build(env):
    """Configures once, then builds the TARGETS.  True on success."""
    steps = []
    if not os.path.isfile(os.path.join(BUILD, 'CMakeCache.txt')):
        steps.append(['cmake', '-S', 'crusade_bench', '-B', BUILD,
                      '-DCMAKE_BUILD_TYPE=Release'])
    steps.append(['cmake', '--build', BUILD, '--target', *TARGETS,
                  '-j', str(min(4, os.cpu_count() or 1))])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, env=env).returncode != 0:
            print('run.py: build failed: ' + ' '.join(cmd), file=sys.stderr)
            return False
    return True


def driver(workload, seed, seconds, trace):
    work = os.path.join(BUILD, 'work')
    os.makedirs(work, exist_ok=True)
    return [os.path.join(BUILD, 'crusade_bench'),
            '--workload', workload, '--seed', str(seed),
            '--seconds', str(seconds), '--trace', str(trace),
            '--crusaded', os.path.join(BUILD, 'repo', 'tools', 'crusaded'),
            '--reference', os.path.join(BUILD, 'crusade_bench_reference'),
            '--work-dir', work]


def smoke(env):
    """Every workload once for one second; 0 when each ends correct."""
    bad = []
    for workload in WORKLOADS:
        run = subprocess.run(driver(workload, 1, 1, 0), env=env,
                             stdout=subprocess.PIPE, text=True)
        lines = run.stdout.strip().splitlines()
        ok = (run.returncode == 0 and lines
              and json.loads(lines[-1]).get('correct') is True)
        print(f'{workload}: {"ok" if ok else "FAILED"}')
        if not ok:
            bad.append(workload)
    return 1 if bad else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split('\n\n')[0])
    ap.add_argument('--workload', choices=WORKLOADS)
    ap.add_argument('--seed', type=int)
    ap.add_argument('--seconds', type=float)
    ap.add_argument('--trace', default='0', choices=('0', '1'))
    ap.add_argument('--smoke', action='store_true')
    ap.add_argument('--paper', action='store_true')
    args = ap.parse_args()
    if not (args.smoke or args.paper) and None in (
            args.workload, args.seed, args.seconds):
        ap.error('--workload, --seed and --seconds are required')

    os.chdir(ROOT)
    for needed in ('CMakeLists.txt', 'src/CMakeLists.txt',
                   'tools/crusaded.cpp'):
        if not os.path.isfile(needed):
            print(f'run.py: {needed} not found: run from a full checkout',
                  file=sys.stderr)
            return 2
    env = dict(os.environ, TMPDIR=os.path.abspath(os.path.join(BUILD, 'tmp')))
    os.makedirs(env['TMPDIR'], exist_ok=True)
    if not build(env):
        return 2
    if args.smoke:
        return smoke(env)
    cmd = (driver('paper', 1, 1, 0) if args.paper else
           driver(args.workload, args.seed, args.seconds, args.trace))
    return subprocess.run(cmd, env=env).returncode


if __name__ == '__main__':
    sys.exit(main())
