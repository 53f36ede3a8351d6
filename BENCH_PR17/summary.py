#!/usr/bin/env python3
"""summary.py DIR SEED... — per (workload, metric): quartiles of each side over
the pairs archived in DIR/pairs.jsonl, medians' change, pairs won, and the
driver's spread check (each side's inter-quartile distance / (bound x parent's
median))."""
import json, sys, statistics, os
d = sys.argv[1]
spec = json.load(open(os.path.join(os.path.dirname(os.path.abspath(__file__)), 'BENCHMARK.json')) if os.path.exists(os.path.join(os.path.dirname(os.path.abspath(__file__)), 'BENCHMARK.json')) else open('/root/repo/BENCHMARK.json'))
metrics = [(m['name'], m['better'], m['bound']) for m in spec['end_to_end']]
def quart(xs):
    xs = sorted(xs)
    if len(xs) < 2: return xs[0], xs[0], xs[0]
    q = statistics.quantiles(xs, n=4, method='inclusive')
    return q[0], q[1], q[2]
def g(x): return '%.5g' % x
rows = [json.loads(line) for line in open(f'{d}/pairs.jsonl')]  # pair order, parent before change
for seed in sys.argv[2:]:
    P, C = ([r['result'] for r in rows if r['side'] == side and r['pair'].startswith(f'seed{seed}-pair')] for side in ('parent', 'change'))
    print(f'== seed {seed}: {len(P)} pairs ==')
    print(f'{"workload":15s} {"metric":20s} {"parent q1/median/q3":>36s} {"change q1/median/q3":>36s} {"medians":>9s} {"won":>6s} {"bound":>6s}  iqr/allowed')
    for wi, w in enumerate(P[0]['workloads']):
        for name, better, bound in metrics:
            p = [r['workloads'][wi]['metrics'][name]['value'] for r in P]
            c = [r['workloads'][wi]['metrics'][name]['value'] for r in C]
            pq, cq = quart(p), quart(c)
            won = sum(1 for a, b in zip(p, c) if (b < a if better == 'lower' else b > a))
            ties = sum(1 for a, b in zip(p, c) if a == b)
            chg = (cq[1] - pq[1]) / pq[1] * 100 if pq[1] else 0
            allowed = bound * pq[1]
            pi = (pq[2] - pq[0]) / allowed if allowed else 0
            ci = (cq[2] - cq[0]) / allowed if allowed else 0
            print(f'{w["name"]:15s} {name:20s} {" / ".join(map(g, pq)):>36s} {" / ".join(map(g, cq)):>36s} {chg:+8.1f}% {won:>3d}/{len(p)-ties:<2d} {int(bound*100):>5d}%  {pi:.2f} / {ci:.2f}')
        fp = sum(r['workloads'][wi]['failed'] for r in P); ap = sum(r['workloads'][wi]['attempted'] for r in P)
        fc = sum(r['workloads'][wi]['failed'] for r in C); ac = sum(r['workloads'][wi]['attempted'] for r in C)
        print(f'{w["name"]:15s} {"failed/attempted":20s} {f"{fp}/{ap}":>36s} {f"{fc}/{ac}":>36s}')
    print()
