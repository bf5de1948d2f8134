#!/usr/bin/env python3
"""Checks that two bench_all JSON outputs hold the same figures.

    python3 scripts/figure_diff.py A.json B.json

Host wall-clock data is not a result and is left out of the comparison:
the `engine-micro` figure is emptied (it is wholly wall-clock), rows whose
series or unit contains `wall` are dropped, and coords whose name contains
`wall` are stripped from the remaining rows. Everything else must be equal.
Exits 0 and prints the figure count when the two agree; otherwise prints
the first differing rows of each differing figure and exits 1.
"""

import json
import sys


def comparable(path):
    with open(path) as f:
        doc = json.load(f)
    for fig in doc['figures']:
        if fig['name'] == 'engine-micro':
            fig['rows'] = []
        fig['rows'] = [
            {k: (v if k != 'coords' else {c: x for c, x in v.items() if 'wall' not in c})
             for k, v in row.items()}
            for row in fig['rows']
            if 'wall' not in row['series'] and 'wall' not in row['unit']
        ]
    return doc['figures']


def main(argv):
    if len(argv) != 3:
        print("usage: figure_diff.py A.json B.json", file=sys.stderr)
        return 2
    a, b = comparable(argv[1]), comparable(argv[2])
    if a == b:
        rows = sum(len(fig['rows']) for fig in a)
        print(f"{len(a)} figures ({rows} rows) identical")
        return 0
    if [fig['name'] for fig in a] != [fig['name'] for fig in b]:
        print("figure lists differ:", [fig['name'] for fig in a], [fig['name'] for fig in b])
        return 1
    for fa, fb in zip(a, b):
        if fa == fb:
            continue
        print(f"figure {fa['name']} differs ({len(fa['rows'])} vs {len(fb['rows'])} rows)")
        shown = 0
        for ra, rb in zip(fa['rows'], fb['rows']):
            if ra != rb and shown < 3:
                print("  A:", json.dumps(ra, sort_keys=True))
                print("  B:", json.dumps(rb, sort_keys=True))
                shown += 1
    return 1


if __name__ == '__main__':
    sys.exit(main(sys.argv))
