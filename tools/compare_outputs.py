#!/usr/bin/env python3
"""Write every output of a fixed set of 45 CLI calls, for a byte comparison
of two source trees.

    python3 tools/compare_outputs.py <tree> <out-dir>

    mkdir /tmp/parent && git archive HEAD~1 | tar -x -C /tmp/parent
    python3 tools/compare_outputs.py /tmp/parent /tmp/out-parent
    python3 tools/compare_outputs.py . /tmp/out-change
    diff -r /tmp/out-parent /tmp/out-change   # empty: same outputs

The calls run in one process through ``<tree>``'s own ``perfbench/run.py``
(its ``setup`` and ``invoke``), so each tree runs its own program. They are
every op of the three perfbench mixes at seed 7, then for each bundled
scenario its four checks, ``export-loci`` and ``simulate --t-end 5``, and
last ``simulate n5_hydro_wind.json --t-end 5 --pade-order 5``, whose traces
differ from the order-3 run's, so it shows the option reaches the model. The
three calls after it are refused inputs whose counts would overflow: a D_r
radius of 1e-320 under ``analyze --check theorem1`` and ``export-loci``, and
``simulate --dt 1e-300 --t-end 1``. New calls go at the end, so every earlier
call keeps its directory. Call k writes into ``<out-dir>/calls/<kk>``; the
perfbench inputs go to ``<out-dir>/inputs``. ``<out-dir>/log.txt`` holds
each call's argv, exit code (``crash`` for an uncaught exception) and
output, with ``<out-dir>`` and ``<tree>`` replaced by placeholders.
"""

import sys
from pathlib import Path

SEED = 7
CHECKS = ("theorem1", "fov", "lossy", "decentralized")


def main() -> None:
    if len(sys.argv) != 3:
        sys.exit(__doc__.split("\n\n")[1])
    tree, out = Path(sys.argv[1]).resolve(), Path(sys.argv[2]).resolve()
    if out.exists():
        sys.exit(f"compare_outputs: {out} exists; give a new directory")
    sys.path.insert(0, str(tree / "perfbench"))
    import run  # the tree's own; it imports the tree's nyqscale

    calls, cli = [], None
    for workload in run.WORKLOADS:
        _, cli, ops = run.setup(workload, SEED, out / "inputs" / workload)
        calls += [op.argv for op in ops]
    for name in sorted((tree / "src" / "nyqscale" / "data").glob("*.json")):
        calls += [("analyze", str(name), "--check", check) for check in CHECKS]
        calls += [("export-loci", str(name)), ("simulate", str(name), "--t-end", "5")]
    wind = tree / "src" / "nyqscale" / "data" / "n5_hydro_wind.json"
    calls.append(("simulate", str(wind), "--t-end", "5", "--pade-order", "5"))
    calls += [("analyze", str(wind), "--check", "theorem1", "--contour-r", "1e-320"),
              ("export-loci", str(wind), "--contour-r", "1e-320"),
              ("simulate", str(wind), "--dt", "1e-300", "--t-end", "1")]

    log = []
    for k, argv in enumerate(calls):
        code, text = run.invoke(cli, argv + ("--out-dir", str(out / "calls" / f"{k:02d}")))
        log.append(f"$ {' '.join(argv)}\nexit {'crash' if code is None else code}\n{text}")
    text = "\n".join(log).replace(str(out), "<out-dir>").replace(str(tree), "<tree>")
    (out / "log.txt").write_text(text, encoding="utf-8")
    print(f"{len(calls)} calls; outputs in {out}")


if __name__ == "__main__":
    main()
