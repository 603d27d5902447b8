#!/bin/sh
# Recording session for EXPERIMENTS.md. Run from the repo root; takes a few
# seconds. Every figure replays on the cluster simulator in virtual time, so
# the output is a function of the flags alone: any host prints the same
# tables.
set -e
cd "$(dirname "$0")/.."
out=$(mktemp -d)
go build -o "$out/ehbench" ./cmd/easyhps-bench

"$out/ehbench" -verify                   > results/verify.txt 2>&1
"$out/ehbench" -fig 13 -points 4         > results/fig13.txt 2>&1
"$out/ehbench" -fig 14 -points 4         > results/fig14.txt 2>&1
"$out/ehbench" -fig 15                   > results/fig15.txt 2>&1
"$out/ehbench" -fig 16                   > results/fig16.txt 2>&1
"$out/ehbench" -fig 17 -points 4         > results/fig17.txt 2>&1
"$out/ehbench" -ablate all               > results/ablations.txt 2>&1
# Paper-scale thread grid (20x20 like the paper's 200/10) for the Fig. 16
# headline speedups.
"$out/ehbench" -fig 16 -swgg 320 -nussinov 320 -tgrid 20 > results/fig16_paperscale.txt 2>&1
rm -r "$out"
echo recorded
