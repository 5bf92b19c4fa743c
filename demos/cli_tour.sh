#!/bin/sh
# Every subcommand once, end to end, in a scratch directory.
set -e

dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT
cd "$dir"

echo "== generate: write fixture graph files"
graphscatter generate tetrahedron --out tetra.json
graphscatter generate triangle --out triangle.json
graphscatter generate star --out star.json
graphscatter generate fabry_perot --out fabry.json
graphscatter generate interval_compact --out box.json
head -n 8 tetra.json

echo
echo "== stot: scattering matrix sweep (CSV, first rows)"
graphscatter stot --graph fabry.json --steps 6 --format csv | head -n 4

echo
echo "== poles: resonances of the tetrahedron"
graphscatter poles --graph tetra.json --include-removable

echo
echo "== spectrum: particle-in-a-box momenta"
graphscatter spectrum --graph box.json --p-min 1 --p-max 10 --format csv

echo
echo "== verify: involution and unitarity defects (exits 0 on pass)"
graphscatter verify --graph tetra.json --steps 8 | tail -n 8

echo
echo "== equiv: triangle and loop-star give the same S_tot"
graphscatter equiv --graph triangle.json --graph-b star.json --steps 8 | head -n 6

echo
echo "all subcommands ran; outputs above"
